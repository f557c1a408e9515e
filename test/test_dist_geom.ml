(* Closed-form distribution geometry must agree with a linear scan over
   the distribution's materialised tiles ([Distnot.tiles], virtual owners
   folded onto the physical grid): the same pieces in the same order, the
   same owner groups, merged runs, fragment counts and volumes, the same
   ownership answers and the same stored bytes. *)

module Rect = Distal_tensor.Rect
module Rng = Distal_support.Rng
module Comm_plan = Distal_runtime.Comm_plan
module Api = Distal.Api
module Machine = Api.Machine
module D = Api.Distnot
module G = Distal_ir.Dist_geom

(* {2 The oracle: a scan over every tile} *)

type oracle = {
  tiles : (Rect.t * int list) list;  (* tile, folded owners deduped *)
  held : Rect.t list array;  (* per physical proc, once per virtual owner *)
}

let oracle dist ~shape ~vmachine ~nprocs =
  let fold vc = Machine.linearize vmachine vc mod nprocs in
  let vtiles = D.tiles dist ~shape ~machine:vmachine in
  let held = Array.make nprocs [] in
  List.iter
    (fun (r, os) -> List.iter (fun vc -> held.(fold vc) <- r :: held.(fold vc)) os)
    vtiles;
  let dedup os =
    List.rev
      (List.fold_left (fun acc o -> if List.mem (fold o) acc then acc else fold o :: acc) [] os)
  in
  { tiles = List.map (fun (r, os) -> (r, dedup os)) vtiles; held }

let oracle_fragments o q =
  List.filter_map
    (fun (r, os) ->
      let p = Rect.inter q r in
      if Rect.is_empty p then None else Some (p, os))
    o.tiles

let oracle_groups o q =
  let groups = ref [] in
  List.iter
    (fun (p, os) ->
      match List.assoc_opt os !groups with
      | Some ps -> ps := p :: !ps
      | None -> groups := (os, ref [ p ]) :: !groups)
    (oracle_fragments o q);
  List.rev_map (fun (os, ps) -> (os, List.rev !ps)) !groups

(* {2 Comparison} *)

let show_rects rs = String.concat " " (List.map Rect.to_string rs)
let show_ints os = String.concat "," (List.map string_of_int os)

let check_query ~what geom o q =
  let want = oracle_groups o q in
  let got = G.pieces geom q in
  let fail fmt =
    QCheck.Test.fail_reportf ("%s, query %s: " ^^ fmt) what (Rect.to_string q)
  in
  if List.length want <> List.length got then
    fail "%d groups, oracle %d" (List.length got) (List.length want)
  else begin
    List.iter2
      (fun (os, ps) (g : G.group) ->
        if g.owners <> os then fail "owners [%s], oracle [%s]" (show_ints g.owners) (show_ints os);
        let pieces = Lazy.force g.pieces in
        if pieces <> ps then fail "pieces %s, oracle %s" (show_rects pieces) (show_rects ps);
        let merged = Comm_plan.merge_rects ps in
        if g.merged <> merged then
          fail "merged %s, oracle %s" (show_rects g.merged) (show_rects merged);
        if g.nfrag <> List.length ps then fail "nfrag %d, oracle %d" g.nfrag (List.length ps);
        let volume = List.fold_left (fun a r -> a + Rect.volume r) 0 ps in
        if g.volume <> volume then fail "volume %d, oracle %d" g.volume volume)
      want got;
    if G.fragments geom q <> oracle_fragments o q then fail "fragments differ";
    true
  end

let check_owns ~what geom o ~nprocs q =
  for proc = 0 to nprocs - 1 do
    let want = List.exists (fun r -> Rect.subset q r) o.held.(proc) in
    if G.owns geom ~proc q <> want then
      QCheck.Test.fail_reportf "%s: owns proc %d %s = %b, oracle %b" what proc
        (Rect.to_string q) (not want) want
  done;
  true

let check_bytes ~what geom o ~nprocs =
  for proc = 0 to nprocs - 1 do
    let want =
      List.fold_left (fun a r -> a +. (8.0 *. float_of_int (Rect.volume r))) 0.0 o.held.(proc)
    in
    if G.owned_bytes geom ~proc <> want then
      QCheck.Test.fail_reportf "%s: owned_bytes proc %d = %g, oracle %g" what proc
        (G.owned_bytes geom ~proc) want
  done;
  true

(* {2 Random cases} *)

(* A query rect: usually inside the shape, sometimes empty, sometimes
   hanging over an edge. *)
let random_rect rng shape =
  let lo = Array.map (fun n -> Rng.int rng (n + 1) - (if Rng.int rng 8 = 0 then 1 else 0)) shape in
  let hi =
    Array.mapi
      (fun d l ->
        let h = l + Rng.int rng (shape.(d) + 1) in
        if Rng.int rng 8 = 0 then h + 1 else min h shape.(d))
      lo
  in
  Rect.make ~lo ~hi:(Array.mapi (fun d h -> max h lo.(d)) hi)

let random_queries rng shape =
  Rect.full shape
  :: Rect.make ~lo:(Array.map (fun _ -> 0) shape) ~hi:(Array.map (fun _ -> 0) shape)
  :: List.init 6 (fun _ -> random_rect rng shape)

let run_case ~what dist ~shape ~vmachine ~nprocs rng =
  match D.validate dist ~tensor_rank:(Array.length shape) ~machine:vmachine with
  | Error _ -> true
  | Ok () ->
      let what = Printf.sprintf "%s %s shape %s" what (D.to_string dist)
          (Distal_support.Ints.to_string shape) in
      let geom = G.create ~merge:Comm_plan.merge_rects dist ~shape ~machine:vmachine ~nprocs in
      let o = oracle dist ~shape ~vmachine ~nprocs in
      check_bytes ~what geom o ~nprocs
      && List.for_all
           (fun q -> check_query ~what geom o q && check_owns ~what geom o ~nprocs q)
           (random_queries rng shape)

(* Extents 0-9 (so rarely divisible by the grid, sometimes empty), rank
   0-3. *)
let random_shape rng = Array.init (Rng.int rng 4) (fun _ -> if Rng.int rng 12 = 0 then 0 else 1 + Rng.int rng 9)

(* Single-level distributions from the semantic fuzzer's generator, on a
   machine or on a virtual grid folded onto fewer processors. *)
let single_level seed =
  let rng = Rng.create (seed * 104729) in
  let shape = random_shape rng in
  let mdims = Array.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng 4) in
  let vmachine = Machine.grid mdims in
  let nprocs =
    if Rng.int rng 2 = 0 then Machine.num_procs vmachine else 1 + Rng.int rng 5
  in
  let dist = Test_fuzz.gen_dist rng ~rank:(Array.length shape) ~mdims in
  run_case ~what:"single level" dist ~shape ~vmachine ~nprocs rng

(* Two-level distributions from the hierarchical fuzzer's generator. *)
let two_level seed =
  let rng = Rng.create (seed * 7907) in
  let shape = random_shape rng in
  let mdims = [| 1 + Rng.int rng 3; 1 + Rng.int rng 3 |] in
  let vmachine = Machine.grid mdims in
  let nprocs =
    if Rng.int rng 2 = 0 then Machine.num_procs vmachine else 1 + Rng.int rng 4
  in
  let dist = Test_fuzz.gen_dist2 rng ~rank:(Array.length shape) ~mdims in
  run_case ~what:"two levels" dist ~shape ~vmachine ~nprocs rng

(* Fixed shapes the random draws reach rarely: wide cyclic strips,
   scalars, three levels. *)
let fixed_cases =
  [
    ("[x,y] -> [x%3,y%2]", [| 17; 11 |], [| 3; 2 |], 6);
    ("[x,y] -> [x%1,y%1]", [| 16; 16 |], [| 4; 4 |], 16);
    ("[x,y] -> [x%2,*]", [| 9; 5 |], [| 2; 3 |], 6);
    ("[x] -> [x%1]", [| 64 |], [| 16 |], 4);
    ("[x,y] -> [x,y]", [| 6; 6 |], [| 3; 3 |], 2);
    ("[x,y] -> [y%2,1]", [| 7; 10 |], [| 2; 2 |], 4);
    ("[] -> [*]", [||], [| 3 |], 3);
    ("[] -> [1]", [||], [| 3 |], 2);
    ("[x,y] -> [x]; [x,y] -> [y%2]; [x,y] -> [x%1]", [| 13; 9 |], [| 2; 2; 3 |], 12);
    ("[x,y] -> [x%2]; [x,y] -> [*,x]", [| 10; 4 |], [| 2; 2; 2 |], 5);
  ]

let test_fixed () =
  let rng = Rng.create 17 in
  List.iter
    (fun (d, shape, mdims, nprocs) ->
      let ok =
        run_case ~what:"fixed" (D.parse_exn d) ~shape ~vmachine:(Machine.grid mdims) ~nprocs rng
      in
      Alcotest.(check bool) d true ok)
    fixed_cases

let qcheck_single =
  QCheck.Test.make ~name:"closed form == tile scan (single level)" ~count:400
    QCheck.small_nat (fun seed -> Test_fuzz.seeded (succ seed) (fun () -> single_level (succ seed)))

let qcheck_two =
  QCheck.Test.make ~name:"closed form == tile scan (two levels)" ~count:300
    QCheck.small_nat (fun seed -> Test_fuzz.seeded (succ seed) (fun () -> two_level (succ seed)))

let suites =
  [
    ( "dist geom",
      [
        Test_fuzz.to_alcotest qcheck_single;
        Test_fuzz.to_alcotest qcheck_two;
        Alcotest.test_case "fixed shapes" `Quick test_fixed;
      ] );
  ]
