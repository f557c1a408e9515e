(* Spans recorded around the benchmark's calls into each layer.

   Off until [set true], so untraced ops pay one branch per call. Spans are kept in memory and written as a Chrome trace when the
   run ends. A span's self time is its duration minus the part of it its
   children cover; children never overlap, because spans are opened and
   closed by one thread in stack order. *)

module Json = Distal_support.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  op : int;  (** the op or request this span belongs to, -1 for none *)
  t0 : float;
  mutable t1 : float;
  mutable counts : (string * float) list;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

let set b = on := b

let current_op () = match !stack with s :: _ -> s.op | [] -> -1
let current_parent () = match !stack with s :: _ -> s.id | [] -> -1

let open_span ?op name t0 =
  let op = match op with Some o -> o | None -> current_op () in
  let s = { id = !next_id; name; parent = current_parent (); op; t0; t1 = t0; counts = [] } in
  incr next_id;
  spans := s :: !spans;
  s

let span ?op name f =
  if not !on then f ()
  else begin
    let s = open_span ?op name (Util.now ()) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Util.now ();
        stack := List.tl !stack)
      f
  end

(* Attach a count to the innermost open span. *)
let count name v = if !on then match !stack with s :: _ -> s.counts <- (name, v) :: s.counts | [] -> ()

(* {2 Reports} *)

(* Per span name: (name, calls, total seconds, self seconds), slowest
   self time first. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let n, tot, sf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, sf +. self))
    !spans;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let print_self_times () =
  Printf.printf "per-layer self time (traced phase and layer probes)\n";
  Printf.printf "  %-28s %8s %12s %12s\n" "span" "calls" "total s" "self s";
  List.iter
    (fun (name, n, tot, sf) -> Printf.printf "  %-28s %8d %12.6f %12.6f\n" name n tot sf)
    (self_times ())

let span_count () = List.length !spans

let write_chrome file =
  let us t = Json.Float ((t -. Util.process_start) *. 1e6) in
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("ph", Json.String "X");
            ("ts", us s.t0);
            ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                ([ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("op", Json.Int s.op) ]
                @ List.rev_map (fun (k, v) -> (k, Json.Float v)) s.counts) );
          ])
      !spans
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ]));
  output_char oc '\n';
  close_out oc
