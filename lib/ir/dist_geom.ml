module Ints = Distal_support.Ints
module Rect = Distal_tensor.Rect

(* A partitioned machine dimension: the tensor dimension it splits, the
   strip width ([None]: one block per processor), the extent, and its
   index among all partitioned dimensions of the distribution. *)
type pax = { dim : int; strip : int option; g : int; ix : int }

type group = {
  owners : int list;
  merged : Rect.t list;
  nfrag : int;
  volume : int;
  pieces : Rect.t list Lazy.t;
}

(* A color is one coordinate per partitioned machine dimension, all
   levels in order, linearized row-major over their extents [gs]. *)
type t = {
  full : Rect.t;
  levels : pax array array;
  gs : int array;
  strides : int array;  (* of a color index *)
  owners : int list array;  (* per color: physical owners, deduped *)
  gid : int array;  (* per color: its owner list, interned *)
  owned : int array;  (* per physical processor: elements stored *)
  merge : Rect.t list -> Rect.t list;
}

let coord t color i = color / t.strides.(i) mod t.gs.(i)
let width p n = match p.strip with Some b -> b | None -> Ints.ceil_div (max n 1) p.g
let color_of p k = match p.strip with Some _ -> k mod p.g | None -> k

(* The segments [p] cuts from [lo, hi) that meet [qlo, qhi), ascending,
   each with its color coordinate. *)
let cut p ~qlo ~qhi (lo, hi) =
  let w = width p (hi - lo) in
  let a = max lo qlo and b = min hi qhi in
  if a >= b then []
  else
    let k0 = (a - lo) / w in
    List.init (((b - 1 - lo) / w) - k0 + 1) (fun i ->
        let l = lo + ((k0 + i) * w) in
        (color_of p (k0 + i), (l, min hi (l + w))))

(* The colors whose tiles meet [q], each with its segments per dimension
   that meet [q], clipped to [q]. Colors come out ascending, which is tile
   discovery order: partitioned machine dimensions are numbered in machine
   order, so a color's index and its lowest virtual owner rise together. *)
let leaves t (q : Rect.t) =
  let acc = ref [] in
  let rec level li color segs =
    if li = Array.length t.levels then
      let clip d = List.map (fun (lo, hi) -> (max lo q.lo.(d), min hi q.hi.(d))) in
      acc := (color, Array.mapi clip segs) :: !acc
    else
      let paxes = t.levels.(li) in
      let rec combo i color segs =
        if i = Array.length paxes then level (li + 1) color segs
        else
          let p = paxes.(i) in
          let rec by_color = function
            | [] -> ()
            | (c, s) :: rest ->
                let rec run acc = function
                  | (c', s) :: tl when c' = c -> run (s :: acc) tl
                  | tl -> (List.rev acc, tl)
                in
                let mine, rest = run [ s ] rest in
                let segs = Array.copy segs in
                segs.(p.dim) <- mine;
                combo (i + 1) ((color * p.g) + c) segs;
                by_color rest
          in
          List.concat_map (cut p ~qlo:q.lo.(p.dim) ~qhi:q.hi.(p.dim)) segs.(p.dim)
          |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
          |> by_color
      in
      combo 0 color segs
  in
  if not (Rect.is_empty (Rect.inter q t.full)) then
    level 0 0 (Array.map (fun n -> [ (0, n) ]) t.full.hi);
  List.rev !acc

let create ~merge dist ~shape ~(machine : Distal_machine.Machine.t) ~nprocs =
  let vstrides = Ints.row_major_strides machine.dims in
  let base = ref 0 and bcast = ref [] and pmdims = ref [] and off = ref 0 in
  let level (lvl : Distnot.level) =
    let rec dim_of v d = function
      | x :: rest -> if Ident.equal x v then d else dim_of v (d + 1) rest
      | [] -> invalid_arg "Dist_geom.create: unvalidated distribution"
    in
    let paxes = ref [] in
    List.iteri
      (fun m axis ->
        let gm = !off + m in
        let add v strip =
          let dim = dim_of v 0 lvl.tensor_axes and ix = List.length !pmdims in
          let p = { dim; strip; g = machine.dims.(gm); ix } in
          pmdims := gm :: !pmdims;
          paxes := p :: !paxes
        in
        match axis with
        | Distnot.Part v -> add v None
        | Distnot.Cyclic (v, b) -> add v (Some b)
        | Distnot.Fix c -> base := !base + (c * vstrides.(gm))
        | Distnot.Bcast -> bcast := gm :: !bcast)
      lvl.machine_axes;
    off := !off + List.length lvl.machine_axes;
    Array.of_list (List.rev !paxes)
  in
  let levels = Array.of_list (List.map level dist) in
  let pmdims = Array.of_list (List.rev !pmdims) in
  let gs = Array.map (fun m -> machine.dims.(m)) pmdims in
  let ncolors = Ints.prod gs in
  let t =
    { full = Rect.full shape; levels; gs; strides = Ints.row_major_strides gs;
      owners = Array.make ncolors []; gid = Array.make ncolors 0; owned = Array.make nprocs 0; merge }
  in
  (* Broadcast offsets in row-major order: a color's virtual owners
     ascend in linear index. *)
  let spread offs m =
    List.concat_map (fun o -> List.init machine.dims.(m) (fun k -> o + (k * vstrides.(m)))) offs
  in
  let bcast_offs = List.fold_left spread [ 0 ] (List.rev !bcast) in
  (* Stored elements per color: per dimension, its segments' summed
     lengths; counted once per virtual owner. *)
  let elems = Array.make ncolors 0 in
  let len = List.fold_left (fun a (lo, hi) -> a + hi - lo) 0 in
  List.iter (fun (c, segs) -> elems.(c) <- Array.fold_left (fun a l -> a * len l) 1 segs) (leaves t t.full);
  let interned = Hashtbl.create 16 in
  for color = 0 to ncolors - 1 do
    let lin = ref !base in
    Array.iteri (fun i m -> lin := !lin + (coord t color i * vstrides.(m))) pmdims;
    let procs = List.map (fun o -> (!lin + o) mod nprocs) bcast_offs in
    List.iter (fun p -> t.owned.(p) <- t.owned.(p) + elems.(color)) procs;
    let os = List.rev (List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) [] procs) in
    t.owners.(color) <- os;
    if not (Hashtbl.mem interned os) then Hashtbl.add interned os (Hashtbl.length interned);
    t.gid.(color) <- Hashtbl.find interned os
  done;
  t

(* Row-major product of per-dimension segment lists: canonical order when
   each list ascends. *)
let product (segs : (int * int) list array) =
  let n = Array.length segs in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  let rec go d acc =
    if d = n then Rect.make ~lo:(Array.copy lo) ~hi:(Array.copy hi) :: acc
    else
      List.fold_right
        (fun (l, h) acc ->
          lo.(d) <- l;
          hi.(d) <- h;
          go (d + 1) acc)
        segs.(d) acc
  in
  go 0 []

(* One color's pieces of [q] in discovery order: level by level, each
   tile's sub-tiles with the first tensor dimension varying fastest. *)
let color_pieces t (q : Rect.t) color =
  let rec level li tile =
    if li = Array.length t.levels then
      [ Rect.make ~lo:(Array.mapi (fun d (l, _) -> max l q.lo.(d)) tile)
          ~hi:(Array.mapi (fun d (_, h) -> min h q.hi.(d)) tile) ]
    else begin
      let kids = Array.map (fun s -> [ s ]) tile in
      Array.iter
        (fun p ->
          kids.(p.dim) <-
            List.filter_map
              (fun (c, s) -> if c = coord t color p.ix then Some s else None)
              (cut p ~qlo:q.lo.(p.dim) ~qhi:q.hi.(p.dim) tile.(p.dim)))
        t.levels.(li);
      let rec colex d tile =
        if d < 0 then level (li + 1) tile
        else
          List.concat_map
            (fun s -> colex (d - 1) (Array.mapi (fun e x -> if e = d then s else x) tile))
            kids.(d)
      in
      colex (Array.length tile - 1) tile
    end
  in
  level 0 (Array.map (fun n -> (0, n)) t.full.hi)

(* Maximal runs of ascending disjoint segments. *)
let rec runs = function
  | (l1, h1) :: (l2, h2) :: rest when h1 = l2 -> runs ((l1, h2) :: rest)
  | x :: rest -> x :: runs rest
  | [] -> []

let make_group t q ls =
  let colors = List.map fst ls in
  let sum f =
    List.fold_left (fun acc (_, segs) -> acc + Array.fold_left (fun a l -> a * f l) 1 segs) 0 ls
  in
  let pieces = lazy (List.concat_map (color_pieces t q) colors) in
  (* A product of per-coordinate color sets covers a product of
     per-dimension segment lists, so its merged runs are per-dimension
     runs; other unions (folded virtual colors) take the general merger. *)
  let distinct i =
    List.length (List.sort_uniq Int.compare (List.map (fun c -> coord t c i) colors))
  in
  let merged =
    match ls with
    | [ (_, segs) ] -> product (Array.map runs segs)
    | _ when List.length ls = Array.fold_left ( * ) 1 (Array.init (Array.length t.gs) distinct) ->
        let by_lo (a, _) (b, _) = Int.compare a b in
        product
          (Array.init (Rect.dim t.full) (fun d ->
               runs (List.sort_uniq by_lo (List.concat_map (fun (_, segs) -> segs.(d)) ls))))
    | _ -> t.merge (Lazy.force pieces)
  in
  {
    owners = t.owners.(List.hd colors);
    merged;
    nfrag = sum List.length;
    volume = sum (List.fold_left (fun a (lo, hi) -> a + hi - lo) 0);
    pieces;
  }

let pieces t q =
  let groups = ref [] in
  List.iter
    (fun ((c, _) as leaf) ->
      match List.assoc_opt t.gid.(c) !groups with
      | Some r -> r := leaf :: !r
      | None -> groups := (t.gid.(c), ref [ leaf ]) :: !groups)
    (leaves t q);
  List.rev_map (fun (_, r) -> make_group t q (List.rev !r)) !groups

let fragments t q =
  List.concat_map
    (fun (c, _) -> List.map (fun r -> (r, t.owners.(c))) (color_pieces t q c))
    (leaves t q)

let owns t ~proc (r : Rect.t) =
  if Rect.is_empty r then t.owned.(proc) > 0
  else
    Rect.subset r t.full
    &&
    (* Descend the levels to the tile holding [r.lo]; it must hold [r]. *)
    let lo = Array.make (Rect.dim r) 0 and hi = Array.copy t.full.hi in
    let color = ref 0 in
    Array.iter
      (Array.iter (fun p ->
           let d = p.dim in
           let w = width p (hi.(d) - lo.(d)) in
           let k = (r.lo.(d) - lo.(d)) / w in
           lo.(d) <- lo.(d) + (k * w);
           hi.(d) <- min hi.(d) (lo.(d) + w);
           color := (!color * p.g) + color_of p k))
      t.levels;
    Rect.subset r (Rect.make ~lo ~hi) && List.mem proc t.owners.(!color)

let owned_bytes t ~proc = 8.0 *. float_of_int t.owned.(proc)
