module Rect = Distal_tensor.Rect
module Cost = Distal_machine.Cost_model

type raw = {
  tensor : string;
  pieces : Rect.t list Lazy.t;
  merged : Rect.t list;
  nfrag : int;
  volume : int;
  src : int;
  dst : int;
  link : Cost.link;
}

type xfer = {
  tensor : string;
  src : int;
  dst : int;
  link : Cost.link;
  rects : Rect.t list;
  fragments : int;
  volume : int;
}

let icmp (a : int) (b : int) = if a < b then -1 else if a > b then 1 else 0

(* Canonical order on rects of equal rank: lexicographic on the
   interleaved (lo, hi) coordinates. *)
let compare_rect (a : Rect.t) (b : Rect.t) =
  let n = Array.length a.lo in
  let rec go i =
    if i = n then 0
    else
      let c = icmp a.lo.(i) b.lo.(i) in
      if c <> 0 then c
      else
        let c = icmp a.hi.(i) b.hi.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let rec compare_rects a b =
  if a == b then 0
  else
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_rect x y in
        if c <> 0 then c else compare_rects xs ys

let sorted_by cmp a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

(* One merging pass along dimension [d], in place: sort so that rects
   identical in every other dimension are consecutive and ordered by
   [lo.(d)], then union neighbours that abut ([prev.hi.(d) = next.lo.(d)]).
   The rects of a batch are disjoint, so abutting is the only way to be
   mergeable. This is the planner's hot loop, so it works on arrays, skips
   the sort when the input already has the right order (tile discovery
   order usually does), and compacts merged runs in place. *)
let merge_along d a =
  let cmp (x : Rect.t) (y : Rect.t) =
    let n = Array.length x.lo in
    let rec go i =
      if i = n then icmp x.lo.(d) y.lo.(d)
      else if i = d then go (i + 1)
      else
        let c = icmp x.lo.(i) y.lo.(i) in
        if c <> 0 then c
        else
          let c = icmp x.hi.(i) y.hi.(i) in
          if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let mergeable (x : Rect.t) (y : Rect.t) =
    let n = Array.length x.lo in
    let rec same i =
      i = n
      || ((i = d || (x.lo.(i) = y.lo.(i) && x.hi.(i) = y.hi.(i))) && same (i + 1))
    in
    x.hi.(d) = y.lo.(d) && same 0
  in
  if not (sorted_by cmp a) then Array.sort cmp a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = ref 0 in
    for i = 1 to n - 1 do
      let r = a.(i) in
      if mergeable a.(!out) r then a.(!out) <- Rect.hull a.(!out) r
      else begin
        incr out;
        a.(!out) <- r
      end
    done;
    if !out = n - 1 then a else Array.sub a 0 (!out + 1)
  end

(* Union adjacent rects to a fixed point: sweep every dimension, and repeat
   while the sweep still shrinks the set — merging along one dimension can
   create alignment that enables a merge along another. The final canonical
   sort is usually free: the last sweep leaves the array ordered by
   (outer dims, innermost lo), which coincides with the canonical order for
   disjoint rects. *)
let merge_rects = function
  | ([] | [ _ ]) as rects -> rects
  | r0 :: _ as rects ->
      let dims = Rect.dim r0 in
      let a = ref (Array.of_list rects) in
      let rec fix () =
        let n = Array.length !a in
        for d = 0 to dims - 1 do
          a := merge_along d !a
        done;
        if Array.length !a < n then fix ()
      in
      fix ();
      let res = !a in
      if not (sorted_by compare_rect res) then Array.sort compare_rect res;
      Array.to_list res

let batch ~tensor ~src ~dst ~link pieces =
  let nfrag = List.length pieces in
  let volume = List.fold_left (fun acc r -> acc + Rect.volume r) 0 pieces in
  { tensor; pieces = Lazy.from_val pieces; merged = merge_rects pieces; nfrag; volume; src; dst; link }

let compare_xfer a b =
  let c = String.compare a.tensor b.tensor in
  if c <> 0 then c
  else
    let c = icmp a.src b.src in
    if c <> 0 then c
    else
      let c = compare_rects a.rects b.rects in
      if c <> 0 then c else icmp a.dst b.dst

let make_xfer tensor src dst link rects volume =
  { tensor; src; dst; link; rects; fragments = List.length rects; volume }

let hull_of = function
  | [] -> None
  | (r : Rect.t) :: rest -> Some (List.fold_left Rect.hull r rest)

(* No rect of a batch with bounding box [a] can ever merge with one of a
   batch with bounding box [b] when some dimension leaves a strict gap
   between the boxes: merging requires abutting coordinates ([hi = lo],
   bounds are exclusive) in one dimension and equal bounds in every
   other, and a gap rules both out — including transitively, since a
   merged rect stays inside its batch's box.

   A strict gap along one {e fixed} dimension chains: if consecutive
   boxes in the list keep a strict gap along dimension [k], every pair
   of boxes does. So one linear pass suffices — track, per dimension, a
   bit for "still strictly ascending with gaps" and one for descending,
   and accept when any dimension survives. Cyclic distributions hit
   this constantly (each task's fetch plan is a distinct stripe of the
   owner's data, discovered in stripe order); anything irregular falls
   back to the full merge, which stays correct, just slower. *)
let chain_separated rs =
  let rec start = function
    | [] -> true
    | (r : raw) :: tl -> (
        match hull_of r.merged with None -> start tl | Some b0 -> walk b0 tl)
  and walk b0 tl =
    let d = Array.length b0.Rect.lo in
    d <= 62
    &&
    let full = (1 lsl d) - 1 in
    let rec go (prev : Rect.t) asc desc = function
      | [] -> true
      | (r : raw) :: tl -> (
          match hull_of r.merged with
          | None -> go prev asc desc tl
          | Some (b : Rect.t) ->
              let asc = ref asc and desc = ref desc in
              for k = 0 to d - 1 do
                let bit = 1 lsl k in
                if prev.hi.(k) >= b.lo.(k) then asc := !asc land lnot bit;
                if b.hi.(k) >= prev.lo.(k) then desc := !desc land lnot bit
              done;
              !asc lor !desc <> 0 && go b !asc !desc tl)
    in
    go b0 full full tl
  in
  start rs

let rec sorted_rect_list = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> compare_rect a b <= 0 && sorted_rect_list rest

(* Reusable working tables for [coalesce]: the executor's timing assembly
   plans one step after another, and reallocating the intern and bucket
   hashes per step is measurable churn on many-step schedules. A scratch
   is cleared (capacity kept) at the start of every planning call; it must
   not be shared between concurrent callers. *)
type scratch = {
  s_tensors : (string, int) Hashtbl.t;
  s_buckets : (int, raw list ref) Hashtbl.t;
}

let scratch () = { s_tensors = Hashtbl.create 8; s_buckets = Hashtbl.create 64 }

let coalesce ?scratch:sc raws =
  (* Bucket by (tensor, src, dst). Tensor names are interned to small ints
     so bucket keys are plain ints; consecutive raws usually name the same
     tensor (the executor emits one task's fetches together), so the
     intern table is consulted only when the name changes. A bucket
     holding a single batch reuses the batch's pre-merged payload
     outright — the common case, since the executor merges each fetch
     plan once and shares it across tasks. *)
  let tensors, buckets =
    match sc with
    | Some s ->
        Hashtbl.clear s.s_tensors;
        Hashtbl.clear s.s_buckets;
        (s.s_tensors, s.s_buckets)
    | None -> (Hashtbl.create 8, Hashtbl.create 64)
  in
  let last_tn = ref "" and last_id = ref 0 in
  let intern tn =
    if tn == !last_tn then !last_id
    else begin
      let id =
        match Hashtbl.find_opt tensors tn with
        | Some id -> id
        | None ->
            let id = Hashtbl.length tensors in
            Hashtbl.add tensors tn id;
            id
      in
      last_tn := tn;
      last_id := id;
      id
    end
  in
  List.iter
    (fun (r : raw) ->
      let key = (intern r.tensor lsl 44) lor (r.src lsl 22) lor r.dst in
      match Hashtbl.find_opt buckets key with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add buckets key (ref [ r ]))
    raws;
  Hashtbl.fold
    (fun _ l acc ->
      match !l with
      | [ (r : raw) ] -> make_xfer r.tensor r.src r.dst r.link r.merged r.volume :: acc
      | rev_rs ->
          (* Buckets cons in reverse discovery order; restoring discovery
             order usually leaves the concatenated payload already in
             canonical order, so the no-merge fast path below pays one
             sortedness sweep instead of a sort. *)
          let rs = List.rev rev_rs in
          let (r0 : raw) = List.hd rs in
          let payload = List.concat_map (fun (r : raw) -> r.merged) rs in
          let rects =
            if chain_separated rs then
              if sorted_rect_list payload then payload
              else List.sort compare_rect payload
            else merge_rects payload
          in
          let volume = List.fold_left (fun acc (r : raw) -> acc + r.volume) 0 rs in
          make_xfer r0.tensor r0.src r0.dst r0.link rects volume :: acc)
    buckets []
  |> List.sort compare_xfer

let uncoalesced raws =
  List.concat_map
    (fun (r : raw) ->
      List.map
        (fun p -> make_xfer r.tensor r.src r.dst r.link [ p ] (Rect.volume p))
        (Lazy.force r.pieces))
    raws
  |> List.sort compare_xfer

let describe = function
  | [] -> "(empty)"
  | [ r ] -> Rect.to_string r
  | r :: rest ->
      Printf.sprintf "%s (+%d fragments)" (Rect.to_string r) (List.length rest)
