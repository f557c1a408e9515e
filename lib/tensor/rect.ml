type t = { lo : int array; hi : int array }

let rec ordered_from lo hi d = d = Array.length lo || (lo.(d) <= hi.(d) && ordered_from lo hi (d + 1))

let make ~lo ~hi =
  assert (Array.length lo = Array.length hi && ordered_from lo hi 0);
  { lo; hi }

let full dims = make ~lo:(Array.map (fun _ -> 0) dims) ~hi:(Array.copy dims)
let dim t = Array.length t.lo
let extents t = Array.init (dim t) (fun d -> t.hi.(d) - t.lo.(d))

(* Allocation-free: the executor calls these per task and per fetch. *)
let rec volume_from t d v = if d = dim t then v else volume_from t (d + 1) (v * (t.hi.(d) - t.lo.(d)))
let volume t = volume_from t 0 1

let rec nonempty_from t d = d = dim t || (t.lo.(d) < t.hi.(d) && nonempty_from t (d + 1))
let is_empty t = not (nonempty_from t 0)

let rec contains_from t coord d =
  d = dim t || (t.lo.(d) <= coord.(d) && coord.(d) < t.hi.(d) && contains_from t coord (d + 1))

let contains t coord = Array.length coord = dim t && contains_from t coord 0

let rec within_from a b d =
  d = dim a || (b.lo.(d) <= a.lo.(d) && a.hi.(d) <= b.hi.(d) && within_from a b (d + 1))

let subset a b =
  assert (dim a = dim b);
  is_empty a || within_from a b 0

let inter a b =
  assert (dim a = dim b);
  let lo = Array.init (dim a) (fun d -> max a.lo.(d) b.lo.(d)) in
  let hi = Array.init (dim a) (fun d -> max lo.(d) (min a.hi.(d) b.hi.(d))) in
  { lo; hi }

let hull a b =
  assert (dim a = dim b);
  if is_empty a then b
  else if is_empty b then a
  else
    {
      lo = Array.init (dim a) (fun d -> min a.lo.(d) b.lo.(d));
      hi = Array.init (dim a) (fun d -> max a.hi.(d) b.hi.(d));
    }

let overlaps a b = not (is_empty (inter a b))
let equal a b = a.lo = b.lo && a.hi = b.hi

let iter t f =
  if not (is_empty t) then
    Distal_support.Ints.iter_box (extents t) (fun off ->
        f (Array.init (dim t) (fun d -> t.lo.(d) + off.(d))))

let to_string t =
  if dim t = 0 then "[scalar]"
  else
    String.concat "x"
      (List.init (dim t) (fun d -> Printf.sprintf "[%d,%d)" t.lo.(d) t.hi.(d)))

let pp fmt t = Stdlib.Format.pp_print_string fmt (to_string t)
