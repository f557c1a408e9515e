(* Clocks, sample statistics, allocation counters and the result line. *)

module Json = Distal_support.Json

let now = Unix.gettimeofday

(* Taken when the program's modules initialise, before [main] runs:
   the first set-up is timed from here. *)
let process_start = now ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* {2 Percentiles} *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array. *)
let rank_index n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
let percentile_sorted a q = a.(rank_index (Array.length a) q)

let median xs =
  if Array.length xs = 0 then nan else percentile_sorted (sorted xs) 0.5

(* The highest of p90/p99/p99.9 with at least ten samples beyond it,
   falling back to the median: (percentile, value, samples). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (50.0, nan, 0)
  else
    let beyond q = n - 1 - rank_index n q in
    let q = List.fold_left (fun best q -> if beyond q >= 10 then q else best) 0.5 [ 0.9; 0.99; 0.999 ] in
    (q *. 100.0, percentile_sorted a q, n)

(* {2 Allocation counters}

   [Gc.minor_words] reads the live allocation pointer; major words and
   collections come from [Gc.quick_stat]. Minor words repeat exactly for
   a deterministic op; major words include promotions, which depend on
   where minor collections fall, so they repeat only approximately. *)

type alloc = { minor : float; major : float; collections : int }

let alloc_now () =
  let minor = Gc.minor_words () in
  let s = Gc.quick_stat () in
  { minor; major = s.Gc.major_words; collections = s.Gc.major_collections }

let alloc_diff a b =
  { minor = b.minor -. a.minor; major = b.major -. a.major; collections = b.collections - a.collections }

(* {2 Metrics} *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun r -> Printf.printf "  %-34s %16.6g %s\n" r.name r.value r.unit_) rows

(* The result: one JSON object, the last line of standard output. JSON
   has no infinity or NaN, so a non-finite value (the median of no
   samples) is written as 1e12. *)
let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Json.Float v else Json.Float 1e12 in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun r -> (r.name, Json.Obj [ ("value", num r.value); ("unit", Json.String r.unit_) ]))
               metrics) );
      ]
  in
  print_string (Json.to_string line);
  print_newline ()

(* {2 Process facts} *)

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let file = "/proc/self/status" in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let nproc () = Domain.recommended_domain_count ()

(* A seeded permutation of [0, n). *)
let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Distal_support.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* {2 Workload interface} *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  distald : string;  (** path of the distald executable *)
  out_dir : string;  (** where the socket, logs and trace files go *)
}

type report = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** traced runs only *)
  counters : metric list;  (** allocation counters, printed in every run *)
}
