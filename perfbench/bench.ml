(* The benchmark program: one workload per run, end-to-end metrics when
   untraced, per-layer metrics when traced. See WORKLOADS.md.

     bench.exe --workload model-cyclic|full-warm --seed N --seconds S
       --trace 0|1 --distald PATH --calib PATH [--out DIR] [--commit SHA]

   The last line of standard output is the result as one JSON object. *)

let workloads =
  [ ("model-cyclic", Model_cyclic.run); ("full-warm", Full_warm.run) ]

(* Variables that change the measured path. Everything the benchmark
   runs pins these explicitly, so a set variable means the environment
   disagrees with the recorded configuration. *)
let forbidden =
  [ "DISTAL_NUM_DOMAINS"; "DISTAL_KERNELS"; "DISTAL_PLAN_REUSE"; "DISTAL_POOL_MB"; "DISTAL_STAGE" ]

let distal_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 7 && String.sub kv 0 7 = "DISTAL_")

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 --distald PATH --calib PATH [--out DIR] \
     [--commit SHA]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get ?default k =
    match (List.assoc_opt ("--" ^ k) kv, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> usage ()
  in
  let name = get "workload" in
  let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let ctx =
    {
      Util.seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace;
      distald = get "distald";
      out_dir = get "out" ~default:".bench_out";
    }
  in
  let env = distal_env () in
  List.iter
    (fun kv ->
      let var = List.hd (String.split_on_char '=' kv) in
      if List.mem var forbidden || String.starts_with ~prefix:"DISTAL_SERVE_" var then begin
        Printf.eprintf "bench: %s is set; it changes the measured path, unset it\n" var;
        exit 2
      end)
    env;
  if not (Sys.file_exists ctx.Util.out_dir) then Sys.mkdir ctx.Util.out_dir 0o755;
  Printf.printf "workload %s seed %d seconds %g trace %b\n" name ctx.Util.seed ctx.Util.seconds trace;
  Printf.printf "config: nproc %d, ocaml %s, commit %s, domains 1, cost cpu_distal, DISTAL env [%s]\n%!"
    (Util.nproc ()) Sys.ocaml_version (get "commit" ~default:"unknown") (String.concat " " env);
  Host.start (get "calib");
  let r = Fun.protect ~finally:Host.stop (fun () -> run ctx) in
  Util.print_table "allocation counters" r.Util.counters;
  if trace then begin
    Trace.print_self_times ();
    let file = Filename.concat ctx.Util.out_dir (Printf.sprintf "%s-seed%d.trace.json" name ctx.Util.seed) in
    Trace.write_chrome file;
    Printf.printf "wrote %s (%d spans)\n" file (Trace.span_count ());
    Util.print_table "per-layer metrics" r.Util.per_layer
  end
  else Util.print_table "end-to-end metrics" r.Util.end_to_end;
  Util.print_result
    ~correct:(r.Util.failed = 0)
    ~attempted:r.Util.attempted ~failed:r.Util.failed
    (if trace then r.Util.per_layer else r.Util.end_to_end)
