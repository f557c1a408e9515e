(* Per-layer probes of the traced run. Each one times or counts calls
   into one layer's public functions on the workload's own shapes, from
   outside the library, inside a span named after the layer. *)

module Api = Distal.Api
module Exec = Api.Exec
module Stats = Api.Stats
module Obs = Api.Obs
module Kr = Api.Kernel_registry
module Dense = Api.Dense
module Protocol = Distal_serve.Protocol
module Client = Distal_serve.Client

let cost = Api.Cost_model.cpu_distal

(* {2 lib/ir} *)

(* Every compile the benchmark makes goes through here, set-up included,
   so [ir.compiles] counts them all. *)
let compile_times : float list ref = ref []

let compile (s : Shapes.t) =
  let t, r = Util.time (fun () -> Trace.span "ir.compile" (fun () -> Api.compile_request (Shapes.request s))) in
  compile_times := t :: !compile_times;
  match r with Ok p -> p | Error e -> failwith (Printf.sprintf "compile %s: %s" s.Shapes.name e)

let ir () =
  let ts = Array.of_list !compile_times in
  [ Util.m "ir.compile_s" "s" (Util.median ts); Util.m "ir.compiles" "count" (float_of_int (Array.length ts)) ]

(* {2 lib/runtime simulation} *)

let metric run name = Option.value (Obs.Metrics.value run.Obs.Profile.metrics name) ~default:0.0

(* A profiled Model run: (wall, alloc, profile run). *)
let profiled_model plan =
  let profile = Obs.Profile.create () in
  let a0 = Util.alloc_now () in
  let t, r = Util.time (fun () -> Api.run ~mode:Exec.Model ~domains:1 ~cost ~profile plan ~data:[]) in
  let a = Util.alloc_diff a0 (Util.alloc_now ()) in
  (match r with Error e -> failwith ("model run: " ^ e) | Ok _ -> ());
  (t, a, List.hd (Obs.Profile.runs profile))

let reps = 3

let simulation shapes =
  Trace.span "probe.exec.model" @@ fun () ->
  let op = ref [] and pw = ref [] and cw = ref [] and un = ref [] and mi = ref [] and ma = ref [] in
  let tasks = ref 0.0 and groups = ref 0.0 and msgs = ref 0.0 and ratio = ref [] in
  List.iter
    (fun (_, plan) ->
      for r = 1 to reps do
        let t, a, run =
          Trace.span "exec.model" (fun () ->
              let (_, _, run) as r = profiled_model plan in
              List.iter (fun n -> Trace.count n (metric run n)) [ "exec.tasks"; "exec.messages"; "exec.copy_groups" ];
              r)
        in
        let p = metric run "exec.plan_wall_s" and c = metric run "exec.compute_wall_s" in
        op := t :: !op;
        pw := p :: !pw;
        cw := c :: !cw;
        un := (t -. p -. c) :: !un;
        mi := a.Util.minor :: !mi;
        ma := a.Util.major :: !ma;
        if r = 1 then begin
          tasks := !tasks +. metric run "exec.tasks";
          groups := !groups +. metric run "exec.copy_groups";
          msgs := !msgs +. metric run "exec.messages";
          ratio := metric run "exec.coalesce_ratio" :: !ratio
        end
      done)
    shapes;
  let med l = Util.median (Array.of_list l) in
  (* Means, not medians: the executor's own wall clocks have microsecond
     resolution, and a small plan's planning stage often reads 0. *)
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  [
    Util.m "exec.model_op_s" "s" (mean !op);
    Util.m "exec.plan_wall_s" "s" (mean !pw);
    Util.m "exec.compute_wall_s" "s" (mean !cw);
    Util.m "exec.unattributed_s" "s" (mean !un);
    Util.m "exec.minor_words_per_op" "words" (med !mi);
    Util.m "exec.major_words_per_op" "words" (med !ma);
    Util.m "exec.tasks" "count" !tasks;
    Util.m "exec.copy_groups" "count" !groups;
    Util.m "exec.messages" "count" !msgs;
    Util.m "exec.coalesce_ratio" "ratio" (List.fold_left ( +. ) 0.0 !ratio /. float_of_int (List.length !ratio));
  ]

(* Executable-plan builds on freshly compiled plans (a plan caches its
   eplan, so each build needs its own compile). *)
let eplan_build shapes =
  Trace.span "probe.exec.eplan" @@ fun () ->
  let ts =
    List.concat_map
      (fun (s, _) ->
        List.init reps (fun _ ->
            let plan = compile s in
            fst (Util.time (fun () -> Trace.span "exec.eplan" (fun () -> Api.eplan_exn ~cost plan)))))
      shapes
  in
  [ Util.m "exec.eplan_build_s" "s" (Util.median (Array.of_list ts)) ]

(* {2 lib/tensor/kernel_registry} *)

(* Per-task tile shapes of the full-warm plans, in each kernel's
   canonical letter order, with the operand shapes (output first). *)
let tiles =
  [
    ("gemm", [| 16; 16; 8 |], [ [| 16; 16 |]; [| 16; 8 |]; [| 8; 16 |] ]);
    ("ttv", [| 16; 64; 64 |], [ [| 16; 64 |]; [| 16; 64; 64 |]; [| 64 |] ]);
    ("ttm", [| 8; 32; 24; 32 |], [ [| 8; 32; 24 |]; [| 8; 32; 32 |]; [| 32; 24 |] ]);
    ("mttkrp", [| 16; 16; 12; 24 |], [ [| 16; 16 |]; [| 16; 12; 24 |]; [| 12; 16 |]; [| 24; 16 |] ]);
    ("innerprod", [| 10; 64; 64 |], [ [||]; [| 10; 64; 64 |]; [| 10; 64; 64 |] ]);
  ]

(* Achieved flop/s of each kernel's tiled implementation, called
   directly on its tile shape for at least 50 ms. *)
let leaf_rates () =
  Trace.span "probe.leaf" @@ fun () ->
  let rng = Distal_support.Rng.create 7 in
  List.map
    (fun (kernel, dims, operands) ->
      let ops = List.map (Dense.random rng) operands in
      let flops = Kr.flops ~kernel ~dims in
      let call () = Kr.run_named Kr.Tiled ~kernel ops in
      call ();
      let t0 = Util.now () in
      let n = ref 0 in
      Trace.span ("leaf." ^ kernel) (fun () ->
          while !n < 5 || Util.now () -. t0 < 0.05 do
            call ();
            incr n
          done);
      (kernel, float_of_int !n *. flops /. (Util.now () -. t0)))
    tiles

let leaf rates =
  let calibrated = Trace.span "calibrate" Distal_machine.Calibrate.kernel_rates in
  let errs = List.map (fun (k, r) -> log (List.assoc k calibrated /. r)) rates in
  List.map (fun (k, r) -> Util.m (Printf.sprintf "leaf.%s_gflops" k) "GF/s" (r /. 1e9)) rates
  @ [ Util.m "leaf.model_error" "ratio" (exp (List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs))) ]

(* {2 lib/runtime data path and lib/support/buf_pool} *)

let run_plan shapes ~rates =
  Trace.span "probe.run_plan" @@ fun () ->
  let op = ref [] and mi = ref [] and ma = ref [] and co = ref [] in
  let hits = ref 0 and acquired = ref 0 and leaf_s = ref 0.0 and op_s = ref 0.0 in
  List.iteri
    (fun i ((s : Shapes.t), plan) ->
      let ep = Api.eplan_exn ~cost plan in
      let data = Api.random_inputs ~seed:(1000 + i) plan in
      let run () =
        match Exec.run_plan ~domains:1 ep ~data with Ok _ -> () | Error e -> failwith ("run_plan: " ^ e)
      in
      run ();
      let p0 = Exec.plan_pool_stats ep in
      let ts =
        List.init (2 * reps) (fun _ ->
            let a0 = Util.alloc_now () in
            let t, () = Util.time (fun () -> Trace.span "run_plan" run) in
            let a = Util.alloc_diff a0 (Util.alloc_now ()) in
            op := t :: !op;
            mi := a.Util.minor :: !mi;
            ma := a.Util.major :: !ma;
            co := float_of_int a.Util.collections :: !co;
            t)
      in
      let p1 = Exec.plan_pool_stats ep in
      let open Distal_support.Buf_pool in
      hits := !hits + (p1.hits - p0.hits);
      acquired := !acquired + (p1.hits - p0.hits) + (p1.allocs - p0.allocs);
      let t = Util.median (Array.of_list ts) in
      op_s := !op_s +. t;
      leaf_s := !leaf_s +. ((Exec.plan_stats ep).Stats.flops /. List.assoc s.Shapes.kernel rates))
    shapes;
  let med l = Util.median (Array.of_list l) in
  [
    Util.m "run_plan.op_s" "s" (med !op);
    Util.m "run_plan.minor_words_per_op" "words" (med !mi);
    Util.m "run_plan.major_words_per_op" "words" (med !ma);
    Util.m "run_plan.major_collections_per_op" "count" (med !co);
    Util.m "buf_pool.hit_ratio" "ratio" (if !acquired = 0 then 1.0 else float_of_int !hits /. float_of_int !acquired);
    Util.m "leaf.share" "ratio" (!leaf_s /. !op_s);
  ]

(* {2 lib/support/pool} *)

(* [op ~domains] at the largest pool size up to two (never more than
   the host's cores) against one domain, best of three each. *)
let parallel_efficiency op =
  Trace.span "probe.pool" @@ fun () ->
  let d = min 2 (Util.nproc ()) in
  let best domains =
    op ~domains;
    List.fold_left min infinity
      (List.init reps (fun _ -> fst (Util.time (fun () -> Trace.span "pool.op" (fun () -> op ~domains)))))
  in
  let t1 = best 1 in
  let td = best d in
  [ Util.m "pool.parallel_efficiency" "ratio" (t1 /. td /. float_of_int d) ]

(* {2 lib/serve} *)

let p50 l = Util.median (Array.of_list l)

let server_counter metrics name =
  match Option.bind (Distal_support.Json.member name metrics) (Distal_support.Json.member "value") with
  | Some v -> Option.value (Distal_support.Json.to_float v) ~default:0.0
  | None -> 0.0

(* Reply encode/decode cost and size, measured by re-encoding the
   received message in-process (the JSON writer round-trips exactly, so
   the bytes are the ones that crossed the socket). *)
let codec msg =
  let te, payload = Util.time (fun () -> Trace.span "serve.encode" (fun () -> Protocol.encode_server msg)) in
  let td, _ = Util.time (fun () -> Trace.span "serve.decode" (fun () -> Protocol.decode_server payload)) in
  (te, td, float_of_int (String.length payload) /. 1024.0)

type serve_sample = { cls : [ `Cold | `Plan_hit | `Result_hit | `Error ]; latency : float }

(* [replies] are served result messages whose encode/decode cost and
   size are measured. The probe waits for each reply before the next
   submit, so its queue depth is 1. *)
let serve_metrics ~samples ~replies ~batches ~rejected ~gen_late =
  let of_cls c = List.filter_map (fun s -> if s.cls = c then Some s.latency else None) samples in
  let n = float_of_int (List.length samples) in
  let share c = float_of_int (List.length (of_cls c)) /. n in
  let codecs = List.map codec replies in
  [
    Util.m "serve.cold_s" "s" (p50 (of_cls `Cold));
    Util.m "serve.plan_hit_s" "s" (p50 (of_cls `Plan_hit));
    Util.m "serve.result_hit_s" "s" (p50 (of_cls `Result_hit));
    Util.m "serve.error_s" "s" (p50 (of_cls `Error));
    Util.m "serve.encode_s" "s" (p50 (List.map (fun (e, _, _) -> e) codecs));
    Util.m "serve.decode_s" "s" (p50 (List.map (fun (_, d, _) -> d) codecs));
    Util.m "serve.reply_kb" "KiB" (p50 (List.map (fun (_, _, kb) -> kb) codecs));
    Util.m "serve.plan_hit_ratio" "ratio" (share `Plan_hit +. share `Result_hit);
    Util.m "serve.result_hit_ratio" "ratio" (share `Result_hit);
    Util.m "serve.batches" "count" batches;
    Util.m "serve.rejected" "count" rejected;
    Util.m "serve.queue_depth_max" "count" 1.0;
    Util.m "serve.gen_late_s" "s" gen_late;
  ]

(* The closed-loop workloads' serve probe: each shape's request through
   distald one at a time — a cold compile, three new-data runs on the
   cached plan, three repeats answered from the result cache, and one
   request whose statement does not parse. *)
let serve_probe ~exe ~dir ~mode shapes =
  Trace.span "probe.serve" @@ fun () ->
  let d = Daemon.start ~exe ~dir [ "--domains"; "1" ] in
  let samples = ref [] and replies = ref [] and late = ref [] in
  let id = ref 0 in
  let send cls (s : Shapes.t) ~seed =
    incr id;
    let sub = Shapes.submit ~mode ~seed ~id:!id s in
    let t0 = Util.now () in
    let r =
      Trace.span "serve.request" (fun () ->
          match Client.send d.Daemon.client (Protocol.Submit sub) with
          | Error e -> Error e
          | Ok () ->
              late := (Util.now () -. t0) :: !late;
              Client.recv d.Daemon.client)
    in
    let latency = Util.now () -. t0 in
    match r with
    | Ok (Protocol.Result rep as msg) when cls <> `Error ->
        let got =
          if rep.Protocol.result_cached then `Result_hit else if rep.Protocol.plan_cached then `Plan_hit else `Cold
        in
        if got <> cls then failwith (Printf.sprintf "serve probe: %s answered from the wrong tier" s.Shapes.name);
        samples := { cls; latency } :: !samples;
        replies := msg :: !replies
    | Ok (Protocol.Failed _) when cls = `Error -> samples := { cls; latency } :: !samples
    | Ok _ -> failwith (Printf.sprintf "serve probe: unexpected reply for %s" s.Shapes.name)
    | Error e -> failwith ("serve probe: " ^ e)
  in
  List.iter
    (fun ((s : Shapes.t), _) ->
      send `Cold s ~seed:1;
      for seed = 2 to 4 do send `Plan_hit s ~seed done;
      for _ = 1 to 3 do send `Result_hit s ~seed:4 done;
      send `Error { s with Shapes.stmt = s.Shapes.stmt ^ " *" } ~seed:1)
    shapes;
  let metrics = match Client.stats d.Daemon.client with Ok (_, _, m) -> m | Error e -> failwith e in
  Daemon.stop d;
  serve_metrics ~samples:!samples ~replies:!replies
    ~batches:(server_counter metrics "serve.batches")
    ~rejected:(server_counter metrics "serve.rejected")
    ~gen_late:(p50 !late)
