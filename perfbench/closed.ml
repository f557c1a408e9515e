(* A closed loop with one caller: the next op starts when the previous
   one has been checked. Shared by model-cyclic and full-warm. *)

type 'r op = { run : unit -> 'r; check : 'r -> bool }

type sample = {
  latency : float;  (** the library call, in wall seconds *)
  cycle : float;  (** the call and its check *)
  scale : float;  (** host-speed scale, from the probes around the op ([Host.window]) *)
  alloc : Util.alloc;
  traced : bool;
}

type result = { samples : sample array; wall : float; failed : int }

(* Ops [next 0], [next 1], ... until [seconds] have passed; op [i] is
   traced when [traced i]. Each op is a round of library calls. The
   latency and allocation of an op cover [run] only; a failed check or
   an exception counts the op as failed. The host probe runs between
   ops, outside every timed section. *)
let loop ~seconds ~traced next =
  let samples = ref [] and failed = ref 0 in
  let t_start = Util.now () in
  let probes = ref [ Host.measure () ] in
  let i = ref 0 in
  while Util.now () -. t_start < seconds do
    let o : _ op = next !i in
    let traced = traced !i in
    Trace.set traced;
    let latency, cycle, alloc =
      Trace.span ~op:!i "op" (fun () ->
          let a0 = Util.alloc_now () in
          let t0 = Util.now () in
          let r = try Ok (Trace.span "round" o.run) with e -> Error e in
          let t1 = Util.now () in
          let a1 = Util.alloc_now () in
          let ok =
            match r with
            | Ok r -> Trace.span "check" (fun () -> o.check r)
            | Error e ->
                Printf.printf "op %d raised %s\n" !i (Printexc.to_string e);
                false
          in
          if not ok then incr failed;
          let alloc = Util.alloc_diff a0 a1 in
          Trace.count "minor_words" alloc.Util.minor;
          Trace.count "major_words" alloc.Util.major;
          (t1 -. t0, Util.now () -. t0, alloc))
    in
    probes := Host.measure () :: !probes;
    samples := { latency; cycle; scale = nan; alloc; traced } :: !samples;
    incr i
  done;
  let wall = Util.now () -. t_start in
  let scales = Host.window_scales (Array.of_list (List.rev !probes)) in
  let samples = Array.mapi (fun i s -> { s with scale = scales.(i) }) (Array.of_list (List.rev !samples)) in
  { samples; wall; failed = !failed }

let select ~traced r = List.filter (fun s -> s.traced = traced) (Array.to_list r.samples)

(* Host-scaled latencies of the untraced (or traced) ops. *)
let latencies ?(traced = false) r = Array.of_list (List.map (fun s -> s.latency *. s.scale) (select ~traced r))

(* Ops per host-scaled second of op cycles (call and check). *)
let throughput ?(traced = false) ?(scaled = true) r =
  let ss = select ~traced r in
  float_of_int (List.length ss)
  /. List.fold_left (fun acc s -> acc +. (s.cycle *. if scaled then s.scale else 1.0)) 0.0 ss

(* The end-to-end metrics of an untraced loop. Unscaled figures are
   printed beside them. *)
let end_to_end ~setup_s ~peak_rss_mb r =
  let lat = latencies r in
  let pct, tail, n = Util.tail lat in
  let raw = Array.map (fun s -> s.latency) r.samples in
  let scales = Array.map (fun s -> s.scale) r.samples in
  Printf.printf "ops %d in %.3f s, op_tail_s is p%g of %d samples\n" (Array.length lat) r.wall pct n;
  Printf.printf "unscaled: ops_per_s %.4f, op_p50_s %.6f, op_tail_s %.6f; host scale median %.4f (%.4f-%.4f)\n"
    (throughput ~scaled:false r) (Util.median raw)
    (let _, t, _ = Util.tail raw in
     t)
    (Util.median scales)
    (Array.fold_left min infinity scales)
    (Array.fold_left max 0.0 scales);
  [
    Util.m "setup_s" "s" setup_s;
    Util.m "ops_per_s" "1/s" (throughput r);
    Util.m "op_p50_s" "s" (Util.median lat);
    Util.m "op_tail_s" "s" tail;
    Util.m "peak_rss_mb" "MB" peak_rss_mb;
  ]

(* Allocation per untraced op, the median over ops. Minor words repeat
   exactly; major words and collections include promotion and so vary
   slightly. *)
let counters r =
  let per f = Util.median (Array.of_list (List.map (fun s -> f s.alloc) (select ~traced:false r))) in
  [
    Util.m "loop.minor_words_per_op" "words" (per (fun a -> a.Util.minor));
    Util.m "loop.major_words_per_op" "words" (per (fun a -> a.Util.major));
    Util.m "loop.major_collections_per_op" "count" (per (fun a -> float_of_int a.Util.collections));
  ]

(* One set-up: (unscaled time, host-scaled time, state). It is scaled
   by [Host.window] probes on each side, since no probe runs inside it.
   The first set-up is timed from process start, less its probes. *)
let timed_setup ~first setup =
  let probes () = Array.init Host.window (fun _ -> Host.measure ()) in
  let t_probes, before = Util.time probes in
  let t0 = if first then Util.process_start +. t_probes else Util.now () in
  let st = setup () in
  let t = Util.now () -. t0 in
  (t, t *. Host.scale (Array.append before (probes ())), st)

(* A closed-loop workload end to end. The first set-up's state drives
   the loop; [setup_reps - 1] more set-ups run after the loop, and
   [setup_s] is the median of all of them. Peak RSS is read before the
   extra set-ups, so their garbage does not count. An untraced run times
   one loop of [ctx.seconds]. A traced run traces every other op of its
   loop, so the tracing overhead compares traced and untraced ops run
   side by side, and then runs [probes] for the per-layer metrics.
   [op st ~traced] builds the next op. *)
let run (ctx : Util.ctx) ~setup_reps ~setup ~op ~probes =
  let setup_0 = timed_setup ~first:true setup in
  let _, _, st = setup_0 in
  let traced i = ctx.trace && i mod 2 = 1 in
  let r = loop ~seconds:ctx.seconds ~traced (fun i -> op st ~traced:(traced i)) in
  let peak_rss_mb = Util.peak_rss_mb () in
  let report =
    {
      Util.attempted = Array.length r.samples;
      failed = r.failed;
      end_to_end = [];
      per_layer = [];
      counters = counters r;
    }
  in
  if not ctx.trace then begin
    let setups = Array.append [| setup_0 |] (Array.init (setup_reps - 1) (fun _ -> timed_setup ~first:false setup)) in
    let show f = String.concat ", " (Array.to_list (Array.map (fun s -> Printf.sprintf "%.4f" (f s)) setups)) in
    Printf.printf "set-ups: %s s unscaled, %s s host-scaled\n" (show (fun (t, _, _) -> t)) (show (fun (_, t, _) -> t));
    let setup_s = Util.median (Array.map (fun (_, t, _) -> t) setups) in
    { report with end_to_end = end_to_end ~setup_s ~peak_rss_mb r }
  end
  else begin
    Trace.set true;
    let overhead = (throughput r /. throughput ~traced:true r) -. 1.0 in
    { report with per_layer = probes st @ [ Util.m "trace.overhead" "ratio" overhead ] }
  end
