(* Host-speed scaling of every end-to-end timing.

   The reference host's speed drifts with its neighbours' load: an
   allocation-bound loop varies by 20% of its median within a minute,
   and runs minutes apart by up to 35%. So the benchmark runs a fixed
   kernel (calib/calib.ml) in a child process between timed sections,
   and scales each section by [nominal_s] over the mean of the kernel
   times around it. The probe and the benchmark share one CPU (see
   run.py), so the probe measures the CPU the sections ran on. A scaled
   figure reads as the time the section would take while the kernel
   takes [nominal_s]. *)

(* The kernel's median time on the reference host, a 2-vCPU Intel Xeon
   virtual machine. *)
let nominal_s = 0.02

type t = { pid : int; to_probe : out_channel; from_probe : in_channel }

let probe = ref None

let start exe =
  let r0, w0 = Unix.pipe ~cloexec:true () and r1, w1 = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] r0 w1 Unix.stderr in
  Unix.close r0;
  Unix.close w1;
  probe := Some { pid; to_probe = Unix.out_channel_of_descr w0; from_probe = Unix.in_channel_of_descr r1 }

(* One kernel run: its time in seconds. *)
let measure () =
  match !probe with
  | None -> failwith "host probe not started"
  | Some p ->
      output_string p.to_probe "\n";
      flush p.to_probe;
      float_of_string (input_line p.from_probe)

(* Closing its input ends the probe; wait for it. *)
let stop () =
  match !probe with
  | None -> ()
  | Some p ->
      probe := None;
      close_out_noerr p.to_probe;
      ignore (Unix.waitpid [] p.pid);
      close_in_noerr p.from_probe

let scale times = nominal_s /. (Array.fold_left ( +. ) 0.0 times /. float_of_int (Array.length times))

(* Probes on each side of an op that its scale averages. One kernel
   time is a noisy reading of the host's speed, which drifts over
   seconds, so an op is scaled by the mean of the 2 x [window] probes
   nearest it. *)
let window = 8

(* [probes.(i)] and [probes.(i + 1)] ran just before and just after op
   [i]: the scale of each op. *)
let window_scales probes =
  let n = Array.length probes - 1 in
  Array.init n (fun i ->
      let lo = max 0 (i + 1 - window) and hi = min n (i + window) in
      scale (Array.sub probes lo (hi - lo + 1)))
