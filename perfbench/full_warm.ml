(* full-warm: a closed loop of Full-mode runs through each plan's
   cached executable plan (see WORKLOADS.md). *)

module Api = Distal.Api
module Dense = Api.Dense

let shapes =
  [
    Shapes.gemm ~n:64 ~grid:4 ~chunk:8;
    Shapes.ttv ~i:64 ~jk:64 ~procs:4;
    Shapes.ttm ~i:32 ~jk:32 ~l:24 ~procs:4;
    Shapes.mttkrp ~i:32 ~jk:24 ~l:16 ~grid:2;
    Shapes.innerprod ~i:40 ~jk:64 ~procs:4;
  ]

(* Input sets per plan; ops cycle through them. *)
let k_sets = 3

(* Api.validate's default tolerance. *)
let tol = 1e-7

type plan_state = {
  shape : Shapes.t;
  plan : Api.plan;
  inputs : (string * Dense.t) list array;
  refs : Dense.t array;
}

let full_op ?(domains = 1) plan data () =
  match Api.run ~mode:Api.Exec.Full ~domains ~cost:Layers.cost plan ~data with
  | Ok r -> r.Api.Exec.output
  | Error e -> failwith ("full run: " ^ e)

(* Wall time spent on reference outputs in the current set-up. *)
let reference_s = ref 0.0

(* Compile, build the executable plan, draw the input sets, compute
   their reference outputs, and make the first Full run. *)
let setup seed () =
  reference_s := 0.0;
  let t, st =
    Util.time @@ fun () ->
    Array.of_list
      (List.mapi
         (fun i shape ->
           let plan = Layers.compile shape in
           ignore (Api.eplan_exn ~cost:Layers.cost plan);
           let inputs =
             Array.init k_sets (fun k -> Api.random_inputs ~seed:((seed * 64) + (i * k_sets) + k) plan)
           in
           let problem = plan.Api.problem in
           let tensor_shapes = List.map (fun t -> (t.Api.name, t.Api.shape)) problem.Api.tensors in
           let t_ref, refs =
             Util.time (fun () ->
                 Array.map (fun data -> Api.Exec.serial_reference problem.Api.stmt ~shapes:tensor_shapes ~data) inputs)
           in
           reference_s := !reference_s +. t_ref;
           ignore (full_op plan inputs.(0) ());
           { shape; plan; inputs; refs })
         shapes)
  in
  Printf.printf "set-up: %.4f s wall, reference outputs %.4f s of it\n" t !reference_s;
  st

(* One op is a round: a Full run of every plan on each of its input
   sets, in a seeded order. A single run takes about 5 ms, and the p99
   of 5 ms runs (the tail at some 8000 samples a run) moved with host
   stalls by 0.38 of its median across seeds; a round of about 80 ms
   gives well under 1000 samples a run, so its tail is p90. *)
let run (ctx : Util.ctx) =
  let pairs = List.length shapes * k_sets in
  let rng = Distal_support.Rng.create ctx.Util.seed in
  (* Three set-ups: the reference outputs make each one about 3 s. *)
  Closed.run ctx ~setup_reps:3 ~setup:(setup ctx.Util.seed)
    ~op:(fun st ~traced:_ ->
      let order = Util.shuffle rng pairs in
      let input j = (st.(j / k_sets), j mod k_sets) in
      {
        Closed.run =
          (fun () ->
            Array.map
              (fun j ->
                let p, k = input j in
                Trace.span "api.run.full" (full_op p.plan p.inputs.(k)))
              order);
        check =
          (fun outputs ->
            Array.for_all2
              (fun j out ->
                let p, k = input j in
                match out with Some out -> Dense.approx_equal ~tol out p.refs.(k) | None -> false)
              order outputs);
      })
    ~probes:(fun st ->
      let plans = Array.to_list (Array.map (fun p -> (p.shape, p.plan)) st) in
      let rates = Layers.leaf_rates () in
      let gemm = st.(0) in
      Layers.simulation plans @ Layers.eplan_build plans @ Layers.run_plan plans ~rates
      @ Layers.leaf rates
      @ Layers.parallel_efficiency (fun ~domains -> ignore (full_op ~domains gemm.plan gemm.inputs.(0) ()))
      @ Layers.serve_probe ~exe:ctx.Util.distald ~dir:ctx.Util.out_dir ~mode:Api.Exec.Full plans
      @ Layers.ir ())
