(* model-cyclic: a closed loop of Model-mode runs over cyclically
   distributed plans (see WORKLOADS.md). *)

module Api = Distal.Api

let shapes = [ Shapes.cyclic_gemm ~n:128 ~chunks:16; Shapes.cyclic_ttv ~i:2048 ~jk:32 ~procs:4 ~vprocs:512 ]

let model_op ?profile plan () =
  match Api.run ~mode:Api.Exec.Model ~domains:1 ~cost:Layers.cost ?profile plan ~data:[] with
  | Ok r -> r.Api.Exec.stats
  | Error e -> failwith ("model run: " ^ e)

(* Compile, then one warm-up op per plan. *)
let setup () =
  Array.of_list
    (List.map
       (fun s ->
         let plan = Layers.compile s in
         ignore (model_op plan ());
         (s, plan))
       shapes)

(* One op is a round: a Model run of each plan, in a seeded order. The
   two plans take about 0.13 s and 0.10 s, so the median of single runs
   would sit on the step between them and jump with host drift; a round
   keeps it off that step. *)
let run (ctx : Util.ctx) =
  let rng = Distal_support.Rng.create ctx.Util.seed in
  Closed.run ctx ~setup_reps:5 ~setup
    ~op:(fun plans ~traced ->
      let order = Util.shuffle rng (Array.length plans) in
      let one j () =
        let _, plan = plans.(j) in
        (* Profiled only when traced: the profile supplies the
           executor's own plan and compute wall clocks. *)
        if traced then model_op ~profile:(Api.Obs.Profile.create ()) plan () else model_op plan ()
      in
      {
        Closed.run = (fun () -> Array.map (fun j -> Trace.span "api.run.model" (one j)) order);
        check =
          (fun stats ->
            Array.for_all2 (fun j st -> Golden.check (fst plans.(j)).Shapes.name st) order stats);
      })
    ~probes:(fun plans ->
      let plans = Array.to_list plans in
      let rates = Layers.leaf_rates () in
      Layers.simulation plans @ Layers.eplan_build plans @ Layers.run_plan plans ~rates
      @ Layers.leaf rates
      @ Layers.parallel_efficiency (fun ~domains ->
            ignore (Api.run_exn ~mode:Api.Exec.Model ~domains ~cost:Layers.cost (snd (List.hd plans)) ~data:[]))
      @ Layers.serve_probe ~exe:ctx.Util.distald ~dir:ctx.Util.out_dir ~mode:Api.Exec.Model plans
      @ Layers.ir ())
