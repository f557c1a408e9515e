(* Simulated statistics of one Model run of each model-cyclic plan
   (explicit cpu_distal cost model). The simulator is deterministic, so
   every op must reproduce these bit for bit; a change that moves them
   must say why and update this table. *)

type t = { time : float; messages : int; bytes_inter : float; steps : int }

let table =
  [
    ("cyclic-gemm-128", { time = 0x1.10835dbf7c07ep-8; messages = 3840; bytes_inter = 0x1.ep+19; steps = 8 });
    ("cyclic-ttv-2048", { time = 0x1.b3a24352c2e5bp-8; messages = 24; bytes_inter = 0x1.8cp+23; steps = 1 });
  ]

let check name (s : Distal.Api.Stats.t) =
  match List.assoc_opt name table with
  | None -> false
  | Some g ->
      Float.equal g.time s.time && g.messages = s.messages
      && Float.equal g.bytes_inter s.bytes_inter
      && g.steps = s.steps
