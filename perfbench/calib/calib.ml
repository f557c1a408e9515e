(* The host-speed probe: a process of its own that links no library
   code, so no change to the library can move its figures.

   For each line read on standard input it runs one fixed kernel and
   prints its wall time in seconds; it exits at end of input. The kernel
   allocates small blocks into a ring of retained ones, so minor
   collections promote and the major GC marks and sweeps: the same
   allocation-bound work whose speed drifts with the host's load. *)

let ring = Array.make 65536 (0, 0.0)

let kernel () =
  for i = 0 to 200_000 do
    ring.(i land 65535) <- (i, float_of_int i)
  done

(* Runs before the first reading, so that no reading includes the
   heap's growth to its steady size. *)
let warm_up = 8

let () =
  for _ = 1 to warm_up do
    kernel ()
  done;
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () in
      kernel ();
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()
