(* Workload request shapes, declared once as wire submits so the
   in-process plans and the requests sent to distald are built by the
   same code ([Protocol.to_request]). *)

module Api = Distal.Api
module Protocol = Distal_serve.Protocol

type t = {
  name : string;
  kernel : string;  (** the registry kernel the statement matches *)
  machine : int array;
  vgrid : int array option;
  tensors : (string * int array * string) list;  (** name, shape, distribution *)
  stmt : string;
  schedule : string;
}

let submit ?(mode = Api.Exec.Full) ?(seed = 0) ~id s =
  Protocol.submit ~id ~machine_dims:s.machine ?virtual_grid:s.vgrid ~mode ~seed
    ~tensors:
      (List.map
         (fun (td_name, td_shape, td_dist) -> { Protocol.td_name; td_shape; td_dist })
         s.tensors)
    ~stmt:s.stmt ~schedule:s.schedule ()

let request s =
  match Protocol.to_request (submit ~id:0 s) with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "shape %s: %s" s.name e)

(* {2 model-cyclic} *)

(* SUMMA over per-element cyclic operands on a 4x4 grid: every
   communicate point intersects its footprint with a per-element tile
   set. *)
let cyclic_gemm ~n ~chunks =
  {
    name = Printf.sprintf "cyclic-gemm-%d" n;
    kernel = "gemm";
    machine = [| 4; 4 |];
    vgrid = None;
    tensors =
      [ ("A", [| n; n |], "[x,y] -> [x,y]"); ("B", [| n; n |], "[x,y] -> [x%1,y%1]");
        ("C", [| n; n |], "[x,y] -> [x%1,y%1]") ];
    stmt = "A(i,j) = B(i,k) * C(k,j)";
    schedule =
      Printf.sprintf
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [4,4]); split(k, ko, ki, %d); \
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
        chunks;
  }

(* TTV cyclic over i, over-decomposed onto a virtual grid folded onto
   the machine. *)
let cyclic_ttv ~i ~jk ~procs ~vprocs =
  {
    name = Printf.sprintf "cyclic-ttv-%d" i;
    kernel = "ttv";
    machine = [| procs |];
    vgrid = Some [| vprocs |];
    tensors =
      [ ("A", [| i; jk |], "[x,y] -> [x%1]"); ("B", [| i; jk; jk |], "[x,y,z] -> [x%1]");
        ("c", [| jk |], "[x] -> [*]") ];
    stmt = "A(i,j) = B(i,j,k) * c(k)";
    schedule =
      Printf.sprintf "divide(i, io, ii, %d); distribute(io); communicate({A,B,c}, io)"
        vprocs;
  }

(* {2 full-warm: block-distributed substituted kernels} *)

let gemm ~n ~grid ~chunk =
  {
    name = Printf.sprintf "gemm-%d" n;
    kernel = "gemm";
    machine = [| grid; grid |];
    vgrid = None;
    tensors = [ ("A", [| n; n |], "[x,y] -> [x,y]"); ("B", [| n; n |], "[x,y] -> [x,y]"); ("C", [| n; n |], "[x,y] -> [x,y]") ];
    stmt = "A(i,j) = B(i,k) * C(k,j)";
    schedule =
      Printf.sprintf
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); split(k, ko, ki, %d); \
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko); \
         substitute({ii,ji,ki}, gemm)"
        grid grid chunk;
  }

let dist1 ~procs = Printf.sprintf "divide(i, io, ii, %d); distribute(io); " procs

let ttv ~i ~jk ~procs =
  {
    name = Printf.sprintf "ttv-%dx%d" i jk;
    kernel = "ttv";
    machine = [| procs |];
    vgrid = None;
    tensors =
      [ ("A", [| i; jk |], "[x,y] -> [x]"); ("B", [| i; jk; jk |], "[x,y,z] -> [x]"); ("c", [| jk |], "[x] -> [*]") ];
    stmt = "A(i,j) = B(i,j,k) * c(k)";
    schedule = dist1 ~procs ^ "communicate({A,B,c}, io); substitute({ii,j,k}, ttv)";
  }

let ttm ~i ~jk ~l ~procs =
  {
    name = Printf.sprintf "ttm-%dx%dx%d" i jk l;
    kernel = "ttm";
    machine = [| procs |];
    vgrid = None;
    tensors =
      [ ("A", [| i; jk; l |], "[x,y,z] -> [x]"); ("B", [| i; jk; jk |], "[x,y,z] -> [x]");
        ("C", [| jk; l |], "[x,y] -> [*]") ];
    stmt = "A(i,j,l) = B(i,j,k) * C(k,l)";
    schedule = dist1 ~procs ^ "communicate({A,B,C}, io); substitute({ii,j,k,l}, ttm)";
  }

let mttkrp ~i ~jk ~l ~grid =
  {
    name = Printf.sprintf "mttkrp-%dx%dx%d" i jk l;
    kernel = "mttkrp";
    machine = [| grid; grid |];
    vgrid = None;
    tensors =
      [ ("A", [| i; l |], "[x,y] -> [x,*]"); ("B", [| i; jk; jk |], "[x,y,z] -> [x,y]");
        ("C", [| jk; l |], "[x,y] -> [*,x]"); ("D", [| jk; l |], "[x,y] -> [*,*]") ];
    stmt = "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)";
    schedule =
      Printf.sprintf
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); communicate({A,B,C,D}, jo); \
         substitute({ii,ji,k,l}, mttkrp)"
        grid grid;
  }

let innerprod ~i ~jk ~procs =
  {
    name = Printf.sprintf "innerprod-%dx%d" i jk;
    kernel = "innerprod";
    machine = [| procs |];
    vgrid = None;
    tensors =
      [ ("a", [||], "[] -> [0]"); ("B", [| i; jk; jk |], "[x,y,z] -> [x]");
        ("C", [| i; jk; jk |], "[x,y,z] -> [x]") ];
    stmt = "a = B(i,j,k) * C(i,j,k)";
    schedule = dist1 ~procs ^ "communicate({a,B,C}, io); substitute({ii,j,k}, innerprod)";
  }
