(* A distald child process on a Unix socket inside the output directory,
   with one client connection. Every started daemon is killed at exit if
   it is still running, so a failed run leaves no process behind. *)

module Client = Distal_serve.Client

type t = { pid : int; client : Client.t }

let live : int list ref = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  let deadline = Util.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
      List.iter reap !live)

(* [args] are distald flags beyond the socket; the caller pins
   [--domains 1]. *)
let start ~exe ~dir args =
  let sock = Filename.concat dir (Printf.sprintf "distald-%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat dir "distald.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv = Array.of_list ((exe :: "--socket" :: sock :: "--quiet" :: args)) in
  let pid = Unix.create_process exe argv Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  match Client.connect ~retries:400 ~retry_interval:0.025 sock with
  | Ok client -> { pid; client }
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      failwith ("distald did not come up: " ^ e)

(* Ask the daemon to drain and exit, then wait for it. *)
let stop t =
  ignore (Client.shutdown t.client);
  Client.close t.client;
  reap t.pid
