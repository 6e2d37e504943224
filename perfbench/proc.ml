(* Running one child process and measuring it. *)

external now : unit -> float = "perfbench_now"

external reap : int -> int -> int * float * float * int * bool
  = "perfbench_reap"

type result = {
  code : int;  (** exit code, or minus the terminating signal *)
  wall_s : float;  (** spawn until reaped *)
  cpu_s : float;  (** user plus system CPU of the child *)
  peak_mem_mb : float;  (** the child's peak resident set *)
  timed_out : bool;
  stolen_s : float;
      (** steal time of all CPUs while it ran: time the virtual
          machine's host ran something else *)
}

(* Total steal time so far, from the "cpu" line of /proc/stat (its
   eighth value, in USER_HZ = 100 ticks per second); 0 where it cannot
   be read. *)
let steal_s () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> (
          match float_of_string_opt steal with
          | Some ticks -> ticks /. 100.
          | None -> 0.)
      | _ -> 0.)
  | None | (exception Sys_error _) -> 0.

(* [run prog args ~stdout ~stderr] runs [prog] with its standard output
   and error sent to the named files, killing it after 60 s. The wall
   time ends when the child has exited, so its output is fully
   written. *)
let run prog args ~stdout ~stderr =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let out = Unix.openfile stdout flags 0o644 in
  let err = Unix.openfile stderr flags 0o644 in
  let s0 = steal_s () in
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process prog
          (Array.of_list (prog :: args))
          Unix.stdin out err)
  in
  let code, utime, stime, maxrss_kb, timed_out =
    reap pid 60_000
  in
  let wall_s = now () -. t0 in
  {
    code;
    wall_s;
    cpu_s = utime +. stime;
    peak_mem_mb = float_of_int maxrss_kb /. 1024.;
    timed_out;
    stolen_s = steal_s () -. s0;
  }

(* A child's peak resident set (wait4's ru_maxrss) also counts the
   memory of the process that spawned it: Unix.create_process shares
   the parent's address space until exec, and Linux carries that
   address space's high-water mark over into the child. The harness
   grows to tens of MB (inputs, reference outputs), more than some of
   the programs it measures, so it does not spawn them itself. A
   spawner process, forked at start-up while the harness is still
   small, runs each one on request and sends back its measurement. *)
type spawner = { pid : int; requests : out_channel; results : in_channel }

let spawner () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close res_r;
    let ic = Unix.in_channel_of_descr req_r in
    let oc = Unix.out_channel_of_descr res_w in
    let rec serve () =
      match (Marshal.from_channel ic : string * string list * string * string) with
      | exception End_of_file -> Unix._exit 0
      | prog, args, stdout, stderr ->
        Marshal.to_channel oc (run prog args ~stdout ~stderr : result) [];
        flush oc;
        serve ()
    in
    (try serve () with _ -> Unix._exit 2)
  | pid ->
    Unix.close req_r;
    Unix.close res_w;
    {
      pid;
      requests = Unix.out_channel_of_descr req_w;
      results = Unix.in_channel_of_descr res_r;
    }

(* [spawn sp prog args ~stdout ~stderr] is [run prog args ~stdout
   ~stderr], run by the spawner. *)
let spawn sp prog args ~stdout ~stderr =
  Marshal.to_channel sp.requests (prog, args, stdout, stderr) [];
  flush sp.requests;
  match (Marshal.from_channel sp.results : result) with
  | r -> r
  | exception End_of_file -> failwith "perfbench: the spawner has ended"

(* Ends the spawner and waits for it. *)
let stop sp =
  close_out_noerr sp.requests;
  ignore (Unix.waitpid [] sp.pid)
