(* Fleet plumbing for the [fleet] workload: a [Coordinator.opts.fl_launch]
   that starts the real CLI worker ([dejavuzz worker --slot K]) as the
   default launcher does, protocol pipes inherited across later spawns
   included, except that the worker's stderr goes to a pipe the benchmark
   reads (to count its lines) and the pids are kept (to read the workers'
   peak RSS). *)

module Coordinator = Dvz_fleet.Coordinator

type t = {
  cli : string;  (* path of the dejavuzz CLI executable *)
  workers : int;
  wait_hello : bool;
      (* set-up probes only: the last launch returns once every worker's
         Hello frame is readable, and stamps [ready] *)
  mutable pids : int list;
  mutable from_fds : Unix.file_descr list;
  mutable err_fds : Unix.file_descr list;
  mutable ready : float;  (* when the last initial worker was launched/up *)
  mutable worker_rss_kb : int;
}

let create ?(wait_hello = false) ~cli ~workers () =
  { cli; workers; wait_hello; pids = []; from_fds = []; err_fds = [];
    ready = 0.0; worker_rss_kb = 0 }

let wait_readable fds =
  let deadline = Trace.now () +. 60.0 in
  let rec go pending =
    if pending <> [] then begin
      if Trace.now () > deadline then failwith "fleet: workers never said Hello";
      match Unix.select pending [] [] 1.0 with
      | readable, _, _ -> go (List.filter (fun fd -> not (List.memq fd readable)) pending)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pending
    end
  in
  go fds

let launch t ~slot ~incarnation =
  let to_r, to_w = Unix.pipe ~cloexec:false () in
  let from_r, from_w = Unix.pipe ~cloexec:false () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| t.cli; "worker"; "--slot"; string_of_int slot; "--incarnation";
       string_of_int incarnation |]
  in
  let pid = Unix.create_process t.cli argv to_r from_w err_w in
  List.iter Unix.close [ to_r; from_w; err_w ];
  t.pids <- pid :: t.pids;
  t.from_fds <- from_r :: t.from_fds;
  t.err_fds <- err_r :: t.err_fds;
  if List.length t.pids = t.workers then begin
    if t.wait_hello then wait_readable t.from_fds;
    t.ready <- Trace.now ()
  end;
  (pid, to_w, from_r)

let opts t =
  { Coordinator.default_opts with
    Coordinator.fl_workers = t.workers;
    fl_worker_jobs = 1;
    fl_launch = Some (fun ~slot ~incarnation -> launch t ~slot ~incarnation) }

(* Peak resident set of a live process, from /proc; 0 once it is gone. *)
let vmhwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

let self_rss_mb () = float_of_int (vmhwm_kb "self") /. 1024.0

(* Sampled from the campaign's last progress callback, after the final
   iteration is folded and before shutdown, while the workers are alive. *)
let sample_workers t =
  t.worker_rss_kb <-
    List.fold_left (fun n pid -> n + vmhwm_kb (string_of_int pid)) 0 t.pids

(* After [Coordinator.run] has returned (and reaped the workers): read
   what they wrote on stderr and close the pipes.  Returns the line count. *)
let finish t =
  let buf = Bytes.create 4096 in
  let lines = ref 0 in
  List.iter
    (fun fd ->
      let rec drain () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            for i = 0 to n - 1 do
              if Bytes.get buf i = '\n' then incr lines
            done;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Unix.close fd)
    t.err_fds;
  t.err_fds <- [];
  !lines

let cpu_times () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)
