(* The fleet supervisor.

   One coordinator process owns the entire campaign fold (corpus,
   coverage, dedup, checkpoints, events) by running the ordinary
   {!Dejavuzz.Campaign.run} with a [dispatch] override; N worker
   subprocesses are pure plan executors.  Per batch the dispatcher
   shards the scheduled plans across live workers, collects [Outcome]
   frames into a slot-per-iteration table, and — because plans are plain
   data carrying their own pre-split RNGs — re-executes any shard whose
   worker died, on a respawned worker or ultimately inline.  When every
   slot is filled the outcomes are returned in plan-index order, so the
   fold (and therefore findings, corpus, checkpoints and event logs) is
   byte-identical to a single-process [--jobs 1] run no matter how many
   workers died along the way.

   Failure model, in escalating order:
   - pipe EOF / EPIPE / protocol corruption → worker declared dead
     immediately;
   - heartbeat silence past the deadline (SIGSTOP, livelock, scheduler
     starvation) → SIGKILL, then declared dead;
   - each death returns the worker's outstanding plans to the unassigned
     pool and schedules a respawn after capped exponential backoff
     ({!Dvz_util.Parallel.backoff});
   - a slot exceeding its respawn budget is retired — the fleet shrinks
     and its shard is redistributed to the survivors;
   - with every slot retired, the coordinator executes remaining plans
     inline: graceful degradation all the way down to one process. *)

module Campaign = Dejavuzz.Campaign
module Scheduler = Dejavuzz.Scheduler
module Executor = Dejavuzz.Executor
module Metrics = Dvz_obs.Metrics
module Json = Dvz_obs.Json

let m_restarts =
  Metrics.counter Metrics.default
    ~help:"Fleet workers respawned after a death or missed deadline"
    "dvz_fleet_worker_restarts_total"

let m_hb_missed =
  Metrics.counter Metrics.default
    ~help:"Fleet heartbeat deadlines missed (silent worker killed)"
    "dvz_fleet_heartbeats_missed_total"

type opts = {
  fl_workers : int;
  fl_worker_jobs : int;
  fl_heartbeat_s : float;
  fl_deadline_s : float;
  fl_max_respawns : int;
  fl_backoff_base_s : float;
  fl_backoff_cap_s : float;
  fl_chaos : (int * int * int) list;
  fl_profile : bool;
  fl_trace : bool;
  fl_log : string -> unit;
  fl_launch :
    (slot:int -> incarnation:int -> int * Unix.file_descr * Unix.file_descr)
    option;
}

let default_opts =
  { fl_workers = 4;
    fl_worker_jobs = 1;
    fl_heartbeat_s = 1.0;
    fl_deadline_s = 10.0;
    fl_max_respawns = 5;
    fl_backoff_base_s = 0.5;
    fl_backoff_cap_s = 30.0;
    fl_chaos = [];
    fl_profile = false;
    fl_trace = false;
    fl_log = (fun line -> Printf.eprintf "dejavuzz fleet: %s\n%!" line);
    fl_launch = None }

type fleet_stats = {
  fs_workers : int;
  fs_spawns : int;
  fs_restarts : int;
  fs_retired : int;
  fs_heartbeats_missed : int;
  fs_inline_plans : int;
}

(* --- live fleet board ------------------------------------------------------ *)

type worker_row = {
  fw_slot : int;
  fw_pid : int;
  fw_state : string;  (* "live" | "backoff" | "retired" *)
  fw_restarts : int;
  fw_done : int;  (* outcomes produced over all incarnations *)
  fw_last_rx_age_s : float;
}

type snapshot = {
  fb_epoch : int;
  fb_workers : worker_row list;
  fb_restarts : int;
  fb_retired : int;
  fb_heartbeats_missed : int;
  fb_inline_plans : int;
}

type board = snapshot option Atomic.t

let new_board () : board = Atomic.make None
let board_read (b : board) = Atomic.get b

let snapshot_json s =
  Json.Obj
    [ ("epoch", Json.Int s.fb_epoch);
      ( "workers",
        Json.Arr
          (List.map
             (fun w ->
               Json.Obj
                 [ ("slot", Json.Int w.fw_slot);
                   ("pid", Json.Int w.fw_pid);
                   ("state", Json.Str w.fw_state);
                   ("restarts", Json.Int w.fw_restarts);
                   ("outcomes", Json.Int w.fw_done);
                   ("last_rx_age_s", Json.Float w.fw_last_rx_age_s) ])
             s.fb_workers) );
      ("restarts", Json.Int s.fb_restarts);
      ("retired", Json.Int s.fb_retired);
      ("heartbeats_missed", Json.Int s.fb_heartbeats_missed);
      ("inline_plans", Json.Int s.fb_inline_plans) ]

(* --- internal state -------------------------------------------------------- *)

type wstate =
  | Down  (* never spawned, or dead and eligible for respawn at w_due *)
  | Live
  | Retired

(* The one owner of every per-worker fact the supervisor acts on: pid,
   state, restarts, outcome count and last-frame time.  The telemetry
   plane keeps only what arrives inside Telemetry frames. *)
type worker = {
  w_slot : int;
  mutable w_state : wstate;
  mutable w_due : float;  (* when a Down worker may respawn *)
  mutable w_pid : int;
  mutable w_in : Unix.file_descr;  (* coordinator → worker *)
  mutable w_out : Unix.file_descr;  (* worker → coordinator *)
  mutable w_reader : Proto.reader;
  mutable w_last_rx : float;  (* any frame counts as a sign of life *)
  mutable w_restarts : int;  (* spawns beyond the first *)
  mutable w_done : int;  (* Outcome frames received, all incarnations *)
  mutable w_assigned : Scheduler.plan list;  (* outstanding, plan order *)
}

type st = {
  st_opts : opts;
  st_workers : worker array;
  st_board : board;
  st_plane : Telemetry.t option;
  mutable st_epoch : int;
  mutable st_config_frame : string option;  (* encoded Config, sent on spawn *)
  mutable st_spawns : int;
  mutable st_restarts : int;
  mutable st_hb_missed : int;
  mutable st_inline : int;
}

let with_plane st f = match st.st_plane with Some p -> f p | None -> ()

let now () = Unix.gettimeofday ()

let logf st fmt = Printf.ksprintf st.st_opts.fl_log fmt

let publish st =
  let t = now () in
  let rows =
    Array.to_list st.st_workers
    |> List.map (fun w ->
           { fw_slot = w.w_slot;
             fw_pid = (match w.w_state with Live -> w.w_pid | _ -> 0);
             fw_state =
               (match w.w_state with
               | Live -> "live"
               | Down -> "backoff"
               | Retired -> "retired");
             fw_restarts = w.w_restarts;
             fw_done = w.w_done;
             fw_last_rx_age_s =
               (match w.w_state with
               | Live -> Float.max 0.0 (t -. w.w_last_rx)
               | _ -> 0.0) })
  in
  Atomic.set st.st_board
    (Some
       { fb_epoch = st.st_epoch;
         fb_workers = rows;
         fb_restarts = st.st_restarts;
         fb_retired =
           Array.fold_left
             (fun n w -> if w.w_state = Retired then n + 1 else n)
             0 st.st_workers;
         fb_heartbeats_missed = st.st_hb_missed;
         fb_inline_plans = st.st_inline })

(* --- process plumbing ------------------------------------------------------ *)

(* Default launch: re-exec this binary as [dejavuzz worker --slot K] with
   the protocol on its stdin/stdout (stderr inherited).  Tests inject
   [fl_launch] to fork-without-exec instead.  Both pipes are close-on-exec:
   the child's dup2 onto fd 0/1 clears the flag on its own copies, while
   the coordinator's ends — this worker's and every earlier sibling's —
   stay out of the child.  A worker holding the write end of its own
   stdin would never see EOF, and so would outlive a killed coordinator. *)
let exec_launch ~slot ~incarnation =
  let to_worker_r, to_worker_w = Unix.pipe ~cloexec:true () in
  let from_worker_r, from_worker_w = Unix.pipe ~cloexec:true () in
  let argv =
    [| Sys.executable_name; "worker"; "--slot"; string_of_int slot;
       "--incarnation"; string_of_int incarnation |]
  in
  let pid =
    Unix.create_process Sys.executable_name argv to_worker_r from_worker_w
      Unix.stderr
  in
  Unix.close to_worker_r;
  Unix.close from_worker_w;
  (pid, to_worker_w, from_worker_r)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = Unix.write_substring fd s off (len - off) in
      if n <= 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
      go (off + n)
    end
  in
  go 0

let reap st w =
  if w.w_pid > 0 then begin
    (try Unix.kill w.w_pid Sys.sigkill
     with Unix.Unix_error (Unix.ESRCH, _, _) | Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.w_pid)
     with Unix.Unix_error _ -> ());
    ignore st
  end;
  w.w_pid <- 0

(* Declare a worker dead: close its pipes, reap the process, return its
   outstanding shard to the caller and either schedule a respawn (capped
   exponential backoff) or retire the slot. *)
let declare_dead st w ~reason =
  close_quietly w.w_in;
  close_quietly w.w_out;
  reap st w;
  let orphans = w.w_assigned in
  w.w_assigned <- [];
  w.w_restarts <- w.w_restarts + 1;
  (* The dead incarnation's final telemetry batch is folded into the
     slot's retired aggregates; anything of its still in flight is now
     stale by incarnation and will be dropped at ingest. *)
  with_plane st (fun p ->
      Telemetry.record_restart p ~slot:w.w_slot ~reason);
  if w.w_restarts > st.st_opts.fl_max_respawns then begin
    w.w_state <- Retired;
    logf st
      "worker %d %s; respawn budget (%d) exhausted — retiring the slot, \
       redistributing %d outstanding plans"
      w.w_slot reason st.st_opts.fl_max_respawns (List.length orphans)
  end
  else begin
    let delay =
      Dvz_util.Parallel.backoff ~base:st.st_opts.fl_backoff_base_s
        ~cap:st.st_opts.fl_backoff_cap_s w.w_restarts
    in
    w.w_state <- Down;
    w.w_due <- now () +. delay;
    Metrics.incr m_restarts;
    st.st_restarts <- st.st_restarts + 1;
    logf st "worker %d %s; respawning in %.2fs (attempt %d/%d)" w.w_slot
      reason delay w.w_restarts st.st_opts.fl_max_respawns
  end;
  publish st;
  orphans

(* A lifecycle line for [w]'s current incarnation on the plane's event
   sink. *)
let worker_event st w kind fields =
  with_plane st (fun p ->
      Telemetry.event p ~slot:w.w_slot ~incarnation:w.w_restarts kind fields)

let spawn st w =
  let launch =
    match st.st_opts.fl_launch with
    | Some f -> f
    | None -> exec_launch
  in
  (* Deaths so far double as the spawn generation: the worker echoes it
     in every telemetry frame, which is how a predecessor's leftover
     flush is recognised as stale. *)
  let pid, to_worker, from_worker =
    launch ~slot:w.w_slot ~incarnation:w.w_restarts
  in
  w.w_pid <- pid;
  w.w_in <- to_worker;
  w.w_out <- from_worker;
  w.w_reader <- Proto.reader ();
  w.w_last_rx <- now ();
  w.w_state <- Live;
  st.st_spawns <- st.st_spawns + 1;
  worker_event st w "worker_start" [ ("pid", Json.Int pid) ];
  (* The replacement needs nothing beyond the config frame: campaign
     state lives here, and the last durable checkpoint (plus the batch
     cursor inside it) already covers everything folded — a respawn can
     never lose an accepted finding. *)
  (match st.st_config_frame with
  | Some frame -> (
      match write_all w.w_in frame with
      | () ->
          worker_event st w "config"
            [ ("jobs", Json.Int st.st_opts.fl_worker_jobs);
              ("profile", Json.Bool st.st_opts.fl_profile);
              ("trace", Json.Bool st.st_opts.fl_trace) ]
      | exception Unix.Unix_error _ ->
          ignore (declare_dead st w ~reason:"died during config"))
  | None -> ());
  publish st

(* --- the dispatcher -------------------------------------------------------- *)

type epoch_state = {
  ep_start : int;  (* iteration of plan index 0 *)
  ep_slots : Executor.outcome option array;
  mutable ep_filled : int;
  mutable ep_unassigned : Scheduler.plan list;  (* ascending iteration *)
}

let live_workers st =
  Array.to_list st.st_workers |> List.filter (fun w -> w.w_state = Live)

(* Split [plans] across idle live workers, contiguously and evenly.  An
   idle worker is one with no outstanding shard; a worker that just
   respawned picks up orphans here on the next loop turn. *)
let distribute st ep =
  match ep.ep_unassigned with
  | [] -> ()
  | plans ->
      let idle =
        live_workers st |> List.filter (fun w -> w.w_assigned = [])
      in
      if idle <> [] then begin
        let nplans = List.length plans in
        let nidle = List.length idle in
        let per = (nplans + nidle - 1) / nidle in
        let rec take k = function
          | [] -> ([], [])
          | rest when k = 0 -> ([], rest)
          | p :: rest ->
              let chunk, rest = take (k - 1) rest in
              (p :: chunk, rest)
        in
        let rest = ref plans in
        List.iter
          (fun w ->
            match take per !rest with
            | [], _ -> ()
            | chunk, rest' -> (
                rest := rest';
                w.w_assigned <- chunk;
                let frame =
                  Proto.encode
                    (Proto.Assign
                       { a_epoch = st.st_epoch;
                         a_payload = Wire.plans_to_string chunk })
                in
                match write_all w.w_in frame with
                | () ->
                    worker_event st w "assign"
                      [ ("epoch", Json.Int st.st_epoch);
                        ("plans", Json.Int (List.length chunk)) ]
                | exception Unix.Unix_error _ ->
                    (* Death discovered on write: reclaim the chunk with
                       the rest of the shard. *)
                    let orphans =
                      declare_dead st w ~reason:"died during assignment"
                    in
                    rest := orphans @ !rest))
          idle;
        ep.ep_unassigned <- !rest
      end

let record_outcome ep w ~iteration payload =
  let idx = iteration - ep.ep_start in
  if idx < 0 || idx >= Array.length ep.ep_slots then
    Error (Printf.sprintf "outcome for iteration %d outside epoch" iteration)
  else
    match Wire.outcome_of_string payload with
    | Error e -> Error e
    | Ok outcome ->
        (* First write wins; a duplicate after a reassignment race would
           be byte-identical anyway (same plan, same pre-split RNG). *)
        if ep.ep_slots.(idx) = None then begin
          ep.ep_slots.(idx) <- Some outcome;
          ep.ep_filled <- ep.ep_filled + 1
        end;
        w.w_done <- w.w_done + 1;
        w.w_assigned <-
          List.filter
            (fun (p : Scheduler.plan) -> p.Scheduler.pl_iteration <> iteration)
            w.w_assigned;
        Ok ()

(* Hello/Telemetry bookkeeping shared by the dispatch loop and the
   shutdown drain.  Observation only: ingest failures never condemn a
   worker, and nothing here feeds the campaign fold. *)
let observe_msg st w msg =
  with_plane st (fun p ->
      match msg with
      | Proto.Hello { h_clock_us } ->
          Telemetry.hello p ~slot:w.w_slot ~incarnation:w.w_restarts
            ~clock_us:h_clock_us
      | Proto.Telemetry { t_incarnation; t_payload } -> (
          match Wire.telemetry_of_string t_payload with
          | Ok batch ->
              ignore
                (Telemetry.ingest p ~slot:w.w_slot
                   ~incarnation:t_incarnation batch)
          | Error e ->
              logf st "worker %d sent an undecodable telemetry payload (%s)"
                w.w_slot e)
      | _ -> ())

let handle_msg st ep w msg =
  w.w_last_rx <- now ();
  match msg with
  | Proto.Outcome { o_iteration; o_payload; _ } ->
      record_outcome ep w ~iteration:o_iteration o_payload
  | Proto.Hello _ | Proto.Telemetry _ ->
      observe_msg st w msg;
      Ok ()
  | Proto.Config _ | Proto.Assign _ | Proto.Shutdown ->
      Error
        (Printf.sprintf "unexpected %s frame from worker"
           (Proto.kind_name msg))

(* Drain one readable worker pipe: a single [read], then every complete
   frame in the reassembly buffer.  Any protocol failure condemns the
   worker. *)
let drain st ep w buf =
  let n =
    try Unix.read w.w_out buf 0 (Bytes.length buf)
    with Unix.Unix_error _ -> 0
  in
  if n = 0 then
    ep.ep_unassigned <-
      declare_dead st w ~reason:"exited (pipe EOF)" @ ep.ep_unassigned
  else begin
    Proto.feed w.w_reader buf 0 n;
    let rec frames () =
      if w.w_state = Live then
        match Proto.next w.w_reader with
        | Ok None -> ()
        | Ok (Some msg) -> (
            match handle_msg st ep w msg with
            | Ok () -> frames ()
            | Error e ->
                ep.ep_unassigned <-
                  declare_dead st w ~reason:("protocol violation: " ^ e)
                  @ ep.ep_unassigned)
        | Error e ->
            ep.ep_unassigned <-
              declare_dead st w
                ~reason:("corrupt stream: " ^ Proto.error_message e)
              @ ep.ep_unassigned
    in
    frames ()
  end

let sort_plans plans =
  List.sort
    (fun (a : Scheduler.plan) (b : Scheduler.plan) ->
      compare a.Scheduler.pl_iteration b.Scheduler.pl_iteration)
    plans

let fire_chaos st =
  List.iter
    (fun (epoch, slot, signal) ->
      if epoch = st.st_epoch && slot >= 0 && slot < Array.length st.st_workers
      then begin
        let w = st.st_workers.(slot) in
        if w.w_state = Live && w.w_pid > 0 then begin
          logf st "chaos: sending signal %d to worker %d (pid %d) at epoch %d"
            signal slot w.w_pid epoch;
          try Unix.kill w.w_pid signal with Unix.Unix_error _ -> ()
        end
      end)
    st.st_opts.fl_chaos

(* First batch: freeze the worker spec out of the executor context the
   campaign built — the single source of truth for what workers run.
   The watchdog budget is opaque, so its raw limits arrive separately
   via [budget_limits] (the CLI knows them; defaults to none). *)
let make_spec (opts : opts) ~budget_limits (ctx : Executor.ctx) =
  let max_slots, max_wall_s = budget_limits in
  { Wire.w_cfg = ctx.Executor.cx_cfg;
    w_style = ctx.Executor.cx_style;
    w_taint_mode = ctx.Executor.cx_taint_mode;
    w_secret = ctx.Executor.cx_secret;
    w_fault_plan = ctx.Executor.cx_fault_plan;
    w_max_slots = max_slots;
    w_max_wall_s = max_wall_s;
    w_jobs = opts.fl_worker_jobs;
    w_heartbeat_s = opts.fl_heartbeat_s;
    w_profile = opts.fl_profile;
    w_trace = opts.fl_trace }

let dispatch_batch st ~budget_limits (ctx : Executor.ctx) plans =
  (match st.st_config_frame with
  | Some _ -> ()
  | None ->
      let spec = make_spec st.st_opts ~budget_limits ctx in
      st.st_config_frame <-
        Some
          (Proto.encode
             (Proto.Config { c_payload = Wire.spec_to_string spec })));
  let plans = sort_plans plans in
  let count = List.length plans in
  let ep =
    { ep_start =
        (match plans with
        | p :: _ -> p.Scheduler.pl_iteration
        | [] -> 0);
      ep_slots = Array.make (max count 1) None;
      ep_filled = 0;
      ep_unassigned = plans }
  in
  if count = 0 then []
  else begin
    let buf = Bytes.create 65536 in
    (* Spawn anything spawnable before the first assignment of this
       epoch (initial bring-up and overdue respawns). *)
    let t0 = now () in
    Array.iter
      (fun w -> if w.w_state = Down && w.w_due <= t0 then spawn st w)
      st.st_workers;
    distribute st ep;
    fire_chaos st;
    publish st;
    while ep.ep_filled < count do
      let t = now () in
      (* Heartbeat deadlines: a live worker silent past the deadline is
         killed and declared dead — catches SIGSTOP and livelock, which
         produce no EOF. *)
      Array.iter
        (fun w ->
          if
            w.w_state = Live
            && st.st_opts.fl_deadline_s > 0.0
            && t -. w.w_last_rx > st.st_opts.fl_deadline_s
          then begin
            Metrics.incr m_hb_missed;
            st.st_hb_missed <- st.st_hb_missed + 1;
            ep.ep_unassigned <-
              declare_dead st w
                ~reason:
                  (Printf.sprintf "missed heartbeat deadline (%.1fs silent)"
                     (t -. w.w_last_rx))
              @ ep.ep_unassigned
          end)
        st.st_workers;
      (* Overdue respawns come back as idle workers. *)
      Array.iter
        (fun w -> if w.w_state = Down && w.w_due <= t then spawn st w)
        st.st_workers;
      ep.ep_unassigned <- sort_plans ep.ep_unassigned;
      distribute st ep;
      let live = live_workers st in
      let pending_respawn =
        Array.exists (fun w -> w.w_state = Down) st.st_workers
      in
      if live = [] && not pending_respawn then begin
        (* Everyone is retired: graceful degradation's last stop.  The
           coordinator owns a full executor context, so it can finish the
           campaign single-process. *)
        let remaining = sort_plans ep.ep_unassigned in
        ep.ep_unassigned <- [];
        if remaining <> [] then
          logf st "fleet exhausted; executing %d plans inline"
            (List.length remaining);
        List.iter
          (fun (p : Scheduler.plan) ->
            let o = Executor.execute ctx p in
            let idx = p.Scheduler.pl_iteration - ep.ep_start in
            if idx >= 0 && idx < Array.length ep.ep_slots
               && ep.ep_slots.(idx) = None
            then begin
              ep.ep_slots.(idx) <- Some o;
              ep.ep_filled <- ep.ep_filled + 1;
              st.st_inline <- st.st_inline + 1
            end)
          remaining;
        publish st
      end
      else begin
        let fds = List.map (fun w -> w.w_out) live in
        (* Wake early enough to notice deadlines and due respawns. *)
        let timeout =
          let next_due =
            Array.fold_left
              (fun acc w ->
                if w.w_state = Down then Float.min acc (w.w_due -. t) else acc)
              0.5 st.st_workers
          in
          Float.max 0.01 (Float.min 0.5 next_due)
        in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun fd ->
                match
                  List.find_opt
                    (fun w -> w.w_state = Live && w.w_out == fd)
                    live
                with
                | Some w -> drain st ep w buf
                | None -> ())
              readable;
            publish st
      end
    done;
    st.st_epoch <- st.st_epoch + 1;
    publish st;
    Array.to_list ep.ep_slots
    |> List.filteri (fun i _ -> i < count)
    |> List.map (function
         | Some o -> o
         | None -> assert false (* filled = count *))
  end

(* After Shutdown is broadcast each worker sends one last telemetry
   flush before exiting; read its pipe until EOF (or a short deadline)
   so that flush lands in the plane instead of dying in the buffer. *)
let drain_final st w =
  let deadline = now () +. 1.0 in
  let buf = Bytes.create 65536 in
  let rec go () =
    let remaining = deadline -. now () in
    if remaining > 0.0 then
      match Unix.select [ w.w_out ] [] [] remaining with
      | exception Unix.Unix_error _ -> ()
      | [], _, _ -> ()
      | _ ->
          let n =
            try Unix.read w.w_out buf 0 (Bytes.length buf)
            with Unix.Unix_error _ -> 0
          in
          if n > 0 then begin
            Proto.feed w.w_reader buf 0 n;
            let rec frames () =
              match Proto.next w.w_reader with
              | Ok (Some msg) ->
                  observe_msg st w msg;
                  frames ()
              | Ok None | Error _ -> ()
            in
            frames ();
            go ()
          end
  in
  go ()

let shutdown st =
  let frame = Proto.encode Proto.Shutdown in
  Array.iter
    (fun w ->
      if w.w_state = Live then begin
        worker_event st w "shutdown" [ ("outcomes", Json.Int w.w_done) ];
        try write_all w.w_in frame with Unix.Unix_error _ -> ()
      end)
    st.st_workers;
  Array.iter
    (fun w ->
      if w.w_state = Live then begin
        close_quietly w.w_in;
        (match st.st_plane with
        | Some _ -> ( try drain_final st w with _ -> ())
        | None -> ());
        (* Give the worker a moment to exit on Shutdown/EOF, then make
           sure. *)
        let deadline = now () +. 1.0 in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
          | 0, _ ->
              if now () < deadline then begin
                Unix.sleepf 0.01;
                wait ()
              end
              else begin
                (try Unix.kill w.w_pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] w.w_pid)
                 with Unix.Unix_error _ -> ())
              end
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        wait ();
        w.w_pid <- 0;
        close_quietly w.w_out;
        w.w_state <- Down
      end)
    st.st_workers

let stats_of st =
  { fs_workers = Array.length st.st_workers;
    fs_spawns = st.st_spawns;
    fs_restarts = st.st_restarts;
    fs_retired =
      Array.fold_left
        (fun n w -> if w.w_state = Retired then n + 1 else n)
        0 st.st_workers;
    fs_heartbeats_missed = st.st_hb_missed;
    fs_inline_plans = st.st_inline }

let run ?(telemetry = Campaign.quiet) ?(resilience = Campaign.no_resilience)
    ?board ?plane ?(budget_limits = (None, None)) opts cfg options =
  if opts.fl_workers < 0 then
    invalid_arg "Coordinator.run: fl_workers must be >= 0";
  (* A worker dying mid-write must surface as EPIPE, not kill us. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let board = match board with Some b -> b | None -> new_board () in
  let st =
    { st_opts = opts;
      st_workers =
        Array.init opts.fl_workers (fun i ->
            { w_slot = i;
              w_state = Down;
              w_due = 0.0;
              w_pid = 0;
              w_in = Unix.stdin;
              w_out = Unix.stdin;
              w_reader = Proto.reader ();
              w_last_rx = 0.0;
              w_restarts = 0;  (* deaths, not spawns: first spawn is free *)
              w_done = 0;
              w_assigned = [] });
      st_board = board;
      st_plane = plane;
      st_epoch = 0;
      st_config_frame = None;
      st_spawns = 0;
      st_restarts = 0;
      st_hb_missed = 0;
      st_inline = 0 }
  in
  (* Respawns resume from the last durable state by construction:
     the checkpoint file IS the authority, so keep one good generation
     around and fall back to it when the newest is damaged. *)
  let resilience = { resilience with Campaign.rz_checkpoint_keep = true } in
  let dispatch ctx plans = dispatch_batch st ~budget_limits ctx plans in
  let run_campaign resilience =
    Campaign.run ~telemetry ~resilience ~dispatch cfg options
  in
  let stats =
    Fun.protect
      ~finally:(fun () -> shutdown st)
      (fun () ->
        try run_campaign resilience
        with Campaign.Bad_checkpoint { bc_path; bc_reason; _ }
          when resilience.Campaign.rz_resume <> None
               && Sys.file_exists
                    (Dvz_resilience.Snapshot.previous_path bc_path) ->
          (* The newest checkpoint generation is damaged; the rotation
             kept the previous good one. *)
          let prev = Dvz_resilience.Snapshot.previous_path bc_path in
          logf st "checkpoint %s rejected (%s); falling back to %s" bc_path
            bc_reason prev;
          run_campaign { resilience with Campaign.rz_resume = Some prev })
  in
  (stats, stats_of st)
