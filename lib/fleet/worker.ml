(* The fleet's child process: a stateless remote executor.

   Protocol from the worker's seat: say [Hello], receive one [Config]
   (build the executor context, open the session's worker pool, start
   the heartbeat thread), then loop —
   each [Assign] is a shard of plans to execute, each plan producing one
   [Outcome] frame; [Shutdown] or pipe EOF ends the loop.  The worker
   holds no campaign state whatsoever: every plan carries its own
   pre-split RNG and all corpus/coverage/finding folding happens in the
   coordinator, which is why killing a worker at any instant loses
   nothing but wall-clock time.

   Telemetry rides the same pipe and doubles as the heartbeat: on each
   heartbeat tick, and once more at shutdown, the worker flushes a
   [Telemetry] frame — its cumulative metrics snapshot and profiler
   aggregates, plus the trace-event delta since the last flush.
   Telemetry is observation only; nothing the coordinator folds into
   campaign results ever comes from it.  Lifecycle event lines are the
   coordinator's to emit: it already knows every fact in them. *)

module Executor = Dejavuzz.Executor
module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile

exception Hangup
(** The coordinator went away (EOF or EPIPE) — exit quietly. *)

type t = {
  k_slot : int;
  k_incarnation : int;
  k_in : Unix.file_descr;
  k_out : Unix.file_descr;
  k_log : string -> unit;
  k_reader : Proto.reader;
  k_write_mutex : Mutex.t;  (* heartbeat thread vs main loop *)
  k_flush_mutex : Mutex.t;  (* telemetry flush: heartbeat vs shutdown *)
  mutable k_seq : int;          (* flushes sent; under k_flush_mutex *)
  mutable k_trace_cursor : int; (* trace delta cursor; under k_flush_mutex *)
  mutable k_session : (Wire.spec * Executor.ctx * Dvz_util.Parallel.pool) option;
      (* set once, at Config *)
  mutable k_heartbeat : Thread.t option;
}

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n =
        try Unix.write_substring fd s off (len - off)
        with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
          raise Hangup
      in
      if n <= 0 then raise Hangup;
      go (off + n)
    end
  in
  go 0

let send t msg =
  let frame = Proto.encode msg in
  Mutex.lock t.k_write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.k_write_mutex)
    (fun () -> write_all t.k_out frame)

(* Everything observers see from this process, in one frame.  Metrics
   and profile aggregates are cumulative (the coordinator keeps the
   latest batch), trace events are a delta read under the flush mutex
   so concurrent heartbeat/shutdown flushes never ship the same window
   twice. *)
let flush_telemetry t =
  Mutex.lock t.k_flush_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.k_flush_mutex)
    (fun () ->
      let trace, cursor = Profile.events_from t.k_trace_cursor in
      let batch =
        { Wire.tb_seq = t.k_seq;
          tb_metrics = Metrics.snapshot Metrics.default;
          tb_profile = Profile.snapshot ();
          tb_trace = trace;
          tb_trace_dropped = Profile.events_dropped () }
      in
      t.k_seq <- t.k_seq + 1;
      t.k_trace_cursor <- cursor;
      send t
        (Proto.Telemetry
           { t_incarnation = t.k_incarnation;
             t_payload = Wire.telemetry_to_string batch }))

let start_heartbeat t (spec : Wire.spec) =
  if t.k_heartbeat = None && spec.Wire.w_heartbeat_s > 0.0 then
    t.k_heartbeat <-
      Some
        (Thread.create
           (fun () ->
             (* Dies with the process; a send failure just means the
                coordinator is gone and the main loop is about to find
                out via EOF. *)
             try
               while true do
                 Unix.sleepf spec.Wire.w_heartbeat_s;
                 flush_telemetry t
               done
             with _ -> ())
           ())

(* Total lanes a shard executes on: the spec's [--worker-jobs], clamped
   to the hardware. *)
let lanes (spec : Wire.spec) =
  Dvz_util.Parallel.effective_lanes (max 1 spec.Wire.w_jobs)

let build_ctx (spec : Wire.spec) =
  let budget =
    match (spec.Wire.w_max_slots, spec.Wire.w_max_wall_s) with
    | None, None -> None
    | max_slots, max_wall_s ->
        Some (Dvz_uarch.Dualcore.budget ?max_slots ?max_wall_s ())
  in
  { Executor.cx_cfg = spec.Wire.w_cfg;
    cx_style = spec.Wire.w_style;
    cx_taint_mode = spec.Wire.w_taint_mode;
    cx_secret = spec.Wire.w_secret;
    cx_fault_plan = spec.Wire.w_fault_plan;
    cx_budget = budget;
    cx_clock = Dvz_obs.Clock.real;
    cx_domain_iters =
      Array.init (lanes spec) (fun i ->
          Metrics.counter Metrics.default
            ~help:"Campaign iterations executed by one worker domain"
            (Printf.sprintf "dvz_campaign_iterations_domain_%d" i)) }

let send_outcome t ~epoch (o : Executor.outcome) =
  send t
    (Proto.Outcome
       { o_worker = t.k_slot;
         o_epoch = epoch;
         o_iteration = o.Executor.oc_iteration;
         o_payload = Wire.outcome_to_string o })

let handle_assign t ~epoch payload =
  match t.k_session with
  | None -> failwith "fleet worker: Assign before Config"
  | Some (spec, ctx, pool) -> (
      match Wire.plans_of_string payload with
      | Error e -> failwith ("fleet worker: " ^ e)
      | Ok plans ->
          if lanes spec > 1 && List.length plans > 1 then
            (* Execute the shard across the pool's lanes, then stream
               results in plan order.  [Fault.Killed] from any plan
               propagates and takes the whole process down — by design:
               that is the fault the supervisor exists to survive. *)
            List.iter (send_outcome t ~epoch)
              (Dvz_util.Parallel.run pool (Executor.execute ctx) plans)
          else
            (* Stream incrementally: completed iterations reach the
               coordinator even if a later plan kills this process. *)
            List.iter
              (fun p -> send_outcome t ~epoch (Executor.execute ctx p))
              plans)

(* The rest of the session, [k ()], runs inside one worker pool sized from
   the spec's lanes: its domains spawn on the first parallel shard, stay
   warm for every later one, and are joined however the session ends. *)
let with_session t payload k =
  if Option.is_some t.k_session then failwith "fleet worker: second Config";
  match Wire.spec_of_string payload with
  | Error e -> failwith ("fleet worker: " ^ e)
  | Ok spec ->
      Dvz_util.Parallel.with_pool ~domains:(lanes spec) (fun pool ->
          t.k_session <- Some (spec, build_ctx spec, pool);
          if spec.Wire.w_profile || spec.Wire.w_trace then
            Profile.arm ~trace:spec.Wire.w_trace ();
          start_heartbeat t spec;
          k ())

let main ?(log = ignore) ?(incarnation = 0) ~slot ~in_fd ~out_fd () =
  (* A worker whose coordinator died mid-write must exit, not crash. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* This process reports its OWN work: a forked worker (the test seam)
     inherits the parent's registry and profiler state, so zero both to
     match the exec path's fresh process. *)
  Metrics.reset Metrics.default;
  Profile.disarm ();
  Profile.reset ();
  let t =
    { k_slot = slot;
      k_incarnation = incarnation;
      k_in = in_fd;
      k_out = out_fd;
      k_log = log;
      k_reader = Proto.reader ();
      k_write_mutex = Mutex.create ();
      k_flush_mutex = Mutex.create ();
      k_seq = 0;
      k_trace_cursor = 0;
      k_session = None;
      k_heartbeat = None }
  in
  let buf = Bytes.create 65536 in
  let rec loop () =
    match Proto.next t.k_reader with
    | Error e ->
        (* A corrupt stream from the coordinator: nothing to salvage. *)
        failwith ("fleet worker: " ^ Proto.error_message e)
    | Ok (Some Proto.Shutdown) ->
        (* The final flush: whatever accumulated since the last heartbeat
           still reaches the coordinator before the pipe closes.  A
           coordinator that stops reading after Shutdown is no news. *)
        (try flush_telemetry t with Hangup -> ())
    | Ok (Some (Proto.Config { c_payload })) -> with_session t c_payload loop
    | Ok (Some (Proto.Assign { a_epoch; a_payload })) ->
        handle_assign t ~epoch:a_epoch a_payload;
        loop ()
    | Ok (Some ((Proto.Hello _ | Proto.Outcome _ | Proto.Telemetry _) as msg)) ->
        failwith
          (Printf.sprintf "fleet worker: unexpected %s frame from coordinator"
             (Proto.kind_name msg))
    | Ok None ->
        let n =
          try Unix.read t.k_in buf 0 (Bytes.length buf)
          with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> 0
        in
        if n = 0 then raise Hangup
        else begin
          Proto.feed t.k_reader buf 0 n;
          loop ()
        end
  in
  match
    send t
      (Proto.Hello
         { h_clock_us = int_of_float (Unix.gettimeofday () *. 1e6) });
    loop ()
  with
  | () -> ()
  | exception Hangup -> t.k_log "worker: coordinator hung up"
