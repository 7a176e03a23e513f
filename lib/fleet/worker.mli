(** The fleet's child process: a stateless remote executor.

    Speaks {!Proto} on a pair of file descriptors: announces itself with
    [Hello], builds its executor context from the one [Config] frame,
    then executes each [Assign]ed shard of plans, streaming one
    [Outcome] frame per plan (in plan order), while a background thread
    sends a periodic [Telemetry] frame (metrics snapshot, profiler
    aggregates, trace delta) that doubles as the heartbeat, with one
    final flush on [Shutdown].
    All campaign state — corpus, coverage, dedup, checkpoints — lives in
    the coordinator, so a worker killed at any instant costs only the
    re-execution of its outstanding plans, never a result. *)

val main :
  ?log:(string -> unit) ->
  ?incarnation:int ->
  slot:int ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  unit ->
  unit
(** Runs the worker loop until [Shutdown] or EOF/EPIPE from the
    coordinator (both return normally; only EOF/EPIPE is reported to
    [log], as the coordinator hanging up without a [Shutdown]).  [incarnation] (default 0) is
    the spawn generation the coordinator launched this process under; it
    is echoed in every [Telemetry] frame so a respawned slot's stale
    predecessor cannot pollute the aggregates.  Resets the process-wide
    metrics registry and profiler on entry (a forked worker inherits the
    parent's), and arms the profiler when the spec asks for it.  Raises
    [Failure] on a corrupt or out-of-protocol stream and lets an
    injected {!Dvz_resilience.Fault.Killed} propagate — the caller (the
    hidden [dejavuzz worker] subcommand) maps those to exit codes.
    Ignores [SIGPIPE]. *)
