(** The fleet supervisor: one coordinator process, N worker subprocesses.

    The coordinator runs the ordinary {!Dejavuzz.Campaign.run} engine
    and owns its entire fold (corpus, coverage, finding dedup,
    checkpoints, events); workers are stateless plan executors reached
    through the {!Proto} pipe protocol.  Each batch's plans are sharded
    across live workers; plans are plain data with pre-split RNGs, so a
    shard orphaned by a worker death is simply re-executed — by a
    backoff-respawned replacement, a surviving worker, or (once every
    slot has exhausted its respawn budget) inline in the coordinator.
    Outcomes are folded in plan-index order once the batch is complete,
    which makes fleet output byte-identical to a single-process
    [--jobs 1] run regardless of worker deaths: the determinism
    contract CI gates on.

    Failure detection is layered: pipe EOF / [EPIPE] / protocol
    corruption condemn a worker immediately; a heartbeat silence past
    [fl_deadline_s] (SIGSTOP, livelock) draws a SIGKILL first.  Every
    death returns the worker's outstanding plans to the pool and counts
    toward [dvz_fleet_worker_restarts_total]. *)

type opts = {
  fl_workers : int;  (** fleet size; 0 = coordinator executes everything *)
  fl_worker_jobs : int;  (** domains each worker spends on its shard *)
  fl_heartbeat_s : float;  (** worker heartbeat send interval *)
  fl_deadline_s : float;
      (** declare a live worker dead after this much silence; [0.] never *)
  fl_max_respawns : int;  (** deaths allowed per slot before retirement *)
  fl_backoff_base_s : float;  (** respawn backoff: base delay *)
  fl_backoff_cap_s : float;  (** respawn backoff: cap *)
  fl_chaos : (int * int * int) list;
      (** fault-injection hooks for tests/CI: [(epoch, slot, signal)] —
          send [signal] to [slot]'s process right after the epoch's
          initial assignment *)
  fl_profile : bool;
      (** arm each worker's profiler; aggregates ride telemetry frames *)
  fl_trace : bool;  (** also record per-worker trace events *)
  fl_log : string -> unit;  (** lifecycle log lines (default stderr) *)
  fl_launch :
    (slot:int -> incarnation:int -> int * Unix.file_descr * Unix.file_descr)
    option;
      (** test seam: spawn a worker, returning
          [(pid, to_worker_fd, from_worker_fd)]; default re-execs this
          binary as [dejavuzz worker --slot K --incarnation G].
          [incarnation] is the slot's spawn generation (its death count)
          and must be echoed in the worker's [Telemetry] frames *)
}

val default_opts : opts
(** 4 workers, 1 domain each, 1s heartbeats, 10s deadline, 5 respawns
    per slot, 0.5s–30s backoff, no chaos, stderr logging. *)

type fleet_stats = {
  fs_workers : int;
  fs_spawns : int;  (** worker processes launched, initial spawns included *)
  fs_restarts : int;  (** respawns scheduled after a death *)
  fs_retired : int;  (** slots that exhausted their respawn budget *)
  fs_heartbeats_missed : int;
  fs_inline_plans : int;  (** plans the coordinator executed itself *)
}

(** {2 Live fleet board} — the [/fleet] endpoint's snapshot feed,
    mirroring {!Dejavuzz.Campaign.board}. *)

type worker_row = {
  fw_slot : int;
  fw_pid : int;  (** 0 unless live *)
  fw_state : string;  (** ["live"] / ["backoff"] / ["retired"] *)
  fw_restarts : int;
  fw_done : int;  (** outcomes produced across all incarnations *)
  fw_last_rx_age_s : float;  (** seconds since the last frame, if live *)
}

type snapshot = {
  fb_epoch : int;
  fb_workers : worker_row list;
  fb_restarts : int;
  fb_retired : int;
  fb_heartbeats_missed : int;
  fb_inline_plans : int;
}

type board

val new_board : unit -> board
val board_read : board -> snapshot option
val snapshot_json : snapshot -> Dvz_obs.Json.t

val run :
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?resilience:Dejavuzz.Campaign.resilience ->
  ?board:board ->
  ?plane:Telemetry.t ->
  ?budget_limits:int option * float option ->
  opts ->
  Dvz_uarch.Config.t ->
  Dejavuzz.Campaign.options ->
  Dejavuzz.Campaign.stats * fleet_stats
(** Runs the campaign on a supervised fleet.  [plane], when given,
    receives every worker's telemetry: Hello handshakes (clock
    alignment) and [Telemetry] frame ingestion, including a final drain
    of each pipe after Shutdown so the workers' last flushes land before
    the fds close.  The coordinator also emits each worker's lifecycle
    lines on the plane's event sink — [worker_start] (pid) at spawn,
    [config] when the Config frame is written, [assign] (epoch, plan
    count) per shard and [shutdown] (outcome count) — labelled with
    [wslot]/[winc] like the rest of the slot's data.  Telemetry is observation-only
    and never feeds the campaign fold, so output stays byte-identical
    to [--jobs 1] with or without it.  [budget_limits] is the
    raw [(max_slots, max_wall_s)] pair behind [resilience.rz_budget]
    (the opaque budget cannot be serialized, so workers rebuild it from
    these).  Forces [rz_checkpoint_keep] on, and when [rz_resume] names
    a checkpoint that fails validation ({!Dejavuzz.Campaign.Bad_checkpoint})
    but a [.prev] rotation exists, falls back to it once.  Ignores
    [SIGPIPE].  Workers are always shut down (Shutdown frame, then
    SIGKILL after a grace period) on any exit, including exceptions. *)
