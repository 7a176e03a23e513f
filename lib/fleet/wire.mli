(** Codecs for the opaque payloads inside {!Proto} frames.

    Coordinator and workers are the same executable, so payloads travel
    as [Marshal] bytes wrapped with a wire version and a kind tag;
    decoding returns [Error] (never raises) on damaged, mistagged or
    cross-version payloads.  Everything here is plain data — plans carry
    their own pre-split RNGs, the spec carries raw budget limits — which
    is what lets a campaign be re-executed remotely, or re-assigned
    after a worker death, with byte-identical results. *)

val wire_version : int

(** Everything a worker needs to rebuild an {!Dejavuzz.Executor.ctx}:
    the campaign's immutable inputs plus raw watchdog limits (the opaque
    [Dualcore.budget] is reconstructed worker-side). *)
type spec = {
  w_cfg : Dvz_uarch.Config.t;
  w_style : [ `Derived | `Random ];
  w_taint_mode : Dvz_ift.Policy.mode;
  w_secret : int array;
  w_fault_plan : Dvz_resilience.Fault.plan;
  w_max_slots : int option;
  w_max_wall_s : float option;
  w_jobs : int;  (** domains each worker uses for its shard *)
  w_heartbeat_s : float;  (** heartbeat send interval *)
  w_profile : bool;  (** arm the worker's self-profiler *)
  w_trace : bool;  (** additionally record trace events for the merged
                       Chrome trace *)
}

val spec_to_string : spec -> string
val spec_of_string : string -> (spec, string) result

val plans_to_string : Dejavuzz.Scheduler.plan list -> string
val plans_of_string : string -> (Dejavuzz.Scheduler.plan list, string) result

val outcome_to_string : Dejavuzz.Executor.outcome -> string
(** Strips the simulation log and window records first — executor-side
    detail the fold never reads — so outcomes stay small on the wire. *)

val outcome_of_string : string -> (Dejavuzz.Executor.outcome, string) result

(** One telemetry flush, shipped inside a {!Proto.msg.Telemetry} frame.
    [tb_metrics] and [tb_profile] are cumulative since process start
    (ingest keeps the latest batch per incarnation — last-wins, so a
    lost flush never double counts); [tb_trace] is the delta since the
    previous flush (ingest appends).  [tb_seq] counts flushes;
    [tb_trace_dropped] reports worker-side overflow of the bounded trace
    buffer. *)
type telemetry_batch = {
  tb_seq : int;
  tb_metrics : Dvz_obs.Metrics.snapshot;
  tb_profile : Dvz_obs.Profile.entry list;
  tb_trace : Dvz_obs.Profile.event list;
  tb_trace_dropped : int;
}

val telemetry_to_string : telemetry_batch -> string
val telemetry_of_string : string -> (telemetry_batch, string) result
