(* The coordinator's half of the fleet telemetry plane.

   Workers flush [Telemetry] frames on their heartbeat cadence; this
   module turns them into a per-slot aggregate the observers read:
   worker-labelled metrics groups for /metrics and the JSON exporter,
   merged profiles for --profile, clock-aligned trace events for the
   merged Chrome trace, per-slot health (heartbeat-interval histogram,
   batch/stale counters, restart timeline) for /fleet.  It holds only
   what arrives in those frames: pid, liveness and outcome counts belong
   to the coordinator's worker record.  The coordinator also emits each
   worker's lifecycle lines through {!event}, labelled like the rest of
   the slot's data.

   Incarnations make respawns safe: each slot's spawn generation is
   stamped into every frame its worker sends, and a frame whose
   incarnation is not the slot's current one is counted and dropped —
   a SIGKILLed predecessor whose last flush was still in the pipe
   cannot pollute its successor's aggregates.  Within an incarnation
   the metrics/profile payloads are cumulative, so ingest is last-wins;
   across incarnations the retired generations' final batches are
   summed (via {!Dvz_obs.Metrics.merge}/{!Dvz_obs.Profile.merge}) so a
   slot's series reflect everything its workers ever did.

   Everything here is observation: nothing the campaign folds into
   results ever reads this state, which is what keeps fleet output
   byte-identical to --jobs 1 regardless of telemetry traffic. *)

module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile
module Events = Dvz_obs.Events
module Clock = Dvz_obs.Clock
module Json = Dvz_obs.Json

type slot_state = {
  ss_slot : int;
  ss_reg : Metrics.t;
      (* coordinator-side per-slot series (heartbeat intervals, batch
         counts, ...) — merged into the slot's label group *)
  ss_hb_interval : Metrics.histogram;
  ss_batches : Metrics.counter;
  ss_stale : Metrics.counter;
  mutable ss_incarnation : int;
  mutable ss_clock_offset_s : float;  (* coordinator now - worker clock *)
  mutable ss_hb_last : float;         (* arrival of the last flush *)
  mutable ss_current : Wire.telemetry_batch option;  (* this incarnation *)
  mutable ss_retired_metrics : Metrics.snapshot;  (* Σ dead incarnations *)
  mutable ss_retired_profile : Profile.entry list;
  mutable ss_trace : Profile.event list;  (* shifted, newest first *)
  mutable ss_trace_len : int;
  mutable ss_trace_dropped : int;     (* coordinator-side cap overflow *)
  mutable ss_restarts : (float * string) list;  (* newest first *)
}

type t = {
  p_clock : Clock.t;
  p_mutex : Mutex.t;
  p_slots : (int, slot_state) Hashtbl.t;
  p_events : Events.sink;
  p_trace_cap : int;  (* per-slot retained trace events *)
  p_started : float;
  mutable p_stale_total : int;
}

let create ?(clock = Clock.real) ?(events = Events.null)
    ?(trace_cap = 262_144) () =
  { p_clock = clock;
    p_mutex = Mutex.create ();
    p_slots = Hashtbl.create 8;
    p_events = events;
    p_trace_cap = trace_cap;
    p_started = Clock.now clock;
    p_stale_total = 0 }

let locked t f =
  Mutex.lock t.p_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.p_mutex) f

let slot_state t slot =
  match Hashtbl.find_opt t.p_slots slot with
  | Some ss -> ss
  | None ->
      let reg = Metrics.create ~clock:t.p_clock () in
      let ss =
        { ss_slot = slot;
          ss_reg = reg;
          ss_hb_interval =
            Metrics.histogram reg
              ~help:"Seconds between heartbeat arrivals from this worker"
              "dvz_fleet_heartbeat_interval_seconds";
          ss_batches =
            Metrics.counter reg
              ~help:"Telemetry batches ingested from this worker slot"
              "dvz_fleet_telemetry_batches_total";
          ss_stale =
            Metrics.counter reg
              ~help:
                "Telemetry frames dropped because they carried a stale \
                 incarnation"
              "dvz_fleet_telemetry_stale_total";
          ss_incarnation = 0;
          ss_clock_offset_s = 0.0;
          ss_hb_last = nan;
          ss_current = None;
          ss_retired_metrics = Metrics.empty_snapshot;
          ss_retired_profile = [];
          ss_trace = [];
          ss_trace_len = 0;
          ss_trace_dropped = 0;
          ss_restarts = [] }
      in
      Hashtbl.replace t.p_slots slot ss;
      ss

let hello t ~slot ~incarnation ~clock_us =
  locked t (fun () ->
      let ss = slot_state t slot in
      ss.ss_incarnation <- incarnation;
      ss.ss_clock_offset_s <-
        Clock.now t.p_clock -. (float_of_int clock_us /. 1e6);
      ss.ss_hb_last <- nan)

(* Lifecycle lines carry the same [wslot]/[winc] labels as the rest of
   the slot's data, and the ["type"] key campaign events use, so
   /events?kind= filters both uniformly.  Ring sinks have their own
   lock; the plane's is not needed. *)
let event t ~slot ~incarnation kind fields =
  if not (Events.is_null t.p_events) then
    Events.emit
      (Events.with_context t.p_events
         [ ("wslot", Json.Int slot); ("winc", Json.Int incarnation) ])
      (("type", Json.Str kind) :: fields)

(* The slot's worker died: its current incarnation will never flush
   again, so fold its final cumulative batch into the retired sums and
   log the restart.  The successor's frames carry a new incarnation. *)
let record_restart t ~slot ~reason =
  locked t (fun () ->
      let ss = slot_state t slot in
      (match ss.ss_current with
      | None -> ()
      | Some b ->
          ss.ss_retired_metrics <-
            Metrics.merge ss.ss_retired_metrics b.Wire.tb_metrics;
          ss.ss_retired_profile <-
            Profile.merge ss.ss_retired_profile b.Wire.tb_profile;
          ss.ss_current <- None);
      (* Match the coordinator's restart counter so any frame of the dead
         generation still in flight is stale from this point on, even
         before the successor's Hello re-announces the slot. *)
      ss.ss_incarnation <- ss.ss_incarnation + 1;
      ss.ss_restarts <-
        (Clock.now t.p_clock -. t.p_started, reason) :: ss.ss_restarts)

let ingest t ~slot ~incarnation (batch : Wire.telemetry_batch) =
  locked t (fun () ->
      let ss = slot_state t slot in
      if incarnation <> ss.ss_incarnation then begin
        Metrics.incr ss.ss_stale;
        t.p_stale_total <- t.p_stale_total + 1;
        false
      end
      else begin
        (* Flushes ride the heartbeat cadence: their spacing is the
           slot's heartbeat interval. *)
        let now = Clock.now t.p_clock in
        if not (Float.is_nan ss.ss_hb_last) then
          Metrics.observe ss.ss_hb_interval (now -. ss.ss_hb_last);
        ss.ss_hb_last <- now;
        Metrics.incr ss.ss_batches;
        ss.ss_current <- Some batch;
        (* Trace deltas append, shifted onto the coordinator's clock and
           capped per slot. *)
        List.iter
          (fun ev ->
            if ss.ss_trace_len >= t.p_trace_cap then
              ss.ss_trace_dropped <- ss.ss_trace_dropped + 1
            else begin
              ss.ss_trace <-
                { ev with
                  Profile.ev_start =
                    ev.Profile.ev_start +. ss.ss_clock_offset_s }
                :: ss.ss_trace;
              ss.ss_trace_len <- ss.ss_trace_len + 1
            end)
          batch.Wire.tb_trace;
        true
      end)

let stale_frames t = locked t (fun () -> t.p_stale_total)

let merged_slot_metrics ss =
  let base =
    match ss.ss_current with
    | None -> ss.ss_retired_metrics
    | Some b -> Metrics.merge ss.ss_retired_metrics b.Wire.tb_metrics
  in
  Metrics.merge base (Metrics.snapshot ss.ss_reg)

let merged_slot_profile ss =
  match ss.ss_current with
  | None -> ss.ss_retired_profile
  | Some b -> Profile.merge ss.ss_retired_profile b.Wire.tb_profile

let sorted_slots t =
  Hashtbl.fold (fun _ ss acc -> ss :: acc) t.p_slots []
  |> List.sort (fun a b -> compare a.ss_slot b.ss_slot)

let worker_metrics t =
  locked t (fun () ->
      List.map (fun ss -> (ss.ss_slot, merged_slot_metrics ss))
        (sorted_slots t))

let worker_profiles t =
  locked t (fun () ->
      List.map (fun ss -> (ss.ss_slot, merged_slot_profile ss))
        (sorted_slots t))

let merged_profile t =
  List.fold_left
    (fun acc (_, p) -> Profile.merge acc p)
    [] (worker_profiles t)

let trace_groups t =
  locked t (fun () ->
      List.filter_map
        (fun ss ->
          if ss.ss_trace = [] then None
          else
            Some
              ( (* pid 1 is the coordinator's group in the merged trace *)
                ss.ss_slot + 2,
                Printf.sprintf "dejavuzz worker %d" ss.ss_slot,
                List.sort
                  (fun a b ->
                    compare
                      (a.Profile.ev_start, a.Profile.ev_tid)
                      (b.Profile.ev_start, b.Profile.ev_tid))
                  ss.ss_trace ))
        (sorted_slots t))

let slot_json ss =
  let hb = Metrics.histogram_count ss.ss_hb_interval in
  let hb_mean =
    if hb = 0 then 0.0 else Metrics.histogram_sum ss.ss_hb_interval /. float_of_int hb
  in
  Json.Obj
    [ ("slot", Json.Int ss.ss_slot);
      ("heartbeats", Json.Int hb);
      ("heartbeat_mean_s", Json.Float hb_mean);
      ( "telemetry_batches",
        Json.Int (Metrics.counter_value ss.ss_batches) );
      ("stale_frames", Json.Int (Metrics.counter_value ss.ss_stale));
      ("trace_events", Json.Int ss.ss_trace_len);
      ( "trace_dropped",
        Json.Int
          (ss.ss_trace_dropped
          + match ss.ss_current with
            | Some b -> b.Wire.tb_trace_dropped
            | None -> 0) );
      ( "restarts",
        Json.Arr
          (List.rev_map
             (fun (at, reason) ->
               Json.Obj
                 [ ("at_s", Json.Float at); ("reason", Json.Str reason) ])
             ss.ss_restarts) ) ]

let health_json t =
  locked t (fun () ->
      Json.Obj
        [ ("stale_frames", Json.Int t.p_stale_total);
          ("workers", Json.Arr (List.map slot_json (sorted_slots t))) ])
