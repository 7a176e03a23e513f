(* The layer ladder: per-layer costs measured from outside.

   A traced campaign runs through a [?dispatch] that captures, for every
   plan, a copy of its generator (phase 1's input) and the phase outputs
   its outcome carries.  After the campaign, [replay] feeds those inputs
   back through the public layer functions one call at a time —
   Trigger_gen/Trigger_opt (phase 1), Window_gen (phase 2), then
   Oracle.analyze and its parts: Simpool.acquire, Dualcore.run, a single
   Core.run, the sanitize re-run and Coverage.observe_result (phase 3).
   Every replayed call is recorded as a span under the plan's iteration
   id.  [codecs] times the fleet's Wire/Proto codecs on a sample of the
   same campaign's plans and outcomes. *)

module Rng = Dvz_util.Rng
module Stats = Dvz_util.Stats
module Executor = Dejavuzz.Executor
module Scheduler = Dejavuzz.Scheduler
module Packet = Dejavuzz.Packet
module Seed = Dejavuzz.Seed
module Oracle = Dejavuzz.Oracle
module Simpool = Dejavuzz.Simpool
module Coverage = Dejavuzz.Coverage
module Dualcore = Dvz_uarch.Dualcore
module Wire = Dvz_fleet.Wire
module Proto = Dvz_fleet.Proto

(* The per-slot log bound the executor passes to Oracle.analyze. *)
let log_bound = Dvz_ift.Taintlog.Keep_last 8192

(* Codec timing uses the campaign's first batches and outcomes only. *)
let sample_batches = 32
let sample_outcomes = 256

type input = {
  in_iter : int;
  in_fresh : bool;
  in_rng : Rng.t;  (* copy of the plan's generator before execution *)
  mutable in_testcase : Packet.testcase option;  (* phase-1 output *)
  mutable in_completed : Packet.testcase option;  (* phase-2 output *)
  mutable in_triggered : bool;
  mutable in_phases : float * float * float;  (* executor-measured *)
}

type capture = {
  mutable cp_ctx : Executor.ctx option;
  mutable cp_inputs : input list;  (* newest first *)
  mutable cp_plans : Scheduler.plan list list;  (* newest first *)
  mutable cp_outcomes : Executor.outcome list;  (* newest first *)
}

let capture () =
  { cp_ctx = None; cp_inputs = []; cp_plans = []; cp_outcomes = [] }

(* Called by the traced dispatch before the batch executes: the plans'
   generators are consumed by execution, so copy them now. *)
let before_batch cap ctx plans =
  if Option.is_none cap.cp_ctx then cap.cp_ctx <- Some ctx;
  let copy (p : Scheduler.plan) = { p with Scheduler.pl_rng = Rng.copy p.Scheduler.pl_rng } in
  if List.length cap.cp_plans < sample_batches then
    cap.cp_plans <- List.map copy plans :: cap.cp_plans;
  List.map
    (fun (p : Scheduler.plan) ->
      let inp =
        { in_iter = p.Scheduler.pl_iteration;
          in_fresh = (p.Scheduler.pl_pick = Scheduler.Fresh);
          in_rng = Rng.copy p.Scheduler.pl_rng;
          in_testcase = None;
          in_completed = None;
          in_triggered = false;
          in_phases = (0.0, 0.0, 0.0) }
      in
      cap.cp_inputs <- inp :: cap.cp_inputs;
      inp)
    plans

let after_batch cap inputs outcomes =
  List.iter2
    (fun inp (o : Executor.outcome) ->
      inp.in_testcase <- o.Executor.oc_testcase;
      inp.in_completed <- o.Executor.oc_completed;
      inp.in_triggered <- o.Executor.oc_triggered;
      inp.in_phases <- (o.Executor.oc_p1, o.Executor.oc_p2, o.Executor.oc_p3);
      if List.length cap.cp_outcomes < sample_outcomes then
        cap.cp_outcomes <- o :: cap.cp_outcomes)
    inputs outcomes

let inputs cap = List.rev cap.cp_inputs

(* Structural equality that treats an uncomparable value as a mismatch
   instead of raising. *)
let same a b = try a = b with Invalid_argument _ -> false

type result = {
  metrics : (string * float * string) list;
  mismatches : int;  (* replayed outputs that differ from the campaign's *)
}

let replay tr cap =
  let ctx =
    match cap.cp_ctx with
    | Some ctx -> ctx
    | None -> failwith "ladder: no batch was captured"
  in
  let cfg = ctx.Executor.cx_cfg
  and style = ctx.Executor.cx_style
  and mode = ctx.Executor.cx_taint_mode
  and secret = ctx.Executor.cx_secret in
  let timed ~iter name f = Trace.timed tr ~iter name f in
  let mismatches = ref 0 in
  let check ok = if not ok then incr mismatches in
  let inputs = inputs cap in
  (* Closures are medians of per-plan ratios, so one hiccup (a GC slice,
     a lost time slice) in a sub-millisecond call cannot swing them. *)
  let ratios1 = ref [] and ratios3 = ref [] in
  (* Phase 1: only fresh picks generate/evaluate/reduce; a mutate pick is
     one Seed.mutate_window draw. *)
  let removed = ref 0 in
  List.iter
    (fun inp ->
      if inp.in_fresh then begin
        let iter = inp.in_iter in
        let seed = Seed.random (Rng.copy inp.in_rng) in
        let tc, t_gen =
          timed ~iter "trigger_gen.generate" (fun () ->
              Dejavuzz.Trigger_gen.generate ~style cfg seed)
        in
        let fired, t_eval =
          timed ~iter "trigger_opt.evaluate" (fun () ->
              Dejavuzz.Trigger_opt.evaluate cfg tc)
        in
        let out, t_red =
          if fired then begin
            let (reduced, k), t =
              timed ~iter "trigger_opt.reduce" (fun () ->
                  Dejavuzz.Trigger_opt.reduce cfg tc)
            in
            removed := !removed + k;
            (Some reduced, t)
          end
          else (None, 0.0)
        in
        let p1, _, _ = inp.in_phases in
        if p1 > 0.0 then ratios1 := ((t_gen +. t_eval +. t_red) /. p1) :: !ratios1;
        check (same out inp.in_testcase)
      end)
    inputs;
  (* Phase 2. *)
  List.iter
    (fun inp ->
      match inp.in_testcase with
      | None -> ()
      | Some tc ->
          let comp, _ =
            timed ~iter:inp.in_iter "window_gen.complete" (fun () ->
                Dejavuzz.Window_gen.complete cfg tc)
          in
          check (same (Some comp) inp.in_completed))
    inputs;
  (* Phase 3: the whole oracle, then its parts one call at a time. *)
  let analyses = ref 0 and sanitized = ref 0 and leaks = ref 0 in
  let slots = ref 0 and final_tainted = ref 0 in
  List.iter
    (fun inp ->
      match inp.in_completed with
      | None -> ()
      | Some tc ->
          let iter = inp.in_iter in
          let a, t_analyze =
            timed ~iter "oracle.analyze" (fun () ->
                Oracle.analyze ~mode ~log_bound cfg ~secret tc)
          in
          let stim = Packet.stimulus ~secret tc in
          let dc, t_acquire =
            timed ~iter "simpool.acquire" (fun () ->
                Simpool.acquire ~log_bound ~mode cfg stim)
          in
          let r, t_run = timed ~iter "dualcore.run" (fun () -> Dualcore.run dc) in
          let core = Simpool.acquire_core cfg stim in
          ignore (timed ~iter "core.run" (fun () -> Dvz_uarch.Core.run core));
          (* The oracle re-runs the sanitized window only when live
             microarchitectural sinks are left to attribute. *)
          let live = List.filter Oracle.microarch_sink r.Dualcore.r_live_tainted in
          let t_sanitize =
            if live = [] then 0.0
            else begin
              incr sanitized;
              snd
                (timed ~iter "oracle.sanitize" (fun () ->
                     let s = Dejavuzz.Window_gen.sanitize cfg tc in
                     Dualcore.run
                       (Simpool.acquire ~log_bound ~mode cfg
                          (Packet.stimulus ~secret s))))
            end
          in
          if t_analyze > 0.0 then
            ratios3 := ((t_acquire +. t_run +. t_sanitize) /. t_analyze) :: !ratios3;
          let cov = Coverage.create () in
          ignore
            (timed ~iter "coverage.observe" (fun () ->
                 Coverage.observe_result cov a.Oracle.a_result));
          incr analyses;
          if a.Oracle.a_leaks <> [] then incr leaks;
          slots := !slots + r.Dualcore.r_slots;
          final_tainted := !final_tainted + List.length r.Dualcore.r_final_tainted;
          check (r.Dualcore.r_slots = a.Oracle.a_result.Dualcore.r_slots))
    inputs;
  let tot = Trace.total tr in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let per n = ratio (float_of_int n) (float_of_int !analyses) in
  let analyze = tot "oracle.analyze"
  and acquire = tot "simpool.acquire"
  and run = tot "dualcore.run"
  and core = tot "core.run"
  and sanitize = tot "oracle.sanitize" in
  { metrics =
      [ ("trigger_gen.generate_s", tot "trigger_gen.generate", "s");
        ("trigger_opt.evaluate_s", tot "trigger_opt.evaluate", "s");
        ("trigger_opt.reduce_s", tot "trigger_opt.reduce", "s");
        ("trigger_opt.removed", float_of_int !removed, "count");
        ("window_gen.complete_s", tot "window_gen.complete", "s");
        ("oracle.analyze_s", analyze, "s");
        ("simpool.acquire_s", acquire, "s");
        ("dualcore.run_s", run, "s");
        ("dualcore.slots", float_of_int !slots, "count");
        ("dualcore.ns_per_slot", ratio (run *. 1e9) (float_of_int !slots), "ns");
        ("core.run_s", core, "s");
        ("dualcore.shadow_s", run -. (2.0 *. core), "s");
        ("oracle.sanitize_s", sanitize, "s");
        ("oracle.sanitize_ratio", per !sanitized, "ratio");
        ("oracle.self_s", analyze -. acquire -. run -. sanitize, "s");
        ("dualcore.final_tainted", per !final_tainted, "count");
        ("coverage.observe_s", tot "coverage.observe", "s");
        ("oracle.leak_ratio", per !leaks, "ratio");
        ("ladder.phase1_closure", Stats.median !ratios1, "ratio");
        ("ladder.phase3_closure", Stats.median !ratios3, "ratio") ];
    mismatches = !mismatches }

let mean_us f xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let t0 = Trace.now () in
      List.iter f xs;
      (Trace.now () -. t0) *. 1e6 /. float_of_int (List.length xs)

let decoded = function Ok v -> v | Error e -> failwith ("ladder: " ^ e)

let codecs cap =
  let plans = cap.cp_plans and outcomes = cap.cp_outcomes in
  let plans_rt =
    mean_us
      (fun ps -> ignore (decoded (Wire.plans_of_string (Wire.plans_to_string ps))))
      plans
  in
  let outcome_rt =
    mean_us
      (fun o -> ignore (decoded (Wire.outcome_of_string (Wire.outcome_to_string o))))
      outcomes
  in
  let payloads = List.map Wire.outcome_to_string outcomes in
  let bytes =
    match payloads with
    | [] -> 0.0
    | _ ->
        float_of_int (List.fold_left (fun n s -> n + String.length s) 0 payloads)
        /. float_of_int (List.length payloads)
  in
  (* One reader for the whole stream, as the coordinator keeps per worker. *)
  let r = Proto.reader () in
  let frame_rt =
    mean_us
      (fun payload ->
        Proto.feed_string r
          (Proto.encode
             (Proto.Outcome
                { o_worker = 0; o_epoch = 0; o_iteration = 0; o_payload = payload }));
        match Proto.next r with
        | Ok (Some _) -> ()
        | Ok None | Error _ -> failwith "ladder: frame did not round-trip")
      payloads
  in
  [ ("wire.plans_roundtrip_us", plans_rt, "us");
    ("wire.outcome_roundtrip_us", outcome_rt, "us");
    ("wire.outcome_bytes", bytes, "bytes");
    ("proto.frame_roundtrip_us", frame_rt, "us") ]
