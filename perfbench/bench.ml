(* The campaign benchmark.

   Runs one workload for a fixed time and prints, as its last stdout line,
   {"correct", "attempted", "failed", "metrics"}: with [--trace 0] the
   end-to-end metrics (iterations per second, set-up time, peak RSS,
   share of iterations that succeeded), with [--trace 1] the per-layer
   ladder.  Every campaign's output is checked against a digest.  See
   perfbench/README.md for the workloads and metric definitions. *)

module Campaign = Dejavuzz.Campaign
module Executor = Dejavuzz.Executor
module Simpool = Dejavuzz.Simpool
module Parallel = Dvz_util.Parallel
module Stats = Dvz_util.Stats
module Coordinator = Dvz_fleet.Coordinator
module Profile = Dvz_obs.Profile
module Json = Dvz_obs.Json

let now = Trace.now
let cfg = Dvz_uarch.Config.boom_small
let batch = 8
let fleet_workers = 2

type workload = Seq_derived | Seq_random | Par_jobs | Fleet

let workloads =
  [ ("seq-derived", Seq_derived);
    ("seq-random-training", Seq_random);
    ("par-jobs", Par_jobs);
    ("fleet", Fleet) ]

let jobs = function Par_jobs -> 2 | Seq_derived | Seq_random | Fleet -> 1

(* The CPUs a workload's iterations execute on. *)
let lanes = function Fleet -> fleet_workers | w -> jobs w

let options w ~seed ~iterations =
  { Campaign.default_options with
    Campaign.iterations;
    rng_seed = seed;
    batch;
    style = (match w with Seq_random -> `Random | _ -> `Derived) }

(* What [dejavuzz fuzz] prints, plus the coverage curve and the failure
   tallies, hashed. *)
let digest (s : Campaign.stats) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Dejavuzz.Report.summary s);
  Buffer.add_string b
    (Dejavuzz.Report.table5 ~core_name:cfg.Dvz_uarch.Config.name
       s.Campaign.s_findings);
  Array.iter (Printf.bprintf b "%d,") s.Campaign.s_coverage_curve;
  Printf.bprintf b "|final=%d triggered=%d timeouts=%d|"
    s.Campaign.s_final_coverage s.Campaign.s_triggered s.Campaign.s_timeouts;
  List.iter
    (fun (c : Campaign.crash) ->
      Printf.bprintf b "%d:%s;" c.Campaign.cr_iteration c.Campaign.cr_exn)
    s.Campaign.s_crashes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let recorded (opts : Campaign.options) =
  let style = match opts.Campaign.style with `Random -> "random" | `Derived -> "derived" in
  List.find_map
    (fun (st, n, sd, d) ->
      if st = style && n = opts.Campaign.iterations && sd = opts.Campaign.rng_seed
      then Some d
      else None)
    Reference.digests

(* A run's campaigns: [campaign_seeds] input seeds derived from the run's
   [--seed], run round-robin, so that a run's rate does not hang on the
   cost of a single campaign's inputs. *)
let campaign_seeds = 8

let campaign_options w ~seed ~iterations =
  List.init campaign_seeds (fun j ->
      options w ~seed:((seed * campaign_seeds) + j) ~iterations)

(* --- one campaign, untraced ------------------------------------------------ *)

type run = {
  r_stats : Campaign.stats;
  r_window : float;  (* iteration seconds: set-up excluded *)
  r_wall : float;  (* entry to return *)
  r_entry : float;
  r_worker_rss_kb : int;
  r_worker_cpu : float;
  r_coord_cpu : float;
  r_stderr_lines : int;
}

let local_run w opts =
  let t0 = now () in
  let stats = Campaign.run ~jobs:(jobs w) cfg opts in
  let t1 = now () in
  (* The pool is warm after the set-up probes, so the campaign's own
     set-up before its first batch is only the context build. *)
  { r_stats = stats; r_window = t1 -. t0; r_wall = t1 -. t0; r_entry = t0;
    r_worker_rss_kb = 0; r_worker_cpu = 0.0; r_coord_cpu = 0.0;
    r_stderr_lines = 0 }

(* Mirrors [dejavuzz fleet --workers 2]: a telemetry plane and a board are
   attached, exactly as the CLI does. *)
let fleet_run ?(telemetry = Campaign.quiet) ~cli opts =
  let fl = Fleetrun.create ~cli ~workers:fleet_workers () in
  let plane = Dvz_fleet.Telemetry.create ~events:(Dvz_obs.Events.ring ()) () in
  let board = Coordinator.new_board () in
  let telemetry =
    { telemetry with
      Campaign.t_progress_every = opts.Campaign.iterations;
      t_progress = (fun _ -> Fleetrun.sample_workers fl) }
  in
  let self0, kids0 = Fleetrun.cpu_times () in
  let t0 = now () in
  let stats, _ =
    Coordinator.run ~telemetry ~board ~plane (Fleetrun.opts fl) cfg opts
  in
  let t1 = now () in
  let self1, kids1 = Fleetrun.cpu_times () in
  let lines = Fleetrun.finish fl in
  { r_stats = stats; r_window = t1 -. fl.Fleetrun.ready; r_wall = t1 -. t0;
    r_entry = t0; r_worker_rss_kb = fl.Fleetrun.worker_rss_kb;
    r_worker_cpu = kids1 -. kids0; r_coord_cpu = self1 -. self0;
    r_stderr_lines = lines }

let run_once ~cli w opts =
  match w with Fleet -> fleet_run ~cli opts | _ -> local_run w opts

(* --- set-up ---------------------------------------------------------------- *)

exception Set_up

(* In-process: from [Campaign.run] entry until the first batch would
   start executing, with the orchestrator's Simpool filled from cold
   (both the dual-core and the phase-1 single-core slot).  Fleet: from
   [Coordinator.run] entry until both workers are spawned and their Hello
   frames have arrived. *)
let setup_probe ~cli ~stim w opts =
  let opts = { opts with Campaign.iterations = batch } in
  match w with
  | Fleet ->
      let fl = Fleetrun.create ~wait_hello:true ~cli ~workers:fleet_workers () in
      let t0 = now () in
      ignore (Coordinator.run (Fleetrun.opts fl) cfg opts);
      ignore (Fleetrun.finish fl);
      fl.Fleetrun.ready -. t0
  | Seq_derived | Seq_random | Par_jobs ->
      (* Return the previous probe's pool memory to the system, so every
         probe allocates its pool from fresh pages as a new process does. *)
      Simpool.clear ();
      Gc.compact ();
      let t1 = ref 0.0 in
      let dispatch (ctx : Executor.ctx) _ =
        ignore (Simpool.acquire_core cfg stim);
        ignore
          (Simpool.acquire ~log_bound:Ladder.log_bound
             ~mode:ctx.Executor.cx_taint_mode cfg stim);
        t1 := now ();
        raise Set_up
      in
      let t0 = now () in
      (try ignore (Campaign.run ~jobs:(jobs w) ~dispatch cfg opts)
       with Set_up -> ());
      !t1 -. t0

let setup_stimulus w ~seed =
  let seed = Dejavuzz.Seed.random (Dvz_util.Rng.create seed) in
  let tc =
    Dejavuzz.Trigger_gen.generate
      ~style:(match w with Seq_random -> `Random | _ -> `Derived)
      cfg seed
  in
  Dejavuzz.Packet.stimulus ~secret:Dejavuzz.Trigger_opt.eval_secret tc

(* --- one campaign, traced -------------------------------------------------- *)

(* The default batch path ([List.map] or [Parallel.map] of
   [Executor.execute ctx]) with a span around each batch and each
   execute; the ladder capture runs outside both and is timed as
   bookkeeping so it can be taken out of the campaign's own time. *)
let traced_dispatch tr cap ~lanes (ctx : Executor.ctx) plans =
  let k0 = now () in
  let inputs = Ladder.before_batch cap ctx plans in
  let b0 = now () in
  Trace.record tr "trace.bookkeeping" k0 b0;
  let exec p =
    let t0 = now () in
    let o = Executor.execute ctx p in
    (o, Parallel.worker_index (), t0, now ())
  in
  let results =
    if lanes <= 1 || List.length plans <= 1 then List.map exec plans
    else Parallel.map ~domains:lanes exec plans
  in
  let b1 = now () in
  Trace.record tr "dispatch.batch" b0 b1;
  List.iter
    (fun ((o : Executor.outcome), lane, t0, t1) ->
      Trace.record tr ~iter:o.Executor.oc_iteration ~lane "executor.execute" t0 t1)
    results;
  let outcomes = List.map (fun (o, _, _, _) -> o) results in
  Ladder.after_batch cap inputs outcomes;
  Trace.record tr "trace.bookkeeping" b1 (now ());
  outcomes

let local_traced w opts =
  let tr = Trace.create () and cap = Ladder.capture () in
  let lanes = Parallel.effective_lanes (jobs w) in
  let t0 = now () in
  let stats =
    Campaign.run ~jobs:(jobs w) ~dispatch:(traced_dispatch tr cap ~lanes) cfg
      opts
  in
  let t1 = now () in
  Trace.record tr "campaign.run" t0 t1;
  let first_span =
    match Trace.named tr "trace.bookkeeping" with
    | s :: _ -> s.Trace.sp_t0
    | [] -> t1
  in
  let book = Trace.total tr "trace.bookkeeping" in
  ( { r_stats = stats; r_window = t1 -. t0 -. book; r_wall = t1 -. t0;
      r_entry = t0; r_worker_rss_kb = 0; r_worker_cpu = 0.0; r_coord_cpu = 0.0;
      r_stderr_lines = 0 },
    tr,
    cap,
    first_span -. t0 )

(* Per-iteration executor phase seconds as the coordinator's fold reports
   them in its [iteration] events (the workers measured them). *)
let iteration_phases buf =
  match Json.of_lines (Buffer.contents buf) with
  | Error e -> failwith ("fleet events: " ^ e)
  | Ok records ->
      List.filter_map
        (fun r ->
          match Json.member "type" r with
          | Some (Json.Str "iteration") ->
              let f k =
                Option.value ~default:0.0 (Option.bind (Json.member k r) Json.to_float)
              in
              let trig =
                Option.value ~default:false
                  (Option.bind (Json.member "phase1_triggered" r) Json.to_bool)
              in
              Some (f "phase1_s", f "phase2_s", f "phase3_s", trig)
          | _ -> None)
        records

let fleet_traced ~cli opts =
  let tr = Trace.create () in
  let buf = Buffer.create (1 lsl 20) in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Dvz_obs.Events.to_buffer buf }
  in
  Profile.reset ();
  Profile.arm ~clock:Dvz_obs.Clock.real ~trace:true ~trace_cap:1_000_000 ();
  let r =
    Fun.protect ~finally:Profile.disarm (fun () -> fleet_run ~telemetry ~cli opts)
  in
  (* The library's batch span also wraps the batch's scheduling, which
     in-process sits outside [?dispatch]: a fleet batch span starts where
     its [campaign/schedule] region ends.  The fold of the batch's
     outcomes stays inside it. *)
  let events = Profile.events () in
  let ends name =
    List.filter_map
      (fun (e : Profile.event) ->
        if e.Profile.ev_name = name then
          Some (e.Profile.ev_start, e.Profile.ev_start +. e.Profile.ev_dur)
        else None)
      events
  in
  let schedules = ends "campaign/schedule" in
  List.iter
    (fun (b0, b1) ->
      let start =
        List.fold_left
          (fun t (s0, s1) -> if s0 >= b0 && s1 <= b1 then Float.max t s1 else t)
          b0 schedules
      in
      Trace.record tr "dispatch.batch" start b1)
    (ends "dvz_campaign_batch_seconds");
  Profile.reset ();
  Trace.record tr "campaign.run" r.r_entry (r.r_entry +. r.r_wall);
  let first_batch =
    match Trace.named tr "dispatch.batch" with
    | s :: _ -> s.Trace.sp_t0
    | [] -> r.r_entry +. r.r_wall
  in
  (r, tr, iteration_phases buf, first_batch -. r.r_entry)

(* --- metrics --------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable ok : bool }

let tally () = { attempted = 0; failed = 0; ok = true }

let iter_per_s (r : run) =
  float_of_int r.r_stats.Campaign.s_options.Campaign.iterations /. r.r_window

(* Every campaign of a run must reproduce [expected]; when it is still
   unknown (a seed with no recorded digest) the first campaign sets it.
   A mismatch fails all of the campaign's iterations; otherwise its
   crashed and timed-out iterations fail. *)
let check chk expected (r : run) =
  let n = r.r_stats.Campaign.s_options.Campaign.iterations in
  let d = digest r.r_stats in
  if !expected = None then expected := Some d;
  chk.attempted <- chk.attempted + n;
  if Some d <> !expected then begin
    chk.ok <- false;
    chk.failed <- chk.failed + n
  end
  else
    chk.failed <-
      chk.failed + List.length r.r_stats.Campaign.s_crashes
      + r.r_stats.Campaign.s_timeouts

(* The digest a campaign starts from: the recorded one for its (style,
   iterations, seed), if any.  [par-jobs] and [fleet] must in addition
   match a [--jobs 1] campaign of the same inputs, whose digest is given
   here as [reference]; when that differs from the recorded one the run
   is incorrect. *)
let expected_digest chk opts ?reference () =
  let recorded = recorded opts in
  (match (reference, recorded) with
  | Some d, Some e when d <> e -> chk.ok <- false
  | _ -> ());
  ref (match reference with Some _ -> reference | None -> recorded)

let reference_run w opts =
  match w with
  | Par_jobs | Fleet -> Some (local_run Seq_derived opts)
  | Seq_derived | Seq_random -> None

(* The digests of [--jobs 1] [seq-derived] campaigns with these options,
   computed by a child [bench.exe --digests], so that their memory stays
   out of this process's peak RSS. *)
let reference_digests campaigns =
  let arg f = String.concat "," (List.map f campaigns) in
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--digests";
         arg (fun o -> string_of_int o.Campaign.rng_seed);
         "--iterations";
         string_of_int (List.hd campaigns).Campaign.iterations |]
  in
  let lines =
    String.split_on_char '\n' (In_channel.input_all ic)
    |> List.filter (fun l -> l <> "")
  in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when List.length lines = List.length campaigns -> lines
  | _ -> failwith "perfbench: the reference campaigns failed"

let print_result chk metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (chk.ok && chk.failed = 0));
            ("attempted", Json.Int chk.attempted);
            ("failed", Json.Int chk.failed);
            ("metrics", Json.Obj m) ]))

let context ~w ~name ~seed ~iterations ~nproc ~rev extra =
  let lanes_effective =
    match w with
    | Fleet -> fleet_workers
    | _ -> Parallel.effective_lanes (jobs w)
  in
  let lanes_requested = lanes w in
  (* Lanes are real only when the box has a CPU for each of them. *)
  let real = lanes_effective = lanes_requested && nproc >= lanes_requested in
  if lanes_requested > 1 && not real then
    Printf.eprintf
      "perfbench: %s wants %d lanes but this box gives %d CPU(s), %d domain(s); \
       its figures do not measure parallel execution\n%!"
      name lanes_requested nproc (Parallel.available ());
  print_endline
    (Json.to_string
       (Json.Obj
          [ ( "context",
              Json.Obj
                ([ ("workload", Json.Str name);
                   ("seed", Json.Int seed);
                   ("iterations_per_campaign", Json.Int iterations);
                   ("batch", Json.Int batch);
                   ("core", Json.Str cfg.Dvz_uarch.Config.name);
                   ("nproc", Json.Int nproc);
                   ("domains_available", Json.Int (Parallel.available ()));
                   ("lanes_requested", Json.Int lanes_requested);
                   ("lanes_effective", Json.Int lanes_effective);
                   ("lanes_real", Json.Bool real);
                   ("ocaml", Json.Str Sys.ocaml_version);
                   ("git_rev", Json.Str rev) ]
                @ extra) ) ]))

let fl = float_of_int

(* --- trace 0: end-to-end -------------------------------------------------- *)

(* Set-up probes taken before each campaign of a round, so that they
   span the run as its campaigns do and a change in host speed reaches
   both alike. *)
let probes_per_campaign = function
  | Fleet -> 1
  | Seq_derived | Seq_random | Par_jobs -> 3

(* The mean of the fastest quarter of the probes: the set-up's cost on an
   undisturbed host, which probes hit by a neighbour's burst cannot move
   until they are three quarters of the run's. *)
let fast_quarter_mean xs =
  let n = max 1 ((List.length xs + 3) / 4) in
  Stats.mean (List.filteri (fun i _ -> i < n) (List.sort compare xs))

(* Peak RSS is read after this many rounds (4,000 iterations), the same
   work on every run: the par-jobs process keeps growing for as long as it
   runs, so a peak over the whole run would measure how many campaigns a
   run got through. *)
let rss_rounds = 1

let end_to_end ~cli ~nproc ~rev ~name w ~seed ~seconds ~iterations =
  let chk = tally () in
  let campaigns = campaign_options w ~seed ~iterations in
  let stim = setup_stimulus w ~seed in
  let references =
    match w with
    | Par_jobs | Fleet -> List.map Option.some (reference_digests campaigns)
    | Seq_derived | Seq_random -> List.map (fun _ -> None) campaigns
  in
  let expected =
    List.map2
      (fun opts reference -> (opts, expected_digest chk opts ?reference ()))
      campaigns references
  in
  (* Whole rounds only, each campaign once per round, so every input
     weighs the same in the run's rate: its iterations over its iteration
     seconds.  A host-speed probe follows every campaign; a round's
     seconds are scaled by the median of its probes, so that a spell of
     neighbours' load slows the probes as it slows the campaigns and
     leaves the rate alone. *)
  let rounds = ref 0 and samples = ref [] and iters = ref 0 in
  let secs = ref 0.0 and scaled = ref 0.0 in
  let setups = ref [] and worker_rss = ref 0 and rss = ref 0.0 and probes = ref [] in
  let t_begin = now () in
  while now () -. t_begin < seconds || !rounds < rss_rounds do
    let round_secs = ref 0.0 and round_probes = ref [] in
    List.iter
      (fun (opts, exp) ->
        for _ = 1 to probes_per_campaign w do
          setups := setup_probe ~cli ~stim w opts :: !setups
        done;
        let r = run_once ~cli w opts in
        worker_rss := max !worker_rss r.r_worker_rss_kb;
        round_probes := Hostspeed.probe ~lanes:(lanes w) :: !round_probes;
        check chk exp r;
        samples := iter_per_s r :: !samples;
        iters := !iters + opts.Campaign.iterations;
        round_secs := !round_secs +. r.r_window)
      expected;
    secs := !secs +. !round_secs;
    scaled :=
      !scaled +. Hostspeed.scale !round_secs ~probe_s:(Stats.median !round_probes);
    probes := List.rev_append !round_probes !probes;
    incr rounds;
    if !rounds = rss_rounds then
      rss :=
        Fleetrun.self_rss_mb () -. Hostspeed.resident_mb ()
        +. (fl !worker_rss /. 1024.0)
  done;
  let ok_ratio = 1.0 -. (fl chk.failed /. fl (max 1 chk.attempted)) in
  let strings f = Json.Arr (List.map f expected) in
  context ~w ~name ~seed ~iterations ~nproc ~rev
    [ ( "campaign_seeds",
        strings (fun (o, _) -> Json.Int o.Campaign.rng_seed) );
      ("digests", strings (fun (_, e) -> Json.Str (Option.value ~default:"" !e)));
      ( "recorded_digests",
        strings (fun (o, _) ->
            match recorded o with Some d -> Json.Str d | None -> Json.Null) );
      ("rounds", Json.Int !rounds);
      ("iter_per_s_samples", Json.Arr (List.rev_map (fun x -> Json.Float x) !samples));
      ("setup_s_samples", Json.Arr (List.rev_map (fun x -> Json.Float x) !setups));
      ("probe_s_samples", Json.Arr (List.rev_map (fun x -> Json.Float x) !probes));
      ("iter_per_s_unscaled", Json.Float (fl !iters /. !secs)) ];
  print_result chk
    [ ("iter_per_s", fl !iters /. !scaled, "1/s");
      ("setup_s", fast_quarter_mean !setups, "s");
      ("peak_rss_mb", !rss, "MB");
      ("ok_ratio", ok_ratio, "ratio") ]

(* --- trace 1: the per-layer ladder ----------------------------------------- *)

let ms xs = List.map (fun x -> x *. 1000.0) xs

(* One traced campaign, as the campaign-level metrics see it. *)
type view = {
  v_wall : float;  (* entry to return, tracing bookkeeping taken out *)
  v_setup_in : float;  (* entry to the first batch *)
  v_batches : float list;  (* batch seconds *)
  v_lanes : int;
  v_execs : float list;  (* seconds per executed plan *)
  v_phases : (float * float * float * bool) list;
      (* executor-reported phase seconds and trigger flag, per plan *)
  v_fleet : run option;
}

let phases_of_capture cap =
  List.map
    (fun i ->
      let p1, p2, p3 = i.Ladder.in_phases in
      (p1, p2, p3, i.Ladder.in_triggered))
    (Ladder.inputs cap)

let phase_sum (a, b, c, _) = a +. b +. c

let local_view w (r, tr, cap, setup_in) =
  let book = Trace.total tr "trace.bookkeeping" in
  { v_wall = r.r_wall -. book;
    v_setup_in = setup_in;
    v_batches = Trace.durations tr "dispatch.batch";
    v_lanes = Parallel.effective_lanes (jobs w);
    v_execs = Trace.durations tr "executor.execute";
    v_phases = phases_of_capture cap;
    v_fleet = None }

(* The fleet's workers report phase times, not execute spans, so a plan's
   execute time is its phase sum there. *)
let fleet_view (r, _, phases, setup_in) batches =
  { v_wall = r.r_wall;
    v_setup_in = setup_in;
    v_batches = batches;
    v_lanes = fleet_workers;
    v_execs = List.map phase_sum phases;
    v_phases = phases;
    v_fleet = Some r }

(* [closure] is the iteration closure, from an in-process campaign. *)
let campaign_metrics v ~closure =
  let batch_total = Trace.sum v.v_batches in
  let exec_total = Trace.sum v.v_execs in
  let self = v.v_wall -. v.v_setup_in -. batch_total in
  let p f = Trace.sum (List.map f v.v_phases) in
  let trig = List.length (List.filter (fun (_, _, _, t) -> t) v.v_phases) in
  let fleet_cpu, coord_cpu, busy, lines, exec_share =
    match v.v_fleet with
    | None -> (0.0, 0.0, 0.0, 0.0, 0.0)
    | Some r ->
        ( r.r_worker_cpu,
          r.r_coord_cpu,
          r.r_worker_cpu /. (fl fleet_workers *. r.r_window),
          fl r.r_stderr_lines,
          exec_total /. r.r_worker_cpu )
  in
  [ ("campaign.self_s", self, "s");
    ("campaign.batches", fl (List.length v.v_batches), "count");
    ("dispatch.batch_ms_p50", Stats.median (ms v.v_batches), "ms");
    ("dispatch.batch_ms_p99", Stats.percentile (ms v.v_batches) 0.99, "ms");
    ("dispatch.idle_share", 1.0 -. (exec_total /. (fl v.v_lanes *. batch_total)), "ratio");
    ("executor.execute_s", exec_total, "s");
    ("executor.iter_ms_p50", Stats.median (ms v.v_execs), "ms");
    ("executor.iter_ms_p99", Stats.percentile (ms v.v_execs) 0.99, "ms");
    ("executor.phase1_s", p (fun (a, _, _, _) -> a), "s");
    ("executor.phase2_s", p (fun (_, b, _, _) -> b), "s");
    ("executor.phase3_s", p (fun (_, _, c, _) -> c), "s");
    ("executor.triggered_ratio", fl trig /. fl (max 1 (List.length v.v_phases)), "ratio");
    ("fleet.worker_cpu_s", fleet_cpu, "s");
    ("fleet.coordinator_cpu_s", coord_cpu, "s");
    ("fleet.worker_busy_share", busy, "ratio");
    ("fleet.worker_stderr_lines", lines, "count");
    (* Share of the workers' CPU their executors report as phase time;
       the rest is process start, codecs and heartbeats. *)
    ("fleet.executor_cpu_share", exec_share, "ratio");
    ("ladder.iteration_closure", closure, "ratio");
    (* The spans tile the campaign: any gap is a span gone missing. *)
    ("ladder.campaign_closure", (v.v_setup_in +. batch_total +. self) /. v.v_wall, "ratio") ]

(* Median over plans of executor-reported phase seconds ÷ execute span. *)
let iteration_closure tr cap =
  let exec = Hashtbl.create 1024 in
  List.iter
    (fun s -> Hashtbl.replace exec s.Trace.sp_iter (s.Trace.sp_t1 -. s.Trace.sp_t0))
    (Trace.named tr "executor.execute");
  Stats.median
    (List.filter_map
       (fun i ->
         match Hashtbl.find_opt exec i.Ladder.in_iter with
         | Some d when d > 0.0 ->
             let p1, p2, p3 = i.Ladder.in_phases in
             Some ((p1 +. p2 +. p3) /. d)
         | _ -> None)
       (Ladder.inputs cap))

(* Where the traced run writes its spans, under the working directory. *)
let spans_dir = ".perfbench"

let layer_metrics ~cli ~nproc ~rev ~name w ~seed ~seconds ~iterations =
  (* The ladder follows one campaign: the run's first. *)
  let opts = List.hd (campaign_options w ~seed ~iterations) in
  let chk = tally () in
  (* The fleet's plans and outcomes are the in-process ones byte for
     byte, so its ladder capture comes from its traced [--jobs 1]
     reference campaign; the other workloads capture from their own
     traced campaigns. *)
  let reference_run, fleet_capture =
    match w with
    | Fleet ->
        let ((r, _, _, _) as t) = local_traced Seq_derived opts in
        (Some r, Some t)
    | Par_jobs | Seq_derived | Seq_random -> (reference_run w opts, None)
  in
  let expected =
    expected_digest chk opts
      ?reference:(Option.map (fun r -> digest r.r_stats) reference_run)
      ()
  in
  let check = check chk expected in
  (* Untraced and traced campaigns alternate; the last traced one feeds
     the ladder. *)
  let plain = ref [] and traced = ref [] and last = ref None in
  let t_begin = now () in
  while now () -. t_begin < seconds || List.length !traced < 2 do
    let u = run_once ~cli w opts in
    check u;
    plain := iter_per_s u :: !plain;
    let r, result =
      match w with
      | Fleet ->
          let ((r, _, _, _) as t) = fleet_traced ~cli opts in
          (r, `Fleet t)
      | Seq_derived | Seq_random | Par_jobs ->
          let ((r, _, _, _) as t) = local_traced w opts in
          (r, `Local t)
    in
    check r;
    traced := iter_per_s r :: !traced;
    last := Some result
  done;
  let tr, cap, campaign =
    match (!last, fleet_capture) with
    | Some (`Local ((_, tr, cap, _) as t)), _ ->
        (tr, cap, campaign_metrics (local_view w t) ~closure:(iteration_closure tr cap))
    | Some (`Fleet ((_, tr, _, _) as t)), Some (_, ctr, cap, _) ->
        let v = fleet_view t (Trace.durations tr "dispatch.batch") in
        (tr, cap, campaign_metrics v ~closure:(iteration_closure ctr cap))
    | _ -> failwith "perfbench: no traced campaign ran"
  in
  let lad = Ladder.replay tr cap in
  if lad.Ladder.mismatches > 0 then chk.ok <- false;
  let codec = Ladder.codecs cap in
  let overhead = Stats.median !plain /. Stats.median !traced in
  (try Unix.mkdir spans_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spans_file =
    Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name seed)
  in
  Trace.write_jsonl spans_file tr;
  context ~w ~name ~seed ~iterations ~nproc ~rev
    [ ("campaign_seeds", Json.Arr [ Json.Int opts.Campaign.rng_seed ]);
      ("digests", Json.Arr [ Json.Str (Option.value ~default:"" !expected) ]);
      ("spans_file", Json.Str spans_file);
      ("traced_campaigns", Json.Int (List.length !traced));
      ("replay_mismatches", Json.Int lad.Ladder.mismatches);
      ("closure_tolerance", Json.Float Reference.closure_tolerance) ];
  print_result chk
    (campaign @ lad.Ladder.metrics @ codec
    @ [ ("trace.overhead", overhead, "ratio") ])

(* --- reference digests ----------------------------------------------------- *)

let record ~iterations seeds =
  List.iter
    (fun w ->
      List.iter
        (fun opts ->
          let r = local_run w opts in
          Printf.printf "    (%S, %d, %d, %S);\n%!"
            (match w with Seq_random -> "random" | _ -> "derived")
            iterations opts.Campaign.rng_seed (digest r.r_stats))
        (List.concat_map (fun seed -> campaign_options w ~seed ~iterations) seeds))
    [ Seq_derived; Seq_random ]

let () =
  let workload = ref "" and seed = ref 11 and seconds = ref 10.0 in
  let trace = ref 0 and iterations = ref 500 in
  let cli = ref "_build/default/bin/dejavuzz_cli.exe" in
  let nproc = ref 0 and rev = ref "unknown" in
  let record_seeds = ref "" and digest_seeds = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 11)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--iterations", Arg.Set_int iterations, "N iterations per campaign (default 500)");
      ("--cli", Arg.Set_string cli, "PATH dejavuzz CLI used as the fleet worker");
      ("--nproc", Arg.Set_int nproc, "N CPUs this process may use (for the context record)");
      ("--git-rev", Arg.Set_string rev, "REV source revision (for the context record)");
      ("--record", Arg.Set_string record_seeds, "SEEDS print the reference digests of these runs' campaigns (comma-separated run seeds)");
      ("--digests", Arg.Set_string digest_seeds, "SEEDS print the digest of a --jobs 1 seq-derived campaign per campaign seed (comma-separated)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seeds s = List.map int_of_string (String.split_on_char ',' s) in
  if !record_seeds <> "" then record ~iterations:!iterations (seeds !record_seeds)
  else if !digest_seeds <> "" then
    List.iter
      (fun seed ->
        let r = local_run Seq_derived (options Seq_derived ~seed ~iterations:!iterations) in
        print_endline (digest r.r_stats))
      (seeds !digest_seeds)
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    | Some w ->
        let nproc = if !nproc > 0 then !nproc else Parallel.available () in
        let run =
          if !trace = 0 then end_to_end else layer_metrics
        in
        run ~cli:!cli ~nproc ~rev:!rev ~name:!workload w ~seed:!seed
          ~seconds:!seconds ~iterations:!iterations
