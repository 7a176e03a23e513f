module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile

let m_tasks =
  Metrics.counter Metrics.default
    ~help:"Tasks executed by Parallel.map across all domains"
    "dvz_parallel_tasks_total"

(* Per-domain task counters, memoised: the registry lookup (name
   formatting + mutex + hashtable probe) happens once per index for the
   process lifetime instead of once per [map] call, keeping it out of
   the batch hot path. *)
let domain_counters : (int, Metrics.counter) Hashtbl.t = Hashtbl.create 8
let domain_counters_mutex = Mutex.create ()

let domain_counter idx =
  Mutex.lock domain_counters_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock domain_counters_mutex)
    (fun () ->
      match Hashtbl.find_opt domain_counters idx with
      | Some c -> c
      | None ->
          let c =
            Metrics.counter Metrics.default
              ~help:"Tasks executed by one Parallel.map worker domain (0 = caller)"
              (Printf.sprintf "dvz_parallel_tasks_domain_%d" idx)
          in
          Hashtbl.replace domain_counters idx c;
          c)

(* Which worker slot the current domain occupies inside a [map] (0 for
   the caller and outside any map).  Saved/restored around nested maps
   so an inner map on the caller's domain does not clobber the index an
   outer map assigned it. *)
let worker_key = Domain.DLS.new_key (fun () -> 0)
let worker_index () = Domain.DLS.get worker_key

let available () = Domain.recommended_domain_count ()

(* Requested lanes → lanes actually used: at least 1, never more than the
   hardware offers.  Oversubscribing domains is strictly harmful for this
   workload (CPU-bound tasks timeslice against each other), and was one of
   the constant factors behind the recorded 0.25x jobs=4 scaling on a
   1-domain box.  The clamp is announced once per process on stderr so
   campaigns stay byte-identical on stdout/events/checkpoints. *)
let clamp_noted = Atomic.make false

let effective_lanes requested =
  let avail = available () in
  let eff = max 1 (min requested avail) in
  if eff < requested && not (Atomic.exchange clamp_noted true) then
    Printf.eprintf
      "dejavuzz: requested %d lanes but only %d domain%s available; using %d\n%!"
      requested avail
      (if avail = 1 then " is" else "s are")
      eff;
  eff

(* Capped exponential backoff: the delay schedule of the fleet
   coordinator's worker respawns. *)
let backoff ?(base = 0.05) ?(factor = 2.0) ?(cap = 30.0) k =
  if k < 1 then invalid_arg "Parallel.backoff: attempt index must be >= 1";
  let d = base *. (factor ** float_of_int (k - 1)) in
  Float.min cap d

let map ?domains f xs =
  let n = List.length xs in
  (* [~domains:N] means N *total* lanes (the caller's domain included), so
     [--jobs 4] executes on exactly 4 lanes — the previous semantics spawned
     [min N (n-1)] extra domains on top of the caller, making jobs=4 run on
     5 lanes and oversubscribe small boxes. *)
  let lanes =
    match domains with
    | Some d -> if d < 1 then d else effective_lanes d
    | None -> effective_lanes (available ())
  in
  if lanes < 2 || n <= 1 then begin
    (* The caller runs every task itself, so it is slot 0 of this map even
       when it is a worker of an enclosing one: a nested campaign sizes its
       per-slot arrays from its own lane count. *)
    let saved = Domain.DLS.get worker_key in
    Domain.DLS.set worker_key 0;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set worker_key saved)
      (fun () ->
        let m_dom = domain_counter 0 in
        List.map
          (fun x ->
            Metrics.incr m_tasks;
            Metrics.incr m_dom;
            f x)
          xs)
  end
  else begin
    let lanes = min lanes n in
    let arr = Array.of_list xs in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    (* Self-scheduled chunked claiming: each [fetch_and_add] claims [chunk]
       consecutive indices, cutting contention on [next] while staying
       fine-grained enough (≥ 4 claims per lane on an even split) that one
       slow task — a timeout, a deep transient window — doesn't leave the
       other lanes idle behind a static partition. *)
    let chunk = max 1 (n / (lanes * 4)) in
    let worker idx () =
      let saved = Domain.DLS.get worker_key in
      Domain.DLS.set worker_key idx;
      (* Mirror the worker slot into the profiler's track id so region
         events from this domain land on a per-worker trace track. *)
      let saved_tid = Profile.tid () in
      Profile.set_tid idx;
      Fun.protect
        ~finally:(fun () ->
          Profile.set_tid saved_tid;
          Domain.DLS.set worker_key saved)
        (fun () ->
          let m_dom = domain_counter idx in
          let rec go () =
            let lo = Atomic.fetch_and_add next chunk in
            if lo < n then begin
              let hi = min n (lo + chunk) - 1 in
              for i = lo to hi do
                Metrics.incr m_tasks;
                Metrics.incr m_dom;
                match f arr.(i) with
                | v -> results.(i) <- Some v
                | exception e ->
                    (* Record instead of dying: the domain keeps draining
                       tasks so Domain.join never deadlocks, and the caller
                       re-raises the first failure with its real
                       backtrace. *)
                    errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
              done;
              go ()
            end
          in
          go ())
    in
    let spawned =
      if Profile.armed () then
        Profile.wrap "parallel/dispatch" (fun () ->
            List.init (lanes - 1) (fun i -> Domain.spawn (worker (i + 1))))
      else List.init (lanes - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    if Profile.armed () then
      Profile.wrap "parallel/drain" (fun () -> List.iter Domain.join spawned)
    else List.iter Domain.join spawned;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None -> assert false (* every slot has a result or an error *))
         results)
  end
