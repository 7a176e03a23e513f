module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile

let m_tasks =
  Metrics.counter Metrics.default
    ~help:"Tasks executed by Parallel.map across all domains"
    "dvz_parallel_tasks_total"

(* Per-domain task counters, memoised: the registry lookup (name
   formatting + mutex + hashtable probe) happens once per index for the
   process lifetime instead of once per [run] call, keeping it out of
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

(* Which worker slot the current domain occupies inside a [run] (0 for
   the caller and outside any run).  Saved/restored around nested runs
   so an inner run on the caller's domain does not clobber the index an
   outer run assigned it. *)
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

(* A campaign-scoped pool: [lanes - 1] worker domains, spawned on the
   first [run] that needs them and parked on [mutex]/[wake] between runs.
   A parked worker keeps its domain — and with it every [Domain.DLS]
   slot, the testbench pool above all — warm for the next batch.  Each
   [run] posts one lane function as a new [generation]; [pending] counts
   the workers still executing it and [idle] tells the caller when it
   drops to zero. *)
type pool = {
  lanes : int;
  mutex : Mutex.t;
  wake : Condition.t;
  idle : Condition.t;
  mutable generation : int;
  mutable job : int -> unit;
  mutable pending : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let rec park p idx seen =
  Mutex.lock p.mutex;
  while p.generation = seen && not p.stop do
    Condition.wait p.wake p.mutex
  done;
  let stop = p.stop and gen = p.generation and job = p.job in
  Mutex.unlock p.mutex;
  if not stop then begin
    (* A lane function records task failures instead of raising, so
       [pending] always drains. *)
    job idx;
    Mutex.lock p.mutex;
    p.pending <- p.pending - 1;
    if p.pending = 0 then Condition.signal p.idle;
    Mutex.unlock p.mutex;
    park p idx gen
  end

let post p job =
  (* Lazy spawn, one domain at a time so a failed spawn leaves [workers]
     exact.  A worker starts parked on the current generation: it joins
     the next post, never a stale job. *)
  while List.length p.workers < p.lanes - 1 do
    let idx = List.length p.workers + 1 and seen = p.generation in
    p.workers <- Domain.spawn (fun () -> park p idx seen) :: p.workers
  done;
  Mutex.lock p.mutex;
  p.job <- job;
  p.pending <- p.lanes - 1;
  p.generation <- p.generation + 1;
  Condition.broadcast p.wake;
  Mutex.unlock p.mutex

let drain p =
  Mutex.lock p.mutex;
  while p.pending > 0 do
    Condition.wait p.idle p.mutex
  done;
  (* Drop the finished job so a parked pool holds no batch's tasks or
     results alive. *)
  p.job <- ignore;
  Mutex.unlock p.mutex

let shutdown p =
  Mutex.lock p.mutex;
  p.stop <- true;
  Condition.broadcast p.wake;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.workers

let with_pool ?domains body =
  (* [~domains:N] means N *total* lanes, the caller's domain included, so
     [--jobs 4] executes on exactly 4 lanes. *)
  let lanes = effective_lanes (Option.value domains ~default:(available ())) in
  let p =
    { lanes; mutex = Mutex.create (); wake = Condition.create ();
      idle = Condition.create (); generation = 0; job = ignore; pending = 0;
      stop = false; workers = [] }
  in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> body p)

let profiled name f = if Profile.armed () then Profile.wrap name f else f ()

let run p f xs =
  let n = List.length xs in
  if p.lanes < 2 || n <= 1 then begin
    (* The caller runs every task itself, so it is slot 0 of this run even
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
    let arr = Array.of_list xs in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    (* Self-scheduled chunked claiming: each [fetch_and_add] claims [chunk]
       consecutive indices, cutting contention on [next] while staying
       fine-grained enough (≥ 4 claims per lane on an even split) that one
       slow task — a timeout, a deep transient window — doesn't leave the
       other lanes idle behind a static partition. *)
    let chunk = max 1 (n / (p.lanes * 4)) in
    let lane idx =
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
                    (* Record instead of dying: the lane keeps draining
                       tasks so the run always completes, and the caller
                       re-raises the first failure with its real
                       backtrace. *)
                    errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
              done;
              go ()
            end
          in
          go ())
    in
    profiled "parallel/dispatch" (fun () -> post p lane);
    lane 0;
    profiled "parallel/drain" (fun () -> drain p);
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

let map ?domains f xs = with_pool ?domains (fun p -> run p f xs)
