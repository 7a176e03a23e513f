(** Domain-based parallel map over a campaign-scoped worker pool.

    The paper's fuzzing manager "employs a multi-threaded design, allowing
    multiple RTL simulation instances to run in parallel" (§5); campaigns
    and experiment trials here are independent deterministic computations,
    so they parallelise with OCaml 5 domains without shared state.

    A {!pool} lives for one {!with_pool} scope — in practice one campaign.
    Its worker domains are spawned lazily by the first {!run} that needs
    more than one lane, park between runs (so their [Domain.DLS] state,
    the testbench pool above all, stays warm from batch to batch), and are
    joined when the scope ends, normally or by an exception.  There is
    deliberately no process-global pool: an idle parked domain still takes
    part in every stop-the-world collection, so a campaign's single-domain
    set-up would pay for workers it does not use yet.

    Workers are supervised: an exception inside a task is captured with
    its backtrace, the lane keeps draining the remaining tasks (so a run
    always completes), and the first failure — by task index — is
    re-raised in the caller with the original exception and backtrace. *)

val backoff : ?base:float -> ?factor:float -> ?cap:float -> int -> float
(** [backoff k] is the delay (seconds) before attempt [k + 1]: a capped
    exponential [min cap (base *. factor ** (k - 1))] with [base = 0.05],
    [factor = 2.0] and [cap = 30.0] by default.  The fleet
    coordinator's worker respawns draw from it.  Raises
    [Invalid_argument] when [k < 1]. *)

type pool
(** Up to [lanes - 1] worker domains plus the caller's, scoped to one
    {!with_pool}.  A pool is driven by the domain that opened it, one
    {!run} at a time. *)

val with_pool : ?domains:int -> (pool -> 'a) -> 'a
(** [with_pool ?domains body] runs [body] with a pool of [domains]
    {e total} lanes — the caller's domain plus [domains - 1] workers — so
    [~domains:4] executes on exactly 4 lanes.  [domains] defaults to
    [available ()] and is clamped to it (see {!effective_lanes}); the
    clamp is announced once per process on stderr.  No domain starts
    until a {!run} needs one.  Every worker is joined before
    [with_pool] returns or re-raises what [body] raised. *)

val run : pool -> ('a -> 'b) -> 'a list -> 'b list
(** [run pool f xs] evaluates [f] on every element across the pool's
    lanes, spawning its workers on first use.  Tasks are claimed
    self-scheduled in chunks (several indices per atomic claim, at least
    4 claims per lane), so uneven task costs don't serialise a batch and
    the claim counter isn't a contention point.  Results preserve order.
    Evaluates sequentially on the caller when the pool has one lane or
    the list is a singleton.  If any task fails, the failure with the
    lowest task index is re-raised in the caller, preserving its
    constructor, argument and backtrace; the pool stays usable.
    Profiled as [parallel/dispatch] (lazy spawn and post) and
    [parallel/drain] (waiting for the workers). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f xs] is [with_pool ?domains (fun p -> run p f xs)]: a
    one-shot pool, for fan-outs that run once (experiment trials). *)

val worker_index : unit -> int
(** The worker slot the calling domain occupies inside the innermost
    active {!run} on this domain: 0 for the caller,
    [1..effective lanes - 1] for pool workers, and 0 outside any run.
    Lets per-task code (e.g. the campaign executor) attribute work to
    per-domain counters without threading an index through every
    callback. *)

val available : unit -> int
(** Domains the runtime recommends. *)

val effective_lanes : int -> int
(** [effective_lanes requested] is the lane count {!with_pool} (and the
    campaign engine) actually uses for a request of [requested] total
    lanes: [max 1 (min requested (available ()))].  The first time a
    request is clamped down, a note goes to stderr (never stdout — the
    determinism contract diffs stdout, event logs and checkpoints). *)
