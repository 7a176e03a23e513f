(** Domain-based parallel map with worker supervision.

    The paper's fuzzing manager "employs a multi-threaded design, allowing
    multiple RTL simulation instances to run in parallel" (§5); campaigns
    and experiment trials here are independent deterministic computations,
    so they parallelise with OCaml 5 domains without shared state.

    Workers are supervised: an exception inside [f] is captured with its
    backtrace, the worker keeps draining the remaining tasks (so joins
    never deadlock), and the first failure — by task index — is re-raised
    in the caller with the original exception and backtrace. *)

val backoff : ?base:float -> ?factor:float -> ?cap:float -> int -> float
(** [backoff k] is the delay (seconds) before attempt [k + 1]: a capped
    exponential [min cap (base *. factor ** (k - 1))] with [base = 0.05],
    [factor = 2.0] and [cap = 30.0] by default.  The fleet
    coordinator's worker respawns draw from it.  Raises
    [Invalid_argument] when [k < 1]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] evaluates [f] on every element across [domains] {e total}
    lanes — the caller's domain plus [domains - 1] spawned ones — so
    [~domains:4] executes on exactly 4 lanes.  [domains] defaults to
    [available ()] and is clamped to it (see {!effective_lanes}); the
    clamp is announced once per process on stderr.  Tasks are claimed
    self-scheduled in chunks (several indices per atomic claim, at least
    4 claims per lane), so uneven task costs don't serialise a batch and
    the claim counter isn't a contention point.  Results preserve order.
    Falls back to sequential evaluation when the effective lane count is
    1, when [domains < 1], or when the list is a singleton.  If any task
    fails, the failure with the lowest task index is re-raised
    in the caller, preserving its constructor, argument and backtrace. *)

val worker_index : unit -> int
(** The worker slot the calling domain occupies inside the innermost
    active {!map} on this domain: 0 for the caller,
    [1..effective lanes - 1] for spawned workers, and 0 outside any map.
    Lets per-task code (e.g. the campaign executor) attribute work to
    per-domain counters without threading an index through every
    callback. *)

val available : unit -> int
(** Domains the runtime recommends. *)

val effective_lanes : int -> int
(** [effective_lanes requested] is the lane count {!map} (and the
    campaign engine) actually uses for a request of [requested] total
    lanes: [max 1 (min requested (available ()))].  The first time a
    request is clamped down, a note goes to stderr (never stdout — the
    determinism contract diffs stdout, event logs and checkpoints). *)
