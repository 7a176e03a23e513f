(** The fleet's coordinator/worker wire protocol.

    Length-prefixed binary frames over pipes:

    {v
    offset  size
    0       4     magic "DVZF"
    4       1     protocol version
    5       1     message kind tag
    6       4     payload length   (big-endian)
    10      4     payload CRC-32   (big-endian)
    14      len   payload
    v}

    Opaque payloads ([Config]/[Assign]/[Outcome] carry {!Wire}-encoded
    values) travel as length-prefixed strings inside the frame payload;
    everything else is 8-byte big-endian integers.  Validation is
    layered — magic, version, kind, length cap, CRC, then per-kind field
    decoding — and each layer failing yields a distinct {!error} rather
    than an exception.  A {!reader} that has reported an error stays
    poisoned: a corrupt pipe has no trustworthy frame boundaries left,
    so the supervisor's only correct move is to drop the peer. *)

val version : int
val header_len : int
val max_payload : int

type msg =
  | Hello of { h_clock_us : int }
      (** first frame a worker sends: its wall clock in microseconds at
          send time — the coordinator aligns the worker's trace
          timestamps onto its own axis from the offset observed here.
          The slot and pid are known from the spawn. *)
  | Config of { c_payload : string }
      (** coordinator → worker: {!Wire.spec_to_string} of the campaign
          spec; sent once per worker lifetime, before any assignment *)
  | Assign of { a_epoch : int; a_payload : string }
      (** coordinator → worker: {!Wire.plans_to_string} of a shard of
          one batch's plans *)
  | Outcome of { o_worker : int; o_epoch : int; o_iteration : int;
                 o_payload : string }
      (** worker → coordinator: {!Wire.outcome_to_string} of one
          executed plan — the corpus-delta stream the fold consumes *)
  | Telemetry of { t_incarnation : int; t_payload : string }
      (** worker → coordinator, on the heartbeat cadence and at
          shutdown: {!Wire.telemetry_to_string} of the worker's
          cumulative metrics snapshot, profiler aggregates and
          trace-event delta.  Doubles as the heartbeat: any frame proves
          the worker alive.  [t_incarnation] is the spawn generation the
          coordinator launched this worker under; frames from a stale
          incarnation (a respawned slot's predecessor) are ignored at
          ingest. *)
  | Shutdown  (** coordinator → worker: flush telemetry and exit cleanly *)

val kind_name : msg -> string

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int
  | Crc_mismatch
  | Bad_payload of string  (** kind name whose fields failed to decode *)

val error_message : error -> string

val encode : msg -> string
(** The full frame (header + payload) for one message.  Raises
    [Invalid_argument] if the payload exceeds {!max_payload}. *)

type reader
(** Incremental frame reassembler for one pipe. *)

val reader : unit -> reader

val feed : reader -> bytes -> int -> int -> unit
(** [feed r buf off len] appends [len] bytes — partial reads and
    batched frames both welcome. *)

val feed_string : reader -> string -> unit

val next : reader -> (msg option, error) result
(** [Ok (Some msg)] peels one complete frame off the front (counted in
    [dvz_fleet_frames_total]); [Ok None] means more bytes are needed;
    [Error _] means the stream is corrupt and the reader is poisoned —
    every later call returns the same error. *)

val buffered : reader -> int
(** Bytes currently awaiting reassembly. *)
