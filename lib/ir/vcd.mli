(** Value Change Dump (VCD) waveform output for the circuit simulator.

    Developers pinpoint reported transient-execution bugs from simulation
    waveforms (§7: "developers usually only need simulation waveform files
    to pinpoint bugs"); this writer produces standard IEEE 1364 VCD that any
    waveform viewer opens.  Signals are grouped into scopes by their module
    tags, and a {!Dvz_ift}-driven dump can emit each signal's taint shadow
    as a sibling [_t] signal. *)

type t

val create :
  ?signals:Netlist.signal list ->
  out:Buffer.t ->
  Netlist.t ->
  t
(** [create ~out nl] prepares a dump of all named signals of [nl] (or the
    explicit [signals] list) into [out], writing the header immediately.
    Unnamed intermediate cells are omitted. *)

val sample : t -> (Netlist.signal -> int) -> unit
(** [sample t read] records the current cycle's values via [read] (e.g.
    [Sim.peek sim]); only changed signals are dumped, per the format. *)

val finish : t -> unit
(** Writes the final timestamp. *)

val dump_simulation :
  ?engine:Sim.engine -> Netlist.t -> cycles:int ->
  drive:(Sim.t -> int -> unit) -> string
(** Convenience: simulate [cycles] cycles of a fresh {!Sim} (built with
    [engine], default [`Compiled]), calling [drive sim cycle] before each
    evaluation, and return the VCD text.  Both engines produce identical
    waveforms. *)
