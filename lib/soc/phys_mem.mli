(** Byte-addressed physical memory with page-granular permissions.

    Accesses outside the modelled range raise access faults; accesses to a
    page whose [present] bit is clear raise page faults; permission
    mismatches (user access to a machine-only page, store to a read-only
    page, fetch from a non-executable page) raise access faults.  This is
    the permission surface the Meltdown-class trigger types of Table 3
    exercise. *)

type t

val create : unit -> t
(** A zeroed memory of {!Layout.mem_size} bytes, all pages [Perm.rwx]. *)

val copy : t -> t

val clear : t -> unit
(** Return the memory to its {!create} state in place: all bytes zero, all
    pages [Perm.rwx].  Used by the executor instance pool to re-arm a core
    without reallocating the backing store. *)

val set_perm : t -> int -> Perm.t -> unit
(** [set_perm t addr p] sets the permission of the page containing [addr]. *)

val perm_of : t -> int -> Perm.t
(** Permission of the page containing [addr]; {!Perm.none} if out of range. *)

val read_byte : t -> int -> int
(** Backdoor read (no permission check).  Out-of-range reads return 0. *)

val write_byte : t -> int -> int -> unit
(** Backdoor write; out-of-range writes are ignored. *)

val read : t -> addr:int -> size:int -> int
(** Backdoor little-endian read of [size] (≤ 7) bytes. *)

val write : t -> addr:int -> size:int -> int -> unit
(** Backdoor little-endian write. *)

val blit : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit
(** [blit t ~addr src ~off ~len] copies [len] bytes of [src] from [off]
    into memory at [addr] (no permission check).  Bytes falling outside
    the modelled range are ignored, exactly as with {!write}. *)

val write_words : t -> int -> int array -> unit
(** [write_words t addr ws] stores 32-bit words consecutively from [addr];
    the common way of loading assembled code. *)

val checked_load :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> size:int ->
  (int, Dvz_isa.Trap.cause) result

val checked_store :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> size:int -> value:int ->
  (unit, Dvz_isa.Trap.cause) result

val checked_fetch :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> (int, Dvz_isa.Trap.cause) result

val golden_memory : t -> Dvz_isa.Golden.memory
(** The checked accessors packaged for {!Dvz_isa.Golden.create}. *)
