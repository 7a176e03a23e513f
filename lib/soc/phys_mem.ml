open Dvz_isa

type t = { data : Bytes.t; perms : Perm.t array }

let page_of addr = addr / Layout.page_size

let create () =
  { data = Bytes.make Layout.mem_size '\000';
    perms = Array.make (Layout.mem_size / Layout.page_size) Perm.rwx }

let copy t = { data = Bytes.copy t.data; perms = Array.copy t.perms }

let clear t =
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  Array.fill t.perms 0 (Array.length t.perms) Perm.rwx

let in_range t addr = addr >= 0 && addr < Bytes.length t.data

let set_perm t addr p =
  if not (in_range t addr) then invalid_arg "Phys_mem.set_perm: out of range";
  t.perms.(page_of addr) <- p

let perm_of t addr = if in_range t addr then t.perms.(page_of addr) else Perm.none

let read_byte t addr =
  if in_range t addr then Char.code (Bytes.get t.data addr) else 0

let write_byte t addr v =
  if in_range t addr then Bytes.set t.data addr (Char.chr (v land 0xFF))

(* The byte loops below are the semantic reference: out-of-range bytes
   read as zero / drop silently, and int values are (de)composed through
   their low [8*size] bits — for [size = 8] that means the 63-bit native
   int pattern with bit 63 masked off.  The word-sized fast paths must
   reproduce those bit patterns exactly (simulated memory feeds
   [Core.state_hash] and the checkpoint stream, both byte-identity
   sensitive), hence the [land] masks around the [Bytes] primitives. *)

let read_slow t ~addr ~size =
  let rec go i acc =
    if i = size then acc else go (i + 1) (acc lor (read_byte t (addr + i) lsl (8 * i)))
  in
  go 0 0

let read t ~addr ~size =
  if addr >= 0 && size > 0 && addr + size <= Bytes.length t.data then
    match size with
    | 8 -> Int64.to_int (Bytes.get_int64_le t.data addr)
    | 4 -> Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF
    | 2 -> Bytes.get_uint16_le t.data addr
    | 1 -> Bytes.get_uint8 t.data addr
    | _ -> read_slow t ~addr ~size
  else read_slow t ~addr ~size

let write_slow t ~addr ~size v =
  for i = 0 to size - 1 do
    write_byte t (addr + i) ((v lsr (8 * i)) land 0xFF)
  done

let write t ~addr ~size v =
  if addr >= 0 && size > 0 && addr + size <= Bytes.length t.data then
    match size with
    | 8 ->
        (* byte 7's top bit is always written as 0: [v lsr 56] of a 63-bit
           int has no bit 7 *)
        Bytes.set_int64_le t.data addr
          (Int64.logand (Int64.of_int v) Int64.max_int)
    | 4 -> Bytes.set_int32_le t.data addr (Int32.of_int v)
    | 2 -> Bytes.set_uint16_le t.data addr (v land 0xFFFF)
    | 1 -> Bytes.set_uint8 t.data addr (v land 0xFF)
    | _ -> write_slow t ~addr ~size v
  else write_slow t ~addr ~size v

let blit t ~addr src ~off ~len =
  (* Clip to the modelled range: the bytes [write] would drop are dropped. *)
  let lo = max addr 0 and hi = min (addr + len) (Bytes.length t.data) in
  if lo < hi then Bytes.blit src (off + lo - addr) t.data lo (hi - lo)

let write_words t addr ws =
  Array.iteri (fun i w -> write t ~addr:(addr + (4 * i)) ~size:4 w) ws

let check t ~priv ~addr ~size ~(kind : [ `Load | `Store | `Fetch ]) =
  let fault =
    match kind with
    | `Load -> Trap.Load_access_fault
    | `Store -> Trap.Store_access_fault
    | `Fetch -> Trap.Fetch_access_fault
  in
  let page_fault =
    match kind with
    | `Load -> Trap.Load_page_fault
    | `Store -> Trap.Store_page_fault
    | `Fetch -> Trap.Fetch_access_fault
  in
  if not (in_range t addr && in_range t (addr + size - 1)) then Error fault
  else
    let p = t.perms.(page_of addr) in
    if not p.Perm.present then Error page_fault
    else if priv = Golden.User && not p.Perm.user then
      (* Non-present pages fault above; a privilege violation is a fault of
         the access kind, as with PMP on the modelled cores. *)
      Error fault
    else
      let allowed =
        match kind with
        | `Load -> p.Perm.read
        | `Store -> p.Perm.write
        | `Fetch -> p.Perm.exec
      in
      if allowed then Ok () else Error fault

let checked_load t ~priv ~addr ~size =
  match check t ~priv ~addr ~size ~kind:`Load with
  | Error e -> Error e
  | Ok () -> Ok (read t ~addr ~size)

let checked_store t ~priv ~addr ~size ~value =
  match check t ~priv ~addr ~size ~kind:`Store with
  | Error e -> Error e
  | Ok () ->
      write t ~addr ~size value;
      Ok ()

let checked_fetch t ~priv ~addr =
  match check t ~priv ~addr ~size:4 ~kind:`Fetch with
  | Error e -> Error e
  | Ok () -> Ok (read t ~addr ~size:4)

let golden_memory t =
  { Golden.load = (fun ~priv ~addr ~size -> checked_load t ~priv ~addr ~size);
    Golden.store =
      (fun ~priv ~addr ~size ~value -> checked_store t ~priv ~addr ~size ~value);
    Golden.fetch = (fun ~priv ~addr -> checked_fetch t ~priv ~addr) }
