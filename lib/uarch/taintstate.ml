module Policy = Dvz_ift.Policy
module Provenance = Dvz_ift.Provenance
module Etbl = Hashtbl.Make (Elem)

(* Dense element ids.  Each constructor owns a contiguous id range sized to
   its index space on the larger core preset, and the ranges follow
   [Elem.compare] order ([Pc] first, then by rank), so an ascending scan
   of the table visits tainted elements already sorted.  Indices outside
   their range — negative or truncated addresses, [Mem] past the modelled
   memory, B1's aliased addresses — live in a small fallback table. *)
let caps =
  let most f = max (f Config.boom_small) (f Config.xiangshan_minimal) in
  let caps = Array.make Elem.ranks 0 in
  List.iter
    (fun (e, n) -> caps.(Elem.rank e) <- n)
    Elem.
      [ (Pc, 1); (Areg 0, 32); (Sreg 0, 32);
        (Mem 0, Dvz_soc.Layout.mem_size / 8);
        (Dcache 0, most (fun c -> c.Config.dcache_lines));
        (Icache 0, most (fun c -> c.Config.icache_lines));
        (Lfb 0, most (fun c -> c.Config.lfb_entries));
        (Btb 0, most (fun c -> c.Config.btb_entries));
        (Bht 0, most (fun c -> c.Config.bht_entries));
        (Ras 0, most (fun c -> c.Config.ras_entries));
        (Loop 0, most (fun c -> c.Config.loop_entries));
        (Tlb 0, most (fun c -> c.Config.tlb_entries));
        (L2tlb 0, most (fun c -> c.Config.l2tlb_entries));
        (Rob 0, most (fun c -> c.Config.rob_entries));
        (Ldq 0, most (fun c -> c.Config.ldq_entries));
        (Stq 0, most (fun c -> c.Config.stq_entries)) ];
  caps

let bases =
  let b = Array.make Elem.ranks 0 in
  for r = 1 to Elem.ranks - 1 do b.(r) <- b.(r - 1) + caps.(r - 1) done;
  b

let dense_size = bases.(Elem.ranks - 1) + caps.(Elem.ranks - 1)

(* The element's dense id, or -1 when it belongs in the fallback table. *)
let dense_id e =
  let r = Elem.rank e and i = Elem.index e in
  if i >= 0 && i < Array.unsafe_get caps r then Array.unsafe_get bases r + i
  else -1

type t = {
  mode : Policy.mode;
  taints : Bytes.t;  (** one byte per dense id; ['\001'] = tainted *)
  extra : unit Etbl.t;  (** tainted elements outside the dense ranges *)
  rank_count : int array;  (** tainted dense ids per rank *)
  mutable count : int;  (** tainted elements, dense and fallback *)
  saved : bool Etbl.t;  (** window-open checkpoint *)
  by_module : int array;
      (** tainted-element counts per [Elem.module_names] entry, maintained
          on taint transitions: [tainted_by_module] is read once per
          logged slot *)
  odd_modules : (string, int) Hashtbl.t;
      (** counts for module tags outside [Elem.all_modules] (a banked
          element with a negative index) *)
  mutable bymod_cache : (string * int) list option;
      (** memoised [tainted_by_module] result, dropped on any taint
          transition: most logged slots see no transition, so the log
          shares one list instead of rebuilding it per slot *)
  prov : Provenance.t option;
}

let create ?provenance mode =
  { mode; taints = Bytes.make dense_size '\000'; extra = Etbl.create 8;
    rank_count = Array.make Elem.ranks 0; count = 0;
    saved = Etbl.create 64;
    by_module = Array.make (Array.length Elem.module_names) 0;
    odd_modules = Hashtbl.create 1; bymod_cache = None; prov = provenance }

let mode t = t.mode

let reset t =
  Bytes.fill t.taints 0 dense_size '\000';
  Etbl.reset t.extra;
  Array.fill t.rank_count 0 Elem.ranks 0;
  t.count <- 0;
  Etbl.reset t.saved;
  Array.fill t.by_module 0 (Array.length t.by_module) 0;
  Hashtbl.reset t.odd_modules;
  t.bymod_cache <- None

(* Bookkeeping shared by every 0↔1 transition: [delta] is +1 or -1. *)
let count_transition t e delta =
  t.count <- t.count + delta;
  t.bymod_cache <- None;
  let m = Elem.module_id e in
  if m >= 0 then t.by_module.(m) <- t.by_module.(m) + delta
  else
    let name = Elem.module_of e in
    match Hashtbl.find_opt t.odd_modules name with
    | Some n when n + delta <= 0 -> Hashtbl.remove t.odd_modules name
    | Some n -> Hashtbl.replace t.odd_modules name (n + delta)
    | None -> Hashtbl.replace t.odd_modules name delta

let set_tainted t e =
  let id = dense_id e in
  if id >= 0 then begin
    if Bytes.unsafe_get t.taints id = '\000' then begin
      Bytes.unsafe_set t.taints id '\001';
      let r = Elem.rank e in
      t.rank_count.(r) <- t.rank_count.(r) + 1;
      count_transition t e 1
    end
  end
  else if not (Etbl.mem t.extra e) then begin
    Etbl.replace t.extra e ();
    count_transition t e 1
  end

let clear_tainted t e =
  let id = dense_id e in
  if id >= 0 then begin
    if Bytes.unsafe_get t.taints id <> '\000' then begin
      Bytes.unsafe_set t.taints id '\000';
      let r = Elem.rank e in
      t.rank_count.(r) <- t.rank_count.(r) - 1;
      count_transition t e (-1)
    end
  end
  else if Etbl.mem t.extra e then begin
    Etbl.remove t.extra e;
    count_transition t e (-1)
  end

let is_tainted t e =
  let id = dense_id e in
  if id >= 0 then Bytes.unsafe_get t.taints id <> '\000'
  else Etbl.length t.extra > 0 && Etbl.mem t.extra e

let set t e v = if v then set_tainted t e else clear_tainted t e

(* Explicit recursion: a partial application such as [List.exists
   (is_tainted t)] would allocate a closure per call on the slot loop. *)
let rec any_tainted t = function
  | [] -> false
  | e :: rest -> is_tainted t e || any_tainted t rest

let rec set_all_tainted t = function
  | [] -> ()
  | e :: rest ->
      set_tainted t e;
      set_all_tainted t rest

(* Provenance labels for tainted predecessors, deduplicated so paired
   slots ([sa @ sb]) don't yield doubled source lists. *)
let tainted_src_labels t srcs =
  List.sort_uniq compare
    (List.filter_map
       (fun e -> if is_tainted t e then Some (Elem.to_string e) else None)
       srcs)

let write_dst t dst incoming =
  match t.mode with
  | Policy.Cellift -> if incoming then set_tainted t dst
  | Policy.Diffift -> set t dst incoming

(* [write] and [ctrl] take the sources (and touched state) of both
   instances of a paired event; an unpaired event passes [[]] for the
   second.  Only the provenance recorder needs the lists joined. *)
let write t ~diverged dst sa sb =
  (match t.prov with
  | None -> ()
  | Some p ->
      let labels = tainted_src_labels t (sa @ sb) in
      let incoming = labels <> [] || diverged in
      if incoming && not (is_tainted t dst) then
        let kind, labels =
          if labels <> [] then (Provenance.Data, labels)
          else (Provenance.Divergence, [])
        in
        Provenance.record p ~dst:(Elem.to_string dst) ~srcs:labels kind);
  write_dst t dst (any_tainted t sa || any_tainted t sb || diverged)

let ctrl t ~kind ~diverged ~diff sa sb ta tb =
  let st = any_tainted t sa || any_tainted t sb || diverged in
  let propagate =
    st && (match t.mode with Policy.Cellift -> true | Policy.Diffift -> diff)
  in
  if propagate || (diverged && st) then
    match t.prov with
    | None ->
        set_all_tainted t ta;
        set_all_tainted t tb
    | Some p ->
        let labels = tainted_src_labels t (sa @ sb) in
        let kind, labels =
          if labels <> [] then
            (Provenance.Ctrl (Effect.ctrl_kind_name kind), labels)
          else (Provenance.Divergence, [])
        in
        List.iter
          (fun e ->
            if not (is_tainted t e) then
              Provenance.record p ~dst:(Elem.to_string e) ~srcs:labels kind;
            set_tainted t e)
          (ta @ tb)

let copy_regs_to_spec t =
  for i = 0 to 31 do
    let v = is_tainted t (Elem.Areg i) in
    (match t.prov with
    | Some p when v && not (is_tainted t (Elem.Sreg i)) ->
        Provenance.record p
          ~dst:(Elem.to_string (Elem.Sreg i))
          ~srcs:[ Elem.to_string (Elem.Areg i) ]
          Provenance.Data
    | _ -> ());
    set t (Elem.Sreg i) v
  done

let snapshot t elems =
  Etbl.reset t.saved;
  List.iter (fun e -> Etbl.replace t.saved e (is_tainted t e)) elems

let restore t elems =
  List.iter
    (fun e ->
      match Etbl.find_opt t.saved e with
      | Some v ->
          (match t.prov with
          | Some p when v && not (is_tainted t e) ->
              (* A squash re-establishing taint from the checkpoint: the
                 element is its own predecessor, one taint epoch earlier. *)
              Provenance.record p ~dst:(Elem.to_string e)
                ~srcs:[ Elem.to_string e ] Provenance.Restore
          | _ -> ());
          set t e v
      | None -> ())
    elems

(* An event present in one instance but not the other (e.g. a cache fill on
   a hit/miss divergence) takes the same path as in a single-instance
   slot: the difference itself is secret-dependent, so a control decision
   counts as differing and its touched state taints — but only if the
   decision's sources are secret-derived or the instruction streams have
   diverged; an incidental bookkeeping write (say, a predictor update with
   clean operands) must not taint just because a neighbouring cache fill
   was asymmetric. *)
let apply_event t ~diverged = function
  | Effect.Write (dst, srcs) -> write t ~diverged dst srcs []
  | Effect.Copy_regs_to_spec -> copy_regs_to_spec t
  | Effect.Snapshot elems -> snapshot t elems
  | Effect.Restore elems -> restore t elems
  | Effect.Ctrl { kind; srcs; touched; _ } ->
      ctrl t ~kind ~diverged ~diff:true srcs [] touched []

let apply_event_pair t ~diverged ea eb =
  match (ea, eb) with
  | ( Effect.Ctrl { kind = ka; value = va; srcs = sa; touched = ta },
      Effect.Ctrl { kind = kb; value = vb; srcs = sb; touched = tb } )
    when ka = kb ->
      ctrl t ~kind:ka ~diverged ~diff:(va <> vb || diverged) sa sb ta tb
  | Effect.Write (da, sa), Effect.Write (db, sb) when Elem.equal da db ->
      write t ~diverged da sa sb
  | _ ->
      apply_event t ~diverged ea;
      apply_event t ~diverged eb

let rec apply_events t ~diverged ea eb =
  match (ea, eb) with
  | [], [] -> ()
  | e :: rest, [] | [], e :: rest ->
      apply_event t ~diverged e;
      apply_events t ~diverged rest []
  | a :: ra, b :: rb ->
      apply_event_pair t ~diverged a b;
      apply_events t ~diverged ra rb

let apply_pair t sa sb =
  match (sa, sb) with
  | None, None -> ()
  | Some s, None | None, Some s ->
      apply_events t ~diverged:true s.Effect.sl_events []
  | Some a, Some b ->
      let diverged = a.Effect.sl_pc <> b.Effect.sl_pc in
      apply_events t ~diverged a.Effect.sl_events b.Effect.sl_events

let tainted_count t = t.count

let tainted_elems t =
  let acc = ref [] in
  for r = 0 to Elem.ranks - 1 do
    (* Scan a rank only until its count is found, skipping clean 8-byte
       stretches of the (mostly clean) [Mem] range a word at a time. *)
    let left = ref t.rank_count.(r) and i = ref 0 in
    let base = bases.(r) and cap = caps.(r) in
    while !left > 0 do
      if !i + 8 <= cap && Bytes.get_int64_ne t.taints (base + !i) = 0L then
        i := !i + 8
      else begin
        if Bytes.get t.taints (base + !i) <> '\000' then begin
          acc := Elem.of_rank r !i :: !acc;
          decr left
        end;
        incr i
      end
    done
  done;
  let dense = List.rev !acc in
  if Etbl.length t.extra = 0 then dense
  else
    List.merge Elem.compare dense
      (List.sort Elem.compare (Etbl.fold (fun e () l -> e :: l) t.extra []))

let tainted_by_module t =
  match t.bymod_cache with
  | Some l -> l
  | None ->
      let l = ref [] in
      for m = Array.length t.by_module - 1 downto 0 do
        if t.by_module.(m) > 0 then
          l := (Elem.module_names.(m), t.by_module.(m)) :: !l
      done;
      let l =
        if Hashtbl.length t.odd_modules = 0 then !l
        else
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.odd_modules !l)
      in
      t.bymod_cache <- Some l;
      l
