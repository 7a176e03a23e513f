(* Tests for Dvz_uarch: predictors, caches, TLB, LSU queues, the core
   model's transient-window behaviour, each planted bug, the taint engine,
   and the dual-DUT testbench. *)

open Dvz_isa
open Dvz_soc
module P = Dvz_uarch.Predictors
module Cache = Dvz_uarch.Cache
module Tlb = Dvz_uarch.Tlb
module Lsu = Dvz_uarch.Lsu
module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Elem = Dvz_uarch.Elem
module Eff = Dvz_uarch.Effect
module Taintstate = Dvz_uarch.Taintstate
module Dualcore = Dvz_uarch.Dualcore
module Packet = Dejavuzz.Packet
module Genlib = Dejavuzz.Genlib

(* --- predictors ---------------------------------------------------------- *)

let test_bht_saturation () =
  let bht = P.Bht.create ~entries:16 in
  Alcotest.(check bool) "default weakly untaken" false
    (P.Bht.predict_taken bht ~pc:0x1000);
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:true);
  Alcotest.(check bool) "one taken trains" true
    (P.Bht.predict_taken bht ~pc:0x1000);
  for _ = 1 to 5 do ignore (P.Bht.update bht ~pc:0x1000 ~taken:true) done;
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:false);
  Alcotest.(check bool) "saturated survives one untaken" true
    (P.Bht.predict_taken bht ~pc:0x1000)

let test_bht_aliasing () =
  let bht = P.Bht.create ~entries:16 in
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:true);
  (* 16 entries * 4 bytes = aliasing stride of 64 bytes *)
  Alcotest.(check bool) "aliased pc shares counter" true
    (P.Bht.predict_taken bht ~pc:(0x1000 + 64))

let test_btb_tagged_vs_untagged () =
  let tagged = P.Btb.create ~tagged:true ~entries:8 () in
  let untagged = P.Btb.create ~tagged:false ~entries:8 () in
  ignore (P.Btb.update tagged ~pc:0x1000 ~target:0x2000);
  ignore (P.Btb.update untagged ~pc:0x1000 ~target:0x2000);
  let alias = 0x1000 + (8 * 4) in
  Alcotest.(check bool) "tagged rejects alias" true
    (P.Btb.lookup tagged ~pc:alias = None);
  Alcotest.(check bool) "untagged hits alias" true
    (P.Btb.lookup untagged ~pc:alias = Some 0x2000);
  Alcotest.(check bool) "exact hit both" true
    (P.Btb.lookup tagged ~pc:0x1000 = Some 0x2000)

let test_ras_push_pop () =
  let ras = P.Ras.create ~entries:4 in
  Alcotest.(check bool) "empty pops nothing" true (P.Ras.pop ras = None);
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  Alcotest.(check int) "depth" 2 (P.Ras.depth ras);
  (match P.Ras.pop ras with
  | Some (a, _) -> Alcotest.(check int) "LIFO" 0x200 a
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "peek" true (P.Ras.peek ras = Some 0x100)

let test_ras_restore_full () =
  let ras = P.Ras.create ~entries:4 in
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  let snap = P.Ras.snapshot ras in
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.restore_full ras snap;
  Alcotest.(check bool) "top restored" true (P.Ras.peek ras = Some 0x200);
  (match P.Ras.pop ras with
  | Some _ -> ()
  | None -> Alcotest.fail "pop");
  Alcotest.(check bool) "deep entry restored" true (P.Ras.peek ras = Some 0x100)

let test_ras_restore_top_only_bug () =
  (* B2's mechanism: entries below the TOS keep transient overwrites. *)
  let ras = P.Ras.create ~entries:4 in
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  let snap = P.Ras.snapshot ras in
  (* transient execution: pop twice (down to empty), push two corruptions *)
  ignore (P.Ras.pop ras);
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD1);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.restore_top_only ras snap;
  Alcotest.(check bool) "top entry repaired" true (P.Ras.peek ras = Some 0x200);
  ignore (P.Ras.pop ras);
  (* the deeper entry was overwritten transiently and never repaired *)
  Alcotest.(check bool) "below-TOS entry corrupted" true
    (P.Ras.peek ras <> Some 0x100)

let test_ras_liveness () =
  let ras = P.Ras.create ~entries:4 in
  let s1 = P.Ras.push ras 0x100 in
  let s2 = P.Ras.push ras 0x200 in
  Alcotest.(check bool) "pushed slots live" true
    (P.Ras.live ras s1 && P.Ras.live ras s2);
  ignore (P.Ras.pop ras);
  Alcotest.(check bool) "popped slot dead" false (P.Ras.live ras s2)

let test_loop_predictor () =
  let loop = P.Loop.create ~entries:8 in
  Alcotest.(check bool) "enabled" true (P.Loop.enabled loop);
  (match P.Loop.update loop ~pc:0x1000 ~taken:true with
  | Some i ->
      ignore (P.Loop.update loop ~pc:0x1000 ~taken:true);
      Alcotest.(check int) "streak" 2 (P.Loop.streak loop i);
      ignore (P.Loop.update loop ~pc:0x1000 ~taken:false);
      Alcotest.(check int) "reset" 0 (P.Loop.streak loop i)
  | None -> Alcotest.fail "expected update");
  let disabled = P.Loop.create ~entries:0 in
  Alcotest.(check bool) "disabled" false (P.Loop.enabled disabled);
  Alcotest.(check bool) "disabled update" true
    (P.Loop.update disabled ~pc:0 ~taken:true = None)

let test_mdp () =
  let mdp = P.Mdp.create ~entries:16 in
  Alcotest.(check bool) "optimistic default" false
    (P.Mdp.predicts_alias mdp ~pc:0x1000);
  ignore (P.Mdp.train_alias mdp ~pc:0x1000);
  Alcotest.(check bool) "trained" true (P.Mdp.predicts_alias mdp ~pc:0x1000)

(* --- caches / TLB -------------------------------------------------------- *)

let test_cache_fill_and_hit () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  (match Cache.access c ~addr:0x1000 with
  | `Miss i ->
      Alcotest.(check bool) "line valid after fill" true (Cache.valid c i);
      Alcotest.(check int) "line addr" 0x1000 (Cache.line_addr c i)
  | `Hit _ -> Alcotest.fail "cold access must miss");
  match Cache.access c ~addr:0x1008 with
  | `Hit _ -> ()
  | `Miss _ -> Alcotest.fail "same line must hit"

let test_cache_conflict () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0x0);
  ignore (Cache.access c ~addr:(8 * 64));
  match Cache.access c ~addr:0x0 with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "conflicting line must have evicted"

let test_cache_flush () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0x1000);
  Cache.invalidate_all c;
  match Cache.access c ~addr:0x1000 with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "flush must clear"

let test_lfb_decoy () =
  let lfb = Cache.Lfb.create ~entries:4 in
  let s = Cache.Lfb.refill lfb ~data:0x5EC2E7 in
  Alcotest.(check int) "data parked" 0x5EC2E7 (Cache.Lfb.data lfb s);
  Alcotest.(check bool) "MSHR already invalid" false (Cache.Lfb.valid lfb s);
  let s2 = Cache.Lfb.refill lfb ~data:1 in
  Alcotest.(check bool) "round robin" true (s2 <> s)

let test_tlb () =
  let t = Tlb.create ~entries:8 ~page_bytes:4096 in
  (match Tlb.access t ~addr:0x5000 with
  | `Miss i -> Alcotest.(check bool) "filled" true (Tlb.valid t i)
  | _ -> Alcotest.fail "cold miss expected");
  (match Tlb.access t ~addr:0x5800 with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "same page hits");
  let disabled = Tlb.create ~entries:0 ~page_bytes:4096 in
  Alcotest.(check bool) "disabled" true (Tlb.access disabled ~addr:0 = `Disabled)

(* --- LSU queues ---------------------------------------------------------- *)

let test_stq_forwarding () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:42 ~resolve_at:0 ());
  (match Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 with
  | Some (_, v) -> Alcotest.(check int) "forwarded" 42 v
  | None -> Alcotest.fail "expected forward");
  Alcotest.(check bool) "size mismatch no forward" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:4 = None)

let test_stq_pending_alias () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore
    (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:42 ~old_data:7 ~resolve_at:10 ());
  (match Lsu.Stq.pending_alias stq ~now:5 ~addr:0x104 ~size:4 with
  | Some (_, old) -> Alcotest.(check int) "stale value" 7 old
  | None -> Alcotest.fail "overlap expected");
  Alcotest.(check bool) "resolved store no longer pending" true
    (Lsu.Stq.pending_alias stq ~now:20 ~addr:0x100 ~size:8 = None)

let test_stq_youngest_wins () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:1 ~resolve_at:0 ());
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:2 ~resolve_at:0 ());
  match Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 with
  | Some (_, v) -> Alcotest.(check int) "youngest" 2 v
  | None -> Alcotest.fail "forward"

let test_stq_snapshot_restore () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:1 ~resolve_at:0 ());
  let snap = Lsu.Stq.snapshot stq in
  ignore (Lsu.Stq.alloc stq ~addr:0x200 ~size:8 ~data:2 ~resolve_at:0 ());
  Lsu.Stq.restore stq snap;
  Alcotest.(check bool) "speculative entry dropped" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x200 ~size:8 = None);
  Alcotest.(check bool) "committed entry kept" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 <> None)

let test_ldq_basic () =
  let ldq = Lsu.Ldq.create ~entries:4 in
  let s = Lsu.Ldq.alloc ldq ~addr:0x100 in
  Alcotest.(check bool) "valid" true (Lsu.Ldq.valid ldq s);
  let snap = Lsu.Ldq.snapshot ldq in
  let s2 = Lsu.Ldq.alloc ldq ~addr:0x200 in
  Lsu.Ldq.restore ldq snap;
  Alcotest.(check bool) "restored" false (s2 <> s && Lsu.Ldq.valid ldq s2 && s2 > s)

(* --- core: stimulus helpers ---------------------------------------------- *)

let secret = Array.make Layout.secret_dwords 0x7E57

let stim_of_insns ?(tighten = false) ?(data = []) ?(perms = []) insns =
  let blob =
    { Swapmem.name = "t"; words = Array.of_list (List.map Encode.encode insns);
      is_transient = true }
  in
  { Core.st_swapmem = Swapmem.create ~blobs:[ blob ] ~schedule:[ 0 ];
    st_tighten_secret = tighten; st_secret = secret; st_data = data;
    st_perms = perms; st_max_slots = 2000 }

let run_core ?(cfg = Cfg.boom_small) stim =
  let core = Core.create cfg stim in
  ignore (Core.run core);
  core

let test_core_runs_linear_code () =
  let core =
    run_core
      (stim_of_insns
         [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
           Insn.Opi (Insn.Addi, Reg.t0, Reg.t0, 1); Insn.Ebreak ])
  in
  Alcotest.(check bool) "done" true (Core.is_done core);
  Alcotest.(check int) "3 committed" 3 (Core.committed core);
  Alcotest.(check bool) "no windows" true (Core.windows core = [])

let test_core_exception_window () =
  (* A faulting load opens a transient window over its successors. *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0);
        Insn.Opi (Insn.Addi, Reg.t2, Reg.zero, 1); Insn.Ebreak ]
  in
  let core =
    run_core (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check bool) "page-fault kind" true
        (w.Core.wr_kind = Eff.W_exception Trap.Load_page_fault);
      Alcotest.(check bool) "enqueued transients" true (w.Core.wr_enqueued > 0)
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

let test_core_boom_no_illegal_window () =
  let insns = [ Insn.Illegal 0xFFFFFFFF; Insn.Ebreak ] in
  let boom = run_core ~cfg:Cfg.boom_small (stim_of_insns insns) in
  Alcotest.(check bool) "BOOM: no window" true (Core.windows boom = []);
  let xs = run_core ~cfg:Cfg.xiangshan_minimal (stim_of_insns insns) in
  Alcotest.(check int) "XiangShan: window" 1 (List.length (Core.windows xs))

let test_core_branch_needs_training () =
  (* untrained: weakly-untaken prediction matches an untaken branch *)
  let insns =
    [ Insn.Branch (Insn.Ne, Reg.zero, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns insns) in
  Alcotest.(check bool) "no window untrained" true (Core.windows core = [])

let test_core_branch_window_after_training () =
  (* two blobs: training teaches taken; the transient blob's branch is
     architecturally untaken -> misprediction window *)
  let train =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
      Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let transient =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 0);
      Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let mk name insns is_transient =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient }
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:[ mk "train" train false; mk "tr" transient true ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = []; st_max_slots = 2000 }
  in
  let core = run_core stim in
  let windows =
    List.filter (fun w -> w.Core.wr_in_transient_blob) (Core.windows core)
  in
  match windows with
  | [ w ] ->
      Alcotest.(check bool) "branch mispred" true
        (w.Core.wr_kind = Eff.W_branch_mispred)
  | ws -> Alcotest.failf "expected 1 transient-blob window, got %d" (List.length ws)

let test_core_return_window () =
  (* a call pushes the RAS; pointing ra elsewhere makes the ret mispredict *)
  let insns =
    [ Insn.Jal (Reg.ra, 4);                    (* push 0x1004 *)
      Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
      (* overwrite ra with the ebreak's address, so the RAS stale entry
         (0x1004) disagrees with the actual target *)
    ]
    @ Genlib.li Reg.ra (Layout.swap_base + (4 * 6))
    @ [ Insn.Jalr (Reg.zero, Reg.ra, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns insns) in
  match List.filter (fun w -> w.Core.wr_kind = Eff.W_return_mispred)
          (Core.windows core) with
  | [ _ ] -> ()
  | ws -> Alcotest.failf "expected 1 return window, got %d" (List.length ws)

let test_core_disamb_window_and_stale_value () =
  let x = Layout.dedicated_base + 0x80 in
  let insns =
    Genlib.li Reg.t0 x
    @ Genlib.li Reg.t1 0x42
    @ [ Insn.Store (Insn.D, Reg.t1, Reg.t0, 0);
        Insn.Load (Insn.D, false, Reg.t2, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns ~data:[ (x, 0x99) ] insns) in
  (match List.filter (fun w -> w.Core.wr_kind = Eff.W_mem_disamb)
           (Core.windows core) with
  | [ _ ] -> ()
  | ws -> Alcotest.failf "expected 1 disamb window, got %d" (List.length ws));
  (* second run on the same pc would be MDP-trained; fresh core required *)
  Alcotest.(check bool) "done" true (Core.is_done core)

let test_core_window_bounded () =
  let cfg = Cfg.boom_small in
  let insns =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ]
    @ List.init 40 (fun _ -> Insn.nop)
  in
  let core =
    run_core ~cfg (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check int) "window bounded by config"
        cfg.Cfg.window_insns w.Core.wr_enqueued
  | _ -> Alcotest.fail "expected 1 window"

let test_core_transient_stores_dont_commit () =
  (* a store in the shadow of a faulting load must not reach memory *)
  let x = Layout.dedicated_base + 0x100 in
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.t1 x
    @ Genlib.li Reg.t2 0xBAD
    @ [ Insn.Load (Insn.D, false, Reg.a0, Reg.t0, 0);  (* faults: window *)
        Insn.Store (Insn.D, Reg.t2, Reg.t1, 0);        (* transient *)
        Insn.Ebreak ]
  in
  let core =
    run_core (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  Alcotest.(check int) "memory unchanged" 0
    (Phys_mem.read (Core.mem core) ~addr:x ~size:8)

let test_core_meltdown_forwarding_b1 () =
  (* B1 on XiangShan: an out-of-physical-range alias of the secret address
     is sampled by the load unit despite the access fault. *)
  let cfg = Cfg.xiangshan_minimal in
  let insns =
    Genlib.li_high Reg.t0 ~tmp:Reg.t2 ~low:Layout.secret_base ~shift:40
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core ~cfg (stim_of_insns insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "secret sampled" true w.Core.wr_secret_accessed;
      Alcotest.(check bool) "privilege bypass" true w.Core.wr_secret_fault
  | [] -> Alcotest.fail "expected a window"

let test_core_no_b1_on_boom () =
  let cfg = Cfg.boom_small in
  let insns =
    Genlib.li_high Reg.t0 ~tmp:Reg.t2 ~low:Layout.secret_base ~shift:40
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core ~cfg (stim_of_insns insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "no sampling without the bug" false
        w.Core.wr_secret_accessed
  | [] -> Alcotest.fail "expected a window"

let test_core_tighten_secret () =
  (* with tightening, the transient blob's secret load faults *)
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns ~tighten:true insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "meltdown-style fault" true w.Core.wr_secret_fault
  | [] -> Alcotest.fail "expected exception window"

let test_core_state_hash_secret_sensitivity () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run secret_val =
    let s = stim_of_insns insns in
    let s = { s with Core.st_secret = Array.make Layout.secret_dwords secret_val } in
    Core.state_hash (run_core s)
  in
  (* loading the secret into the cache leaves its value in reach of the
     hash: SpecDoctor's oracle flags exactly this *)
  Alcotest.(check bool) "hash is secret sensitive" true (run 1 <> run 2)

(* --- taint engine -------------------------------------------------------- *)

let slot ?(pc = 0) events =
  { Eff.sl_pc = pc; sl_insn = Insn.nop; sl_transient = false;
    sl_window_opened = None; sl_window_closed = false; sl_events = events;
    sl_cycles = 0; sl_committed = true; sl_swapped = false }

let test_taint_write_propagation () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let s = slot [ Eff.Write (Elem.Areg 5, [ Elem.Mem 1 ]) ] in
  Taintstate.apply_pair t (Some s) (Some s);
  Alcotest.(check bool) "propagated" true (Taintstate.is_tainted t (Elem.Areg 5));
  let s2 = slot [ Eff.Write (Elem.Areg 5, []) ] in
  Taintstate.apply_pair t (Some s2) (Some s2);
  Alcotest.(check bool) "clean overwrite clears (diffIFT)" false
    (Taintstate.is_tainted t (Elem.Areg 5))

let test_taint_cellift_monotone () =
  let t = Taintstate.create Dvz_ift.Policy.Cellift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let s = slot [ Eff.Write (Elem.Areg 5, [ Elem.Mem 1 ]) ] in
  Taintstate.apply_pair t (Some s) (Some s);
  let s2 = slot [ Eff.Write (Elem.Areg 5, []) ] in
  Taintstate.apply_pair t (Some s2) (Some s2);
  Alcotest.(check bool) "cellift taints only accumulate" true
    (Taintstate.is_tainted t (Elem.Areg 5))

let test_taint_ctrl_gating () =
  let mk value =
    slot
      [ Eff.Ctrl { kind = Eff.C_addr; value; srcs = [ Elem.Mem 1 ];
                   touched = [ Elem.Dcache 3 ] } ]
  in
  (* same decision in both instances: diffIFT suppresses *)
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  Taintstate.apply_pair t (Some (mk 7)) (Some (mk 7));
  Alcotest.(check bool) "suppressed" false (Taintstate.is_tainted t (Elem.Dcache 3));
  (* differing decisions: propagate *)
  Taintstate.apply_pair t (Some (mk 7)) (Some (mk 9));
  Alcotest.(check bool) "propagated" true (Taintstate.is_tainted t (Elem.Dcache 3));
  (* cellift propagates even when equal *)
  let tc = Taintstate.create Dvz_ift.Policy.Cellift in
  Taintstate.set_tainted tc (Elem.Mem 1);
  Taintstate.apply_pair tc (Some (mk 7)) (Some (mk 7));
  Alcotest.(check bool) "cellift ungated" true
    (Taintstate.is_tainted tc (Elem.Dcache 3))

let test_taint_ctrl_untainted_sources () =
  let mk value =
    slot
      [ Eff.Ctrl { kind = Eff.C_addr; value; srcs = [ Elem.Mem 1 ];
                   touched = [ Elem.Dcache 3 ] } ]
  in
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  (* sources untainted: even differing decisions must not taint *)
  Taintstate.apply_pair t (Some (mk 1)) (Some (mk 2));
  Alcotest.(check bool) "untainted sources never taint" false
    (Taintstate.is_tainted t (Elem.Dcache 3))

let test_taint_divergence () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let sa = slot ~pc:0x1000 [ Eff.Write (Elem.Sreg 3, []) ] in
  let sb = slot ~pc:0x2000 [ Eff.Write (Elem.Sreg 3, []) ] in
  Taintstate.apply_pair t (Some sa) (Some sb);
  Alcotest.(check bool) "divergent slots control-taint writes" true
    (Taintstate.is_tainted t (Elem.Sreg 3))

let test_taint_copy_and_restore () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Areg 4);
  let s = slot [ Eff.Copy_regs_to_spec ] in
  Taintstate.apply_pair t (Some s) (Some s);
  Alcotest.(check bool) "spec copy inherits" true
    (Taintstate.is_tainted t (Elem.Sreg 4));
  (* snapshot, taint, restore *)
  let snap = slot [ Eff.Snapshot [ Elem.Ras 1 ] ] in
  Taintstate.apply_pair t (Some snap) (Some snap);
  Taintstate.set_tainted t (Elem.Ras 1);
  let rest = slot [ Eff.Restore [ Elem.Ras 1 ] ] in
  Taintstate.apply_pair t (Some rest) (Some rest);
  Alcotest.(check bool) "restore clears transient taint" false
    (Taintstate.is_tainted t (Elem.Ras 1))

let test_taint_module_counts () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Dcache 0);
  Taintstate.set_tainted t (Elem.Dcache 4);
  Taintstate.set_tainted t (Elem.Ras 0);
  let counts = Taintstate.tainted_by_module t in
  Alcotest.(check bool) "dcache bank count 2" true
    (List.assoc_opt "lsu.dcache.bank0" counts = Some 2);
  Alcotest.(check bool) "ras count 1" true
    (List.assoc_opt "frontend.ras" counts = Some 1)

(* Reference model: the hash-table taint shadow the dense table replaced,
   kept here (without provenance) to check the two agree slot by slot. *)
module Ref_taint = struct
  type t = {
    cellift : bool;
    taints : (Elem.t, unit) Hashtbl.t;
    saved : (Elem.t, bool) Hashtbl.t;
  }

  let create cellift =
    { cellift; taints = Hashtbl.create 64; saved = Hashtbl.create 16 }

  let is_tainted t e = Hashtbl.mem t.taints e
  let set t e v = if v then Hashtbl.replace t.taints e () else Hashtbl.remove t.taints e
  let any t es = List.exists (is_tainted t) es

  let write t ~diverged dst srcs =
    let incoming = any t srcs || diverged in
    if t.cellift then (if incoming then set t dst true) else set t dst incoming

  let ctrl t ~diverged ~st ~diff touched =
    if (st && (t.cellift || diff)) || (diverged && st) then
      List.iter (fun e -> set t e true) touched

  let event t ~diverged = function
    | Eff.Write (dst, srcs) -> write t ~diverged dst srcs
    | Eff.Copy_regs_to_spec ->
        for i = 0 to 31 do set t (Elem.Sreg i) (is_tainted t (Elem.Areg i)) done
    | Eff.Snapshot es ->
        Hashtbl.reset t.saved;
        List.iter (fun e -> Hashtbl.replace t.saved e (is_tainted t e)) es
    | Eff.Restore es ->
        List.iter (fun e -> Option.iter (set t e) (Hashtbl.find_opt t.saved e)) es
    | Eff.Ctrl { srcs; touched; _ } ->
        ctrl t ~diverged ~st:(any t srcs || diverged) ~diff:true touched

  let rec events t ~diverged xs ys =
    match (xs, ys) with
    | [], [] -> ()
    | e :: rest, [] | [], e :: rest ->
        event t ~diverged e;
        events t ~diverged rest []
    | ( Eff.Ctrl { kind = ka; value = va; srcs = sa; touched = ta } :: ra,
        Eff.Ctrl { kind = kb; value = vb; srcs = sb; touched = tb } :: rb )
      when ka = kb ->
        ctrl t ~diverged ~st:(any t (sa @ sb) || diverged)
          ~diff:(va <> vb || diverged) (ta @ tb);
        events t ~diverged ra rb
    | Eff.Write (da, sa) :: ra, Eff.Write (db, sb) :: rb when da = db ->
        write t ~diverged da (sa @ sb);
        events t ~diverged ra rb
    | a :: ra, b :: rb ->
        event t ~diverged a;
        event t ~diverged b;
        events t ~diverged ra rb

  let apply_pair t sa sb =
    match (sa, sb) with
    | None, None -> ()
    | Some s, None | None, Some s ->
        List.iter (event t ~diverged:true) s.Eff.sl_events
    | Some a, Some b ->
        events t ~diverged:(a.Eff.sl_pc <> b.Eff.sl_pc) a.Eff.sl_events
          b.Eff.sl_events

  let elems t = List.sort compare (Hashtbl.fold (fun e () l -> e :: l) t.taints [])

  let by_module t =
    let m = Hashtbl.create 16 in
    Hashtbl.iter
      (fun e () ->
        let k = Elem.module_of e in
        Hashtbl.replace m k (1 + Option.value ~default:0 (Hashtbl.find_opt m k)))
      t.taints;
    List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) m [])
end

(* Elements from a small pool, so writes, clears and restores collide:
   every constructor, with in-range indices, negative ones (a negative
   address, a banked tag outside the module universe) and [Mem] indices
   past the modelled memory (XiangShan's B1 aliasing). *)
let gen_pool_elem =
  let open QCheck.Gen in
  let* i = oneofl [ -9; -1; 0; 1; 5; 31; 47; 255; 2560; 8191; 8192; 70_000 ] in
  oneofl
    [ Elem.Pc; Elem.Areg (i land 31); Elem.Sreg (i land 31); Elem.Mem i;
      Elem.Dcache i; Elem.Icache i; Elem.Lfb i; Elem.Btb i; Elem.Bht i;
      Elem.Ras i; Elem.Loop i; Elem.Tlb i; Elem.L2tlb i; Elem.Rob i;
      Elem.Ldq i; Elem.Stq i ]

let gen_event =
  let open QCheck.Gen in
  let elems = list_size (int_range 0 3) gen_pool_elem in
  frequency
    [ (6, map2 (fun d s -> Eff.Write (d, s)) gen_pool_elem elems);
      ( 4,
        let* kind = oneofl [ Eff.C_branch; Eff.C_target; Eff.C_addr; Eff.C_squash ]
        and* value = int_range 0 1
        and* srcs = elems
        and* touched = elems in
        return (Eff.Ctrl { kind; value; srcs; touched }) );
      (1, return Eff.Copy_regs_to_spec);
      (1, map (fun es -> Eff.Snapshot es) elems);
      (1, map (fun es -> Eff.Restore es) elems) ]

(* Instance B's event: usually A's with the same shape (same write
   destination or decision kind, fresh sources/value), so paired slots
   take the paired paths; sometimes unrelated. *)
let gen_twin ea =
  let open QCheck.Gen in
  let elems = list_size (int_range 0 3) gen_pool_elem in
  frequency
    [ (1, gen_event);
      ( 3,
        match ea with
        | Eff.Write (d, _) -> map (fun s -> Eff.Write (d, s)) elems
        | Eff.Ctrl c ->
            map2
              (fun value srcs -> Eff.Ctrl { c with value; srcs })
              (int_range 0 1) elems
        | e -> return e ) ]

let gen_slot_pair =
  let open QCheck.Gen in
  let* evs_a = list_size (int_range 0 4) gen_event in
  let* evs_b = flatten_l (List.map gen_twin evs_a) in
  let* extra = list_size (int_range 0 1) gen_event in
  let* pc_b = frequency [ (5, return 0); (1, return 4) ] in
  let* shape = int_range 0 9 in
  let a = slot evs_a and b = slot ~pc:pc_b (evs_b @ extra) in
  return
    (match shape with 0 -> (Some a, None) | 1 -> (None, Some b) | _ -> (Some a, Some b))

let prop_taintstate_matches_reference =
  QCheck.Test.make ~name:"dense taint table matches the hash-table model"
    ~count:300
    QCheck.(
      make
        (Gen.triple Gen.bool
           (Gen.list_size (Gen.int_range 0 4) gen_pool_elem)
           (Gen.list_size (Gen.int_range 1 30) gen_slot_pair)))
    (fun (cellift, sources, slots) ->
      let mode = if cellift then Dvz_ift.Policy.Cellift else Dvz_ift.Policy.Diffift in
      let t = Taintstate.create mode in
      (* the provenance path must leave the same taint state *)
      let tp =
        Taintstate.create ~provenance:(Dvz_ift.Provenance.create ()) mode
      in
      let r = Ref_taint.create cellift in
      List.iter
        (fun e ->
          Taintstate.set_tainted t e;
          Taintstate.set_tainted tp e;
          Ref_taint.set r e true)
        sources;
      List.for_all
        (fun (sa, sb) ->
          Taintstate.apply_pair t sa sb;
          Taintstate.apply_pair tp sa sb;
          Ref_taint.apply_pair r sa sb;
          let want = Ref_taint.elems r in
          List.for_all
            (fun t ->
              Taintstate.tainted_elems t = want
              && Taintstate.tainted_count t = List.length want
              && Taintstate.tainted_by_module t = Ref_taint.by_module r
              && List.for_all
                   (fun e ->
                     Taintstate.is_tainted t e = Ref_taint.is_tainted r e)
                   (want @ sources))
            [ t; tp ])
        slots)

(* Without a recorder, paired writes and decisions are applied in place:
   no [sa @ sb] append, no closure, no polymorphic compare — zero
   allocation per slot. *)
let test_taint_pair_allocation_free () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 2560);
  let mk value =
    slot
      [ Eff.Write (Elem.Areg 5, [ Elem.Mem 2560; Elem.Areg 6 ]);
        Eff.Write (Elem.Sreg 5, [ Elem.Areg 5 ]);
        Eff.Write (Elem.Mem 70_000, [ Elem.Areg 5 ]);
        Eff.Ctrl { kind = Eff.C_addr; value; srcs = [ Elem.Areg 5 ];
                   touched = [ Elem.Dcache 3 ] } ]
  in
  let sa = Some (mk 1) and sb = Some (mk 2) in
  Taintstate.apply_pair t sa sb;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words (fun () -> ()) in
  let busy =
    words (fun () ->
        for _ = 1 to 1000 do Taintstate.apply_pair t sa sb done)
  in
  Alcotest.(check (float 0.)) "1000 paired slots allocate nothing" idle busy

(* --- dual core ----------------------------------------------------------- *)

let test_dualcore_secret_flows () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "register tainted" true
    (List.exists (fun e -> e = Elem.Areg (Reg.to_int Reg.t1)) r.Dualcore.r_final_tainted)

let test_dualcore_no_secret_no_taint_growth () =
  let insns =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 3);
      Insn.Op (Insn.Add, Reg.t1, Reg.t0, Reg.t0); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  (* only the pre-tainted secret words remain *)
  Alcotest.(check int) "only secret dwords tainted" Layout.secret_dwords
    (List.length r.Dualcore.r_final_tainted)

let test_dualcore_fn_mode_suppresses_control () =
  (* same secret in both instances: secret-indexed cache line stays clean *)
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ Genlib.li Reg.a3 Layout.probe_base
    @ [ Insn.Load (Insn.D, false, Reg.s0, Reg.t0, 0);
        Insn.Opi (Insn.Andi, Reg.t1, Reg.s0, 1);
        Insn.Opi (Insn.Slli, Reg.t1, Reg.t1, 6);
        Insn.Op (Insn.Add, Reg.t1, Reg.t1, Reg.a3);
        Insn.Load (Insn.D, false, Reg.t2, Reg.t1, 0);
        Insn.Ebreak ]
  in
  let count_dcache secret_b =
    let dc = Dualcore.create ~secret_b Cfg.boom_small (stim_of_insns insns) in
    let r = Dualcore.run dc in
    List.length
      (List.filter
         (fun e -> match e with Elem.Dcache _ -> true | _ -> false)
         r.Dualcore.r_final_tainted)
  in
  let diff_count = count_dcache (Array.map (fun v -> v lxor 1) secret) in
  let fn_count = count_dcache secret in
  Alcotest.(check bool) "differing secrets taint the probe line" true
    (diff_count > fn_count)

let test_dualcore_timing_identical_without_secret_paths () =
  let insns =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 3); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  Alcotest.(check int) "same cycles" r.Dualcore.r_cycles_a r.Dualcore.r_cycles_b;
  Alcotest.(check bool) "no timing diffs" true
    (Dualcore.window_timing_diffs r = [])

let test_core_liveness_views () =
  let core = run_core (stim_of_insns [ Insn.Ebreak ]) in
  Alcotest.(check bool) "arch regs live" true (Core.live core (Elem.Areg 1));
  Alcotest.(check bool) "spec regs dead" false (Core.live core (Elem.Sreg 1));
  Alcotest.(check bool) "rob dead" false (Core.live core (Elem.Rob 0));
  Alcotest.(check bool) "mem live" true (Core.live core (Elem.Mem 0))

(* --- timing side channels -------------------------------------------------- *)

let test_fpu_contention_timing () =
  (* A secret-gated fdiv inside an exception window: the two instances'
     window durations must differ (Spectre-Rewind / the fpu component). *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.s1 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); (* window opens *)
        Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0); (* secret *)
        Insn.Opi (Insn.Andi, Reg.t2, Reg.s0, 1);
        Insn.Branch (Insn.Eq, Reg.t2, Reg.zero, 8);
        Insn.Fdiv (Reg.t2, Reg.t0, Reg.t1);
        Insn.Ebreak ]
  in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  (* secrets 0 vs bitwise-not: bit 0 differs, so exactly one instance runs
     the divide *)
  let dc = Dualcore.create Cfg.boom_small stim in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "window timing differs" true
    (Dualcore.window_timing_diffs r <> [])

let test_no_timing_diff_without_secret_control () =
  (* The same window shape but with the divide unconditional: identical
     timing in both instances. *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.s1 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0);
        Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0);
        Insn.Fdiv (Reg.t2, Reg.t0, Reg.t1);
        Insn.Ebreak ]
  in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  let dc = Dualcore.create Cfg.boom_small stim in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "constant time" true
    (Dualcore.window_timing_diffs r = [])

(* --- sequencing edge cases -------------------------------------------------- *)

let test_ecall_also_terminates_sequence () =
  let mk name insns =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient = false }
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:
            [ mk "a" [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1); Insn.Ecall ];
              mk "b" [ Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, 2); Insn.Ebreak ] ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = []; st_max_slots = 100 }
  in
  let core = run_core stim in
  Alcotest.(check int) "both blobs executed" 2 (Core.arch_reg core Reg.t1)

let test_max_slots_bounds_runaway () =
  (* a tight infinite loop must stop at the slot budget *)
  let insns = [ Insn.Jal (Reg.zero, 0) ] in
  let stim = { (stim_of_insns insns) with Core.st_max_slots = 50 } in
  let core = run_core stim in
  Alcotest.(check bool) "terminates" true (Core.is_done core);
  Alcotest.(check bool) "stopped at budget" true (Core.slot_count core <= 51)

let test_training_blob_windows_flagged () =
  let mk name insns is_transient =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient }
  in
  (* the "training" blob itself faults -> its window is not in the
     transient blob *)
  let faulting =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:[ mk "train" faulting false; mk "tr" [ Insn.Ebreak ] true ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = [ (0xE000, Perm.absent) ]; st_max_slots = 500 }
  in
  let core = run_core stim in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check bool) "flagged as training-time" false
        w.Core.wr_in_transient_blob
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

let test_state_hash_deterministic () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run () = Core.state_hash (run_core (stim_of_insns insns)) in
  Alcotest.(check int) "hash stable across runs" (run ()) (run ())

let test_dualcore_deterministic () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run () =
    let r = Dualcore.run (Dualcore.create Cfg.boom_small (stim_of_insns insns)) in
    (r.Dualcore.r_cycles_a, r.Dualcore.r_final_tainted)
  in
  Alcotest.(check bool) "same result" true (run () = run ())

(* --- co-simulation: speculation is architecturally invisible -------------- *)

(* Random linear programs (forward control flow only, accesses confined to
   the dedicated region) executed on the speculative core must leave the
   same architectural register state as the pure golden model. *)
let random_linear_program rng =
  let module R = Dvz_util.Rng in
  let n = R.int_in rng 15 40 in
  let body = ref [] in
  let emit i = body := i :: !body in
  List.iter emit (Genlib.li Reg.t0 (Layout.dedicated_base + 0x100));
  for _ = 1 to n do
    match R.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        emit
          (Genlib.random_arith rng
             ~dst:(R.choose rng Genlib.scratch)
             ~srcs:[ R.choose rng Genlib.scratch ])
    | 4 ->
        emit (Insn.Store (Insn.D, R.choose rng Genlib.scratch, Reg.t0,
                          8 * R.int rng 8))
    | 5 -> emit (Insn.Load (Insn.D, false, R.choose rng Genlib.scratch,
                            Reg.t0, 8 * R.int rng 8))
    | 6 ->
        let cond = R.choose rng [| Insn.Eq; Insn.Ne; Insn.Ltu |] in
        let v0, v1 = Genlib.random_cond_operands rng cond ~taken:(R.bool rng) in
        emit (Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, v0));
        emit (Insn.Opi (Insn.Addi, Reg.t2, Reg.zero, v1));
        emit (Insn.Branch (cond, Reg.t1, Reg.t2, 8));
        emit Insn.nop
    | 7 -> emit (Insn.Jal (Reg.ra, 8)); emit Insn.nop
    | 8 -> emit (Insn.Fdiv (R.choose rng Genlib.scratch, Reg.t1, Reg.t2))
    | _ -> emit Insn.nop
  done;
  emit Insn.Ebreak;
  List.rev !body

let prop_cosim_arch_state =
  QCheck.Test.make ~name:"speculative core matches the golden model"
    ~count:60 QCheck.small_int (fun seed_int ->
      let rng = Dvz_util.Rng.create seed_int in
      let insns = random_linear_program rng in
      (* Speculative core run. *)
      let core = run_core (stim_of_insns insns) in
      (* Pure golden run over the same environment, stopped at the
         terminating trap. *)
      let mem = Phys_mem.create () in
      Array.iteri
        (fun i v -> Phys_mem.write mem ~addr:(Layout.secret_base + (8 * i)) ~size:8 v)
        secret;
      Phys_mem.write_words mem Layout.swap_base
        (Array.of_list (List.map Encode.encode insns));
      let g =
        Golden.create ~pc:Layout.swap_entry ~priv:Golden.User
          ~mtvec:Layout.mtvec (Phys_mem.golden_memory mem)
      in
      ignore (Golden.run g ~fuel:500 ~stop:(fun g -> Golden.mcause g <> 0) ());
      let ok = ref true in
      for r = 1 to 31 do
        if Core.arch_reg core (Reg.x r) <> Golden.reg g (Reg.x r) then
          ok := false
      done;
      !ok)

(* --- trace rendering ------------------------------------------------------ *)

let test_trace_rendering () =
  let stim =
    stim_of_insns
      (Genlib.li Reg.t0 0xE000
      @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ])
  in
  let stim = { stim with Core.st_perms = [ (0xE000, Perm.absent) ] } in
  let core = Core.create Cfg.boom_small stim in
  let slots = Core.run core in
  let rendered = Dvz_uarch.Trace.render_slots slots in
  Alcotest.(check bool) "trace nonempty" true (String.length rendered > 0);
  let windows = Dvz_uarch.Trace.render_windows (Core.windows core) in
  Alcotest.(check bool) "window line mentions kind" true
    (String.length windows > 10);
  (* dual run report *)
  let stim2 =
    { stim with
      Core.st_swapmem =
        Swapmem.with_schedule stim.Core.st_swapmem
          (Swapmem.schedule stim.Core.st_swapmem) }
  in
  let r = Dualcore.run (Dualcore.create Cfg.boom_small stim2) in
  Alcotest.(check bool) "result report" true
    (String.length (Dvz_uarch.Trace.render_result r) > 0);
  Alcotest.(check bool) "taint log report" true
    (String.length (Dvz_uarch.Trace.render_taint_log ~every:4 r.Dualcore.r_log) > 0)

let () =
  Alcotest.run "dvz_uarch"
    [ ( "predictors",
        [ Alcotest.test_case "bht saturation" `Quick test_bht_saturation;
          Alcotest.test_case "bht aliasing" `Quick test_bht_aliasing;
          Alcotest.test_case "btb tagging" `Quick test_btb_tagged_vs_untagged;
          Alcotest.test_case "ras push/pop" `Quick test_ras_push_pop;
          Alcotest.test_case "ras restore full" `Quick test_ras_restore_full;
          Alcotest.test_case "ras B2 bug" `Quick test_ras_restore_top_only_bug;
          Alcotest.test_case "ras liveness" `Quick test_ras_liveness;
          Alcotest.test_case "loop predictor" `Quick test_loop_predictor;
          Alcotest.test_case "mdp" `Quick test_mdp ] );
      ( "caches",
        [ Alcotest.test_case "fill and hit" `Quick test_cache_fill_and_hit;
          Alcotest.test_case "conflict" `Quick test_cache_conflict;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "lfb decoy" `Quick test_lfb_decoy;
          Alcotest.test_case "tlb" `Quick test_tlb ] );
      ( "lsu",
        [ Alcotest.test_case "forwarding" `Quick test_stq_forwarding;
          Alcotest.test_case "pending alias" `Quick test_stq_pending_alias;
          Alcotest.test_case "youngest wins" `Quick test_stq_youngest_wins;
          Alcotest.test_case "snapshot/restore" `Quick test_stq_snapshot_restore;
          Alcotest.test_case "ldq" `Quick test_ldq_basic ] );
      ( "core",
        [ Alcotest.test_case "linear code" `Quick test_core_runs_linear_code;
          Alcotest.test_case "exception window" `Quick test_core_exception_window;
          Alcotest.test_case "illegal per core" `Quick
            test_core_boom_no_illegal_window;
          Alcotest.test_case "untrained branch quiet" `Quick
            test_core_branch_needs_training;
          Alcotest.test_case "trained branch window" `Quick
            test_core_branch_window_after_training;
          Alcotest.test_case "return window" `Quick test_core_return_window;
          Alcotest.test_case "disamb window" `Quick
            test_core_disamb_window_and_stale_value;
          Alcotest.test_case "window bounded" `Quick test_core_window_bounded;
          Alcotest.test_case "transient stores uncommitted" `Quick
            test_core_transient_stores_dont_commit;
          Alcotest.test_case "B1 sampling on XiangShan" `Quick
            test_core_meltdown_forwarding_b1;
          Alcotest.test_case "no B1 on BOOM" `Quick test_core_no_b1_on_boom;
          Alcotest.test_case "tightened secret faults" `Quick
            test_core_tighten_secret;
          Alcotest.test_case "state hash sensitivity" `Quick
            test_core_state_hash_secret_sensitivity;
          Alcotest.test_case "liveness views" `Quick test_core_liveness_views ] );
      ( "taint",
        [ Alcotest.test_case "write propagation" `Quick test_taint_write_propagation;
          Alcotest.test_case "cellift monotone" `Quick test_taint_cellift_monotone;
          Alcotest.test_case "ctrl gating" `Quick test_taint_ctrl_gating;
          Alcotest.test_case "untainted ctrl" `Quick
            test_taint_ctrl_untainted_sources;
          Alcotest.test_case "divergence" `Quick test_taint_divergence;
          Alcotest.test_case "copy/snapshot/restore" `Quick
            test_taint_copy_and_restore;
          Alcotest.test_case "module counts" `Quick test_taint_module_counts;
          Alcotest.test_case "paired slots allocation-free" `Quick
            test_taint_pair_allocation_free;
          QCheck_alcotest.to_alcotest prop_taintstate_matches_reference ] );
      ( "timing",
        [ Alcotest.test_case "fpu contention" `Quick test_fpu_contention_timing;
          Alcotest.test_case "constant-time control" `Quick
            test_no_timing_diff_without_secret_control ] );
      ( "sequencing",
        [ Alcotest.test_case "ecall terminates" `Quick
            test_ecall_also_terminates_sequence;
          Alcotest.test_case "slot budget" `Quick test_max_slots_bounds_runaway;
          Alcotest.test_case "training windows flagged" `Quick
            test_training_blob_windows_flagged;
          Alcotest.test_case "hash deterministic" `Quick
            test_state_hash_deterministic;
          Alcotest.test_case "dualcore deterministic" `Quick
            test_dualcore_deterministic ] );
      ( "cosim",
        [ QCheck_alcotest.to_alcotest prop_cosim_arch_state;
          Alcotest.test_case "trace rendering" `Quick test_trace_rendering ] );
      ( "dualcore",
        [ Alcotest.test_case "secret flows" `Quick test_dualcore_secret_flows;
          Alcotest.test_case "no spurious taint" `Quick
            test_dualcore_no_secret_no_taint_growth;
          Alcotest.test_case "FN mode suppression" `Quick
            test_dualcore_fn_mode_suppresses_control;
          Alcotest.test_case "clean timing" `Quick
            test_dualcore_timing_identical_without_secret_paths ] ) ]
