(* Host speed, measured with a fixed piece of work that shares no code with
   the program under test.

   On a shared host the same campaign runs up to a third slower while
   neighbours load the machine, and such spells can outlast a run.  The
   probe is a small interpreter over a register file and a 4 MiB table,
   with data-dependent branches and cache-missing loads and stores, the
   kind of work the simulators do, so a neighbour slows it as it slows a
   campaign.  It runs between campaigns, and [scale] turns a campaign's
   seconds into seconds on a host where the probe takes [reference_s].
   Nothing of the program runs in it, and its loop allocates nothing, so
   that neither a change to the program nor the size of its heap can move
   it. *)

let table_words = 1 lsl 19
let steps = 300_000

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let work (mem : table) =
  let regs = Array.make 32 1 in
  let x = ref 0x2545F491 in
  for i = 0 to steps - 1 do
    x := !x lxor ((!x lsl 13) land 0xFFFF_FFFF);
    x := !x lxor (!x lsr 17);
    x := !x lxor ((!x lsl 5) land 0xFFFF_FFFF);
    let r = !x in
    let rd = (r lsr 3) land 31 and rs = (r lsr 8) land 31 in
    match r land 7 with
    | 0 -> regs.(rd) <- regs.(rs) + regs.(rd)
    | 1 | 2 -> regs.(rd) <- regs.(rs) lxor mem.{(r lsr 11) land (table_words - 1)}
    | 3 -> regs.(rd) <- mem.{(regs.(rs) + i) land (table_words - 1)}
    | 4 -> mem.{(r lsr 9) land (table_words - 1)} <- regs.(rs)
    | 5 -> if regs.(rs) land 1 = 0 then regs.(rd) <- regs.(rd) lsr 1
    | 6 -> regs.(rd) <- (regs.(rs) * 3) + 1
    | _ -> regs.(rd) <- (regs.(rd) lsl 1) lor (regs.(rs) land 1)
  done;
  Array.fold_left ( + ) 0 regs

(* One table per lane, allocated once, so that no probe pays for page
   faults and lanes share no cache lines.  The tables live outside the
   OCaml heap, so they do not change when the campaigns' garbage is
   collected.  A table is zeroed (untimed) before each probe, so every
   probe computes the same thing. *)
let tables : table array ref = ref [||]

let lane_tables lanes =
  if Array.length !tables < lanes then
    tables :=
      Array.init lanes (fun _ ->
          Bigarray.Array1.create Bigarray.int Bigarray.c_layout table_words);
  List.init lanes (fun i ->
      let m = !tables.(i) in
      Bigarray.Array1.fill m 0;
      m)

(* What the tables add to the process's resident set, in MB. *)
let resident_mb () =
  float_of_int (Array.length !tables * table_words * (Sys.word_size / 8))
  /. 1048576.0

let timed mem =
  let t0 = Trace.now () in
  let c = work mem in
  (Trace.now () -. t0, c)

(* Every probe must compute what the first one did: otherwise it did not
   run the work it was timed for. *)
let first = ref None

(* One probe on each of [lanes] CPUs at once (the CPUs a workload runs
   on); the mean of their seconds. *)
let probe ~lanes =
  let runs =
    match lane_tables lanes with
    | [ m ] -> [ timed m ]
    | mems -> Dvz_util.Parallel.map ~domains:lanes timed mems
  in
  List.iter
    (fun (_, c) ->
      match !first with
      | None -> first := Some c
      | Some c0 -> if c <> c0 then failwith "perfbench: the host-speed probe misbehaved")
    runs;
  Dvz_util.Stats.mean (List.map fst runs)

(* A probe's seconds on an undisturbed host of the machine the benchmark
   was tuned on (2 vCPUs of a shared Intel Xeon host). *)
let reference_s = 0.007

(* [seconds] measured while probes took [probe_s], at reference speed. *)
let scale seconds ~probe_s = seconds *. reference_s /. probe_s
