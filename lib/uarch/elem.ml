type t =
  | Areg of int
  | Sreg of int
  | Mem of int
  | Dcache of int
  | Icache of int
  | Lfb of int
  | Btb of int
  | Bht of int
  | Ras of int
  | Loop of int
  | Tlb of int
  | L2tlb of int
  | Rob of int
  | Ldq of int
  | Stq of int
  | Pc

(* Caches and TLBs are banked, mirroring the RTL module hierarchy (BOOM's
   data arrays are physically split into banks/ways, each its own module);
   the coverage matrix is keyed per bank. *)
let dcache_banks = 4
let icache_banks = 2
let tlb_banks = 2

let module_of = function
  | Areg _ -> "core.arf"
  | Sreg _ -> "core.prf"
  | Mem _ -> "mem"
  | Dcache i -> Printf.sprintf "lsu.dcache.bank%d" (i mod dcache_banks)
  | Icache i -> Printf.sprintf "frontend.icache.bank%d" (i mod icache_banks)
  | Lfb _ -> "lsu.lfb"
  | Btb _ -> "frontend.btb"
  | Bht _ -> "frontend.bht"
  | Ras _ -> "frontend.ras"
  | Loop _ -> "frontend.loop"
  | Tlb i -> Printf.sprintf "lsu.tlb.bank%d" (i mod tlb_banks)
  | L2tlb _ -> "lsu.l2tlb"
  | Rob _ -> "rob"
  | Ldq _ -> "lsu.ldq"
  | Stq _ -> "lsu.stq"
  | Pc -> "frontend.pc"

let index = function
  | Areg i | Sreg i | Mem i | Dcache i | Icache i | Lfb i | Btb i | Bht i
  | Ras i | Loop i | Tlb i | L2tlb i | Rob i | Ldq i | Stq i -> i
  | Pc -> 0

let to_string e = Printf.sprintf "%s[%d]" (module_of e) (index e)

(* Constructor rank in [Stdlib.compare]'s order: the constant [Pc] is an
   immediate and sorts before every block; blocks sort by tag, i.e. by
   declaration order. *)
let rank = function
  | Pc -> 0
  | Areg _ -> 1
  | Sreg _ -> 2
  | Mem _ -> 3
  | Dcache _ -> 4
  | Icache _ -> 5
  | Lfb _ -> 6
  | Btb _ -> 7
  | Bht _ -> 8
  | Ras _ -> 9
  | Loop _ -> 10
  | Tlb _ -> 11
  | L2tlb _ -> 12
  | Rob _ -> 13
  | Ldq _ -> 14
  | Stq _ -> 15

let ranks = 16

let of_rank r i =
  match r with
  | 0 -> Pc
  | 1 -> Areg i
  | 2 -> Sreg i
  | 3 -> Mem i
  | 4 -> Dcache i
  | 5 -> Icache i
  | 6 -> Lfb i
  | 7 -> Btb i
  | 8 -> Bht i
  | 9 -> Ras i
  | 10 -> Loop i
  | 11 -> Tlb i
  | 12 -> L2tlb i
  | 13 -> Rob i
  | 14 -> Ldq i
  | 15 -> Stq i
  | _ -> invalid_arg "Elem.of_rank"

let compare a b =
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c else Int.compare (index a) (index b)

let equal a b = rank a = rank b && index a = index b
let hash e = (index e * ranks) + rank e

let all_modules =
  List.sort String.compare
    ([ "core.arf"; "core.prf"; "frontend.bht"; "frontend.btb";
       "frontend.loop"; "frontend.pc"; "frontend.ras"; "lsu.l2tlb";
       "lsu.ldq"; "lsu.lfb"; "lsu.stq"; "mem"; "rob" ]
    @ List.init dcache_banks (Printf.sprintf "lsu.dcache.bank%d")
    @ List.init icache_banks (Printf.sprintf "frontend.icache.bank%d")
    @ List.init tlb_banks (Printf.sprintf "lsu.tlb.bank%d"))

let module_names = Array.of_list all_modules

(* Position of each rank's (first-bank) module in [module_names], found
   once over the 16 ranks.  A rank's bank tags differ only in their last
   digit, so they sit next to each other in sorted order and a banked
   element adds [i mod banks]. *)
let rank_module =
  Array.init ranks (fun r ->
      let name = module_of (of_rank r 0) in
      let rec find i = if module_names.(i) = name then i else find (i + 1) in
      find 0)

let banks = function
  | Dcache _ -> dcache_banks
  | Icache _ -> icache_banks
  | Tlb _ -> tlb_banks
  | _ -> 1

let module_id e =
  let bank = index e mod banks e in
  if bank < 0 then -1 else rank_module.(rank e) + bank
