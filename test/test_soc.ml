(* Tests for Dvz_soc: permissions, physical memory and the dynamic
   swappable memory. *)

open Dvz_soc
module Golden = Dvz_isa.Golden
module Trap = Dvz_isa.Trap

let test_perm_constructors () =
  Alcotest.(check bool) "rwx" true Perm.rwx.Perm.exec;
  Alcotest.(check bool) "rw no exec" false Perm.rw.Perm.exec;
  Alcotest.(check bool) "rx no write" false Perm.rx.Perm.write;
  Alcotest.(check bool) "priv_only drops user" false
    (Perm.priv_only Perm.rwx).Perm.user;
  Alcotest.(check bool) "absent" false Perm.absent.Perm.present;
  Alcotest.(check bool) "none unreadable" false Perm.none.Perm.read

let test_mem_rw () =
  let m = Phys_mem.create () in
  Phys_mem.write m ~addr:0x100 ~size:4 0xDEADBEEF;
  Alcotest.(check int) "word read" 0xDEADBEEF (Phys_mem.read m ~addr:0x100 ~size:4);
  Alcotest.(check int) "byte read" 0xEF (Phys_mem.read_byte m 0x100);
  Alcotest.(check int) "little endian" 0xDE (Phys_mem.read_byte m 0x103)

let test_mem_out_of_range () =
  let m = Phys_mem.create () in
  Alcotest.(check int) "oob read is 0" 0 (Phys_mem.read_byte m 0x1000000);
  Phys_mem.write_byte m 0x1000000 42 (* silently ignored *)

let test_mem_write_words () =
  let m = Phys_mem.create () in
  Phys_mem.write_words m 0x200 [| 0x11223344; 0x55667788 |];
  Alcotest.(check int) "word0" 0x11223344 (Phys_mem.read m ~addr:0x200 ~size:4);
  Alcotest.(check int) "word1" 0x55667788 (Phys_mem.read m ~addr:0x204 ~size:4)

let test_checked_access_fault () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x3000 Perm.none;
  (match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x3000 ~size:8 with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "expected load access fault");
  match
    Phys_mem.checked_store m ~priv:Golden.Machine ~addr:0x3000 ~size:8 ~value:1
  with
  | Error Trap.Store_access_fault -> ()
  | _ -> Alcotest.fail "expected store access fault"

let test_checked_page_fault () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x4000 Perm.absent;
  (match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x4000 ~size:8 with
  | Error Trap.Load_page_fault -> ()
  | _ -> Alcotest.fail "expected load page fault");
  match
    Phys_mem.checked_store m ~priv:Golden.Machine ~addr:0x4008 ~size:8 ~value:1
  with
  | Error Trap.Store_page_fault -> ()
  | _ -> Alcotest.fail "expected store page fault"

let test_checked_privilege () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x5000 (Perm.priv_only Perm.rw);
  (match Phys_mem.checked_load m ~priv:Golden.User ~addr:0x5000 ~size:8 with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "user load should fault");
  match Phys_mem.checked_load m ~priv:Golden.Machine ~addr:0x5000 ~size:8 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "machine load should succeed"

let test_checked_fetch_exec () =
  let m = Phys_mem.create () in
  Phys_mem.set_perm m 0x6000 Perm.rw;
  (match Phys_mem.checked_fetch m ~priv:Golden.Machine ~addr:0x6000 with
  | Error Trap.Fetch_access_fault -> ()
  | _ -> Alcotest.fail "fetch from non-exec page should fault");
  match Phys_mem.checked_fetch m ~priv:Golden.Machine ~addr:0x1000 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fetch from rwx page should succeed"

let test_checked_oob () =
  let m = Phys_mem.create () in
  match
    Phys_mem.checked_load m ~priv:Golden.Machine ~addr:(Layout.mem_size + 8)
      ~size:8
  with
  | Error Trap.Load_access_fault -> ()
  | _ -> Alcotest.fail "out-of-range load should access-fault"

let test_mem_copy_isolated () =
  let a = Phys_mem.create () in
  Phys_mem.write_byte a 0x10 1;
  let b = Phys_mem.copy a in
  Phys_mem.write_byte b 0x10 2;
  Alcotest.(check int) "original" 1 (Phys_mem.read_byte a 0x10);
  Alcotest.(check int) "copy" 2 (Phys_mem.read_byte b 0x10)

(* --- swapmem ------------------------------------------------------------- *)

let blob name words is_transient =
  { Swapmem.name; words = Array.of_list words; is_transient }

let test_swap_schedule_order () =
  let sm =
    Swapmem.create
      ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] false; blob "t" [ 3 ] true ]
      ~schedule:[ 1; 0; 2 ]
  in
  let mem = Phys_mem.create () in
  let names = ref [] in
  let rec drain () =
    match Swapmem.load_next sm mem with
    | None -> ()
    | Some b ->
        names := b.Swapmem.name :: !names;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "schedule order" [ "b"; "a"; "t" ]
    (List.rev !names)

let test_swap_loads_words () =
  let sm = Swapmem.create ~blobs:[ blob "x" [ 0xAB; 0xCD ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "word 0" 0xAB
    (Phys_mem.read mem ~addr:Layout.swap_base ~size:4);
  Alcotest.(check int) "word 1" 0xCD
    (Phys_mem.read mem ~addr:(Layout.swap_base + 4) ~size:4)

let test_swap_pads_with_ebreak () =
  let sm = Swapmem.create ~blobs:[ blob "x" [ 0xAB ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  let ebreak = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak in
  Alcotest.(check int) "padding word" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + 8) ~size:4);
  Alcotest.(check int) "last region word" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + Layout.swap_size - 4) ~size:4)

let test_swap_overwrites_previous () =
  let sm =
    Swapmem.create
      ~blobs:[ blob "a" [ 0x11; 0x22 ] false; blob "b" [ 0x33 ] false ]
      ~schedule:[ 0; 1 ]
  in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "first word replaced" 0x33
    (Phys_mem.read mem ~addr:Layout.swap_base ~size:4);
  let ebreak = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak in
  Alcotest.(check int) "stale second word cleared" ebreak
    (Phys_mem.read mem ~addr:(Layout.swap_base + 4) ~size:4)

let test_swap_reset () =
  let sm = Swapmem.create ~blobs:[ blob "a" [ 1 ] false ] ~schedule:[ 0 ] in
  let mem = Phys_mem.create () in
  ignore (Swapmem.load_next sm mem);
  Alcotest.(check int) "exhausted" 0 (Swapmem.remaining sm);
  Swapmem.reset sm;
  Alcotest.(check int) "rewound" 1 (Swapmem.remaining sm)

let test_swap_current () =
  let sm =
    Swapmem.create ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] true ]
      ~schedule:[ 0; 1 ]
  in
  let mem = Phys_mem.create () in
  Alcotest.(check bool) "no current before load" true (Swapmem.current sm = None);
  ignore (Swapmem.load_next sm mem);
  (match Swapmem.current sm with
  | Some b -> Alcotest.(check string) "current name" "a" b.Swapmem.name
  | None -> Alcotest.fail "expected current blob");
  ignore (Swapmem.load_next sm mem);
  match Swapmem.current sm with
  | Some b -> Alcotest.(check bool) "transient flag" true b.Swapmem.is_transient
  | None -> Alcotest.fail "expected current blob"

let test_swap_bad_schedule () =
  Alcotest.check_raises "index range"
    (Invalid_argument "Swapmem.create: schedule index out of range") (fun () ->
      ignore (Swapmem.create ~blobs:[ blob "a" [ 1 ] false ] ~schedule:[ 1 ]))

let test_swap_oversized_blob () =
  let words = List.init ((Layout.swap_size / 4) + 1) (fun i -> i) in
  Alcotest.check_raises "too large"
    (Invalid_argument "Swapmem.create: blob too large: big") (fun () ->
      ignore (Swapmem.create ~blobs:[ blob "big" words false ] ~schedule:[ 0 ]))

let test_with_schedule_preserves_blobs () =
  let sm =
    Swapmem.create ~blobs:[ blob "a" [ 1 ] false; blob "b" [ 2 ] false ]
      ~schedule:[ 0; 1 ]
  in
  let sm2 = Swapmem.with_schedule sm [ 1 ] in
  Alcotest.(check int) "blob count preserved" 2 (List.length (Swapmem.blobs sm2));
  Alcotest.(check (list int)) "new schedule" [ 1 ] (Swapmem.schedule sm2);
  Alcotest.(check (list int)) "original untouched" [ 0; 1 ] (Swapmem.schedule sm)

(* Every byte of the modelled memory, for whole-memory comparisons. *)
let mem_bytes m = String.init Layout.mem_size (fun a -> Char.chr (Phys_mem.read_byte m a))

(* [load_next] must leave exactly the bytes of the word-by-word reference
   fill, including over stale bytes from an earlier, longer blob. *)
let test_swap_matches_word_reference () =
  let max_words = Layout.swap_size / 4 in
  let ebreak = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak in
  List.iter
    (fun n ->
      let words = List.init n (fun i -> (i * 0x9E3779B1) land 0xFFFFFFFF) in
      let sm = Swapmem.create ~blobs:[ blob "x" words false ] ~schedule:[ 0 ] in
      let stale m =
        for a = 0 to Layout.mem_size - 1 do
          Phys_mem.write_byte m a (a * 7)
        done
      in
      let got = Phys_mem.create () and want = Phys_mem.create () in
      stale got;
      stale want;
      ignore (Swapmem.load_next sm got);
      Phys_mem.write_words want Layout.swap_base (Array.of_list words);
      for i = n to max_words - 1 do
        Phys_mem.write want ~addr:(Layout.swap_base + (4 * i)) ~size:4 ebreak
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%d-word blob" n)
        true
        (mem_bytes got = mem_bytes want))
    [ 0; 1; max_words - 1; max_words ]

(* [blit] drops out-of-range bytes exactly as byte writes do. *)
let test_mem_blit_clips () =
  let src = Bytes.init 64 (fun i -> Char.chr (0x40 + i)) in
  List.iter
    (fun (addr, off, len) ->
      let got = Phys_mem.create () and want = Phys_mem.create () in
      Phys_mem.blit got ~addr src ~off ~len;
      for i = 0 to len - 1 do
        Phys_mem.write_byte want (addr + i) (Char.code (Bytes.get src (off + i)))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "blit at %d" addr)
        true
        (mem_bytes got = mem_bytes want))
    [ (0x100, 0, 64); (-10, 3, 40); (Layout.mem_size - 20, 8, 56);
      (Layout.mem_size + 4, 0, 16); (-100, 0, 64) ]

let prop_schedule_multiset =
  QCheck.Test.make ~name:"loaded blobs follow the schedule exactly" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 10) (int_bound 2))
    (fun schedule ->
      let blobs = [ blob "a" [ 1 ] false; blob "b" [ 2 ] false; blob "c" [ 3 ] true ] in
      let sm = Swapmem.create ~blobs ~schedule in
      let mem = Phys_mem.create () in
      let rec drain acc =
        match Swapmem.load_next sm mem with
        | None -> List.rev acc
        | Some b -> drain (b.Swapmem.name :: acc)
      in
      let names = drain [] in
      let expected =
        List.map (fun i -> (List.nth blobs i).Swapmem.name) schedule
      in
      names = expected)

let () =
  Alcotest.run "dvz_soc"
    [ ( "perm",
        [ Alcotest.test_case "constructors" `Quick test_perm_constructors ] );
      ( "phys_mem",
        [ Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "out of range" `Quick test_mem_out_of_range;
          Alcotest.test_case "write_words" `Quick test_mem_write_words;
          Alcotest.test_case "access fault" `Quick test_checked_access_fault;
          Alcotest.test_case "page fault" `Quick test_checked_page_fault;
          Alcotest.test_case "privilege" `Quick test_checked_privilege;
          Alcotest.test_case "fetch exec bit" `Quick test_checked_fetch_exec;
          Alcotest.test_case "out-of-range checked" `Quick test_checked_oob;
          Alcotest.test_case "copy isolation" `Quick test_mem_copy_isolated;
          Alcotest.test_case "blit clips" `Quick test_mem_blit_clips ] );
      ( "swapmem",
        [ Alcotest.test_case "schedule order" `Quick test_swap_schedule_order;
          Alcotest.test_case "loads words" `Quick test_swap_loads_words;
          Alcotest.test_case "ebreak padding" `Quick test_swap_pads_with_ebreak;
          Alcotest.test_case "matches word reference" `Quick
            test_swap_matches_word_reference;
          Alcotest.test_case "overwrite previous" `Quick
            test_swap_overwrites_previous;
          Alcotest.test_case "reset" `Quick test_swap_reset;
          Alcotest.test_case "current" `Quick test_swap_current;
          Alcotest.test_case "bad schedule" `Quick test_swap_bad_schedule;
          Alcotest.test_case "oversized blob" `Quick test_swap_oversized_blob;
          Alcotest.test_case "with_schedule" `Quick
            test_with_schedule_preserves_blobs;
          QCheck_alcotest.to_alcotest prop_schedule_multiset ] ) ]
