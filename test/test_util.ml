(* Tests for Dvz_util: deterministic PRNG, statistics, table rendering. *)

module Rng = Dvz_util.Rng
module Stats = Dvz_util.Stats
module Tablefmt = Dvz_util.Tablefmt

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 8 (fun _ -> Rng.next a) in
  let ys = List.init 8 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.next a) (Rng.next b);
  ignore (Rng.next a);
  (* advancing one does not advance the other *)
  let a' = Rng.next a and b' = Rng.next b in
  Alcotest.(check bool) "streams drift apart" true (a' <> b')

let test_rng_split () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.next a) in
  let ys = List.init 16 (fun _ -> Rng.next child) in
  Alcotest.(check bool) "child stream is distinct" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_choose () =
  let rng = Rng.create 6 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng arr in
    Alcotest.(check bool) "element of array" true (Array.exists (( = ) v) arr)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 8 in
  let arr = Array.init 20 (fun i -> i) in
  let orig = Array.copy arr in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" orig sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 10 in
  let l = List.init 10 (fun i -> i) in
  let s = Rng.sample rng l 4 in
  Alcotest.(check int) "sample size" 4 (List.length s);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare s))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_chance_extremes () =
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)
  done

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean [])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "known" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_ci95 () =
  let m, half = Stats.ci95 [ 10.0; 10.0; 10.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 10.0 m;
  Alcotest.(check (float 1e-9)) "zero width" 0.0 half;
  let _, half2 = Stats.ci95 [ 0.0; 20.0 ] in
  Alcotest.(check bool) "nonzero width" true (half2 > 0.0)

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_minmax () =
  let lo, hi = Stats.minmax [ 3.0; -1.0; 7.0 ] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) lo;
  Alcotest.(check (float 1e-9)) "max" 7.0 hi

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile xs 1.0)

let test_table_render () =
  let t = Tablefmt.create [ "a"; "bb" ] in
  Tablefmt.add_row t [ "xxx"; "y" ];
  Tablefmt.add_row t [ "z" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* all lines equal width modulo trailing spaces is hard; check row count *)
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "4 lines (header, sep, 2 rows)" 4 (List.length lines)

let test_table_separator () =
  let t = Tablefmt.create [ "h" ] in
  Tablefmt.add_row t [ "1" ];
  Tablefmt.add_sep t;
  Tablefmt.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (String.trim (Tablefmt.render t)) in
  Alcotest.(check int) "5 lines" 5 (List.length lines)

(* Property tests *)

let prop_int_in_range =
  QCheck.Test.make ~name:"rng int_in always within bounds" ~count:500
    QCheck.(triple small_int small_signed_int small_nat)
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let hi = lo + span in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo, hi = Stats.minmax xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let test_parallel_map_order () =
  let xs = List.init 50 (fun i -> i) in
  let ys = Dvz_util.Parallel.map ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys

let test_parallel_map_sequential_fallback () =
  let ys = Dvz_util.Parallel.map ~domains:0 (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "sequential" [ 2; 3; 4 ] ys

let test_parallel_available () =
  Alcotest.(check bool) "at least one domain" true
    (Dvz_util.Parallel.available () >= 1)

let test_parallel_worker_index () =
  Alcotest.(check int) "caller is slot 0" 0 (Dvz_util.Parallel.worker_index ());
  let idxs =
    Dvz_util.Parallel.map ~domains:3
      (fun _ -> Dvz_util.Parallel.worker_index ())
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "slots within [0..domains]" true
    (List.for_all (fun i -> i >= 0 && i <= 3) idxs);
  Alcotest.(check int) "slot restored after the map" 0
    (Dvz_util.Parallel.worker_index ())

(* A sequential map nested inside a parallel worker runs every task on
   that worker's domain, so it must report slot 0 to its tasks (a nested
   campaign sizes its per-slot counters from its own single lane) and hand
   the outer slot back afterwards.  The sleep keeps the caller from
   draining the outer list before the spawned worker starts. *)
let test_parallel_nested_sequential_index () =
  let seen =
    Dvz_util.Parallel.map ~domains:2
      (fun _ ->
        Unix.sleepf 0.005;
        let outer = Dvz_util.Parallel.worker_index () in
        let inner =
          Dvz_util.Parallel.map ~domains:1
            (fun _ -> Dvz_util.Parallel.worker_index ())
            [ 1; 2; 3 ]
        in
        (outer, inner, Dvz_util.Parallel.worker_index ()))
      (List.init 16 (fun i -> i))
  in
  if Dvz_util.Parallel.available () >= 2 then
    Alcotest.(check bool) "some task ran on spawned slot 1" true
      (List.exists (fun (outer, _, _) -> outer = 1) seen);
  List.iter
    (fun (outer, inner, after) ->
      Alcotest.(check (list int))
        (Printf.sprintf "inner map under outer slot %d reports slot 0" outer)
        [ 0; 0; 0 ] inner;
      Alcotest.(check int) "outer slot restored after the inner map" outer
        after)
    seen

(* Regression for the worker-count off-by-one: [~domains:N] means N total
   lanes, so no task may ever observe a worker index >= N (the old code
   spawned [min N (n-1)] domains *plus* ran the caller as worker 0, putting
   [--jobs 4] on 5 lanes). *)
let test_parallel_total_lanes () =
  List.iter
    (fun domains ->
      let idxs =
        Dvz_util.Parallel.map ~domains
          (fun _ -> Dvz_util.Parallel.worker_index ())
          (List.init 32 (fun i -> i))
      in
      Alcotest.(check bool)
        (Printf.sprintf "indices < %d total lanes" domains)
        true
        (List.for_all (fun i -> i >= 0 && i < domains) idxs))
    [ 1; 2; 3; 4 ]

let test_parallel_effective_lanes () =
  let avail = Dvz_util.Parallel.available () in
  Alcotest.(check int) "0 clamps up to 1" 1
    (Dvz_util.Parallel.effective_lanes 0);
  Alcotest.(check int) "within hardware is identity" 1
    (Dvz_util.Parallel.effective_lanes 1);
  Alcotest.(check int) "clamped to available" avail
    (Dvz_util.Parallel.effective_lanes (avail + 5));
  Alcotest.(check int) "available itself passes through" avail
    (Dvz_util.Parallel.effective_lanes avail)

(* map must agree with List.map in order and content for every domain
   count. *)
let prop_parallel_map_equals_list_map =
  QCheck.Test.make ~name:"parallel map equals List.map" ~count:40
    QCheck.(pair (list_of_size (Gen.int_range 0 12) small_nat) (int_range 0 4))
    (fun (xs, domains) ->
      let indexed = List.mapi (fun i x -> (i, x)) xs in
      let f (i, x) = (x * x) + i in
      Dvz_util.Parallel.map ~domains f indexed = List.map f indexed)

let () =
  Alcotest.run "dvz_util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          QCheck_alcotest.to_alcotest prop_int_in_range ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "ci95" `Quick test_stats_ci95;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "minmax" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          QCheck_alcotest.to_alcotest prop_mean_bounded ] );
      ( "parallel",
        [ Alcotest.test_case "order" `Quick test_parallel_map_order;
          Alcotest.test_case "sequential fallback" `Quick
            test_parallel_map_sequential_fallback;
          Alcotest.test_case "available" `Quick test_parallel_available;
          Alcotest.test_case "worker index" `Quick test_parallel_worker_index;
          Alcotest.test_case "nested sequential map index" `Quick
            test_parallel_nested_sequential_index;
          Alcotest.test_case "domains means total lanes" `Quick
            test_parallel_total_lanes;
          Alcotest.test_case "effective lanes clamp" `Quick
            test_parallel_effective_lanes;
          QCheck_alcotest.to_alcotest prop_parallel_map_equals_list_map ] );
      ( "tablefmt",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "separator" `Quick test_table_separator ] ) ]
