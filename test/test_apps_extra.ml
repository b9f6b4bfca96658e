(* Additional application properties: bound sanity, scaling of problem
   sizes across scales, workload-statistics shapes the paper's analysis
   rests on. *)

module Parmacs = Shm_parmacs.Parmacs
module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Water = Shm_apps.Water
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform

let prop_tsp_greedy_bounds_optimal =
  QCheck.Test.make ~count:15 ~name:"tsp: optimal <= greedy"
    QCheck.(int_range 1 500)
    (fun seed ->
      let p = { (Tsp.params_n 9) with Tsp.seed } in
      Tsp.optimal_length p <= Tsp.greedy_length p)

let prop_tsp_optimal_positive =
  QCheck.Test.make ~count:15 ~name:"tsp: tours have positive length"
    QCheck.(int_range 1 500)
    (fun seed ->
      let p = { (Tsp.params_n 8) with Tsp.seed } in
      Tsp.optimal_length p > 0.0)

let test_scales_are_ordered () =
  (* Paper-scale problems do strictly more work than default, default more
     than quick (measured in sequential simulated cycles on the DEC). *)
  let dec = Machines.get "dec" in
  List.iter
    (fun name ->
      let cycles scale =
        (dec.Platform.run (Registry.app ~scale name) ~nprocs:1).Report.cycles
      in
      let q = cycles Registry.Quick and d = cycles Registry.Default in
      Alcotest.(check bool)
        (Printf.sprintf "%s: quick %d < default %d" name q d)
        true (q < d))
    [ "sor"; "water"; "m-water"; "ilink-clp"; "ilink-bad" ]

let test_sor_partitioning_covers () =
  (* Every interior row is owned by exactly one processor, for awkward
     processor counts too. *)
  let rows = 97 in
  List.iter
    (fun nprocs ->
      let owned = Array.make (rows + 2) 0 in
      for id = 0 to nprocs - 1 do
        let lo = 1 + (rows * id / nprocs) and hi = 1 + (rows * (id + 1) / nprocs) in
        for i = lo to hi - 1 do
          owned.(i) <- owned.(i) + 1
        done
      done;
      for i = 1 to rows do
        if owned.(i) <> 1 then
          Alcotest.failf "row %d owned %d times at %d procs" i owned.(i) nprocs
      done)
    [ 1; 2; 3; 5; 7; 8; 13 ]

let test_water_lock_rate_gap () =
  (* The defining statistic: original Water acquires an order of magnitude
     more remote locks than M-Water (Table 2's key column). *)
  let run mode =
    let app =
      Water.make { (Water.default_params mode) with Water.molecules = 64; steps = 1 }
    in
    let p = Machines.get "treadmarks" in
    Report.get (p.Platform.run app ~nprocs:4) "tmk.lock_remote"
  in
  let locked = run Water.Locked and batched = run Water.Batched in
  Alcotest.(check bool)
    (Printf.sprintf "locked %d >> batched %d" locked batched)
    true
    (locked > 5 * batched)

let test_sor_diff_volume_effect () =
  (* Section 2.4.2: with the zero interior, TreadMarks moves far less data
     than with the touch-all initialization. *)
  let run touch_all =
    let app =
      Sor.make
        { Sor.default_params with rows = 128; cols = 128; iters = 4; touch_all }
    in
    let p = Machines.get "treadmarks" in
    Report.get (p.Platform.run app ~nprocs:4) "net.bytes.payload"
  in
  let zero = run false and touch = run true in
  Alcotest.(check bool)
    (Printf.sprintf "zero-init payload %d < touch-all %d" zero touch)
    true
    (zero < touch)

let test_tsp_parallel_matches_bruteforce_nondeterministic_path () =
  (* Run the same instance at several processor counts on TreadMarks: the
     search order differs wildly, the answer never does. *)
  let p = { (Tsp.params_n 10) with Tsp.expand_depth = 2 } in
  let expected = Tsp.optimal_length p in
  let platform = Machines.get "treadmarks" in
  List.iter
    (fun n ->
      let r = platform.Platform.run (Tsp.make p) ~nprocs:n in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "optimal at %d procs" n)
        expected r.Report.checksum)
    [ 2; 5; 8 ]

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x18A6)
      prop_tsp_greedy_bounds_optimal;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xBB37)
      prop_tsp_optimal_positive;
    Alcotest.test_case "problem scales are ordered" `Slow
      test_scales_are_ordered;
    Alcotest.test_case "SOR bands partition rows" `Quick
      test_sor_partitioning_covers;
    Alcotest.test_case "Water vs M-Water lock rates" `Slow
      test_water_lock_rate_gap;
    Alcotest.test_case "SOR zero-init moves less data" `Quick
      test_sor_diff_volume_effect;
    Alcotest.test_case "TSP optimal at any processor count" `Slow
      test_tsp_parallel_matches_bruteforce_nondeterministic_path;
  ]
