(* Cross-platform tests: every machine model must compute the same answers
   through completely different shared-memory implementations, and the
   timing must reproduce the paper's qualitative relationships. *)

module Parmacs = Shm_parmacs.Parmacs
module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Dsm_cluster = Shm_platform.Dsm_cluster
module Layout = Shm_apps.Layout
module Memory = Shm_memsys.Memory

let all_parallel_platforms () =
  [
    ("treadmarks", Machines.get "treadmarks");
    ("treadmarks-kernel", Machines.get "treadmarks-kernel");
    ("ivy", Machines.get "ivy");
    ("sgi", Machines.get "sgi");
    ("as", Dsm_cluster.as_machine ());
    ("ah", Machines.get "ah");
    ("hs", Machines.topology "lrc(mesi*4 x 64)");
  ]

let run_on name (p : Platform.t) app ~n =
  try p.Platform.run app ~nprocs:n
  with e ->
    Alcotest.failf "%s failed on %d procs: %s" name n (Printexc.to_string e)

(* Deterministic apps must produce bit-identical checksums on every
   platform at the same processor count (the computation is identical;
   only the shared-memory implementation differs), and agree with the
   sequential reference up to floating-point reassociation of the final
   reduction. *)
let check_exact_everywhere ~name make_app procs =
  let reference =
    let app = make_app () in
    Parmacs.checksum_of (Parmacs.run_sequential app) app
  in
  List.iter
    (fun n ->
      let results =
        List.map
          (fun (pname, p) ->
            (pname, (run_on pname p (make_app ()) ~n).Report.checksum))
          (all_parallel_platforms ())
      in
      (match results with
      | (_, first) :: rest ->
          List.iter
            (fun (pname, cs) ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s on %s with %d procs" name pname n)
                first cs)
            rest
      | [] -> Alcotest.fail "no platforms");
      let _, any = List.hd results in
      let err = abs_float (any -. reference) /. (1. +. abs_float reference) in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %d procs near reference (err %g)" name n err)
        true (err < 1e-12))
    procs

let test_sor_exact_everywhere () =
  check_exact_everywhere ~name:"sor"
    (fun () ->
      Sor.make { Sor.default_params with rows = 32; cols = 32; iters = 3 })
    [ 1; 3; 4 ]

let test_tsp_exact_everywhere () =
  check_exact_everywhere ~name:"tsp"
    (fun () -> Tsp.make { (Tsp.params_n 9) with Tsp.expand_depth = 2 })
    [ 1; 4 ]

let test_ilink_exact_everywhere () =
  (* ILINK reductions happen in a fixed order only for a fixed processor
     count; compare each platform at the same count. *)
  let make () = Registry.app ~scale:Registry.Quick "ilink-clp" in
  let n = 4 in
  let results =
    List.map
      (fun (pname, p) -> (pname, (run_on pname p (make ()) ~n).Report.checksum))
      (all_parallel_platforms ())
  in
  match results with
  | (_, first) :: rest ->
      List.iter
        (fun (pname, cs) ->
          Alcotest.(check (float 0.0)) ("ilink on " ^ pname) first cs)
        rest
  | [] -> Alcotest.fail "no platforms"

let test_water_close_everywhere () =
  (* Water's force reduction order depends on lock timing: platforms agree
     to floating-point reassociation tolerance. *)
  let make () =
    Shm_apps.Water.make
      { (Shm_apps.Water.default_params Shm_apps.Water.Batched) with
        molecules = 48; steps = 2 }
  in
  let app = make () in
  let reference = Parmacs.checksum_of (Parmacs.run_sequential app) app in
  List.iter
    (fun (pname, p) ->
      let r = run_on pname p (make ()) ~n:4 in
      let err = abs_float (r.Report.checksum -. reference) /. (1. +. abs_float reference) in
      Alcotest.(check bool)
        (Printf.sprintf "water on %s (err %g)" pname err)
        true (err < 1e-6))
    (all_parallel_platforms ())

(* Same platform, same inputs: byte-identical reports (determinism). *)
let test_runs_are_reproducible () =
  List.iter
    (fun (pname, p) ->
      let run () =
        let app =
          Sor.make { Sor.default_params with rows = 32; cols = 32; iters = 2 }
        in
        let r = run_on pname p app ~n:4 in
        (r.Report.cycles, r.Report.checksum, r.Report.counters)
      in
      let a = run () and b = run () in
      Alcotest.(check bool) ("deterministic on " ^ pname) true (a = b))
    (all_parallel_platforms ())

(* Paper shape: hardware sync is orders of magnitude cheaper, so a
   lock-heavy program speeds up on the SGI and not on TreadMarks. *)
let test_lock_heavy_relationship () =
  let app = Registry.app ~scale:Registry.Quick "water" in
  let tmk = Machines.get "treadmarks" in
  let sgi = Machines.get "sgi" in
  let t1 = (run_on "tmk" tmk (Registry.app ~scale:Registry.Quick "water") ~n:1).Report.cycles in
  let t8 = (run_on "tmk" tmk app ~n:8).Report.cycles in
  let s1 = (run_on "sgi" sgi (Registry.app ~scale:Registry.Quick "water") ~n:1).Report.cycles in
  let s8 = (run_on "sgi" sgi (Registry.app ~scale:Registry.Quick "water") ~n:8).Report.cycles in
  let tmk_speedup = float_of_int t1 /. float_of_int t8 in
  let sgi_speedup = float_of_int s1 /. float_of_int s8 in
  Alcotest.(check bool)
    (Printf.sprintf "SGI (%.2f) beats TreadMarks (%.2f) on Water" sgi_speedup
       tmk_speedup)
    true
    (sgi_speedup > 2. *. tmk_speedup)

(* Paper shape: kernel-level TreadMarks is faster than user-level for
   synchronization-heavy programs. *)
let test_kernel_beats_user_on_water () =
  let user = Machines.get "treadmarks" in
  let kernel = Machines.get "treadmarks-kernel" in
  let cycles p =
    (run_on "tmk" p (Registry.app ~scale:Registry.Quick "m-water") ~n:8)
      .Report.cycles
  in
  Alcotest.(check bool) "kernel faster" true (cycles kernel < cycles user)

(* Hw_sync: lock mutual exclusion on the snooping machine. *)
let test_hw_sync_mutual_exclusion () =
  let module Engine = Shm_sim.Engine in
  let module Hw_sync = Shm_memsys.Hw_sync in
  let module Snoop = Shm_memsys.Snoop in
  let module Memory = Shm_memsys.Memory in
  let module Counters = Shm_stats.Counters in
  let eng = Engine.create () in
  let counters = Counters.create () in
  let mem = Memory.create ~words:(1024 + Hw_sync.region_words) in
  let machine = Snoop.create eng counters mem (Snoop.sgi_config ~n_cpus:4) in
  let access =
    {
      Hw_sync.rmw = (fun f ~cpu addr g -> Snoop.rmw machine f ~cpu addr g);
      read = (fun f ~cpu addr -> ignore (Snoop.read machine f ~cpu addr));
    }
  in
  let sync = Hw_sync.create eng access ~base:1024 ~nprocs:4 in
  let in_section = ref 0 and max_in_section = ref 0 and entries = ref 0 in
  for cpu = 0 to 3 do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "cpu%d" cpu) ~at:0 (fun f ->
           for _ = 1 to 20 do
             Hw_sync.lock sync f ~cpu 5;
             incr in_section;
             incr entries;
             max_in_section := max !max_in_section !in_section;
             Engine.wait_until f (Engine.clock f + 30);
             decr in_section;
             Hw_sync.unlock sync f ~cpu 5
           done))
  done;
  Engine.run eng;
  Alcotest.(check int) "all entered" 80 !entries;
  Alcotest.(check int) "never two holders" 1 !max_in_section

(* Hw_sync: barrier really separates phases. *)
let test_hw_sync_barrier_phases () =
  let module Engine = Shm_sim.Engine in
  let module Hw_sync = Shm_memsys.Hw_sync in
  let module Snoop = Shm_memsys.Snoop in
  let module Memory = Shm_memsys.Memory in
  let module Counters = Shm_stats.Counters in
  let eng = Engine.create () in
  let counters = Counters.create () in
  let mem = Memory.create ~words:(64 + Hw_sync.region_words) in
  let machine = Snoop.create eng counters mem (Snoop.hs_node_config ~n_cpus:8) in
  let access =
    {
      Hw_sync.rmw = (fun f ~cpu addr g -> Snoop.rmw machine f ~cpu addr g);
      read = (fun f ~cpu addr -> ignore (Snoop.read machine f ~cpu addr));
    }
  in
  let sync = Hw_sync.create eng access ~base:64 ~nprocs:8 in
  let phase_done = Array.make 8 false in
  let violations = ref 0 in
  for cpu = 0 to 7 do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "cpu%d" cpu) ~at:(cpu * 17)
         (fun f ->
           Engine.wait_until f (Engine.clock f + (cpu * 100));
           phase_done.(cpu) <- true;
           Hw_sync.barrier sync f ~cpu 3;
           if not (Array.for_all Fun.id phase_done) then incr violations))
  done;
  Engine.run eng;
  Alcotest.(check int) "no one passed early" 0 !violations

let test_report_helpers () =
  let r =
    {
      Report.platform = "x"; app = "y"; nprocs = 4; cycles = 40_000_000;
      clock_mhz = 40.0; checksum = 1.0;
      counters = [ ("n", 80_000_000) ];
    }
  in
  Alcotest.(check (float 1e-9)) "seconds" 1.0 (Report.seconds r);
  Alcotest.(check (float 1e-6)) "rate" 8e7 (Report.rate r "n");
  let base = { r with cycles = 80_000_000 } in
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Report.speedup ~base r)

let test_machines_registry () =
  List.iter (fun n -> ignore (Machines.get n)) Machines.names;
  Alcotest.check_raises "unknown" (Invalid_argument "unknown platform \"zz\"")
    (fun () -> ignore (Machines.get "zz"))

(* [max_cycles] bounds the run on every named machine, including the
   hardware cabinets and the uniprocessor. *)
let test_max_cycles_everywhere () =
  List.iter
    (fun name ->
      let p = Machines.get ~max_cycles:1000 name in
      let n = if name = "dec" then 1 else 4 in
      match p.Platform.run (Registry.app ~scale:Registry.Quick "sor") ~nprocs:n with
      | _ -> Alcotest.failf "%s ignored ~max_cycles:1000" name
      | exception Shm_sim.Engine.Watchdog _ -> ())
    Machines.names

(* Every DSM node starts from the initial image, whichever of its pages
   were copied in: one page is all zero (left on the node's zero-filled
   mapping) and one holds a single non-zero word, the last one, whose bit
   pattern is negative zero.  Each processor checks every word before
   anyone writes and reports its matches through the checksum. *)
let seeding_app =
  let shared_words = 2045 (* not a whole number of pages *) in
  let slot p = 1536 + p and sum = 1540 in
  let expected i =
    if i < 512 then Int64.bits_of_float (float_of_int (i + 1) *. 0.25)
    else if i = 1535 then Int64.bits_of_float (-0.0)
    else if i <= sum then 0L
    else Int64.of_int (i * 7919)
  in
  {
    Parmacs.name = "seeding";
    shared_words;
    eager_lock_hints = [];
    init =
      (fun mem ->
        for i = 0 to shared_words - 1 do
          Memory.set mem i (expected i)
        done);
    work =
      (fun ctx ->
        let ok = ref 0 in
        for i = 0 to shared_words - 1 do
          if ctx.Parmacs.read i = expected i then incr ok
        done;
        ctx.barrier 0;
        Parmacs.write_i ctx (slot ctx.id) !ok;
        ctx.barrier 1;
        if ctx.id = 0 then begin
          let total = ref 0 in
          for p = 0 to ctx.nprocs - 1 do
            total := !total + Parmacs.read_i ctx (slot p)
          done;
          Parmacs.write_f ctx sum (float_of_int !total)
        end);
    checksum_addr = sum;
    stats = Parmacs.no_stats;
  }

let test_node_image_seeding () =
  List.iter
    (fun (name, p) ->
      let r = run_on name p seeding_app ~n:4 in
      Alcotest.(check (float 0.0))
        (name ^ ": every processor saw the initial image")
        (float_of_int (4 * seeding_app.Parmacs.shared_words))
        r.Report.checksum)
    [
      ("lrc*4", Machines.topology "lrc*4");
      ("ivy", Machines.get "ivy");
      ("lrc(mesi*2, 2)", Machines.topology "lrc(mesi*2, 2)");
    ]

let suite =
  [
    Alcotest.test_case "SOR exact on every platform" `Slow
      test_sor_exact_everywhere;
    Alcotest.test_case "TSP exact on every platform" `Slow
      test_tsp_exact_everywhere;
    Alcotest.test_case "ILINK exact across platforms" `Slow
      test_ilink_exact_everywhere;
    Alcotest.test_case "Water agrees within tolerance" `Slow
      test_water_close_everywhere;
    Alcotest.test_case "runs are reproducible" `Quick
      test_runs_are_reproducible;
    Alcotest.test_case "SGI beats TreadMarks on lock-heavy Water" `Slow
      test_lock_heavy_relationship;
    Alcotest.test_case "kernel-level beats user-level" `Slow
      test_kernel_beats_user_on_water;
    Alcotest.test_case "hardware lock mutual exclusion" `Quick
      test_hw_sync_mutual_exclusion;
    Alcotest.test_case "hardware barrier separates phases" `Quick
      test_hw_sync_barrier_phases;
    Alcotest.test_case "report helpers" `Quick test_report_helpers;
    Alcotest.test_case "machine registry" `Quick test_machines_registry;
    Alcotest.test_case "DSM nodes seeded from the initial image" `Quick
      test_node_image_seeding;
    Alcotest.test_case "max_cycles bounds every machine" `Quick
      test_max_cycles_everywhere;
  ]
