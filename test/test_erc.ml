(* Tests for the eager-invalidate release-consistency mode (the ERC
   ablation): correctness equals lazy mode, invalidations arrive without
   synchronization, message counts blow up. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Config = Shm_tmk.Config
module System = Shm_tmk.System
module Parmacs = Shm_parmacs.Parmacs
module Registry = Shm_apps.Registry
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report

let make_cluster ~nodes ~shared_words () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let fabric =
    Fabric.create eng counters
      (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
      ~nodes
  in
  let memories = Array.init nodes (fun _ -> Memory.create ~words:shared_words) in
  let cfg =
    { (Config.default ~n_nodes:nodes ~shared_words) with
      notice_policy = Config.Eager_invalidate }
  in
  let sys = System.create eng counters fabric cfg ~memories in
  System.start sys;
  (eng, sys, counters)

(* Under ERC an unsynchronized reader eventually sees the new value: the
   release's broadcast invalidates its copy and the next read faults. *)
let test_erc_invalidates_without_sync () =
  let eng, sys, _ = make_cluster ~nodes:2 ~shared_words:1024 () in
  let observed = ref (-1) in
  ignore
    (Engine.spawn eng ~name:"writer" ~at:0 (fun f ->
         System.acquire sys f ~node:0 ~lock:0;
         System.write_guard sys f ~node:0 0;
         Memory.set_int (System.memory sys ~node:0) 0 7;
         System.release sys f ~node:0 ~lock:0));
  ignore
    (Engine.spawn eng ~name:"reader" ~at:0 (fun f ->
         Engine.wait_until f 100_000_000;
         System.read_guard sys f ~node:1 0;
         observed := Memory.get_int (System.memory sys ~node:1) 0));
  Engine.run eng;
  Alcotest.(check int) "eager notice invalidated the stale copy" 7 !observed

let test_erc_page_invalid_after_release () =
  let eng, sys, _ = make_cluster ~nodes:2 ~shared_words:1024 () in
  ignore
    (Engine.spawn eng ~name:"writer" ~at:0 (fun f ->
         System.acquire sys f ~node:0 ~lock:0;
         System.write_guard sys f ~node:0 0;
         Memory.set_int (System.memory sys ~node:0) 0 1;
         System.release sys f ~node:0 ~lock:0));
  ignore
    (Engine.spawn eng ~name:"checker" ~at:0 (fun f ->
         Engine.wait_until f 100_000_000;
         Alcotest.(check bool) "node 1 copy invalidated" false
           (System.page_valid sys ~node:1 ~page:0)));
  Engine.run eng

(* ERC and lazy produce bit-identical results on a real application. *)
let test_erc_matches_lazy_results () =
  let lazy_p = Machines.get "treadmarks" in
  let erc_p = Machines.get "treadmarks-erc" in
  List.iter
    (fun name ->
      let app () = Registry.app ~scale:Registry.Quick name in
      let a = (lazy_p.Platform.run (app ()) ~nprocs:4).Report.checksum in
      let b = (erc_p.Platform.run (app ()) ~nprocs:4).Report.checksum in
      Alcotest.(check (float 0.0)) (name ^ " identical") a b)
    [ "sor"; "tsp-small"; "ilink-clp" ]

(* The defining cost: ERC sends strictly more messages than LRC. *)
let test_erc_message_blowup () =
  let lazy_p = Machines.get "treadmarks" in
  let erc_p = Machines.get "treadmarks-erc" in
  let msgs p =
    let app = Registry.app ~scale:Registry.Quick "m-water" in
    Report.get (p.Platform.run app ~nprocs:8) "net.msgs.total"
  in
  let l = msgs lazy_p and e = msgs erc_p in
  Alcotest.(check bool)
    (Printf.sprintf "ERC %d > 1.5x LRC %d" e l)
    true
    (e > l * 3 / 2)

let suite =
  [
    Alcotest.test_case "ERC invalidates without sync" `Quick
      test_erc_invalidates_without_sync;
    Alcotest.test_case "ERC page state after release" `Quick
      test_erc_page_invalid_after_release;
    Alcotest.test_case "ERC matches lazy results" `Slow
      test_erc_matches_lazy_results;
    Alcotest.test_case "ERC sends more messages" `Slow test_erc_message_blowup;
  ]
