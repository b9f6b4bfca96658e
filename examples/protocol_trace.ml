(* A guided tour of the lazy-release-consistency protocol, driving the
   TreadMarks engine directly (no application, no platform).

     dune exec examples/protocol_trace.exe

   Three nodes share four pages.  The trace shows twins being created on
   first writes, intervals closing at releases, write notices invalidating
   pages at acquires, and diffs being fetched on faults — with vector
   clocks printed at each step. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Vc = Shm_tmk.Vc
module Config = Shm_tmk.Config
module System = Shm_tmk.System

let nodes = 3
let page_words = Shm_parmacs.Parmacs.page_words
let shared_words = 4 * page_words

let show sys ~node what =
  Printf.printf "  node %d %-28s vc=%s  pages=[%s]\n" node what
    (Format.asprintf "%a" Vc.pp (System.vc sys ~node))
    (String.concat ""
       (List.init 4 (fun p ->
            if System.page_valid sys ~node ~page:p then "V" else "-")))

let () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let fabric =
    Fabric.create eng counters
      (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
      ~nodes
  in
  let memories = Array.init nodes (fun _ -> Memory.create ~words:shared_words) in
  let cfg = Config.default ~n_nodes:nodes ~shared_words in
  let sys = System.create eng counters fabric cfg ~memories in
  System.start sys;

  print_endline "Lazy release consistency, step by step:\n";

  let spawn node body =
    ignore (Engine.spawn eng ~name:(Printf.sprintf "node%d" node) ~at:0 body)
  in

  (* Node 0: writes page 0 under lock 5, then page 1 before a barrier. *)
  spawn 0 (fun f ->
      System.acquire sys f ~node:0 ~lock:5;
      show sys ~node:0 "acquired lock 5";
      Shm_dsm.Paged.write_guard sys f ~node:0 10;
      Memory.set_int memories.(0) 10 111;
      show sys ~node:0 "wrote page 0 (twin made)";
      System.release sys f ~node:0 ~lock:5;
      show sys ~node:0 "released (interval closed)";
      Shm_dsm.Paged.write_guard sys f ~node:0 (page_words + 7);
      Memory.set_int memories.(0) (page_words + 7) 222;
      System.barrier_arrive sys f ~node:0 ~id:0;
      show sys ~node:0 "passed barrier");

  (* Node 1: acquires the same lock after node 0; the grant's write
     notices invalidate its copy of page 0, and reading it faults and
     fetches node 0's diff. *)
  spawn 1 (fun f ->
      Engine.wait_until f 1_000_000;
      System.acquire sys f ~node:1 ~lock:5;
      show sys ~node:1 "acquired lock 5 (page 0 invalid)";
      Shm_dsm.Paged.read_guard sys f ~node:1 10;
      Printf.printf "  node 1 read word 10 -> %d (diff fetched and applied)\n"
        (Memory.get_int memories.(1) 10);
      show sys ~node:1 "after fault";
      System.release sys f ~node:1 ~lock:5;
      System.barrier_arrive sys f ~node:1 ~id:0;
      show sys ~node:1 "passed barrier (page 1 invalid)";
      Shm_dsm.Paged.read_guard sys f ~node:1 (page_words + 7);
      Printf.printf "  node 1 read word %d -> %d\n" (page_words + 7)
        (Memory.get_int memories.(1) (page_words + 7)));

  (* Node 2 only participates in the barrier: it learns about both
     intervals there, but pages are fetched lazily — only if touched. *)
  spawn 2 (fun f ->
      System.barrier_arrive sys f ~node:2 ~id:0;
      show sys ~node:2 "passed barrier (lazy: nothing fetched)");

  Engine.run eng;
  System.check_invariants sys;

  Printf.printf "\nProtocol counters:\n";
  List.iter
    (fun name -> Printf.printf "  %-24s %d\n" name (Counters.get counters name))
    [
      "tmk.twins"; "tmk.intervals"; "tmk.diffs_created"; "tmk.diffs_applied";
      "tmk.faults"; "tmk.invalidations"; "tmk.lock_remote"; "tmk.lock_local";
      "net.msgs.total";
    ];
  Printf.printf "\nSimulated time: %.3f ms at 40 MHz\n"
    (float_of_int (Engine.now eng) /. 40e3)
