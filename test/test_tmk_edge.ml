(* Edge-case tests of the TreadMarks engine: notice transitivity through
   lock chains, diff minimality (the SOR effect), HS-style coalescing,
   eager-update/fault interplay, contended lock queueing, non-zero barrier
   managers, and interval linearization. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Vc = Shm_tmk.Vc
module Diff = Shm_tmk.Diff
module Record = Shm_tmk.Record
module Config = Shm_tmk.Config
module System = Shm_tmk.System

type cluster = { eng : Engine.t; sys : System.t; counters : Counters.t }

let make_cluster ?(eager_locks = []) ?(barrier_manager = 0) ~nodes
    ~shared_words () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let fabric =
    Fabric.create eng counters
      (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
      ~nodes
  in
  let memories = Array.init nodes (fun _ -> Memory.create ~words:shared_words) in
  let cfg =
    { (Config.default ~n_nodes:nodes ~shared_words) with eager_locks;
      barrier_manager }
  in
  let sys = System.create eng counters fabric cfg ~memories in
  System.start sys;
  { eng; sys; counters }

let spawn c ~node body =
  ignore (Engine.spawn c.eng ~name:(Printf.sprintf "node%d" node) ~at:0 body)

let read c f ~node addr =
  Shm_dsm.Paged.read_guard c.sys f ~node addr;
  Memory.get_int (System.memory c.sys ~node) addr

let write c f ~node addr v =
  Shm_dsm.Paged.write_guard c.sys f ~node addr;
  Memory.set_int (System.memory c.sys ~node) addr v

(* Causality is transitive: node 0's write travels to node 2 via a lock
   chain through node 1, even though 0 and 2 never synchronize directly. *)
let test_notice_transitivity () =
  let c = make_cluster ~nodes:3 ~shared_words:1024 () in
  let seen = ref (-1) in
  spawn c ~node:0 (fun f ->
      System.acquire c.sys f ~node:0 ~lock:0;
      write c f ~node:0 0 42;
      System.release c.sys f ~node:0 ~lock:0);
  spawn c ~node:1 (fun f ->
      Engine.wait_until f 10_000_000;
      System.acquire c.sys f ~node:1 ~lock:0;
      System.release c.sys f ~node:1 ~lock:0;
      (* Pass the causal knowledge on through a different lock. *)
      System.acquire c.sys f ~node:1 ~lock:7;
      System.release c.sys f ~node:1 ~lock:7);
  spawn c ~node:2 (fun f ->
      Engine.wait_until f 50_000_000;
      System.acquire c.sys f ~node:2 ~lock:7;
      seen := read c f ~node:2 0;
      System.release c.sys f ~node:2 ~lock:7);
  Engine.run c.eng;
  Alcotest.(check int) "write visible transitively" 42 !seen;
  System.check_invariants c.sys

(* The SOR effect: rewriting a page with identical values produces an
   empty diff, so almost no payload moves. *)
let test_diff_minimality () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  spawn c ~node:0 (fun f ->
      (* Write 512 words with the values they already hold (zero). *)
      for i = 0 to 511 do
        write c f ~node:0 i 0
      done;
      (* ...and one word that actually changes. *)
      write c f ~node:0 7 99;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  spawn c ~node:1 (fun f ->
      System.barrier_arrive c.sys f ~node:1 ~id:0;
      ignore (read c f ~node:1 0));
  Engine.run c.eng;
  let payload = Counters.get c.counters "net.bytes.payload" in
  Alcotest.(check bool)
    (Printf.sprintf "tiny diff payload (%d bytes)" payload)
    true
    (payload < 64);
  System.check_invariants c.sys

(* HS-style coalescing: two processors of one node writing the same page
   produce a single twin and a single merged diff. *)
let test_node_coalescing () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  let barrier_done = ref false in
  for cpu = 0 to 1 do
    ignore
      (Engine.spawn c.eng ~name:(Printf.sprintf "n0c%d" cpu) ~at:0 (fun f ->
           write c f ~node:0 (cpu * 10) (100 + cpu);
           Engine.wait_until f (Engine.clock f + 1000);
           if not !barrier_done then begin
             barrier_done := true;
             System.barrier_arrive c.sys f ~node:0 ~id:0
           end))
  done;
  spawn c ~node:1 (fun f ->
      System.barrier_arrive c.sys f ~node:1 ~id:0;
      let a = read c f ~node:1 0 in
      let b = read c f ~node:1 10 in
      Alcotest.(check (list int)) "both CPUs' writes in one diff" [ 100; 101 ]
        [ a; b ]);
  Engine.run c.eng;
  Alcotest.(check int) "one twin" 1 (Counters.get c.counters "tmk.twins");
  Alcotest.(check int) "one diff created" 1
    (Counters.get c.counters "tmk.diffs_created")

(* Heavily contended lock: every increment happens exactly once (the
   distributed queue forwards, queues and grants correctly). *)
let test_contended_lock () =
  let nodes = 6 in
  let c = make_cluster ~nodes ~shared_words:1024 () in
  let per_node = 8 in
  let final = ref 0 in
  for node = 0 to nodes - 1 do
    spawn c ~node (fun f ->
        for _ = 1 to per_node do
          System.acquire c.sys f ~node ~lock:11;
          let v = read c f ~node 0 in
          (* A think-time window widens the race if exclusion is broken. *)
          Engine.wait_until f (Engine.clock f + 500);
          write c f ~node 0 (v + 1);
          System.release c.sys f ~node ~lock:11
        done;
        System.barrier_arrive c.sys f ~node ~id:0;
        if node = 0 then final := read c f ~node 0)
  done;
  Engine.run c.eng;
  Alcotest.(check int) "no lost updates" (nodes * per_node) !final

(* Barrier manager on a non-zero node works the same. *)
let test_barrier_manager_elsewhere () =
  let c = make_cluster ~barrier_manager:2 ~nodes:3 ~shared_words:2048 () in
  let sum = ref 0 in
  for node = 0 to 2 do
    spawn c ~node (fun f ->
        write c f ~node (node * 600) (node + 1);
        System.barrier_arrive c.sys f ~node ~id:1;
        if node = 2 then begin
          let s = ref 0 in
          for k = 0 to 2 do
            s := !s + read c f ~node:2 (k * 600)
          done;
          sum := !s
        end)
  done;
  Engine.run c.eng;
  Alcotest.(check int) "all writes visible at manager 2" 6 !sum

(* Eager updates reaching a node mid-fault do not corrupt the page. *)
let test_eager_update_during_activity () =
  let c = make_cluster ~eager_locks:[ 3 ] ~nodes:3 ~shared_words:2048 () in
  (* Page 0 is the eager page; page 1 is ordinary barrier-synced data. *)
  spawn c ~node:0 (fun f ->
      write c f ~node:0 512 7;
      System.barrier_arrive c.sys f ~node:0 ~id:0;
      for k = 1 to 5 do
        System.acquire c.sys f ~node:0 ~lock:3;
        write c f ~node:0 0 k;
        System.release c.sys f ~node:0 ~lock:3
      done;
      System.barrier_arrive c.sys f ~node:0 ~id:1);
  for node = 1 to 2 do
    spawn c ~node (fun f ->
        System.barrier_arrive c.sys f ~node ~id:0;
        (* Fault page 1 repeatedly while eager updates for page 0 arrive. *)
        for _ = 1 to 5 do
          ignore (read c f ~node 512);
          Engine.wait_until f (Engine.clock f + 200_000)
        done;
        System.barrier_arrive c.sys f ~node ~id:1;
        Alcotest.(check int)
          (Printf.sprintf "node %d sees final eager value" node)
          5
          (read c f ~node 0))
  done;
  Engine.run c.eng;
  System.check_invariants c.sys;
  Alcotest.(check bool) "eager applies happened" true
    (Counters.get c.counters "tmk.eager_applies" > 0)

(* Interval records linearize consistently with happened-before-1.  A
   record keeps only the sum of its vector time, so happened-before is
   decided here on the generated vectors themselves. *)
let prop_linear_key_respects_order =
  let happened_before a b = (not (Vc.equal a b)) && Vc.dominates b a in
  QCheck.Test.make ~count:200 ~name:"linear_key extends happened-before"
    QCheck.(pair (array_of_size (QCheck.Gen.return 4) (int_bound 20))
              (array_of_size (QCheck.Gen.return 4) (int_bound 20)))
    (fun (a, b) ->
      let ra = Record.make ~creator:0 ~seqno:a.(0) ~vsum:(Vc.sum a) ~pages:[] in
      let rb = Record.make ~creator:1 ~seqno:b.(1) ~vsum:(Vc.sum b) ~pages:[] in
      (not (happened_before a b))
      || Record.linear_key ra < Record.linear_key rb)

(* Two nodes hammering disjoint words of one page through different locks:
   multiple-writer correctness under lock-based (not barrier) sync. *)
let test_multiwriter_through_locks () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  let rounds = 10 in
  for node = 0 to 1 do
    spawn c ~node (fun f ->
        for r = 1 to rounds do
          System.acquire c.sys f ~node ~lock:node;
          write c f ~node (node * 8) r;
          System.release c.sys f ~node ~lock:node
        done;
        System.barrier_arrive c.sys f ~node ~id:0;
        let a = read c f ~node 0 and b = read c f ~node 8 in
        Alcotest.(check (list int))
          (Printf.sprintf "node %d merged view" node)
          [ rounds; rounds ] [ a; b ])
  done;
  Engine.run c.eng;
  System.check_invariants c.sys

let suite =
  [
    Alcotest.test_case "write notices are transitive" `Quick
      test_notice_transitivity;
    Alcotest.test_case "identical rewrites make empty diffs" `Quick
      test_diff_minimality;
    Alcotest.test_case "same-node writes coalesce" `Quick test_node_coalescing;
    Alcotest.test_case "contended lock loses no updates" `Quick
      test_contended_lock;
    Alcotest.test_case "barrier manager on node 2" `Quick
      test_barrier_manager_elsewhere;
    Alcotest.test_case "eager updates during faults" `Quick
      test_eager_update_during_activity;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x9A13)
      prop_linear_key_respects_order;
    Alcotest.test_case "multiple writers through locks" `Quick
      test_multiwriter_through_locks;
  ]
