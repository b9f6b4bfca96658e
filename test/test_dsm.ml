(* The software-DSM home manager shared by IVY and Tardis, driven
   directly: transaction serialization, the lock and barrier managers,
   the end-of-run drain check and the engines' protocol-error printer. *)

module Home = Shm_dsm.Home
module Counters = Shm_stats.Counters

let home ?(n_nodes = 2) counters =
  Home.create ~engine:"test" counters ~n_nodes ~n_pages:4
    ~barrier_counter:"test.barriers" Fun.id

let test_serializer_fifo () =
  let h = home (Counters.create ()) in
  Alcotest.(check bool) "idle page starts" true (Home.request h 1 "a");
  Alcotest.(check bool) "busy page queues" false (Home.request h 1 "b");
  Alcotest.(check bool) "busy page queues" false (Home.request h 1 "c");
  Alcotest.(check bool) "other pages stay idle" true (Home.request h 2 "x");
  Alcotest.(check (option string)) "current" (Some "a") (Home.current h 1);
  Alcotest.(check (option string)) "next" (Some "b") (Home.txn_done h 1);
  Alcotest.(check (option string)) "current" (Some "b") (Home.current h 1);
  Alcotest.(check (option string)) "next" (Some "c") (Home.txn_done h 1);
  Alcotest.(check (option string)) "drained" None (Home.txn_done h 1);
  Alcotest.(check bool) "idle again" false (Home.busy h 1);
  Alcotest.(check int) "page record" 3 (Home.page h 3);
  Alcotest.(check int) "static manager" 1 (Home.manager h 3)

let test_lock_fifo_stamp () =
  let h = home (Counters.create ()) in
  let ml = Home.lock h 3 in
  Alcotest.(check int) "static home" 1 (Home.lock_home h 3);
  Alcotest.(check bool) "free lock granted" true
    (Home.lock_req ml ~requester:0 ~req:10);
  Alcotest.(check bool) "held lock queues" false
    (Home.lock_req ml ~requester:1 ~req:11);
  Alcotest.(check bool) "held lock queues" false
    (Home.lock_req ml ~requester:2 ~req:12);
  let next = Alcotest.(option (pair int int)) in
  Alcotest.check next "oldest waiter" (Some (1, 11)) (Home.unlock ml ~stamp:5);
  Alcotest.(check int) "stamp raised" 5 ml.Home.stamp;
  Alcotest.check next "next waiter" (Some (2, 12)) (Home.unlock ml ~stamp:3);
  Alcotest.(check int) "stamp keeps the max" 5 ml.Home.stamp;
  Alcotest.check next "no waiter" None (Home.unlock ml ~stamp:7);
  Alcotest.(check int) "stamp raised" 7 ml.Home.stamp;
  Alcotest.(check bool) "free" false ml.Home.held;
  Alcotest.(check bool) "same record" true (Home.lock h 3 == ml)

let test_barrier_departs_at_n () =
  let counters = Counters.create () in
  let h = home ~n_nodes:3 counters in
  let departs = Alcotest.(list (pair int int)) in
  let arrive ~node ~req ~stamp =
    Home.barrier_arrive h ~id:2 ~node ~req ~stamp
  in
  Alcotest.check departs "first" [] (arrive ~node:0 ~req:5 ~stamp:4);
  Alcotest.check departs "second" [] (arrive ~node:1 ~req:6 ~stamp:9);
  Alcotest.(check int) "no episode yet" 0
    (Counters.get counters "test.barriers");
  Alcotest.check departs "n-th departs everyone, newest first"
    [ (2, 7); (1, 6); (0, 5) ]
    (arrive ~node:2 ~req:7 ~stamp:2);
  Alcotest.(check int) "max stamp" 9 (Home.barrier_stamp h 2);
  Alcotest.(check int) "episode counted" 1
    (Counters.get counters "test.barriers");
  Alcotest.check departs "next episode starts empty" []
    (arrive ~node:1 ~req:8 ~stamp:0);
  Alcotest.(check int) "home" 0 (Home.barrier_home h)

let test_check_drained () =
  let h = home (Counters.create ()) in
  Home.check_drained h;
  ignore (Home.request h 2 "a");
  Alcotest.check_raises "undrained page"
    (Failure "test: page 2 transaction never drained") (fun () ->
      Home.check_drained h);
  ignore (Home.txn_done h 2);
  let ml = Home.lock h 5 in
  ignore (Home.lock_req ml ~requester:0 ~req:1);
  ignore (Home.lock_req ml ~requester:1 ~req:2);
  Home.check_drained h;
  (* Corrupt the manager: a waiter stranded behind a free lock. *)
  ml.Home.held <- false;
  Alcotest.check_raises "stuck lock queue"
    (Failure "test: lock 5 free with 1 queued requests") (fun () ->
      Home.check_drained h)

let test_proto_error_names_engine () =
  let ivy =
    Shm_ivy.System.Proto_error
      { page = 3; requester = 1; manager = 0; state = "s" }
  and tardis =
    Shm_tardis.System.Proto_error
      { page = 4; requester = 2; manager = 1; state = "t" }
  in
  Alcotest.(check string) "ivy"
    "Ivy.Proto_error: page 3, requester 1, manager 0: s"
    (Printexc.to_string ivy);
  Alcotest.(check string) "tardis"
    "Tardis.Proto_error: page 4, requester 2, manager 1: t"
    (Printexc.to_string tardis)

let suite =
  [
    Alcotest.test_case "serializer runs queued transactions FIFO" `Quick
      test_serializer_fifo;
    Alcotest.test_case "lock manager: FIFO grants, max release stamp" `Quick
      test_lock_fifo_stamp;
    Alcotest.test_case "barrier departs at n arrivals with the max stamp"
      `Quick test_barrier_departs_at_n;
    Alcotest.test_case "check_drained: undrained page, stuck lock" `Quick
      test_check_drained;
    Alcotest.test_case "Proto_error names its engine" `Quick
      test_proto_error_names_engine;
  ]
