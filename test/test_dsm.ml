(* The software-DSM managers, driven directly: IVY's and Tardis' home
   manager (transaction serialization, the lock manager, the end-of-run
   drain check, the engines' protocol-error printer) and the role record
   every software DSM shares (lock placement, the counting barrier and
   re-homing after a crash). *)

module Home = Shm_dsm.Home
module Roles = Shm_dsm.Roles
module Counters = Shm_stats.Counters
module Engine = Shm_sim.Engine
module Lifecycle = Shm_sim.Lifecycle
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Parmacs = Shm_parmacs.Parmacs

let home ?(n_nodes = 2) () = Home.create ~engine:"test" ~n_nodes ~n_pages:4 Fun.id

let roles ?(n_nodes = 2) counters =
  Roles.create ~engine:"test" counters ~n_nodes ()

let test_serializer_fifo () =
  let h = home () in
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
  let h = home () in
  let ml = Home.lock h 3 in
  Alcotest.(check int) "static home" 1
    (Roles.lock_home (roles (Counters.create ())) 3);
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
  let r = roles ~n_nodes:3 counters in
  (* The arrival payload is the engine's: here (node, req, stamp). *)
  let departs = Alcotest.(list (triple int int int)) in
  let arrive ~node ~req ~stamp = Roles.arrive r ~id:2 (node, req, stamp) in
  Alcotest.check departs "first" [] (arrive ~node:0 ~req:5 ~stamp:4);
  Alcotest.check departs "second" [] (arrive ~node:1 ~req:6 ~stamp:9);
  Alcotest.(check int) "no episode yet" 0
    (Counters.get counters "test.barriers");
  Alcotest.check departs "n-th departs everyone, newest first"
    [ (2, 7, 2); (1, 6, 9); (0, 5, 4) ]
    (arrive ~node:2 ~req:7 ~stamp:2);
  Alcotest.(check int) "episode counted" 1
    (Counters.get counters "test.barriers");
  Alcotest.check departs "next episode starts empty" []
    (arrive ~node:1 ~req:8 ~stamp:0);
  Alcotest.(check int) "home" 0 (Roles.barrier_home r)

(* Nodes 3 and 0 of 4 are down.  Re-homing node 3 skips node 0 and
   wraps to node 1; re-homing node 0 moves its locks and the barrier to
   node 1.  Only the locks the engine enumerates move, each hook runs
   once per moved role, and [recovery.rehomes] counts them. *)
let test_rehome () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let lc = Lifecycle.create eng counters Lifecycle.none ~nodes:4 in
  let r = roles ~n_nodes:4 counters in
  let lock_moves = ref [] and barrier_moves = ref [] in
  let rehome ~dead ~locks =
    Roles.rehome r lc ~dead
      ~locks:(fun f -> List.iter f locks)
      ~move_lock:(fun l ~succ -> lock_moves := (l, succ) :: !lock_moves)
      ~move_barrier:(fun ~succ -> barrier_moves := succ :: !barrier_moves)
      ()
  in
  let after_3 = ref (0, []) in
  ignore
    (Engine.spawn eng ~name:"crasher" ~at:0 (fun f ->
         Lifecycle.crash lc 3 ~at:(Engine.clock f);
         Lifecycle.crash lc 0 ~at:(Engine.clock f);
         rehome ~dead:3 ~locks:[ 0; 1; 2; 3; 5; 6; 7 ];
         after_3 := (Counters.get counters "recovery.rehomes", !barrier_moves);
         (* Lock 4 is not enumerated: it stays at its static home. *)
         rehome ~dead:0 ~locks:[ 0; 1; 2; 3; 5; 6; 7 ]));
  Engine.run eng;
  let moves = Alcotest.(list (pair int int)) in
  Alcotest.(check (pair int (list int))) "node 3: two locks, no barrier"
    (2, []) !after_3;
  Alcotest.check moves "moved locks, in enumeration order"
    [ (3, 1); (7, 1); (0, 1) ]
    (List.rev !lock_moves);
  Alcotest.(check (list int)) "the barrier moved once" [ 1 ] !barrier_moves;
  Alcotest.(check int) "recovery.rehomes" 4
    (Counters.get counters "recovery.rehomes");
  Alcotest.(check (list int)) "lock homes" [ 1; 1; 2; 1; 0; 1; 2; 1 ]
    (List.init 8 (Roles.lock_home r));
  Alcotest.(check int) "barrier home" 1 (Roles.barrier_home r);
  Alcotest.(check bool) "a request to the old home is stale" true
    (Roles.stale r ~self:3 (Roles.lock_home r 7));
  Alcotest.(check bool) "one at the new home is not" false
    (Roles.stale r ~self:1 (Roles.lock_home r 7));
  Alcotest.(check int) "recovery.forwards" 1
    (Counters.get counters "recovery.forwards")

let test_check_drained () =
  let h = home () in
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

(* A bad lock or barrier id fails the same way on every engine: with
   [Invalid_argument] at the calling processor, which can catch it, and
   before any message leaves it.  The software engines name themselves
   and the id. *)
let test_bad_ids () =
  let run machine protocol work =
    let app =
      {
        Parmacs.name = "bad-id";
        shared_words = 64;
        eager_lock_hints = [];
        init = ignore;
        work;
        checksum_addr = 0;
        stats = Parmacs.no_stats;
      }
    in
    (Machines.get ?protocol machine).Platform.run app ~nprocs:4
  in
  let ops =
    [
      ("lock", -1, fun (c : Parmacs.ctx) -> c.lock (-1));
      ("lock", 1024, fun c -> c.lock 1024);
      ("barrier", 16, fun c -> c.barrier 16);
    ]
  in
  List.iter
    (fun (machine, protocol, engine) ->
      let quiet = Report.offered (run machine protocol ignore) in
      List.iter
        (fun (kind, id, op) ->
          let label =
            Printf.sprintf "%s%s: %s %d" machine
              (match protocol with Some p -> ":" ^ p | None -> "")
              kind id
          in
          let caught = ref None in
          let r =
            run machine protocol (fun c ->
                if c.Parmacs.id = 0 then
                  try op c with Invalid_argument m -> caught := Some m)
          in
          (match (!caught, engine) with
          | None, _ -> Alcotest.failf "%s: not refused at the caller" label
          | Some m, Some e ->
              let range = if kind = "lock" then 1024 else 16 in
              Alcotest.(check string) label
                (Printf.sprintf "%s: %s %d out of range [0, %d)" e kind id
                   range)
                m
          | Some _, None -> ());
          Alcotest.(check int) (label ^ ": no message") quiet
            (Report.offered r))
        ops)
    [
      ("ivy", None, Some "ivy");
      ("treadmarks", Some "tardis", Some "tardis");
      ("treadmarks", None, Some "tmk");
      ("sgi", None, None);
    ]

let suite =
  [
    Alcotest.test_case "serializer runs queued transactions FIFO" `Quick
      test_serializer_fifo;
    Alcotest.test_case "lock manager: FIFO grants, max release stamp" `Quick
      test_lock_fifo_stamp;
    Alcotest.test_case "barrier departs at n arrivals with the max stamp"
      `Quick test_barrier_departs_at_n;
    Alcotest.test_case "rehome skips dead nodes and moves each role once"
      `Quick test_rehome;
    Alcotest.test_case "check_drained: undrained page, stuck lock" `Quick
      test_check_drained;
    Alcotest.test_case "Proto_error names its engine" `Quick
      test_proto_error_names_engine;
    Alcotest.test_case "bad lock and barrier ids fail at the caller" `Quick
      test_bad_ids;
  ]
