(* Tests for the discrete-event kernel: event ordering, fiber clocks,
   mailboxes, resources, deadlock detection. *)

module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Resource = Shm_sim.Resource
module Waitq = Shm_sim.Waitq
module Pqueue = Shm_sim.Pqueue
module Prng = Shm_sim.Prng

let test_pqueue_order () =
  let q = Pqueue.create ~dummy:0 in
  let rng = Prng.create ~seed:42 in
  let items = List.init 1000 (fun i -> (Prng.int rng 100, i)) in
  List.iter (fun (time, v) -> Pqueue.push q ~time v) items;
  let last_time = ref (-1) in
  let seen = ref [] in
  while not (Pqueue.is_empty q) do
    let time, v = Pqueue.pop q in
    Alcotest.(check bool) "non-decreasing" true (time >= !last_time);
    last_time := time;
    seen := v :: !seen
  done;
  Alcotest.(check int) "all popped" 1000 (List.length !seen)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~dummy:0 in
  for i = 0 to 99 do
    Pqueue.push q ~time:7 i
  done;
  for i = 0 to 99 do
    let _, v = Pqueue.pop q in
    Alcotest.(check int) "insertion order on equal keys" i v
  done

let test_fiber_clocks () =
  let eng = Engine.create () in
  let log = ref [] in
  let spawn name at work =
    ignore
      (Engine.spawn eng ~name ~at (fun f ->
           Engine.advance f work;
           Engine.sync f;
           log := (name, Engine.clock f) :: !log))
  in
  spawn "a" 0 10;
  spawn "b" 5 2;
  Engine.run eng;
  let log = List.rev !log in
  Alcotest.(check (list (pair string int)))
    "b syncs at 7 before a at 10"
    [ ("b", 7); ("a", 10) ]
    log

let test_wait_until () =
  let eng = Engine.create () in
  let result = ref 0 in
  ignore
    (Engine.spawn eng ~name:"w" ~at:3 (fun f ->
         Engine.wait_until f 100;
         result := Engine.clock f));
  Engine.run eng;
  Alcotest.(check int) "clock moved" 100 !result

let test_suspend_resume () =
  let eng = Engine.create () in
  let order = ref [] in
  let sleeper = ref None in
  ignore
    (Engine.spawn eng ~name:"sleeper" ~at:0 (fun f ->
         sleeper := Some f;
         Engine.suspend f;
         order := ("woke", Engine.clock f) :: !order));
  ignore
    (Engine.spawn eng ~name:"waker" ~at:50 (fun f ->
         (match !sleeper with
         | Some s -> Engine.resume eng s ~at:(Engine.clock f + 5)
         | None -> Alcotest.fail "sleeper not started");
         order := ("waker", Engine.clock f) :: !order));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "resume at requested time"
    [ ("woke", 55); ("waker", 50) ]
    !order

(* A fiber still parked when the run ends is unwound by [release] (its
   stack is freed only then), and only by it. *)
let test_release_unwinds_parked () =
  let eng = Engine.create () in
  let unwound = ref false in
  let daemon =
    Engine.spawn eng ~daemon:true ~name:"idle" ~at:0 (fun f ->
        Fun.protect
          ~finally:(fun () -> unwound := true)
          (fun () -> Engine.suspend f))
  in
  Engine.run eng;
  Alcotest.(check bool) "parked after run" true
    (Engine.is_suspended daemon && not !unwound);
  Engine.release eng;
  Alcotest.(check bool) "unwound by release" true
    ((not (Engine.is_suspended daemon)) && !unwound)

let test_deadlock_detection () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng ~name:"stuck" ~at:0 (fun f ->
         Engine.advance f 12;
         Engine.sync f;
         Engine.suspend f));
  ignore (Engine.spawn eng ~name:"bystander" ~at:0 (fun f -> Engine.advance f 3));
  match Engine.run eng with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock { time; blocked = [ ("stuck", clock) ]; _ } ->
      (* The diagnostics carry the drain time and the blocked fiber's own
         clock, so a stall is debuggable from the message alone. *)
      Alcotest.(check int) "blocked fiber clock" 12 clock;
      Alcotest.(check int) "engine time at drain" 12 time
  | exception Engine.Deadlock { blocked; _ } ->
      Alcotest.fail
        ("wrong names: " ^ String.concat "," (List.map fst blocked))

let test_pqueue_pop_releases_entry () =
  (* Regression for a space leak: the vacated slot after [pop] used to
     keep the last heap entry — and the event closure it carried —
     reachable for the queue's lifetime. *)
  let q = Pqueue.create ~dummy:(fun () -> 0) in
  let push_tracked () =
    let payload = Array.make 1024 0 in
    let w = Weak.create 1 in
    Weak.set w 0 (Some payload);
    Pqueue.push q ~time:1 (fun () -> Array.length payload);
    w
  in
  let w = push_tracked () in
  (* A second entry so pop exercises the sift-down path too. *)
  Pqueue.push q ~time:2 (fun () -> 0);
  ignore (Pqueue.pop q);
  ignore (Pqueue.pop q);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool)
    "popped closure is collectable" true
    (Weak.get w 0 = None)

let test_daemon_no_deadlock () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng ~daemon:true ~name:"daemon" ~at:0 (fun f ->
         Engine.suspend f));
  ignore (Engine.spawn eng ~name:"worker" ~at:0 (fun f -> Engine.advance f 5));
  Engine.run eng

let test_mailbox_delivery_time () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref (-1) in
  ignore
    (Engine.spawn eng ~name:"recv" ~at:0 (fun f ->
         let v = Mailbox.recv f mb in
         got := v;
         Alcotest.(check int) "clock at delivery" 40 (Engine.clock f)));
  ignore
    (Engine.spawn eng ~name:"send" ~at:10 (fun f ->
         Mailbox.post mb ~at:(Engine.clock f + 30) 99));
  Engine.run eng;
  Alcotest.(check int) "value" 99 !got

let test_mailbox_ordering () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Mailbox.post mb ~at:20 "second";
  Mailbox.post mb ~at:10 "first";
  ignore
    (Engine.spawn eng ~name:"recv" ~at:0 (fun f ->
         let first = Mailbox.recv f mb in
         let second = Mailbox.recv f mb in
         got := [ first; second ]));
  Engine.run eng;
  Alcotest.(check (list string)) "time order" [ "first"; "second" ] !got

(* A delivery wakes a parked receiver.  The three cases below pin the
   order of events against lists derived by hand from the rule "equal
   times pop in push order". *)
let handoff_order ~other_at =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s@%d" s (Engine.now eng) :: !log in
  ignore
    (Engine.spawn eng ~name:"recv" ~at:0 (fun f ->
         let v = Mailbox.recv f mb in
         note v;
         Engine.schedule eng ~at:11 (fun () -> note "after-recv")));
  Mailbox.post mb ~at:10 "recv";
  Engine.schedule eng ~at:other_at (fun () -> note "other");
  Engine.run eng;
  List.rev !log

(* The other event is due in the delivery's cycle and was queued before
   the receiver's resume, so it runs first. *)
let test_handoff_behind_due_event () =
  Alcotest.(check (list string)) "order"
    [ "other@10"; "recv@10"; "after-recv@11" ]
    (handoff_order ~other_at:10)

(* Nothing else is due at cycle 10: the receiver runs before every later
   event, and what it queues for cycle 11 follows what was queued there
   first. *)
let test_handoff_before_later_events () =
  Alcotest.(check (list string)) "order"
    [ "recv@10"; "other@11"; "after-recv@11" ]
    (handoff_order ~other_at:11)

let test_resume_here_inside_fiber () =
  let eng = Engine.create () in
  let sleeper =
    Engine.spawn eng ~name:"sleeper" ~at:0 (fun f -> Engine.suspend f)
  in
  ignore
    (Engine.spawn eng ~name:"waker" ~at:5 (fun _ ->
         Engine.resume_here eng sleeper));
  Alcotest.check_raises "raises"
    (Invalid_argument
       "Engine.resume_here: fiber sleeper resumed from inside a fiber")
    (fun () -> Engine.run eng)

let test_resource_contention () =
  let eng = Engine.create () in
  let r = Resource.create ~name:"bus" () in
  let finish = Hashtbl.create 4 in
  for i = 0 to 3 do
    ignore
      (Engine.spawn eng ~name:(string_of_int i) ~at:0 (fun f ->
           Resource.use f r ~cycles:10;
           Hashtbl.replace finish i (Engine.clock f)))
  done;
  Engine.run eng;
  let times = List.init 4 (fun i -> Hashtbl.find finish i) in
  Alcotest.(check (list int)) "serialized" [ 10; 20; 30; 40 ] times;
  Alcotest.(check int) "busy cycles" 40 (Resource.busy_cycles r)

let test_waitq_wake_all () =
  let eng = Engine.create () in
  let wq = Waitq.create eng in
  let woken = ref 0 in
  for i = 0 to 4 do
    ignore
      (Engine.spawn eng ~name:(Printf.sprintf "w%d" i) ~at:0 (fun f ->
           Waitq.wait f wq;
           incr woken))
  done;
  ignore
    (Engine.spawn eng ~name:"waker" ~at:10 (fun f ->
         Engine.sync f;
         let n = Waitq.wake_all wq ~at:(Engine.clock f) in
         Alcotest.(check int) "count" 5 n));
  Engine.run eng;
  Alcotest.(check int) "all woken" 5 !woken

let test_determinism () =
  let run () =
    let eng = Engine.create () in
    let trace = Buffer.create 64 in
    let rng = Prng.create ~seed:7 in
    for i = 0 to 9 do
      let delay = Prng.int rng 20 in
      ignore
        (Engine.spawn eng ~name:(string_of_int i) ~at:delay (fun f ->
             Engine.advance f (Prng.int rng 5);
             Engine.sync f;
             Buffer.add_string trace
               (Printf.sprintf "%s@%d;" (Engine.name f) (Engine.clock f))))
    done;
    Engine.run eng;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "pqueue pops in time order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue breaks ties FIFO" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "pqueue pop releases the vacated entry" `Quick
      test_pqueue_pop_releases_entry;
    Alcotest.test_case "fiber clocks interleave by time" `Quick test_fiber_clocks;
    Alcotest.test_case "wait_until advances the clock" `Quick test_wait_until;
    Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
    Alcotest.test_case "release unwinds parked fibers" `Quick
      test_release_unwinds_parked;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "daemons don't deadlock" `Quick test_daemon_no_deadlock;
    Alcotest.test_case "mailbox delivery time" `Quick test_mailbox_delivery_time;
    Alcotest.test_case "mailbox time ordering" `Quick test_mailbox_ordering;
    Alcotest.test_case "delivery behind an event due in its cycle" `Quick
      test_handoff_behind_due_event;
    Alcotest.test_case "delivery with none due runs first" `Quick
      test_handoff_before_later_events;
    Alcotest.test_case "resume_here refuses a fiber caller" `Quick
      test_resume_here_inside_fiber;
    Alcotest.test_case "resource serializes users" `Quick test_resource_contention;
    Alcotest.test_case "waitq wakes all" `Quick test_waitq_wake_all;
    Alcotest.test_case "engine is deterministic" `Quick test_determinism;
  ]
