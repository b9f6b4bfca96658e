(* The unreliable-network fault model and the user-level reliable
   request/reply layer.

   Unit level: duplicate suppression, FIFO preservation under jitter, the
   exponential-backoff retransmission schedule, Peer_unreachable after
   retry exhaustion, and the watchdog's pending-retransmission note.

   Application level: the reliability contract of DESIGN.md §9 — for any
   seeded fault schedule (drop/dup up to 20%, delay jitter), every Quick
   five-app run on the software-DSM platforms completes with checksums
   identical to the fault-free run, with retransmissions whenever a data
   packet was lost, and with a reproducible trace per seed. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Msg = Shm_net.Msg
module Overhead = Shm_net.Overhead
module Fabric = Shm_net.Fabric
module Reliable = Shm_net.Reliable
module Registry = Shm_apps.Registry
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Lifecycle = Shm_sim.Lifecycle
module Trace = Shm_sim.Trace
module Instrument = Shm_platform.Instrument

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A two-node channel with a recv-loop daemon per node (mirroring the DSM
   systems' handler fibers, which is what keeps acks flowing). *)
let mk_channel ?tracer ~faults ~nodes () =
  let eng = Engine.create ?tracer () in
  let counters = Counters.create () in
  let fab =
    Fabric.create eng counters
      { Fabric.name = "test"; latency_cycles = 100; bytes_per_cycle = 1.0;
        overhead = Overhead.hardware; faults }
      ~nodes
  in
  let rel = Reliable.create eng counters fab in
  Reliable.start rel;
  (eng, counters, rel)

let spawn_handler eng rel ~node ~on_msg =
  ignore
    (Engine.spawn eng ~daemon:true
       ~name:(Printf.sprintf "h%d" node)
       ~at:0
       (fun f ->
         let rec loop () =
           let env = Reliable.recv rel f ~node in
           on_msg env;
           loop ()
         in
         loop ()))

let test_passthrough_inert () =
  let eng, counters, rel = mk_channel ~faults:Fabric.no_faults ~nodes:2 () in
  Alcotest.(check bool) "not armed" false (Reliable.armed rel);
  let got = ref 0 in
  spawn_handler eng rel ~node:1 ~on_msg:(fun _ -> incr got);
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         for i = 0 to 2 do
           Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync
             ~size:(Msg.sizes ()) i
         done));
  Engine.run eng;
  Alcotest.(check int) "all delivered" 3 !got;
  Alcotest.(check int) "no sequencing machinery" 0
    (Counters.get counters "net.reliable.data");
  Alcotest.(check int) "no retransmissions" 0
    (Counters.get counters "net.retrans.total");
  Alcotest.(check int) "offered = delivered" 3
    (Counters.get counters "net.msgs.delivered")

let test_duplicate_suppression () =
  let faults = { Fabric.no_faults with Fabric.dup_rate = 1.0; fault_seed = 5 } in
  let eng, counters, rel = mk_channel ~faults ~nodes:2 () in
  let got = ref [] in
  spawn_handler eng rel ~node:0 ~on_msg:ignore;
  spawn_handler eng rel ~node:1 ~on_msg:(fun env ->
      got := env.Msg.body :: !got);
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         for i = 0 to 4 do
           Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync
             ~size:(Msg.sizes ()) i
         done));
  Engine.run eng;
  Alcotest.(check (list int)) "exactly once, in order" [ 0; 1; 2; 3; 4 ]
    (List.rev !got);
  Alcotest.(check int) "each data packet crossed the wire once" 5
    (Counters.get counters "net.reliable.data");
  (* dup_rate = 1.0: every data packet arrives twice; the second copy is
     suppressed.  (Acks are duplicated too, but dup acks are consumed
     silently and never counted here.) *)
  Alcotest.(check int) "one suppression per data packet" 5
    (Counters.get counters "net.reliable.dups")

let test_fifo_under_faults () =
  (* Jitter alone cannot reorder a single src->dst stream (the rx link
     serializes deliveries in send order); reordering comes from a drop
     whose retransmission lands after its successors.  The sequence layer
     buffers the early packets and releases them in order. *)
  let faults =
    { Fabric.no_faults with Fabric.drop_sync = 0.3; jitter_cycles = 500;
      fault_seed = 3 }
  in
  let eng, counters, rel = mk_channel ~faults ~nodes:2 () in
  let got = ref [] in
  spawn_handler eng rel ~node:0 ~on_msg:ignore;
  spawn_handler eng rel ~node:1 ~on_msg:(fun env ->
      got := env.Msg.body :: !got);
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         for i = 0 to 19 do
           Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync
             ~size:(Msg.sizes ()) i
         done));
  Engine.run eng;
  Alcotest.(check (list int)) "delivered exactly once, in order"
    (List.init 20 Fun.id) (List.rev !got);
  Alcotest.(check bool) "drops occurred" true
    (Counters.get counters "net.faults.dropped" > 0);
  Alcotest.(check bool) "early packets were buffered" true
    (Counters.get counters "net.reliable.ooo" > 0)

(* A blackout on one direction of the link for the first 3000 cycles:
   blacking out 0 -> 1 loses node 0's data, blacking out 1 -> 0 loses only
   node 1's standalone acks.  Returns the trace's [net.blackout] (every
   lost packet) and [net.drop.data] instants and the retransmissions. *)
let traced_drops ~blackout_src =
  let faults =
    { Fabric.no_faults with
      Fabric.blackouts =
        [ { Fabric.bo_src = Some blackout_src; bo_dst = None; bo_from = 0;
            bo_until = 3000 } ] }
  in
  let tr = Trace.create () in
  let eng, counters, rel =
    mk_channel ~tracer:(Trace.tracer tr) ~faults ~nodes:2 ()
  in
  spawn_handler eng rel ~node:0 ~on_msg:ignore;
  spawn_handler eng rel ~node:1 ~on_msg:ignore;
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync
           ~size:(Msg.sizes ()) 0));
  Engine.run eng;
  ( Trace.instant_count ~name:"net.blackout" tr,
    Trace.instant_count ~name:"net.drop.data" tr,
    Counters.get counters "net.retrans.total" )

let test_data_drops_traced_apart () =
  let lost, data, retrans = traced_drops ~blackout_src:0 in
  Alcotest.(check bool) "data was lost" true (lost > 0);
  Alcotest.(check int) "every loss is data" lost data;
  Alcotest.(check bool) "lost data is retransmitted" true (retrans >= data);
  let lost, data, _ = traced_drops ~blackout_src:1 in
  Alcotest.(check bool) "acks were lost" true (lost > 0);
  Alcotest.(check int) "no data lost" 0 data

(* Minor-heap words per reliable round trip on the Section-3 ATM fabric:
   a client on node 0 sends, an echo daemon on node 1 replies.  Armed
   means a fault policy whose only blackout no clock reaches, so sequence
   numbers, acks and retransmit timers all run but nothing is lost.  The
   count covers every fiber and engine event of the round trip.  The
   bounds sit one word above the measured counts (200 armed, 74
   unarmed). *)
let words_per_round_trip ~armed =
  let warmup = 1_000 and measured = 100_000 in
  let faults =
    if not armed then Fabric.no_faults
    else
      { Fabric.no_faults with
        Fabric.blackouts =
          [ { Fabric.bo_src = None; bo_dst = None; bo_from = max_int - 1;
              bo_until = max_int } ] }
  in
  let eng = Engine.create () in
  let counters = Counters.create () in
  let cfg =
    { (Fabric.atm_sim ~overhead:Overhead.treadmarks_user) with Fabric.faults }
  in
  let fab = Fabric.create eng counters cfg ~nodes:2 in
  let rel = Reliable.create eng counters fab in
  Alcotest.(check bool) "armed as asked" armed (Reliable.armed rel);
  Reliable.start rel;
  let size = Msg.sizes () in
  ignore
    (Engine.spawn eng ~daemon:true ~name:"echo" ~at:0 (fun f ->
         while true do
           let env = Reliable.recv rel f ~node:1 in
           Reliable.send rel f ~src:1 ~dst:0 ~class_:Msg.Sync ~size env.Msg.body
         done));
  let result = ref nan in
  ignore
    (Engine.spawn eng ~name:"client" ~at:0 (fun f ->
         let round_trips n =
           for i = 1 to n do
             Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync ~size i;
             ignore (Reliable.recv rel f ~node:0)
           done
         in
         round_trips warmup;
         let before = Gc.minor_words () in
         round_trips measured;
         result := (Gc.minor_words () -. before) /. float_of_int measured));
  Engine.run eng;
  !result

let test_round_trip_allocation () =
  List.iter
    (fun (armed, bound) ->
      let w = words_per_round_trip ~armed in
      if not (w < bound) then
        Alcotest.failf "%s round trip: %.1f minor words (want < %.0f)"
          (if armed then "armed" else "unarmed")
          w bound)
    [ (true, 201.0); (false, 75.0) ]

let drop_everything =
  { Fabric.no_faults with Fabric.drop_miss = 1.0; drop_sync = 1.0;
    fault_seed = 1 }

let test_backoff_and_peer_unreachable () =
  let eng, counters, rel = mk_channel ~faults:drop_everything ~nodes:2 () in
  spawn_handler eng rel ~node:1 ~on_msg:ignore;
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Miss
           ~size:(Msg.sizes ()) 42));
  let base = Reliable.base_timeout rel ~size:(Msg.sizes ()) in
  match Engine.run eng with
  | () -> Alcotest.fail "expected Peer_unreachable"
  | exception Reliable.Peer_unreachable { src; dst; seq; attempts } ->
      Alcotest.(check int) "src" 0 src;
      Alcotest.(check int) "dst" 1 dst;
      Alcotest.(check int) "seq" 0 seq;
      Alcotest.(check int) "attempts" (Reliable.max_retries + 1) attempts;
      Alcotest.(check int) "retransmissions" Reliable.max_retries
        (Counters.get counters "net.retrans.total");
      (* Exponential backoff: attempt k waits base * 2^k, so the give-up
         time is the full geometric series (plus small per-send costs). *)
      let series = (base * (1 lsl (Reliable.max_retries + 1))) - base in
      let t = Engine.now eng in
      Alcotest.(check bool)
        (Printf.sprintf "give-up time %d matches backoff series %d" t series)
        true
        (t >= series && t <= series + (4 * base))

(* Crash awareness comes from the fabric alone: with a lifecycle attached
   to an otherwise fault-free fabric, a packet to a crashed peer is
   reported once as a suspected death, parks until the restart instead
   of raising Peer_unreachable, and is delivered after it. *)
let test_lifecycle_parks_for_restart () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let fab =
    Fabric.create eng counters
      { Fabric.name = "test"; latency_cycles = 100; bytes_per_cycle = 1.0;
        overhead = Overhead.hardware; faults = Fabric.no_faults }
      ~nodes:2
  in
  let outage = 200_000 in
  let lc =
    Lifecycle.create eng counters
      { Lifecycle.none with Lifecycle.outage_cycles = outage }
      ~nodes:2
  in
  Fabric.attach_lifecycle fab lc;
  let rel = Reliable.create eng counters fab in
  Reliable.start rel;
  Lifecycle.start lc;
  let arrived = ref [] in
  spawn_handler eng rel ~node:0 ~on_msg:ignore;
  spawn_handler eng rel ~node:1 ~on_msg:(fun env ->
      arrived := (env.Msg.body, Engine.now eng) :: !arrived);
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         Lifecycle.crash lc 1 ~at:(Engine.clock f);
         Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Miss
           ~size:(Msg.sizes ()) 42));
  (match Engine.run eng with
  | () -> ()
  | exception Reliable.Peer_unreachable _ ->
      Alcotest.fail "Peer_unreachable with a lifecycle attached");
  Alcotest.(check int) "one peer-down report for the packet" 1
    (Counters.get counters "net.reliable.peer_down");
  match !arrived with
  | [ (body, at) ] ->
      Alcotest.(check int) "the packet arrives" 42 body;
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d after the restart at %d" at outage)
        true (at >= outage)
  | got ->
      Alcotest.failf "expected one delivery, got %d" (List.length got)

let test_watchdog_pending_note () =
  let eng, _counters, rel = mk_channel ~faults:drop_everything ~nodes:2 () in
  spawn_handler eng rel ~node:1 ~on_msg:ignore;
  ignore
    (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
         Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Miss
           ~size:(Msg.sizes ()) 7));
  match
    Engine.run ~max_cycles:5000 ~diag:(fun () -> Reliable.pending_note rel) eng
  with
  | () -> Alcotest.fail "expected Watchdog"
  | exception Engine.Watchdog { limit; note; _ } ->
      Alcotest.(check int) "limit" 5000 limit;
      Alcotest.(check bool)
        (Printf.sprintf "note %S counts node0's pending packet" note)
        true
        (contains_sub note "node0:1")

(* ------------------------------------------------------------------ *)
(* Application level *)

(* Fault-free Quick-scale digests at nprocs=4, pinned in test_ranges.ml;
   a faulted run must reproduce them bit-for-bit. *)
let goldens =
  [
    ("sor", 0x1.70d4575719efep+8);
    ("tsp", 0x1.1f2p+11);
    ("water", 0x1.293cc893f694dp+8);
    ("m-water", 0x1.293cc893f694dp+8);
    ("ilink-clp", 0x1.0eeb716a5b77ap+5);
  ]

let run_with ~platform ~faults app_name =
  let app = Registry.app ~scale:Registry.Quick app_name in
  (Machines.get ~faults platform).Platform.run app ~nprocs:4

let test_chaos_matrix () =
  let faults =
    { Fabric.no_faults with Fabric.drop_miss = 0.1; drop_sync = 0.1;
      dup_rate = 0.05; jitter_cycles = 100; fault_seed = 1 }
  in
  List.iter
    (fun platform ->
      List.iter
        (fun (app, want) ->
          let r = run_with ~platform ~faults app in
          if r.Report.checksum <> want then
            Alcotest.failf "%s on %s under faults: checksum %h, want %h" app
              platform r.Report.checksum want;
          if Report.dropped r = 0 then
            Alcotest.failf "%s on %s: fault schedule dropped nothing" app
              platform;
          if Report.retransmissions r = 0 then
            Alcotest.failf "%s on %s: drops but no retransmissions" app
              platform)
        goldens)
    [ "treadmarks"; "ivy" ]

let test_reproducible_trace () =
  let faults =
    { Fabric.no_faults with Fabric.drop_miss = 0.15; drop_sync = 0.15;
      dup_rate = 0.1; jitter_cycles = 200; fault_seed = 7 }
  in
  let r1 = run_with ~platform:"treadmarks" ~faults "sor" in
  let r2 = run_with ~platform:"treadmarks" ~faults "sor" in
  Alcotest.(check int) "cycles reproducible" r1.Report.cycles r2.Report.cycles;
  Alcotest.(check bool) "retransmission trace reproducible" true
    (r1.Report.counters = r2.Report.counters);
  Alcotest.(check bool) "schedule actually retransmitted" true
    (Report.retransmissions r1 > 0)

let test_hardware_platforms_reject_faults () =
  let faults = { Fabric.no_faults with Fabric.drop_miss = 0.1 } in
  List.iter
    (fun name ->
      match Machines.get ~faults name with
      | _ -> Alcotest.failf "%s accepted an active fault policy" name
      | exception Invalid_argument _ -> ())
    [ "sgi"; "ah"; "hs"; "dec" ];
  (* An inactive policy is accepted everywhere. *)
  List.iter
    (fun name -> ignore (Machines.get ~faults:Fabric.no_faults name))
    Machines.names

(* A traced run on TreadMarks, with the number of data packets the fabric
   lost: the [net.drop.data] instants.  A lost standalone ack needs no
   retransmission (the next cumulative ack covers it), so only lost data
   has to show up as retransmissions. *)
let run_counting_data_drops ~faults app_name =
  let tr = Trace.create () in
  let instrument = Instrument.with_trace tr in
  let app = Registry.app ~scale:Registry.Quick app_name in
  let r =
    (Machines.get ~faults ~instrument "treadmarks").Platform.run app ~nprocs:4
  in
  (r, Trace.instant_count ~name:"net.drop.data" tr)

let prop_fault_schedule =
  QCheck.Test.make ~count:2
    ~name:"any seeded fault schedule preserves five-app results"
    (QCheck.make
       QCheck.Gen.(
         quad
           (float_bound_inclusive 0.2)
           (float_bound_inclusive 0.2)
           (int_bound 300) (int_bound 10_000)))
    (fun (drop, dup, jitter, seed) ->
      let faults =
        { Fabric.no_faults with Fabric.drop_miss = drop; drop_sync = drop;
          dup_rate = dup; jitter_cycles = jitter; fault_seed = seed }
      in
      List.for_all
        (fun (app, want) ->
          let r, data_drops = run_counting_data_drops ~faults app in
          if r.Report.checksum <> want then
            QCheck.Test.fail_reportf
              "%s: checksum %h <> %h (drop=%g dup=%g jitter=%d seed=%d)" app
              r.Report.checksum want drop dup jitter seed
          else if data_drops > 0 && Report.retransmissions r = 0 then
            QCheck.Test.fail_reportf
              "%s: %d data packets dropped but no retransmissions (seed=%d)"
              app data_drops seed
          else true)
        goldens)

let suite =
  [
    Alcotest.test_case "fault-free channel is inert" `Quick
      test_passthrough_inert;
    Alcotest.test_case "duplicate suppression" `Quick
      test_duplicate_suppression;
    Alcotest.test_case "FIFO preserved under drops and jitter" `Quick
      test_fifo_under_faults;
    Alcotest.test_case "lost data traced apart from lost acks" `Quick
      test_data_drops_traced_apart;
    Alcotest.test_case "round trips stay within their word budget" `Quick
      test_round_trip_allocation;
    Alcotest.test_case "backoff schedule and Peer_unreachable" `Quick
      test_backoff_and_peer_unreachable;
    Alcotest.test_case "lifecycle on the fabric parks for the restart" `Quick
      test_lifecycle_parks_for_restart;
    Alcotest.test_case "watchdog reports pending retransmissions" `Quick
      test_watchdog_pending_note;
    Alcotest.test_case "chaos matrix hits fault-free checksums" `Quick
      test_chaos_matrix;
    Alcotest.test_case "same seed, same trace" `Quick test_reproducible_trace;
    Alcotest.test_case "hardware platforms reject faults" `Quick
      test_hardware_platforms_reject_faults;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xFA17)
      prop_fault_schedule;
  ]
