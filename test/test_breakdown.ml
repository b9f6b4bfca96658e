(* Execution-time attribution: every simulated cycle of every fiber lands
   in exactly one category, instrumentation never perturbs the simulation,
   and the counter names the reporting layer reads are the names the
   subsystems actually emit. *)

module Engine = Shm_sim.Engine
module Trace = Shm_sim.Trace
module Mailbox = Shm_sim.Mailbox
module Counters = Shm_stats.Counters
module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Instrument = Shm_platform.Instrument
module Fabric = Shm_net.Fabric

(* ------------------------------------------------------------------ *)
(* qcheck: per-fiber category sums equal the fiber clock for arbitrary  *)
(* nestings of scoped work.                                             *)

type op = Work of int | Scoped of Engine.category * op list

let category_gen = QCheck.Gen.oneofl Engine.categories

let op_gen =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n = 0 then map (fun c -> Work c) (int_bound 50)
            else
              frequency
                [
                  (2, map (fun c -> Work c) (int_bound 50));
                  ( 3,
                    map2
                      (fun cat ops -> Scoped (cat, ops))
                      category_gen
                      (list_size (int_bound 4) (self (n / 2))) );
                ])
          (min n 20)))

let rec print_op = function
  | Work n -> Printf.sprintf "Work %d" n
  | Scoped (c, ops) ->
      Printf.sprintf "Scoped (%s, [%s])" (Engine.category_name c)
        (String.concat "; " (List.map print_op ops))

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_bound 8) op_gen)

let rec interp f = function
  | Work n -> Engine.advance f n
  | Scoped (cat, ops) ->
      Engine.with_category f cat (fun () -> List.iter (interp f) ops)

let prop_attribution_sums =
  QCheck.Test.make ~count:300
    ~name:"category sums equal the fiber clock (nested scopes)" ops_arb
    (fun ops ->
      let eng = Engine.create ~instrument:true () in
      let f = Engine.spawn eng ~name:"w" ~at:0 (fun f -> List.iter (interp f) ops) in
      Engine.run eng;
      Engine.check_attribution f;
      let total =
        List.fold_left (fun acc (_, v) -> acc + v) 0 (Engine.breakdown f)
      in
      total = Engine.clock f)

(* A blocked receiver's wait lands in the category it suspended under:
   exercises the [set_clock] forward-jump attribution path. *)
let test_wait_attribution () =
  let eng = Engine.create ~instrument:true () in
  let mb = Mailbox.create eng in
  let recv =
    Engine.spawn eng ~name:"recv" ~at:0 (fun f ->
        Engine.with_category f Engine.Net_wait (fun () ->
            ignore (Mailbox.recv f mb));
        Engine.advance f 10)
  in
  let _send =
    Engine.spawn eng ~name:"send" ~at:0 (fun f ->
        Engine.advance f 500;
        Mailbox.post mb ~at:(Engine.clock f) ())
  in
  Engine.run eng;
  Engine.check_attribution recv;
  let bd = Engine.breakdown recv in
  Alcotest.(check int) "recv clock" 510 (Engine.clock recv);
  Alcotest.(check int)
    "waited cycles attributed to net_wait" 500
    (List.assoc Engine.Net_wait bd);
  Alcotest.(check int) "compute remainder" 10 (List.assoc Engine.Compute bd)

(* ------------------------------------------------------------------ *)
(* The invariant holds on real runs: five applications, the software     *)
(* DSMs and the bus machine.  [Instrument.finish] raises if any fiber's  *)
(* per-category sums disagree with its clock, so a clean run IS the      *)
(* check; on top we confirm the aggregate counters cover every app       *)
(* processor's full clock.                                               *)

let bd_apps = [ "ilink-clp"; "sor"; "tsp"; "water"; "m-water" ]
let bd_platforms = [ "treadmarks"; "ivy"; "sgi" ]

let run_instrumented ?(instrument = Instrument.breakdown_only) ~platform
    ~app ~n () =
  let p = Machines.get ~instrument platform in
  p.Platform.run (Registry.app ~scale:Registry.Quick app) ~nprocs:n

let test_invariant_on_apps () =
  List.iter
    (fun platform ->
      List.iter
        (fun app ->
          let r = run_instrumented ~platform ~app ~n:4 () in
          let bd = Report.breakdown r in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: all categories reported" app platform)
            (List.length Engine.categories)
            (List.length bd);
          let total = List.fold_left (fun acc (_, v) -> acc + v) 0 bd in
          (* Aggregate over the app processors: each runs from cycle 0 to
             its own finish, the run's cycle count is the max finish. *)
          if not (total >= r.Report.cycles && total <= 4 * r.Report.cycles)
          then
            Alcotest.failf "%s/%s: aggregate %d outside [%d, %d]" app
              platform total r.Report.cycles (4 * r.Report.cycles))
        bd_apps)
    bd_platforms

(* ------------------------------------------------------------------ *)
(* Instrumentation is free: breakdown-only and full tracing leave        *)
(* cycles, checksum and every non-time counter byte-identical.           *)

let strip_time counters =
  List.filter
    (fun (name, _) ->
      String.length name < 5 || String.sub name 0 5 <> "time.")
    counters

let test_instrumentation_is_free () =
  List.iter
    (fun (platform, app) ->
      let plain = run_instrumented ~instrument:Instrument.off ~platform ~app ~n:4 () in
      let bd = run_instrumented ~platform ~app ~n:4 () in
      let tr = Trace.create () in
      let traced =
        run_instrumented ~instrument:(Instrument.with_trace tr) ~platform
          ~app ~n:4 ()
      in
      List.iter
        (fun (what, (r : Report.t)) ->
          Alcotest.(check int)
            (Printf.sprintf "%s/%s cycles (%s)" app platform what)
            plain.Report.cycles r.Report.cycles;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s/%s checksum (%s)" app platform what)
            plain.Report.checksum r.Report.checksum;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s/%s counters (%s)" app platform what)
            plain.Report.counters
            (strip_time r.Report.counters))
        [ ("breakdown", bd); ("traced", traced) ];
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s trace has spans" app platform)
        true
        (Trace.span_count tr > 0))
    [ ("treadmarks", "sor"); ("sgi", "water"); ("ivy", "tsp") ]

(* The trace file itself: one object per line, known event kinds,
   non-decreasing timestamps (the writer's documented contract, which
   `shmsim trace-check` relies on). *)
let test_trace_file_wellformed () =
  let tr = Trace.create () in
  ignore
    (run_instrumented ~instrument:(Instrument.with_trace tr)
       ~platform:"treadmarks" ~app:"sor" ~n:4 ());
  let path = Filename.temp_file "shmcs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_chrome_file tr path ~clock_mhz:40.0;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let header = input_line ic in
          Alcotest.(check string) "header" "{\"traceEvents\":[" header;
          let last_ts = ref neg_infinity in
          let spans = ref 0 in
          (try
             while true do
               let line = input_line ic in
               let has re =
                 let mlen = String.length re in
                 let rec scan i =
                   i + mlen <= String.length line
                   && (String.sub line i mlen = re || scan (i + 1))
                 in
                 scan 0
               in
               if has "\"ph\":\"X\"" then incr spans;
               (* Extract the ts value: the writer emits a fixed-form
                  "ts":<float> field, one object per line. *)
               let marker = "\"ts\":" in
               let mlen = String.length marker in
               let rec find i =
                 if i + mlen > String.length line then None
                 else if String.sub line i mlen = marker then Some (i + mlen)
                 else find (i + 1)
               in
               (match find 0 with
               | None -> ()
               | Some start ->
                   let stop = ref start in
                   while
                     !stop < String.length line
                     && not (List.mem line.[!stop] [ ','; '}' ])
                   do
                     incr stop
                   done;
                   let ts =
                     float_of_string
                       (String.sub line start (!stop - start))
                   in
                   Alcotest.(check bool) "ts monotone" true (ts >= !last_ts);
                   last_ts := ts)
             done
           with End_of_file -> ());
          Alcotest.(check bool) "has spans" true (!spans > 0)))

(* ------------------------------------------------------------------ *)
(* Zero-denominator guards: an empty run must not leak NaN/inf.         *)

let empty_report =
  {
    Report.platform = "none";
    app = "empty";
    nprocs = 1;
    cycles = 0;
    clock_mhz = 40.0;
    checksum = 0.0;
    counters = [];
  }

let test_zero_denominators () =
  let r = empty_report in
  Alcotest.(check (float 0.0)) "rate on empty run" 0.0 (Report.rate r "x");
  Alcotest.(check (float 0.0))
    "speedup vs empty run" 0.0
    (Report.speedup ~base:empty_report r);
  let finite f = Float.is_finite f in
  Alcotest.(check bool) "rate finite" true (finite (Report.rate r "net.msgs.total"));
  Alcotest.(check bool)
    "speedup finite" true
    (finite (Report.speedup ~base:r r))

(* ------------------------------------------------------------------ *)
(* Strict counter lookup.                                               *)

let test_counters_strict () =
  let c = Counters.create () in
  Counters.add c "a.b" 3;
  Alcotest.(check bool) "mem hit" true (Counters.mem c "a.b");
  Alcotest.(check bool) "mem miss" false (Counters.mem c "a.c");
  Alcotest.(check int) "find hit" 3 (Counters.find c "a.b");
  Alcotest.check_raises "find miss raises"
    (Invalid_argument "Counters.find: no counter named \"a.c\" (known: a.b)")
    (fun () -> ignore (Counters.find c "a.c"))

(* Name-drift audit: every counter name the reporting layer and the bench
   tables read must be emitted by an actual run, so a rename on either
   side cannot silently start reading zero. *)
let bench_read_names =
  [
    "tmk.barriers"; "tmk.lock_remote"; "net.msgs.total"; "net.bytes.total";
    "net.msgs.miss"; "net.msgs.sync"; "net.bytes.payload";
    "net.bytes.consistency"; "net.bytes.header";
  ]

let test_counter_name_audit () =
  let emitted = Hashtbl.create 64 in
  let note (r : Report.t) =
    List.iter (fun (name, _) -> Hashtbl.replace emitted name ()) r.Report.counters
  in
  List.iter
    (fun app -> note (run_instrumented ~platform:"treadmarks" ~app ~n:4 ()))
    bd_apps;
  (* A chaos run exercises the drop/duplicate/retransmission names. *)
  let faults =
    { Fabric.no_faults with
      Fabric.drop_miss = 0.05;
      drop_sync = 0.05;
      dup_rate = 0.05;
      fault_seed = 7 }
  in
  let p = Machines.get ~faults "treadmarks" in
  note (p.Platform.run (Registry.app ~scale:Registry.Quick "sor") ~nprocs:4);
  (* Crash runs exercise the checkpoint/recovery names on both SDSM
     families (TSP invalidates and re-homes on both). *)
  let crash =
    { Shm_sim.Lifecycle.none with
      Shm_sim.Lifecycle.crashes = [ (1, 500_000) ];
      ckpt_interval = 250_000 }
  in
  List.iter
    (fun plat ->
      let p = Machines.get ~crash plat in
      note (p.Platform.run (Registry.app ~scale:Registry.Quick "tsp") ~nprocs:4))
    [ "treadmarks"; "ivy" ];
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is emitted by some subsystem" name)
        true (Hashtbl.mem emitted name))
    (Report.consumed_names @ bench_read_names
    @ List.map (fun c -> "time." ^ Engine.category_name c) Engine.categories)

(* ------------------------------------------------------------------ *)
(* Pinned golden breakdowns: the attribution of two representative runs  *)
(* is part of the repo's contract — a change here is a timing-model      *)
(* change and must be deliberate.                                        *)

let render_breakdown r =
  String.concat ","
    (List.map
       (fun (c, v) -> Printf.sprintf "%s:%d" (Engine.category_name c) v)
       (Report.breakdown r))

let golden =
  [
    ( ("treadmarks", "sor"),
      "compute:1420349,protocol:1215610,net_wait:1003995,lock_wait:0,\
       barrier_wait:1925759,diff:185899,twin:273672,mem_stall:0" );
    ( ("treadmarks", "tsp"),
      "compute:4280172,protocol:1425022,net_wait:448434,lock_wait:2207267,\
       barrier_wait:420326,diff:23701,twin:34776,mem_stall:0" );
    ( ("sgi", "sor"),
      "compute:1369023,protocol:0,net_wait:0,lock_wait:0,\
       barrier_wait:41624,diff:0,twin:0,mem_stall:110269" );
    ( ("sgi", "water"),
      "compute:32318610,protocol:0,net_wait:0,lock_wait:4160,\
       barrier_wait:24640176,diff:0,twin:0,mem_stall:157134" );
  ]

let test_golden_breakdowns () =
  List.iter
    (fun ((platform, app), expected) ->
      let r = run_instrumented ~platform ~app ~n:4 () in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s breakdown" platform app)
        expected (render_breakdown r))
    golden

(* Ivy protocol-state satellite: the manager refusing an [Invalid] page
   raises a descriptive error, not [assert false].  Reaching that state
   needs a corrupted manager, so poke the exception directly. *)
let test_ivy_proto_error_printable () =
  let e =
    Shm_ivy.System.Proto_error
      { page = 3; requester = 1; manager = 0; state = "owner=-1 copyset={}" }
  in
  let s = Printexc.to_string e in
  List.iter
    (fun frag ->
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S" frag)
        true
        (let mlen = String.length frag in
         let rec scan i =
           i + mlen <= String.length s
           && (String.sub s i mlen = frag || scan (i + 1))
         in
         scan 0))
    [ "page 3"; "requester 1"; "manager 0"; "owner=-1" ]

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x1738)
      prop_attribution_sums;
    Alcotest.test_case "wait cycles attributed to scope" `Quick
      test_wait_attribution;
    Alcotest.test_case "invariant holds on apps x platforms" `Slow
      test_invariant_on_apps;
    Alcotest.test_case "instrumentation is free" `Slow
      test_instrumentation_is_free;
    Alcotest.test_case "trace file well-formed" `Quick
      test_trace_file_wellformed;
    Alcotest.test_case "no NaN/inf on empty runs" `Quick test_zero_denominators;
    Alcotest.test_case "strict counter lookup" `Quick test_counters_strict;
    Alcotest.test_case "counter-name audit" `Slow test_counter_name_audit;
    Alcotest.test_case "golden breakdowns" `Quick test_golden_breakdowns;
    Alcotest.test_case "ivy proto error printable" `Quick
      test_ivy_proto_error_printable;
  ]
