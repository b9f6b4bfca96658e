(* The serving workload's differential/linearizability harness
   (DESIGN.md §14): the same seeded KV trace runs on every platform and
   every registered coherence engine, and an external model — a plain
   OCaml Hashtbl replaying the recorded linearization order — must agree
   with every per-request return value and with the final store
   contents.  Put keys are single-writer (Loadgen's partitioning), so
   the content digest the run writes as its checksum must also be equal
   across all platforms, under chaos (message drops) and under a
   whole-node crash/restart. *)

module Registry = Shm_apps.Registry
module Kvstore = Shm_apps.Kvstore
module Loadgen = Shm_apps.Loadgen
module Hist = Shm_stats.Hist
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Fabric = Shm_net.Fabric
module Lifecycle = Shm_sim.Lifecycle

(* Small trace for the full matrix: 12 machine/engine combinations run
   it, so each run is kept to a few hundred requests. *)
let small =
  [
    ("keys", "128"); ("requests", "120"); ("mean-gap", "800");
    ("service", "200"); ("shards", "8");
  ]

let run ?faults ?crash ?protocol ~params plat ~n =
  let kv = Registry.kv ~scale:Registry.Quick ~params () in
  let p = Machines.get ?faults ?crash ?protocol plat in
  let r = p.Platform.run kv.Kvstore.app ~nprocs:n in
  (kv, r)

(* The external differential check, independent of the app's built-in
   one: replay the linearization record through a Hashtbl, compare every
   get's return value and the final contents. *)
let check_against_model ~what (kv : Kvstore.t) =
  let model = Hashtbl.create 64 in
  List.iter
    (fun (e : Kvstore.entry) ->
      match e.Kvstore.op with
      | Loadgen.Put -> Hashtbl.replace model e.Kvstore.key e.Kvstore.value
      | Loadgen.Get ->
          let expect =
            Option.value (Hashtbl.find_opt model e.Kvstore.key) ~default:0
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: get(%d) by node %d req %d" what e.Kvstore.key
               e.Kvstore.node e.Kvstore.idx)
            expect e.Kvstore.value)
    (kv.Kvstore.results ());
  let model_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
  in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "%s: final store contents = model" what)
    model_list (kv.Kvstore.final ())

let matrix =
  [
    ("dec", None, 1);
    ("treadmarks", None, 4);
    ("treadmarks", Some "eager-lrc", 4);
    ("treadmarks", Some "erc", 4);
    ("treadmarks", Some "ivy", 4);
    ("treadmarks", Some "tardis", 4);
    ("treadmarks-kernel", None, 4);
    ("ivy", None, 4);
    ("sgi", None, 4);
    ("sgi", Some "directory", 4);
    ("as", None, 4);
    ("ah", None, 4);
    ("hs", None, 4);
  ]

(* Every platform x engine: return values linearizable, final contents
   equal to the model's, and — because puts are single-writer — one
   digest shared by every multiprocessor run. *)
let test_differential_matrix () =
  let checksums = ref [] in
  List.iter
    (fun (plat, protocol, n) ->
      let what =
        Printf.sprintf "kv on %s%s" plat
          (match protocol with None -> "" | Some p -> "+" ^ p)
      in
      let kv, r = run ?protocol ~params:small plat ~n in
      check_against_model ~what kv;
      Alcotest.(check int)
        (what ^ ": built-in model check passed")
        1
        (Report.get r "kv.model_ok");
      Alcotest.(check int)
        (what ^ ": every request completed")
        (120 * n)
        (Report.get r "kv.ops");
      if n > 1 then checksums := (what, r.Report.checksum) :: !checksums)
    matrix;
  match !checksums with
  | [] -> Alcotest.fail "no multiprocessor runs in the matrix"
  | (what0, c0) :: rest ->
      List.iter
        (fun (what, c) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s digest = %s digest" what what0)
            c0 c)
        rest

(* Chaos: 5% of every message class dropped.  The reliable layer must
   retransmit (so the counter is live) and the answers must not move. *)
let chaos =
  {
    Fabric.no_faults with
    Fabric.drop_miss = 0.05;
    drop_sync = 0.05;
    fault_seed = 7;
  }

let test_chaos_differential () =
  let kv, r = run ~faults:chaos ~params:small "treadmarks" ~n:4 in
  check_against_model ~what:"kv on treadmarks under 5% drop" kv;
  Alcotest.(check int) "built-in model check passed under chaos" 1
    (Report.get r "kv.model_ok");
  Alcotest.(check bool) "messages were dropped" true (Report.dropped r > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Report.retransmissions r > 0);
  let _, clean = run ~params:small "treadmarks" ~n:4 in
  Alcotest.(check (float 0.0)) "chaos digest = clean digest"
    clean.Report.checksum r.Report.checksum

(* Crash: node 1 dies mid-run and restarts; transparent failure-atomic
   recovery (DESIGN.md §13) must bring the run to the crash-free
   answer, and the linearization record must still replay. *)
let churn =
  {
    Lifecycle.none with
    Lifecycle.crashes = [ (1, 400_000) ];
    ckpt_interval = 200_000;
  }

let test_crash_differential () =
  let kv, r = run ~crash:churn ~params:small "treadmarks" ~n:4 in
  Alcotest.(check int) "one crash" 1 (Report.crashes r);
  Alcotest.(check int) "one restart" 1 (Report.restarts r);
  check_against_model ~what:"kv on treadmarks with a crash" kv;
  Alcotest.(check int) "built-in model check passed across the crash" 1
    (Report.get r "kv.model_ok");
  let _, clean = run ~params:small "treadmarks" ~n:4 in
  Alcotest.(check (float 0.0)) "crash digest = crash-free digest"
    clean.Report.checksum r.Report.checksum

(* Same config, run twice: the whole report must be byte-identical
   (the load generator and the simulation are deterministic). *)
let test_deterministic () =
  let _, a = run ~params:small "treadmarks" ~n:4 in
  let _, b = run ~params:small "treadmarks" ~n:4 in
  Alcotest.(check int) "same cycles" a.Report.cycles b.Report.cycles;
  Alcotest.(check (float 0.0)) "same digest" a.Report.checksum b.Report.checksum;
  Alcotest.(check (list (pair string int)))
    "same counters" a.Report.counters b.Report.counters

(* Pinned goldens at quick scale: throughput (ops are exact by
   construction) and the latency percentiles on the three reference
   machines.  These move only when the timing model, the coherence
   engines or the load generator change — which is exactly when a human
   should look. *)
(* The quick-scale offered load (one request per 2000 cycles per node)
   saturates the software DSMs — per-op cost there is tens of thousands
   of cycles — so their percentiles are queueing delay, while the SGI
   absorbs the same load with sub-thousand-cycle medians.  That gap IS
   the paper's point, measured as tail latency. *)
let goldens =
  [
    ("treadmarks", 37_781_479, 16_777_215, 35_651_583, 35_651_583);
    ("ivy", 98_310_068, 48_234_495, 96_468_991, 96_714_482);
    ("sgi", 1_060_114, 735, 15_871, 19_619);
  ]

let test_pinned_goldens () =
  List.iter
    (fun (plat, cycles, p50, p99, p999) ->
      let _, r = run ~params:[] plat ~n:4 in
      Alcotest.(check int) (plat ^ ": quick-scale ops") 1600
        (Report.get r "kv.ops");
      Alcotest.(check int) (plat ^ ": quick-scale cycles") cycles
        r.Report.cycles;
      Alcotest.(check int) (plat ^ ": P50") p50 (Report.get r "kv.lat_p50");
      Alcotest.(check int) (plat ^ ": P99") p99 (Report.get r "kv.lat_p99");
      Alcotest.(check int) (plat ^ ": P999") p999
        (Report.get r "kv.lat_p999"))
    goldens

(* qcheck: linearizability on small random traces.  Any seed, any mix,
   any skew — the recorded history must replay against the model on an
   SDSM and a hardware machine. *)
let prop_linearizable =
  QCheck.Test.make ~count:8 ~name:"kv: random small traces linearizable"
    QCheck.(triple (int_bound 10_000) (int_bound 100) (int_bound 10))
    (fun (seed, skew, gmix) ->
      let params =
        [
          ("seed", string_of_int (seed + 1));
          ("keys", "48");
          ("requests", "60");
          ("mean-gap", "600");
          ("service", "100");
          ("shards", "4");
          ("zipf", Printf.sprintf "%.2f" (float_of_int skew /. 50.0));
          ("get-ratio", Printf.sprintf "%.1f" (float_of_int gmix /. 10.0));
        ]
      in
      List.for_all
        (fun plat ->
          let kv, r = run ~params plat ~n:3 in
          let model = Hashtbl.create 64 in
          List.for_all
            (fun (e : Kvstore.entry) ->
              match e.Kvstore.op with
              | Loadgen.Put ->
                  Hashtbl.replace model e.Kvstore.key e.Kvstore.value;
                  true
              | Loadgen.Get ->
                  Option.value
                    (Hashtbl.find_opt model e.Kvstore.key)
                    ~default:0
                  = e.Kvstore.value)
            (kv.Kvstore.results ())
          && Report.get r "kv.model_ok" = 1)
        [ "treadmarks"; "sgi" ])

(* Bad parameters must be rejected up front, not half-run. *)
let test_rejects () =
  let reject what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  reject "unknown kv parameter" (fun () ->
      Registry.app ~scale:Registry.Quick ~params:[ ("kyes", "8") ] "kv");
  reject "unparsable value" (fun () ->
      Registry.app ~scale:Registry.Quick ~params:[ ("keys", "many") ] "kv");
  reject "zero shards" (fun () ->
      Registry.app ~scale:Registry.Quick ~params:[ ("shards", "0") ] "kv");
  reject "negative get-ratio" (fun () ->
      Registry.app ~scale:Registry.Quick ~params:[ ("get-ratio", "-0.5") ] "kv");
  reject "unknown sor parameter" (fun () ->
      Registry.app ~scale:Registry.Quick ~params:[ ("cities", "9") ] "sor")

let suite =
  [
    Alcotest.test_case "differential matrix: all platforms x engines" `Slow
      test_differential_matrix;
    Alcotest.test_case "chaos: 5% drop, model + digest hold" `Slow
      test_chaos_differential;
    Alcotest.test_case "crash: node restart, model + digest hold" `Slow
      test_crash_differential;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic;
    Alcotest.test_case "pinned goldens (tmk/ivy/sgi quick)" `Slow
      test_pinned_goldens;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x4B56)
      prop_linearizable;
    Alcotest.test_case "parameter rejection" `Quick test_rejects;
  ]
