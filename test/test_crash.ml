(* Whole-node crash/restart injection and failure-atomic recovery
   (DESIGN.md §13): the crash-churn matrix must recover every app to the
   crash-free answer on both SDSM families, checkpoints must be
   failure-atomic at word granularity, seeded crash schedules must
   reproduce, and platforms without a recovery story must refuse. *)

module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Lifecycle = Shm_sim.Lifecycle
module Memory = Shm_memsys.Memory
module Ckpt = Shm_tmk.Ckpt
module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead

let churn =
  { Lifecycle.none with
    Lifecycle.crashes = [ (1, 500_000) ];
    ckpt_interval = 250_000 }

let run ?crash plat app ~n =
  let p = Machines.get ?crash plat in
  p.Platform.run (Registry.app ~scale:Registry.Quick app) ~nprocs:n

(* ------------------------------------------------------------------ *)
(* Crash-churn matrix: every app on both SDSM families completes with a
   node crashed and restarted mid-run, and the post-recovery checksum is
   pinned to the crash-free golden (quick scale, 4 processors). *)

let golden_quick4 =
  [
    ("sor", 0x1.70d4575719efep+8);
    ("tsp", 0x1.1f2p+11);
    ("water", 0x1.293cc893f694dp+8);
    ("m-water", 0x1.293cc893f694dp+8);
    ("ilink-clp", 0x1.0eeb716a5b77ap+5);
  ]

let test_churn_matrix () =
  List.iter
    (fun plat ->
      List.iter
        (fun (app, golden) ->
          let r = run ~crash:churn plat app ~n:4 in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s on %s post-recovery checksum" app plat)
            golden r.Report.checksum;
          let nonzero name =
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s: %s > 0" app plat name)
              true
              (Report.get r name > 0)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s on %s: one crash" app plat)
            1 (Report.crashes r);
          Alcotest.(check int)
            (Printf.sprintf "%s on %s: one restart" app plat)
            1 (Report.restarts r);
          nonzero "ckpt.count";
          nonzero "ckpt.bytes";
          nonzero "recovery.count";
          nonzero "recovery.cycles")
        golden_quick4)
    [ "treadmarks"; "ivy" ]

(* The same matrix crash-free must hit the same goldens — the pinned
   values above are the crash-free answers, not separate constants. *)
let test_clean_matrix_matches () =
  List.iter
    (fun plat ->
      List.iter
        (fun (app, golden) ->
          let r = run plat app ~n:4 in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s on %s crash-free checksum" app plat)
            golden r.Report.checksum;
          Alcotest.(check int)
            (Printf.sprintf "%s on %s crash-free: no crash counters" app plat)
            0
            (Report.crashes r + Report.ckpt_count r
            + Report.get r "recovery.count"))
        golden_quick4)
    [ "treadmarks"; "ivy" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint delta property: after [page_delta] the image equals the
   source (failure atomicity), the cost is 0 iff the page was already
   clean, and the cost never exceeds the whole-page bound. *)

let prop_page_delta =
  let gen =
    QCheck.(
      pair
        (array_of_size (Gen.return 64) (int_bound 7))
        (array_of_size (Gen.return 64) (int_bound 7)))
  in
  QCheck.Test.make ~count:300
    ~name:"ckpt page_delta: image = src afterwards, bytes honest" gen
    (fun (a, b) ->
      let words = Array.length a in
      let src = Memory.create ~words and image = Memory.create ~words in
      Array.iteri (fun i v -> Memory.set_int src i v) a;
      Array.iteri (fun i v -> Memory.set_int image i v) b;
      let clean_before = a = b in
      let bytes =
        Ckpt.page_delta ~src ~src_base:0 ~image ~image_base:0 ~words
      in
      let restored = ref true in
      for i = 0 to words - 1 do
        if Memory.get_int image i <> Memory.get_int src i then
          restored := false
      done;
      let second =
        Ckpt.page_delta ~src ~src_base:0 ~image ~image_base:0 ~words
      in
      !restored
      && (bytes = 0) = clean_before
      && bytes <= 16 + (words * 12)
      && second = 0)

(* ------------------------------------------------------------------ *)
(* Rejoin replays a page's own diffs oldest first.  Node 1 writes one
   word in several intervals after its last checkpoint, crashes and
   rejoins: the replayed image then equals the live copy, so the first
   sweep after the restart persists nothing. *)

let test_replay_in_seqno_order () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let nodes = 2 and shared_words = 1024 in
  let fabric =
    Fabric.create eng counters
      (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
      ~nodes
  in
  let lc =
    Lifecycle.create eng counters
      { Lifecycle.none with
        Lifecycle.ckpt_interval = 1_000_000;
        outage_cycles = 300_000 }
      ~nodes
  in
  Fabric.attach_lifecycle fabric lc;
  let memories = Array.init nodes (fun _ -> Memory.create ~words:shared_words) in
  let sys =
    Shm_tmk.System.create eng counters fabric
      (Shm_tmk.Config.default ~n_nodes:nodes ~shared_words)
      ~memories
  in
  Shm_tmk.System.start sys;
  Lifecycle.start lc;
  let at_restart = ref None in
  Lifecycle.on_restart lc (fun ~node:_ ~at:_ ->
      at_restart :=
        Some
          ( Counters.get counters "ckpt.bytes",
            Counters.get counters "ckpt.count" ));
  ignore
    (Engine.spawn eng ~name:"node1" ~at:0 (fun f ->
         (* After the first sweep, at cycle 1M. *)
         Engine.wait_until f 1_100_000;
         for v = 1 to 8 do
           Shm_tmk.System.acquire sys f ~node:1 ~lock:1;
           Shm_dsm.Paged.write_guard sys f ~node:1 0;
           Memory.set_int memories.(1) 0 v;
           Shm_tmk.System.release sys f ~node:1 ~lock:1
         done;
         (* Crash before the next sweep; stay live past the one after
            the restart. *)
         Lifecycle.crash lc 1 ~at:(Engine.clock f);
         Engine.wait_until f 2_500_000));
  Engine.run eng;
  Alcotest.(check int) "one crash" 1 (Counters.get counters "sim.crashes");
  Alcotest.(check bool) "the rejoin replayed the intervals" true
    (Counters.get counters "recovery.replay_bytes" > 0);
  match !at_restart with
  | None -> Alcotest.fail "node 1 never restarted"
  | Some (bytes, count) ->
      Alcotest.(check bool) "a sweep ran after the restart" true
        (Counters.get counters "ckpt.count" > count);
      Alcotest.(check int) "bytes persisted after the restart" 0
        (Counters.get counters "ckpt.bytes" - bytes)

(* ------------------------------------------------------------------ *)
(* Seeded crash schedules reproduce: the same policy yields the same
   crash cycles, the same recovery work and the same cycle count. *)

let test_seeded_reproducibility () =
  let policy =
    { Lifecycle.none with Lifecycle.crash_rate = 0.5; crash_seed = 7 }
  in
  let a = run ~crash:policy "treadmarks" "sor" ~n:4 in
  let b = run ~crash:policy "treadmarks" "sor" ~n:4 in
  Alcotest.(check bool)
    "seeded draw crashes at least once" true
    (Report.crashes a > 0);
  Alcotest.(check int) "cycles reproduce" a.Report.cycles b.Report.cycles;
  Alcotest.(check (float 0.0))
    "checksum reproduces" a.Report.checksum b.Report.checksum;
  Alcotest.(check (list (pair string int)))
    "all counters reproduce" a.Report.counters b.Report.counters

(* A different seed draws a different schedule (with rate 0.5 over
   several windows the chance of identity is negligible — and the point
   is that the seed is actually consulted). *)
let test_seed_matters () =
  let policy seed =
    { Lifecycle.none with Lifecycle.crash_rate = 0.5; crash_seed = seed }
  in
  let a = run ~crash:(policy 7) "treadmarks" "sor" ~n:4 in
  let b = run ~crash:(policy 8) "treadmarks" "sor" ~n:4 in
  Alcotest.(check bool)
    "different seeds give different runs" true
    (a.Report.cycles <> b.Report.cycles
    || a.Report.counters <> b.Report.counters)

(* ------------------------------------------------------------------ *)
(* Checkpoint-cost regression guard (the persist-cost bugfix): a
   default-scale crash run must finish within 2x the crash-free
   simulated wall.  Before the fix, every checkpoint persisted the whole
   shared image instead of the delta, and this ratio blew past 30x; the
   measured post-fix ratio is ~1.01x, so 2x leaves headroom without
   letting the regression back in.  Simulated seconds are deterministic,
   so this cannot flake. *)

let test_crash_cost_bounded () =
  let default_run ?crash () =
    let p = Machines.get ?crash "treadmarks" in
    p.Platform.run (Registry.app ~scale:Registry.Default "sor") ~nprocs:4
  in
  let wall (r : Report.t) =
    float_of_int r.Report.cycles /. (r.Report.clock_mhz *. 1e6)
  in
  let clean = default_run () in
  let crashed = default_run ~crash:churn () in
  Alcotest.(check int)
    "guard run really crashed" 1
    (Report.crashes crashed);
  let ratio = wall crashed /. wall clean in
  if ratio > 2.0 then
    Alcotest.failf
      "crash run cost %.2fx the crash-free wall (%.4fs vs %.4fs); the \
       checkpoint persist path is overpaying again"
      ratio (wall crashed) (wall clean)

(* ------------------------------------------------------------------ *)
(* Refusals: hardware platforms and the Tardis engine (no lease
   recovery) refuse an active crash policy at [Machines.get].  An
   inactive policy is accepted everywhere. *)

let test_refusals () =
  List.iter
    (fun plat ->
      match Machines.get ~crash:churn plat with
      | _ -> Alcotest.failf "%s accepted an active crash policy" plat
      | exception Invalid_argument _ -> ())
    [ "dec"; "sgi"; "sgi-fast"; "ah"; "hs" ];
  (match
     run ~crash:churn "treadmarks" "sor" ~n:4
     |> fun _ -> `Ran
   with
  | `Ran -> ()
  | exception Invalid_argument msg ->
      Alcotest.failf "treadmarks refused a crash policy: %s" msg);
  (match
     let p = Machines.get ~crash:churn ~protocol:"tardis" "treadmarks" in
     p.Platform.run (Registry.app ~scale:Registry.Quick "sor") ~nprocs:4
   with
  | _ -> Alcotest.fail "tardis mounted under a crash policy"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun plat ->
      ignore (Machines.get ~crash:Lifecycle.none plat : Platform.t))
    [ "dec"; "sgi"; "ah"; "hs"; "treadmarks"; "ivy" ]

let suite =
  [
    Alcotest.test_case "crash-churn matrix recovers to goldens" `Slow
      test_churn_matrix;
    Alcotest.test_case "crash-free matrix hits the same goldens" `Slow
      test_clean_matrix_matches;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x60A7)
      prop_page_delta;
    Alcotest.test_case "rejoin replays own diffs in seqno order" `Quick
      test_replay_in_seqno_order;
    Alcotest.test_case "seeded crash schedule reproduces" `Quick
      test_seeded_reproducibility;
    Alcotest.test_case "crash seed is consulted" `Quick test_seed_matters;
    Alcotest.test_case "crash run within 2x of crash-free wall" `Slow
      test_crash_cost_bounded;
    Alcotest.test_case "refusals: hardware and tardis" `Quick test_refusals;
  ]
