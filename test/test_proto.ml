(* The pluggable-protocol layer: every registered engine must be a
   drop-in replacement semantically — same application results as the
   reference engine — even though timing, message counts and the
   resulting cycle counts legitimately differ.

   One documented exception: Water (the original, per-pair-locked
   variant) accumulates floating-point forces under molecule locks, so
   its last few result bits depend on the order processors win those
   locks.  An engine that shifts timing enough to reorder two grants
   changes the sum's association order — not its members.  The integer
   contention patterns (migratory, producer-consumer, false-sharing,
   read-mostly) are order-insensitive and must match bit-for-bit, which
   pins down that no engine loses or corrupts an update; Water is
   compared within a small relative tolerance instead. *)

module Parmacs = Shm_parmacs.Parmacs
module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines

let paper_apps = [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ]
let sdsm_engines = [ "lrc"; "eager-lrc"; "erc"; "ivy"; "tardis" ]
let reference = "lrc"

let run ~protocol ~app ~nprocs =
  let a = Registry.app ~scale:Registry.Quick app in
  (Machines.get ~protocol "treadmarks").Platform.run a ~nprocs

(* Memoised reference results so the property does not rerun the same
   (app, nprocs) reference simulation for every candidate engine. *)
let ref_memo : (string * int, Report.t) Hashtbl.t = Hashtbl.create 16

let reference_run ~app ~nprocs =
  match Hashtbl.find_opt ref_memo (app, nprocs) with
  | Some r -> r
  | None ->
      let r = run ~protocol:reference ~app ~nprocs in
      Hashtbl.add ref_memo (app, nprocs) r;
      r

let checksums_agree ~app a b =
  if app = "water" then
    Float.abs (a -. b) <= 1e-4 *. Float.abs b
  else a = b

let prop_engines_match_reference =
  QCheck.Test.make ~count:10
    ~name:"proto: every engine reproduces the reference results"
    QCheck.(triple (int_bound 4) (int_bound 3) bool)
    (fun (app_i, eng_i, wide) ->
      let app = List.nth paper_apps app_i in
      let protocol = List.nth (List.tl sdsm_engines) eng_i in
      let nprocs = if wide then 4 else 2 in
      let expect = (reference_run ~app ~nprocs).Report.checksum in
      let got = (run ~protocol ~app ~nprocs).Report.checksum in
      if not (checksums_agree ~app got expect) then
        QCheck.Test.fail_reportf
          "%s on %s at %d procs: checksum %h, reference %h" app protocol
          nprocs got expect
      else true)

(* Golden cycle counts and checksums for the two engines this layer
   introduced, at the canonical 4-processor quick-scale runs.  Timing
   regressions or semantic drift in either engine show up here first. *)

let golden_tardis =
  [
    ("sor", 3_915_959, 0x1.70d4575719efep+8);
    ("tsp", 4_681_859, 0x1.1f2p+11);
    ("water", 157_526_815, 0x1.293cc893f694dp+8);
    ("m-water", 18_453_868, 0x1.293cc893f694dp+8);
    ("ilink-clp", 9_722_988, 0x1.0eeb716a5b77ap+5);
  ]

(* Water's checksum here matches the reference engine bit-for-bit: since
   eager updates ride the ordered notice/fault machinery (they used to be
   patched into memory on arrival, which could reorder against other
   intervals), the force-accumulation order no longer drifts. *)
let golden_eager_lrc =
  [
    ("sor", 1_719_081, 0x1.70d4575719efep+8);
    ("tsp", 2_079_699, 0x1.1f2p+11);
    ("water", 72_559_208, 0x1.293cc893f694dp+8);
    ("m-water", 19_534_657, 0x1.293cc893f694dp+8);
    ("ilink-clp", 6_915_444, 0x1.0eeb716a5b77ap+5);
  ]

let check_goldens ~protocol goldens () =
  List.iter
    (fun (app, cycles, checksum) ->
      let r = run ~protocol ~app ~nprocs:4 in
      Alcotest.(check int)
        (Printf.sprintf "%s %s cycles" protocol app)
        cycles r.Report.cycles;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s %s checksum" protocol app)
        checksum r.Report.checksum)
    goldens

(* The integer contention patterns are associative-commutative, so they
   must agree bit-for-bit on every engine: any difference is a lost or
   corrupted update, not reordering. *)
let test_patterns_exact () =
  List.iter
    (fun app ->
      let a = Registry.app ~scale:Registry.Quick app in
      let expect =
        ((Machines.get ~protocol:reference "treadmarks").Platform.run a
           ~nprocs:4)
          .Report.checksum
      in
      List.iter
        (fun protocol ->
          let got =
            ((Machines.get ~protocol "treadmarks").Platform.run a ~nprocs:4)
              .Report.checksum
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s on %s" app protocol)
            expect got)
        (List.tl sdsm_engines))
    [ "migratory"; "producer-consumer"; "false-sharing"; "read-mostly" ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let expect_invalid_arg ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (.. %s ..)" substring
  | exception Invalid_argument msg ->
      if not (contains ~sub:substring msg) then
        Alcotest.failf "Invalid_argument %S does not mention %S" msg substring

let test_registry_rejects_duplicates () =
  let module Dup = struct
    let name = "lrc"
    let describe = "an impostor"
    let mount =
      Shm_proto.Software { mount = (fun _ -> assert false); recovery = Recovers }
  end in
  expect_invalid_arg ~substring:"already taken" (fun () ->
      Shm_proto.Registry.register Shm_engines.registry
        (module Dup : Shm_proto.ENGINE))

let test_kind_mismatches_refused () =
  expect_invalid_arg ~substring:"hardware cache-coherence engine" (fun () ->
      Machines.get ~protocol:"mesi" "treadmarks");
  expect_invalid_arg ~substring:"hardware cache-coherence engine" (fun () ->
      Machines.get ~protocol:"directory" "as");
  expect_invalid_arg ~substring:"software-DSM engine" (fun () ->
      Machines.get ~protocol:"lrc" "sgi");
  expect_invalid_arg ~substring:"software-DSM engine" (fun () ->
      Machines.get ~protocol:"tardis" "ah");
  expect_invalid_arg ~substring:"hardware cache-coherence engine" (fun () ->
      Machines.get ~protocol:"mesi" "hs");
  expect_invalid_arg ~substring:"uniprocessor" (fun () ->
      Machines.get ~protocol:"tardis" "dec");
  expect_invalid_arg ~substring:"unknown protocol" (fun () ->
      Machines.get ~protocol:"mosi" "treadmarks")

(* The two refusals an engine once raised when it mounted: a snooping
   bus on the crossbar host, and Tardis, which has no lease recovery,
   under a crash policy.  Both now come from the engine's declared
   limits while the machine is built, so building and running it is
   refused before any simulation starts. *)
let test_mount_refusals () =
  let sor = Registry.app ~scale:Registry.Quick "sor" in
  expect_invalid_arg ~substring:"crossbar" (fun () ->
      (Machines.topology "mesi*8@sim").Platform.run sor ~nprocs:4);
  let crash =
    { Shm_sim.Lifecycle.none with
      Shm_sim.Lifecycle.crashes = [ (1, 500_000) ];
      ckpt_interval = 250_000 }
  in
  expect_invalid_arg ~substring:"lease recovery" (fun () ->
      (Machines.get ~crash ~protocol:"tardis" "treadmarks").Platform.run sor
        ~nprocs:4)

let test_engine_kinds () =
  List.iter
    (fun (name, kind) ->
      Alcotest.(check string) name
        (Shm_proto.kind_name kind)
        (Shm_proto.kind_name (Shm_engines.kind_of name)))
    [
      ("lrc", Shm_proto.Sdsm);
      ("eager-lrc", Shm_proto.Sdsm);
      ("erc", Shm_proto.Sdsm);
      ("ivy", Shm_proto.Sdsm);
      ("tardis", Shm_proto.Sdsm);
      ("mesi", Shm_proto.Hw);
      ("directory", Shm_proto.Hw);
    ];
  Alcotest.(check (list string))
    "every registered engine pinned"
    [ "lrc"; "eager-lrc"; "erc"; "ivy"; "tardis"; "mesi"; "directory" ]
    Shm_engines.names

let test_protocol_listing () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" p)
        true
        (List.mem p Machines.protocols))
    (sdsm_engines @ [ "mesi"; "directory" ]);
  (* Mounting each sdsm engine renames the platform predictably. *)
  Alcotest.(check string)
    "tardis platform name" "treadmarks-user+tardis"
    (Machines.get ~protocol:"tardis" "treadmarks").Platform.name;
  Alcotest.(check string)
    "default keeps historical name" "treadmarks-user"
    (Machines.get "treadmarks").Platform.name

let suite =
  [
    Alcotest.test_case "goldens: tardis" `Slow
      (check_goldens ~protocol:"tardis" golden_tardis);
    Alcotest.test_case "goldens: eager-lrc" `Slow
      (check_goldens ~protocol:"eager-lrc" golden_eager_lrc);
    Alcotest.test_case "patterns exact on every engine" `Slow
      test_patterns_exact;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x9207)
      prop_engines_match_reference;
    Alcotest.test_case "registry rejects duplicate names" `Quick
      test_registry_rejects_duplicates;
    Alcotest.test_case "machine x protocol mismatches refused" `Quick
      test_kind_mismatches_refused;
    Alcotest.test_case "protocol listing and naming" `Quick
      test_protocol_listing;
    Alcotest.test_case "mount-time refusals: crossbar, lease recovery"
      `Quick test_mount_refusals;
    Alcotest.test_case "engine kinds" `Quick test_engine_kinds;
  ]
