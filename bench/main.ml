(* Benchmark harness: regenerates every table and figure of Cox et al.,
   "Software Versus Hardware Shared-Memory Implementation: A Case Study"
   (ISCA 1994), plus the paper's in-text experiments and a Bechamel
   micro-suite over the core primitives.

   Usage:
     dune exec bench/main.exe                 -- run everything (default scale)
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --only f3,t1 -- run a subset
     dune exec bench/main.exe -- --scale quick|default|paper
     dune exec bench/main.exe -- --jobs 4     -- run simulations on 4 domains
     dune exec bench/main.exe -- --json PATH  -- results file (BENCH_access.json)
     dune exec bench/main.exe -- --skip-micro
     dune exec bench/main.exe -- --pool-probe -- time a fixed run set at
                                                 jobs=1 vs jobs=4

   Independent simulation runs execute on a pool of OCaml 5 domains
   (default: Domain.recommended_domain_count () - 1; override with
   --jobs N or SHMCS_JOBS).  Each experiment declares its run set up
   front, the pool executes runs in parallel, and tables/figures render
   from the completed reports in the original deterministic order, so
   every table, figure and run statistic is identical at any --jobs. *)

module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Dsm_cluster = Shm_platform.Dsm_cluster
module Topology = Shm_platform.Topology
module Machines_reg = Shm_platform.Machines
module Overhead = Shm_net.Overhead
module Instrument = Shm_platform.Instrument
module Engine = Shm_sim.Engine
module Lifecycle = Shm_sim.Lifecycle
module Table = Shm_stats.Table
module Parmacs = Shm_parmacs.Parmacs
module Pool = Shm_runner.Pool
module Future = Shm_runner.Future
module Run_cache = Shm_runner.Run_cache

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let scale = ref Registry.Default
let only : string list ref = ref []
let skip_micro = ref false
let list_only = ref false
let jobs_arg = ref 0 (* 0 = auto: SHMCS_JOBS or recommended_domain_count - 1 *)
let json_path = ref "BENCH_access.json"
let pool_probe_arg = ref false

(* ------------------------------------------------------------------ *)
(* Scheduled runs: several figures share the same (app, platform, n),   *)
(* so runs are memoized as futures — a shared run executes exactly once *)
(* on the domain pool and every consumer blocks on the same result.     *)

type run_key = { app_key : string; platform_key : string; n : int }

(* What a worker domain hands back: the report plus the run's own wall
   time and allocation, measured inside the worker. *)
type timed = { report : Report.t; wall : float; alloc_gw : float }

let the_cache : (run_key, timed) Run_cache.t option ref = ref None

let cache () =
  match !the_cache with
  | Some c -> c
  | None -> invalid_arg "run cache used before the pool was created"

let execute key (platform : Platform.t) app () =
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.minor_words () in
  let r = platform.Platform.run app ~nprocs:key.n in
  {
    report = r;
    wall = Unix.gettimeofday () -. t0;
    alloc_gw = (Gc.minor_words () -. a0) /. 1e9;
  }

(* Submit phase: declare a run so the pool can start it early.  Missing a
   declaration is only a lost parallelism opportunity — [timed_run]
   submits on demand — and a declared run that no figure consumes is
   excluded from BENCH_access.json, so reports stay identical at any
   --jobs. *)
let declare ~app_key ~(platform : Platform.t) ~platform_key app ~n =
  let key = { app_key; platform_key; n } in
  ignore (Run_cache.find_or_submit (cache ()) key (execute key platform app))

(* Runs whose results were actually consumed by a table or figure, i.e.
   the progress line was flushed.  Announcement happens on the main
   domain at first await, so the order is the render order: the same at
   any --jobs, and exactly the execution order of sequential mode. *)
let announced : (run_key, unit) Hashtbl.t = Hashtbl.create 64

let timed_run ~app_key ~(platform : Platform.t) ~platform_key app ~n =
  let key = { app_key; platform_key; n } in
  let fut = Run_cache.find_or_submit (cache ()) key (execute key platform app) in
  let tr = Future.await fut in
  if not (Hashtbl.mem announced key) then begin
    Hashtbl.add announced key ();
    Printf.printf
      "    [ran %s on %s, %d procs: %.3f sim s, %.1f wall s, %.2fG alloc]\n%!"
      app_key platform_key n (Report.seconds tr.report) tr.wall tr.alloc_gw
  end;
  tr.report

(* ------------------------------------------------------------------ *)
(* Application instances                                               *)

let sec2_app name = (name, Registry.app ~scale:!scale name)

(* Section-3 instances: the paper notes its simulated problems are small;
   these mirror that, with a compute-denser SOR stencil so the 64-processor
   runs exercise communication rather than the simulator. *)
let sor_sim () =
  let rows, cols, iters =
    match !scale with
    | Registry.Quick -> (256, 128, 6)
    | Registry.Default -> (512, 256, 12)
    | Registry.Paper -> (1024, 512, 12)
  in
  ( "sor-sim",
    Sor.make { Sor.default_params with rows; cols; iters; point_cycles = 480 } )

let tsp_sim () =
  let ncities =
    match !scale with
    | Registry.Quick -> 11
    | Registry.Default -> 14
    | Registry.Paper -> 16
  in
  ("tsp-sim", Tsp.make (Tsp.params_n ncities))

let mwater_sim () = ("m-water", Registry.app ~scale:!scale "m-water")

(* ------------------------------------------------------------------ *)
(* Platform instances                                                  *)

let dec () = Machines.get "dec"
let ivy () = Machines.get "ivy"
let tmk () = Machines.get "treadmarks"
let tmk_kernel () = Machines.get "treadmarks-kernel"
let tmk_eager () = Machines.get "treadmarks-eager"
let sgi () = Machines.get "sgi"
let as_machine ?overhead () = Dsm_cluster.as_machine ?overhead ()
let ah_machine () = Machines.get "ah"
let hs_machine ?overhead () =
  Topology.build ~name:"HS8" ~host:(Topology.host_sim ?overhead ())
    (fst (Topology.of_string "lrc(mesi*8 x 32)"))

let procs_sec2 = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let procs_sec3 = [ 1; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Generic figure renderers                                            *)

(* A Section-2 speedup figure: TreadMarks vs the SGI, 1-8 processors.
   TreadMarks speedups are relative to the plain DECstation (Table 1
   methodology); SGI speedups to its own uniprocessor. *)
let sec2_figure ~title (app_key, app) =
  let dec_base =
    timed_run ~app_key ~platform:(dec ()) ~platform_key:"dec" app ~n:1
  in
  let sgi_p = sgi () and tmk_p = tmk () in
  let sgi_base =
    timed_run ~app_key ~platform:sgi_p ~platform_key:"sgi" app ~n:1
  in
  let table =
    Table.create ~title ~columns:[ "procs"; "TreadMarks"; "SGI 4D/480" ]
  in
  List.iter
    (fun n ->
      let rt =
        timed_run ~app_key ~platform:tmk_p ~platform_key:"treadmarks" app ~n
      in
      let rs = timed_run ~app_key ~platform:sgi_p ~platform_key:"sgi" app ~n in
      Table.add_row table
        [
          string_of_int n;
          Table.cell_speedup (Report.speedup ~base:dec_base rt);
          Table.cell_speedup (Report.speedup ~base:sgi_base rs);
        ])
    procs_sec2;
  Table.print table

(* A Section-3 speedup figure: AS vs AH vs HS, up to 64 processors,
   each relative to its own uniprocessor run. *)
let sec3_figure ~title (app_key, app) =
  let archs =
    [ ("AH", ah_machine ()); ("HS", hs_machine ()); ("AS", as_machine ()) ]
  in
  let bases =
    List.map
      (fun (k, p) ->
        (k, timed_run ~app_key ~platform:p ~platform_key:k app ~n:1))
      archs
  in
  let table = Table.create ~title ~columns:("procs" :: List.map fst archs) in
  List.iter
    (fun n ->
      let cells =
        List.map
          (fun (k, p) ->
            let r = timed_run ~app_key ~platform:p ~platform_key:k app ~n in
            Table.cell_speedup (Report.speedup ~base:(List.assoc k bases) r))
          archs
      in
      Table.add_row table (string_of_int n :: cells))
    (List.tl procs_sec3);
  Table.print table

(* Software-overhead sweep (Figures 14-16).  [tag] keeps the memoized
   runs of the AS and HS sweeps apart. *)
let overhead_figure ~title ~tag ~make_platform (app_key, app) =
  let points = [ (5000, 10); (500, 10); (100, 10); (100, 1) ] in
  let columns =
    "procs" :: List.map (fun (f, w) -> Printf.sprintf "%d/%d" f w) points
  in
  let table = Table.create ~title ~columns in
  let platforms =
    List.map
      (fun (f, w) ->
        let key = Printf.sprintf "%s-%s-ov%d-%d" tag app_key f w in
        ((f, w), (key, make_platform (Overhead.sweep ~fixed:f ~per_word:w))))
      points
  in
  let bases =
    List.map
      (fun (pt, (key, p)) ->
        (pt, timed_run ~app_key ~platform:p ~platform_key:key app ~n:1))
      platforms
  in
  List.iter
    (fun n ->
      let cells =
        List.map
          (fun (pt, (key, p)) ->
            let r = timed_run ~app_key ~platform:p ~platform_key:key app ~n in
            Table.cell_speedup (Report.speedup ~base:(List.assoc pt bases) r))
          platforms
      in
      Table.add_row table (string_of_int n :: cells))
    (List.tl procs_sec3);
  Table.print table

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)

let sec2_apps =
  [
    "ilink-clp"; "ilink-bad"; "sor"; "sor-square"; "tsp"; "tsp-small";
    "water"; "m-water";
  ]

let table1 () =
  let table =
    Table.create ~title:"Table 1: single-processor execution times (seconds)"
      ~columns:[ "program"; "DEC"; "DEC+TreadMarks"; "SGI" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let r_dec =
        timed_run ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1
      in
      let r_tmk =
        timed_run ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
          app ~n:1
      in
      let r_sgi =
        timed_run ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1
      in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_f ~digits:2 (Report.seconds r_dec);
          Table.cell_f ~digits:2 (Report.seconds r_tmk);
          Table.cell_f ~digits:2 (Report.seconds r_sgi);
        ])
    sec2_apps;
  Table.print table

let table2 () =
  let table =
    Table.create
      ~title:"Table 2: 8-processor TreadMarks execution statistics (per second)"
      ~columns:
        [ "program"; "barriers/s"; "remote locks/s"; "messages/s"; "kbytes/s" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let r =
        timed_run ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
          app ~n:8
      in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_f ~digits:1 (Report.rate r "tmk.barriers");
          Table.cell_f ~digits:1 (Report.rate r "tmk.lock_remote");
          Table.cell_f ~digits:0 (Report.rate r "net.msgs.total");
          Table.cell_f ~digits:1 (Report.rate r "net.bytes.total" /. 1024.);
        ])
    sec2_apps;
  Table.print table

(* ------------------------------------------------------------------ *)
(* In-text experiments                                                 *)

let tsp_eager () =
  let app_key, app = sec2_app "tsp" in
  let table =
    Table.create
      ~title:"TSP lazy vs eager release (Section 2.4.3): 8-processor speedups"
      ~columns:[ "platform"; "speedup" ]
  in
  let dec_base =
    timed_run ~app_key ~platform:(dec ()) ~platform_key:"dec" app ~n:1
  in
  let sgi_base =
    timed_run ~app_key ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1
  in
  let row name platform platform_key base =
    let r = timed_run ~app_key ~platform ~platform_key app ~n:8 in
    Table.add_row table [ name; Table.cell_speedup (Report.speedup ~base r) ]
  in
  row "TreadMarks (lazy)" (tmk ()) "treadmarks" dec_base;
  row "TreadMarks (eager bound)" (tmk_eager ()) "treadmarks-eager" dec_base;
  row "SGI 4D/480" (sgi ()) "sgi" sgi_base;
  Table.print table

let kernel_level () =
  let apps = [ "ilink-clp"; "sor"; "tsp"; "water"; "m-water" ] in
  let table =
    Table.create
      ~title:
        "User-level vs kernel-level TreadMarks (Section 2.4.4): 8-processor \
         speedups vs DEC"
      ~columns:[ "program"; "user"; "kernel"; "SGI" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let base =
        timed_run ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1
      in
      let sgi_base =
        timed_run ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1
      in
      let speedup platform platform_key b =
        let r = timed_run ~app_key:name ~platform ~platform_key app ~n:8 in
        Table.cell_speedup (Report.speedup ~base:b r)
      in
      Table.add_row table
        [
          app.Parmacs.name;
          speedup (tmk ()) "treadmarks" base;
          speedup (tmk_kernel ()) "treadmarks-kernel" base;
          speedup (sgi ()) "sgi" sgi_base;
        ])
    apps;
  Table.print table

let sor_touch_all () =
  sec2_figure
    ~title:
      "SOR with every point changing each iteration (Section 2.4.2): \
       TreadMarks still wins"
    (sec2_app "sor-touchall")

(* ------------------------------------------------------------------ *)
(* Figures 12-13: message and data totals at 64 processors             *)

let messages_figure () =
  let apps = [ sor_sim (); tsp_sim (); mwater_sim () ] in
  let table =
    Table.create
      ~title:
        "Figure 12: total messages at 64 processors (HS as % of AS, split \
         miss / synchronization)"
      ~columns:
        [ "program"; "AS msgs"; "HS msgs"; "HS/AS %"; "HS miss%"; "HS sync%";
          "AS miss%"; "AS sync%" ]
  in
  List.iter
    (fun (app_key, app) ->
      let r_as =
        timed_run ~app_key ~platform:(as_machine ()) ~platform_key:"AS" app
          ~n:64
      in
      let r_hs =
        timed_run ~app_key ~platform:(hs_machine ()) ~platform_key:"HS" app
          ~n:64
      in
      let as_total = float_of_int (Report.get r_as "net.msgs.total") in
      let pct r name = 100. *. float_of_int (Report.get r name) /. as_total in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_i (Report.get r_as "net.msgs.total");
          Table.cell_i (Report.get r_hs "net.msgs.total");
          Table.cell_f ~digits:1 (pct r_hs "net.msgs.total");
          Table.cell_f ~digits:1 (pct r_hs "net.msgs.miss");
          Table.cell_f ~digits:1 (pct r_hs "net.msgs.sync");
          Table.cell_f ~digits:1 (pct r_as "net.msgs.miss");
          Table.cell_f ~digits:1 (pct r_as "net.msgs.sync");
        ])
    apps;
  Table.print table

let data_figure () =
  let apps = [ sor_sim (); tsp_sim (); mwater_sim () ] in
  let table =
    Table.create
      ~title:
        "Figure 13: total data at 64 processors (HS as % of AS, split miss / \
         consistency / headers)"
      ~columns:
        [ "program"; "AS KB"; "HS KB"; "HS/AS %"; "HS miss%"; "HS cons%";
          "HS hdr%"; "AS miss%"; "AS cons%"; "AS hdr%" ]
  in
  List.iter
    (fun (app_key, app) ->
      let r_as =
        timed_run ~app_key ~platform:(as_machine ()) ~platform_key:"AS" app
          ~n:64
      in
      let r_hs =
        timed_run ~app_key ~platform:(hs_machine ()) ~platform_key:"HS" app
          ~n:64
      in
      let as_total = float_of_int (Report.get r_as "net.bytes.total") in
      let pct r name = 100. *. float_of_int (Report.get r name) /. as_total in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_i (Report.get r_as "net.bytes.total" / 1024);
          Table.cell_i (Report.get r_hs "net.bytes.total" / 1024);
          Table.cell_f ~digits:1 (pct r_hs "net.bytes.total");
          Table.cell_f ~digits:1 (pct r_hs "net.bytes.payload");
          Table.cell_f ~digits:1 (pct r_hs "net.bytes.consistency");
          Table.cell_f ~digits:1 (pct r_hs "net.bytes.header");
          Table.cell_f ~digits:1 (pct r_as "net.bytes.payload");
          Table.cell_f ~digits:1 (pct r_as "net.bytes.consistency");
          Table.cell_f ~digits:1 (pct r_as "net.bytes.header");
        ])
    apps;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Ablation: lazy release consistency vs sequentially-consistent       *)
(* single-writer page DSM (IVY, Li & Hudak) on the same cluster        *)

let lrc_vs_ivy () =
  let apps = [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ] in
  let table =
    Table.create
      ~title:
        "Ablation: TreadMarks (multiple-writer LRC) vs IVY (single-writer \
         SC pages) on the DEC cluster, 8 processors"
      ~columns:
        [ "program"; "LRC speedup"; "IVY speedup"; "LRC KB"; "IVY KB" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let base =
        timed_run ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1
      in
      let r_tmk =
        timed_run ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
          app ~n:8
      in
      let r_ivy =
        timed_run ~app_key:name ~platform:(ivy ()) ~platform_key:"ivy" app ~n:8
      in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_speedup (Report.speedup ~base r_tmk);
          Table.cell_speedup (Report.speedup ~base r_ivy);
          Table.cell_i (Report.get r_tmk "net.bytes.total" / 1024);
          Table.cell_i (Report.get r_ivy "net.bytes.total" / 1024);
        ])
    apps;
  Table.print table;
  print_endline
    "\nMultiple-writer diffs avoid both the false-sharing ping-pong and\n\
     the whole-page transfers of the classic SC page DSM."

(* Ablation: lazy vs eager-invalidate write-notice propagation         *)

let lrc_vs_erc () =
  let apps = [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ] in
  let erc () = Machines.get "treadmarks-erc" in
  let table =
    Table.create
      ~title:
        "Ablation: lazy (TreadMarks) vs eager-invalidate release \
         consistency, 8 processors"
      ~columns:[ "program"; "LRC speedup"; "ERC speedup"; "LRC msgs"; "ERC msgs" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let base =
        timed_run ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1
      in
      let r_lrc =
        timed_run ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
          app ~n:8
      in
      let r_erc =
        timed_run ~app_key:name ~platform:(erc ()) ~platform_key:"treadmarks-erc"
          app ~n:8
      in
      Table.add_row table
        [
          app.Parmacs.name;
          Table.cell_speedup (Report.speedup ~base r_lrc);
          Table.cell_speedup (Report.speedup ~base r_erc);
          Table.cell_i (Report.get r_lrc "net.msgs.total");
          Table.cell_i (Report.get r_erc "net.msgs.total");
        ])
    apps;
  Table.print table;
  print_endline
    "\nLaziness defers notice propagation to synchronization points;\n\
     broadcasting at every release multiplies messages without making\n\
     anything faster (Keleher et al.'s core LRC result)."

(* Ablation: the Section-2.5 hypothetical SGI with dual tags + fast bus  *)

let sgi_bus_ablation () =
  let apps = [ "sor"; "sor-square"; "m-water" ] in
  let fast = Machines.get "sgi-fast" in
  let table =
    Table.create
      ~title:
        "Ablation: SGI bus bandwidth (Section 2.5: \"dual cache tags and a \
         faster bus are necessary to overcome the bandwidth limitation\"), \
         8 processors"
      ~columns:
        [ "program"; "SGI speedup"; "fast-bus speedup"; "TreadMarks speedup" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let speedup_on platform platform_key =
        let b = timed_run ~app_key:name ~platform ~platform_key app ~n:1 in
        let r = timed_run ~app_key:name ~platform ~platform_key app ~n:8 in
        Table.cell_speedup (Report.speedup ~base:b r)
      in
      let dec_base =
        timed_run ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1
      in
      let r_tmk =
        timed_run ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
          app ~n:8
      in
      Table.add_row table
        [
          app.Parmacs.name;
          speedup_on (sgi ()) "sgi";
          speedup_on fast "sgi-fast";
          Table.cell_speedup (Report.speedup ~base:dec_base r_tmk);
        ])
    apps;
  Table.print table

(* Ablation: sharing patterns vs coherence strategies                  *)

let sharing_patterns () =
  let table =
    Table.create
      ~title:
        "Ablation: sharing-pattern microbenchmarks, 8 processors.  Each \
         processor does fixed per-round work, so 1.00 means coherence-free \
         execution (efficiency, not speedup)."
      ~columns:
        [ "pattern"; "LRC eff"; "IVY eff"; "SGI eff"; "LRC KB"; "IVY KB" ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      let cell platform platform_key =
        let b = timed_run ~app_key:name ~platform ~platform_key app ~n:1 in
        let r = timed_run ~app_key:name ~platform ~platform_key app ~n:8 in
        (Table.cell_speedup (Report.speedup ~base:b r),
         Report.get r "net.bytes.total" / 1024)
      in
      let lrc, lrc_kb = cell (tmk ()) "treadmarks" in
      let ivy_s, ivy_kb = cell (ivy ()) "ivy" in
      let sgi_s, _ = cell (sgi ()) "sgi" in
      Table.add_row table
        [ name; lrc; ivy_s; sgi_s; Table.cell_i lrc_kb; Table.cell_i ivy_kb ])
    [ "migratory"; "producer-consumer"; "false-sharing"; "read-mostly" ];
  Table.print table;
  print_endline
    "\nFalse sharing is free under multiple-writer LRC and catastrophic\n\
     under single-writer pages; migratory data suits every protocol;\n\
     read-mostly data is cheap everywhere after the first fault."

(* ------------------------------------------------------------------ *)
(* Execution-time breakdown: where the cycles go on the software DSM   *)
(* vs the bus machine (the PR's tentpole exhibit).  The instrumented   *)
(* platform constructors get their own platform_keys so their memoized *)
(* runs never alias the uninstrumented runs used everywhere else.      *)

let bd_apps = [ "ilink-clp"; "sor"; "tsp"; "water"; "m-water" ]

let bd_platforms () =
  [
    ( "treadmarks+bd",
      "TreadMarks",
      Machines.get ~instrument:Instrument.breakdown_only "treadmarks" );
    ( "sgi+bd",
      "SGI 4D/480",
      Machines.get ~instrument:Instrument.breakdown_only "sgi" );
  ]

let breakdown_exhibit () =
  let table =
    Table.create
      ~title:
        "Execution-time breakdown, 8 processors (% of attributed cycles; \
         categories sum to each processor's full clock)"
      ~columns:
        ([ "program"; "platform"; "seconds" ]
        @ List.map Engine.category_name Engine.categories)
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun (platform_key, label, platform) ->
          let r = timed_run ~app_key:name ~platform ~platform_key app ~n:8 in
          let bd = Report.breakdown r in
          let total =
            float_of_int (List.fold_left (fun acc (_, v) -> acc + v) 0 bd)
          in
          let cell cat =
            match List.assoc_opt cat bd with
            | None | Some 0 -> "-"
            | Some v ->
                Table.cell_f ~digits:1 (100. *. float_of_int v /. total)
          in
          Table.add_row table
            ([
               app.Parmacs.name; label;
               Table.cell_f ~digits:4 (Report.seconds r);
             ]
            @ List.map cell Engine.categories))
        (bd_platforms ()))
    bd_apps;
  Table.print table;
  print_endline
    "\nThe software DSM spends its overhead in protocol handlers, twin/diff\n\
     work and message waits; the bus machine's only overhead is memory\n\
     stalls.  Barrier waits dominate both wherever load is imbalanced."

(* ------------------------------------------------------------------ *)
(* Protocol matrix: every software coherence engine mounted on the     *)
(* same SDSM cluster, with the execution-time breakdown for each.      *)

let pm_protocols = [ "lrc"; "eager-lrc"; "ivy"; "tardis" ]

let pm_platform p =
  Machines.get ~protocol:p ~instrument:Instrument.breakdown_only "treadmarks"

let pm_key p = "proto-" ^ p ^ "+bd"

let protocol_matrix () =
  let table =
    Table.create
      ~title:
        "Protocol matrix: coherence engines on the DEC cluster, 8 \
         processors (seconds, traffic, % of attributed cycles)"
      ~columns:
        ([ "program"; "protocol"; "seconds"; "msgs"; "kbytes" ]
        @ List.map Engine.category_name Engine.categories)
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun p ->
          let r =
            timed_run ~app_key:name ~platform:(pm_platform p)
              ~platform_key:(pm_key p) app ~n:8
          in
          let bd = Report.breakdown r in
          let total =
            float_of_int (List.fold_left (fun acc (_, v) -> acc + v) 0 bd)
          in
          let cell cat =
            match List.assoc_opt cat bd with
            | None | Some 0 -> "-"
            | Some v ->
                Table.cell_f ~digits:1 (100. *. float_of_int v /. total)
          in
          Table.add_row table
            ([
               app.Parmacs.name; p;
               Table.cell_f ~digits:4 (Report.seconds r);
               Table.cell_i (Report.get r "net.msgs.total");
               Table.cell_i (Report.get r "net.bytes.total" / 1024);
             ]
            @ List.map cell Engine.categories))
        pm_protocols)
    bd_apps;
  Table.print table;
  print_endline
    "\nOne cluster, four engines.  Laziness (lrc) minimizes messages;\n\
     eager-lrc pays broadcast traffic at every release to shorten the\n\
     stale-data window the paper observed in TSP; ivy ships whole pages\n\
     and serializes writers; tardis replaces invalidation broadcasts\n\
     with timestamp leases and renewals."

(* ------------------------------------------------------------------ *)
(* Availability under churn: the same app with and without repeated    *)
(* whole-node crash/restart (DESIGN.md §13).  The crash-armed platform *)
(* constructors get their own platform_keys so their memoized runs     *)
(* never alias the crash-free runs used everywhere else.               *)

(* Two scheduled crashes early enough to land inside even the quick-
   scale runs; a short outage and a tight checkpoint period so the
   exhibit exercises checkpoint, re-home and rejoin several times. *)
let churn_policy =
  { Lifecycle.none with
    Lifecycle.crashes = [ (1, 300_000); (2, 900_000) ];
    outage_cycles = 400_000;
    ckpt_interval = 200_000 }

let crash_apps = [ "sor"; "tsp" ]

let crash_platforms () =
  [
    ( "treadmarks", "treadmarks+crash",
      tmk (),
      Machines.get ~crash:churn_policy "treadmarks" );
    ("ivy", "ivy+crash", ivy (), Machines.get ~crash:churn_policy "ivy");
  ]

let crash_churn () =
  let table =
    Table.create
      ~title:
        "Availability under churn: 2 crash/restart cycles, 4 processors \
         (post-recovery checksums must equal the crash-free run)"
      ~columns:
        [
          "program"; "platform"; "clean_s"; "churn_s"; "overhead";
          "crashes"; "ckpt_kb"; "recov_ms"; "checksum";
        ]
  in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun (label, crash_key, clean_p, crash_p) ->
          let clean =
            timed_run ~app_key:name ~platform:clean_p ~platform_key:label app
              ~n:4
          in
          let churn =
            timed_run ~app_key:name ~platform:crash_p ~platform_key:crash_key
              app ~n:4
          in
          let cs = Report.seconds clean and hs = Report.seconds churn in
          Table.add_row table
            [
              app.Parmacs.name; label;
              Table.cell_f ~digits:4 cs;
              Table.cell_f ~digits:4 hs;
              (if cs > 0.0 then
                 Printf.sprintf "%.0f%%" (100.0 *. (hs -. cs) /. cs)
               else "-");
              Table.cell_i (Report.crashes churn);
              Table.cell_i (Report.ckpt_bytes churn / 1024);
              Table.cell_f ~digits:3 (1e3 *. Report.recovery_time churn);
              (if churn.Report.checksum = clean.Report.checksum then "="
               else "DIFFERS");
            ])
        (crash_platforms ()))
    crash_apps;
  Table.print table;
  print_endline
    "\nLost time under churn is the outage itself plus checkpoint and\n\
     rejoin overhead; the '=' column certifies the run recovered to the\n\
     crash-free answer.  IVY pays whole-page checkpoints where TreadMarks\n\
     checkpoints only the twin/diff-dirty runs."

(* ------------------------------------------------------------------ *)
(* Serving exhibit: the sharded KV store under the open-loop load      *)
(* generator (DESIGN.md §14).  Same offered load on every platform;    *)
(* the software/hardware gap the paper measured as speedup shows up    *)
(* here as tail latency, because a server that cannot keep up          *)
(* accumulates queueing delay the open-loop generator refuses to hide. *)

let kv_platforms () =
  [
    ("dec", dec (), 1);
    ("treadmarks", tmk (), 8);
    ("ivy", ivy (), 8);
    ("sgi", sgi (), 8);
    ("AS", as_machine (), 8);
    ("AH", ah_machine (), 8);
    ("HS", hs_machine (), 8);
  ]

let kv_exhibit () =
  let table =
    Table.create
      ~title:
        "KV serving: open-loop load per platform (latency percentiles in \
         microseconds, measured from the scheduled issue cycle)"
      ~columns:
        [
          "platform"; "procs"; "ops"; "kops/s"; "p50_us"; "p99_us";
          "p999_us"; "max_us"; "moves"; "model";
        ]
  in
  List.iter
    (fun (platform_key, (platform : Platform.t), n) ->
      (* A fresh app per run: the KV store carries per-run observation
         state (request log, latency histograms), so instances must not
         be shared even through the memo cache. *)
      let app = Registry.app ~scale:!scale "kv" in
      let r = timed_run ~app_key:"kv" ~platform ~platform_key app ~n in
      let us c =
        Table.cell_f ~digits:1 (float_of_int c /. platform.Platform.clock_mhz)
      in
      Table.add_row table
        [
          platform_key;
          string_of_int n;
          string_of_int (Report.get r "kv.ops");
          Table.cell_f ~digits:1
            (float_of_int (Report.get r "kv.ops") /. Report.seconds r /. 1e3);
          us (Report.get r "kv.lat_p50");
          us (Report.get r "kv.lat_p99");
          us (Report.get r "kv.lat_p999");
          us (Report.get r "kv.lat_max");
          string_of_int (Report.get r "kv.moves");
          (if Report.get r "kv.model_ok" = 1 then "ok" else "FAIL");
        ])
    (kv_platforms ());
  Table.print table;
  print_endline
    "\nThe software DSMs queue requests behind page faults and bucket\n\
     ownership transfers, so their percentiles are queueing delay; the\n\
     bus and directory machines absorb the same offered load with flat\n\
     tails.  The 'model' column certifies the recorded history replayed\n\
     against a sequential hash-table model."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core primitives                    *)

let micro () =
  let open Bechamel in
  let module Memory = Shm_memsys.Memory in
  let module Diff = Shm_tmk.Diff in
  let module Vc = Shm_tmk.Vc in
  let module Cache = Shm_memsys.Cache in
  let module Pqueue = Shm_sim.Pqueue in
  let diff_roundtrip =
    let words = 512 in
    let mem = Memory.create ~words in
    let twin = Memory.create ~words in
    for i = 0 to words - 1 do
      Memory.set_int twin i i
    done;
    Memory.copy_all ~src:twin ~dst:mem;
    for i = 0 to 63 do
      Memory.set_int mem (i * 8) (i + 10_000)
    done;
    Test.make ~name:"diff make+apply (4KB page, 64 changed words)"
      (Staged.stage (fun () ->
           let d = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words in
           Diff.apply d mem ~base:0))
  in
  let vc_join =
    let a = Array.init 64 (fun i -> i)
    and b = Array.init 64 (fun i -> 64 - i) in
    Test.make ~name:"vector-clock join (64 nodes)"
      (Staged.stage (fun () -> ignore (Vc.join a b)))
  in
  let cache_probe =
    let c = Cache.create ~size_words:8192 ~block_words:4 in
    for i = 0 to 2047 do
      ignore (Cache.insert c (i * 4) Cache.Shared)
    done;
    let i = ref 0 in
    Test.make ~name:"cache probe"
      (Staged.stage (fun () ->
           i := (!i + 37) land 8191;
           ignore (Cache.probe c !i)))
  in
  let pqueue_churn =
    let q = Pqueue.create ~dummy:() in
    let t = ref 0 in
    Test.make ~name:"event-queue push+pop"
      (Staged.stage (fun () ->
           incr t;
           Pqueue.push q ~time:!t ();
           ignore (Pqueue.pop q)))
  in
  let barrier_round =
    Test.make ~name:"8-node TreadMarks barrier round"
      (Staged.stage (fun () ->
           let module Engine = Shm_sim.Engine in
           let module Counters = Shm_stats.Counters in
           let module Fabric = Shm_net.Fabric in
           let module Config = Shm_tmk.Config in
           let module System = Shm_tmk.System in
           let eng = Engine.create () in
           let counters = Counters.create () in
           let fabric =
             Fabric.create eng counters
               (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
               ~nodes:8
           in
           let memories = Array.init 8 (fun _ -> Memory.create ~words:512) in
           let cfg = Config.default ~n_nodes:8 ~shared_words:512 in
           let sys = System.create eng counters fabric cfg ~memories in
           System.start sys;
           for node = 0 to 7 do
             ignore
               (Engine.spawn eng ~name:(string_of_int node) ~at:0 (fun f ->
                    System.barrier_arrive sys f ~node ~id:0))
           done;
           Engine.run eng))
  in
  let tests =
    Test.make_grouped ~name:"core"
      [ diff_roundtrip; vc_join; cache_probe; pqueue_churn; barrier_round ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"Microbenchmarks (Bechamel, monotonic clock)"
      ~columns:[ "benchmark"; "ns/run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let cell =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Table.cell_f ~digits:1 est
        | Some _ | None -> "n/a"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Table.add_row table [ name; cell ])
    (List.sort compare !rows);
  Table.print table

(* ------------------------------------------------------------------ *)
(* Submit phase: one plan per experiment, declaring exactly the runs   *)
(* its renderer will consume, so the pool can execute runs from the    *)
(* whole selected suite in parallel before any rendering starts.       *)

let sec2_plan_apps = [ "ilink-clp"; "sor"; "tsp"; "water"; "m-water" ]

let plan_sec2 (app_key, app) =
  declare ~app_key ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
  let tmk_p = tmk () and sgi_p = sgi () in
  declare ~app_key ~platform:sgi_p ~platform_key:"sgi" app ~n:1;
  List.iter
    (fun n ->
      declare ~app_key ~platform:tmk_p ~platform_key:"treadmarks" app ~n;
      declare ~app_key ~platform:sgi_p ~platform_key:"sgi" app ~n)
    procs_sec2

let plan_sec3 (app_key, app) =
  let archs =
    [ ("AH", ah_machine ()); ("HS", hs_machine ()); ("AS", as_machine ()) ]
  in
  List.iter
    (fun (k, p) -> declare ~app_key ~platform:p ~platform_key:k app ~n:1)
    archs;
  List.iter
    (fun n ->
      List.iter
        (fun (k, p) -> declare ~app_key ~platform:p ~platform_key:k app ~n)
        archs)
    (List.tl procs_sec3)

let plan_overhead ~tag ~make_platform (app_key, app) =
  List.iter
    (fun (f, w) ->
      let key = Printf.sprintf "%s-%s-ov%d-%d" tag app_key f w in
      let p = make_platform (Overhead.sweep ~fixed:f ~per_word:w) in
      declare ~app_key ~platform:p ~platform_key:key app ~n:1;
      List.iter
        (fun n -> declare ~app_key ~platform:p ~platform_key:key app ~n)
        (List.tl procs_sec3))
    [ (5000, 10); (500, 10); (100, 10); (100, 1) ]

let plan_table1 () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      declare ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks" app
        ~n:1;
      declare ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1)
    sec2_apps

let plan_table2 () =
  List.iter
    (fun name ->
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks"
        (Registry.app ~scale:!scale name)
        ~n:8)
    sec2_apps

let plan_tsp_eager () =
  let app_key, app = sec2_app "tsp" in
  declare ~app_key ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
  declare ~app_key ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1;
  declare ~app_key ~platform:(tmk ()) ~platform_key:"treadmarks" app ~n:8;
  declare ~app_key ~platform:(tmk_eager ()) ~platform_key:"treadmarks-eager"
    app ~n:8;
  declare ~app_key ~platform:(sgi ()) ~platform_key:"sgi" app ~n:8

let plan_kernel_level () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      declare ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
      declare ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1;
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks" app
        ~n:8;
      declare ~app_key:name ~platform:(tmk_kernel ())
        ~platform_key:"treadmarks-kernel" app ~n:8;
      declare ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:8)
    sec2_plan_apps

let plan_sim64 () =
  List.iter
    (fun (app_key, app) ->
      declare ~app_key ~platform:(as_machine ()) ~platform_key:"AS" app ~n:64;
      declare ~app_key ~platform:(hs_machine ()) ~platform_key:"HS" app ~n:64)
    [ sor_sim (); tsp_sim (); mwater_sim () ]

let plan_lrc_vs_ivy () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      declare ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks" app
        ~n:8;
      declare ~app_key:name ~platform:(ivy ()) ~platform_key:"ivy" app ~n:8)
    [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ]

let plan_lrc_vs_erc () =
  let erc () = Machines.get "treadmarks-erc" in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      declare ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks" app
        ~n:8;
      declare ~app_key:name ~platform:(erc ()) ~platform_key:"treadmarks-erc"
        app ~n:8)
    [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ]

let plan_sgi_bus () =
  let fast = Machines.get "sgi-fast" in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      declare ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:1;
      declare ~app_key:name ~platform:(sgi ()) ~platform_key:"sgi" app ~n:8;
      declare ~app_key:name ~platform:fast ~platform_key:"sgi-fast" app ~n:1;
      declare ~app_key:name ~platform:fast ~platform_key:"sgi-fast" app ~n:8;
      declare ~app_key:name ~platform:(dec ()) ~platform_key:"dec" app ~n:1;
      declare ~app_key:name ~platform:(tmk ()) ~platform_key:"treadmarks" app
        ~n:8)
    [ "sor"; "sor-square"; "m-water" ]

let plan_breakdown () =
  let platforms = bd_platforms () in
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun (platform_key, _, platform) ->
          declare ~app_key:name ~platform ~platform_key app ~n:8)
        platforms)
    bd_apps

let plan_protocol_matrix () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun p ->
          declare ~app_key:name ~platform:(pm_platform p)
            ~platform_key:(pm_key p) app ~n:8)
        pm_protocols)
    bd_apps

let plan_crash_churn () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun (label, crash_key, clean_p, crash_p) ->
          declare ~app_key:name ~platform:clean_p ~platform_key:label app ~n:4;
          declare ~app_key:name ~platform:crash_p ~platform_key:crash_key app
            ~n:4)
        (crash_platforms ()))
    crash_apps

let plan_sharing_patterns () =
  List.iter
    (fun name ->
      let app = Registry.app ~scale:!scale name in
      List.iter
        (fun (pf, pk) ->
          declare ~app_key:name ~platform:(pf ()) ~platform_key:pk app ~n:1;
          declare ~app_key:name ~platform:(pf ()) ~platform_key:pk app ~n:8)
        [ (tmk, "treadmarks"); (ivy, "ivy"); (sgi, "sgi") ])
    [ "migratory"; "producer-consumer"; "false-sharing"; "read-mostly" ]

let plan_kv () =
  List.iter
    (fun (platform_key, platform, n) ->
      declare ~app_key:"kv" ~platform ~platform_key
        (Registry.app ~scale:!scale "kv")
        ~n)
    (kv_platforms ())

(* ------------------------------------------------------------------ *)
(* Topology sweep: the paper's three Section-3 designs expressed as     *)
(* topology specs and swept past the named platforms' 64/256-processor *)
(* ceilings.  AS is a flat software-DSM root, AH a flat directory      *)
(* cabinet, HS8 the hybrid — 8-way snooping buses under the DSM root.  *)
(* Every shape computes the same SOR instance, so the checksum column  *)
(* doubles as a cross-topology correctness check.                      *)

let tp_sizes = [ 128; 256; 512; 1024 ]

let tp_shapes p =
  [
    ("AS", Printf.sprintf "lrc*%d" p);
    ("AH", Printf.sprintf "directory*%d" p);
    ("HS8", Printf.sprintf "lrc(mesi*8 x %d)" (p / 8));
  ]

(* One reduction slot per processor; the stencil is compute-dense (as in
   [sor_sim]) so the big runs exercise hierarchical synchronization, not
   the simulator's memory system. *)
let sor_tp p =
  let rows, cols, iters =
    match !scale with
    | Registry.Quick -> (256, 128, 2)
    | Registry.Default -> (512, 256, 4)
    | Registry.Paper -> (1024, 512, 8)
  in
  ( Printf.sprintf "sor-tp%d" p,
    Sor.make
      { Sor.default_params with rows; cols; iters; point_cycles = 480;
        slots = p } )

let plan_topology_sweep () =
  List.iter
    (fun p ->
      let app_key, app = sor_tp p in
      List.iter
        (fun (_, spec) ->
          declare ~app_key ~platform:(Machines.topology spec)
            ~platform_key:spec app ~n:p)
        (tp_shapes p))
    tp_sizes

let topology_sweep () =
  let table =
    Table.create
      ~title:
        "Topology sweep: SOR simulated seconds on AS/AH/HS shapes to 1024 \
         processors"
      ~columns:[ "procs"; "AS"; "AH"; "HS8" ]
  in
  List.iter
    (fun p ->
      let app_key, app = sor_tp p in
      let reports =
        List.map
          (fun (shape, spec) ->
            ( shape,
              timed_run ~app_key ~platform:(Machines.topology spec)
                ~platform_key:spec app ~n:p ))
          (tp_shapes p)
      in
      (match reports with
      | (_, first) :: rest ->
          List.iter
            (fun (shape, r) ->
              if r.Report.checksum <> first.Report.checksum then
                failwith
                  (Printf.sprintf
                     "topology sweep: %s checksum diverged at %d procs" shape
                     p))
            rest
      | [] -> ());
      Table.add_row table
        (string_of_int p
        :: List.map
             (fun (_, r) -> Table.cell_f ~digits:4 (Report.seconds r))
             reports))
    tp_sizes;
  Table.print table;
  Printf.printf
    "    (checksums identical across all shapes at every size)\n"

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)

type experiment = {
  id : string;
  title : string;
  plan : unit -> unit; (* submit phase: declare the run set *)
  run : unit -> unit; (* render phase: await results, print tables *)
}

let no_plan () = ()

let experiments =
  [
    { id = "t1"; title = "Table 1: single-processor times"; plan = plan_table1;
      run = table1 };
    { id = "t2"; title = "Table 2: 8-processor TreadMarks statistics";
      plan = plan_table2; run = table2 };
    { id = "f1"; title = "Figure 1: ILINK-CLP";
      plan = (fun () -> plan_sec2 (sec2_app "ilink-clp"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 1: ILINK CLP speedups"
            (sec2_app "ilink-clp")) };
    { id = "f2"; title = "Figure 2: ILINK-BAD";
      plan = (fun () -> plan_sec2 (sec2_app "ilink-bad"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 2: ILINK BAD speedups"
            (sec2_app "ilink-bad")) };
    { id = "f3"; title = "Figure 3: SOR (large)";
      plan = (fun () -> plan_sec2 (sec2_app "sor"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 3: SOR 2000x1000-class speedups"
            (sec2_app "sor")) };
    { id = "f4"; title = "Figure 4: SOR (square)";
      plan = (fun () -> plan_sec2 (sec2_app "sor-square"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 4: SOR 1000x1000-class speedups"
            (sec2_app "sor-square")) };
    { id = "f5"; title = "Figure 5: TSP (smaller input)";
      plan = (fun () -> plan_sec2 (sec2_app "tsp-small"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 5: TSP 18-city-class speedups"
            (sec2_app "tsp-small")) };
    { id = "f6"; title = "Figure 6: TSP (larger input)";
      plan = (fun () -> plan_sec2 (sec2_app "tsp"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 6: TSP 19-city-class speedups"
            (sec2_app "tsp")) };
    { id = "f7"; title = "Figure 7: Water";
      plan = (fun () -> plan_sec2 (sec2_app "water"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 7: Water speedups" (sec2_app "water")) };
    { id = "f8"; title = "Figure 8: M-Water";
      plan = (fun () -> plan_sec2 (sec2_app "m-water"));
      run =
        (fun () ->
          sec2_figure ~title:"Figure 8: M-Water speedups" (sec2_app "m-water")) };
    { id = "x1"; title = "TSP eager vs lazy release"; plan = plan_tsp_eager;
      run = tsp_eager };
    { id = "x2"; title = "user- vs kernel-level TreadMarks";
      plan = plan_kernel_level; run = kernel_level };
    { id = "x3"; title = "SOR with all points changing";
      plan = (fun () -> plan_sec2 (sec2_app "sor-touchall"));
      run = sor_touch_all };
    { id = "f9"; title = "Figure 9: SOR on AS/AH/HS";
      plan = (fun () -> plan_sec3 (sor_sim ()));
      run =
        (fun () ->
          sec3_figure ~title:"Figure 9: SOR speedups, AS/AH/HS" (sor_sim ())) };
    { id = "f10"; title = "Figure 10: TSP on AS/AH/HS";
      plan = (fun () -> plan_sec3 (tsp_sim ()));
      run =
        (fun () ->
          sec3_figure ~title:"Figure 10: TSP speedups, AS/AH/HS" (tsp_sim ())) };
    { id = "f11"; title = "Figure 11: M-Water on AS/AH/HS";
      plan = (fun () -> plan_sec3 (mwater_sim ()));
      run =
        (fun () ->
          sec3_figure ~title:"Figure 11: M-Water speedups, AS/AH/HS"
            (mwater_sim ())) };
    { id = "f12"; title = "Figure 12: message totals"; plan = plan_sim64;
      run = messages_figure };
    { id = "f13"; title = "Figure 13: data totals"; plan = plan_sim64;
      run = data_figure };
    { id = "f14"; title = "Figure 14: AS SOR overhead sweep";
      plan =
        (fun () ->
          plan_overhead ~tag:"AS"
            ~make_platform:(fun ov -> as_machine ~overhead:ov ())
            (sor_sim ()));
      run =
        (fun () ->
          overhead_figure
            ~title:
              "Figure 14: SOR on AS, software-overhead sweep (fixed/per-word \
               cycles)"
            ~tag:"AS"
            ~make_platform:(fun ov -> as_machine ~overhead:ov ())
            (sor_sim ())) };
    { id = "f15"; title = "Figure 15: AS M-Water overhead sweep";
      plan =
        (fun () ->
          plan_overhead ~tag:"AS"
            ~make_platform:(fun ov -> as_machine ~overhead:ov ())
            (mwater_sim ()));
      run =
        (fun () ->
          overhead_figure
            ~title:
              "Figure 15: M-Water on AS, software-overhead sweep \
               (fixed/per-word cycles)"
            ~tag:"AS"
            ~make_platform:(fun ov -> as_machine ~overhead:ov ())
            (mwater_sim ())) };
    { id = "f16"; title = "Figure 16: HS M-Water overhead sweep";
      plan =
        (fun () ->
          plan_overhead ~tag:"HS"
            ~make_platform:(fun ov -> hs_machine ~overhead:ov ())
            (mwater_sim ()));
      run =
        (fun () ->
          overhead_figure
            ~title:
              "Figure 16: M-Water on HS, software-overhead sweep \
               (fixed/per-word cycles)"
            ~tag:"HS"
            ~make_platform:(fun ov -> hs_machine ~overhead:ov ())
            (mwater_sim ())) };
    { id = "ab1"; title = "Ablation: LRC vs IVY page DSM";
      plan = plan_lrc_vs_ivy; run = lrc_vs_ivy };
    { id = "ab2"; title = "Ablation: lazy vs eager-invalidate RC";
      plan = plan_lrc_vs_erc; run = lrc_vs_erc };
    { id = "ab3"; title = "Ablation: SGI bus bandwidth"; plan = plan_sgi_bus;
      run = sgi_bus_ablation };
    { id = "ab4"; title = "Ablation: sharing patterns";
      plan = plan_sharing_patterns; run = sharing_patterns };
    { id = "bd1"; title = "Execution-time breakdown (software vs hardware)";
      plan = plan_breakdown; run = breakdown_exhibit };
    { id = "pm1"; title = "Protocol matrix: engines on the SDSM cluster";
      plan = plan_protocol_matrix; run = protocol_matrix };
    { id = "cr1"; title = "Availability under crash/restart churn";
      plan = plan_crash_churn; run = crash_churn };
    { id = "kv1"; title = "KV serving: throughput and tail latency";
      plan = plan_kv; run = kv_exhibit };
    { id = "tp1"; title = "Topology sweep: AS/AH/HS shapes to 1024 processors";
      plan = plan_topology_sweep; run = topology_sweep };
    { id = "micro"; title = "Bechamel micro-benchmarks"; plan = no_plan;
      run = micro };
  ]

(* ------------------------------------------------------------------ *)
(* Domain-pool probe: wall-clock one fixed run set through a 1-wide and
   a 4-wide pool.  Whole-suite wall times at different --jobs are not
   comparable from a single run (per-run walls measured inside workers
   inflate under oversubscription), so the probe re-executes the same
   runs through fresh pools and reports outside-the-pool walls.  On a
   host with a single core the honest result is a slowdown; the probe
   records whatever the host delivers. *)

(* A 1-wide vs 4-wide pool comparison is meaningless on a single-core
   host: both pools serialize onto the same core and the "speedup" is
   scheduler noise.  The probe records the host's core count either way
   and skips the measurement below two cores — an explicit "skipped"
   marker in the JSON, never a bogus number. *)
type probe_result = Probe_walls of float * float | Probe_skipped

let pool_probe () =
  let cores = Domain.recommended_domain_count () in
  if cores < 2 then begin
    Printf.printf
      "Pool probe skipped: host has %d core(s); comparing pool widths needs \
       at least 2.\n"
      cores;
    Probe_skipped
  end
  else begin
  (* Water is the heaviest section-2 app, so the probe measures pool
     behaviour rather than domain spawn overhead. *)
  let app = Registry.app ~scale:!scale "water" in
  let run_set () =
    (dec (), "dec", 1)
    :: List.concat_map
         (fun n -> [ (tmk (), "treadmarks", n); (sgi (), "sgi", n) ])
         procs_sec2
  in
  let time_with ~jobs =
    let pool = Pool.create ~jobs in
    let probe_cache : (run_key, timed) Run_cache.t = Run_cache.create pool in
    let t0 = Unix.gettimeofday () in
    let futs =
      List.map
        (fun (platform, platform_key, n) ->
          let key = { app_key = "water"; platform_key; n } in
          Run_cache.find_or_submit probe_cache key (execute key platform app))
        (run_set ())
    in
    List.iter (fun f -> ignore (Future.await f)) futs;
    let wall = Unix.gettimeofday () -. t0 in
    Pool.shutdown pool;
    wall
  in
  let jobs1 = time_with ~jobs:1 in
  let jobs4 = time_with ~jobs:4 in
  Printf.printf
    "Pool probe (water, DEC/TreadMarks/SGI, 1-8 procs): jobs=1 %.2f s, \
     jobs=4 %.2f s (speedup %.2fx)\n"
    jobs1 jobs4
    (if jobs4 > 0.0 then jobs1 /. jobs4 else 0.0);
  Probe_walls (jobs1, jobs4)
  end

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_access.json                         *)

(* Hand-rolled JSON writer (no JSON library in the tree).  Floats use
   %.17g so values round-trip bit-exactly; checksums are compared
   across runs by external tooling. *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* Schema bench_access/4: every executed experiment's wall time, the
   domain-pool width, and a sequential-equivalent estimate (the sum of
   per-run walls measured inside the workers — what the suite would cost
   with --jobs 1).  Runs appear in submission order, which is the same at
   any --jobs; only runs whose results a table or figure consumed are
   recorded, so the run list is identical across pool widths too.  /3
   added per-run offered/delivered/dropped/retrans reliability counters
   (all equal to messages / zero on the bench's fault-free runs).  /4
   adds the simulator-throughput exhibit: per-run "mcycles_per_s"
   (simulated cycles retired per wall second), the aggregate
   "mcycles_per_s" over all recorded runs, "pool_speedup"
   (sequential-equivalent wall over this run's wall, i.e. what --jobs
   bought relative to --jobs 1) and "host_cores" so throughput numbers
   can be compared across hosts; with --pool-probe it also records
   "pool_probe" — outside-the-pool walls of one fixed run set executed
   at jobs=1 and jobs=4 (the only fair cross-width comparison).  /5
   adds per-run crash-recovery fields: "crash" (whether the run crashed
   any node), "crashes", "recovery_time" (rejoin cost in simulated
   seconds) and "ckpt_bytes" — all false/zero on crash-free runs.  /6
   adds the serving-workload fields "kv_ops", "kv_p50", "kv_p99",
   "kv_p999" (latency percentiles in cycles) and "kv_model_ok" — all
   zero on runs of apps other than the KV store.  /7 restructures
   "pool_probe": it always records "host_cores" and "skipped"; on a
   host with fewer than two cores the walls are omitted and "skipped"
   is true (a 1-vs-4-wide pool comparison on one core measures only
   scheduler noise), otherwise "skipped" is false and the
   jobs1/jobs4 walls and speedup follow as in /4.  /7 also adds the
   tp1 topology-sweep runs, whose "platform" keys are topology spec
   strings such as "lrc(mesi*8 x 64)". *)
let write_bench_json ~path ~jobs ~total_wall ~experiment_walls ~probe =
  let runs =
    List.filter_map
      (fun (key, fut) ->
        if Hashtbl.mem announced key then
          Option.map (fun tr -> (key, tr)) (Future.peek fut)
        else None)
      (Run_cache.to_list (cache ()))
  in
  let sequential_equivalent =
    List.fold_left (fun acc (_, tr) -> acc +. tr.wall) 0.0 runs
  in
  let total_sim_cycles =
    List.fold_left (fun acc (_, tr) -> acc + tr.report.Report.cycles) 0 runs
  in
  let mcycles_per_s cycles wall =
    if wall > 0.0 then float_of_int cycles /. wall /. 1e6 else 0.0
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"bench_access/7\",\n";
  out "  \"scale\": %S,\n" (Registry.scale_name !scale);
  out "  \"jobs\": %d,\n" jobs;
  out "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"total_wall_s\": %s,\n" (json_float total_wall);
  out "  \"sequential_equivalent_s\": %s,\n" (json_float sequential_equivalent);
  out "  \"pool_speedup\": %s,\n"
    (json_float
       (if total_wall > 0.0 then sequential_equivalent /. total_wall else 0.0));
  out "  \"mcycles_per_s\": %s,\n"
    (json_float (mcycles_per_s total_sim_cycles sequential_equivalent));
  (match probe with
  | None -> ()
  | Some Probe_skipped ->
      out
        "  \"pool_probe\": {\"experiment\": \"sec2-water\", \"host_cores\": \
         %d, \"skipped\": true},\n"
        (Domain.recommended_domain_count ())
  | Some (Probe_walls (jobs1, jobs4)) ->
      out
        "  \"pool_probe\": {\"experiment\": \"sec2-water\", \"host_cores\": \
         %d, \"skipped\": false, \"jobs1_wall_s\": %s, \"jobs4_wall_s\": %s, \
         \"jobs4_speedup\": %s},\n"
        (Domain.recommended_domain_count ())
        (json_float jobs1) (json_float jobs4)
        (json_float (if jobs4 > 0.0 then jobs1 /. jobs4 else 0.0)));
  out "  \"experiments\": [\n";
  let n_exp = List.length experiment_walls in
  List.iteri
    (fun i (id, wall) ->
      out "    {\"id\": \"%s\", \"wall_s\": %s}%s\n" (json_escape id)
        (json_float wall)
        (if i = n_exp - 1 then "" else ","))
    experiment_walls;
  out "  ],\n";
  out "  \"runs\": [\n";
  let n_runs = List.length runs in
  List.iteri
    (fun i ({ app_key; platform_key; n }, { report = r; wall; _ }) ->
      out
        "    {\"app\": \"%s\", \"platform\": \"%s\", \"nprocs\": %d, \
         \"wall_s\": %s, \"sim_cycles\": %d, \"sim_s\": %s, \
         \"mcycles_per_s\": %s, \"messages\": %d, \"kbytes\": %d, \
         \"offered\": %d, \"delivered\": %d, \"dropped\": %d, \
         \"retrans\": %d, \"crash\": %b, \"crashes\": %d, \
         \"recovery_time\": %s, \"ckpt_bytes\": %d, \"kv_ops\": %d, \
         \"kv_p50\": %d, \"kv_p99\": %d, \"kv_p999\": %d, \
         \"kv_model_ok\": %d, \"checksum\": %s}%s\n"
        (json_escape app_key) (json_escape platform_key) n (json_float wall)
        r.Report.cycles
        (json_float (Report.seconds r))
        (json_float (mcycles_per_s r.Report.cycles wall))
        (Report.get r "net.msgs.total")
        (Report.get r "net.bytes.total" / 1024)
        (Report.offered r) (Report.delivered r) (Report.dropped r)
        (Report.retransmissions r)
        (Report.crashes r > 0)
        (Report.crashes r)
        (json_float (Report.recovery_time r))
        (Report.ckpt_bytes r)
        (Report.get r "kv.ops")
        (Report.get r "kv.lat_p50")
        (Report.get r "kv.lat_p99")
        (Report.get r "kv.lat_p999")
        (Report.get r "kv.model_ok")
        (json_float r.Report.checksum)
        (if i = n_runs - 1 then "" else ","))
    runs;
  out "  ]\n";
  out "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        go rest
    | "--skip-micro" :: rest ->
        skip_micro := true;
        go rest
    | "--pool-probe" :: rest ->
        pool_probe_arg := true;
        go rest
    | "--only" :: ids :: rest ->
        only := String.split_on_char ',' (String.lowercase_ascii ids);
        go rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v when v >= 1 -> jobs_arg := v
        | Some _ | None -> failwith (Printf.sprintf "bad --jobs %S" n));
        go rest
    | "--json" :: p :: rest ->
        json_path := p;
        go rest
    | "--scale" :: s :: rest ->
        (match Registry.scale_of_string s with
        | Some v -> scale := v
        | None -> failwith (Printf.sprintf "unknown scale %S" s));
        go rest
    | "--full" :: rest ->
        scale := Registry.Paper;
        go rest
    | "--quick" :: rest ->
        scale := Registry.Quick;
        go rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  (* The simulators allocate short-lived boxes at a high rate; a larger
     minor heap cuts collection counts by two orders of magnitude. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  parse_args ();
  if !list_only then
    List.iter (fun e -> Printf.printf "%-6s %s\n" e.id e.title) experiments
  else begin
    let wanted e =
      (match !only with [] -> true | ids -> List.mem e.id ids)
      && not (!skip_micro && e.id = "micro")
    in
    let jobs = if !jobs_arg > 0 then !jobs_arg else Pool.default_jobs () in
    let pool = Pool.create ~jobs in
    the_cache := Some (Run_cache.create pool);
    let selected = List.filter wanted experiments in
    let t0 = Unix.gettimeofday () in
    Printf.printf
      "Reproduction harness: Cox et al., ISCA 1994 (scale = %s, jobs = %d)\n\n"
      (Registry.scale_name !scale) jobs;
    (* Submit phase: declare every selected experiment's run set so the
       pool can execute the whole suite's runs in parallel.  Rendering
       below then awaits each run in the original deterministic order. *)
    List.iter (fun e -> e.plan ()) selected;
    let experiment_walls = ref [] in
    List.iter
      (fun e ->
        Printf.printf "=== %s: %s ===\n%!" (String.uppercase_ascii e.id)
          e.title;
        let e0 = Unix.gettimeofday () in
        e.run ();
        experiment_walls :=
          (e.id, Unix.gettimeofday () -. e0) :: !experiment_walls;
        print_newline ())
      selected;
    let total_wall = Unix.gettimeofday () -. t0 in
    Printf.printf "Total wall time: %.1f s\n" total_wall;
    Pool.shutdown pool;
    let probe = if !pool_probe_arg then Some (pool_probe ()) else None in
    let path = !json_path in
    write_bench_json ~path ~jobs ~total_wall
      ~experiment_walls:(List.rev !experiment_walls) ~probe;
    Printf.printf "Wrote %s\n" path
  end
