(* Benchmark harness: regenerates every table and figure of Cox et al.,
   "Software Versus Hardware Shared-Memory Implementation: A Case Study"
   (ISCA 1994), plus the paper's in-text experiments.

   Usage:
     dune exec bench/main.exe                 -- run everything (default scale)
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --only f3,t1 -- run a subset
     dune exec bench/main.exe -- --scale quick|default|paper
     dune exec bench/main.exe -- --jobs 4     -- run simulations on 4 domains
     dune exec bench/main.exe -- --json PATH  -- results file (BENCH_access.json)
     dune exec bench/main.exe -- --pool-probe -- time a fixed run set at
                                                 jobs=1 vs jobs=4

   Independent simulation runs execute on a pool of OCaml 5 domains
   (default: Domain.recommended_domain_count () - 1; override with
   --jobs N or SHMCS_JOBS).  Calling an exhibit submits its runs and
   returns its renderer; every selected exhibit is staged before the
   first one renders, so the pool executes runs from the whole suite in
   parallel, and tables/figures render from the completed reports in the
   original deterministic order.  Every table, figure and run statistic
   is identical at any --jobs. *)

module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Dsm_cluster = Shm_platform.Dsm_cluster
module Topology = Shm_platform.Topology
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

type run = { key : run_key; fut : timed Future.t }

(* Stage phase: hand a run of [app] on [platform] at [n] processors to the
   pool.  Apps and platforms come paired with the keys their runs are
   memoized under; the order of first submissions is the order of the
   JSON run list. *)
let submit (app_key, app) (platform_key, platform) n =
  let key = { app_key; platform_key; n } in
  let fut = Run_cache.find_or_submit (cache ()) key (execute key platform app) in
  { key; fut }

(* Runs whose results were actually consumed by a table or figure, i.e.
   the progress line was flushed.  Announcement happens on the main
   domain at first await, so the order is the render order: the same at
   any --jobs, and exactly the execution order of sequential mode. *)
let announced : (run_key, unit) Hashtbl.t = Hashtbl.create 64

(* Render phase: block on a staged run, announcing it on first use. *)
let await { key; fut } =
  let tr = Future.await fut in
  if not (Hashtbl.mem announced key) then begin
    Hashtbl.add announced key ();
    Printf.printf
      "    [ran %s on %s, %d procs: %.3f sim s, %.1f wall s, %.2fG alloc]\n%!"
      key.app_key key.platform_key key.n (Report.seconds tr.report) tr.wall
      tr.alloc_gw
  end;
  tr.report

(* The 1- and 8-processor runs of [app] on [platform], and their
   self-relative speedup cell (with the 8-processor report). *)
let speedup_runs app platform =
  let base = submit app platform 1 in
  (base, submit app platform 8)

let await_speedup (base, r) =
  let base = await base in
  let r = await r in
  (Table.cell_speedup (Report.speedup ~base r), r)

(* The renderer of a staged table: each staged row adds itself. *)
let rendered table rows () =
  List.iter (fun row -> row ()) rows;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Application instances                                               *)

let named_app name = (name, Registry.app ~scale:!scale name)

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

let mwater_sim () = named_app "m-water"

(* ------------------------------------------------------------------ *)
(* Platform instances                                                  *)

let machine name = (name, Machines.get name)
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
let sec2_figure ~title name () =
  let app = named_app name in
  let dec_base = submit app (machine "dec") 1 in
  let tmk = machine "treadmarks" and sgi = machine "sgi" in
  let sgi_base = submit app sgi 1 in
  let rows =
    List.map
      (fun n ->
        let rt = submit app tmk n in
        (n, rt, submit app sgi n))
      procs_sec2
  in
  fun () ->
    let dec_base = await dec_base in
    let sgi_base = await sgi_base in
    let table =
      Table.create ~title ~columns:[ "procs"; "TreadMarks"; "SGI 4D/480" ]
    in
    List.iter
      (fun (n, rt, rs) ->
        let rt = await rt in
        let rs = await rs in
        Table.add_row table
          [
            string_of_int n;
            Table.cell_speedup (Report.speedup ~base:dec_base rt);
            Table.cell_speedup (Report.speedup ~base:sgi_base rs);
          ])
      rows;
    Table.print table

(* A Section-3 speedup figure: AS vs AH vs HS, up to 64 processors,
   each relative to its own uniprocessor run. *)
let sec3_figure ~title make_app () =
  let app = make_app () in
  let archs =
    [
      ("AH", Machines.get "ah");
      ("HS", hs_machine ());
      ("AS", Dsm_cluster.as_machine ());
    ]
  in
  let runs n = List.map (fun arch -> submit app arch n) archs in
  let bases = runs 1 in
  let rows = List.map (fun n -> (n, runs n)) (List.tl procs_sec3) in
  fun () ->
    let bases = List.map await bases in
    let table = Table.create ~title ~columns:("procs" :: List.map fst archs) in
    List.iter
      (fun (n, runs) ->
        let cells =
          List.map2
            (fun base r -> Table.cell_speedup (Report.speedup ~base (await r)))
            bases runs
        in
        Table.add_row table (string_of_int n :: cells))
      rows;
    Table.print table

(* Software-overhead sweep (Figures 14-16).  [tag] keeps the memoized
   runs of the AS and HS sweeps apart.  Each point's runs are submitted
   together; the figure reads them a processor count at a time. *)
let overhead_figure ~title ~tag ~make_platform make_app () =
  let ((app_key, _) as app) = make_app () in
  let points = [ (5000, 10); (500, 10); (100, 10); (100, 1) ] in
  let sweeps =
    List.map
      (fun (f, w) ->
        let platform =
          ( Printf.sprintf "%s-%s-ov%d-%d" tag app_key f w,
            make_platform (Overhead.sweep ~fixed:f ~per_word:w) )
        in
        Array.of_list (List.map (submit app platform) procs_sec3))
      points
  in
  fun () ->
    let columns =
      "procs" :: List.map (fun (f, w) -> Printf.sprintf "%d/%d" f w) points
    in
    let table = Table.create ~title ~columns in
    let bases = List.map (fun runs -> await runs.(0)) sweeps in
    List.iteri
      (fun i n ->
        let cells =
          List.map2
            (fun base runs ->
              Table.cell_speedup (Report.speedup ~base (await runs.(i + 1))))
            bases sweeps
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
  rendered table
    (List.map
       (fun name ->
         let ((_, a) as app) = named_app name in
         let runs =
           List.map
             (fun p -> submit app (machine p) 1)
             [ "dec"; "treadmarks"; "sgi" ]
         in
         fun () ->
           let secs =
             List.map
               (fun r -> Table.cell_f ~digits:2 (Report.seconds (await r)))
               runs
           in
           Table.add_row table (a.Parmacs.name :: secs))
       sec2_apps)

let table2 () =
  let table =
    Table.create
      ~title:"Table 2: 8-processor TreadMarks execution statistics (per second)"
      ~columns:
        [ "program"; "barriers/s"; "remote locks/s"; "messages/s"; "kbytes/s" ]
  in
  rendered table
    (List.map
       (fun name ->
         let ((_, a) as app) = named_app name in
         let r = submit app (machine "treadmarks") 8 in
         fun () ->
           let r = await r in
           Table.add_row table
             [
               a.Parmacs.name;
               Table.cell_f ~digits:1 (Report.rate r "tmk.barriers");
               Table.cell_f ~digits:1 (Report.rate r "tmk.lock_remote");
               Table.cell_f ~digits:0 (Report.rate r "net.msgs.total");
               Table.cell_f ~digits:1
                 (Report.rate r "net.bytes.total" /. 1024.);
             ])
       sec2_apps)

(* ------------------------------------------------------------------ *)
(* In-text experiments                                                 *)

let tsp_eager () =
  let app = named_app "tsp" in
  let dec_base = submit app (machine "dec") 1 in
  let sgi_base = submit app (machine "sgi") 1 in
  let lazy_rc = submit app (machine "treadmarks") 8 in
  let eager = submit app (machine "treadmarks-eager") 8 in
  let sgi = submit app (machine "sgi") 8 in
  fun () ->
    let table =
      Table.create
        ~title:"TSP lazy vs eager release (Section 2.4.3): 8-processor speedups"
        ~columns:[ "platform"; "speedup" ]
    in
    let dec_base = await dec_base in
    let sgi_base = await sgi_base in
    let row name r base =
      Table.add_row table
        [ name; Table.cell_speedup (Report.speedup ~base (await r)) ]
    in
    row "TreadMarks (lazy)" lazy_rc dec_base;
    row "TreadMarks (eager bound)" eager dec_base;
    row "SGI 4D/480" sgi sgi_base;
    Table.print table

let kernel_level () =
  let table =
    Table.create
      ~title:
        "User-level vs kernel-level TreadMarks (Section 2.4.4): 8-processor \
         speedups vs DEC"
      ~columns:[ "program"; "user"; "kernel"; "SGI" ]
  in
  rendered table
    (List.map
       (fun name ->
         let ((_, a) as app) = named_app name in
         let dec_base = submit app (machine "dec") 1 in
         let sgi_base = submit app (machine "sgi") 1 in
         let user = submit app (machine "treadmarks") 8 in
         let kernel = submit app (machine "treadmarks-kernel") 8 in
         let sgi = submit app (machine "sgi") 8 in
         fun () ->
           let base = await dec_base in
           let sgi_base = await sgi_base in
           let speedup r b =
             Table.cell_speedup (Report.speedup ~base:b (await r))
           in
           Table.add_row table
             [
               a.Parmacs.name;
               speedup user base;
               speedup kernel base;
               speedup sgi sgi_base;
             ])
       [ "ilink-clp"; "sor"; "tsp"; "water"; "m-water" ])

(* ------------------------------------------------------------------ *)
(* Figures 12-13: message and data totals at 64 processors             *)

(* Both figures read the same AS and HS runs; [cells r_as r_hs] fills in
   a row after the program name. *)
let sim64_figure table cells =
  rendered table
    (List.map
       (fun ((_, a) as app) ->
         let r_as = submit app ("AS", Dsm_cluster.as_machine ()) 64 in
         let r_hs = submit app ("HS", hs_machine ()) 64 in
         fun () ->
           let r_as = await r_as in
           let r_hs = await r_hs in
           Table.add_row table (a.Parmacs.name :: cells r_as r_hs))
       [ sor_sim (); tsp_sim (); mwater_sim () ])

let messages_figure () =
  let table =
    Table.create
      ~title:
        "Figure 12: total messages at 64 processors (HS as % of AS, split \
         miss / synchronization)"
      ~columns:
        [ "program"; "AS msgs"; "HS msgs"; "HS/AS %"; "HS miss%"; "HS sync%";
          "AS miss%"; "AS sync%" ]
  in
  sim64_figure table (fun r_as r_hs ->
      let as_total = float_of_int (Report.get r_as "net.msgs.total") in
      let pct r name = 100. *. float_of_int (Report.get r name) /. as_total in
      [
        Table.cell_i (Report.get r_as "net.msgs.total");
        Table.cell_i (Report.get r_hs "net.msgs.total");
        Table.cell_f ~digits:1 (pct r_hs "net.msgs.total");
        Table.cell_f ~digits:1 (pct r_hs "net.msgs.miss");
        Table.cell_f ~digits:1 (pct r_hs "net.msgs.sync");
        Table.cell_f ~digits:1 (pct r_as "net.msgs.miss");
        Table.cell_f ~digits:1 (pct r_as "net.msgs.sync");
      ])

let data_figure () =
  let table =
    Table.create
      ~title:
        "Figure 13: total data at 64 processors (HS as % of AS, split miss / \
         consistency / headers)"
      ~columns:
        [ "program"; "AS KB"; "HS KB"; "HS/AS %"; "HS miss%"; "HS cons%";
          "HS hdr%"; "AS miss%"; "AS cons%"; "AS hdr%" ]
  in
  sim64_figure table (fun r_as r_hs ->
      let as_total = float_of_int (Report.get r_as "net.bytes.total") in
      let pct r name = 100. *. float_of_int (Report.get r name) /. as_total in
      [
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

(* ------------------------------------------------------------------ *)
(* Ablations: TreadMarks against another protocol on the DEC cluster   *)

let ablation_apps = [ "sor"; "tsp"; "water"; "m-water"; "ilink-clp" ]

(* One 8-processor row: TreadMarks and [other], as speedups over the
   DECstation and by [metric]. *)
let versus_treadmarks table other metric name =
  let ((_, a) as app) = named_app name in
  let dec_base = submit app (machine "dec") 1 in
  let lrc = submit app (machine "treadmarks") 8 in
  let r_other = submit app (machine other) 8 in
  fun () ->
    let base = await dec_base in
    let lrc = await lrc in
    let r_other = await r_other in
    Table.add_row table
      [
        a.Parmacs.name;
        Table.cell_speedup (Report.speedup ~base lrc);
        Table.cell_speedup (Report.speedup ~base r_other);
        Table.cell_i (metric lrc);
        Table.cell_i (metric r_other);
      ]

(* Lazy release consistency vs sequentially-consistent single-writer
   page DSM (IVY, Li & Hudak) on the same cluster. *)
let lrc_vs_ivy () =
  let table =
    Table.create
      ~title:
        "Ablation: TreadMarks (multiple-writer LRC) vs IVY (single-writer \
         SC pages) on the DEC cluster, 8 processors"
      ~columns:
        [ "program"; "LRC speedup"; "IVY speedup"; "LRC KB"; "IVY KB" ]
  in
  let kbytes r = Report.get r "net.bytes.total" / 1024 in
  let rows = List.map (versus_treadmarks table "ivy" kbytes) ablation_apps in
  fun () ->
    rendered table rows ();
    print_endline
      "\nMultiple-writer diffs avoid both the false-sharing ping-pong and\n\
       the whole-page transfers of the classic SC page DSM."

(* Lazy vs eager-invalidate write-notice propagation. *)
let lrc_vs_erc () =
  let table =
    Table.create
      ~title:
        "Ablation: lazy (TreadMarks) vs eager-invalidate release \
         consistency, 8 processors"
      ~columns:[ "program"; "LRC speedup"; "ERC speedup"; "LRC msgs"; "ERC msgs" ]
  in
  let msgs r = Report.get r "net.msgs.total" in
  let rows =
    List.map (versus_treadmarks table "treadmarks-erc" msgs) ablation_apps
  in
  fun () ->
    rendered table rows ();
    print_endline
      "\nLaziness defers notice propagation to synchronization points;\n\
       broadcasting at every release multiplies messages without making\n\
       anything faster (Keleher et al.'s core LRC result)."

(* Ablation: the Section-2.5 hypothetical SGI with dual tags + fast bus  *)

let sgi_bus_ablation () =
  let table =
    Table.create
      ~title:
        "Ablation: SGI bus bandwidth (Section 2.5: \"dual cache tags and a \
         faster bus are necessary to overcome the bandwidth limitation\"), \
         8 processors"
      ~columns:
        [ "program"; "SGI speedup"; "fast-bus speedup"; "TreadMarks speedup" ]
  in
  rendered table
    (List.map
       (fun name ->
         let ((_, a) as app) = named_app name in
         let sgi = speedup_runs app (machine "sgi") in
         let fast = speedup_runs app (machine "sgi-fast") in
         let dec_base = submit app (machine "dec") 1 in
         let tmk = submit app (machine "treadmarks") 8 in
         fun () ->
           let dec_base = await dec_base in
           let r_tmk = await tmk in
           Table.add_row table
             [
               a.Parmacs.name;
               fst (await_speedup sgi);
               fst (await_speedup fast);
               Table.cell_speedup (Report.speedup ~base:dec_base r_tmk);
             ])
       [ "sor"; "sor-square"; "m-water" ])

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
  let rows =
    List.map
      (fun name ->
        let app = named_app name in
        let lrc = speedup_runs app (machine "treadmarks") in
        let ivy = speedup_runs app (machine "ivy") in
        let sgi = speedup_runs app (machine "sgi") in
        fun () ->
          let kbytes r = Table.cell_i (Report.get r "net.bytes.total" / 1024) in
          let lrc, r_lrc = await_speedup lrc in
          let ivy, r_ivy = await_speedup ivy in
          let sgi, _ = await_speedup sgi in
          Table.add_row table
            [ name; lrc; ivy; sgi; kbytes r_lrc; kbytes r_ivy ])
      [ "migratory"; "producer-consumer"; "false-sharing"; "read-mostly" ]
  in
  fun () ->
    rendered table rows ();
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

(* A run's execution-time breakdown, one cell per category: its share of
   the run's attributed cycles. *)
let breakdown_cells r =
  let bd = Report.breakdown r in
  let total = float_of_int (List.fold_left (fun acc (_, v) -> acc + v) 0 bd) in
  List.map
    (fun cat ->
      match List.assoc_opt cat bd with
      | None | Some 0 -> "-"
      | Some v -> Table.cell_f ~digits:1 (100. *. float_of_int v /. total))
    Engine.categories

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
  let bd_platforms =
    [
      ( "TreadMarks",
        ( "treadmarks+bd",
          Machines.get ~instrument:Instrument.breakdown_only "treadmarks" ) );
      ( "SGI 4D/480",
        ("sgi+bd", Machines.get ~instrument:Instrument.breakdown_only "sgi") );
    ]
  in
  let rows =
    List.concat_map
      (fun name ->
        let ((_, a) as app) = named_app name in
        List.map
          (fun (label, platform) ->
            let r = submit app platform 8 in
            fun () ->
              let r = await r in
              Table.add_row table
                ([
                   a.Parmacs.name; label;
                   Table.cell_f ~digits:4 (Report.seconds r);
                 ]
                @ breakdown_cells r))
          bd_platforms)
      bd_apps
  in
  fun () ->
    rendered table rows ();
    print_endline
      "\nThe software DSM spends its overhead in protocol handlers, twin/diff\n\
       work and message waits; the bus machine's only overhead is memory\n\
       stalls.  Barrier waits dominate both wherever load is imbalanced."

(* ------------------------------------------------------------------ *)
(* Protocol matrix: every software coherence engine mounted on the     *)
(* same SDSM cluster, with the execution-time breakdown for each.      *)

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
  let rows =
    List.concat_map
      (fun name ->
        let ((_, a) as app) = named_app name in
        List.map
          (fun p ->
            let platform =
              Machines.get ~protocol:p ~instrument:Instrument.breakdown_only
                "treadmarks"
            in
            let r = submit app ("proto-" ^ p ^ "+bd", platform) 8 in
            fun () ->
              let r = await r in
              Table.add_row table
                ([
                   a.Parmacs.name; p;
                   Table.cell_f ~digits:4 (Report.seconds r);
                   Table.cell_i (Report.get r "net.msgs.total");
                   Table.cell_i (Report.get r "net.bytes.total" / 1024);
                 ]
                @ breakdown_cells r))
          [ "lrc"; "eager-lrc"; "ivy"; "tardis" ])
      bd_apps
  in
  fun () ->
    rendered table rows ();
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
  let rows =
    List.concat_map
      (fun name ->
        let ((_, a) as app) = named_app name in
        List.map
          (fun label ->
            let clean = submit app (machine label) 4 in
            let churn =
              submit app
                (label ^ "+crash", Machines.get ~crash:churn_policy label)
                4
            in
            fun () ->
              let clean = await clean in
              let churn = await churn in
              let cs = Report.seconds clean and hs = Report.seconds churn in
              Table.add_row table
                [
                  a.Parmacs.name; label;
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
          [ "treadmarks"; "ivy" ])
      [ "sor"; "tsp" ]
  in
  fun () ->
    rendered table rows ();
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
  let rows =
    List.map
      (fun (((platform_key, (p : Platform.t)) as platform), n) ->
        (* A fresh app per run: the KV store carries per-run observation
           state (request log, latency histograms), so instances must not
           be shared even through the memo cache. *)
        let r = submit (named_app "kv") platform n in
        fun () ->
          let r = await r in
          let us c =
            Table.cell_f ~digits:1 (float_of_int c /. p.Platform.clock_mhz)
          in
          Table.add_row table
            [
              platform_key;
              string_of_int n;
              string_of_int (Report.get r "kv.ops");
              Table.cell_f ~digits:1
                (float_of_int (Report.get r "kv.ops")
                /. Report.seconds r /. 1e3);
              us (Report.get r "kv.lat_p50");
              us (Report.get r "kv.lat_p99");
              us (Report.get r "kv.lat_p999");
              us (Report.get r "kv.lat_max");
              string_of_int (Report.get r "kv.moves");
              (if Report.get r "kv.model_ok" = 1 then "ok" else "FAIL");
            ])
      [
        (machine "dec", 1);
        (machine "treadmarks", 8);
        (machine "ivy", 8);
        (machine "sgi", 8);
        (("AS", Dsm_cluster.as_machine ()), 8);
        (("AH", Machines.get "ah"), 8);
        (("HS", hs_machine ()), 8);
      ]
  in
  fun () ->
    rendered table rows ();
    print_endline
      "\nThe software DSMs queue requests behind page faults and bucket\n\
       ownership transfers, so their percentiles are queueing delay; the\n\
       bus and directory machines absorb the same offered load with flat\n\
       tails.  The 'model' column certifies the recorded history replayed\n\
       against a sequential hash-table model."

(* ------------------------------------------------------------------ *)
(* Topology sweep: the paper's three Section-3 designs expressed as     *)
(* topology specs and swept past the named platforms' 64/256-processor *)
(* ceilings.  AS is a flat software-DSM root, AH a flat directory      *)
(* cabinet, HS8 the hybrid — 8-way snooping buses under the DSM root.  *)
(* Every shape computes the same SOR instance, so the checksum column  *)
(* doubles as a cross-topology correctness check.                      *)

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

let topology_sweep () =
  let table =
    Table.create
      ~title:
        "Topology sweep: SOR simulated seconds on AS/AH/HS shapes to 1024 \
         processors"
      ~columns:[ "procs"; "AS"; "AH"; "HS8" ]
  in
  let rows =
    List.map
      (fun p ->
        let app = sor_tp p in
        let runs =
          List.map
            (fun (shape, spec) ->
              (shape, submit app (spec, Machines.topology spec) p))
            [
              ("AS", Printf.sprintf "lrc*%d" p);
              ("AH", Printf.sprintf "directory*%d" p);
              ("HS8", Printf.sprintf "lrc(mesi*8 x %d)" (p / 8));
            ]
        in
        fun () ->
          let reports = List.map (fun (shape, r) -> (shape, await r)) runs in
          (match reports with
          | (_, first) :: rest ->
              List.iter
                (fun (shape, r) ->
                  if r.Report.checksum <> first.Report.checksum then
                    failwith
                      (Printf.sprintf
                         "topology sweep: %s checksum diverged at %d procs"
                         shape p))
                rest
          | [] -> ());
          Table.add_row table
            (string_of_int p
            :: List.map
                 (fun (_, r) -> Table.cell_f ~digits:4 (Report.seconds r))
                 reports))
      [ 128; 256; 512; 1024 ]
  in
  fun () ->
    rendered table rows ();
    Printf.printf
      "    (checksums identical across all shapes at every size)\n"

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)

type experiment = {
  id : string;
  title : string;
  stage : unit -> unit -> unit;
      (* submit the exhibit's runs; the result awaits them and prints *)
}

let experiments =
  let as_sweep ov = Dsm_cluster.as_machine ~overhead:ov () in
  [
    { id = "t1"; title = "Table 1: single-processor times"; stage = table1 };
    { id = "t2"; title = "Table 2: 8-processor TreadMarks statistics";
      stage = table2 };
    { id = "f1"; title = "Figure 1: ILINK-CLP";
      stage = sec2_figure ~title:"Figure 1: ILINK CLP speedups" "ilink-clp" };
    { id = "f2"; title = "Figure 2: ILINK-BAD";
      stage = sec2_figure ~title:"Figure 2: ILINK BAD speedups" "ilink-bad" };
    { id = "f3"; title = "Figure 3: SOR (large)";
      stage =
        sec2_figure ~title:"Figure 3: SOR 2000x1000-class speedups" "sor" };
    { id = "f4"; title = "Figure 4: SOR (square)";
      stage =
        sec2_figure ~title:"Figure 4: SOR 1000x1000-class speedups"
          "sor-square" };
    { id = "f5"; title = "Figure 5: TSP (smaller input)";
      stage =
        sec2_figure ~title:"Figure 5: TSP 18-city-class speedups" "tsp-small" };
    { id = "f6"; title = "Figure 6: TSP (larger input)";
      stage = sec2_figure ~title:"Figure 6: TSP 19-city-class speedups" "tsp" };
    { id = "f7"; title = "Figure 7: Water";
      stage = sec2_figure ~title:"Figure 7: Water speedups" "water" };
    { id = "f8"; title = "Figure 8: M-Water";
      stage = sec2_figure ~title:"Figure 8: M-Water speedups" "m-water" };
    { id = "x1"; title = "TSP eager vs lazy release"; stage = tsp_eager };
    { id = "x2"; title = "user- vs kernel-level TreadMarks";
      stage = kernel_level };
    { id = "x3"; title = "SOR with all points changing";
      stage =
        sec2_figure
          ~title:
            "SOR with every point changing each iteration (Section 2.4.2): \
             TreadMarks still wins"
          "sor-touchall" };
    { id = "f9"; title = "Figure 9: SOR on AS/AH/HS";
      stage = sec3_figure ~title:"Figure 9: SOR speedups, AS/AH/HS" sor_sim };
    { id = "f10"; title = "Figure 10: TSP on AS/AH/HS";
      stage = sec3_figure ~title:"Figure 10: TSP speedups, AS/AH/HS" tsp_sim };
    { id = "f11"; title = "Figure 11: M-Water on AS/AH/HS";
      stage =
        sec3_figure ~title:"Figure 11: M-Water speedups, AS/AH/HS" mwater_sim };
    { id = "f12"; title = "Figure 12: message totals";
      stage = messages_figure };
    { id = "f13"; title = "Figure 13: data totals"; stage = data_figure };
    { id = "f14"; title = "Figure 14: AS SOR overhead sweep";
      stage =
        overhead_figure
          ~title:
            "Figure 14: SOR on AS, software-overhead sweep (fixed/per-word \
             cycles)"
          ~tag:"AS" ~make_platform:as_sweep sor_sim };
    { id = "f15"; title = "Figure 15: AS M-Water overhead sweep";
      stage =
        overhead_figure
          ~title:
            "Figure 15: M-Water on AS, software-overhead sweep (fixed/per-word \
             cycles)"
          ~tag:"AS" ~make_platform:as_sweep mwater_sim };
    { id = "f16"; title = "Figure 16: HS M-Water overhead sweep";
      stage =
        overhead_figure
          ~title:
            "Figure 16: M-Water on HS, software-overhead sweep (fixed/per-word \
             cycles)"
          ~tag:"HS"
          ~make_platform:(fun ov -> hs_machine ~overhead:ov ())
          mwater_sim };
    { id = "ab1"; title = "Ablation: LRC vs IVY page DSM"; stage = lrc_vs_ivy };
    { id = "ab2"; title = "Ablation: lazy vs eager-invalidate RC";
      stage = lrc_vs_erc };
    { id = "ab3"; title = "Ablation: SGI bus bandwidth";
      stage = sgi_bus_ablation };
    { id = "ab4"; title = "Ablation: sharing patterns";
      stage = sharing_patterns };
    { id = "bd1"; title = "Execution-time breakdown (software vs hardware)";
      stage = breakdown_exhibit };
    { id = "pm1"; title = "Protocol matrix: engines on the SDSM cluster";
      stage = protocol_matrix };
    { id = "cr1"; title = "Availability under crash/restart churn";
      stage = crash_churn };
    { id = "kv1"; title = "KV serving: throughput and tail latency";
      stage = kv_exhibit };
    { id = "tp1"; title = "Topology sweep: AS/AH/HS shapes to 1024 processors";
      stage = topology_sweep };
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
    (machine "dec", 1)
    :: List.concat_map
         (fun n -> [ (machine "treadmarks", n); (machine "sgi", n) ])
         procs_sec2
  in
  let time_with ~jobs =
    let pool = Pool.create ~jobs in
    let probe_cache : (run_key, timed) Run_cache.t = Run_cache.create pool in
    let t0 = Unix.gettimeofday () in
    let futs =
      List.map
        (fun ((platform_key, platform), n) ->
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

(* Hand-rolled JSON envelope (no JSON library in the tree).  Floats use
   %.17g so values round-trip bit-exactly. *)

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

(* Schema bench_access/8: every executed experiment's wall time, the
   domain-pool width, and a sequential-equivalent estimate (the sum of
   per-run walls measured inside the workers — what the suite would cost
   with --jobs 1).  Runs appear in submission order, which is the same at
   any --jobs; only runs whose results a table or figure consumed are
   recorded, so the run list is identical across pool widths too.
   "mcycles_per_s" is simulated cycles retired per wall second, per run
   and over all recorded runs; "pool_speedup" is the sequential-equivalent
   wall over this run's wall (what --jobs bought relative to --jobs 1) and
   "host_cores" makes throughput comparable across hosts.  With
   --pool-probe, "pool_probe" records outside-the-pool walls of one fixed
   run set at jobs=1 and jobs=4 (the only fair cross-width comparison); it
   always carries "host_cores" and "skipped", and on a host with fewer
   than two cores the walls are omitted and "skipped" is true.  Each run
   is its "app" and "platform" keys (topology spec strings such as
   "lrc(mesi*8 x 64)" for tp1), "wall_s" and "mcycles_per_s", followed by
   the simulated members of [Report.json_members] — the same names and
   formats as `shmsim run --json`.  /8 replaced /7's own spelling of those
   members ("sim_cycles", "messages", "crash", "recovery_time" and a
   numeric checksum). *)
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
  out "  \"schema\": \"bench_access/8\",\n";
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
    (fun i ({ app_key; platform_key; _ }, { report = r; wall; _ }) ->
      out
        "    {\"app\": \"%s\", \"platform\": \"%s\", \"wall_s\": %s, \
         \"mcycles_per_s\": %s, %s}%s\n"
        (json_escape app_key) (json_escape platform_key) (json_float wall)
        (json_float (mcycles_per_s r.Report.cycles wall))
        (Report.json_members r)
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
  let ids = List.map (fun e -> e.id) experiments in
  (match List.filter (fun id -> not (List.mem id ids)) !only with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment id(s): %s\nvalid ids: %s\n"
        (String.concat ", " unknown) (String.concat " " ids);
      exit 2);
  if !list_only then
    List.iter (fun e -> Printf.printf "%-6s %s\n" e.id e.title) experiments
  else begin
    let wanted e = match !only with [] -> true | ids -> List.mem e.id ids in
    let jobs = if !jobs_arg > 0 then !jobs_arg else Pool.default_jobs () in
    let pool = Pool.create ~jobs in
    the_cache := Some (Run_cache.create pool);
    let t0 = Unix.gettimeofday () in
    Printf.printf
      "Reproduction harness: Cox et al., ISCA 1994 (scale = %s, jobs = %d)\n\n"
      (Registry.scale_name !scale) jobs;
    (* Stage every selected experiment first, so the pool can execute the
       whole suite's runs in parallel; rendering then awaits each run in
       the original deterministic order. *)
    let staged =
      List.map (fun e -> (e, e.stage ())) (List.filter wanted experiments)
    in
    let experiment_walls =
      List.map
        (fun (e, render) ->
          Printf.printf "=== %s: %s ===\n%!" (String.uppercase_ascii e.id)
            e.title;
          let e0 = Unix.gettimeofday () in
          render ();
          print_newline ();
          (e.id, Unix.gettimeofday () -. e0))
        staged
    in
    let total_wall = Unix.gettimeofday () -. t0 in
    Printf.printf "Total wall time: %.1f s\n" total_wall;
    Pool.shutdown pool;
    let probe = if !pool_probe_arg then Some (pool_probe ()) else None in
    let path = !json_path in
    write_bench_json ~path ~jobs ~total_wall ~experiment_walls ~probe;
    Printf.printf "Wrote %s\n" path
  end
