(* shmsim: run any of the paper's applications on any simulated platform.

   Examples:
     shmsim run -a sor -p treadmarks -n 8
     shmsim run -a m-water -p sgi -n 1,2,4,8 --scale quick
     shmsim run -a sor -p treadmarks -n 1,2,4,8 --jobs 4
     shmsim list

   Multi-run invocations (several processor counts, or [compare]'s
   platform sweep) execute their independent simulations on a pool of
   OCaml 5 domains; results render in the requested order regardless of
   completion order, so output is identical at any --jobs. *)

module Registry = Shm_apps.Registry
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Instrument = Shm_platform.Instrument
module Trace = Shm_sim.Trace
module Lifecycle = Shm_sim.Lifecycle
module Fabric = Shm_net.Fabric
module Table = Shm_stats.Table
module Pool = Shm_runner.Pool
module Future = Shm_runner.Future

open Cmdliner

let scale_conv =
  let parse s =
    match Registry.scale_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Registry.scale_name s))

let procs_conv =
  let parse s =
    try Ok (List.map int_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg "expected a comma-separated list of ints")
  in
  Arg.conv (parse, fun ppf l ->
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int l)))

let app_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "a"; "app" ] ~docv:"APP"
        ~doc:
          (Printf.sprintf "Application to run; one of %s."
             (String.concat ", " Registry.names)))

let platform_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "p"; "platform" ] ~docv:"PLATFORM"
        ~doc:
          (Printf.sprintf
             "Platform model; one of %s, or $(b,topo:SPEC) for a topology \
              expression (see $(b,--topology))."
             (String.concat ", " Machines.names)))

let topology_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"SPEC"
        ~doc:
          "Build the platform from a topology expression instead of a named \
           model: SPEC = ENGINE*N | ENGINE(ITEM, ...), ITEM = N | SPEC [x K], \
           with an optional @HOST suffix (sim, dec, dec-kernel, sgi, \
           sgi-fast; default sim).  E.g. $(b,lrc(mesi*8 x 4)) is four 8-way \
           snooping buses under a software-DSM root — the paper's HS shape.  \
           Engines are named per level, so $(b,--protocol) does not combine \
           with this.  Equivalent to $(b,-p topo:SPEC).")

(* [-p] and [--topology] are two spellings of the same choice; exactly
   one must be given. *)
let resolve_platform_name ~platform ~topology =
  match (platform, topology) with
  | Some p, None -> p
  | None, Some spec -> "topo:" ^ spec
  | Some _, Some _ ->
      Printf.eprintf "shmsim: give exactly one of --platform and --topology\n";
      exit 2
  | None, None ->
      Printf.eprintf
        "shmsim: a platform is required (--platform NAME or --topology SPEC)\n";
      exit 2

let protocol_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:
          (Printf.sprintf
             "Coherence engine to mount on the platform (see $(b,shmsim \
              protocols)); one of %s.  Machines refuse engines of the wrong \
              kind — a hardware engine on a software-DSM cluster and vice \
              versa."
             (String.concat ", " Machines.protocols)))

let procs_arg =
  Arg.(
    value & opt procs_conv [ 1 ]
    & info [ "n"; "procs" ] ~docv:"N[,N...]"
        ~doc:"Processor counts to run (speedups are relative to the first).")

let scale_arg =
  Arg.(
    value & opt scale_conv Registry.Default
    & info [ "scale" ] ~docv:"SCALE" ~doc:"Problem size: quick, default or paper.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print all raw counters.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Execute independent runs on $(docv) domains (default: \
           $(b,SHMCS_JOBS) or the machine's recommended domain count minus \
           one).  Output is identical at any $(docv).")

(* Fault-injection flags (validated here so a bad value is a friendly
   cmdliner error, not a raw exception from deep inside the simulator). *)

let rate_conv ~what =
  let parse s =
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | Some _ ->
        Error
          (`Msg (Printf.sprintf "%s must be a probability in [0, 1], got %s"
                   what s))
    | None -> Error (`Msg (Printf.sprintf "%s must be a number, got %S" what s))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let nonneg_conv ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ ->
        Error (`Msg (Printf.sprintf "%s must be non-negative, got %s" what s))
    | None ->
        Error (`Msg (Printf.sprintf "%s must be an integer, got %S" what s))
  in
  Arg.conv (parse, fun ppf n -> Format.pp_print_int ppf n)

let drop_arg =
  Arg.(
    value & opt (rate_conv ~what:"--drop") 0.0
    & info [ "drop" ] ~docv:"RATE"
        ~doc:
          "Drop each network message with probability $(docv) (both miss \
           and sync classes).  Software-DSM platforms only.")

let dup_arg =
  Arg.(
    value & opt (rate_conv ~what:"--dup") 0.0
    & info [ "dup" ] ~docv:"RATE"
        ~doc:"Duplicate each delivered message with probability $(docv).")

let jitter_arg =
  Arg.(
    value & opt (nonneg_conv ~what:"--jitter") 0
    & info [ "jitter" ] ~docv:"CYCLES"
        ~doc:"Delay each delivery by a uniform extra 0..$(docv) cycles.")

let fault_seed_arg =
  Arg.(
    value & opt (nonneg_conv ~what:"--fault-seed") 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed of the fault-injection PRNG stream; the same seed \
           reproduces the same fault and retransmission schedule.")

(* Crash-injection flags (DESIGN.md §13).  [--ckpt-interval] defaults to
   500k cycles whenever a crash source is armed, so a bare [--crash 1@2M]
   run exercises the checkpoint path without further flags. *)

let crash_conv =
  let parse s =
    match String.index_opt s '@' with
    | Some i -> (
        let node = String.sub s 0 i in
        let cycle = String.sub s (i + 1) (String.length s - i - 1) in
        match (int_of_string_opt node, int_of_string_opt cycle) with
        | Some n, Some c when n >= 0 && c >= 0 -> Ok (n, c)
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "--crash expects NODE@CYCLE with non-negative ints, got %S"
                    s)))
    | None ->
        Error (`Msg (Printf.sprintf "--crash expects NODE@CYCLE, got %S" s))
  in
  Arg.conv (parse, fun ppf (n, c) -> Format.fprintf ppf "%d@%d" n c)

let crash_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"NODE@CYCLE"
        ~doc:
          "Crash node $(i,NODE) at cycle $(i,CYCLE); repeatable.  The node \
           drops its in-flight messages, goes unreachable for $(b,--outage) \
           cycles, then restarts and rejoins from its last checkpoint.  \
           Software-DSM platforms only.")

let crash_rate_arg =
  Arg.(
    value & opt (rate_conv ~what:"--crash-rate") 0.0
    & info [ "crash-rate" ] ~docv:"RATE"
        ~doc:
          "Additionally crash each node with probability $(docv) per \
           1M-cycle window (drawn from the $(b,--fault-seed) stream's \
           crash PRNG; at most a few nodes per run).")

let outage_arg =
  Arg.(
    value & opt (nonneg_conv ~what:"--outage") Lifecycle.none.outage_cycles
    & info [ "outage" ] ~docv:"CYCLES"
        ~doc:"Cycles a crashed node stays down before restarting.")

let ckpt_interval_arg =
  Arg.(
    value
    & opt (some (nonneg_conv ~what:"--ckpt-interval")) None
    & info [ "ckpt-interval" ] ~docv:"CYCLES"
        ~doc:
          "Failure-atomic checkpoint period (0 disables); defaults to \
           500000 when any crash source is armed, 0 otherwise.")

let crash_of ~crashes ~rate ~outage ~seed ~ckpt_interval =
  let p =
    { Lifecycle.none with
      Lifecycle.crashes;
      crash_rate = rate;
      crash_seed = seed;
      outage_cycles = outage }
  in
  let ckpt =
    match ckpt_interval with
    | Some i -> i
    | None -> if Lifecycle.active p then 500_000 else 0
  in
  { p with Lifecycle.ckpt_interval = ckpt }

let crash_banner crash =
  if not (Lifecycle.active crash) then ""
  else
    Printf.sprintf ", crash: scheduled=%d rate=%g outage=%d ckpt=%d"
      (List.length crash.Lifecycle.crashes)
      crash.Lifecycle.crash_rate crash.Lifecycle.outage_cycles
      crash.Lifecycle.ckpt_interval

(* Serving-workload (kv) knobs.  These forward to the registry as app
   parameter overrides, so they are validated against the app's declared
   keys — passing them to an app that has no such knob is a friendly
   error, not a silent no-op. *)

let keys_arg =
  Arg.(
    value & opt (some (nonneg_conv ~what:"--keys")) None
    & info [ "keys" ] ~docv:"N" ~doc:"KV store: key-space size.")

let zipf_arg =
  Arg.(
    value & opt (some float) None
    & info [ "zipf" ] ~docv:"THETA"
        ~doc:"KV store: Zipf popularity skew (0 = uniform).")

let get_ratio_arg =
  Arg.(
    value & opt (some (rate_conv ~what:"--get-ratio")) None
    & info [ "get-ratio" ] ~docv:"RATE"
        ~doc:"KV store: fraction of requests that are gets, in [0, 1].")

let requests_arg =
  Arg.(
    value & opt (some (nonneg_conv ~what:"--requests")) None
    & info [ "requests" ] ~docv:"N"
        ~doc:"KV store: requests issued per node (open loop).")

let slots_arg =
  Arg.(
    value & opt (some (nonneg_conv ~what:"--slots")) None
    & info [ "slots" ] ~docv:"N"
        ~doc:
          "Per-processor reduction slots the app lays out (= the most \
           processors it can run on; default 64).  Needed for runs beyond \
           64 processors, e.g. $(b,--topology \"lrc(mesi*8 x 64)\" -n 512 \
           --slots 512).")

let app_params ~keys ~zipf ~get_ratio ~requests ~slots =
  List.filter_map Fun.id
    [
      Option.map (fun v -> ("keys", string_of_int v)) keys;
      Option.map (fun v -> ("zipf", Printf.sprintf "%g" v)) zipf;
      Option.map (fun v -> ("get-ratio", Printf.sprintf "%g" v)) get_ratio;
      Option.map (fun v -> ("requests", string_of_int v)) requests;
      Option.map (fun v -> ("slots", string_of_int v)) slots;
    ]

let max_cycles_arg =
  Arg.(
    value & opt (some (nonneg_conv ~what:"--max-cycles")) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Abort a run whose event time exceeds $(docv) cycles (livelock \
           watchdog); fault-injection runs default to a generous backstop.")

let json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the results (including the resolved fault policy \
              and reliability counters) as JSON to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Write a Chrome-trace JSON timeline of the run to $(docv) \
           (load in chrome://tracing or Perfetto): one track per simulated \
           processor and protocol daemon with spans per time category, plus \
           instant events for faults, retransmissions and invalidations.  \
           Requires a single $(b,--procs) count.  Tracing never perturbs \
           the simulation: cycles, messages and checksums are identical \
           with and without it.")

let faults_of ~drop ~dup ~jitter ~seed =
  { Fabric.no_faults with
    Fabric.drop_miss = drop;
    drop_sync = drop;
    dup_rate = dup;
    jitter_cycles = jitter;
    fault_seed = seed }

let fault_banner faults =
  if not (Fabric.faults_active faults) then ""
  else
    Printf.sprintf ", faults: drop=%g dup=%g jitter=%d seed=%d"
      faults.Fabric.drop_miss faults.Fabric.dup_rate faults.Fabric.jitter_cycles
      faults.Fabric.fault_seed

let write_run_json path ~app ~platform ~scale ~faults ~crash rows =
  let buf = Buffer.create 1024 in
  let fault_fields =
    Printf.sprintf
      "{\"active\": %b, \"drop\": %g, \"dup\": %g, \"jitter\": %d, \"seed\": \
       %d}"
      (Fabric.faults_active faults)
      faults.Fabric.drop_miss faults.Fabric.dup_rate
      faults.Fabric.jitter_cycles faults.Fabric.fault_seed
  in
  let crash_fields =
    Printf.sprintf
      "{\"active\": %b, \"scheduled\": %d, \"rate\": %g, \"outage\": %d, \
       \"ckpt_interval\": %d}"
      (Lifecycle.active crash)
      (List.length crash.Lifecycle.crashes)
      crash.Lifecycle.crash_rate crash.Lifecycle.outage_cycles
      crash.Lifecycle.ckpt_interval
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\": \"shmsim_run/3\", \"app\": \"%s\", \"platform\": \
        \"%s\", \"scale\": \"%s\", \"faults\": %s, \"crash\": %s, \"runs\": ["
       app platform scale fault_fields crash_fields);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf ("{" ^ Report.json_members r ^ "}"))
    rows;
  Buffer.add_string buf "]}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

(* [with_pool jobs f] resolves the pool width, runs [f pool], and joins
   the workers even on error. *)
let with_pool jobs f =
  let jobs = if jobs > 0 then jobs else Pool.default_jobs () in
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let run_cmd =
  let run app_name platform_opt topology protocol procs scale stats jobs drop
      dup jitter seed crashes crash_rate outage ckpt_interval keys zipf
      get_ratio requests slots max_cycles json trace_path =
    let platform_name =
      resolve_platform_name ~platform:platform_opt ~topology
    in
    let params = app_params ~keys ~zipf ~get_ratio ~requests ~slots in
    (* Each worker builds its own app instance: apps carry per-run
       observation state (the kv store's request log and latency
       histograms), so concurrent runs must not share one (DESIGN.md §8).
       Build one up front anyway, for its display name and to surface
       parameter errors before any simulation starts. *)
    let make_app () = Registry.app ~scale ~params app_name in
    let app =
      try
        Registry.app ~scale ~params ~nprocs:(List.fold_left max 1 procs)
          app_name
      with Invalid_argument msg ->
        Printf.eprintf "shmsim: %s\n" msg;
        exit 2
    in
    let faults = faults_of ~drop ~dup ~jitter ~seed in
    let crash =
      crash_of ~crashes ~rate:crash_rate ~outage ~seed ~ckpt_interval
    in
    let trace =
      match trace_path with
      | None -> None
      | Some _ when List.length procs <> 1 ->
          Printf.eprintf
            "shmsim: --trace records one run; give a single --procs count\n";
          exit 2
      | Some path -> Some (path, Trace.create ())
    in
    let instrument =
      match trace with
      | None -> Instrument.off
      | Some (_, tr) -> Instrument.with_trace tr
    in
    let platform =
      try
        let p =
          Machines.get ~faults ~crash ?max_cycles ~instrument ?protocol
            platform_name
        in
        List.iter (Platform.check_nprocs p) procs;
        p
      with Invalid_argument msg ->
        Printf.eprintf "shmsim: %s\n" msg;
        exit 2
    in
    let fault_cols =
      if Fabric.faults_active faults then [ "dropped"; "retrans" ] else []
    in
    let crash_cols =
      if Lifecycle.active crash then [ "crashes"; "ckpts"; "recov_ms" ]
      else []
    in
    let table =
      Table.create
        ~title:
          (Printf.sprintf "%s on %s (%s scale%s%s)" app.name
             platform.Platform.name
             (Registry.scale_name scale)
             (fault_banner faults) (crash_banner crash))
        ~columns:
          ([ "procs"; "seconds"; "speedup"; "msgs"; "kbytes"; "checksum" ]
          @ fault_cols @ crash_cols)
    in
    let results = ref [] in
    with_pool jobs (fun pool ->
        let futures =
          List.map
            (fun n ->
              ( n,
                Pool.submit pool (fun () ->
                    platform.Platform.run (make_app ()) ~nprocs:n) ))
            procs
        in
        let base = ref None in
        List.iter
          (fun (n, fut) ->
            let r = Future.await fut in
            results := (n, r) :: !results;
            let b = match !base with None -> base := Some r; r | Some b -> b in
            Table.add_row table
              ([
                 string_of_int n;
                 Table.cell_f ~digits:4 (Report.seconds r);
                 Table.cell_speedup (Report.speedup ~base:b r);
                 string_of_int (Report.get r "net.msgs.total");
                 string_of_int (Report.get r "net.bytes.total" / 1024);
                 Printf.sprintf "%.6g" r.Report.checksum;
               ]
              @ (if fault_cols = [] then []
                 else
                   [
                     string_of_int (Report.dropped r);
                     string_of_int (Report.retransmissions r);
                   ])
              @
              if crash_cols = [] then []
              else
                [
                  string_of_int (Report.crashes r);
                  string_of_int (Report.ckpt_count r);
                  Table.cell_f ~digits:3 (1e3 *. Report.recovery_time r);
                ]);
            if stats then begin
              Printf.printf "--- counters (procs=%d)\n" n;
              List.iter
                (fun (k, v) -> Printf.printf "%-32s %d\n" k v)
                r.Report.counters
            end)
          futures);
    Table.print table;
    let kv_rows =
      List.filter (fun (_, r) -> Report.get r "kv.ops" > 0) (List.rev !results)
    in
    if kv_rows <> [] then begin
      let us cycles =
        Table.cell_f ~digits:1
          (float_of_int cycles /. platform.Platform.clock_mhz)
      in
      let t =
        Table.create ~title:"kv latency (open-loop, from scheduled issue)"
          ~columns:
            [
              "procs"; "ops"; "kops/s"; "p50_us"; "p99_us"; "p999_us";
              "max_us"; "moves";
            ]
      in
      List.iter
        (fun (n, r) ->
          Table.add_row t
            [
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
            ])
        kv_rows;
      Table.print t
    end;
    if Lifecycle.active crash then
      List.iter
        (fun (n, r) ->
          Printf.printf "crash (procs=%d): %s\n" n (Report.crash_summary r))
        (List.rev !results);
    Option.iter
      (fun path ->
        write_run_json path ~app:app.name ~platform:platform.Platform.name
          ~scale:(Registry.scale_name scale) ~faults ~crash
          (List.rev_map snd !results))
      json;
    Option.iter
      (fun (path, tr) ->
        Trace.write_chrome_file tr path ~clock_mhz:platform.Platform.clock_mhz;
        Printf.printf "trace: %d spans, %d instants -> %s\n"
          (Trace.span_count tr) (Trace.instant_count tr) path)
      trace
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an application on a platform model")
    Term.(
      const run $ app_arg $ platform_arg $ topology_arg $ protocol_arg
      $ procs_arg $ scale_arg $ stats_arg $ jobs_arg $ drop_arg $ dup_arg
      $ jitter_arg $ fault_seed_arg $ crash_arg $ crash_rate_arg $ outage_arg
      $ ckpt_interval_arg $ keys_arg $ zipf_arg $ get_ratio_arg $ requests_arg
      $ slots_arg $ max_cycles_arg $ json_arg $ trace_arg)

let list_cmd =
  let list () =
    print_endline "applications:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Registry.names;
    print_endline "platforms:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Machines.names;
    print_endline "protocols:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Machines.protocols
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List available applications, platforms and protocols")
    Term.(const list $ const ())

let protocols_cmd =
  let limits = function
    | Shm_proto.Software { recovery = Recovers; _ } -> "recovers from crashes"
    | Shm_proto.Software { recovery = No_recovery why; _ } ->
        "refuses crash injection: " ^ why
    | Shm_proto.Hardware { profiles; _ } ->
        "host profiles: "
        ^ String.concat ", " (List.map Shm_proto.profile_name profiles)
  in
  let show () =
    List.iter
      (fun (module E : Shm_proto.ENGINE) ->
        Printf.printf "%-10s %-13s %s [%s]\n" E.name
          (Shm_proto.kind_name (Shm_proto.kind_of_mount E.mount))
          E.describe (limits E.mount))
      Shm_engines.registry
  in
  Cmd.v
    (Cmd.info "protocols"
       ~doc:
         "List the registered coherence engines: name, kind (software-DSM \
          engines mount on the message-passing clusters, hardware engines \
          on the bus and crossbar machines), a one-line description and, \
          in brackets, the engine's limits: whether a software-DSM engine \
          recovers from crashes or why it refuses crash injection, and the \
          host profiles a hardware engine accepts")
    Term.(const show $ const ())

let compare_cmd =
  let compare app_name protocol procs scale jobs =
    let scale_apps = Registry.app ~scale in
    let platforms =
      (* With an explicit engine the sweep becomes "that engine on the
         SDSM cluster vs. the hardware baseline"; without one it is the
         paper's full software-variant spread. *)
      match protocol with
      | Some p -> [ ("treadmarks", Some p); ("sgi", None) ]
      | None ->
          List.map
            (fun n -> (n, None))
            [ "treadmarks"; "treadmarks-kernel"; "treadmarks-erc"; "ivy"; "sgi" ]
    in
    let machine (pname, proto) =
      try Machines.get ?protocol:proto pname
      with Invalid_argument msg ->
        Printf.eprintf "shmsim: %s\n" msg;
        exit 2
    in
    (* Surface an invalid machine x protocol combination, or too many
       processors for a machine or the app, before any runs. *)
    List.iter
      (fun spec ->
        let p = machine spec in
        try List.iter (Platform.check_nprocs p) procs
        with Invalid_argument msg ->
          Printf.eprintf "shmsim: %s\n" msg;
          exit 2)
      platforms;
    (try ignore (scale_apps ~nprocs:(List.fold_left max 1 procs) app_name)
     with Invalid_argument msg ->
       Printf.eprintf "shmsim: %s\n" msg;
       exit 2);
    let table =
      Table.create
        ~title:
          (Printf.sprintf "%s across shared-memory implementations (%s scale)"
             app_name (Registry.scale_name scale))
        ~columns:[ "platform"; "procs"; "seconds"; "speedup"; "msgs"; "kbytes" ]
    in
    with_pool jobs (fun pool ->
        (* Submit the whole platform x procs matrix up front; each run
           builds its own app instance inside the worker, so nothing
           mutable is shared between concurrent simulations. *)
        let submit spec n =
          Pool.submit pool (fun () ->
              (machine spec).Platform.run (scale_apps app_name) ~nprocs:n)
        in
        let grid =
          List.map
            (fun spec ->
              let base = submit spec 1 in
              ( spec,
                base,
                List.map (fun n -> (n, if n = 1 then base else submit spec n)) procs ))
            platforms
        in
        List.iter
          (fun (spec, base_fut, rows) ->
            let p = machine spec in
            let base = Future.await base_fut in
            List.iter
              (fun (n, fut) ->
                let r = Future.await fut in
                Table.add_row table
                  [
                    p.Platform.name;
                    string_of_int n;
                    Table.cell_f ~digits:4 (Report.seconds r);
                    Table.cell_speedup (Report.speedup ~base r);
                    string_of_int (Report.get r "net.msgs.total");
                    string_of_int (Report.get r "net.bytes.total" / 1024);
                  ])
              rows)
          grid);
    Table.print table
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run one application on every software-DSM variant and the SGI \
          (with $(b,--protocol), on that engine and the SGI)")
    Term.(
      const compare $ app_arg $ protocol_arg $ procs_arg $ scale_arg $ jobs_arg)

(* Self-contained validator for the files [--trace] writes.  The writer
   emits one JSON object per line (see Shm_sim.Trace), so the checks are
   line-based and need no JSON parser: known "ph" kinds only, "ts" values
   monotonically non-decreasing, at least one complete span. *)
let trace_check_cmd =
  let check path =
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "trace-check: %s: %s\n" path msg;
          exit 1)
        fmt
    in
    let lines =
      try
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      with Sys_error e -> fail "%s" e
    in
    (match lines with
    | first :: _ when String.length first >= 15
                      && String.sub first 0 15 = "{\"traceEvents\":" -> ()
    | _ -> fail "missing {\"traceEvents\": header");
    let field line name =
      let marker = Printf.sprintf "\"%s\":" name in
      let mlen = String.length marker in
      let rec scan i =
        if i + mlen > String.length line then None
        else if String.sub line i mlen = marker then
          let stop = ref (i + mlen) in
          while
            !stop < String.length line
            && not (List.mem line.[!stop] [ ','; '}' ])
          do
            incr stop
          done;
          Some (String.sub line (i + mlen) (!stop - i - mlen))
        else scan (i + 1)
      in
      scan 0
    in
    let spans = ref 0 and events = ref 0 and last_ts = ref neg_infinity in
    List.iteri
      (fun lineno line ->
        match field line "ph" with
        | None -> () (* header / footer lines carry no event *)
        | Some ph -> (
            incr events;
            (match ph with
            | "\"X\"" -> incr spans
            | "\"i\"" | "\"M\"" -> ()
            | other -> fail "line %d: unknown event kind %s" (lineno + 1) other);
            match field line "ts" with
            | None ->
                if ph <> "\"M\"" then
                  fail "line %d: %s event without \"ts\"" (lineno + 1) ph
            | Some ts_text -> (
                match float_of_string_opt ts_text with
                | None ->
                    fail "line %d: unreadable \"ts\":%s" (lineno + 1) ts_text
                | Some ts ->
                    if ts < !last_ts then
                      fail
                        "line %d: timestamp %g goes backwards (previous %g)"
                        (lineno + 1) ts !last_ts;
                    last_ts := ts)))
      lines;
    if !spans = 0 then fail "no complete (\"ph\":\"X\") spans";
    Printf.printf
      "trace-check: %s: %d events (%d spans), timestamps monotonic\n" path
      !events !spans
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome-trace JSON written by --trace.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome-trace file written by $(b,run --trace)")
    Term.(const check $ path_arg)

let main =
  Cmd.group
    (Cmd.info "shmsim" ~version:"1.0"
       ~doc:
         "Software vs. hardware shared-memory implementation: simulation \
          models from Cox et al., ISCA 1994")
    [ run_cmd; list_cmd; protocols_cmd; compare_cmd; trace_check_cmd ]

let () = exit (Cmd.eval main)
