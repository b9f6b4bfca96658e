(* Every metric the benchmark reports, and the statistics behind them.
   BENCHMARK.json at the repository root lists the same names; the smoke
   alias checks that the two agree. *)

type def = {
  name : string;
  unit : string;
  higher_better : bool;
  floor : float;
      (** absolute change, in [unit], that [compare] tolerates even where
          it exceeds the relative bound *)
}

let d ?(higher = false) ?(floor = 0.0) unit name = { name; unit; higher_better = higher; floor }

(* Set-up is milliseconds on some workloads, where a relative bound alone
   would flag a change of a few milliseconds: [compare] lets it move by
   the larger of the bound and 0.05 s. *)
let end_to_end =
  [
    d "s" "wall_s";
    d ~floor:0.05 "s" "setup_s";
    d "MB" "peak_rss_mb";
  ]

(* Reported by [run], [all] and [compare] beside the end-to-end metrics.
   It is not in BENCHMARK.json because the end-to-end list there may hold
   only metrics that are never 0 (the per-layer list has no such rule);
   the result line's [failed] count carries it instead. *)
let failed_runs_pct = d "%" "failed_runs_pct"

let sim_categories =
  [ "compute"; "protocol"; "net_wait"; "lock_wait"; "barrier_wait"; "diff"; "twin";
    "mem_stall" ]

let traced =
  [ d "s" "apps.kernel_s" ]
  @ List.concat_map
      (fun op ->
        [ d "count" (Printf.sprintf "parmacs.%s.calls" op);
          d "ns" (Printf.sprintf "parmacs.%s.ns" op) ])
      [ "read"; "write"; "compute" ]
  @ [ d "ns" "parmacs.host_ns_per_access" ]
  @ List.concat_map
      (fun op ->
        [ d "count" (Printf.sprintf "parmacs.%s.calls" op);
          d "us" (Printf.sprintf "parmacs.%s.us" op) ])
      [ "range"; "barrier"; "lock"; "unlock" ]
  @ [
      d "s" "platform.finish_s";
      d "MB" "platform.setup_rss_mb";
      d "%" "trace.overhead_pct";
    ]
  @ List.map
      (fun c -> d ~higher:(c = "compute") "%" (Printf.sprintf "sim.time.%s_pct" c))
      sim_categories

let per_pass =
  [
    d "Mword" "host.minor_mw";
    d "count" "host.major_gcs";
    d ~higher:true "Mcycle/s" "sim.mcycles_per_s";
    d "us" "net.host_us_per_msg";
  ]

(* Simulated counts, summed over a pass's runs, with the report counters
   each is made of ([scale] divides the sum). *)
let counts =
  [
    ("net.msgs", "count", [ "net.msgs.total" ], 1.0);
    ("net.kbytes", "kB", [ "net.bytes.total" ], 1e3);
    ("net.retrans", "count", [ "net.retrans.total" ], 1.0);
    ("net.dropped", "count", [ "net.faults.dropped" ], 1.0);
    ("tmk.faults", "count", [ "tmk.faults" ], 1.0);
    ("tmk.twins", "count", [ "tmk.twins" ], 1.0);
    ("tmk.diffs_created", "count", [ "tmk.diffs_created" ], 1.0);
    ("tmk.diffs_applied", "count", [ "tmk.diffs_applied" ], 1.0);
    ("tmk.intervals", "count", [ "tmk.intervals" ], 1.0);
    ("tmk.lock_remote", "count", [ "tmk.lock_remote" ], 1.0);
    ("tmk.barriers", "count", [ "tmk.barriers" ], 1.0);
    ("ivy.page_transfers", "count", [ "ivy.page_transfers" ], 1.0);
    ("ivy.invalidations", "count", [ "ivy.invalidations" ], 1.0);
    ("memsys.bus_txns", "count", [ "bus.rd"; "bus.rdx"; "bus.upgr"; "bus.wb" ], 1.0);
    ("memsys.bus_busy_mcycles", "Mcycle", [ "bus.busy" ], 1e6);
    ("memsys.dir_msgs", "count", [ "dir.msgs" ], 1.0);
    ("memsys.dir_invalidations", "count", [ "dir.invalidations" ], 1.0);
    ("kv.ops", "count", [ "kv.ops" ], 1.0);
    ("kv.moves", "count", [ "kv.moves" ], 1.0);
  ]

let count_defs =
  d "Mcycle" "sim.mcycles"
  :: List.map (fun (name, unit, _, _) -> d ~higher:(name = "kv.ops") unit name) counts

(* Micro-kernels, each with the workload it is reported under by [all]. *)
let micro =
  [
    ("sim.pqueue.push_pop_ns", "ns", "scale-1024");
    ("sim.fiber.switch_ns", "ns", "scale-1024");
    ("net.fabric.send_recv_ns", "ns", "sdsm-64");
    ("tmk.diff.make_apply_ns", "ns", "sdsm-64");
    ("tmk.vc.join64_ns", "ns", "sdsm-64");
    ("tmk.barrier8_us", "us", "sdsm-64");
    ("tmk.barrier64_us", "us", "sdsm-64");
    ("net.reliable.rtt_ns", "ns", "kv-serve");
    ("stats.hist.record_ns", "ns", "kv-serve");
    ("tmk.page_fault_us", "us", "kv-serve");
    ("memsys.cache.probe_ns", "ns", "hw-coherence");
    ("parmacs.tlb_hit_ns", "ns", "hw-coherence");
  ]

let micro_defs = List.map (fun (name, unit, _) -> d unit name) micro

let per_layer = traced @ per_pass @ count_defs @ micro_defs

let find name =
  List.find_opt (fun m -> m.name = name) ((failed_runs_pct :: end_to_end) @ per_layer)

(* ---- statistics ------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, as Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method) computes them. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
