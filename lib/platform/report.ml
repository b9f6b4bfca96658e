type t = {
  platform : string;
  app : string;
  nprocs : int;
  cycles : int;
  clock_mhz : float;
  checksum : float;
  counters : (string * int) list;
}

let seconds t = float_of_int t.cycles /. (t.clock_mhz *. 1e6)

let get t name =
  Option.value ~default:0 (List.assoc_opt name t.counters)

(* An empty or degenerate run (0 cycles) must not leak NaN/inf into JSON
   output — JSON has no encoding for them, so a consumer would see a parse
   error far from the cause.  Both guards report 0.0 instead. *)
let rate t name =
  let s = seconds t in
  if s <= 0.0 then 0.0 else float_of_int (get t name) /. s

let speedup ~base t =
  if t.cycles <= 0 then 0.0
  else float_of_int base.cycles /. float_of_int t.cycles

let offered t = get t "net.msgs.offered"
let delivered t = get t "net.msgs.delivered"
let dropped t = get t "net.faults.dropped"
let duplicated t = get t "net.faults.duplicated"
let retransmissions t = get t "net.retrans.total"
let dups_suppressed t = get t "net.reliable.dups"

let fault_summary t =
  Printf.sprintf
    "offered=%d delivered=%d dropped=%d duplicated=%d retrans=%d \
     dups_suppressed=%d acks=%d"
    (offered t) (delivered t) (dropped t) (duplicated t) (retransmissions t)
    (dups_suppressed t)
    (get t "net.reliable.acks")

let crashes t = get t "sim.crashes"
let restarts t = get t "sim.restarts"
let downtime t = get t "sim.downtime"
let ckpt_count t = get t "ckpt.count"
let ckpt_bytes t = get t "ckpt.bytes"
let recovery_cycles t = get t "recovery.cycles"

(* Wall-clock seconds the crashed nodes spent rejoining — the
   availability-under-churn figure of merit (EXPERIMENTS.md). *)
let recovery_time t =
  float_of_int (recovery_cycles t) /. (t.clock_mhz *. 1e6)

let crash_summary t =
  Printf.sprintf
    "crashes=%d restarts=%d downtime=%d ckpts=%d ckpt_bytes=%d \
     recoveries=%d recovery_cycles=%d invalidated=%d rehomes=%d"
    (crashes t) (restarts t) (downtime t) (ckpt_count t) (ckpt_bytes t)
    (get t "recovery.count") (recovery_cycles t)
    (get t "recovery.invalidated")
    (get t "recovery.rehomes")

(* The one JSON rendering of a run's simulated results: comma-separated
   object members, without braces, for the caller to wrap with its own
   fields.  Checksums are "%h" hex strings, which [float_of_string] reads
   back bit-exactly; the fault, crash and kv members are written (as zero)
   on every run, so consumers never test for their presence. *)
let json_members t =
  Printf.sprintf
    "\"nprocs\": %d, \"cycles\": %d, \"seconds\": %.9g, \
     \"checksum\": \"%h\", \"msgs\": %d, \"kbytes\": %d, \"offered\": %d, \
     \"delivered\": %d, \"dropped\": %d, \"duplicated\": %d, \"retrans\": %d, \
     \"dups_suppressed\": %d, \"crashes\": %d, \"restarts\": %d, \
     \"ckpts\": %d, \"ckpt_bytes\": %d, \"recovery_cycles\": %d, \
     \"recovery_seconds\": %.9g, \"kv_ops\": %d, \"kv_p50\": %d, \
     \"kv_p99\": %d, \"kv_p999\": %d, \"kv_model_ok\": %d"
    t.nprocs t.cycles (seconds t) t.checksum
    (get t "net.msgs.total")
    (get t "net.bytes.total" / 1024)
    (offered t) (delivered t) (dropped t) (duplicated t) (retransmissions t)
    (dups_suppressed t) (crashes t) (restarts t) (ckpt_count t) (ckpt_bytes t)
    (recovery_cycles t) (recovery_time t) (get t "kv.ops")
    (get t "kv.lat_p50") (get t "kv.lat_p99") (get t "kv.lat_p999")
    (get t "kv.model_ok")

let breakdown t =
  List.filter_map
    (fun cat ->
      let name = "time." ^ Shm_sim.Engine.category_name cat in
      Option.map (fun v -> (cat, v)) (List.assoc_opt name t.counters))
    Shm_sim.Engine.categories

let consumed_names =
  [
    "net.msgs.offered"; "net.msgs.delivered"; "net.faults.dropped";
    "net.faults.duplicated"; "net.retrans.total"; "net.reliable.dups";
    "net.reliable.acks"; "sim.crashes"; "sim.restarts"; "sim.downtime";
    "ckpt.count"; "ckpt.bytes"; "recovery.count"; "recovery.cycles";
    "recovery.invalidated"; "recovery.rehomes";
  ]

let pp ppf t =
  Format.fprintf ppf "%s/%s p=%d: %.4f s (%d cycles), checksum=%.6g"
    t.platform t.app t.nprocs (seconds t) t.cycles t.checksum
