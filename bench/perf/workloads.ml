(* The four benchmark workloads: each a fixed list of simulation runs
   through the public Registry / Machines / Platform.run API, plus the
   check that decides whether a run's output is correct. *)

module Registry = Shm_apps.Registry
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Water = Shm_apps.Water
module Machines = Shm_platform.Machines
module Platform = Shm_platform.Platform
module Dsm_cluster = Shm_platform.Dsm_cluster
module Instrument = Shm_platform.Instrument
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Parmacs = Shm_parmacs.Parmacs

type check =
  | Sequential  (** checksum within 1e-9 relative of [Parmacs.run_sequential] *)
  | Tour of Tsp.params  (** checksum equals [Tsp.optimal_length] *)
  | Kv  (** [kv.model_ok = 1] and the same digest as every run of this app *)

type app = {
  key : string;  (** identifies the instance: runs with one key compute the same result *)
  make : unit -> Parmacs.app;
  check : check;
}

type run = {
  name : string;
  app : app;
  platform : Instrument.t -> Platform.t;
  nprocs : int;
}

type t = { name : string; runs : seed:int -> run list }

(* ---- apps ------------------------------------------------------------ *)

let water ~seed ~quick mode =
  let base = Water.default_params mode in
  let p = if quick then { base with molecules = 64; steps = 1 } else base in
  let p = { p with seed } in
  {
    key =
      Printf.sprintf "%s-%s/seed%d"
        (if mode = Water.Batched then "m-water" else "water")
        (if quick then "quick" else "default")
        seed;
    make = (fun () -> Water.make p);
    check = Sequential;
  }

let sor ~key p = { key; make = (fun () -> Sor.make p); check = Sequential }

(* The Section-3 SOR of bench/main.ml at quick scale: a compute-dense
   stencil so 64-processor runs exercise communication. *)
let sor_sim =
  sor ~key:"sor-sim"
    { Sor.default_params with rows = 256; cols = 128; iters = 6; point_cycles = 480 }

let sor_default =
  { key = "sor-default"; make = (fun () -> Registry.app ~scale:Registry.Default "sor");
    check = Sequential }

(* One reduction slot per processor, as in the tp1 topology sweep. *)
let sor_tp p =
  sor ~key:(Printf.sprintf "sor-tp%d" p)
    { Sor.default_params with rows = 256; cols = 128; iters = 2; point_cycles = 480;
      slots = p }

(* TSP keeps its fixed instance for every seed: branch-and-bound effort
   varies about 9x across random 12-city instances (6-58M simulated
   cycles on the SGI), which would make [wall_s] measure the instance
   rather than the simulator. *)
let tsp ncities =
  let p = Tsp.params_n ncities in
  { key = Printf.sprintf "tsp%d" ncities; make = (fun () -> Tsp.make p); check = Tour p }

let kv ~seed get_ratio =
  let params =
    [ ("get-ratio", Printf.sprintf "%g" get_ratio); ("seed", string_of_int seed) ]
  in
  {
    key = Printf.sprintf "kv/get%g/seed%d" get_ratio seed;
    make = (fun () -> Registry.app ~scale:Registry.Default ~params "kv");
    check = Kv;
  }

(* ---- platforms ------------------------------------------------------- *)

let named name instrument = Machines.get ~instrument name

let as_overhead ~fixed ~per_word instrument =
  Dsm_cluster.as_machine ~overhead:(Overhead.sweep ~fixed ~per_word) ~instrument ()

(* A 2% drop rate on both message classes arms the reliable layer's
   sequencing, acks and retransmissions. *)
let lossy ~seed name instrument =
  let faults =
    { Fabric.no_faults with drop_miss = 0.02; drop_sync = 0.02; fault_seed = seed }
  in
  Machines.get ~faults ~instrument name

let topo spec instrument = Machines.topology ~instrument spec

(* ---- workloads ------------------------------------------------------- *)

let run name app platform nprocs = { name; app; platform; nprocs }

(* Software DSM at the paper's Section-3 scale, the run set of Figures
   9-16: lib/tmk and lib/net do most of the host work. *)
let sdsm_64 =
  {
    name = "sdsm-64";
    runs =
      (fun ~seed ->
        let mw = water ~seed ~quick:true Water.Batched in
        [
          run "m-water@as64" mw (named "as") 64;
          run "m-water@as64-ov100-1" mw (as_overhead ~fixed:100 ~per_word:1) 64;
          run "sor-sim@as64" sor_sim (named "as") 64;
          run "tsp11@as64" (tsp 11) (named "as") 64;
          run "m-water@hs64" mw (named "hs") 64;
        ]);
  }

(* Hardware coherence: app kernels and per-word guarded accesses through
   lib/memsys, and no messages, so a lib/net or lib/tmk change must leave
   it unchanged. *)
let hw_coherence =
  {
    name = "hw-coherence";
    runs =
      (fun ~seed ->
        [
          run "water@sgi8" (water ~seed ~quick:false Water.Locked) (named "sgi") 8;
          run "sor@sgi8" sor_default (named "sgi") 8;
          run "tsp12@sgi8" (tsp 12) (named "sgi") 8;
          run "m-water@ah64" (water ~seed ~quick:true Water.Batched) (named "ah") 64;
          run "sor-sim@ah64" sor_sim (named "ah") 64;
        ]);
  }

(* Serving: dominated by locks and shard-ownership migration; the only
   workload that records latency histograms, and the only one that runs
   the reliable layer both as a pass-through and armed. *)
let kv_serve =
  {
    name = "kv-serve";
    runs =
      (fun ~seed ->
        let reads = kv ~seed 0.95 in
        [
          run "kv95@treadmarks8" reads (named "treadmarks") 8;
          run "kv50@treadmarks8" (kv ~seed 0.5) (named "treadmarks") 8;
          run "kv95@ivy8" reads (named "ivy") 8;
          run "kv95@sgi8" reads (named "sgi") 8;
          run "kv95@treadmarks8-drop2" reads (lossy ~seed "treadmarks") 8;
        ]);
  }

(* Scale: per-node images and per-domain engines at set-up, Hier guard
   chains, hierarchical barriers and 1024 fibers.  Flat LRC stops at 256
   processors because its memory grows about 4.5x per doubling. *)
let scale_1024 =
  {
    name = "scale-1024";
    runs =
      (fun ~seed:_ ->
        [
          run "sor@lrc*256" (sor_tp 256) (topo "lrc*256") 256;
          run "sor@lrc(mesi*8x128)" (sor_tp 1024) (topo "lrc(mesi*8 x 128)") 1024;
          run "sor@directory*1024" (sor_tp 1024) (topo "directory*1024") 1024;
        ]);
  }

let all = [ sdsm_64; hw_coherence; kv_serve; scale_1024 ]

let find name = List.find_opt (fun (w : t) -> w.name = name) all
