(* The coherence-engine interface: everything a machine model needs from
   a shared-memory protocol, with the protocol itself behind a module.

   A platform (lib/platform) owns the simulation engine, the memories and
   the processor fibers; a coherence engine owns how those memories are
   kept coherent — software DSM over a message fabric, or a hardware
   cache-coherence model over a bus or crossbar.  The platform builds a
   [ctx] describing the machine, calls [ENGINE.mount], and drives the
   returned [instance] from its processor fibers.  No platform names a
   concrete protocol module; they are looked up in a [Registry].

   See DESIGN.md §11 for the hook-by-hook contract. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Memory = Shm_memsys.Memory

(* ------------------------------------------------------------------ *)
(* What kind of machine an engine coheres. *)

(* [Sdsm] engines keep one memory per node coherent by exchanging
   messages over the platform's fabric; [Hw] engines model a hardware
   cache hierarchy over a single physical memory. *)
type kind = Sdsm | Hw

let kind_name = function Sdsm -> "software-DSM" | Hw -> "hardware"

(* Which interconnect a hardware engine's timing should model.  Software
   engines ignore this; the snooping engine refuses [Crossbar]. *)
type hw_profile = Sgi_bus | Sgi_bus_fast | Hs_node_bus | Crossbar

(* ------------------------------------------------------------------ *)
(* The mount context: the machine as the engine sees it. *)

type ctx = {
  eng : Engine.t;
  counters : Counters.t;
  fabric : Fabric.config;
      (* message fabric for Sdsm engines, fault policy already folded
         in; Hw engines never touch it *)
  nodes : int;  (* coherence participants: DSM nodes, or bus CPUs *)
  page_words : int;
  shared_words : int;  (* page-rounded for Sdsm machines *)
  memories : Memory.t array;
      (* one per node for Sdsm; a single shared memory for Hw *)
  eager_lock_hints : int list;
      (* app-provided eager-release locks; engines without the concept
         ignore them *)
  hw_profile : hw_profile option;  (* None on software-DSM machines *)
  lifecycle : Shm_sim.Lifecycle.t option;
      (* whole-node crash/restart policy instance; Sdsm engines that
         support recovery attach it to their fabric and register
         checkpoint/re-home/rejoin hooks, engines that cannot recover
         must refuse to mount, Hw platforms always pass None *)
}

(* ------------------------------------------------------------------ *)
(* The mounted instance: closures the platform's fibers drive. *)

type fiber = Engine.fiber

type instance = {
  i_name : string;
  page_shift : int;
      (* log2(page_words) when pages are power-of-two sized, else -1;
         platforms use it for the rights-byte fast path *)
  wordwise_ranges : bool;
      (* true when bulk range operations must fall back to the literal
         per-word loop to stay observably identical (eager-invalidate
         RC, where a mid-run remote invalidation changes timing) *)
  access_rights : (node:int -> Bytes.t) option;
      (* per-page software-TLB bytes: '\000' fault, '\001' read-only,
         '\002' read-write; None for engines without page tables *)
  set_page_hook : (node:int -> page:int -> unit) -> unit;
      (* called whenever the engine rewrites a page's backing memory
         behind the processor's back (platforms invalidate their private
         per-node caches from it) *)
  start : unit -> unit;  (* spawn protocol daemons; after mount, once *)
  retx_note : unit -> string;  (* diagnostic line for deadlock reports *)
  read_guard : fiber -> node:int -> int -> unit;
  write_guard : fiber -> node:int -> int -> unit;
      (* coherence + timing of one word access; the caller performs the
         data movement on its own memory afterwards *)
  read_range_guard : fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit;
  write_range_guard : fiber -> node:int -> int -> int -> f:(int -> int -> unit) -> unit;
      (* [guard f ~node addr words ~f:move] validates [addr..addr+words)
         in coherence-unit runs, calling [move run_addr run_words] for
         each validated run *)
  acquire : fiber -> node:int -> lock:int -> unit;
  release : fiber -> node:int -> lock:int -> unit;
  barrier_arrive : fiber -> node:int -> id:int -> unit;
  rmw : (fiber -> node:int -> int -> (int64 -> int64) -> int64) option;
      (* atomic read-modify-write on a shared word; hardware engines
         only (platforms build flat sync regions from it) *)
  invalidate_range : (addr:int -> words:int -> unit) option;
      (* drop cached copies of a memory range without timing; hardware
         engines only (DSM-over-bus platforms call it from page hooks) *)
  check_invariants : unit -> unit;  (* post-run structural checks *)
}

(* ------------------------------------------------------------------ *)
(* The engine signature proper. *)

module type ENGINE = sig
  val name : string
  (** Registry key, e.g. ["lrc"]; lowercase, no spaces. *)

  val kind : kind

  val describe : string
  (** One line for [shmsim protocols]. *)

  val mount : ctx -> instance
  (** Build one run's worth of protocol state over [ctx].  Mount must
      not advance the simulation clock; all costs accrue inside the
      instance hooks, attributed to the categories in
      {!Shm_sim.Engine.category} (see DESIGN.md §11). *)
end

(* ------------------------------------------------------------------ *)
(* Registry: a pure value, so the engine table carries no hidden
   mutable state and duplicate registration is an error, not a silent
   shadowing. *)

module Registry = struct
  type t = (module ENGINE) list (* registration order, names unique *)

  let empty : t = []

  let name_of (module E : ENGINE) = E.name

  let register t (module E : ENGINE) =
    match List.find_opt (fun e -> name_of e = E.name) t with
    | Some (module Old : ENGINE) ->
        invalid_arg
          (Printf.sprintf
             "Shm_proto.Registry.register: protocol name %S is already taken \
              (%s engine: %s); engine names must be unique"
             E.name (kind_name Old.kind) Old.describe)
    | None -> t @ [ (module E : ENGINE) ]

  let of_list engines = List.fold_left register empty engines
  let names t = List.map name_of t
  let find t name = List.find_opt (fun e -> name_of e = name) t
  let mem t name = List.exists (fun e -> name_of e = name) t
end
