(* The coherence-engine interface: everything a machine model needs from
   a shared-memory protocol, with the protocol itself behind a module.

   A platform (lib/platform) owns the simulation engine, the memories and
   the processor fibers; a coherence engine owns how those memories are
   kept coherent — software DSM over a message fabric, or a hardware
   cache-coherence model over a bus or crossbar.  The platform builds
   the engine kind's context describing the machine, calls its [mount],
   and drives the returned instance from its processor fibers.  No
   platform names a concrete protocol module; they are looked up in a
   [Registry].

   See DESIGN.md §11 for the hook-by-hook contract. *)

module Engine = Shm_sim.Engine
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Memory = Shm_memsys.Memory

(* ------------------------------------------------------------------ *)
(* What kind of machine an engine coheres: [Sdsm] engines keep one
   memory per node coherent by exchanging messages over the platform's
   fabric; [Hw] engines model a hardware cache hierarchy over one
   memory.  Each kind has its own context and instance below. *)
type kind = Sdsm | Hw

let kind_name = function Sdsm -> "software-DSM" | Hw -> "hardware"

(* Which interconnect a hardware engine's timing should model; the
   topology picks a domain's, the engine declares those it accepts. *)
type hw_profile = Sgi_bus | Sgi_bus_fast | Hs_node_bus | Crossbar

let profile_name = function
  | Sgi_bus -> "sgi-bus"
  | Sgi_bus_fast -> "sgi-bus-fast"
  | Hs_node_bus -> "hs-node-bus"
  | Crossbar -> "crossbar"

(* Whether a software engine survives whole-node crash injection, or
   why it cannot. *)
type recovery = Recovers | No_recovery of string

(* ------------------------------------------------------------------ *)
(* The software-DSM contract: the machine as the engine sees it, and
   the closures the platform's fibers drive. *)

type fiber = Engine.fiber

type sdsm_ctx = {
  eng : Engine.t;
  counters : Counters.t;
  fabric : Fabric.config;  (* message fabric, fault policy folded in *)
  nodes : int;  (* DSM nodes *)
  shared_words : int;  (* rounded up to whole pages (Memory.page_words) *)
  memories : Memory.t array;  (* one per node *)
  eager_lock_hints : int list;
      (* app-provided eager-release locks; engines without the concept
         ignore them *)
  lifecycle : Shm_sim.Lifecycle.t option;
      (* whole-node crash/restart policy; the engine attaches it to its
         fabric and registers checkpoint/re-home/rejoin hooks (given only
         to an engine that declares [Recovers]) *)
}

type sdsm_instance = {
  access_rights : node:int -> Bytes.t;
      (* per-page software-TLB bytes: '\000' fault, '\001' read-only,
         '\002' read-write *)
  set_page_hook : (node:int -> page:int -> unit) -> unit;
      (* called whenever the engine rewrites a page's backing memory
         behind the processor's back (platforms invalidate their private
         per-node caches and hardware levels from it) *)
  start : unit -> unit;  (* spawn protocol daemons; after mount, once *)
  retx_note : unit -> string;  (* diagnostic line for deadlock reports *)
  read_guard : fiber -> node:int -> int -> unit;
  write_guard : fiber -> node:int -> int -> unit;
      (* coherence + timing of one word access; the caller performs the
         data movement on its own memory afterwards.  These are the only
         access hooks: a range is the per-word loop over them, so every
         word is one guarded access on every engine *)
  acquire : fiber -> node:int -> lock:int -> unit;
  release : fiber -> node:int -> lock:int -> unit;
  barrier_arrive : fiber -> node:int -> id:int -> unit;
  check_invariants : unit -> unit;  (* post-run structural checks *)
}

(* ------------------------------------------------------------------ *)
(* The hardware contract: one cache machine over one memory. *)

type hw_ctx = {
  eng : Engine.t;
  counters : Counters.t;
  nodes : int;  (* the domain's members: bus CPUs, or directory nodes *)
  memory : Memory.t;
  sync_base : int;  (* the domain's slice of the sync region *)
  profile : hw_profile;
}

type hw_instance = {
  read_guard : fiber -> node:int -> int -> unit;
  write_guard : fiber -> node:int -> int -> unit;
      (* as for software DSM, [node] being the member index *)
  invalidate_range : addr:int -> words:int -> unit;
      (* drop cached copies of a range without timing (from the page hook
         of a DSM root above the domain) *)
  check_invariants : unit -> unit;
  sync : Shm_memsys.Hw_sync.t;
      (* the domain's locks and barriers, over the machine's own
         transactions on its slice of the sync region *)
}

(* How an engine mounts: its kind is its constructor, and beside the
   mount sit its limits, which the topology checks before it builds
   anything, so a mount never refuses. *)
type mount =
  | Software of { mount : sdsm_ctx -> sdsm_instance; recovery : recovery }
  | Hardware of { mount : hw_ctx -> hw_instance; profiles : hw_profile list }
      (* [profiles]: the ones [mount] accepts in [hw_ctx.profile] *)

let kind_of_mount = function Software _ -> Sdsm | Hardware _ -> Hw

(* ------------------------------------------------------------------ *)
(* The engine signature proper. *)

module type ENGINE = sig
  val name : string
  (** Registry key, e.g. ["lrc"]; lowercase, no spaces. *)

  val describe : string
  (** One line for [shmsim protocols]. *)

  val mount : mount
  (** Build one run's worth of protocol state over the context.  Mount
      must not advance the simulation clock; all costs accrue inside the
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
             E.name
             (kind_name (kind_of_mount Old.mount))
             Old.describe)
    | None -> t @ [ (module E : ENGINE) ]

  let of_list engines = List.fold_left register empty engines
  let names t = List.map name_of t
  let find t name = List.find_opt (fun e -> name_of e = name) t
  let mem t name = List.exists (fun e -> name_of e = name) t
end
