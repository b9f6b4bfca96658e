(** Declarative topologies of coherence domains (DESIGN.md §15).

    A topology is a tree: the root domain names the outermost coherence
    mechanism, interior domains are hardware coherence levels inside a
    node (snoop bus, directory group), and leaves are processors.
    [Cpus n] contributes [n] single-processor participants to its
    parent; [Dom] contributes one participant running its own engine
    over its children.  A software-DSM engine may appear only at the
    root (software levels own per-node memories); hardware engines may
    appear at the root (one cabinet: the SGI/AH shapes) or nested under
    a software-DSM root (the HS shape, to any depth).

    [Cpus 1] alone is the plain uniprocessor, which mounts no engine.

    The builder here is the single place in [lib/platform] that
    resolves engine names from the registry and wires machines: the
    named platforms ({!Machines}, {!Dsm_cluster}) are rows of topology
    expressions over it. *)

type tree = Cpus of int | Dom of { engine : string; children : tree list }

(** The physical parameters a topology is instantiated on: processor
    clock, the inter-node fabric of a software-DSM root (if the host
    has a network at all), the private-cache geometry of flat DSM
    nodes, and the bus timing profile a flat hardware root mounts. *)
type host = {
  host_name : string;
  clock_mhz : float;
  fabric_of : (unit -> Shm_net.Fabric.config) option;
  cache_cfg : Shm_memsys.Private_cache.config option;
  bus_profile : Shm_proto.hw_profile;
}

(** The simulated 100 MHz machine of paper Section 3 (AS/AH/HS). *)
val host_sim : ?overhead:Shm_net.Overhead.t -> unit -> host

(** The DECstation-5000/240 ATM cluster of paper Section 2 (40 MHz). *)
val host_dec : ?overhead:Shm_net.Overhead.t -> unit -> host

(** The SGI 4D/480 cabinet (40 MHz, snooping bus, no network). *)
val host_sgi : unit -> host

(** The Section-2.5 doubled-bus SGI variant. *)
val host_sgi_fast : unit -> host

(** ["sim"], ["dec"], ["dec-kernel"], ["sgi"], ["sgi-fast"]. *)
val host_names : string list

(** @raise Invalid_argument for an unknown host name. *)
val host_of_name : string -> host

(** Kind of a registered engine (raises like {!Shm_engines.get} for an
    unknown name) — lets the named platforms check engine placement
    without touching the registry themselves. *)
val engine_kind : string -> Shm_proto.kind

val engine_names : unit -> string list

(** Total processors the topology can seat. *)
val capacity : tree -> int

(** [of_string spec] parses ["lrc(mesi*8 x 4)@sim"]-style expressions:
    [ENGINE*N] (a domain over [N] processors), [ENGINE(ITEM, ...)] where
    each item is a processor count or a sub-expression with an optional
    [x K] repeat, and an optional [@HOST] suffix.
    @raise Invalid_argument on a malformed spec, with the grammar in
    the message. *)
val of_string : string -> tree * string option

(** Canonical rendering (runs of equal members collapse to [x K]). *)
val to_string : tree -> string

(** [to_string t ^ "@" ^ host name] — the default platform name. *)
val spec_string : tree -> host -> string

(** Check the whole tree before anything is mounted: engine names
    resolve, kinds sit at legal levels, every domain has members, the
    host supports the root.  @raise Invalid_argument with a descriptive
    message; [build] calls this first, so an invalid combination never
    constructs engine state. *)
val validate : host:host -> tree -> unit

(** [build ~host t] builds the machine the validated tree describes;
    every shape runs on the one processor runner ({!Hier}): a
    software-DSM root over bare nodes (the flat cluster, with private
    caches and the software-TLB fast path), over hardware domains (the
    hybrids: N-level last-arriver barriers, locks routed to the root
    engine), a hardware root (one cabinet) or, for [Cpus 1], the plain
    uniprocessor.  Capacities are filled greedily left to right, so
    running [t] at fewer processors mounts only the domains used.
    [platforms] is the table of named machines ({!Machines}: name and
    default tree); when given, [t] is one of them and the refusals name
    it as a platform and list the named machines that would accept what
    it refuses.  [protocol] replaces the root engine of [t] with one of
    the same kind; a plain uniprocessor accepts none.  [faults]/[crash]
    arm injection on flat software-DSM topologies and are refused
    elsewhere; [max_cycles] bounds each run with
    {!Shm_sim.Engine.Watchdog} (fault- and crash-mode runs default to a
    generous backstop); [eager] honours the app's eager-release lock
    hints (software-DSM roots).
    @raise Invalid_argument for a [protocol] of the wrong kind (before
    validation), per {!validate}, for an active fault or crash policy
    on a topology other than a flat software-DSM cluster, and from the
    run function when [nprocs] exceeds {!capacity}. *)
val build :
  ?name:string ->
  ?platforms:(string * tree) list ->
  ?protocol:string ->
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  ?eager:bool ->
  host:host ->
  tree ->
  Platform.t

(** Parse, validate and build in one step; the platform is named by the
    canonical spec (host defaults to [sim]). *)
val of_spec :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  ?eager:bool ->
  string ->
  Platform.t
