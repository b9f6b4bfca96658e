(** Named platform instances shared by the CLI, examples and benches:
    one table of rows, each a topology (DESIGN.md §15) on a host with
    its default engine at the root, built by {!Topology.build}. *)

(** Canonical names: ["dec"], ["treadmarks"], ["treadmarks-kernel"],
    ["treadmarks-eager"], ["treadmarks-erc"], ["ivy"], ["sgi"],
    ["sgi-fast"], ["as"], ["ah"], ["hs"]. *)
val names : string list

(** Registered coherence-engine names, mountable with [get ?protocol]
    (= {!Shm_engines.names}). *)
val protocols : string list

(** [topology spec] builds a machine from a topology expression such as
    ["lrc(mesi*8 x 32)@sim"] (grammar: DESIGN.md §15, {!Topology.of_string}).
    [get] accepts the same spec under a ["topo:"] prefix. *)
val topology :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  string ->
  Platform.t

(** [get ?faults ?max_cycles name] builds the platform.  [faults] arms
    network fault injection; [crash] arms whole-node crash/restart
    injection with failure-atomic checkpoints and online recovery
    (DESIGN.md §13); [max_cycles] bounds each run with
    {!Shm_sim.Engine.Watchdog} (fault- and crash-mode runs get a generous
    default backstop).  Fault and crash policies are only meaningful on
    the flat software-DSM platforms — the others model reliable machines
    and refuse an active policy.  [protocol] overrides the
    coherence engine the machine mounts (see {!protocols}); machines
    refuse engines of the wrong kind (a hardware engine on a
    message-passing cluster and vice versa), and ["dec"] — a uniprocessor
    — refuses all of them.  [instrument] enables the per-fiber time
    breakdown and optional Chrome-trace capture on any platform (see
    {!Instrument}).  A name of the form ["topo:SPEC"] builds the machine
    from the topology expression [SPEC] via {!topology}; a spec names its
    engines per level, so combining it with [protocol] is refused.  A
    machine seats at most its [max_procs] processors (8 for the DEC
    clusters and the SGI cabinets, 64 for ivy, 256 for AS/AH/HS, 1 for
    ["dec"]); its run function refuses a larger [nprocs].
    @raise Invalid_argument for an unknown name, an active fault or crash
    policy on a platform other than a flat software-DSM cluster, an
    invalid machine x protocol
    combination, or a malformed topology spec. *)
val get :
  ?faults:Shm_net.Fabric.faults ->
  ?crash:Shm_sim.Lifecycle.policy ->
  ?max_cycles:int ->
  ?instrument:Instrument.t ->
  ?protocol:string ->
  string ->
  Platform.t
