(** The TreadMarks lazy-release-consistency protocol engine.

    One [t] drives a whole cluster: per-node page tables, twins, interval
    logs, diff stores, the distributed lock queues, and the centralized
    barrier manager, exchanging {!Proto} messages over a
    {!Shm_net.Reliable} channel (which is a pure pass-through to the
    underlying {!Shm_net.Fabric} unless the fabric injects faults).
    Where each lock's manager and the barrier manager live, the
    barrier's arrival count and their re-homing after a crash are the
    role record every software DSM shares ({!Shm_dsm.Roles}); this
    engine keeps only what those roles carry here: the lock queue
    tails, the arrival vector times and the episode's records.

    {b Node vs processor.}  The protocol works on {e nodes}.  On AS and the
    DEC cluster a node has one processor; on HS a node is a bus-based
    multiprocessor whose processors all call into the same node state
    ("all of the processors within a node are treated as one by the DSM
    system"): page faults for the same page merge, diffs from co-located
    processors coalesce into a single per-node diff, and a lock whose token
    is on-node is acquired without messages.

    {b The shell.}  Everything but the protocol is the page-DSM shell
    all three software engines share ({!Shm_dsm.Paged}): the node
    header (id, memory, rights bytes, runtime, checkpoint store), the
    guards, the fault's wait-and-fetch shell, start-up
    and the mounted instance.  This engine hands it one
    [Paged.protocol] record: what a fault fetches, the twin a write hit
    makes, its own message handler, its lock, release and barrier
    clients, and its checkpoint, rejoin and re-home moves.  A node's
    rights byte is its page state: ['\000'] invalid, ['\001'] valid,
    ['\002'] valid and twinned (or a single node, which never twins).

    {b Usage discipline.}  A processor fiber calls
    {!Shm_dsm.Paged.read_guard} (resp. {!Shm_dsm.Paged.write_guard})
    immediately before reading (writing) a shared word, and performs the
    actual {!Shm_memsys.Memory} access before its next yield point, so
    guard and access are atomic.  Pages start valid and identical on
    every node (initial distribution is excluded, as in the paper). *)

type tnode
type sys

(** Run it through the shell's operations ({!Shm_dsm.Paged.read_guard},
    {!Shm_dsm.Paged.write_guard}, {!Shm_dsm.Paged.instance}, ...). *)
type t = (Proto.t, tnode, sys) Shm_dsm.Paged.t

(** [create eng counters fabric cfg ~memories] builds the cluster's
    protocol state.  A {!Shm_sim.Lifecycle} attached to [fabric] (before
    [create]) arms crash recovery (DESIGN.md §13): per-node
    failure-atomic checkpoint stores ({!Shm_dsm.Checkpoint}) updated on
    the lifecycle's [on_ckpt] tick (sub-page run-length deltas, counters
    [ckpt.count]/[ckpt.bytes]), re-homing of every lock (with its queue
    tail) and the barrier role to a surviving node on crash detection
    ({!Shm_dsm.Roles.rehome}: [recovery.rehomes], stale requests
    forwarded as [recovery.forwards]), and an online rejoin at restart that replays
    the node's own diffs since the last checkpoint in seqno order and
    re-validates pages touched by foreign intervals ([recovery.count],
    [recovery.cycles], [recovery.replay_bytes],
    [recovery.invalidated]).  Without a lifecycle every code path is
    byte-identical to the pre-crash-layer system. *)
val create :
  Shm_sim.Engine.t ->
  Shm_stats.Counters.t ->
  Proto.t Shm_net.Reliable.packet Shm_net.Fabric.t ->
  Config.t ->
  memories:Shm_memsys.Memory.t array ->
  t

(** [memory t ~node] is the node's private copy of the shared space. *)
val memory : t -> node:int -> Shm_memsys.Memory.t

(** [start t] is {!Shm_dsm.Paged.start}: one message-handler daemon
    fiber per node (plus the reliable layer's retransmit daemons when
    faults are armed). *)
val start : t -> unit

(** {2 Called from processor fibers} *)

val acquire : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

val release : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

(** [barrier_arrive t fiber ~node ~id] announces the whole node's arrival;
    on a multiprocessor node only the last processor to arrive calls it. *)
val barrier_arrive : t -> Shm_sim.Engine.fiber -> node:int -> id:int -> unit

(** {2 Introspection (tests, reports)} *)

(** [page_valid t ~node ~page]. *)
val page_valid : t -> node:int -> page:int -> bool

(** [vc t ~node] is a copy of the node's vector time. *)
val vc : t -> node:int -> Vc.t

(** [logged_diffs t ~node] is how many of its own diffs the node keeps
    to serve diff requests. *)
val logged_diffs : t -> node:int -> int

(** [lock_states t ~node] is how many locks the node holds state for. *)
val lock_states : t -> node:int -> int

(** [records_held t] is how many interval records the system's shared
    table holds.  Crash-free, a record goes once no message can carry it
    again; under a lifecycle every record stays. *)
val records_held : t -> int

(** [node_words t ~node] is the host words the node's page state, vector
    time and record-store view occupy.  It leaves out what the nodes
    share: the interval records and the all-zero vector untouched pages
    start from. *)
val node_words : t -> node:int -> int

(** [check_invariants t] asserts protocol sanity: vector clocks never
    exceed creators' interval counts, valid pages have no applicable
    pending notices, twins exist exactly for the pages dirty in the open
    interval, and on more than one node a valid page's rights byte is
    ['\002'] exactly when it has a twin. *)
val check_invariants : t -> unit
