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

    {b Usage discipline.}  A processor fiber calls [read_guard] (resp.
    [write_guard]) immediately before reading (writing) a shared word, and
    performs the actual {!Shm_memsys.Memory} access before its next yield
    point, so guard and access are atomic.  Pages start valid and identical
    on every node (initial distribution is excluded, as in the paper). *)

type t

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

val config : t -> Config.t

(** [memory t ~node] is the node's private copy of the shared space. *)
val memory : t -> node:int -> Shm_memsys.Memory.t

(** [set_page_hook t f] registers [f ~node ~page], called whenever a page's
    contents are replaced under the application's feet (diffs applied), so
    the platform can invalidate stale cache lines. *)
val set_page_hook : t -> (node:int -> page:int -> unit) -> unit

(** [start t] spawns one message-handler daemon fiber per node (plus the
    reliable layer's retransmit daemons when faults are armed). *)
val start : t -> unit

(** [retx_note t] is {!Shm_net.Reliable.pending_note} for the system's
    channel — pass as [diag] to {!Shm_sim.Engine.run} so deadlock/watchdog
    reports show per-node pending retransmissions. *)
val retx_note : t -> string

val page_of : t -> int -> int

(** [page_shift t] is [log2 page_words], or [-1] when [page_words] is not
    a power of two (then the TLB fast path must not be used). *)
val page_shift : t -> int

(** [access_rights t ~node] is the node's software TLB: one byte per page,
    ['\000'] = a guard call must run (fault), ['\001'] = reads may skip the
    guard, ['\002'] = reads and writes may skip it (twin already in place,
    or single-node run).  Maintained by the protocol on every
    valid/twin transition; callers must treat it as read-only.  A platform
    hot path indexes it with [addr lsr page_shift] and falls back to
    {!read_guard}/{!write_guard} on a miss. *)
val access_rights : t -> node:int -> Bytes.t

(** {2 Called from processor fibers} *)

val read_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

val write_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

(** [read_range_guard t fiber ~node addr words ~f] guards every page
    overlapping the range once, in address order, calling [f run_addr
    run_words] for each in-page run immediately after that page's guard.
    Observably identical to guarding word by word: faults, cycles and
    messages happen at the same points.  [f] must not yield. *)
val read_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

(** Like {!read_range_guard} but also establishes the twin (one per page
    per interval) before handing the run to [f]. *)
val write_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

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
    pending notices, twins exist exactly for writable pages. *)
val check_invariants : t -> unit
