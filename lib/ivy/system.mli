(** An IVY-style sequentially-consistent page-based DSM (Li & Hudak's
    "Memory coherence in shared virtual memory systems", cited by the
    paper as the classic software shared memory).

    Contrast with TreadMarks ({!Shm_tmk.System}): one writer at a time per
    page, whole-page transfers instead of diffs, invalidations on every
    write fault instead of at synchronization points.  Two processors
    writing disjoint halves of the same page ping-pong the full 4 KB back
    and forth — the false-sharing failure mode that motivated
    multiple-writer lazy release consistency.

    Each page has a static manager tracking the owner and copyset;
    transactions on a page serialize through the manager (queued when
    busy), and write faults invalidate every copy (acked) before ownership
    transfers.  Locks are centralized-manager queued locks; barriers a
    centralized counter.  The usage discipline matches {!Shm_tmk.System}:
    guard immediately before each access. *)

type t

(** Raised when a protocol message violates the manager's page state
    machine (e.g. a transaction with an [Invalid] access kind, which no
    well-formed request produces).  Carries the page, the requesting node,
    the manager node, and a rendered manager-state description, so a
    protocol bug surfaced under a chaos schedule is diagnosable from the
    exception alone (a [Printexc] printer is registered). *)
exception
  Proto_error of {
    page : int;
    requester : int;
    manager : int;
    state : string;
  }

(** [create eng counters fabric ~page_words ~shared_words ~memories]: a
    {!Shm_sim.Lifecycle} attached to [fabric] (before [create]) arms
    crash recovery (DESIGN.md §13): page-granular failure-atomic
    checkpoints ({!Shm_dsm.Checkpoint}) on the lifecycle's tick
    ([ckpt.count]/[ckpt.bytes]), lock- and barrier-manager re-homing to
    a surviving node on crash detection
    ([recovery.rehomes]/[recovery.forwards]), and an online rejoin at
    restart that invalidates every non-owned page so it re-fetches
    through the manager ([recovery.count]/[recovery.cycles]/
    [recovery.invalidated]).  The page {e directory} is NOT re-homed:
    page requests to a down manager stall in retransmit queues until it
    restarts (documented deviation).  Without a lifecycle every code
    path is byte-identical to the pre-crash-layer system. *)
val create :
  Shm_sim.Engine.t ->
  Shm_stats.Counters.t ->
  Proto.t Shm_net.Reliable.packet Shm_net.Fabric.t ->
  page_words:int ->
  shared_words:int ->
  memories:Shm_memsys.Memory.t array ->
  t

val memory : t -> node:int -> Shm_memsys.Memory.t

(** [set_page_hook t f]: [f ~node ~page] fires when a page's contents are
    replaced (so platforms can invalidate cached lines). *)
val set_page_hook : t -> (node:int -> page:int -> unit) -> unit

val start : t -> unit

(** [retx_note t] is {!Shm_net.Reliable.pending_note} for the system's
    channel — pass as [diag] to {!Shm_sim.Engine.run}. *)
val retx_note : t -> string

val page_of : t -> int -> int

(** [page_shift t] is [log2 page_words], or [-1] when [page_words] is not
    a power of two (then the TLB fast path must not be used). *)
val page_shift : t -> int

(** [access_rights t ~node]: one byte per page mirroring the node's access
    — ['\000'] Invalid, ['\001'] Read, ['\002'] Write.  Read-only for
    callers; platforms index it with [addr lsr page_shift] to skip the
    guard call when the page is already accessible. *)
val access_rights : t -> node:int -> Bytes.t

val read_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

val write_guard : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

(** [read_range_guard t fiber ~node addr words ~f] guards each overlapped
    page once, in order, calling [f run_addr run_words] per in-page run
    immediately after that page's guard.  [f] must not yield. *)
val read_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

val write_range_guard :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> int ->
  f:(int -> int -> unit) -> unit

val acquire : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

val release : t -> Shm_sim.Engine.fiber -> node:int -> lock:int -> unit

val barrier_arrive : t -> Shm_sim.Engine.fiber -> node:int -> id:int -> unit

(** [check_invariants t]: every manager transaction drained and no lock
    queue stranded behind a free lock ({!Shm_dsm.Home.check_drained}),
    exactly one owner per page, owner's copy valid, writers are owners,
    copysets cover every valid copy. *)
val check_invariants : t -> unit
