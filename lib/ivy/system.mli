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
    guard immediately before each access.

    Everything but that protocol is the page-DSM shell all three
    software engines share ({!Shm_dsm.Paged}: the node and system
    records, the guards, the fault shell, start-up and mounting) and its
    home-based half IVY shares with Tardis (messaging, lock and barrier
    serving, the fault's request/await/done middle and the
    synchronization clients).  A node's rights bytes are its page state:
    ['\000'] Invalid, ['\001'] Read, ['\002'] Write.

    A {!Shm_sim.Lifecycle} attached to the fabric (before [create]) arms
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
    path is byte-identical to the pre-crash-layer system.

    The mounted instance's [check_invariants] runs the home's drain
    check, then IVY's own: exactly one owner per page, the owner's copy
    valid, writers are owners, copysets cover every valid copy. *)

type pending_txn
type mpage

(** Run it through the shell's operations ({!Shm_dsm.Paged.start},
    the guards, {!Shm_dsm.Paged.instance}, ...). *)
type t = (Proto.t, unit, pending_txn, mpage) Shm_dsm.Paged.homed

val create :
  Shm_sim.Engine.t ->
  Shm_stats.Counters.t ->
  Proto.t Shm_net.Reliable.packet Shm_net.Fabric.t ->
  shared_words:int ->
  memories:Shm_memsys.Memory.t array ->
  t

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
