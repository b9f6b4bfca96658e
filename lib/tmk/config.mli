(** TreadMarks instance configuration. *)

(** When write notices travel.  [Lazy] is TreadMarks: notices move only
    with lock grants and barrier departures.  [Eager_invalidate] is
    conventional (Munin-style) eager release consistency: every release
    broadcasts the closing interval's notices so all copies invalidate
    immediately — correct for any program, at a per-release broadcast
    cost (the message blow-up LRC was designed to eliminate).
    [Eager_update] pushes the closing interval's {e diffs} (not just
    notices) to every node at each release and barrier arrival — the
    mechanism behind the paper's proposed fix for TSP's stale bound
    (Section 2.4.3), generalised from per-lock hints to every interval. *)
type notice_policy = Lazy | Eager_invalidate | Eager_update

type t = {
  n_nodes : int;
  shared_words : int;
      (** size of the shared address space, in pages of
          {!Shm_memsys.Memory.page_words} *)
  barrier_manager : int;  (** node hosting the barrier manager *)
  notice_policy : notice_policy;
  eager_locks : int list;
      (** locks using eager release: their releases push the closing
          interval's diffs to every node (paper Section 2.4.3).  Only
          sound for single-writer-at-a-time data, e.g. the TSP bound. *)
}

(** [default ~n_nodes ~shared_words] is the barrier manager on node 0,
    lazy notices and no eager locks. *)
val default : n_nodes:int -> shared_words:int -> t

val validate : t -> unit
