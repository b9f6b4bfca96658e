(** Full-map directory-based cache coherence over a crossbar (the AH
    architecture of paper Section 3).

    Uniprocessor nodes each hold a 64 KB direct-mapped cache and a slice of
    main memory (blocks interleaved across nodes).  Remote misses cost
    90-130 processor cycles depending on where the block lives and whether
    it is dirty (DASH/FLASH-like), plus crossbar port occupancy, so heavy
    traffic to one home node still queues. *)

type config = {
  n_nodes : int;
  cache_size_words : int;
  cache_block_words : int;
  local_miss_cycles : int;  (** miss satisfied by the local memory slice *)
  remote_clean_cycles : int;  (** 2-hop: home supplies *)
  remote_dirty_cycles : int;  (** 3-hop: forwarded to the dirty owner *)
  invalidation_cycles : int;  (** extra per sharer invalidated *)
  port_block_cycles : int;  (** crossbar port occupancy per block transfer *)
}

val sim_config : n_nodes:int -> config

type t

val create :
  Shm_sim.Engine.t -> Shm_stats.Counters.t -> Memory.t -> config -> t

val read : t -> Shm_sim.Engine.fiber -> node:int -> int -> int64

val write : t -> Shm_sim.Engine.fiber -> node:int -> int -> int64 -> unit

(** [read_timing]/[write_timing]: coherence and timing of a single access
    without the data movement.  No yield occurs after the final state
    change, so the caller may move the word immediately after the call
    with the same observable behaviour as {!read}/{!write}. *)
val read_timing : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

val write_timing : t -> Shm_sim.Engine.fiber -> node:int -> int -> unit

(** Atomic read-modify-write (fetch-and-phi at the block's home). *)
val rmw :
  t -> Shm_sim.Engine.fiber -> node:int -> int -> (int64 -> int64) -> int64

(** [invalidate_range t ~addr ~words] forgets every directory entry and
    cached copy of the blocks covering the range, without bus or port
    traffic — the hybrid platforms' page-invalidation hook (the data is
    already in memory; the next access misses and refetches). *)
val invalidate_range : t -> addr:int -> words:int -> unit

(** [check_invariants t] asserts directory/cache agreement: an exclusive
    entry has exactly that owner holding the block E/M; shared entries have
    no E/M holder and record a superset of the actual holders.  It costs
    time in proportion to the directory entries and resident cache lines,
    not to blocks times nodes.
    @raise Failure naming the block, the node and the state that break it. *)
val check_invariants : t -> unit

(** [cache_for_test t node] is [node]'s cache.  Test-only: it exists so
    tests can corrupt a cache line behind the directory's back and check
    that {!check_invariants} reports it.  The simulator never calls it. *)
val cache_for_test : t -> int -> Cache.t
