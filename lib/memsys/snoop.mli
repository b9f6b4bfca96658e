(** Bus-based shared-memory multiprocessor with Illinois (MESI) snooping
    cache coherence.

    Two instantiations:
    - the SGI 4D/480: per-CPU write-through primary caches (with write
      buffers) in front of 1 MB write-back secondary caches kept coherent
      by snooping on a shared bus;
    - an HS node: single-level 64 KB write-back caches on a fast node bus.

    Data lives in the shared backing {!Memory}; reads and writes go through
    the protocol for timing, state transitions and traffic accounting, and
    the machine is sequentially consistent by construction (each access is
    atomic at fiber granularity). *)

type level_config = { size_words : int; block_words : int }

type config = {
  n_cpus : int;
  primary : level_config option;  (** write-through filter, hit = 1 cycle *)
  coherent : level_config;  (** the snooped level *)
  coherent_hit_cycles : int;  (** primary miss, coherent hit *)
  bus_upgrade_cycles : int;  (** occupancy of an address-only transaction *)
  bus_block_cycles : int;  (** occupancy of a block transfer *)
  memory_extra_cycles : int;  (** added when memory, not a cache, supplies *)
}

(** SGI 4D/480: 8-CPU ceiling, 64 KB primaries, 1 MB secondaries with
    128-byte lines, 64-bit 25 MHz bus (40 MHz CPUs). *)
val sgi_config : n_cpus:int -> config

(** HS multiprocessor node: single-level 64 KB caches, 32-byte blocks,
    fast split-transaction bus; local miss ~25 cycles. *)
val hs_node_config : n_cpus:int -> config

type t

val create :
  Shm_sim.Engine.t -> Shm_stats.Counters.t -> Memory.t -> config -> t

val read : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> int64

val write : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> int64 -> unit

(** [read_timing t fiber ~cpu addr]: coherence and timing of a load
    without the data movement; no yield occurs after the final state
    change, so a load performed immediately after sees the word {!read}
    would have returned.  Lets platforms keep scalar float accesses
    allocation-free. *)
val read_timing : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> unit

(** [write_timing t fiber ~cpu addr] performs the coherence transaction
    and timing of a store without updating memory.  Layered protocols
    (DSM over a bus node) use it so the guard check, the store and the
    dirty-tracking stay atomic: do the timing (which may yield), then the
    guard, then the raw memory update. *)
val write_timing : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> unit

(** [rmw t fiber ~cpu addr f] atomically replaces the word with [f old],
    returning [old]; costs a write transaction. *)
val rmw : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> (int64 -> int64) -> int64

(** [invalidate_range t ~addr ~words] drops the range from every cache on
    the machine without bus traffic (DSM page replacement on an HS node). *)
val invalidate_range : t -> addr:int -> words:int -> unit

(** [check_coherence t] verifies the MESI invariants (at most one
    [Modified]/[Exclusive] holder per block, never alongside [Shared]
    copies elsewhere); raises [Failure] on violation.  For tests. *)
val check_coherence : t -> unit
