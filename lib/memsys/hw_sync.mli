(** Lock and barrier primitives for the hardware shared-memory machines.

    Locks are test-and-set words living in a reserved region of the shared
    address space, so every acquire attempt and barrier arrival generates
    real coherence traffic through the machine's protocol.  Blocked
    processors park on wait queues rather than busy-spinning (modelling
    invalidation-based spinning, which generates traffic only around
    releases); each wake costs the woken processor a re-read of the flag. *)

type access = {
  rmw : Shm_sim.Engine.fiber -> cpu:int -> int -> (int64 -> int64) -> int64;
  read : Shm_sim.Engine.fiber -> cpu:int -> int -> unit;
}

(** Address-space layout of the sync region appended after an app's heap. *)
val max_locks : int

val max_barriers : int

val region_words : int

type t

(** [create eng access ~base ~nprocs] places the sync region at word
    address [base]. *)
val create : Shm_sim.Engine.t -> access -> base:int -> nprocs:int -> t

val lock : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> unit

val unlock : t -> Shm_sim.Engine.fiber -> cpu:int -> int -> unit

(** [barrier t ?last fiber ~cpu b]: arrive at barrier [b] and wait for
    the other [nprocs - 1] participants.  The last to arrive resets the
    counter, runs [last b] (a hierarchical barrier ascends to the next
    level there), then bumps the generation word and wakes the rest,
    each of which re-reads the generation through [access.read]. *)
val barrier :
  t -> ?last:(int -> unit) -> Shm_sim.Engine.fiber -> cpu:int -> int -> unit
