(** Hierarchical timing-wheel priority queue keyed by [(time, seq)].

    The sequence number is assigned internally at insertion, so two entries
    with the same time pop in insertion order.  This is what makes the
    simulation deterministic.

    Events within 2^24 ticks of the last time popped from the wheel
    (heap-tier pops never move it) live in a three-level wheel of
    256-slot arrays with per-slot FIFO chains built from a preallocated
    node pool, so the steady-state push/pop cycle allocates nothing.
    Other events — far-future, past (standalone users only), or all of
    them once the clock outruns the window on heap pops — go to a binary
    heap that sifts [(time, seq, node)] in three parallel [int] arrays,
    the node naming the entry's pool slot.  The heap serves the small,
    sparse queues of most runs (5 to 30 entries on the serving
    workload); the wheel serves dense, wide ones (1024 fibers).  Pop
    compares the wheel head against the heap root under the same
    [(time, seq)] order, so the observable pop sequence is identical to a
    single binary heap's. *)

type 'a t

(** [create ~dummy] makes an empty queue.  [dummy] fills vacant pool
    slots so released events don't retain their payloads; it is never
    returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push q ~time v] inserts [v] with key [time]. *)
val push : 'a t -> time:int -> 'a -> unit

(** [pop q] removes and returns the minimum entry as [(time, v)].
    @raise Not_found if the queue is empty. *)
val pop : 'a t -> int * 'a

(** [pop_event q] removes the minimum entry and returns just its value,
    without boxing the [(time, value)] pair; the time is available
    beforehand from [min_time_exn].
    @raise Not_found if the queue is empty. *)
val pop_event : 'a t -> 'a

(** [min_time_exn q] is the minimum entry's time, without removing it,
    or [max_int] when the queue is empty.  O(1) when the minimum is
    unchanged since the last call (the common case on the engine's yield
    fast path). *)
val min_time_exn : 'a t -> int
