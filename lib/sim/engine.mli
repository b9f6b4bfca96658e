(** Discrete-event simulation kernel with cooperative fibers.

    Each simulated processor is a {e fiber}: an OCaml function running under
    an effect handler, carrying a private cycle clock.  Purely local work
    ([advance]) just bumps the clock without touching the event queue; any
    interaction with shared simulation state must be preceded by a yield
    point ([sync], [wait_until], [suspend], or a blocking primitive built on
    them) so that the engine dispatches interactions in global time order.

    Determinism: events with equal times fire in insertion order. *)

type t
(** A simulation instance. *)

type fiber
(** A simulated thread of control (one per simulated processor or
    protocol agent). *)

exception
  Deadlock of { time : int; blocked : (string * int) list; note : string }
(** Raised by [run] when the event queue drains while fibers are still
    blocked.  Carries the engine time at which the queue drained, each
    blocked fiber's [(name, clock)] sorted by name, and the [diag]
    snapshot (empty when no [diag] was supplied), so a stall is
    debuggable from the exception message alone (a registered
    [Printexc] printer renders it as ["Engine.Deadlock at t=...:
    name@clock, ...; note"]). *)

exception
  Watchdog of {
    time : int;
    limit : int;
    blocked : (string * int) list;
    note : string;
  }
(** Raised by [run ~max_cycles] when the next event's time exceeds the
    cycle budget — the livelock analogue of [Deadlock] (e.g. unbounded
    retransmission under a pathological fault schedule).  Carries the
    offending event time, the limit, the blocked fibers and the [diag]
    snapshot. *)

(** {2 Execution-time attribution}

    Every simulated cycle a fiber spends is charged to exactly one category.
    [Compute] is the default; protocol layers re-scope sections with
    [with_category].  Attribution happens inside [advance] and [set_clock]
    (all clock movement flows through them — blocking primitives included),
    so per-fiber category totals sum {e exactly} to the fiber's elapsed
    clock — a checked invariant ([check_attribution]).  When the engine is
    created without [~instrument] and without a [tracer], every hook below
    is a no-op and simulated timing is byte-identical. *)

type category =
  | Compute  (** application work, cache hits, local stalls *)
  | Protocol  (** DSM / coherence protocol handler CPU time *)
  | Net_wait  (** blocked waiting for a network reply *)
  | Lock_wait  (** blocked acquiring a lock *)
  | Barrier_wait  (** blocked at a barrier *)
  | Diff  (** SDSM diff creation and application *)
  | Twin  (** SDSM twin creation *)
  | Mem_stall  (** hardware platforms: bus / directory miss service *)

val categories : category list
(** All categories, in a fixed rendering order starting with [Compute]. *)

val category_name : category -> string
(** Stable lowercase name, e.g. ["net_wait"]; used for ["time.*"] counter
    names and trace span labels. *)

(** Sink for trace events; see {!Trace} for the Chrome-trace implementation.
    [trace_track] is called once per spawned fiber with its display name;
    [trace_segment] receives one maximal run of same-category cycles per
    fiber; [trace_instant] receives point events (faults, retransmissions,
    invalidations, ...). *)
type tracer = {
  trace_track : track:int -> name:string -> unit;
  trace_segment : track:int -> cat:category -> start:int -> stop:int -> unit;
  trace_instant : name:string -> track:int -> at:int -> unit;
}

val create : ?instrument:bool -> ?tracer:tracer -> unit -> t
(** [create ()] is the zero-cost uninstrumented engine.  [~instrument:true]
    turns on per-fiber category accounting; supplying a [tracer] implies
    instrumentation and additionally streams segments / instants to it. *)

val instrumented : t -> bool

(** [now t] is the time of the most recently dispatched event. *)
val now : t -> int

(** [live_fibers t] is the number of spawned fibers that have not finished. *)
val live_fibers : t -> int

(** [spawn t ~name ~at body] creates a fiber whose [body] starts executing
    at time [at].  A [daemon] fiber (e.g. a protocol message handler that
    loops forever) does not count as live: the simulation ends normally
    when only daemons remain blocked. *)
val spawn : t -> ?daemon:bool -> name:string -> at:int -> (fiber -> unit) -> fiber

(** [schedule t ~at f] runs plain callback [f] at time [at] (not a fiber;
    [f] must not perform fiber effects). *)
val schedule : t -> at:int -> (unit -> unit) -> unit

(** [run ?max_cycles ?diag t] dispatches events until none remain.
    Exceptions raised inside fibers propagate.  [diag] is called only when
    an exception is about to be raised; its result is embedded as the
    exception's [note] (protocol layers use it to report in-flight
    retransmission state).
    @raise Deadlock if blocked fibers remain.
    @raise Watchdog if an event's time exceeds [max_cycles], or a fiber
    finished past it (a fiber that never yields schedules no event). *)
val run : ?max_cycles:int -> ?diag:(unit -> string) -> t -> unit

(** [release t] unwinds every fiber still parked in [t] (daemons waiting
    for messages that will not come, fibers a deadlock left blocked), so
    their stacks are freed; a dropped, never-resumed fiber keeps its
    stack.  Call it once [t]'s results have been read; [t] must not be
    run again. *)
val release : t -> unit

(** {2 Operations within a fiber} *)

val clock : fiber -> int
val name : fiber -> string
val id : fiber -> int
val engine : fiber -> t

(** [advance f n] adds [n >= 0] cycles of local work to [f]'s clock.
    No yield: cheap fast path for cache hits and computation. *)
val advance : fiber -> int -> unit

(** [set_clock f time] moves [f]'s clock forward to [time] (no-op if the
    clock is already past it).  No yield. *)
val set_clock : fiber -> int -> unit

(** [with_category f cat body] charges every cycle [f] spends inside [body]
    to [cat], restoring the previous category afterwards (innermost scope
    wins on nesting).  Never touches the clock or the event queue; when the
    engine is uninstrumented it is exactly [body ()]. *)
val with_category : fiber -> category -> (unit -> 'a) -> 'a

(** [advance_as f cat n] is [with_category f cat (fun () -> advance f n)]
    without the closure. *)
val advance_as : fiber -> category -> int -> unit

(** [instant f name] records a point event at [f]'s current clock on [f]'s
    track.  No-op unless the engine has a tracer. *)
val instant : fiber -> string -> unit

(** [breakdown f] is [f]'s per-category cycle totals in [categories] order,
    or [[]] when the engine is uninstrumented. *)
val breakdown : fiber -> (category * int) list

(** [check_attribution f] verifies that [f]'s category totals sum exactly
    to its elapsed clock.  No-op when uninstrumented.
    @raise Failure on a mismatch, naming the fiber. *)
val check_attribution : fiber -> unit

(** [sync f] re-enters the event queue at [f]'s current clock, letting every
    event with an earlier time run first.  Call before touching shared
    simulation state. *)
val sync : fiber -> unit

(** [wait_until f time] advances the clock to at least [time] and yields. *)
val wait_until : fiber -> int -> unit

(** [suspend f] parks the fiber until another party calls [resume]. *)
val suspend : fiber -> unit

(** [resume t f ~at] unparks [f], moving its clock forward to at least [at].
    It is an error to resume a fiber that is not suspended. *)
val resume : t -> fiber -> at:int -> unit

(** [resume_here t f] is [resume t f ~at:(now t)] for an engine
    callback whose last action it is.  When nothing queued is due at or
    before [f]'s resumed clock, that resume would be the next event
    popped, so [f] continues in place instead, until it next yields,
    parks or finishes; otherwise it queues as [resume] does.  Either way
    the order of events is the same.
    @raise Invalid_argument if [f] is not suspended, or if called from
    inside a fiber (which cannot run another fiber in place). *)
val resume_here : t -> fiber -> unit

val is_suspended : fiber -> bool
