(** Named integer counters.

    Every subsystem (network, caches, DSM protocol) accumulates event counts
    and byte counts here; the bench harness reads them back by name. *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

(** [cell t name] is the mutable cell behind counter [name], creating it
    at 0 if absent.  Hot paths cache the cell once and bump it with a
    plain [ref] update instead of a hashtable lookup per event. *)
val cell : t -> string -> int ref

(** A counter name resolved once, for hot paths that bump the same
    counter on every event.  [bump (key t name) n] has exactly the effect
    of [add t name n]; the key finds the counter's cell on its first bump
    and keeps it, so later bumps skip the name lookup.  A key that is
    never bumped leaves [name] absent from [t], as {!cell} would not. *)
type key

val key : t -> string -> key

val bump : key -> int -> unit

(** [get t name] is the counter value, or [0] if never touched.  A
    misspelled name therefore silently reads as 0 — prefer {!find} (or
    check {!mem}) when the counter is expected to exist. *)
val get : t -> string -> int

(** [mem t name] is true iff [name] has ever been emitted into [t]. *)
val mem : t -> string -> bool

(** Strict {!get}: @raise Invalid_argument (listing the known names) if
    [name] was never emitted, instead of silently returning 0. *)
val find : t -> string -> int

(** [merge ~into src] adds every counter of [src] into [into]. *)
val merge : into:t -> t -> unit

val reset : t -> unit

(** [to_list t] is the (name, value) pairs sorted by name. *)
val to_list : t -> (string * int) list
