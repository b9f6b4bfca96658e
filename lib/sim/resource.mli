(** Occupancy-based contention model for serially-reusable resources
    (buses, network links, DMA engines).

    A resource tracks the time at which it next becomes free.  A fiber that
    [use]s it for [cycles] first waits for the resource, then holds it,
    ending with its clock at the completion time.  Busy time is accumulated
    for utilisation reporting. *)

type t

val create : ?name:string -> unit -> t

val name : t -> string

(** [use fiber r ~cycles] occupies [r] for [cycles], advancing the fiber's
    clock past any contention delay.  Yields before claiming so earlier
    requests win. *)
val use : Engine.fiber -> t -> cycles:int -> unit

(** [reserve r ~ready ~cycles] claims the resource without a fiber: the
    transfer starts at [max ready (next_free r)] and the completion time is
    returned.  Used by callback-driven models. *)
val reserve : t -> ready:int -> cycles:int -> int

(** [busy_cycles r] is the total time the resource has been held. *)
val busy_cycles : t -> int
