(** Typed, time-ordered message queues between fibers.

    A message posted with delivery time [at] becomes visible to receivers
    only once simulated time reaches [at]; a receiving fiber's clock is
    advanced to the delivery time. *)

type 'a t

val create : Engine.t -> 'a t

(** [post mb ~at msg] delivers [msg] at absolute time [at] (clamped to the
    current engine time if in the past). *)
val post : 'a t -> at:int -> 'a -> unit

(** [deliver mb msg] delivers [msg] now; [post] schedules exactly this.
    Call it only from an engine callback, as that callback's last action:
    a waiting receiver may continue in place ({!Engine.resume_here}). *)
val deliver : 'a t -> 'a -> unit

(** [recv fiber mb] blocks the fiber until a message is available and
    returns the earliest one. *)
val recv : Engine.fiber -> 'a t -> 'a

(** [poll fiber mb] takes a pending message without blocking. *)
val poll : Engine.fiber -> 'a t -> 'a option
