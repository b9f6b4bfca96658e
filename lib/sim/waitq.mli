(** Condition-variable-style wait queue for fibers. *)

type t

val create : Engine.t -> t

(** [wait fiber q] parks the fiber until woken. *)
val wait : Engine.fiber -> t -> unit

(** [wake_one q ~at] resumes the longest-waiting fiber with its clock moved
    to at least [at].  Returns [true] if a fiber was woken. *)
val wake_one : t -> at:int -> bool

(** [wake_all q ~at] resumes every waiting fiber.  Returns the count. *)
val wake_all : t -> at:int -> int
