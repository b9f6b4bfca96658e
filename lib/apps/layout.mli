(** Bump allocator for laying out an application's shared heap. *)

type t

val create : unit -> t

(** [alloc t words] reserves [words] and returns the base address. *)
val alloc : t -> int -> int

(** [alloc_aligned t words ~align] starts the block on an [align]-word
    boundary (e.g. a page, to give a hot lock-protected word its own
    page). *)
val alloc_aligned : t -> int -> align:int -> int

(** Total words allocated so far. *)
val size : t -> int

(** [check_slots ~app ~slots nprocs] refuses a run of [app] on more
    processors than the per-processor slots it lays out.
    @raise Invalid_argument naming the [--slots] knob. *)
val check_slots : app:string -> slots:int -> int -> unit
