(** Software messaging-overhead model (paper Sections 2.2 and 3.1).

    TreadMarks is a user-level library: every message send or receive traps
    into the kernel (fixed cost) and copies data (per-word cost); page
    faults and incoming messages dispatch a user-level handler; diffs cost
    a comparison pass over the page.  The paper sweeps the fixed and
    per-word costs to model Peregrine- and SHRIMP-class interfaces
    (Figures 14-16). *)

type t = {
  fixed_send : int;  (** cycles charged to the sender per message *)
  fixed_recv : int;  (** cycles charged to the receiver per message *)
  per_word : int;  (** cycles per 8-byte word of payload copied, each side *)
  handler : int;  (** cycles to dispatch a fault or message handler *)
  diff_per_word : int;  (** cycles per page word when creating a diff *)
}

(** Measured-TreadMarks-like user-level costs (fixed = 5000). *)
val treadmarks_user : t

(** Kernel-level TreadMarks implementation (paper Section 2.4.4):
    roughly halves the fixed cost. *)
val treadmarks_kernel : t

(** [sweep ~fixed ~per_word] is [treadmarks_user] with the two swept knobs
    replaced (Figures 14-16). *)
val sweep : fixed:int -> per_word:int -> t

(** Hardware-implemented messaging (AH crossbar): all costs zero. *)
val hardware : t
