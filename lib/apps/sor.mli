(** Red-Black Successive Over-Relaxation (paper Section 2.3).

    The grid is divided into bands of consecutive rows, one per processor;
    communication happens across band boundaries, with a barrier after
    each half-iteration (colour phase).

    Two initializations, as in the paper:
    - default: boundary rows fixed at 1.0, interior 0.0 — early iterations
      recompute interior points to the {e same} value, so TreadMarks diffs
      move almost nothing while hardware coherence moves whole lines;
    - [~touch_all:true]: interior seeded so every point changes at every
      iteration, equalizing data movement (Section 2.4.2). *)

type params = {
  rows : int;  (** interior rows *)
  cols : int;
  iters : int;
  touch_all : bool;
  omega : float;  (** over-relaxation factor *)
  point_cycles : int;  (** compute cost per point update *)
  slots : int;  (** per-processor partial-sum slots (= max processors) *)
}

val default_params : params

val make : params -> Shm_parmacs.Parmacs.app

(** [reference params] computes the expected checksum sequentially. *)
val reference : params -> float
