(** Diffs: run-length encodings of the words of a virtual page that a
    writer changed, computed against the {e twin} copied at the first
    write (paper Section 2.1).

    Because a diff carries only the words whose values changed, an
    application that overwrites data with identical values (SOR's interior
    zeros) moves almost nothing — the effect behind Figure 3. *)

(** A run of changed words.  [words] holds their bit patterns in a flat
    [float array] (one unboxed double per word, filled and drained with
    {!Shm_memsys.Memory.read_floats}/[write_floats], which copy bits
    exactly, NaN payloads included). *)
type run = { offset : int; words : float array }

(** A diff of [page], stamped with its interval: the creator, the
    creator's seqno and the vector-time sum its record carries, enough to
    place it in a linear extension of happened-before-1 without the
    record.  The stamp is host-side: it adds nothing to {!bytes}. *)
type t = { page : int; runs : run list; creator : int; seqno : int; vsum : int }

(** [make_stamped ~creator ~seqno ~vsum ~page ~twin ~current ~base ~words]
    compares the twin (at index 0) against page contents at [base] in
    [current], producing runs of differing words. *)
val make_stamped :
  creator:int ->
  seqno:int ->
  vsum:int ->
  page:int ->
  twin:Shm_memsys.Memory.t ->
  current:Shm_memsys.Memory.t ->
  base:int ->
  words:int ->
  t

(** [make] is {!make_stamped} for a diff outside any interval (creator
    [-1], seqno and vsum 0). *)
val make :
  page:int ->
  twin:Shm_memsys.Memory.t ->
  current:Shm_memsys.Memory.t ->
  base:int ->
  words:int ->
  t

(** [apply t mem ~base] writes the runs into page at [base]. *)
val apply : t -> Shm_memsys.Memory.t -> base:int -> unit

(** [apply_to_twin t twin] writes the runs into a twin page image. *)
val apply_to_twin : t -> Shm_memsys.Memory.t -> unit

val is_empty : t -> bool

(** Number of words carried. *)
val words : t -> int

(** Wire size: 16-byte descriptor, 4 bytes per run header, 8 per word. *)
val bytes : t -> int

(** [compare_linear a b] orders diffs by their stamps' (vsum, creator,
    seqno), as {!Record.compare_linear} orders the intervals' records. *)
val compare_linear : t -> t -> int

