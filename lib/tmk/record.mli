(** Interval records, write notices, the system's record table and each
    node's view of it.

    An {e interval} is the span of a node's execution between consecutive
    synchronization points that dirtied at least one page.  Its record —
    the creator, the creator's interval index, the sum of the creator's
    vector time at close, and the dirtied pages — is what travels in
    write notices.  No protocol path compares two records' vector times:
    ordering diffs needs only a linear extension of happened-before-1,
    which the sum gives, so a record carries one word, not an [n]-wide
    vector. *)

type t = {
  creator : int;
  seqno : int;  (** creator's 1-based interval index *)
  pages : int list;  (** pages dirtied during the interval *)
  vsum : int;  (** [Vc.sum] of the creator's vector time at close *)
}

val make : creator:int -> seqno:int -> vsum:int -> pages:int list -> t

(** Wire size of one record in a notice: 16-byte descriptor (including
    the delta-encoded vector time), 4 bytes per page id. *)
val bytes : t -> int

(** [linear_key r] sorts any set of records into a linear extension of
    happened-before-1 ([Vc.sum] is strictly monotone along the order). *)
val linear_key : t -> int * int * int

(** [compare_linear a b] orders records exactly as [compare] on their
    {!linear_key}s, without building the tuples: it is the comparison
    every happened-before sort uses. *)
val compare_linear : t -> t -> int

(** {2 Write notices}

    A notice names a record by (creator, seqno), packed into one
    immediate [int] so a page's pending notices cost one list cell
    each.  Creators must be below {!max_nodes}. *)

val max_nodes : int

val notice : creator:int -> seqno:int -> int

val notice_creator : int -> int

val notice_seqno : int -> int

(** [unapplied applied notices] keeps, in order, the notices whose seqno
    is past [applied.(creator)]. *)
val unapplied : Vc.t -> int list -> int list

module Table : sig
  (** One system's interval records, indexed by (creator, seqno).  A
      record is immutable and every node that learns of it holds the
      same value, so the nodes share one table and keep per node only
      which of its records they know ({!Store}). *)

  type t

  (** @raise Invalid_argument if [nodes > max_nodes]. *)
  val create : nodes:int -> t

  (** [floor t c]: [c]'s records at or below it are dropped; 0 until the
      first {!drop}. *)
  val floor : t -> int -> int

  (** [drop t ~creator f] drops [creator]'s records at or below [f] and
      ignores any later {!Store.add} of one; a lower [f] than the current
      floor is a no-op.  Amortized O(1) per dropped record. *)
  val drop : t -> creator:int -> int -> unit

  (** How many records the table holds (tests). *)
  val held : t -> int
end

module Store : sig
  (** A node's view of the shared {!Table}: which records it knows and
      which have had their first notice.

      Invariant: for every creator, known records form a prefix
      [1..contiguous] plus possibly isolated records beyond it (delivered
      by eager-release updates). *)

  type record := t

  type t

  (** [create table] knows no record yet. *)
  val create : Table.t -> t

  (** [add t r] registers [r]; returns [true] if it was new to [t].  The
      table keeps the first value added for a (creator, seqno). *)
  val add : t -> record -> bool

  (** [mem t ~creator ~seqno] is whether [t] knows the record, dropped
      from the table or not. *)
  val mem : t -> creator:int -> seqno:int -> bool

  (** @raise Invalid_argument for a known record below the table's
      floor. *)
  val find : t -> creator:int -> seqno:int -> record option

  val known : t -> record -> bool

  (** [range t ~creator ~lo ~hi] is the records with [lo < seqno <= hi],
      oldest first.  @raise Invalid_argument on a gap, or if [lo] is
      below the table's floor. *)
  val range : t -> creator:int -> lo:int -> hi:int -> record list

  (** [range_onto t ~creator ~lo ~hi l] is [range t ~creator ~lo ~hi @ l]
      without copying the range. *)
  val range_onto :
    t -> creator:int -> lo:int -> hi:int -> record list -> record list

  (** [first_notice t r] is [true] the first time it is called for
      [r]'s (creator, seqno) and [false] ever after.  It is independent of
      [add]: a record stored without being noticed still gets its first
      notice later. *)
  val first_notice : t -> record -> bool

  (** Highest contiguously-known interval index for [creator]. *)
  val contiguous : t -> creator:int -> int
end
