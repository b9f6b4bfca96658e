(** Direct-mapped cache directory (tags and MESI states; data lives in the
    backing {!Memory}).

    Addresses are word addresses; a block is [block_words] consecutive
    words.  The same structure serves as a private uniprocessor cache (only
    [Invalid]/[Modified] used), as an SGI secondary cache (full MESI under
    the Illinois protocol), and as an AH per-node cache (MESI under the
    directory protocol). *)

type state = Invalid | Shared | Exclusive | Modified

val state_name : state -> string

type t

val create : size_words:int -> block_words:int -> t

val block_words : t -> int

val lines : t -> int

(** [block_of t addr] is the block (line-aligned word address) containing
    word [addr]. *)
val block_of : t -> int -> int

(** [state_of t block] is the block's state, [Invalid] if absent or if the
    resident line maps to a different block. *)
val state_of : t -> int -> state

val set_state : t -> int -> state -> unit

(** [probe t addr] is the state of the block containing word [addr]. *)
val probe : t -> int -> state

(** [insert t block state] fills the line for [block]; returns the evicted
    [(block, state)] if a different, valid block occupied the line. *)
val insert : t -> int -> state -> (int * state) option

(** [fill t block state] is [insert] for a caller that drops the victim:
    it allocates nothing. *)
val fill : t -> int -> state -> unit

(** [peek_victim t block] is what [insert] would evict, without changing
    anything — so callers can retire the victim {e before} starting a
    multi-step fill transaction. *)
val peek_victim : t -> int -> (int * state) option

(** [invalidate t block] clears the block if present; returns its old state. *)
val invalidate : t -> int -> state

(** [invalidate_all t] empties the cache (cold start). *)
val invalidate_all : t -> unit

(** [iter_valid t f] calls [f block state] for every valid line. *)
val iter_valid : t -> (int -> state -> unit) -> unit

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val note_hit : t -> unit
val note_miss : t -> unit

(** [note_hits t n] records [n] hits at once (range accesses). *)
val note_hits : t -> int -> unit
