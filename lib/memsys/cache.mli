(** Direct-mapped cache directory (tags and MESI states; data lives in the
    backing {!Memory}).

    Addresses are word addresses; a block is [block_words] consecutive
    words, named by its first word, and must lie in [\[0, 2{^59})].  The
    same structure serves as a private uniprocessor cache (only
    [Invalid]/[Modified] used), as an SGI secondary cache (full MESI under
    the Illinois protocol), and as an AH per-node cache (MESI under the
    directory protocol).

    Each line is one packed [int], [(block lsl 3) lor 4 lor code]: bit 2
    says a tag is present and [code] is the state ([Invalid] = 0 to
    [Modified] = 3), so a probe is one load and compare.  The lines live
    in a private mapping of [/dev/zero] ({!Memory.zero_mapped}) where an
    all-zero word is an empty line, so a cache holds host memory only for
    the 4 KB pages of lines it has written.  An [Invalid] line is the same
    as an absent one to every query except {!set_state}, which checks only
    the tag; {!invalidate} keeps the tag. *)

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

(** [set_state t block state] rewrites the state of the line whose tag is
    [block], even an [Invalid] one; raises [Invalid_argument] if the line
    holds another block's tag or none. *)
val set_state : t -> int -> state -> unit

(** [probe t addr] is the state of the block containing word [addr]. *)
val probe : t -> int -> state

(** A displaced line: the packed entry of a valid block that a fill
    evicts, or {!no_victim}. *)
type victim = private int

(** Nothing valid was displaced; its {!victim_state} is [Invalid]. *)
val no_victim : victim

val victim_block : victim -> int

(** [victim_state v] is [Invalid] exactly when [v] is {!no_victim}. *)
val victim_state : victim -> state

(** [insert t block state] fills the line for [block]; returns the evicted
    line if a different, valid block occupied it.  It allocates nothing. *)
val insert : t -> int -> state -> victim

(** [fill t block state] is [insert] for a caller that drops the victim. *)
val fill : t -> int -> state -> unit

(** [peek_victim t block] is what [insert] would evict, without changing
    anything — so callers can retire the victim {e before} starting a
    multi-step fill transaction. *)
val peek_victim : t -> int -> victim

(** [invalidate t block] clears the block if present; returns its old state. *)
val invalidate : t -> int -> state

(** [invalidate_range t ~addr ~words] invalidates every block overlapping
    words [\[addr, addr+words)], as {!invalidate} does one. *)
val invalidate_range : t -> addr:int -> words:int -> unit

(** [iter_valid t f] calls [f block state] for every valid line. *)
val iter_valid : t -> (int -> state -> unit) -> unit

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val note_hit : t -> unit
val note_miss : t -> unit
