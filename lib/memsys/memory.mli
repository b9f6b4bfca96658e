(** Word-addressed backing store.

    All simulated shared memory is an array of 64-bit words.  Floats are
    stored through their IEEE-754 bit pattern, so data moved by the
    protocols (diffs, cache blocks) round-trips exactly.  Integers must fit
    in an OCaml [int] (63 bits). *)

type t

(** The simulated shared-memory page, in words: 512 words (4 KB, the
    Ultrix page TreadMarks ran on).  It is the one coherence unit of
    every software DSM and the granule of the software TLB; a page
    number is the word address shifted right by [page_shift]. *)
val page_words : int

val page_shift : int

(** [create ~words] is a zero-filled store in [malloc]'d memory.  Use it
    for page-sized and short-lived buffers (twins, scratch pages) and for
    the one memory of a machine without a software-DSM root. *)
val create : words:int -> t

(** [create_mapped ~words] is a zero-filled store backed by a private,
    copy-on-write mapping of [/dev/zero]: a page costs host memory only
    once it is written.  Use it for a checkpoint image, of which a node
    persists only part; a software-DSM node's memory comes from
    {!clones}, which returns such stores only for an all-zero image.
    Each store is one kernel mapping, released when the
    store is collected; the GC does not count it as allocation, so it is
    the wrong choice for many small buffers. *)
val create_mapped : words:int -> t

(** [zero_mapped kind n] is the mapping behind {!create_mapped} for any
    element kind: [n] zero elements in a private mapping of [/dev/zero],
    each host page committed on its first write. *)
val zero_mapped :
  ('a, 'b) Bigarray.kind -> int -> ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t

val words : t -> int

val get : t -> int -> int64
val set : t -> int -> int64 -> unit

val get_float : t -> int -> float
val set_float : t -> int -> float -> unit

(** A one-float transfer cell, stored unboxed. *)
type fcell = { mutable v : float }

(** [load_float t i c] sets [c.v] to word [i] read as a float;
    [store_float t i c] writes [c.v] to word [i].  Neither allocates,
    whatever the caller's build flags. *)
val load_float : t -> int -> fcell -> unit

val store_float : t -> int -> fcell -> unit

val get_int : t -> int -> int
val set_int : t -> int -> int -> unit

(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies [len] words. *)
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [sub_copy ~src ~pos ~len] is a fresh store (like {!create}) holding
    words [\[pos, pos+len)] of [src]; it is never zero-filled first. *)
val sub_copy : src:t -> pos:int -> len:int -> t

(** [copy_all ~src ~dst] copies the whole store ([words] must match). *)
val copy_all : src:t -> dst:t -> unit

(** [seed ~src ~len dsts] copies words [\[0, len)] of [src] into every
    store of [dsts], which must be zero there.  Aligned 4 KB chunks that
    are all zero in [src] are skipped, so a {!create_mapped} destination
    keeps them on the kernel's zero page. *)
val seed : src:t -> len:int -> t array -> unit

(** [clones ~src ~len sizes] is one store per entry of [sizes], of
    [sizes.(i)] words, each reading words [\[0, len)] of [src] and zero
    beyond.  The non-zero 4 KB chunks of [src] are written once into an
    unlinked temporary file in [Filename.get_temp_dir_name ()], and each
    store is a private, copy-on-write mapping of it: until a store first
    writes a page it reads the one shared page-cache page, and a write
    copies only that page.  The file is closed before [clones] returns
    and goes away with the last mapping.  An all-zero image needs no
    file: its clones are {!create_mapped} stores.  [len] must not exceed
    any size.  Raises [Failure] naming the file if it cannot be
    created. *)
val clones : src:t -> len:int -> int array -> t array

(** [equal_range a b ~pos ~len] checks word-for-word equality. *)
val equal_range : t -> t -> pos:int -> len:int -> bool

(** {2 Bulk typed transfers}

    Word-at-a-time conversion loops kept inside the module so the
    intermediate int64/float values stay unboxed. *)

(** [read_floats t pos dst dst_pos len] moves [len] words starting at word
    [pos] into [dst.(dst_pos ..)], reinterpreting each as a float. *)
val read_floats : t -> int -> float array -> int -> int -> unit

val write_floats : t -> int -> float array -> int -> int -> unit

(** {2 Bitwise comparison scans} *)

(** [first_diff a apos b bpos len] is the first offset [k] in [0, len)
    where [a.(apos+k)] and [b.(bpos+k)] differ bitwise, or [-1] if the
    ranges are identical. *)
val first_diff : t -> int -> t -> int -> int -> int

(** [first_match a apos b bpos len] is the first offset [k] in [0, len)
    where the ranges agree bitwise, or [-1]. *)
val first_match : t -> int -> t -> int -> int -> int

(** [fold_diff_runs a apos b bpos len ~init f] folds [f acc start n],
    in address order, over the maximal runs [start, start + n) of
    offsets in [0, len) where the ranges differ bitwise. *)
val fold_diff_runs :
  t -> int -> t -> int -> int -> init:'a -> ('a -> int -> int -> 'a) -> 'a
