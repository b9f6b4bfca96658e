(** Uniprocessor cache timing model for DSM nodes.

    No coherence: the node owns its memory.  Used for the DECstation (64 KB
    primary, write-through with a write buffer, so writes retire in one
    cycle) and for the Section-3 AS/HS simulated nodes (64 KB write-back
    allocate-on-write caches). *)

type write_policy =
  | Write_through_buffered  (** writes cost one cycle, no allocation *)
  | Write_back_allocate  (** write misses cost a fetch like read misses *)

type config = {
  size_words : int;
  block_words : int;
  hit_cycles : int;
  miss_cycles : int;  (** fill from local memory *)
  write_policy : write_policy;
}

(** DECstation-5000/240: 64 KB direct-mapped, 32-byte blocks, fast memory. *)
val dec_config : config

(** Section-3 uniprocessor node: 100 MHz, 64 KB, 32-byte blocks. *)
val sim_node_config : config

type t

val create : config -> t

val config : t -> config

(** [read t fiber addr] charges the fiber for a read of word [addr]. *)
val read : t -> Shm_sim.Engine.fiber -> int -> unit

val write : t -> Shm_sim.Engine.fiber -> int -> unit

(** [invalidate_range t ~addr ~words] drops any blocks overlapping the
    range (used when the DSM layer replaces a page's contents). *)
val invalidate_range : t -> addr:int -> words:int -> unit

val hits : t -> int
val misses : t -> int
