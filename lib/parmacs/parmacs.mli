(** PARMACS-style parallel programming interface (ANL macros).

    The paper's applications are written once against this interface and
    run unchanged on every platform — TreadMarks over ATM, the SGI bus
    machine, and the simulated AS/AH/HS systems — exactly as the original
    programs ran on both the DECstation cluster and the 4D/480.

    A processor's shared accesses go through [read]/[write] (which charge
    simulated time and drive the platform's coherence machinery);
    [compute] charges local computation.  Private scratch data is ordinary
    OCaml state, its access cost folded into [compute] estimates. *)

(** The shared-memory page, in 8-byte words (4 KB): the unit a software
    DSM keeps coherent ({!Shm_memsys.Memory.page_words}).  Apps place
    data written by different processors [page_words] apart so no two
    writers share a page. *)
val page_words : int

(** Shared-memory access over a contiguous word range: each op moves
    [len] words between shared address [addr..] and a typed private buffer
    at [pos..].  A range is the per-word [readf]/[writef]/[readi]/[writei]
    loop in ascending address order ({!per_word_range}), so it costs
    exactly one simulated access per word on every platform.  Apps use it
    to name a whole-row transfer once. *)
type range_ops = {
  read_fs : int -> float array -> int -> int -> unit;
      (** [read_fs addr dst pos len] *)
  write_fs : int -> float array -> int -> int -> unit;
  read_is : int -> int array -> int -> int -> unit;
  write_is : int -> int array -> int -> int -> unit;
}

(** The scalar float transfer cell: one float field, stored unboxed
    (the same type as {!Shm_memsys.Memory.fcell}). *)
type fcell = Shm_memsys.Memory.fcell = { mutable v : float }

type ctx = {
  id : int;  (** processor id, [0 .. nprocs-1] *)
  nprocs : int;
  read : int -> int64;  (** shared word read (guarded, timed) *)
  write : int -> int64 -> unit;
  fcell : fcell;
      (** scalar float transfer cell shared with [readf]/[writef]; private
          to this processor *)
  readf : int -> unit;
      (** guarded, timed float read of one shared word into [fcell] —
          observably identical to [read], but allocation-free *)
  writef : int -> unit;  (** float store of [fcell]'s value, ditto *)
  icell : int ref;
      (** scalar int transfer cell shared with [readi]/[writei]; private
          to this processor *)
  readi : int -> unit;
      (** guarded, timed int read of one shared word into [icell] —
          observably identical to [read], but allocation-free *)
  writei : int -> unit;  (** int store of [icell]'s value, ditto *)
  range : range_ops;
      (** contiguous-range accesses: the per-word loop over [readf],
          [writef], [readi] and [writei] *)
  lock : int -> unit;
  unlock : int -> unit;
  barrier : int -> unit;
  compute : int -> unit;  (** charge local work, in cycles *)
  clock : unit -> int;
      (** this processor's current simulated cycle (the attribution
          clock); reading it charges nothing.  Serving apps timestamp
          request issue/completion with it.  [run_sequential] has no
          clock and always answers 0. *)
}

(** {2 Typed access helpers} *)

val read_f : ctx -> int -> float
val write_f : ctx -> int -> float -> unit
val read_i : ctx -> int -> int
val write_i : ctx -> int -> int -> unit

(** {2 Range helpers} — whole-buffer convenience wrappers. *)

(** [read_range_f ctx addr dst] fills all of [dst] from [addr..]. *)
val read_range_f : ctx -> int -> float array -> unit

val write_range_f : ctx -> int -> float array -> unit

(** {2 Constructors for platforms} *)

(** [per_word_range ~fcell ~readf ~writef ~icell ~readi ~writei] builds
    the range ops of a context from its scalar accessors: word [addr + k]
    moves through the transfer cell for [k = 0 .. len - 1], allocating
    nothing per word. *)
val per_word_range :
  fcell:fcell ->
  readf:(int -> unit) ->
  writef:(int -> unit) ->
  icell:int ref ->
  readi:(int -> unit) ->
  writei:(int -> unit) ->
  range_ops

(** {2 Applications} *)

type app = {
  name : string;
  shared_words : int;  (** size of the shared heap the app uses *)
  eager_lock_hints : int list;
      (** locks that platforms may run in eager-release mode when asked *)
  init : Shm_memsys.Memory.t -> unit;
      (** untimed sequential initialization of the shared image *)
  work : ctx -> unit;  (** the timed parallel section, one call per CPU *)
  checksum_addr : int;
      (** float slot that processor 0 fills at the end of [work] with a
          result digest, used to validate runs across platforms *)
  stats : unit -> (string * int) list;
      (** app-level counters the platform merges into the run's counter
          set after the simulation completes (e.g. the KV store's
          request totals and latency percentiles).  Must be a pure
          function of the finished run; most apps have none
          ({!no_stats}). *)
}

(** The empty [stats] function shared by apps with no app-level counters. *)
val no_stats : unit -> (string * int) list

(** [run_sequential app] executes the app untimed on a plain memory with
    one processor and no-op synchronization; returns the final memory.
    Reference results for validation. *)
val run_sequential : app -> Shm_memsys.Memory.t

(** [checksum_of mem app] reads the digest slot. *)
val checksum_of : Shm_memsys.Memory.t -> app -> float
