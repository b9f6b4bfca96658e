(** PARMACS-style parallel programming interface (ANL macros).

    The paper's applications are written once against this interface and
    run unchanged on every platform — TreadMarks over ATM, the SGI bus
    machine, and the simulated AS/AH/HS systems — exactly as the original
    programs ran on both the DECstation cluster and the 4D/480.

    A processor's shared accesses go through [read]/[write] (which charge
    simulated time and drive the platform's coherence machinery);
    [compute] charges local computation.  Private scratch data is ordinary
    OCaml state, its access cost folded into [compute] estimates. *)

(** Bulk shared-memory access over a contiguous word range: each op moves
    [len] words between shared address [addr..] and a typed private buffer
    at [pos..].  Platforms implement these so they are {e observably
    identical} to the equivalent per-word [read]/[write] sequence in
    ascending address order — same simulated cycles, same cache counters,
    same protocol messages at the same times — while skipping the per-word
    dispatch, so they run much faster in real time.  Only loops that
    already touch consecutive words in ascending order (all reads, or all
    writes) may be converted to range ops. *)
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
  range : range_ops;  (** contiguous-range accesses (guarded, timed) *)
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

(** [range_ops_of_runs ~mem ~read_run ~write_run] builds typed range ops
    from a platform's run primitives: [read_run addr words ~f] must
    perform guarding and timing for the range and call [f pos len] for
    each sub-run as soon as it may be accessed ([f] moves the data against
    [mem] and never yields). *)
val range_ops_of_runs :
  mem:Shm_memsys.Memory.t ->
  read_run:(int -> int -> f:(int -> int -> unit) -> unit) ->
  write_run:(int -> int -> f:(int -> int -> unit) -> unit) ->
  range_ops

(** [range_ops_wordwise ~read ~write] implements range ops as the literal
    per-word loop — the trivially-equivalent fallback for backends whose
    access interleaving is too delicate to batch. *)
val range_ops_wordwise :
  read:(int -> int64) -> write:(int -> int64 -> unit) -> range_ops

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
