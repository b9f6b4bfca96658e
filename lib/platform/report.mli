(** Result of one application run on one platform. *)

type t = {
  platform : string;
  app : string;
  nprocs : int;
  cycles : int;  (** simulated cycles of the timed parallel section *)
  clock_mhz : float;
  checksum : float;
  counters : (string * int) list;
}

val seconds : t -> float

(** [get t name] is a counter value ([0] if absent). *)
val get : t -> string -> int

(** [rate t name] is the counter per simulated second; [0.0] when the run
    covered no simulated time (never NaN/inf). *)
val rate : t -> string -> float

(** [speedup ~base t] is [base.cycles / t.cycles] (base is usually the
    1-processor run); [0.0] when [t] ran for no cycles (never inf). *)
val speedup : base:t -> t -> float

(** The execution-time breakdown of an instrumented run: cycles attributed
    to each {!Shm_sim.Engine.category}, summed over the application
    processors (the [time.*] counters).  Empty when the run was not
    instrumented. *)
val breakdown : t -> (Shm_sim.Engine.category * int) list

(** Every counter name the accessors below read — the counter-name audit
    test checks each is actually emitted by the subsystems, so a renamed
    counter cannot silently start reading 0. *)
val consumed_names : string list

(** {2 Fault-injection / reliability counters}

    All zero on fault-free runs and hardware platforms. *)

val offered : t -> int  (** [net.msgs.offered]: every send attempt *)

val delivered : t -> int  (** [net.msgs.delivered]: copies posted *)

val dropped : t -> int  (** [net.faults.dropped] *)

val duplicated : t -> int  (** [net.faults.duplicated] *)

val retransmissions : t -> int  (** [net.retrans.total] *)

val dups_suppressed : t -> int  (** [net.reliable.dups] *)

(** One-line rendering of the counters above. *)
val fault_summary : t -> string

(** {2 Crash-injection / recovery counters (DESIGN.md §13)}

    All zero on crash-free runs. *)

val crashes : t -> int  (** [sim.crashes]: nodes killed *)

val restarts : t -> int  (** [sim.restarts]: nodes brought back *)

val downtime : t -> int  (** [sim.downtime]: summed outage cycles *)

val ckpt_count : t -> int  (** [ckpt.count]: per-node checkpoint sweeps *)

val ckpt_bytes : t -> int  (** [ckpt.bytes]: checkpoint image bytes written *)

val recovery_cycles : t -> int  (** [recovery.cycles]: rejoin CPU cycles *)

(** [recovery_time t] is [recovery_cycles] in simulated seconds. *)
val recovery_time : t -> float

(** One-line rendering of the crash counters. *)
val crash_summary : t -> string

(** [json_members t] is [t]'s simulated results as JSON object members
    ([nprocs], [cycles], [seconds], a ["%h"] [checksum] string, traffic,
    and the fault, crash and kv counters, zero when inactive), comma
    separated, in a fixed order and without braces.  [shmsim run --json]
    and the bench harness's run records both write it. *)
val json_members : t -> string

val pp : Format.formatter -> t -> unit
