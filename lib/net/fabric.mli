(** Point-to-point interconnect with per-node link occupancy.

    Models both the ATM LAN (each node has a dedicated full-duplex link to a
    non-blocking switch, so disjoint pairs communicate in parallel but a
    node's own links serialize) and, with different constants and zero
    software overhead, the AH crossbar.

    Sending charges the sender's fiber the software send cost, reserves the
    sender's transmit link and the receiver's receive link for the wire
    time, and posts the message to the receiver's mailbox.  Receiving
    charges the consuming fiber the software receive cost. *)

type 'a t

type blackout = {
  bo_src : int option;  (** restrict to this sender ([None] = any) *)
  bo_dst : int option;  (** restrict to this receiver ([None] = any) *)
  bo_from : int;  (** first cycle of the outage (inclusive) *)
  bo_until : int;  (** end of the outage (exclusive) *)
}
(** A deterministic link outage: every message offered on a matching
    (src, dst) pair while the sender's clock is inside [bo_from, bo_until)
    is dropped. *)

type faults = {
  drop_miss : float;  (** drop probability for {!Msg.Miss}-class messages *)
  drop_sync : float;  (** drop probability for {!Msg.Sync}-class messages *)
  dup_rate : float;  (** probability a delivered message is duplicated *)
  jitter_cycles : int;  (** extra delivery delay, uniform in [0, jitter] *)
  fault_seed : int;  (** seed of the dedicated fault {!Shm_sim.Prng} stream *)
  blackouts : blackout list;
}
(** Unreliable-network policy.  All rates are probabilities in [0, 1].
    Decisions are drawn from a dedicated PRNG stream seeded from
    [fault_seed], in global event order, so a fault schedule is
    reproducible from (run, seed). *)

(** The default policy: deliver everything exactly once.  With this policy
    the fabric makes no PRNG draws at all, so fault-free runs are
    byte-identical to a build without fault injection. *)
val no_faults : faults

(** [faults_active f] is true iff [f] can alter delivery. *)
val faults_active : faults -> bool

type config = {
  name : string;
  latency_cycles : int;  (** switch/propagation latency *)
  bytes_per_cycle : float;  (** per-link bandwidth *)
  overhead : Overhead.t;
  faults : faults;
}

(** DECstation cluster: 40 MHz CPUs on 155 Mbit/s ATM (~10 MB/s user-level). *)
val atm_dec : overhead:Overhead.t -> config

(** Section-3 simulated ATM: 100 MHz CPUs, 155 Mbit/s links, 1 us latency. *)
val atm_sim : overhead:Overhead.t -> config

val create :
  Shm_sim.Engine.t -> Shm_stats.Counters.t -> config -> nodes:int -> 'a t

val nodes : 'a t -> int

val config : 'a t -> config

(** [faults_armed t] is true iff the fabric was created with an active
    fault policy or has a node-lifecycle attached — i.e. iff delivery can
    fail, so reliability layers must arm sequencing and retransmission. *)
val faults_armed : 'a t -> bool

(** [attach_lifecycle t lc] arms whole-node crash semantics: every
    delivery decision moves to the arrival cycle, and a message arriving
    at a node that is down is dropped (counted as
    [net.faults.node_down]).  Attach before creating reliability layers
    over the fabric so they observe {!faults_armed}.  Message-fault PRNG
    draws are unaffected: a lifecycle without drop/dup/jitter rates makes
    no draws. *)
val attach_lifecycle : 'a t -> Shm_sim.Lifecycle.t -> unit

(** [lifecycle t] is the attached crash policy instance, if any. *)
val lifecycle : 'a t -> Shm_sim.Lifecycle.t option

(** [wire_cycles t bytes] is the link occupancy, in cycles, of a
    [bytes]-byte message (reliability layers use it to derive
    retransmission timeouts from the latency/bandwidth model). *)
val wire_cycles : 'a t -> int -> int

(** [send t fiber ~src ~dst ~class_ ~size body] transmits; the fiber's clock
    ends when the message has left the sender (send overhead + local link
    occupancy), not at delivery.

    Counters: every call bumps [net.msgs.offered].  The per-class,
    byte, and [net.msgs.delivered] counters are updated at delivery
    decision time, so with faults armed a dropped message contributes to
    offered (and [net.faults.dropped] / [net.faults.blackout]) but not to
    traffic, while a duplicated one delivers — and counts — twice
    ([net.faults.duplicated]); jittered copies bump [net.faults.delayed]. *)
val send :
  'a t ->
  Shm_sim.Engine.fiber ->
  src:int ->
  dst:int ->
  class_:Msg.class_ ->
  size:Msg.sizes ->
  'a ->
  unit

(** [last_dropped t] is whether the latest {!send} on [t] lost its
    message; [send] decides it after its last yield. *)
val last_dropped : 'a t -> bool

(** [loopback t fiber ~node ~class_ ~size body] posts a message to the
    node's own inbox at the fiber's current clock, free of wire time,
    software overheads and traffic counters.  Protocol layers use it to
    funnel a node's {e local} requests through its handler fiber so that
    protocol state mutations serialize in one logical order. *)
val loopback :
  'a t ->
  Shm_sim.Engine.fiber ->
  node:int ->
  class_:Msg.class_ ->
  size:Msg.sizes ->
  'a ->
  unit

(** [recv t fiber ~node] blocks until a message for [node] arrives and
    charges the receive overhead. *)
val recv : 'a t -> Shm_sim.Engine.fiber -> node:int -> 'a Msg.envelope
