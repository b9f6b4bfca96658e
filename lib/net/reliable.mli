(** User-level reliable request/reply channel over {!Fabric}.

    Mirrors the paper's TreadMarks transport: UDP-style unreliable
    delivery underneath, with "operation-specific, user-level" reliability
    — sequence numbers, duplicate suppression, piggybacked acknowledgements
    and timeout/retransmission — implemented in the DSM library rather
    than the kernel.  Hardware platforms ([Snoop]/[Directory]) never see
    this layer: their interconnects are reliable by construction.

    Per ordered (node, peer) pair the layer keeps an outbound sequence
    window and an inbound stream delivered strictly in sequence (early
    packets are buffered), which both suppresses duplicates and preserves
    the per-link FIFO order the protocol layers rely on.  Every data
    packet piggybacks a cumulative ack for the reverse direction, so the
    window is two integers: the packets still owed are those after the
    highest ack received.  A delayed standalone ack covers one-way
    traffic, and a duplicate triggers an immediate re-ack.  Each packet
    has one retransmit timer, on a timeout derived from the fabric's
    latency/bandwidth model that doubles per attempt.  A timer whose
    packet is acked dies in place; a live one wakes the node's retransmit
    daemon fiber, which gives up after {!max_retries} resends (below).

    When the fabric's fault policy is inactive the layer is a pure
    pass-through: no sequence numbers, timers or daemon fibers exist and
    bodies travel wrapped in a zero-cost [Raw] constructor, so fault-free
    runs are byte-identical to direct {!Fabric} use.

    Counters: [net.reliable.data], [net.reliable.acks],
    [net.reliable.dups] (duplicates suppressed), [net.reliable.ooo]
    (early packets buffered), [net.retrans.total],
    [net.reliable.peer_down] (suspected-crash reports, at most one per
    packet, only with a lifecycle attached).  Trace instants:
    [net.retransmit], and [net.drop.data] beside the fabric's drop
    instant when the lost packet was data rather than a standalone ack.

    A {!Shm_sim.Lifecycle} attached to the fabric is the one crash
    switch.  With it, a crashed node's own retransmit and ack timers
    freeze (a dead host sends nothing) and resume at its restart cycle;
    timers for packets addressed to a down peer park at the peer's
    restart cycle instead of burning retry attempts, reporting the
    suspected death once per packet; a packet that exhausts
    {!max_retries} is reported the same way and keeps being
    retransmitted, with the backoff exponent capped at 6, instead of
    raising {!Peer_unreachable}.  Without a lifecycle, transient loss
    alone is expected and the historical abort stands. *)

type 'a packet
(** Wire representation carried by the underlying fabric. *)

type 'a t

exception
  Peer_unreachable of { src : int; dst : int; seq : int; attempts : int }
(** Raised (inside the simulation) when a packet stays unacknowledged
    after {!max_retries} retransmissions and the fabric has no lifecycle
    attached. *)

(** Retransmission budget per packet before the peer counts as down. *)
val max_retries : int

(** [create eng counters fabric] builds the channel.  The fault policy is
    read from the fabric's config: reliability machinery is armed iff
    {!Fabric.faults_armed}.  Crash awareness is read from
    {!Fabric.lifecycle}: attach the lifecycle before [create]. *)
val create :
  Shm_sim.Engine.t -> Shm_stats.Counters.t -> 'a packet Fabric.t -> 'a t

(** [start t] spawns the per-node retransmit daemon fibers.  Call once
    before [Engine.run]; a no-op when the channel is not armed. *)
val start : 'a t -> unit

val fabric : 'a t -> 'a packet Fabric.t
val armed : 'a t -> bool

(** [base_timeout t ~size] is the initial retransmission timeout for a
    packet of [size]: 4x the one-way latency + wire time + fixed software
    path.  Attempt [k] waits [base_timeout * 2^k].  Exposed for tests. *)
val base_timeout : 'a t -> size:Msg.sizes -> int

(** Same contract as {!Fabric.send}, plus reliability when armed. *)
val send :
  'a t ->
  Shm_sim.Engine.fiber ->
  src:int ->
  dst:int ->
  class_:Msg.class_ ->
  size:Msg.sizes ->
  'a ->
  unit

(** Same contract as {!Fabric.loopback}: local, free, and exempt from
    reliability (nothing to lose on a loopback path). *)
val loopback :
  'a t ->
  Shm_sim.Engine.fiber ->
  node:int ->
  class_:Msg.class_ ->
  size:Msg.sizes ->
  'a ->
  unit

(** [recv t fiber ~node] blocks until the next in-order application
    message for [node]; acks and duplicates are consumed internally. *)
val recv : 'a t -> Shm_sim.Engine.fiber -> node:int -> 'a Msg.envelope

(** [pending_note t] summarizes pending retransmissions per node — the
    [diag] string for {!Shm_sim.Engine.run}, making a stall under faults
    debuggable from the exception alone.  Empty when not armed. *)
val pending_note : 'a t -> string
