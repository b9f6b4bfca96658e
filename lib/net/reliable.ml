module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Counters = Shm_stats.Counters

type 'a packet =
  | Raw of 'a
  | Data of { seq : int; ack : int; body : 'a }
  | Ack of { ack : int }

exception
  Peer_unreachable of { src : int; dst : int; seq : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Peer_unreachable { src; dst; seq; attempts } ->
        Some
          (Printf.sprintf
             "Reliable.Peer_unreachable: node %d gave up on seq %d to node \
              %d after %d attempts"
             src seq dst attempts)
    | _ -> None)

let max_retries = 10

(* Backoff exponent cap under a lifecycle, so delivery to a restarted
   peer resumes promptly. *)
let backoff_cap = 6

(* Outbound packet to [dst] awaiting acknowledgement. *)
type 'a pending = {
  dst : int;
  seq : int;
  p_class : Msg.class_;
  p_size : Msg.sizes;
  p_body : 'a;
  mutable attempts : int;
  mutable noted_down : bool; (* [net.reliable.peer_down] counted *)
}

(* One direction of one (node, peer) pair.  [next_seq]/[acked] describe
   the outbound stream to [peer]: acks are cumulative, so the packets
   still owed are exactly the seqs in (acked, next_seq).  [next_expected]/
   [ooo] describe the inbound stream from it; [ack_owed]/[ack_timer_armed]
   the delayed standalone ack.

   [ooo] buffers early packets in a ring indexed by seq modulo its
   power-of-two length: it holds only seqs in [next_expected,
   next_expected + length), so the slot of [next_expected] is the next
   in-order packet if it is filled.  It is empty until the first early
   packet and doubles when one lands past its end. *)
type 'a link = {
  mutable next_seq : int;
  mutable acked : int;
  mutable next_expected : int;
  mutable ooo : 'a Msg.envelope option array;
  mutable ack_owed : bool;
  mutable ack_timer_armed : bool;
}

type 'a cmd = Retx of 'a pending | Ack_due of { peer : int }

type 'a t = {
  eng : Engine.t;
  counters : Counters.t;
  c_data : Counters.key;
  c_acks : Counters.key;
  c_dups : Counters.key;
  c_ooo : Counters.key;
  c_retrans : Counters.key;
  fabric : 'a packet Fabric.t;
  armed : bool;
  links : 'a link array array;
      (* links.(node).(peer); empty when unarmed, as pass-through sends
         keep no per-link state *)
  cmds : 'a cmd Mailbox.t array; (* per-node retransmit-daemon timer queue *)
  ready : 'a Msg.envelope Queue.t array; (* in-order backlog from ooo drain *)
  may_crash : bool; (* a lifecycle is attached to the fabric *)
}

let fabric t = t.fabric
let armed t = t.armed

let create eng counters fabric =
  let n = Fabric.nodes fabric in
  let link () =
    {
      next_seq = 0;
      acked = -1;
      next_expected = 0;
      ooo = [||];
      ack_owed = false;
      ack_timer_armed = false;
    }
  in
  let armed = Fabric.faults_armed fabric in
  {
    eng;
    counters;
    c_data = Counters.key counters "net.reliable.data";
    c_acks = Counters.key counters "net.reliable.acks";
    c_dups = Counters.key counters "net.reliable.dups";
    c_ooo = Counters.key counters "net.reliable.ooo";
    c_retrans = Counters.key counters "net.retrans.total";
    fabric;
    armed;
    links =
      (if armed then Array.init n (fun _ -> Array.init n (fun _ -> link ()))
       else [||]);
    cmds = Array.init n (fun _ -> Mailbox.create eng);
    ready = Array.init n (fun _ -> Queue.create ());
    may_crash = Fabric.lifecycle fabric <> None;
  }

(* Timeouts derive from the fabric's latency/bandwidth model: one-way wire
   time for this packet plus the fixed software path at both ends, with a
   4x safety factor to ride out moderate link contention without spurious
   retransmission.  Spurious retransmits are harmless (dup-suppressed) but
   waste simulated bandwidth. *)
let software_slack (cfg : Fabric.config) =
  let ov = cfg.overhead in
  ov.Overhead.fixed_send + ov.Overhead.fixed_recv + (2 * ov.Overhead.handler)

let base_timeout t ~size =
  let cfg = Fabric.config t.fabric in
  let one_way =
    cfg.Fabric.latency_cycles
    + Fabric.wire_cycles t.fabric (Msg.total_bytes size)
  in
  4 * (one_way + software_slack cfg)

(* Standalone acks wait roughly one one-way hop before firing, giving a
   reply (with its piggybacked ack) time to make the standalone one moot. *)
let ack_delay t =
  let cfg = Fabric.config t.fabric in
  cfg.Fabric.latency_cycles + software_slack cfg

let ack_size = Msg.sizes ()

(* Cumulative ack for the inbound stream of [l]: highest seq below which
   everything has been delivered in order. *)
let cumulative_ack l = l.next_expected - 1

(* Arm [p]'s retransmit timer on [node]'s daemon for cycle [at].  A timer
   whose packet is acked by then dies in its engine callback: it neither
   queues a command nor wakes the daemon. *)
let arm_retx t ~node p ~at =
  let l = t.links.(node).(p.dst) and mb = t.cmds.(node) in
  Engine.schedule t.eng ~at (fun () ->
      if p.seq > l.acked then Mailbox.deliver mb (Retx p))

(* Put [p] on the wire.  A lost data packet gets its own trace instant
   beside the fabric's drop instant: lost data must be retransmitted,
   while a lost standalone ack is covered by the next cumulative one. *)
let send_data t fiber ~src l p =
  l.ack_owed <- false (* this packet piggybacks the ack *);
  Fabric.send t.fabric fiber ~src ~dst:p.dst ~class_:p.p_class ~size:p.p_size
    (Data { seq = p.seq; ack = cumulative_ack l; body = p.p_body });
  if Fabric.last_dropped t.fabric then Engine.instant fiber "net.drop.data"

let send t fiber ~src ~dst ~class_ ~size body =
  if not t.armed then
    Fabric.send t.fabric fiber ~src ~dst ~class_ ~size (Raw body)
  else begin
    let l = t.links.(src).(dst) in
    let p =
      {
        dst;
        seq = l.next_seq;
        p_class = class_;
        p_size = size;
        p_body = body;
        attempts = 0;
        noted_down = false;
      }
    in
    l.next_seq <- p.seq + 1;
    Counters.bump t.c_data 1;
    send_data t fiber ~src l p;
    arm_retx t ~node:src p ~at:(Engine.clock fiber + base_timeout t ~size)
  end

let loopback t fiber ~node ~class_ ~size body =
  Fabric.loopback t.fabric fiber ~node ~class_ ~size (Raw body)

let process_ack t ~node ~peer ack =
  let l = t.links.(node).(peer) in
  if ack > l.acked then l.acked <- ack

let send_ack t fiber ~src ~dst =
  let l = t.links.(src).(dst) in
  l.ack_owed <- false;
  Counters.bump t.c_acks 1;
  Fabric.send t.fabric fiber ~src ~dst ~class_:Msg.Sync ~size:ack_size
    (Ack { ack = cumulative_ack l })

let note_inbound t fiber ~node ~peer =
  let l = t.links.(node).(peer) in
  l.ack_owed <- true;
  if not l.ack_timer_armed then begin
    l.ack_timer_armed <- true;
    Mailbox.post t.cmds.(node)
      ~at:(Engine.clock fiber + ack_delay t)
      (Ack_due { peer })
  end

let envelope ~src ~dst ~class_ ~size body =
  { Msg.src; dst; class_; size; body }

let[@inline] ooo_slot l seq = seq land (Array.length l.ooo - 1)

let buffered l seq =
  seq - l.next_expected < Array.length l.ooo && l.ooo.(ooo_slot l seq) <> None

let buffer l seq env =
  let len = Array.length l.ooo in
  if seq - l.next_expected >= len then begin
    let old = l.ooo in
    let len' = ref (max 8 (2 * len)) in
    while seq - l.next_expected >= !len' do
      len' := 2 * !len'
    done;
    l.ooo <- Array.make !len' None;
    for k = 0 to len - 1 do
      let s = l.next_expected + k in
      l.ooo.(ooo_slot l s) <- old.(s land (len - 1))
    done
  end;
  l.ooo.(ooo_slot l seq) <- Some env

let rec drain_ooo t ~node l =
  if Array.length l.ooo > 0 then
    let i = ooo_slot l l.next_expected in
    match l.ooo.(i) with
    | Some env ->
        l.ooo.(i) <- None;
        l.next_expected <- l.next_expected + 1;
        Queue.push env t.ready.(node);
        drain_ooo t ~node l
    | None -> ()

let rec recv t fiber ~node =
  if not (Queue.is_empty t.ready.(node)) then Queue.take t.ready.(node)
  else (
      let env = Fabric.recv t.fabric fiber ~node in
      match env.Msg.body with
      | Raw body ->
          envelope ~src:env.src ~dst:env.dst ~class_:env.class_
            ~size:env.size body
      | Ack { ack } ->
          process_ack t ~node ~peer:env.src ack;
          recv t fiber ~node
      | Data { seq; ack; body } ->
          process_ack t ~node ~peer:env.src ack;
          let l = t.links.(node).(env.src) in
          if seq < l.next_expected || buffered l seq then begin
            (* Duplicate (retransmission of something we already have):
               the peer evidently missed our ack, so re-ack immediately. *)
            Counters.bump t.c_dups 1;
            send_ack t fiber ~src:node ~dst:env.src;
            recv t fiber ~node
          end
          else if seq = l.next_expected then begin
            l.next_expected <- seq + 1;
            drain_ooo t ~node l;
            note_inbound t fiber ~node ~peer:env.src;
            envelope ~src:env.src ~dst:env.dst ~class_:env.class_
              ~size:env.size body
          end
          else begin
            (* Early: buffer until the gap fills so the protocol layers
               keep their per-link FIFO guarantee under jitter. *)
            Counters.bump t.c_ooo 1;
            buffer l seq
              (envelope ~src:env.src ~dst:env.dst ~class_:env.class_
                 ~size:env.size body);
            note_inbound t fiber ~node ~peer:env.src;
            recv t fiber ~node
          end)

(* [down_until] of a node under the fabric's lifecycle; 0 = alive (or no
   lifecycle attached, where every node is permanently alive). *)
let node_down_until t n =
  match Fabric.lifecycle t.fabric with
  | None -> 0
  | Some lc -> Shm_sim.Lifecycle.down_until lc n

let note_peer_down t p =
  if not p.noted_down then begin
    p.noted_down <- true;
    Counters.incr t.counters "net.reliable.peer_down"
  end

let retx_daemon t node fiber =
  let rec loop () =
    (match
       Engine.with_category fiber Engine.Net_wait (fun () ->
           Mailbox.recv fiber t.cmds.(node))
     with
    | Retx p when p.seq <= t.links.(node).(p.dst).acked ->
        (* Acked between its timer's delivery and this take: the daemon
           was mid-send, or earlier events of the same cycle ran first. *)
        ()
    | Retx p ->
        let peer = p.dst and now = Engine.clock fiber in
        let self_down = node_down_until t node in
        let peer_down = node_down_until t peer in
        if self_down > now then
          (* This node crashed: a dead host retransmits nothing.  The
             timer freezes (no attempt consumed) until restart. *)
          arm_retx t ~node p ~at:self_down
        else if peer_down > now && t.may_crash then begin
          (* The peer is down: report the death once per packet and park
             the timer at the peer's restart cycle — crash detection and
             transient loss share this one retransmission path. *)
          note_peer_down t p;
          arm_retx t ~node p ~at:peer_down
        end
        else begin
          p.attempts <- p.attempts + 1;
          if p.attempts > max_retries then begin
            if not t.may_crash then
              raise
                (Peer_unreachable
                   { src = node; dst = peer; seq = p.seq;
                     attempts = p.attempts });
            (* Keep probing: the peer may be down and restart later.
               Without the peer-down report above this packet has now
               also exhausted the transient-loss budget, so report. *)
            note_peer_down t p
          end;
          Counters.bump t.c_retrans 1;
          Engine.instant fiber "net.retransmit";
          Engine.with_category fiber Engine.Protocol (fun () ->
              send_data t fiber ~src:node t.links.(node).(peer) p);
          let exp =
            if t.may_crash then min p.attempts backoff_cap else p.attempts
          in
          let backoff = base_timeout t ~size:p.p_size lsl exp in
          arm_retx t ~node p ~at:(Engine.clock fiber + backoff)
        end
    | Ack_due { peer } ->
        let now = Engine.clock fiber in
        let self_down = node_down_until t node in
        if self_down > now then
          (* Dead hosts do not ack; re-arm for after the restart. *)
          Mailbox.post t.cmds.(node) ~at:self_down (Ack_due { peer })
        else begin
          let l = t.links.(node).(peer) in
          l.ack_timer_armed <- false;
          if l.ack_owed then
            Engine.with_category fiber Engine.Protocol (fun () ->
                send_ack t fiber ~src:node ~dst:peer)
        end);
    loop ()
  in
  loop ()

let start t =
  if t.armed then
    for node = 0 to Fabric.nodes t.fabric - 1 do
      ignore
        (Engine.spawn t.eng ~daemon:true
           ~name:(Printf.sprintf "retx-%d" node)
           ~at:0
           (fun fiber -> retx_daemon t node fiber))
    done

let pending_note t =
  if not t.armed then ""
  else
    let n = Fabric.nodes t.fabric in
    let owed acc l = acc + (l.next_seq - l.acked - 1) in
    let parts = ref [] in
    for node = n - 1 downto 0 do
      let pending = Array.fold_left owed 0 t.links.(node) in
      if pending > 0 then
        parts := Printf.sprintf "node%d:%d" node pending :: !parts
    done;
    match !parts with
    | [] -> "no pending retransmissions"
    | parts -> "pending retransmissions: " ^ String.concat " " parts
