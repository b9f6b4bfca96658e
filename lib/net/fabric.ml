module Engine = Shm_sim.Engine
module Resource = Shm_sim.Resource
module Mailbox = Shm_sim.Mailbox
module Prng = Shm_sim.Prng
module Counters = Shm_stats.Counters

type blackout = {
  bo_src : int option;
  bo_dst : int option;
  bo_from : int;
  bo_until : int;
}

type faults = {
  drop_miss : float;
  drop_sync : float;
  dup_rate : float;
  jitter_cycles : int;
  fault_seed : int;
  blackouts : blackout list;
}

let no_faults =
  {
    drop_miss = 0.0;
    drop_sync = 0.0;
    dup_rate = 0.0;
    jitter_cycles = 0;
    fault_seed = 0;
    blackouts = [];
  }

let faults_active f =
  f.drop_miss > 0.0 || f.drop_sync > 0.0 || f.dup_rate > 0.0
  || f.jitter_cycles > 0
  || f.blackouts <> []

type config = {
  name : string;
  latency_cycles : int;
  bytes_per_cycle : float;
  overhead : Overhead.t;
  faults : faults;
}

(* 155 Mbit/s user-limited to ~10 MB/s at 40 MHz: 0.25 bytes/cycle.
   1 us switch latency = 40 cycles at 40 MHz. *)
let atm_dec ~overhead =
  { name = "atm-dec"; latency_cycles = 40; bytes_per_cycle = 0.25; overhead;
    faults = no_faults }

(* 155 Mbit/s = ~19.4 MB/s at 100 MHz: 0.194 bytes/cycle; 1 us = 100 cycles. *)
let atm_sim ~overhead =
  { name = "atm-sim"; latency_cycles = 100; bytes_per_cycle = 0.194; overhead;
    faults = no_faults }

(* Per-message counter cells, resolved once at fabric creation: the send
   path bumps plain refs instead of hashing a (formatted) name per
   message. *)
type cells = {
  c_miss : int ref;
  c_sync : int ref;
  c_total : int ref;
  c_hdr : int ref;
  c_cons : int ref;
  c_payload : int ref;
  c_bytes : int ref;
  c_offered : int ref;
  c_delivered : int ref;
}

type 'a t = {
  eng : Engine.t;
  counters : Counters.t;
  cells : cells;
  c_dropped : Counters.key;
  cfg : config;
  n : int;
  tx : Resource.t array;
  rx : Resource.t array;
  inbox : 'a Msg.envelope Mailbox.t array;
  (* Dedicated fault stream: draws happen only when [active], in global
     event order, so a run's fault schedule is a pure function of
     (deterministic run, fault_seed). *)
  prng : Prng.t;
  active : bool;
  (* Node liveness, attached by the platform when a crash/restart policy
     is armed.  [None] keeps the exact pre-lifecycle delivery path (post
     at send time); [Some] defers the final delivery decision to the
     arrival cycle, where a message landing on a down node is dropped. *)
  mutable lifecycle : Shm_sim.Lifecycle.t option;
  mutable last_dropped : bool; (* the latest [send] lost its message *)
}

let create eng counters cfg ~nodes =
  {
    eng;
    counters;
    cells =
      {
        c_miss = Counters.cell counters "net.msgs.miss";
        c_sync = Counters.cell counters "net.msgs.sync";
        c_total = Counters.cell counters "net.msgs.total";
        c_hdr = Counters.cell counters "net.bytes.header";
        c_cons = Counters.cell counters "net.bytes.consistency";
        c_payload = Counters.cell counters "net.bytes.payload";
        c_bytes = Counters.cell counters "net.bytes.total";
        c_offered = Counters.cell counters "net.msgs.offered";
        c_delivered = Counters.cell counters "net.msgs.delivered";
      };
    c_dropped = Counters.key counters "net.faults.dropped";
    cfg;
    n = nodes;
    tx = Array.init nodes (fun i -> Resource.create ~name:(Printf.sprintf "tx%d" i) ());
    rx = Array.init nodes (fun i -> Resource.create ~name:(Printf.sprintf "rx%d" i) ());
    inbox = Array.init nodes (fun _ -> Mailbox.create eng);
    prng = Prng.create ~seed:(0x5EED_F417 lxor cfg.faults.fault_seed);
    active = faults_active cfg.faults;
    lifecycle = None;
    last_dropped = false;
  }

let attach_lifecycle t lc = t.lifecycle <- Some lc

let lifecycle t = t.lifecycle

let nodes t = t.n

let config t = t.cfg

(* [ceil] of the non-negative quotient, without the C call. *)
let wire_cycles t bytes =
  let q = float_of_int bytes /. t.cfg.bytes_per_cycle in
  let c = int_of_float q in
  if float_of_int c < q then c + 1 else c

let data_words (size : Msg.sizes) =
  (size.consistency_bytes + size.payload_bytes + 7) / 8

let[@inline] bump r n = r := !r + n

let count t ~class_ ~(size : Msg.sizes) =
  let k = t.cells in
  bump (match class_ with Msg.Miss -> k.c_miss | Msg.Sync -> k.c_sync) 1;
  bump k.c_total 1;
  bump k.c_hdr size.header_bytes;
  bump k.c_cons size.consistency_bytes;
  bump k.c_payload size.payload_bytes;
  bump k.c_bytes (Msg.total_bytes size)

let faults_armed t = t.active || t.lifecycle <> None

let rec in_blackout ~src ~dst ~at = function
  | [] -> false
  | b :: rest ->
      ((match b.bo_src with None -> true | Some s -> s = src)
      && (match b.bo_dst with None -> true | Some d -> d = dst)
      && at >= b.bo_from && at < b.bo_until)
      || in_blackout ~src ~dst ~at rest

let jitter t =
  let j = t.cfg.faults.jitter_cycles in
  if t.active && j > 0 then Prng.int t.prng (j + 1) else 0

(* One delivered copy of a sent message, [extra] cycles late: counted at
   its delivery decision and posted at its arrival. *)
let deliver_copy t ~src ~dst ~class_ ~size ~cycles ~tx_done ~extra body =
  if extra > 0 then Counters.incr t.counters "net.faults.delayed";
  count t ~class_ ~size;
  let arrival = tx_done + t.cfg.latency_cycles + extra in
  let delivered = Resource.reserve t.rx.(dst) ~ready:arrival ~cycles in
  let env = { Msg.src; dst; class_; size; body } in
  match t.lifecycle with
  | None ->
      bump t.cells.c_delivered 1;
      Mailbox.post t.inbox.(dst) ~at:delivered env
  | Some lc ->
      (* Crash state at the arrival cycle is unknowable at send time, so
         the post happens from a scheduled callback: a message arriving
         during the receiver's outage is lost on the floor (the sender's
         reliable layer will retransmit it). *)
      Engine.schedule t.eng ~at:delivered (fun () ->
          if Shm_sim.Lifecycle.alive lc dst then begin
            bump t.cells.c_delivered 1;
            Mailbox.post t.inbox.(dst) ~at:delivered env
          end
          else Counters.incr t.counters "net.faults.node_down")

let send t fiber ~src ~dst ~class_ ~size body =
  if src = dst then invalid_arg "Fabric.send: src = dst";
  bump t.cells.c_offered 1;
  let ov = t.cfg.overhead in
  Engine.advance fiber (ov.fixed_send + (ov.per_word * data_words size));
  Engine.sync fiber;
  let bytes = Msg.total_bytes size in
  let cycles = wire_cycles t bytes in
  let fl = t.cfg.faults in
  let launch = Engine.clock fiber in
  (* Fault decisions happen per offered message, in a fixed draw order
     (blackout check, drop draw, dup draw, one jitter draw per delivered
     copy); draws are skipped entirely when no fault policy is armed so
     fault-free runs stay byte-identical. *)
  let blackout = t.active && in_blackout ~src ~dst ~at:launch fl.blackouts in
  let dropped =
    blackout
    || (t.active
       &&
       let rate =
         match class_ with
         | Msg.Miss -> fl.drop_miss
         | Msg.Sync -> fl.drop_sync
       in
       rate > 0.0 && Prng.float t.prng 1.0 < rate)
  in
  t.last_dropped <- dropped;
  if dropped then begin
    (* The sender still paid the send overhead and occupies its transmit
       link — the packet left the host before the network lost it. *)
    Counters.bump t.c_dropped 1;
    Engine.instant fiber (if blackout then "net.blackout" else "net.drop");
    if blackout then Counters.incr t.counters "net.faults.blackout";
    let tx_done = Resource.reserve t.tx.(src) ~ready:launch ~cycles in
    Engine.set_clock fiber tx_done
  end
  else begin
    let dup =
      t.active && fl.dup_rate > 0.0 && Prng.float t.prng 1.0 < fl.dup_rate
    in
    let extra = jitter t in
    let tx_done = Resource.reserve t.tx.(src) ~ready:launch ~cycles in
    (* The sender is released once the message leaves its link. *)
    Engine.set_clock fiber tx_done;
    deliver_copy t ~src ~dst ~class_ ~size ~cycles ~tx_done ~extra body;
    if dup then begin
      Counters.incr t.counters "net.faults.duplicated";
      Engine.instant fiber "net.dup";
      deliver_copy t ~src ~dst ~class_ ~size ~cycles ~tx_done ~extra:(jitter t)
        body
    end
  end

let last_dropped t = t.last_dropped

let charge_recv t fiber (env : 'a Msg.envelope) =
  let ov = t.cfg.overhead in
  Engine.advance fiber (ov.fixed_recv + (ov.per_word * data_words env.size));
  env

let loopback t fiber ~node ~class_ ~size body =
  Mailbox.post t.inbox.(node) ~at:(Engine.clock fiber)
    { Msg.src = node; dst = node; class_; size; body }

let recv t fiber ~node = charge_recv t fiber (Mailbox.recv fiber t.inbox.(node))
