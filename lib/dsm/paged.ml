(* The page-DSM shell all three software engines (TreadMarks, IVY,
   Tardis) run on: the node header, the page accessors and the four
   guards, the fault's wait-and-fetch shell, start-up with the crash
   lifecycle and the handler daemons, and the mounted
   {!Shm_proto.sdsm_instance}.  The engine hands it a [protocol] record
   with what its protocol decides: when a page copy serves an access,
   what a fault fetches, what a write hit does, how a message is served,
   its synchronization clients, and its checkpoint, re-home and rejoin
   moves.

   IVY and Tardis also share a home-based page DSM, the second half of
   this file: every page has a static home manager ([page mod n_nodes],
   {!Home}) that serializes the transactions on it, a fault asks the home
   for the page and tells it when the transaction is done, and locks and
   barriers run through the role record ({!Roles}).  Such an engine
   plugs the home-based helpers below ([fetch], [serve], the
   synchronization clients, [rehome]) into its shell [protocol], and
   hands [create_home] a second record, its [home_protocol]: its page
   messages, the manager's state machine, what a fault asks for and what
   its reply installs, and the logical time synchronization carries.
   TreadMarks keeps its own messages, lock queues and barrier records and
   allocates no home.  Both records are static: building a system
   allocates no protocol.

   The shell reaches the engine through the record's fields, an indirect
   call each (see {!Node} for the measured cost).  Its own functions are
   not functor-bound, so the closures a fault or a lock operation builds
   capture what the per-engine copies captured and no more. *)

module Engine = Shm_sim.Engine
module Lifecycle = Shm_sim.Lifecycle
module Reliable = Shm_net.Reliable
module Fabric = Shm_net.Fabric
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters

(* One node: its memory, one software-TLB byte per page for the
   platforms' fast paths (['\000'] fault, ['\001'] read-only, ['\002']
   read-write), its runtime, its checkpoint store ([None] = crash-free)
   and the engine's own page state [x]. *)
type ('msg, 'x) node = {
  id : int;
  mem : Memory.t;
  rights : Bytes.t;
  rt : 'msg Node.t;
  ckpt : Checkpoint.t option;
  x : 'x;
}

(* A system: the shell's state, the engine's [protocol] and its
   system-wide state [s]. *)
type ('msg, 'x, 's) t = {
  eng : Engine.t;
  counters : Counters.t;
  net : 'msg Reliable.t;
  n_pages : int;
  n_nodes : int;
  nodes : ('msg, 'x) node array;
  mutable page_hook : node:int -> page:int -> unit;
      (** fires whenever a page's contents are replaced, so the platforms
          can drop cached lines *)
  p : ('msg, 'x, 's) protocol;
  s : 's;
  fault_event : string;
  read_faults : Counters.key;
  write_faults : Counters.key;
}

(* What the engine's protocol decides. *)
and ('msg, 'x, 's) protocol = {
  engine : string;  (** lowercase: names counters, fibers and errors *)
  read_fault : string;  (** the counters a read and a write fault bump *)
  write_fault : string;
  satisfied : ('msg, 'x) node -> int -> write:bool -> bool;
  read_hit : ('msg, 'x) node -> int -> unit;  (** after a satisfied read *)
  write_hit : ('msg, 'x, 's) t -> Engine.fiber -> ('msg, 'x) node -> int -> unit;
      (** after a satisfied write; may yield *)
  fetch :
    ('msg, 'x, 's) t -> Engine.fiber -> ('msg, 'x) node -> int -> write:bool ->
    unit;
      (** a fault's middle: bring the page's copy up to date *)
  serve :
    ('msg, 'x, 's) t -> Engine.fiber -> ('msg, 'x) node -> 'msg Msg.envelope ->
    unit;
      (** the node's handler daemon received the message *)
  acquire : ('msg, 'x, 's) t -> Engine.fiber -> node:int -> lock:int -> unit;
  release : ('msg, 'x, 's) t -> Engine.fiber -> node:int -> lock:int -> unit;
  barrier_arrive : ('msg, 'x, 's) t -> Engine.fiber -> node:int -> id:int -> unit;
  checkpoint : ('msg, 'x, 's) t -> ('msg, 'x) node -> Checkpoint.t -> unit;
  rehome : ('msg, 'x, 's) t -> Lifecycle.t -> dead:int -> unit;
  rejoin : ('msg, 'x, 's) t -> ('msg, 'x) node -> Checkpoint.t -> unit;
      (** the crash moves, called only under a lifecycle, with the node's
          checkpoint store *)
  check : ('msg, 'x, 's) t -> unit;  (** end-of-run invariants *)
}

(* [rights] is every page's byte at start when there are peers: a single
   node owns everything and never write-protects a page.  [s] builds the
   engine's system-wide state and [x] a node's page state, both from the
   page count.  A lifecycle attached to [fabric] gives every node a
   checkpoint store.  Pages are {!Memory.page_words} long. *)
let create (p : (_, _, _) protocol) eng counters fabric ~shared_words
    ~memories ~rights ~s ~x =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + Memory.page_words - 1) / Memory.page_words in
  let lifecycle = Fabric.lifecycle fabric in
  {
    eng;
    counters;
    net = Reliable.create eng counters fabric;
    n_pages;
    n_nodes;
    nodes =
      Array.init n_nodes (fun id ->
          let mem = memories.(id) in
          {
            id;
            mem;
            rights = Bytes.make n_pages (if n_nodes = 1 then '\002' else rights);
            rt = Node.create eng ~engine:p.engine;
            ckpt =
              Option.map
                (fun _ -> Checkpoint.create mem ~pages:n_pages)
                lifecycle;
            x = x n_pages;
          });
    page_hook = (fun ~node:_ ~page:_ -> ());
    p;
    s = s n_pages;
    fault_event = p.engine ^ ".fault";
    read_faults = Counters.key counters p.read_fault;
    write_faults = Counters.key counters p.write_fault;
  }

let page_of addr = addr lsr Memory.page_shift

let overhead t = (Fabric.config (Reliable.fabric t.net)).Fabric.overhead

(* Record that a page's contents diverged from the checkpoint image;
   free crash-free ([ckpt = None]). *)
let mark_changed nd page =
  match nd.ckpt with Some c -> Checkpoint.mark c page | None -> ()

(* Hand a reply to the application fiber waiting on request [req]. *)
let reply nd fiber ~req body =
  Node.route nd.rt ~req body ~at:(Engine.clock fiber)

(* ---------------- start-up (DESIGN.md §13) ------------------------- *)

(* The channel's daemons, then, under the lifecycle attached to the
   channel's fabric, if any (the one crash switch): checkpoint every live
   node on its tick, re-home a dead node's manager roles on detection,
   rejoin a node at restart.  [create] gave every node a checkpoint
   store under that lifecycle; the checkpoint and rejoin moves get it.
   Last, one handler daemon per node: receive the next message, then
   serve it in the Protocol category. *)
let start t =
  Reliable.start t.net;
  Option.iter
    (fun lc ->
      let store nd = Option.get nd.ckpt in
      Lifecycle.on_ckpt lc (fun ~at:_ ->
          Array.iter
            (fun nd ->
              if Lifecycle.alive lc nd.id then t.p.checkpoint t nd (store nd))
            t.nodes);
      Lifecycle.on_detect lc (fun ~node ~at:_ -> t.p.rehome t lc ~dead:node);
      Lifecycle.on_restart lc (fun ~node ~at:_ ->
          let nd = t.nodes.(node) in
          t.p.rejoin t nd (store nd)))
    (Fabric.lifecycle (Reliable.fabric t.net));
  Array.iter
    (fun nd ->
      ignore
        (Engine.spawn t.eng ~daemon:true
           ~name:(Printf.sprintf "%s-handler-%d" t.p.engine nd.id)
           ~at:0
           (fun fiber ->
             let rec loop () =
               let env =
                 Engine.with_category fiber Engine.Net_wait (fun () ->
                     Reliable.recv t.net fiber ~node:nd.id)
               in
               Engine.with_category fiber Engine.Protocol (fun () ->
                   t.p.serve t fiber nd env);
               loop ()
             in
             loop ())))
    t.nodes

(* ---------------- guards ------------------------------------------- *)

(* A fault waits out a co-located processor's fetch of the page, then, if
   the copy still does not serve the access, fetches it. *)
let fault t fiber nd page ~write =
  Node.sync nd.rt fiber;
  while
    (not (t.p.satisfied nd page ~write)) && Node.wait_fetch nd.rt fiber page
  do
    ()
  done;
  if not (t.p.satisfied nd page ~write) then
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  begin
    let wq = Node.begin_fetch nd.rt page in
    Counters.bump (if write then t.write_faults else t.read_faults) 1;
    Engine.instant fiber t.fault_event;
    Engine.advance fiber (overhead t).handler;
    t.p.fetch t fiber nd page ~write;
    Node.end_fetch nd.rt fiber page wq
  end

let[@inline] read_page t nd fiber page =
  while not (t.p.satisfied nd page ~write:false) do
    fault t fiber nd page ~write:false
  done;
  t.p.read_hit nd page

let[@inline] write_page t nd fiber page =
  while not (t.p.satisfied nd page ~write:true) do
    fault t fiber nd page ~write:true
  done;
  t.p.write_hit t fiber nd page

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then read_page t t.nodes.(node) fiber (page_of addr)

let write_guard t fiber ~node addr =
  if t.n_nodes > 1 then write_page t t.nodes.(node) fiber (page_of addr)

(* ---------------- mounting ----------------------------------------- *)

(* The machine's message fabric, with the crash lifecycle (if any)
   attached before the system creates its reliable channel, so the
   channel arms sequencing/retransmission and sees node liveness. *)
let fabric (ctx : Shm_proto.sdsm_ctx) =
  let fabric = Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes in
  Option.iter (Fabric.attach_lifecycle fabric) ctx.lifecycle;
  fabric

(* The system as a {!Shm_proto.sdsm_instance}. *)
let instance sys =
  {
    Shm_proto.access_rights = (fun ~node -> sys.nodes.(node).rights);
    set_page_hook = (fun f -> sys.page_hook <- f);
    start = (fun () -> start sys);
    retx_note = (fun () -> Reliable.pending_note sys.net);
    read_guard = (fun f ~node addr -> read_guard sys f ~node addr);
    write_guard = (fun f ~node addr -> write_guard sys f ~node addr);
    acquire = (fun f ~node ~lock -> sys.p.acquire sys f ~node ~lock);
    release = (fun f ~node ~lock -> sys.p.release sys f ~node ~lock);
    barrier_arrive = (fun f ~node ~id -> sys.p.barrier_arrive sys f ~node ~id);
    check_invariants = (fun () -> sys.p.check sys);
  }

(* ================ the home-based page DSM (IVY, Tardis) ============ *)

(* The system-wide state of a home-based engine: the home managers, the
   lock and barrier roles, and the engine's home protocol. *)
type ('msg, 'x, 'txn, 'page) homes = {
  home : ('txn, 'page) Home.t;
  roles : (int * int * int) Roles.t;  (** barrier arrivals: (node, req, stamp) *)
  hp : ('msg, 'x, 'txn, 'page) home_protocol;
  lock_acquires : Counters.key;
}

(* What a home-based engine's protocol decides, over its system. *)
and ('msg, 'x, 'txn, 'page) home_protocol = {
  sizes : 'msg -> Msg.sizes;
  is_reply : 'msg -> bool;  (** completes a wait of the receiver's own app *)
  dispatch :
    ('msg, 'x, 'txn, 'page) homed -> Engine.fiber -> ('msg, 'x) node -> 'msg ->
    unit;
  page_req : ('msg, 'x) node -> int -> write:bool -> req:int -> 'msg;
  complete :
    ('msg, 'x, 'txn, 'page) homed -> Engine.fiber -> ('msg, 'x) node -> int ->
    'msg -> unit;
  txn_done : page:int -> requester:int -> write:bool -> 'msg;
  lock_req : lock:int -> requester:int -> req:int -> 'msg;
  lock_grant : lock:int -> req:int -> stamp:int -> 'msg;
  unlock : 'x -> lock:int -> requester:int -> 'msg;
  arrival : 'x -> barrier:int -> node:int -> req:int -> 'msg;
  departure : barrier:int -> req:int -> stamp:int -> 'msg;
  synced : 'x -> 'msg -> unit;
      (** a lock grant or a departure reached the node; fails on any other
          message *)
}

and ('msg, 'x, 'txn, 'page) homed =
  ('msg, 'x, ('msg, 'x, 'txn, 'page) homes) t

(* Replace a page's contents, charging the copy, and tell the platform.
   The page changed, so the next checkpoint persists it. *)
let install_page t fiber nd page data =
  Memory.blit ~src:data ~src_pos:0 ~dst:nd.mem
    ~dst_pos:(page * Memory.page_words) ~len:Memory.page_words;
  mark_changed nd page;
  Engine.advance fiber Memory.page_words;
  t.page_hook ~node:nd.id ~page

(* ---------------- messages ----------------------------------------- *)

(* Send [body] to [dst]: over the fabric, or by running the engine's
   handler inline when [dst] is the local node (no message, no cost).
   Lock and barrier traffic is [Sync]; the engine's page traffic, sent
   with [deliver], is [Miss]. *)
let send t fiber ~class_ ~src ~dst body =
  if src = dst then t.s.hp.dispatch t fiber t.nodes.(dst) body
  else Reliable.send t.net fiber ~src ~dst ~class_ ~size:(t.s.hp.sizes body) body

let deliver t fiber ~src ~dst body = send t fiber ~class_:Msg.Miss ~src ~dst body
let send_sync t fiber ~src ~dst body = send t fiber ~class_:Msg.Sync ~src ~dst body

(* The handler's CPU time for one message: [handler] cycles now, charged
   back to the application unless the message is a reply completing one
   of its own waits. *)
let serve t fiber nd (env : _ Msg.envelope) =
  let ov = overhead t in
  Engine.advance fiber ov.handler;
  if not (t.s.hp.is_reply env.body) then
    Node.charge nd.rt (ov.handler + ov.fixed_recv);
  t.s.hp.dispatch t fiber nd env.body

(* The lock and barrier managers' side: [at_home] is [false] for a
   request addressed to a role a crash moved on, which it forwards
   ({!Roles.stale}). *)
let at_home t fiber nd body home =
  if Roles.stale t.s.roles ~self:nd.id home then begin
    send_sync t fiber ~src:nd.id ~dst:home body;
    false
  end
  else true

let serve_lock_req t fiber nd body ~lock ~requester ~req =
  if at_home t fiber nd body (Roles.lock_home t.s.roles lock) then
    let ml = Home.lock t.s.home lock in
    if Home.lock_req ml ~requester ~req then
      send_sync t fiber ~src:nd.id ~dst:requester
        (t.s.hp.lock_grant ~lock ~req ~stamp:ml.stamp)

let serve_unlock t fiber nd body ~lock ~stamp =
  if at_home t fiber nd body (Roles.lock_home t.s.roles lock) then
    let ml = Home.lock t.s.home lock in
    match Home.unlock ml ~stamp with
    | Some (requester, req) ->
        send_sync t fiber ~src:nd.id ~dst:requester
          (t.s.hp.lock_grant ~lock ~req ~stamp:ml.stamp)
    | None -> ()

(* Departures carry the episode's highest arrival stamp. *)
let serve_arrival t fiber nd body ~barrier ~node ~req ~stamp =
  if at_home t fiber nd body (Roles.barrier_home t.s.roles) then
    match Roles.arrive t.s.roles ~id:barrier (node, req, stamp) with
    | [] -> ()
    | departs ->
        let stamp = List.fold_left (fun m (_, _, s) -> Int.max m s) 0 departs in
        List.iter
          (fun (dst, dreq, _) ->
            send_sync t fiber ~src:nd.id ~dst
              (t.s.hp.departure ~barrier ~req:dreq ~stamp))
          departs

(* ---------------- the shell's plug-ins ----------------------------- *)

(* A fault's middle: ask the home, install the reply, end the
   transaction. *)
let fetch t fiber nd page ~write =
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  let mgr = Home.manager t.s.home page in
  deliver t fiber ~src:nd.id ~dst:mgr (t.s.hp.page_req nd page ~write ~req);
  t.s.hp.complete t fiber nd page (Node.await fiber Engine.Net_wait mb);
  deliver t fiber ~src:nd.id ~dst:mgr
    (t.s.hp.txn_done ~page ~requester:nd.id ~write);
  Node.finish nd.rt req

let acquire t fiber ~node ~lock =
  Roles.check_lock t.s.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  send_sync t fiber ~src:node ~dst:(Roles.lock_home t.s.roles lock)
    (t.s.hp.lock_req ~lock ~requester:node ~req);
  t.s.hp.synced nd.x (Node.await fiber Engine.Lock_wait mb);
  Node.finish nd.rt req;
  Counters.bump t.s.lock_acquires 1

let release t fiber ~node ~lock =
  Roles.check_lock t.s.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol (fun () ->
      send_sync t fiber ~src:node ~dst:(Roles.lock_home t.s.roles lock)
        (t.s.hp.unlock nd.x ~lock ~requester:node))

let barrier_arrive t fiber ~node ~id =
  Roles.check_barrier t.s.roles id;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  send_sync t fiber ~src:node ~dst:(Roles.barrier_home t.s.roles)
    (t.s.hp.arrival nd.x ~barrier:id ~node ~req);
  t.s.hp.synced nd.x (Node.await fiber Engine.Barrier_wait mb);
  Node.finish nd.rt req

let rehome t lc ~dead =
  Roles.rehome t.s.roles lc ~dead ~locks:(Home.iter_locks t.s.home) ()

(* [mpage] builds a home's page record. *)
let create_home p hp eng counters fabric ~shared_words ~memories ~rights ~x
    ~mpage =
  let n_nodes = Array.length memories in
  create p eng counters fabric ~shared_words ~memories ~rights ~x
    ~s:(fun n_pages ->
      {
        home = Home.create ~engine:p.engine ~n_nodes ~n_pages mpage;
        roles = Roles.create ~engine:p.engine counters ~n_nodes ();
        hp;
        lock_acquires = Counters.key counters (p.engine ^ ".lock_acquires");
      })

(* Mount the home-based system [create] builds over the machine [ctx]
   describes. *)
let mount create (ctx : Shm_proto.sdsm_ctx) =
  instance
    (create ctx.eng ctx.counters (fabric ctx) ~shared_words:ctx.shared_words
       ~memories:ctx.memories)
