(* The home-based page DSM that IVY and Tardis share: every page has a
   static home manager ([page mod n_nodes], {!Home}) that serializes the
   transactions on it, a fault asks the home for the page and tells it
   when the transaction is done, and locks and barriers run through the
   role record every software DSM holds ({!Roles}).  This module is that
   skeleton: the node and system records, sending and serving messages,
   lock and barrier serving, the fault's request/await/done sequence, the
   four guards, the acquire, release and barrier clients, crash-recovery
   wiring and the mounted instance.  The engine hands it a [protocol]
   record with what its protocol decides: its page messages and the
   manager's state machine ([dispatch]), when a copy serves an access,
   what a fault asks for and what its reply installs, and the logical
   time synchronization carries.

   The skeleton reaches the engine through the record's fields, an
   indirect call each (see {!Node} for the measured cost).  Its own
   functions are not functor-bound, so the closures a fault or a lock
   operation builds capture what the per-engine copies captured and no
   more. *)

module Engine = Shm_sim.Engine
module Reliable = Shm_net.Reliable
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

(* What the engine's protocol decides, over its system ['s] (a [t]). *)
type ('msg, 'x, 's) protocol = {
  engine : string;  (** lowercase: names counters, fibers and errors *)
  sizes : 'msg -> Msg.sizes;
  is_reply : 'msg -> bool;  (** completes a wait of the receiver's own app *)
  dispatch : 's -> Engine.fiber -> ('msg, 'x) node -> 'msg -> unit;
  satisfied : ('msg, 'x) node -> int -> write:bool -> bool;
  read_hit : ('msg, 'x) node -> int -> unit;  (** after a satisfied read *)
  page_req : ('msg, 'x) node -> int -> write:bool -> req:int -> 'msg;
  complete : 's -> Engine.fiber -> ('msg, 'x) node -> int -> 'msg -> unit;
  txn_done : page:int -> requester:int -> write:bool -> 'msg;
  lock_req : lock:int -> requester:int -> req:int -> 'msg;
  lock_grant : lock:int -> req:int -> stamp:int -> 'msg;
  unlock : 'x -> lock:int -> requester:int -> 'msg;
  arrival : 'x -> barrier:int -> node:int -> req:int -> 'msg;
  departure : barrier:int -> req:int -> stamp:int -> 'msg;
  synced : 'x -> 'msg -> unit;
      (** a lock grant or a departure reached the node; fails on any other
          message *)
  checkpoint : 's -> ('msg, 'x) node -> unit;
  rejoin : 's -> ('msg, 'x) node -> unit;
  check : 's -> unit;  (** end-of-run invariants *)
}

type ('msg, 'x, 'txn, 'page) t = {
  eng : Engine.t;
  counters : Counters.t;
  net : 'msg Reliable.t;
  page_words : int;
  n_pages : int;
  n_nodes : int;
  nodes : ('msg, 'x) node array;
  home : ('txn, 'page) Home.t;
  roles : (int * int * int) Roles.t;  (** barrier arrivals: (node, req, stamp) *)
  page_shift : int;  (** log2 page_words, or -1 if not a power of two *)
  mutable page_hook : node:int -> page:int -> unit;
  p : ('msg, 'x, ('msg, 'x, 'txn, 'page) t) protocol;
  fault_event : string;
  read_faults : Counters.key;
  write_faults : Counters.key;
  lock_acquires : Counters.key;
}

(* [rights] is every page's byte at start when there are peers: a single
   node owns everything and never write-protects a page.  [x] builds a
   node's page state from the page count, [mpage] a home's page record.
   A lifecycle attached to [fabric] gives every node a checkpoint
   store. *)
let create p eng counters fabric ~page_words ~shared_words ~memories ~rights
    ~x ~mpage =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  let lifecycle = Shm_net.Fabric.lifecycle fabric in
  let key name = Counters.key counters (p.engine ^ name) in
  {
    eng;
    counters;
    net = Reliable.create eng counters fabric;
    page_words;
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
                (fun _ -> Checkpoint.create mem ~pages:n_pages ~page_words)
                lifecycle;
            x = x n_pages;
          });
    home = Home.create ~engine:p.engine ~n_nodes ~n_pages mpage;
    roles =
      Roles.create ~engine:p.engine counters ~n_nodes
        ~barrier_counter:(p.engine ^ ".barriers") ();
    page_shift = Node.page_shift page_words;
    page_hook = (fun ~node:_ ~page:_ -> ());
    p;
    fault_event = p.engine ^ ".fault";
    read_faults = key ".read_faults";
    write_faults = key ".write_faults";
    lock_acquires = key ".lock_acquires";
  }

let page_of t addr =
  if t.page_shift >= 0 then addr lsr t.page_shift else addr / t.page_words

(* [log2 page_words], or -1 when [page_words] is not a power of two
   (then the platforms' rights-byte fast path must not be used). *)
let page_shift t = t.page_shift

(* The node's rights bytes, one per page; read-only for the platforms,
   which index them with [addr lsr page_shift] to skip the guard call
   when the page is already accessible. *)
let access_rights t ~node = t.nodes.(node).rights

(* [f ~node ~page] fires whenever a page's contents are replaced, so the
   platforms can drop cached lines. *)
let set_page_hook t f = t.page_hook <- f

let overhead t = Node.overhead t.net

(* {!Shm_net.Reliable.pending_note} for the channel: the [diag] line of
   {!Shm_sim.Engine.run}. *)
let retx_note t = Reliable.pending_note t.net

(* Replace a page's contents, charging the copy, and tell the platform.
   The page changed, so the next checkpoint persists it. *)
let install_page t fiber nd page data =
  Memory.blit ~src:data ~src_pos:0 ~dst:nd.mem ~dst_pos:(page * t.page_words)
    ~len:t.page_words;
  (match nd.ckpt with Some c -> Checkpoint.mark c page | None -> ());
  Engine.advance fiber t.page_words;
  t.page_hook ~node:nd.id ~page

(* ---------------- messages ----------------------------------------- *)

(* Send [body] to [dst]: over the fabric, or by running the engine's
   handler inline when [dst] is the local node (no message, no cost).
   The skeleton's lock and barrier traffic is [Sync]; the engine's page
   traffic, sent with [deliver], is [Miss]. *)
let send t fiber ~class_ ~src ~dst body =
  if src = dst then t.p.dispatch t fiber t.nodes.(dst) body
  else Reliable.send t.net fiber ~src ~dst ~class_ ~size:(t.p.sizes body) body

let deliver t fiber ~src ~dst body = send t fiber ~class_:Msg.Miss ~src ~dst body
let send_sync t fiber ~src ~dst body = send t fiber ~class_:Msg.Sync ~src ~dst body

(* The handler's CPU time for one message: [handler] cycles now, charged
   back to the application unless the message is a reply completing one
   of its own waits. *)
let serve t fiber id (env : _ Msg.envelope) =
  let nd = t.nodes.(id) and ov = overhead t in
  Engine.advance fiber ov.handler;
  if not (t.p.is_reply env.body) then
    Node.charge nd.rt (ov.handler + ov.fixed_recv);
  t.p.dispatch t fiber nd env.body

(* Hand a reply to the application fiber waiting on request [req]. *)
let reply nd fiber ~req body =
  Node.route nd.rt ~req body ~at:(Engine.clock fiber)

(* The lock and barrier managers' side: [at_home] is [false] for a
   request addressed to a role a crash moved on, which it forwards
   ({!Roles.stale}). *)
let at_home t fiber nd body home =
  if Roles.stale t.roles ~self:nd.id home then begin
    send_sync t fiber ~src:nd.id ~dst:home body;
    false
  end
  else true

let serve_lock_req t fiber nd body ~lock ~requester ~req =
  if at_home t fiber nd body (Roles.lock_home t.roles lock) then
    let ml = Home.lock t.home lock in
    if Home.lock_req ml ~requester ~req then
      send_sync t fiber ~src:nd.id ~dst:requester
        (t.p.lock_grant ~lock ~req ~stamp:ml.stamp)

let serve_unlock t fiber nd body ~lock ~stamp =
  if at_home t fiber nd body (Roles.lock_home t.roles lock) then
    let ml = Home.lock t.home lock in
    match Home.unlock ml ~stamp with
    | Some (requester, req) ->
        send_sync t fiber ~src:nd.id ~dst:requester
          (t.p.lock_grant ~lock ~req ~stamp:ml.stamp)
    | None -> ()

(* Departures carry the episode's highest arrival stamp. *)
let serve_arrival t fiber nd body ~barrier ~node ~req ~stamp =
  if at_home t fiber nd body (Roles.barrier_home t.roles) then
    match Roles.arrive t.roles ~id:barrier (node, req, stamp) with
    | [] -> ()
    | departs ->
        let stamp = List.fold_left (fun m (_, _, s) -> max m s) 0 departs in
        List.iter
          (fun (dst, dreq, _) ->
            send_sync t fiber ~src:nd.id ~dst
              (t.p.departure ~barrier ~req:dreq ~stamp))
          departs

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

let start t =
  Reliable.start t.net;
  Node.on_lifecycle t.net ~nodes:t.n_nodes
    ~checkpoint:(fun id -> t.p.checkpoint t t.nodes.(id))
    ~rehome:(fun lc ~dead ->
      Roles.rehome t.roles lc ~dead ~locks:(Home.iter_locks t.home) ())
    ~rejoin:(fun id -> t.p.rejoin t t.nodes.(id));
  Node.spawn_handlers t.eng t.net ~engine:t.p.engine ~nodes:t.n_nodes
    (fun fiber id env -> serve t fiber id env)

(* ---------------- application-facing operations -------------------- *)

(* A fault waits out a co-located processor's fetch of the page, then, if
   the copy still does not serve the access, asks the home, installs the
   reply and ends the transaction. *)
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
    let req = Node.fresh nd.rt in
    let mb = Node.register nd.rt req in
    let mgr = Home.manager t.home page in
    deliver t fiber ~src:nd.id ~dst:mgr (t.p.page_req nd page ~write ~req);
    t.p.complete t fiber nd page (Node.await fiber Engine.Net_wait mb);
    deliver t fiber ~src:nd.id ~dst:mgr
      (t.p.txn_done ~page ~requester:nd.id ~write);
    Node.finish nd.rt req;
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
  done

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then read_page t t.nodes.(node) fiber (page_of t addr)

let write_guard t fiber ~node addr =
  if t.n_nodes > 1 then write_page t t.nodes.(node) fiber (page_of t addr)

(* The range guards guard each overlapped page once, in order, calling
   [f run_addr run_words] for each in-page run right after that page's
   guard; [f] must not yield. *)
let read_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else
    Node.walk_pages ~page_words:t.page_words ~page_shift:t.page_shift
      read_page t t.nodes.(node) fiber addr words ~f

let write_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else
    Node.walk_pages ~page_words:t.page_words ~page_shift:t.page_shift
      write_page t t.nodes.(node) fiber addr words ~f

let acquire t fiber ~node ~lock =
  Roles.check_lock t.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  send_sync t fiber ~src:node ~dst:(Roles.lock_home t.roles lock)
    (t.p.lock_req ~lock ~requester:node ~req);
  t.p.synced nd.x (Node.await fiber Engine.Lock_wait mb);
  Node.finish nd.rt req;
  Counters.bump t.lock_acquires 1

let release t fiber ~node ~lock =
  Roles.check_lock t.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol (fun () ->
      send_sync t fiber ~src:node ~dst:(Roles.lock_home t.roles lock)
        (t.p.unlock nd.x ~lock ~requester:node))

let barrier_arrive t fiber ~node ~id =
  Roles.check_barrier t.roles id;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  send_sync t fiber ~src:node ~dst:(Roles.barrier_home t.roles)
    (t.p.arrival nd.x ~barrier:id ~node ~req);
  t.p.synced nd.x (Node.await fiber Engine.Barrier_wait mb);
  Node.finish nd.rt req

(* Every transaction drained and no lock queue stranded behind a free
   lock, then the engine's own invariants. *)
let check_invariants t =
  Home.check_drained t.home;
  t.p.check t

(* The system as a {!Shm_proto.instance}. *)
let instance (type m x txn page) (sys : (m, x, txn, page) t) ~i_name =
  Mount.instance
    (module struct
      type nonrec t = (m, x, txn, page) t

      let page_shift = page_shift
      let access_rights = access_rights
      let set_page_hook = set_page_hook
      let start = start
      let retx_note = retx_note
      let read_guard = read_guard
      let write_guard = write_guard
      let read_range_guard = read_range_guard
      let write_range_guard = write_range_guard
      let acquire = acquire
      let release = release
      let barrier_arrive = barrier_arrive
      let check_invariants = check_invariants
    end)
    sys ~i_name ~wordwise_ranges:false

(* Mount the system [create] builds over the machine [ctx] describes. *)
let mount create (ctx : Shm_proto.ctx) ~i_name =
  instance ~i_name
    (create ctx.eng ctx.counters (Mount.fabric ctx) ~page_words:ctx.page_words
       ~shared_words:ctx.shared_words ~memories:ctx.memories)
