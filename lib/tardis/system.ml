module Engine = Shm_sim.Engine
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Node = Shm_dsm.Node
module Home = Shm_dsm.Home
module Roles = Shm_dsm.Roles

(* Tardis (Yu & Devadas, arXiv 1501.04504) over a page DSM: coherence by
   logical timestamps instead of invalidation.

   Every page version carries a write timestamp [wts]; read copies carry
   a lease — a logical time up to which the copy may be read.  Each node
   keeps a program timestamp [pts] that only moves forward: loads bump it
   to the version's [wts], exclusive grants to the new version's
   timestamp, and synchronization (lock grants, barrier departures)
   jumps it to the partner's timestamp.  A copy is readable exactly while
   [pts <= lease]; when the lease has expired the node asks the page's
   home manager to renew it — a two-word message, no data unless the
   version moved on.  Writes take exclusive ownership at a fresh
   timestamp [max (rts + 1) pts], above every outstanding lease, so
   nothing is ever broadcast or invalidated: stale sharers simply run out
   of lease before their timestamps reach the new version.

   The home manager (static, [page mod n_nodes]) tracks the version
   timestamp [wts], the highest lease handed out [rts] and the exclusive
   owner.  Its transaction serializer and lock manager are IVY's own
   code ({!Shm_dsm.Home}), the lock stamped with release timestamps;
   lock placement and the counting barrier are every software DSM's
   ({!Shm_dsm.Roles}), the arrivals carrying the nodes' timestamps.
   All messaging goes through {!Shm_net.Reliable}, so the engine runs
   under fault injection; every protocol decision depends only on
   logical timestamps carried in messages, never on arrival times. *)

type page_access = Tinvalid | Tshared | Texclusive

let access_name = function
  | Tinvalid -> "Invalid"
  | Tshared -> "Shared"
  | Texclusive -> "Exclusive"

(* A renewed lease runs this far past the reader's [pts].  Longer leases
   mean fewer renewals but later timestamps for writers (writes start at
   [rts + 1]); the value is a protocol constant, not machine timing. *)
let lease_span = 10

type pending_txn = {
  write : bool;
  requester : int;
  req : int;
  pts : int;
  have_wts : int;
}

include Home.Error (struct
  let engine = "Tardis"
end)

(* Manager-side record for a page it is home for. *)
type mpage = {
  mutable owner : int option;
  mutable m_wts : int;  (** timestamp of the current version *)
  mutable m_rts : int;  (** highest lease handed out; >= m_wts *)
}

type node = {
  id : int;
  mem : Memory.t;
  access : page_access array;
  rights : Bytes.t;
      (** software TLB: ['\002'] for Exclusive (guards skippable),
          ['\000'] otherwise — a Shared copy's readability depends on
          [pts <= lease], which changes at synchronization, so Shared
          reads must always reach the guard (a hit is free there). *)
  wts : int array;  (** version timestamp of the local copy, per page *)
  lease : int array;  (** local copy readable while [pts <= lease] *)
  mutable pts : int;  (** the node's program timestamp *)
  rt : Proto.t Node.t;
}

type t = {
  eng : Engine.t;
  counters : Counters.t;
  net : Proto.t Reliable.t;
  page_words : int;
  n_pages : int;
  n_nodes : int;
  nodes : node array;
  home : (pending_txn, mpage) Home.t;
  roles : (int * int * int) Roles.t;
      (** barrier arrivals: (node, req, pts) *)
  page_shift : int;  (** log2 page_words, or -1 if not a power of two *)
  mutable page_hook : node:int -> page:int -> unit;
}

let page_of t addr =
  if t.page_shift >= 0 then addr lsr t.page_shift else addr / t.page_words

let page_shift t = t.page_shift

let access_rights t ~node = t.nodes.(node).rights

(* Every [access] transition goes through here so the TLB mirror never
   drifts. *)
let set_access nd page (a : page_access) =
  nd.access.(page) <- a;
  Bytes.unsafe_set nd.rights page
    (match a with Texclusive -> '\002' | Tshared | Tinvalid -> '\000')

let memory t ~node = t.nodes.(node).mem

let set_page_hook t f = t.page_hook <- f

let overhead t = Node.overhead t.net

let create eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  {
    eng;
    counters;
    net = Reliable.create eng counters fabric;
    page_words;
    n_pages;
    n_nodes;
    nodes =
      Array.init n_nodes (fun id ->
          {
            id;
            mem = memories.(id);
            access = Array.make n_pages Tshared;
            (* pts starts at 0 and every initial copy is version 0 with a
               lease of 0, so the warm start costs nothing: first reads
               hit, the first write of a page mints version >= 1. *)
            rights =
              Bytes.make n_pages (if n_nodes = 1 then '\002' else '\000');
            wts = Array.make n_pages 0;
            lease = Array.make n_pages 0;
            pts = 0;
            rt = Node.create eng ~engine:"tardis";
          });
    home =
      Home.create ~engine:"tardis" ~n_nodes ~n_pages (fun _ ->
          { owner = None; m_wts = 0; m_rts = 0 });
    roles =
      Roles.create counters ~n_nodes ~barrier_counter:"tardis.barriers" ();
    page_shift = Node.page_shift page_words;
    page_hook = (fun ~node:_ ~page:_ -> ());
  }

(* Replace a page's contents with version [wts].  The local access kind
   is the caller's business; the version stamp is not, so it updates
   here and the platform's cache hook always fires. *)
let install_page t fiber nd page ~wts data =
  Node.install nd.mem ~page_words:t.page_words page data;
  nd.wts.(page) <- wts;
  Engine.advance fiber t.page_words;
  t.page_hook ~node:nd.id ~page

(* Deliver [body] to [dst]: over the fabric, or by running the dispatch
   inline when [dst] is the local node (no message, no cost). *)
let rec deliver t fiber ~src ~dst body =
  if src = dst then dispatch t fiber t.nodes.(dst) ~src body
  else
    Reliable.send t.net fiber ~src ~dst ~class_:(Proto.class_ body)
      ~size:(Proto.sizes body) body

(* ---------------- manager-side page state machine ------------------ *)

and mgr_start_txn t fiber mgr page (txn : pending_txn) =
  let mp = Home.page t.home page in
  match mp.owner with
  | Some o when o <> txn.requester ->
      deliver t fiber ~src:mgr ~dst:o
        (Proto.Flush_req { page; req = txn.req; drop = txn.write })
  | Some _ ->
      (* The exclusive holder neither read- nor write-faults on its own
         page, so a transaction from the owner is a protocol bug (or a
         corrupted request under a chaos schedule): diagnosable error. *)
      raise
        (Proto_error
           {
             page;
             requester = txn.requester;
             manager = mgr;
             state =
               Printf.sprintf
                 "%s transaction (req %d) from the exclusive owner; manager \
                  state: wts=%d rts=%d busy=%b queued=%d"
                 (if txn.write then "write" else "read")
                 txn.req mp.m_wts mp.m_rts (Home.busy t.home page)
                 (Home.queued t.home page);
           })
  | None -> mgr_grant t fiber mgr page

and mgr_grant t fiber mgr page =
  let mp = Home.page t.home page in
  match Home.current t.home page with
  | Some { write; requester; req; pts; have_wts } ->
      (* With no owner, the home copy is the current version, so grants
         are served from the manager's own memory — unless the requester
         already holds it, which makes renewals and upgrades two-word
         messages. *)
      let current = mp.m_wts in
      let fresh () =
        if have_wts = current then None
        else begin
          Engine.advance fiber t.page_words;
          Some
            (Node.page_data t.nodes.(mgr).mem ~page_words:t.page_words page)
        end
      in
      if write then begin
        let ts = max (mp.m_rts + 1) pts in
        let data = fresh () in
        mp.m_wts <- ts;
        mp.m_rts <- ts;
        mp.owner <- Some requester;
        deliver t fiber ~src:mgr ~dst:requester
          (Proto.Write_grant { page; req; ts; data })
      end
      else begin
        let lease = max mp.m_rts (pts + lease_span) in
        let data = fresh () in
        mp.m_rts <- lease;
        deliver t fiber ~src:mgr ~dst:requester
          (Proto.Read_grant { page; req; wts = current; lease; data })
      end
  | None -> failwith "tardis: grant without transaction"

(* ---------------- message dispatch --------------------------------- *)

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req; pts; have_wts } ->
      let txn = { write = false; requester; req; pts; have_wts } in
      if Home.request t.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Write_req { page; requester; req; pts; have_wts } ->
      let txn = { write = true; requester; req; pts; have_wts } in
      if Home.request t.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Flush_req { page; req; drop } ->
      (* We are the owner: ship the latest contents back to the home
         manager and give up exclusivity.  The copy we keep (unless
         dropped) is the current version, already stamped [wts]. *)
      if nd.access.(page) <> Texclusive then
        raise
          (Proto_error
             {
               page;
               requester = nd.id;
               manager = Home.manager t.home page;
               state =
                 Printf.sprintf "flush of a %s copy (req %d)"
                   (access_name nd.access.(page))
                   req;
             });
      set_access nd page (if drop then Tinvalid else Tshared);
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:(Home.manager t.home page)
        (Proto.Flush_resp
           {
             page;
             req;
             data = Node.page_data nd.mem ~page_words:t.page_words page;
           });
      Counters.incr t.counters "tardis.flushes"
  | Proto.Flush_resp { page; data; _ } ->
      (* We are the manager: refresh the home copy and serve the waiting
         transaction from it. *)
      let mp = Home.page t.home page in
      install_page t fiber nd page ~wts:mp.m_wts data;
      mp.owner <- None;
      mgr_grant t fiber nd.id page
  | Proto.Txn_done { page; _ } -> (
      match Home.txn_done t.home page with
      | Some txn -> mgr_start_txn t fiber nd.id page txn
      | None -> ())
  | Proto.Lock_req { lock; requester; req } ->
      let home = Roles.lock_home t.roles lock in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else
        let ml = Home.lock t.home lock in
        if Home.lock_req ml ~requester ~req then
          deliver t fiber ~src:nd.id ~dst:requester
            (Proto.Lock_grant { lock; req; ts = ml.stamp })
  | Proto.Unlock { lock; pts; _ } -> (
      let home = Roles.lock_home t.roles lock in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else
        let ml = Home.lock t.home lock in
        match Home.unlock ml ~stamp:pts with
        | Some (requester, req) ->
            deliver t fiber ~src:nd.id ~dst:requester
              (Proto.Lock_grant { lock; req; ts = ml.stamp })
        | None -> ())
  | Proto.Barrier_arrive { barrier; node; req; pts } ->
      let home = Roles.barrier_home t.roles in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else begin
        match Roles.arrive t.roles ~id:barrier (node, req, pts) with
        | [] -> ()
        | departs ->
            (* Departures jump every node to the epoch's maximum
               timestamp, so leases on anything written before the
               barrier are already spent on the far side. *)
            let ts =
              List.fold_left (fun m (_, _, pts) -> max m pts) 0 departs
            in
            List.iter
              (fun (dst, dreq, _) ->
                deliver t fiber ~src:nd.id ~dst
                  (Proto.Barrier_depart { barrier; req = dreq; ts }))
              departs
      end
  | Proto.Read_grant { req; _ } | Proto.Write_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      Node.route nd.rt ~req body ~at:(Engine.clock fiber)

let serve t fiber id (env : Proto.t Msg.envelope) =
  Node.serve_step t.nodes.(id).rt fiber (overhead t)
    ~reply:(Proto.is_reply env.body);
  dispatch t fiber t.nodes.(id) ~src:env.src env.body

let start t =
  Reliable.start t.net;
  Node.spawn_handlers t.eng t.net ~engine:"tardis" ~nodes:t.n_nodes
    (fun fiber id env -> serve t fiber id env)

let retx_note t = Reliable.pending_note t.net

(* ---------------- application-facing operations -------------------- *)

let satisfied nd page ~write =
  match nd.access.(page) with
  | Texclusive -> true
  | Tshared -> (not write) && nd.pts <= nd.lease.(page)
  | Tinvalid -> false

let fault t fiber nd page ~write =
  Node.sync nd.rt fiber;
  while (not (satisfied nd page ~write)) && Node.wait_fetch nd.rt fiber page do
    ()
  done;
  if not (satisfied nd page ~write) then
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  begin
    let wq = Node.begin_fetch nd.rt page in
    Counters.incr t.counters
      (if write then "tardis.write_faults" else "tardis.read_faults");
    Engine.instant fiber "tardis.fault";
    Engine.advance fiber (overhead t).handler;
    let req = Node.fresh nd.rt in
    let mb = Node.register nd.rt req in
    let mgr = Home.manager t.home page in
    let have_wts = if nd.access.(page) = Tinvalid then -1 else nd.wts.(page) in
    let body =
      if write then
        Proto.Write_req { page; requester = nd.id; req; pts = nd.pts; have_wts }
      else
        Proto.Read_req { page; requester = nd.id; req; pts = nd.pts; have_wts }
    in
    deliver t fiber ~src:nd.id ~dst:mgr body;
    (match Node.await fiber Engine.Net_wait mb with
    | Proto.Read_grant { wts; lease; data; _ } ->
        (match data with
        | Some d ->
            install_page t fiber nd page ~wts d;
            Counters.incr t.counters "tardis.page_fetches"
        | None ->
            nd.wts.(page) <- wts;
            Counters.incr t.counters "tardis.renewals");
        set_access nd page Tshared;
        nd.lease.(page) <- lease;
        (* Load rule: reading version [wts] moves logical time to it. *)
        if wts > nd.pts then nd.pts <- wts
    | Proto.Write_grant { ts; data; _ } ->
        (match data with
        | Some d ->
            install_page t fiber nd page ~wts:ts d;
            Counters.incr t.counters "tardis.page_fetches"
        | None ->
            nd.wts.(page) <- ts;
            Counters.incr t.counters "tardis.upgrades");
        set_access nd page Texclusive;
        nd.lease.(page) <- ts;
        if ts > nd.pts then nd.pts <- ts
    | _ -> failwith "tardis: unexpected fault response");
    deliver t fiber ~src:nd.id ~dst:mgr
      (Proto.Txn_done { page; requester = nd.id });
    Node.finish nd.rt req;
    Node.end_fetch nd.rt fiber page wq
  end

(* A Shared hit still executes the load rule: the version's [wts] drags
   [pts] forward (a free register update — the guard was reached anyway
   because Shared pages keep rights '\000'). *)
let[@inline] read_page t nd fiber page =
  while not (satisfied nd page ~write:false) do
    fault t fiber nd page ~write:false
  done;
  if nd.wts.(page) > nd.pts then nd.pts <- nd.wts.(page)

let[@inline] write_page t nd fiber page =
  while nd.access.(page) <> Texclusive do
    fault t fiber nd page ~write:true
  done

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then read_page t t.nodes.(node) fiber (page_of t addr)

let write_guard t fiber ~node addr =
  if t.n_nodes > 1 then write_page t t.nodes.(node) fiber (page_of t addr)

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
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  deliver t fiber ~src:node ~dst:(Roles.lock_home t.roles lock)
    (Proto.Lock_req { lock; requester = node; req });
  (match Node.await fiber Engine.Lock_wait mb with
  | Proto.Lock_grant { ts; _ } ->
      (* Synchronize logical time with the previous holder, so leases on
         everything it wrote are expired from here on. *)
      if ts > nd.pts then nd.pts <- ts
  | _ -> failwith "tardis: unexpected lock response");
  Node.finish nd.rt req;
  Counters.incr t.counters "tardis.lock_acquires"

let release t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:node ~dst:(Roles.lock_home t.roles lock)
        (Proto.Unlock { lock; requester = node; pts = nd.pts }))

let barrier_arrive t fiber ~node ~id =
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  deliver t fiber ~src:node ~dst:(Roles.barrier_home t.roles)
    (Proto.Barrier_arrive { barrier = id; node; req; pts = nd.pts });
  (match Node.await fiber Engine.Barrier_wait mb with
  | Proto.Barrier_depart { ts; _ } -> if ts > nd.pts then nd.pts <- ts
  | _ -> failwith "tardis: unexpected barrier response");
  Node.finish nd.rt req

let check_invariants t =
  Home.check_drained t.home;
  for page = 0 to t.n_pages - 1 do
    let mp = Home.page t.home page in
    if mp.m_rts < mp.m_wts then
      failwith
        (Printf.sprintf "tardis: page %d rts %d below wts %d" page mp.m_rts
           mp.m_wts);
    Array.iter
      (fun nd ->
        (match nd.access.(page) with
        | Texclusive ->
            if mp.owner <> Some nd.id then
              failwith
                (Printf.sprintf "tardis: page %d exclusive at %d, owner %s"
                   page nd.id
                   (match mp.owner with
                   | Some o -> string_of_int o
                   | None -> "none"))
        | Tshared | Tinvalid ->
            if mp.owner = Some nd.id then
              failwith
                (Printf.sprintf "tardis: page %d owner %d holds a %s copy"
                   page nd.id
                   (access_name nd.access.(page))));
        if nd.wts.(page) > mp.m_wts then
          failwith
            (Printf.sprintf "tardis: page %d copy at %d newer than home" page
               nd.id);
        if nd.lease.(page) > mp.m_rts then
          failwith
            (Printf.sprintf "tardis: page %d lease at %d beyond home rts" page
               nd.id))
      t.nodes
  done
