module Engine = Shm_sim.Engine
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Node = Shm_dsm.Node
module Home = Shm_dsm.Home
module Paged = Shm_dsm.Paged

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
   owner.  The rest is the page-DSM shell all three software engines
   share ({!Shm_dsm.Paged}: the node and system records, the guards,
   the fault shell, start-up) and its home-based half Tardis shares with
   IVY: messaging through {!Shm_net.Reliable} (so the engine runs under
   fault injection), the transaction serializer and the lock manager
   ({!Shm_dsm.Home}, the lock stamped with release timestamps), lock
   placement and the counting barrier ({!Shm_dsm.Roles}, arrivals
   carrying the nodes' timestamps), the fault's request/await/done
   middle and the synchronization clients.  This file keeps the
   protocol: its page messages, the home's state machine, the lease rule
   and the [pts] bumps, handed over as a [Paged.protocol] and a
   [Paged.home_protocol] record.  Every protocol decision depends only
   on logical timestamps carried in messages, never on arrival times. *)

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

(* A node's page state.  Its rights bytes read ['\002'] for Exclusive
   (guards skippable) and ['\000'] otherwise: a Shared copy's
   readability depends on [pts <= lease], which changes at
   synchronization, so Shared reads must always reach the guard (a hit
   is free there). *)
type tnode = {
  access : page_access array;
  wts : int array;  (** version timestamp of the local copy, per page *)
  lease : int array;  (** local copy readable while [pts <= lease] *)
  mutable pts : int;  (** the node's program timestamp *)
}

type t = (Proto.t, tnode, pending_txn, mpage) Paged.homed
type node = (Proto.t, tnode) Paged.node

(* Every access transition goes through here so the rights byte never
   drifts. *)
let set_access (nd : node) page (a : page_access) =
  nd.x.access.(page) <- a;
  Bytes.unsafe_set nd.rights page
    (match a with Texclusive -> '\002' | Tshared | Tinvalid -> '\000')

(* Logical time only moves forward: to a version read, a grant, or the
   time a lock grant or a barrier departure carries, so leases on
   everything written before it are expired from here on. *)
let synchronize x ts = if ts > x.pts then x.pts <- ts

(* Replace a page's contents with version [wts].  The local access kind
   is the caller's business; the version stamp is not, so it updates
   here and the platform's cache hook always fires. *)
let install t fiber (nd : node) page ~wts data =
  nd.x.wts.(page) <- wts;
  Paged.install_page t fiber nd page data

(* ---------------- manager-side page state machine ------------------ *)

let rec mgr_start_txn (t : t) fiber mgr page (txn : pending_txn) =
  let mp = Home.page t.s.home page in
  match mp.owner with
  | Some o when o <> txn.requester ->
      Paged.deliver t fiber ~src:mgr ~dst:o
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
                 txn.req mp.m_wts mp.m_rts (Home.busy t.s.home page)
                 (Home.queued t.s.home page);
           })
  | None -> mgr_grant t fiber mgr page

and mgr_grant t fiber mgr page =
  let mp = Home.page t.s.home page in
  match Home.current t.s.home page with
  | Some { write; requester; req; pts; have_wts } ->
      (* With no owner, the home copy is the current version, so grants
         are served from the manager's own memory — unless the requester
         already holds it, which makes renewals and upgrades two-word
         messages. *)
      let current = mp.m_wts in
      let fresh () =
        if have_wts = current then None
        else begin
          Engine.advance fiber Memory.page_words;
          Some (Node.page_data t.nodes.(mgr).mem page)
        end
      in
      if write then begin
        let ts = Int.max (mp.m_rts + 1) pts in
        let data = fresh () in
        mp.m_wts <- ts;
        mp.m_rts <- ts;
        mp.owner <- Some requester;
        Paged.deliver t fiber ~src:mgr ~dst:requester
          (Proto.Write_grant { page; req; ts; data })
      end
      else begin
        let lease = Int.max mp.m_rts (pts + lease_span) in
        let data = fresh () in
        mp.m_rts <- lease;
        Paged.deliver t fiber ~src:mgr ~dst:requester
          (Proto.Read_grant { page; req; wts = current; lease; data })
      end
  | None -> failwith "tardis: grant without transaction"

(* ---------------- message dispatch --------------------------------- *)

let dispatch (t : t) fiber (nd : node) body =
  match body with
  | Proto.Read_req { page; requester; req; pts; have_wts } ->
      let txn = { write = false; requester; req; pts; have_wts } in
      if Home.request t.s.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Write_req { page; requester; req; pts; have_wts } ->
      let txn = { write = true; requester; req; pts; have_wts } in
      if Home.request t.s.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Flush_req { page; req; drop } ->
      (* We are the owner: ship the latest contents back to the home
         manager and give up exclusivity.  The copy we keep (unless
         dropped) is the current version, already stamped [wts]. *)
      if nd.x.access.(page) <> Texclusive then
        raise
          (Proto_error
             {
               page;
               requester = nd.id;
               manager = Home.manager t.s.home page;
               state =
                 Printf.sprintf "flush of a %s copy (req %d)"
                   (access_name nd.x.access.(page))
                   req;
             });
      set_access nd page (if drop then Tinvalid else Tshared);
      Engine.advance fiber Memory.page_words;
      Paged.deliver t fiber ~src:nd.id ~dst:(Home.manager t.s.home page)
        (Proto.Flush_resp { page; req; data = Node.page_data nd.mem page });
      Counters.incr t.counters "tardis.flushes"
  | Proto.Flush_resp { page; data; _ } ->
      (* We are the manager: refresh the home copy and serve the waiting
         transaction from it.  The home has leased this version up to
         [m_rts] and any later write takes a timestamp above that, so
         its own copy is leased as far. *)
      let mp = Home.page t.s.home page in
      install t fiber nd page ~wts:mp.m_wts data;
      nd.x.lease.(page) <- Int.max nd.x.lease.(page) mp.m_rts;
      mp.owner <- None;
      mgr_grant t fiber nd.id page
  | Proto.Txn_done { page; _ } -> (
      match Home.txn_done t.s.home page with
      | Some txn -> mgr_start_txn t fiber nd.id page txn
      | None -> ())
  | Proto.Lock_req { lock; requester; req } ->
      Paged.serve_lock_req t fiber nd body ~lock ~requester ~req
  | Proto.Unlock { lock; pts; _ } ->
      Paged.serve_unlock t fiber nd body ~lock ~stamp:pts
  | Proto.Barrier_arrive { barrier; node; req; pts } ->
      Paged.serve_arrival t fiber nd body ~barrier ~node ~req ~stamp:pts
  | Proto.Read_grant { req; _ } | Proto.Write_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      Paged.reply nd fiber ~req body

(* A fault's reply: a leased read copy or exclusive ownership, with the
   data unless the requester already holds the version. *)
(* A grant of version [wts] readable until [lease], with the data unless
   the requester already held that version ([held] counts those). *)
let granted t fiber (nd : node) page access ~wts ~lease data ~held =
  (match data with
  | Some d ->
      install t fiber nd page ~wts d;
      Counters.incr t.counters "tardis.page_fetches"
  | None ->
      nd.x.wts.(page) <- wts;
      Counters.incr t.counters held);
  set_access nd page access;
  nd.x.lease.(page) <- lease;
  (* Load rule: reading version [wts] moves logical time to it. *)
  synchronize nd.x wts

let complete t fiber nd page = function
  | Proto.Read_grant { wts; lease; data; _ } ->
      granted t fiber nd page Tshared ~wts ~lease data ~held:"tardis.renewals"
  | Proto.Write_grant { ts; data; _ } ->
      granted t fiber nd page Texclusive ~wts:ts ~lease:ts data
        ~held:"tardis.upgrades"
  | _ -> failwith "tardis: unexpected fault response"

(* One exclusive holder per page, the owner; no copy newer than the
   home's version or leased beyond its highest lease; every shared copy
   leased at least to its own version ([wts <= lease]). *)
let check (t : t) =
  Home.check_drained t.s.home;
  for page = 0 to t.n_pages - 1 do
    let mp = Home.page t.s.home page in
    if mp.m_rts < mp.m_wts then
      failwith
        (Printf.sprintf "tardis: page %d rts %d below wts %d" page mp.m_rts
           mp.m_wts);
    Array.iter
      (fun (nd : node) ->
        (match nd.x.access.(page) with
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
                   (access_name nd.x.access.(page))));
        if nd.x.wts.(page) > mp.m_wts then
          failwith
            (Printf.sprintf "tardis: page %d copy at %d newer than home" page
               nd.id);
        if nd.x.lease.(page) > mp.m_rts then
          failwith
            (Printf.sprintf "tardis: page %d lease at %d beyond home rts" page
               nd.id);
        if nd.x.access.(page) = Tshared && nd.x.wts.(page) > nd.x.lease.(page)
        then
          failwith
            (Printf.sprintf "tardis: page %d copy at %d wts %d above its lease %d"
               page nd.id nd.x.wts.(page) nd.x.lease.(page)))
      t.nodes
  done

let satisfied (nd : node) page ~write =
  match nd.x.access.(page) with
  | Texclusive -> true
  | Tshared -> (not write) && nd.x.pts <= nd.x.lease.(page)
  | Tinvalid -> false

let home : (_, _, _, _) Paged.home_protocol =
  {
    sizes = Proto.sizes;
    is_reply = Proto.is_reply;
    dispatch;
    page_req =
      (fun nd page ~write ~req ->
        let x = nd.x in
        let have_wts =
          if x.access.(page) = Tinvalid then -1 else x.wts.(page)
        in
        if write then
          Proto.Write_req
            { page; requester = nd.id; req; pts = x.pts; have_wts }
        else
          Proto.Read_req { page; requester = nd.id; req; pts = x.pts; have_wts });
    complete;
    txn_done = (fun ~page ~requester ~write:_ -> Proto.Txn_done { page; requester });
    lock_req =
      (fun ~lock ~requester ~req -> Proto.Lock_req { lock; requester; req });
    lock_grant =
      (fun ~lock ~req ~stamp -> Proto.Lock_grant { lock; req; ts = stamp });
    unlock =
      (fun x ~lock ~requester -> Proto.Unlock { lock; requester; pts = x.pts });
    arrival =
      (fun x ~barrier ~node ~req ->
        Proto.Barrier_arrive { barrier; node; req; pts = x.pts });
    (* Departures jump every node to the epoch's maximum timestamp, so
       leases on anything written before the barrier are already spent
       on the far side. *)
    departure =
      (fun ~barrier ~req ~stamp ->
        Proto.Barrier_depart { barrier; req; ts = stamp });
    synced =
      (fun x -> function
        | Proto.Lock_grant { ts; _ } | Proto.Barrier_depart { ts; _ } ->
            synchronize x ts
        | _ -> failwith "tardis: unexpected synchronization response");
  }

(* The shell's view of the protocol: the page predicates and recovery
   moves above, the home-based helpers for the rest. *)
let protocol : (_, _, _) Paged.protocol =
  {
    engine = "tardis";
    read_fault = "tardis.read_faults";
    write_fault = "tardis.write_faults";
    satisfied;
    (* A Shared hit still executes the load rule: the version's [wts]
       drags [pts] forward (a free register update — the guard was
       reached anyway because Shared pages keep rights '\000'). *)
    read_hit = (fun nd page -> synchronize nd.x nd.x.wts.(page));
    write_hit = (fun _ _ _ _ -> ());
    fetch = Paged.fetch;
    serve = Paged.serve;
    acquire = Paged.acquire;
    release = Paged.release;
    barrier_arrive = Paged.barrier_arrive;
    checkpoint = (fun _ _ _ -> ());
    rehome = Paged.rehome;
    rejoin = (fun _ _ _ -> ());
    check;
  }

(* pts starts at 0 and every initial copy is version 0 with a lease of
   0, so the warm start costs nothing: first reads hit, the first write
   of a page mints version >= 1. *)
let create eng counters fabric ~shared_words ~memories =
  Paged.create_home protocol home eng counters fabric ~shared_words ~memories
    ~rights:'\000'
    ~x:(fun n_pages ->
      {
        access = Array.make n_pages Tshared;
        wts = Array.make n_pages 0;
        lease = Array.make n_pages 0;
        pts = 0;
      })
    ~mpage:(fun _ -> { owner = None; m_wts = 0; m_rts = 0 })
