module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Waitq = Shm_sim.Waitq
module Fabric = Shm_net.Fabric
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters

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
   owner, and serializes transactions per page exactly like the IVY
   manager (busy flag + queue).  All messaging goes through
   {!Shm_net.Reliable}, so the engine runs under fault injection; every
   protocol decision depends only on logical timestamps carried in
   messages, never on arrival times. *)

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

exception
  Proto_error of {
    page : int;
    requester : int;
    manager : int;
    state : string;
  }

let () =
  Printexc.register_printer (function
    | Proto_error { page; requester; manager; state } ->
        Some
          (Printf.sprintf
             "Tardis.Proto_error: page %d, requester %d, manager %d: %s" page
             requester manager state)
    | _ -> None)

(* Manager-side record for a page it is home for. *)
type mpage = {
  mutable owner : int option;
  mutable m_wts : int;  (** timestamp of the current version *)
  mutable m_rts : int;  (** highest lease handed out; >= m_wts *)
  mutable busy : bool;
  mutable current : pending_txn option;
  waiting : pending_txn Queue.t;
}

type mlock = {
  mutable held : bool;
  mutable lts : int;  (** timestamp of the last release *)
  lock_waiters : (int * int) Queue.t;
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
  mpages : (int, mpage) Hashtbl.t;  (** pages this node is home for *)
  mlocks : (int, mlock) Hashtbl.t;  (** locks this node manages *)
  pending_reqs : (int, Proto.t Mailbox.t) Hashtbl.t;
  mutable next_req : int;
  inflight : (int, Waitq.t) Hashtbl.t;
  steal : int ref;
}

type barrier_state = {
  mutable arrivals : (int * int) list;
  mutable arrived : int;  (** [List.length arrivals] *)
  mutable high : int;  (** max pts over arrivals so far *)
}

type t = {
  eng : Engine.t;
  counters : Counters.t;
  net : Proto.t Reliable.t;
  page_words : int;
  n_pages : int;
  n_nodes : int;
  nodes : node array;
  barriers : barrier_state array;
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

let manager_of t page = page mod t.n_nodes

let lock_manager_of t lock = lock mod t.n_nodes

let overhead t = (Fabric.config (Reliable.fabric t.net)).Fabric.overhead

let create eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  let mk_node id =
    let mpages = Hashtbl.create 64 in
    for p = 0 to n_pages - 1 do
      if p mod n_nodes = id then
        Hashtbl.add mpages p
          {
            owner = None;
            m_wts = 0;
            m_rts = 0;
            busy = false;
            current = None;
            waiting = Queue.create ();
          }
    done;
    {
      id;
      mem = memories.(id);
      access = Array.make n_pages Tshared;
      (* pts starts at 0 and every initial copy is version 0 with a
         lease of 0, so the warm start costs nothing: first reads hit,
         the first write of a page mints version >= 1. *)
      rights = Bytes.make n_pages (if n_nodes = 1 then '\002' else '\000');
      wts = Array.make n_pages 0;
      lease = Array.make n_pages 0;
      pts = 0;
      mpages;
      mlocks = Hashtbl.create 16;
      pending_reqs = Hashtbl.create 16;
      next_req = 0;
      inflight = Hashtbl.create 8;
      steal = ref 0;
    }
  in
  {
    eng;
    counters;
    net = Reliable.create eng counters fabric;
    page_words;
    n_pages;
    n_nodes;
    nodes = Array.init n_nodes mk_node;
    barriers =
      Array.init 16 (fun _ -> { arrivals = []; arrived = 0; high = 0 });
    page_shift =
      (if page_words > 0 && page_words land (page_words - 1) = 0 then
         let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
         go 0 page_words
       else -1);
    page_hook = (fun ~node:_ ~page:_ -> ());
  }

let fresh_req nd =
  let r = nd.next_req in
  nd.next_req <- r + 1;
  r

let register_req t nd req =
  let mb = Mailbox.create t.eng in
  Hashtbl.replace nd.pending_reqs req mb;
  mb

let drain_steal fiber nd =
  let s = !(nd.steal) in
  if s > 0 then begin
    nd.steal := 0;
    (* Handler CPU time charged to the application is protocol overhead. *)
    Engine.with_category fiber Engine.Protocol (fun () ->
        Engine.advance fiber s)
  end

(* A page payload is a malloc'd copy outside the OCaml heap: a page
   transfer allocates no boxed words and leaves the major heap alone. *)
let page_data t nd page =
  let data = Memory.create ~words:t.page_words in
  Memory.blit ~src:nd.mem ~src_pos:(page * t.page_words) ~dst:data ~dst_pos:0
    ~len:t.page_words;
  data

(* Replace a page's contents with version [wts].  The local access kind
   is the caller's business; the version stamp is not, so it updates
   here and the platform's cache hook always fires. *)
let install_page t fiber nd page ~wts data =
  Memory.blit ~src:data ~src_pos:0 ~dst:nd.mem ~dst_pos:(page * t.page_words)
    ~len:t.page_words;
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
  let mp = Hashtbl.find mgr.mpages page in
  mp.busy <- true;
  mp.current <- Some txn;
  match mp.owner with
  | Some o when o <> txn.requester ->
      deliver t fiber ~src:mgr.id ~dst:o
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
             manager = mgr.id;
             state =
               Printf.sprintf
                 "%s transaction (req %d) from the exclusive owner; manager \
                  state: wts=%d rts=%d busy=%b queued=%d"
                 (if txn.write then "write" else "read")
                 txn.req mp.m_wts mp.m_rts mp.busy
                 (Queue.length mp.waiting);
           })
  | None -> mgr_grant t fiber mgr page

and mgr_grant t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  match mp.current with
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
          Some (page_data t mgr page)
        end
      in
      if write then begin
        let ts = max (mp.m_rts + 1) pts in
        let data = fresh () in
        mp.m_wts <- ts;
        mp.m_rts <- ts;
        mp.owner <- Some requester;
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Write_grant { page; req; ts; data })
      end
      else begin
        let lease = max mp.m_rts (pts + lease_span) in
        let data = fresh () in
        mp.m_rts <- lease;
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Read_grant { page; req; wts = current; lease; data })
      end
  | None -> failwith "tardis: grant without transaction"

and mgr_request t fiber mgr page txn =
  let mp = Hashtbl.find mgr.mpages page in
  if mp.busy then Queue.push txn mp.waiting
  else mgr_start_txn t fiber mgr page txn

and mgr_txn_done t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  mp.busy <- false;
  mp.current <- None;
  match Queue.take_opt mp.waiting with
  | Some txn -> mgr_start_txn t fiber mgr page txn
  | None -> ()

(* ---------------- lock manager ------------------------------------- *)

and mgr_lock_req t fiber mgr ~lock ~requester ~req =
  let ml =
    match Hashtbl.find_opt mgr.mlocks lock with
    | Some ml -> ml
    | None ->
        let ml = { held = false; lts = 0; lock_waiters = Queue.create () } in
        Hashtbl.add mgr.mlocks lock ml;
        ml
  in
  if ml.held then Queue.push (requester, req) ml.lock_waiters
  else begin
    ml.held <- true;
    deliver t fiber ~src:mgr.id ~dst:requester
      (Proto.Lock_grant { lock; req; ts = ml.lts })
  end

and mgr_unlock t fiber mgr ~lock ~pts =
  let ml = Hashtbl.find mgr.mlocks lock in
  if pts > ml.lts then ml.lts <- pts;
  match Queue.take_opt ml.lock_waiters with
  | Some (requester, req) ->
      deliver t fiber ~src:mgr.id ~dst:requester
        (Proto.Lock_grant { lock; req; ts = ml.lts })
  | None -> ml.held <- false

(* ---------------- barrier manager ---------------------------------- *)

and mgr_barrier_arrive t fiber mgr ~id ~node ~req ~pts =
  let b = t.barriers.(id) in
  b.arrivals <- (node, req) :: b.arrivals;
  b.arrived <- b.arrived + 1;
  if pts > b.high then b.high <- pts;
  if b.arrived = t.n_nodes then begin
    let arrivals = b.arrivals in
    let ts = b.high in
    b.arrivals <- [];
    b.arrived <- 0;
    (* Departures jump every node to the epoch's maximum timestamp, so
       leases on anything written before the barrier are already spent
       on the far side. *)
    List.iter
      (fun (dst, dreq) ->
        deliver t fiber ~src:mgr.id ~dst
          (Proto.Barrier_depart { barrier = id; req = dreq; ts }))
      arrivals;
    Counters.incr t.counters "tardis.barriers"
  end

(* ---------------- message dispatch --------------------------------- *)

and route_response nd ~req body ~at =
  match Hashtbl.find_opt nd.pending_reqs req with
  | Some mb -> Mailbox.post mb ~at body
  | None -> failwith "tardis: response without pending request"

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req; pts; have_wts } ->
      mgr_request t fiber nd page
        { write = false; requester; req; pts; have_wts }
  | Proto.Write_req { page; requester; req; pts; have_wts } ->
      mgr_request t fiber nd page
        { write = true; requester; req; pts; have_wts }
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
               manager = manager_of t page;
               state =
                 Printf.sprintf "flush of a %s copy (req %d)"
                   (access_name nd.access.(page))
                   req;
             });
      set_access nd page (if drop then Tinvalid else Tshared);
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:(manager_of t page)
        (Proto.Flush_resp { page; req; data = page_data t nd page });
      Counters.incr t.counters "tardis.flushes"
  | Proto.Flush_resp { page; data; _ } ->
      (* We are the manager: refresh the home copy and serve the waiting
         transaction from it. *)
      let mp = Hashtbl.find nd.mpages page in
      install_page t fiber nd page ~wts:mp.m_wts data;
      mp.owner <- None;
      mgr_grant t fiber nd page
  | Proto.Txn_done { page; _ } -> mgr_txn_done t fiber nd page
  | Proto.Lock_req { lock; requester; req } ->
      mgr_lock_req t fiber nd ~lock ~requester ~req
  | Proto.Unlock { lock; requester; pts } ->
      ignore requester;
      mgr_unlock t fiber nd ~lock ~pts
  | Proto.Barrier_arrive { barrier; node; req; pts } ->
      mgr_barrier_arrive t fiber nd ~id:barrier ~node ~req ~pts
  | Proto.Read_grant { req; _ } | Proto.Write_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      route_response nd ~req body ~at:(Engine.clock fiber)

let handler_loop t nd fiber =
  let ov = overhead t in
  let rec loop () =
    let env =
      Engine.with_category fiber Engine.Net_wait (fun () ->
          Reliable.recv t.net fiber ~node:nd.id)
    in
    Engine.with_category fiber Engine.Protocol (fun () ->
        Engine.advance fiber ov.handler;
        (* CPU time spent serving: charged back to the application unless
           the message completes one of its own waits. *)
        (match env.Msg.body with
        | Proto.Read_grant _ | Proto.Write_grant _ | Proto.Lock_grant _
        | Proto.Barrier_depart _ ->
            ()
        | _ -> nd.steal := !(nd.steal) + ov.handler + ov.fixed_recv);
        dispatch t fiber nd ~src:env.Msg.src env.Msg.body);
    loop ()
  in
  loop ()

let start t =
  Reliable.start t.net;
  Array.iter
    (fun nd ->
      ignore
        (Engine.spawn t.eng ~daemon:true
           ~name:(Printf.sprintf "tardis-handler-%d" nd.id)
           ~at:0
           (fun fiber -> handler_loop t nd fiber)))
    t.nodes

let retx_note t = Reliable.pending_note t.net

(* ---------------- application-facing operations -------------------- *)

let fault t fiber nd page ~write =
  Engine.sync fiber;
  drain_steal fiber nd;
  let satisfied () =
    match nd.access.(page) with
    | Texclusive -> true
    | Tshared -> (not write) && nd.pts <= nd.lease.(page)
    | Tinvalid -> false
  in
  let rec wait_turn () =
    match Hashtbl.find_opt nd.inflight page with
    | Some wq when not (satisfied ()) ->
        (* Another co-located processor is fetching this page. *)
        Engine.with_category fiber Engine.Net_wait (fun () ->
            Waitq.wait fiber wq);
        wait_turn ()
    | Some _ | None -> ()
  in
  wait_turn ();
  if not (satisfied ()) then
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  begin
    let wq = Waitq.create t.eng in
    Hashtbl.replace nd.inflight page wq;
    Counters.incr t.counters
      (if write then "tardis.write_faults" else "tardis.read_faults");
    Engine.instant fiber "tardis.fault";
    Engine.advance fiber (overhead t).handler;
    let req = fresh_req nd in
    let mb = register_req t nd req in
    let mgr = manager_of t page in
    let have_wts = if nd.access.(page) = Tinvalid then -1 else nd.wts.(page) in
    let body =
      if write then
        Proto.Write_req { page; requester = nd.id; req; pts = nd.pts; have_wts }
      else
        Proto.Read_req { page; requester = nd.id; req; pts = nd.pts; have_wts }
    in
    deliver t fiber ~src:nd.id ~dst:mgr body;
    (match
       Engine.with_category fiber Engine.Net_wait (fun () ->
           Mailbox.recv fiber mb)
     with
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
    Hashtbl.remove nd.pending_reqs req;
    Hashtbl.remove nd.inflight page;
    ignore (Waitq.wake_all wq ~at:(Engine.clock fiber))
  end

(* A Shared hit still executes the load rule: the version's [wts] drags
   [pts] forward (a free register update — the guard was reached anyway
   because Shared pages keep rights '\000'). *)
let[@inline] note_read nd page =
  if nd.wts.(page) > nd.pts then nd.pts <- nd.wts.(page)

let readable nd page =
  match nd.access.(page) with
  | Texclusive -> true
  | Tshared -> nd.pts <= nd.lease.(page)
  | Tinvalid -> false

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then begin
    let nd = t.nodes.(node) in
    let page = page_of t addr in
    while not (readable nd page) do
      fault t fiber nd page ~write:false
    done;
    note_read nd page
  end

let write_guard t fiber ~node addr =
  if t.n_nodes > 1 then begin
    let nd = t.nodes.(node) in
    let page = page_of t addr in
    while nd.access.(page) <> Texclusive do
      fault t fiber nd page ~write:true
    done
  end

(* Range guards: one guard per overlapped page, in address order, handing
   each in-page run to [f run_addr run_words] right after its guard —
   observably identical to the per-word loop.  [f] must not yield. *)

let read_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else begin
    let nd = t.nodes.(node) in
    let pw = t.page_words in
    let stop = addr + words in
    let a = ref addr in
    while !a < stop do
      let page = page_of t !a in
      let run = min ((page + 1) * pw) stop - !a in
      while not (readable nd page) do
        fault t fiber nd page ~write:false
      done;
      note_read nd page;
      f !a run;
      a := !a + run
    done
  end

let write_range_guard t fiber ~node addr words ~f =
  if t.n_nodes = 1 then f addr words
  else begin
    let nd = t.nodes.(node) in
    let pw = t.page_words in
    let stop = addr + words in
    let a = ref addr in
    while !a < stop do
      let page = page_of t !a in
      let run = min ((page + 1) * pw) stop - !a in
      while nd.access.(page) <> Texclusive do
        fault t fiber nd page ~write:true
      done;
      f !a run;
      a := !a + run
    done
  end

let acquire t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = fresh_req nd in
  let mb = register_req t nd req in
  deliver t fiber ~src:nd.id
    ~dst:(lock_manager_of t lock)
    (Proto.Lock_req { lock; requester = nd.id; req });
  (match
     Engine.with_category fiber Engine.Lock_wait (fun () ->
         Mailbox.recv fiber mb)
   with
  | Proto.Lock_grant { ts; _ } ->
      (* Synchronize logical time with the previous holder, so leases on
         everything it wrote are expired from here on. *)
      if ts > nd.pts then nd.pts <- ts
  | _ -> failwith "tardis: unexpected lock response");
  Hashtbl.remove nd.pending_reqs req;
  Counters.incr t.counters "tardis.lock_acquires"

let release t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:nd.id
        ~dst:(lock_manager_of t lock)
        (Proto.Unlock { lock; requester = nd.id; pts = nd.pts }))

let barrier_arrive t fiber ~node ~id =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = fresh_req nd in
  let mb = register_req t nd req in
  deliver t fiber ~src:nd.id ~dst:0
    (Proto.Barrier_arrive { barrier = id; node = nd.id; req; pts = nd.pts });
  (match
     Engine.with_category fiber Engine.Barrier_wait (fun () ->
         Mailbox.recv fiber mb)
   with
  | Proto.Barrier_depart { ts; _ } -> if ts > nd.pts then nd.pts <- ts
  | _ -> failwith "tardis: unexpected barrier response");
  Hashtbl.remove nd.pending_reqs req

let check_invariants t =
  for page = 0 to t.n_pages - 1 do
    let mgr = t.nodes.(manager_of t page) in
    let mp = Hashtbl.find mgr.mpages page in
    if mp.busy then
      failwith (Printf.sprintf "tardis: page %d transaction never drained" page);
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
