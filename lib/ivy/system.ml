module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Waitq = Shm_sim.Waitq
module Fabric = Shm_net.Fabric
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Lifecycle = Shm_sim.Lifecycle
module Iset = Set.Make (Int)

type page_access = Invalid | Read | Write

let access_name = function
  | Invalid -> "Invalid"
  | Read -> "Read"
  | Write -> "Write"

type pending_txn = { kind : page_access; requester : int; req : int }

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
             "Ivy.Proto_error: page %d, requester %d, manager %d: %s" page
             requester manager state)
    | _ -> None)

(* Manager-side record for a page it manages. *)
type mpage = {
  mutable owner : int;
  mutable copyset : Iset.t;
  mutable busy : bool;
  mutable acks_waited : int;
  mutable current : pending_txn option;
  waiting : pending_txn Queue.t;
}

type mlock = { mutable held : bool; lock_waiters : (int * int) Queue.t }

type recov = {
  image : Memory.t;
      (** failure-atomic checkpoint image; page-granular for IVY (whole
          pages move, so whole pages checkpoint — contrast the TreadMarks
          sub-page run-length deltas) *)
  ckpt_dirty : Bytes.t;  (** pages touched since the last checkpoint *)
}

type node = {
  id : int;
  mem : Memory.t;
  access : page_access array;
  rights : Bytes.t;
      (** software TLB mirroring [access]: ['\000'] Invalid, ['\001'] Read,
          ['\002'] Write — consulted by the platforms' fast paths. *)
  mpages : (int, mpage) Hashtbl.t;  (** pages this node manages *)
  mlocks : (int, mlock) Hashtbl.t;  (** locks this node manages *)
  pending_reqs : (int, Proto.t Mailbox.t) Hashtbl.t;
  mutable next_req : int;
  inflight : (int, Waitq.t) Hashtbl.t;
  steal : int ref;
  mutable recov : recov option;  (** checkpoint state; [None] = crash-free *)
}

type barrier_state = {
  mutable arrivals : (int * int) list;
  mutable arrived : int;  (** [List.length arrivals] *)
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
  lock_home : (int, int) Hashtbl.t;
      (** re-homed lock managers; empty (fall through to the static
          [lock mod n_nodes] mapping) until a crash moves one *)
  mutable barrier_home : int;  (** current barrier manager; starts at 0 *)
  lifecycle : Lifecycle.t option;
}

let page_of t addr =
  if t.page_shift >= 0 then addr lsr t.page_shift else addr / t.page_words

let page_shift t = t.page_shift

let access_rights t ~node = t.nodes.(node).rights

(* Every [access] transition goes through here so the TLB mirror never
   drifts.  A transition to [Write] marks the page for the next
   checkpoint: once writable, the application mutates it with no further
   protocol event. *)
let set_access nd page (a : page_access) =
  nd.access.(page) <- a;
  (match nd.recov with
  | Some rv when a = Write -> Bytes.unsafe_set rv.ckpt_dirty page '\001'
  | Some _ | None -> ());
  Bytes.unsafe_set nd.rights page
    (match a with Invalid -> '\000' | Read -> '\001' | Write -> '\002')

let memory t ~node = t.nodes.(node).mem

let set_page_hook t f = t.page_hook <- f

let manager_of t page = page mod t.n_nodes

(* The page directory is deliberately NOT re-homed on a crash: requests
   to a down manager stall in the senders' retransmit queues until it
   restarts (a documented deviation — see DESIGN.md §13).  Locks and the
   barrier do re-home, through the overrides below. *)
let lock_manager_of t lock =
  match Hashtbl.find_opt t.lock_home lock with
  | Some home -> home
  | None -> lock mod t.n_nodes

let overhead t = (Fabric.config (Reliable.fabric t.net)).Fabric.overhead

let create ?lifecycle eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  let mk_node id =
    let mpages = Hashtbl.create 64 in
    for p = 0 to n_pages - 1 do
      if p mod n_nodes = id then
        Hashtbl.add mpages p
          {
            owner = id;
            copyset = Iset.of_list (List.init n_nodes Fun.id);
            busy = false;
            acks_waited = 0;
            current = None;
            waiting = Queue.create ();
          }
    done;
    {
      id;
      mem = memories.(id);
      access = Array.make n_pages Read;
      rights = Bytes.make n_pages (if n_nodes = 1 then '\002' else '\001');
      mpages;
      mlocks = Hashtbl.create 16;
      pending_reqs = Hashtbl.create 16;
      next_req = 0;
      inflight = Hashtbl.create 8;
      steal = ref 0;
      recov = None;
    }
  in
  (* The initial owner (the manager) holds each page in Read like everyone
     else; ownership only matters once someone writes. *)
  let t =
    {
      eng;
      counters;
      net = Reliable.create eng counters fabric;
      page_words;
      n_pages;
      n_nodes;
      nodes = Array.init n_nodes mk_node;
      barriers = Array.init 16 (fun _ -> { arrivals = []; arrived = 0 });
      page_shift =
        (if page_words > 0 && page_words land (page_words - 1) = 0 then
           let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
           go 0 page_words
         else -1);
      page_hook = (fun ~node:_ ~page:_ -> ());
      lock_home = Hashtbl.create 8;
      barrier_home = 0;
      lifecycle;
    }
  in
  (match lifecycle with
  | None -> ()
  | Some _ ->
      (* Crash-aware reliability: suspected deaths are reported once per
         packet and timers park at the peer's restart instead of
         aborting (see the TreadMarks counterpart). *)
      Reliable.set_policy t.net
        {
          Reliable.default_policy with
          Reliable.backoff_cap = 6;
          on_peer_down = Some (fun ~src:_ ~dst:_ ~attempts:_ -> ());
        };
      let words = n_pages * page_words in
      Array.iter
        (fun nd ->
          let image = Memory.create_mapped ~words in
          Memory.seed ~src:nd.mem ~len:words [| image |];
          nd.recov <-
            Some { image; ckpt_dirty = Bytes.make n_pages '\000' })
        t.nodes);
  t

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

let install_page t fiber nd page data =
  Memory.blit ~src:data ~src_pos:0 ~dst:nd.mem ~dst_pos:(page * t.page_words)
    ~len:t.page_words;
  (match nd.recov with
  | Some rv -> Bytes.unsafe_set rv.ckpt_dirty page '\001'
  | None -> ());
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
  match txn.kind with
  | Read ->
      deliver t fiber ~src:mgr.id ~dst:mp.owner
        (Proto.Read_fwd { page; requester = txn.requester; req = txn.req })
  | Write ->
      let invals =
        Iset.remove txn.requester (Iset.remove mp.owner mp.copyset)
      in
      mp.acks_waited <- Iset.cardinal invals;
      Counters.add t.counters "ivy.invalidations" mp.acks_waited;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber mgr page
      else
        Iset.iter
          (fun dst ->
            deliver t fiber ~src:mgr.id ~dst
              (Proto.Invalidate { page; req = txn.req }))
          invals
  | Invalid ->
      (* A transaction can only be created by a Read_req or Write_req; an
         Invalid kind reaching the manager means a corrupted request (e.g.
         a protocol bug surfaced by a chaos schedule).  Raise a diagnosable
         error instead of Assert_failure. *)
      raise
        (Proto_error
           {
             page;
             requester = txn.requester;
             manager = mgr.id;
             state =
               Printf.sprintf
                 "transaction kind %s (req %d); manager state: owner=%d \
                  copyset={%s} busy=%b acks_waited=%d queued=%d"
                 (access_name txn.kind) txn.req mp.owner
                 (String.concat ","
                    (List.map string_of_int (Iset.elements mp.copyset)))
                 mp.busy mp.acks_waited
                 (Queue.length mp.waiting);
           })

and mgr_proceed_write t fiber mgr page =
  let mp = Hashtbl.find mgr.mpages page in
  match mp.current with
  | Some { requester; req; _ } ->
      if mp.owner = requester then
        (* Ownership upgrade: the requester already holds the data. *)
        deliver t fiber ~src:mgr.id ~dst:requester
          (Proto.Page_grant { page; req; data = None })
      else
        deliver t fiber ~src:mgr.id ~dst:mp.owner
          (Proto.Write_fwd { page; requester; req })
  | None -> failwith "ivy: write proceed without transaction"

and mgr_request t fiber mgr page txn =
  let mp = Hashtbl.find mgr.mpages page in
  if mp.busy then Queue.push txn mp.waiting
  else mgr_start_txn t fiber mgr page txn

and mgr_txn_done t fiber mgr page ~requester ~write =
  let mp = Hashtbl.find mgr.mpages page in
  if write then begin
    mp.owner <- requester;
    mp.copyset <- Iset.singleton requester
  end
  else mp.copyset <- Iset.add requester mp.copyset;
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
        let ml = { held = false; lock_waiters = Queue.create () } in
        Hashtbl.add mgr.mlocks lock ml;
        ml
  in
  if ml.held then Queue.push (requester, req) ml.lock_waiters
  else begin
    ml.held <- true;
    deliver t fiber ~src:mgr.id ~dst:requester (Proto.Lock_grant { lock; req })
  end

and mgr_unlock t fiber mgr ~lock =
  let ml = Hashtbl.find mgr.mlocks lock in
  match Queue.take_opt ml.lock_waiters with
  | Some (requester, req) ->
      deliver t fiber ~src:mgr.id ~dst:requester
        (Proto.Lock_grant { lock; req })
  | None -> ml.held <- false

(* ---------------- barrier manager ---------------------------------- *)

and mgr_barrier_arrive t fiber mgr ~id ~node ~req =
  let b = t.barriers.(id) in
  b.arrivals <- (node, req) :: b.arrivals;
  b.arrived <- b.arrived + 1;
  if b.arrived = t.n_nodes then begin
    let arrivals = b.arrivals in
    b.arrivals <- [];
    b.arrived <- 0;
    List.iter
      (fun (dst, dreq) ->
        deliver t fiber ~src:mgr.id ~dst
          (Proto.Barrier_depart { barrier = id; req = dreq }))
      arrivals;
    Counters.incr t.counters "ivy.barriers"
  end

(* ---------------- message dispatch --------------------------------- *)

and route_response nd ~req body ~at =
  match Hashtbl.find_opt nd.pending_reqs req with
  | Some mb -> Mailbox.post mb ~at body
  | None -> failwith "ivy: response without pending request"

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req } ->
      mgr_request t fiber nd page { kind = Read; requester; req }
  | Proto.Write_req { page; requester; req } ->
      mgr_request t fiber nd page { kind = Write; requester; req }
  | Proto.Read_fwd { page; requester; req } ->
      (* We are the owner: downgrade and ship a copy. *)
      if nd.access.(page) = Write then set_access nd page Read;
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_copy { page; req; data = page_data t nd page });
      Counters.incr t.counters "ivy.page_copies"
  | Proto.Write_fwd { page; requester; req } ->
      (* We are the owner: ship the page with ownership and drop it. *)
      Engine.advance fiber t.page_words;
      let data = Some (page_data t nd page) in
      set_access nd page Invalid;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_grant { page; req; data });
      Counters.incr t.counters "ivy.page_transfers"
  | Proto.Invalidate { page; req } ->
      set_access nd page Invalid;
      Engine.instant fiber "ivy.invalidate";
      deliver t fiber ~src:nd.id ~dst:(manager_of t page)
        (Proto.Inval_ack { page; req })
  | Proto.Inval_ack { page; _ } ->
      let mp = Hashtbl.find nd.mpages page in
      mp.acks_waited <- mp.acks_waited - 1;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber nd page
  | Proto.Txn_done { page; requester; write } ->
      mgr_txn_done t fiber nd page ~requester ~write:(write = 1)
  | Proto.Lock_req { lock; requester; req } as body ->
      (* Stale destination after a crash re-homed the lock (the request
         outlived the outage in a peer's retransmit queue): forward. *)
      let home = lock_manager_of t lock in
      if home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:home body
      end
      else mgr_lock_req t fiber nd ~lock ~requester ~req
  | Proto.Unlock { lock; requester } as body ->
      ignore requester;
      let home = lock_manager_of t lock in
      if home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:home body
      end
      else mgr_unlock t fiber nd ~lock
  | Proto.Barrier_arrive { barrier; node; req } as body ->
      if t.barrier_home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        deliver t fiber ~src:nd.id ~dst:t.barrier_home body
      end
      else mgr_barrier_arrive t fiber nd ~id:barrier ~node ~req
  | Proto.Page_copy { req; _ } | Proto.Page_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      route_response nd ~req body ~at:(Engine.clock fiber)

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* Page-granular failure-atomic checkpoint: whole dirty pages copy into
   the image (IVY moves whole pages, so it persists whole pages —
   contrast the TreadMarks sub-page run-length deltas).  Runs from an
   [Engine.schedule] callback; cost charged through [steal]. *)
let checkpoint t nd =
  match nd.recov with
  | None -> ()
  | Some rv ->
      let pw = t.page_words in
      let bytes = ref 0 and copied = ref 0 in
      (* Probe before persisting: a writable page stays ckpt-dirty
         between sweeps by design, but re-persisting it when nothing
         changed would make every sweep cost the whole working set —
         the per-sweep charge outruns the checkpoint interval on large
         runs and the simulation quasi-livelocks.  The probe itself
         rides the page-table write bits, so only pages that actually
         changed are copied and charged.  Accounting stays whole-page:
         IVY's protocol (and hence persistence) unit is the page. *)
      for p = 0 to t.n_pages - 1 do
        if Bytes.get rv.ckpt_dirty p <> '\000' then begin
          if not (Memory.equal_range nd.mem rv.image ~pos:(p * pw) ~len:pw)
          then begin
            Memory.blit ~src:nd.mem ~src_pos:(p * pw) ~dst:rv.image
              ~dst_pos:(p * pw) ~len:pw;
            bytes := !bytes + 16 + (8 * pw);
            copied := !copied + pw
          end;
          (* A writable page keeps changing with no further protocol
             event: keep it dirty for the next checkpoint. *)
          if nd.access.(p) <> Write then Bytes.set rv.ckpt_dirty p '\000'
        end
      done;
      nd.steal := !(nd.steal) + (overhead t).handler + !copied;
      Counters.incr t.counters "ckpt.count";
      Counters.add t.counters "ckpt.bytes" !bytes

(* Online rejoin of a restarted node: every page it neither owns nor has
   a transaction in flight for is conservatively invalidated, so the
   next access re-fetches a fresh copy through the (sequentially
   consistent) manager.  Owned pages are authoritative — the volatile
   copy survives the outage under the failure-atomic heap model — and
   invalidating them would strand the directory. *)
let rejoin t nd =
  match nd.recov with
  | None -> ()
  | Some _ ->
      for p = 0 to t.n_pages - 1 do
        if nd.access.(p) <> Invalid && not (Hashtbl.mem nd.inflight p) then begin
          let mp = Hashtbl.find t.nodes.(manager_of t p).mpages p in
          let ours =
            mp.owner = nd.id
            || mp.busy
               &&
               match mp.current with
               | Some { requester; _ } -> requester = nd.id
               | None -> false
          in
          if not ours then begin
            set_access nd p Invalid;
            t.page_hook ~node:nd.id ~page:p;
            Counters.incr t.counters "recovery.invalidated"
          end
        end
      done;
      let cycles = (overhead t).handler + t.n_pages in
      nd.steal := !(nd.steal) + cycles;
      Counters.incr t.counters "recovery.count";
      Counters.add t.counters "recovery.cycles" cycles

(* Re-home the lock and barrier managers of a crashed node onto the next
   surviving node.  The [mlock] records are shared (replicated manager
   state), so holders and queued waiters survive the move; requests that
   still name the dead node are forwarded by its handler after restart.
   The page directory is NOT re-homed — see [lock_manager_of]. *)
let rehome t lc ~dead =
  let successor =
    let rec go k =
      if k >= t.n_nodes then None
      else
        let c = (dead + k) mod t.n_nodes in
        if Lifecycle.alive lc c then Some c else go (k + 1)
    in
    go 1
  in
  match successor with
  | None -> ()
  | Some s ->
      let moved = ref 0 in
      Hashtbl.iter
        (fun lock ml ->
          if lock_manager_of t lock = dead then begin
            Hashtbl.replace t.lock_home lock s;
            Hashtbl.replace t.nodes.(s).mlocks lock ml;
            incr moved
          end)
        t.nodes.(dead).mlocks;
      if t.barrier_home = dead then begin
        (* Arrival state lives in [t.barriers], visible to the successor;
           only the role moves. *)
        t.barrier_home <- s;
        incr moved
      end;
      if !moved > 0 then Counters.add t.counters "recovery.rehomes" !moved

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
        | Proto.Page_copy _ | Proto.Page_grant _ | Proto.Lock_grant _
        | Proto.Barrier_depart _ ->
            ()
        | _ -> nd.steal := !(nd.steal) + ov.handler + ov.fixed_recv);
        dispatch t fiber nd ~src:env.Msg.src env.Msg.body);
    loop ()
  in
  loop ()

let start t =
  Reliable.start t.net;
  (match t.lifecycle with
  | None -> ()
  | Some lc ->
      Lifecycle.on_ckpt lc (fun ~at:_ ->
          Array.iter
            (fun nd -> if Lifecycle.alive lc nd.id then checkpoint t nd)
            t.nodes);
      Lifecycle.on_detect lc (fun ~node ~at:_ -> rehome t lc ~dead:node);
      Lifecycle.on_restart lc (fun ~node ~at:_ -> rejoin t t.nodes.(node)));
  Array.iter
    (fun nd ->
      ignore
        (Engine.spawn t.eng ~daemon:true
           ~name:(Printf.sprintf "ivy-handler-%d" nd.id)
           ~at:0
           (fun fiber -> handler_loop t nd fiber)))
    t.nodes

let retx_note t = Reliable.pending_note t.net

(* ---------------- application-facing operations -------------------- *)

let fault t fiber nd page (kind : page_access) =
  Engine.sync fiber;
  drain_steal fiber nd;
  let want_write = kind = Write in
  let satisfied () =
    match nd.access.(page) with
    | Write -> true
    | Read -> not want_write
    | Invalid -> false
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
      (if want_write then "ivy.write_faults" else "ivy.read_faults");
    Engine.instant fiber "ivy.fault";
    Engine.advance fiber (overhead t).handler;
    let req = fresh_req nd in
    let mb = register_req t nd req in
    let mgr = manager_of t page in
    let body =
      if want_write then Proto.Write_req { page; requester = nd.id; req }
      else Proto.Read_req { page; requester = nd.id; req }
    in
    deliver t fiber ~src:nd.id ~dst:mgr body;
    (match
       Engine.with_category fiber Engine.Net_wait (fun () ->
           Mailbox.recv fiber mb)
     with
    | Proto.Page_copy { data; _ } ->
        install_page t fiber nd page data;
        set_access nd page Read
    | Proto.Page_grant { data; _ } ->
        Option.iter (install_page t fiber nd page) data;
        set_access nd page Write
    | _ -> failwith "ivy: unexpected fault response");
    deliver t fiber ~src:nd.id ~dst:mgr
      (Proto.Txn_done
         { page; requester = nd.id; write = (if want_write then 1 else 0) });
    Hashtbl.remove nd.pending_reqs req;
    Hashtbl.remove nd.inflight page;
    ignore (Waitq.wake_all wq ~at:(Engine.clock fiber))
  end

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then begin
    let nd = t.nodes.(node) in
    let page = page_of t addr in
    while nd.access.(page) = Invalid do
      fault t fiber nd page Read
    done
  end

let write_guard t fiber ~node addr =
  (* A single process never write-protects pages. *)
  if t.n_nodes > 1 then begin
    let nd = t.nodes.(node) in
    let page = page_of t addr in
    while nd.access.(page) <> Write do
      fault t fiber nd page Write
    done
  end

(* Range guards: one guard per overlapped page, in address order, handing
   each in-page run to [f run_addr run_words] right after its guard — the
   per-page interleaving keeps the sequence observably identical to the
   per-word loop (see the TreadMarks counterpart).  [f] must not yield. *)

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
      while nd.access.(page) = Invalid do
        fault t fiber nd page Read
      done;
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
      while nd.access.(page) <> Write do
        fault t fiber nd page Write
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
  | Proto.Lock_grant _ -> ()
  | _ -> failwith "ivy: unexpected lock response");
  Hashtbl.remove nd.pending_reqs req;
  Counters.incr t.counters "ivy.lock_acquires"

let release t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:nd.id
        ~dst:(lock_manager_of t lock)
        (Proto.Unlock { lock; requester = nd.id }))

let barrier_arrive t fiber ~node ~id =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = fresh_req nd in
  let mb = register_req t nd req in
  deliver t fiber ~src:nd.id ~dst:t.barrier_home
    (Proto.Barrier_arrive { barrier = id; node = nd.id; req });
  (match
     Engine.with_category fiber Engine.Barrier_wait (fun () ->
         Mailbox.recv fiber mb)
   with
  | Proto.Barrier_depart _ -> ()
  | _ -> failwith "ivy: unexpected barrier response");
  Hashtbl.remove nd.pending_reqs req

let check_invariants t =
  for page = 0 to t.n_pages - 1 do
    let mgr = t.nodes.(manager_of t page) in
    let mp = Hashtbl.find mgr.mpages page in
    (* Owner must hold a valid copy (unless a transaction is in flight). *)
    if not mp.busy then begin
      if t.nodes.(mp.owner).access.(page) = Invalid then
        failwith
          (Printf.sprintf "ivy: page %d owner %d has no copy" page mp.owner);
      Array.iter
        (fun nd ->
          match nd.access.(page) with
          | Invalid -> ()
          | Read ->
              if not (Iset.mem nd.id mp.copyset) then
                failwith
                  (Printf.sprintf "ivy: page %d copy at %d not in copyset"
                     page nd.id)
          | Write ->
              if nd.id <> mp.owner then
                failwith
                  (Printf.sprintf "ivy: page %d writer %d is not owner %d"
                     page nd.id mp.owner))
        t.nodes
    end
  done
