module Engine = Shm_sim.Engine
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Node = Shm_dsm.Node
module Checkpoint = Shm_dsm.Checkpoint
module Home = Shm_dsm.Home
module Paged = Shm_dsm.Paged
module Iset = Set.Make (Int)

(* The kind of a page transaction, and the state a node's rights byte
   encodes: ['\000'] Invalid, ['\001'] Read, ['\002'] Write. *)
type page_access = Invalid | Read | Write

let access_name = function
  | Invalid -> "Invalid"
  | Read -> "Read"
  | Write -> "Write"

type pending_txn = { kind : page_access; requester : int; req : int }

include Home.Error (struct
  let engine = "Ivy"
end)

(* Manager-side record for a page it manages. *)
type mpage = {
  mutable owner : int;
  mutable copyset : Iset.t;
  mutable acks_waited : int;
}

type t = (Proto.t, unit, pending_txn, mpage) Paged.homed
type node = (Proto.t, unit) Paged.node

let access (nd : node) page =
  match Bytes.unsafe_get nd.rights page with
  | '\000' -> Invalid
  | '\001' -> Read
  | _ -> Write

(* Every access transition goes through here.  A transition to [Write]
   marks the page for the next checkpoint: once writable, the
   application mutates it with no further protocol event. *)
let set_access (nd : node) page (a : page_access) =
  if a = Write then Paged.mark_changed nd page;
  Bytes.unsafe_set nd.rights page
    (match a with Invalid -> '\000' | Read -> '\001' | Write -> '\002')

(* ---------------- manager-side page state machine ------------------ *)

let rec mgr_start_txn (t : t) fiber mgr page (txn : pending_txn) =
  let mp = Home.page t.s.home page in
  match txn.kind with
  | Read ->
      Paged.deliver t fiber ~src:mgr ~dst:mp.owner
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
            Paged.deliver t fiber ~src:mgr ~dst
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
             manager = mgr;
             state =
               Printf.sprintf
                 "transaction kind %s (req %d); manager state: owner=%d \
                  copyset={%s} busy=%b acks_waited=%d queued=%d"
                 (access_name txn.kind) txn.req mp.owner
                 (String.concat ","
                    (List.map string_of_int (Iset.elements mp.copyset)))
                 (Home.busy t.s.home page) mp.acks_waited
                 (Home.queued t.s.home page);
           })

and mgr_proceed_write t fiber mgr page =
  let mp = Home.page t.s.home page in
  match Home.current t.s.home page with
  | Some { requester; req; _ } ->
      if mp.owner = requester then
        (* Ownership upgrade: the requester already holds the data. *)
        Paged.deliver t fiber ~src:mgr ~dst:requester
          (Proto.Page_grant { page; req; data = None })
      else
        Paged.deliver t fiber ~src:mgr ~dst:mp.owner
          (Proto.Write_fwd { page; requester; req })
  | None -> failwith "ivy: write proceed without transaction"

(* ---------------- message dispatch --------------------------------- *)

let dispatch (t : t) fiber (nd : node) body =
  match body with
  | Proto.Read_req { page; requester; req } ->
      let txn = { kind = Read; requester; req } in
      if Home.request t.s.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Write_req { page; requester; req } ->
      let txn = { kind = Write; requester; req } in
      if Home.request t.s.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Read_fwd { page; requester; req } ->
      (* We are the owner: downgrade and ship a copy. *)
      if access nd page = Write then set_access nd page Read;
      Engine.advance fiber Memory.page_words;
      Paged.deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_copy { page; req; data = Node.page_data nd.mem page });
      Counters.incr t.counters "ivy.page_copies"
  | Proto.Write_fwd { page; requester; req } ->
      (* We are the owner: ship the page with ownership and drop it. *)
      Engine.advance fiber Memory.page_words;
      let data = Some (Node.page_data nd.mem page) in
      set_access nd page Invalid;
      Paged.deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_grant { page; req; data });
      Counters.incr t.counters "ivy.page_transfers"
  | Proto.Invalidate { page; req } ->
      set_access nd page Invalid;
      Engine.instant fiber "ivy.invalidate";
      Paged.deliver t fiber ~src:nd.id ~dst:(Home.manager t.s.home page)
        (Proto.Inval_ack { page; req })
  | Proto.Inval_ack { page; _ } ->
      let mp = Home.page t.s.home page in
      mp.acks_waited <- mp.acks_waited - 1;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber nd.id page
  | Proto.Txn_done { page; requester; write } -> (
      let mp = Home.page t.s.home page in
      if write = 1 then begin
        mp.owner <- requester;
        mp.copyset <- Iset.singleton requester
      end
      else mp.copyset <- Iset.add requester mp.copyset;
      match Home.txn_done t.s.home page with
      | Some txn -> mgr_start_txn t fiber nd.id page txn
      | None -> ())
  | Proto.Lock_req { lock; requester; req } ->
      Paged.serve_lock_req t fiber nd body ~lock ~requester ~req
  | Proto.Unlock { lock; _ } -> Paged.serve_unlock t fiber nd body ~lock ~stamp:0
  | Proto.Barrier_arrive { barrier; node; req } ->
      Paged.serve_arrival t fiber nd body ~barrier ~node ~req ~stamp:0
  | Proto.Page_copy { req; _ } | Proto.Page_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      Paged.reply nd fiber ~req body

(* A fault's reply: a read copy, or ownership with the data unless the
   requester already held it. *)
let complete t fiber nd page = function
  | Proto.Page_copy { data; _ } ->
      Paged.install_page t fiber nd page data;
      set_access nd page Read
  | Proto.Page_grant { data; _ } ->
      Option.iter (Paged.install_page t fiber nd page) data;
      set_access nd page Write
  | _ -> failwith "ivy: unexpected fault response"

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* Page-granular failure-atomic checkpoint: whole dirty pages copy into
   the image (IVY moves whole pages, so it persists whole pages —
   contrast the TreadMarks sub-page run-length deltas).  Runs from an
   [Engine.schedule] callback; cost charged to the application. *)
let checkpoint (t : t) (nd : node) store =
  let pw = Memory.page_words in
  let image = Checkpoint.image store in
  let copied = ref 0 in
  (* Probe before persisting: a writable page stays marked
     between sweeps by design, but re-persisting it when nothing
     changed would make every sweep cost the whole working set —
     the per-sweep charge outruns the checkpoint interval on large
     runs and the simulation quasi-livelocks.  The probe itself
     rides the page-table write bits, so only pages that actually
     changed are copied and charged.  Accounting stays whole-page:
     IVY's protocol (and hence persistence) unit is the page. *)
  let persist p =
    if Memory.equal_range nd.mem image ~pos:(p * pw) ~len:pw then 0
    else begin
      Memory.blit ~src:nd.mem ~src_pos:(p * pw) ~dst:image
        ~dst_pos:(p * pw) ~len:pw;
      copied := !copied + pw;
      16 + (8 * pw)
    end
  in
  (* A writable page keeps changing with no further protocol event:
     keep it marked for the next checkpoint. *)
  let keep p = access nd p = Write in
  ignore (Checkpoint.sweep store t.counters ~persist ~keep : int);
  Node.charge nd.rt ((Paged.overhead t).handler + !copied)

(* Online rejoin of a restarted node: every page it neither owns nor has
   a transaction in flight for is conservatively invalidated, so the
   next access re-fetches a fresh copy through the (sequentially
   consistent) manager.  Owned pages are authoritative — the volatile
   copy survives the outage under the failure-atomic heap model — and
   invalidating them would strand the directory. *)
let rejoin (t : t) (nd : node) (_ : Checkpoint.t) =
  for p = 0 to t.n_pages - 1 do
    if access nd p <> Invalid && not (Node.fetching nd.rt p) then begin
      let ours =
        (Home.page t.s.home p).owner = nd.id
        ||
        match Home.current t.s.home p with
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
  let cycles = (Paged.overhead t).handler + t.n_pages in
  Node.charge nd.rt cycles;
  Counters.incr t.counters "recovery.count";
  Counters.add t.counters "recovery.cycles" cycles

(* Exactly one owner per page, the owner's copy valid, writers are
   owners, copysets cover every valid copy. *)
let check (t : t) =
  Home.check_drained t.s.home;
  for page = 0 to t.n_pages - 1 do
    let mp = Home.page t.s.home page in
    if access t.nodes.(mp.owner) page = Invalid then
      failwith
        (Printf.sprintf "ivy: page %d owner %d has no copy" page mp.owner);
    Array.iter
      (fun (nd : node) ->
        match access nd page with
        | Invalid -> ()
        | Read ->
            if not (Iset.mem nd.id mp.copyset) then
              failwith
                (Printf.sprintf "ivy: page %d copy at %d not in copyset" page
                   nd.id)
        | Write ->
            if nd.id <> mp.owner then
              failwith
                (Printf.sprintf "ivy: page %d writer %d is not owner %d" page
                   nd.id mp.owner))
      t.nodes
  done

let satisfied (nd : node) page ~write =
  match Bytes.unsafe_get nd.rights page with
  | '\002' -> true
  | '\001' -> not write
  | _ -> false

let home : (_, _, _, _) Paged.home_protocol =
  {
    sizes = Proto.sizes;
    is_reply = Proto.is_reply;
    dispatch;
    page_req =
      (fun nd page ~write ~req ->
        if write then Proto.Write_req { page; requester = nd.id; req }
        else Proto.Read_req { page; requester = nd.id; req });
    complete;
    txn_done =
      (fun ~page ~requester ~write ->
        Proto.Txn_done { page; requester; write = (if write then 1 else 0) });
    lock_req =
      (fun ~lock ~requester ~req -> Proto.Lock_req { lock; requester; req });
    lock_grant = (fun ~lock ~req ~stamp:_ -> Proto.Lock_grant { lock; req });
    unlock = (fun _ ~lock ~requester -> Proto.Unlock { lock; requester });
    arrival =
      (fun _ ~barrier ~node ~req -> Proto.Barrier_arrive { barrier; node; req });
    departure =
      (fun ~barrier ~req ~stamp:_ -> Proto.Barrier_depart { barrier; req });
    synced =
      (fun _ -> function
        | Proto.Lock_grant _ | Proto.Barrier_depart _ -> ()
        | _ -> failwith "ivy: unexpected synchronization response");
  }

(* The shell's view of the protocol: the page predicates and recovery
   moves above, the home-based helpers for the rest. *)
let protocol : (_, _, _) Paged.protocol =
  {
    engine = "ivy";
    read_fault = "ivy.read_faults";
    write_fault = "ivy.write_faults";
    satisfied;
    read_hit = (fun _ _ -> ());
    write_hit = (fun _ _ _ _ -> ());
    fetch = Paged.fetch;
    serve = Paged.serve;
    acquire = Paged.acquire;
    release = Paged.release;
    barrier_arrive = Paged.barrier_arrive;
    checkpoint;
    rehome = Paged.rehome;
    rejoin;
    check;
  }

let create eng counters fabric ~shared_words ~memories =
  let n_nodes = Array.length memories in
  (* The initial owner (the manager) holds each page in Read like everyone
     else; ownership only matters once someone writes.  [Iset] is
     immutable, so every page shares the one full copyset. *)
  let everyone = Iset.of_list (List.init n_nodes Fun.id) in
  Paged.create_home protocol home eng counters fabric ~shared_words ~memories
    ~rights:'\001' ~x:ignore
    ~mpage:(fun page ->
      { owner = page mod n_nodes; copyset = everyone; acks_waited = 0 })
