(* TreadMarks's protocol on the page-DSM shell ({!Shm_dsm.Paged}): the
   shell holds the node header, the guards, the fault's wait-and-fetch
   shell and start-up; this file hands it, in one [Paged.protocol]
   record, what a fault fetches (notices, the eager stash, diff requests
   and replies), the twin a write hit makes, its own message handler and
   sending, its lock, release and barrier clients, and its checkpoint,
   rejoin and re-home moves. *)

module Engine = Shm_sim.Engine
module Waitq = Shm_sim.Waitq
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Node = Shm_dsm.Node
module Checkpoint = Shm_dsm.Checkpoint
module Roles = Shm_dsm.Roles
module Paged = Shm_dsm.Paged

type lock_state = {
  mutable has_token : bool;
  mutable in_use : bool;
  remote_waiters : (int * int * Vc.t) Queue.t;  (** (node, req, vc) *)
  local_waiters : Waitq.t;
  (* Manager-side distributed-queue tail; meaningful only at the lock's
     manager node. *)
  mutable tail : int;
}

(* A node's TreadMarks state, one field array per page attribute.  The
   shell's rights byte is the page's validity: ['\000'] invalid,
   ['\001'] valid, ['\002'] valid and twinned (or a single node). *)
type tnode = {
  vc : Vc.t;
  mutable seq : int;  (** own interval counter, = vc.(id) *)
  store : Record.Store.t;
  twins : Memory.t option array;  (** present iff dirty *)
  applied : Vc.t array;
      (** per-creator highest interval reflected in our copy; the system's
          shared [zero_vc] until the page's first write to it *)
  pending : int list array;
      (** {!Record.notice}s awaiting diffs, newest first *)
  own : Diff.t list array;
      (** this node's own intervals' diffs of the page, newest first;
          crash-free, only those some node can still request (see
          [prune_own]) *)
  mutable logged : int list;  (** the pages whose [own] list is not empty *)
  mutable dirty : int list;  (** pages dirtied in the open interval *)
  eager_diffs : (int * int * int, Diff.t) Hashtbl.t;
      (** (page, creator, seqno) -> eagerly shipped diff, not yet applied *)
  locks : lock_state Node.Itbl.t;  (** built on first use; see [lock_of] *)
  mutable sent_to_manager : int;  (** own seq already pushed to barrier mgr *)
  mutable unsent_bytes : int;
      (** wire bytes of the own records closed since the last arrival *)
  mutable asks : Vc.t list;
      (** the vector times of this node's lock requests and barrier
          arrivals not yet answered: a grant or departure is built from
          them, so they bound the record floor (see [drop_records]) *)
  snap : Vc.t array;
      (** under a lifecycle, per-page applied vector at the last
          checkpoint, [zero_vc] until the page is first checkpointed;
          crash-free, empty *)
  mutable ckpt_seq : int;  (** own interval count at the last checkpoint *)
}

(* The cluster-wide state beside the shell's, with the counters bumped
   on every protocol event, resolved once. *)
type sys = {
  cfg : Config.t;
  zero_vc : Vc.t;
      (** all-zero vector shared by every page whose [applied] (or [snap])
          vector has not been written yet; never itself written *)
  records : Record.Table.t;
      (** every node's records, held once; crash-free, only those a
          message can still carry (see [drop_records]) *)
  roles : (int * int * Vc.t) Roles.t;
      (** lock and barrier managers; arrivals carry (node, req, vc) *)
  stash : Record.t list array;
      (** per barrier, the arrival records of the open episode; copied to
          a successor's store when the barrier manager is re-homed *)
  k_invalidations : Counters.key;
  k_diffs_created : Counters.key;
  k_intervals : Counters.key;
  k_diffs_applied : Counters.key;
  k_twins : Counters.key;
  k_lock_local : Counters.key;
  k_lock_remote : Counters.key;
  k_eager_applies : Counters.key;
}

type t = (Proto.t, tnode, sys) Paged.t
type node = (Proto.t, tnode) Paged.node

(* Cycles of the library's own work: the memcpy of a twin and of an
   applied diff, per word, and a lock whose token is already on-node. *)
let twin_copy_per_word = 1
let apply_per_word = 1
let local_lock_cycles = 50

let memory (t : t) ~node = t.nodes.(node).mem

let is_valid (nd : node) page = Bytes.get nd.rights page <> '\000'

(* A page turns valid, writable while it holds a twin. *)
let validate (nd : node) page =
  Bytes.set nd.rights page (if nd.x.twins.(page) <> None then '\002' else '\001')

let invalidate (nd : node) page = Bytes.set nd.rights page '\000'

(* Copy-on-write vectors: [v] itself if the page already owns it, else a
   fresh all-zero vector for the page to own. *)
let own_vc (t : t) v = if v == t.s.zero_vc then Vc.create ~nodes:t.n_nodes else v

(* The page's [applied] vector, ready to be written. *)
let applied_for_write (t : t) (nd : node) page =
  let v = own_vc t nd.x.applied.(page) in
  nd.x.applied.(page) <- v;
  v

(* Node [nd]'s state for [lock], built on first use with the state every
   node starts in: the token and the queue tail at the lock's static
   manager. *)
let lock_of (t : t) (nd : node) l =
  match Node.Itbl.find_opt nd.x.locks l with
  | Some ls -> ls
  | None ->
      let manager = Roles.static_home t.s.roles l in
      let ls =
        {
          has_token = nd.id = manager;
          in_use = false;
          remote_waiters = Queue.create ();
          local_waiters = Waitq.create t.eng;
          tail = manager;
        }
      in
      Node.Itbl.add nd.x.locks l ls;
      ls

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let send_sized (t : t) fiber ~src ~dst ~size body =
  Reliable.send t.net fiber ~src ~dst ~class_:(Proto.class_ body) ~size body

let send t fiber ~src ~dst body =
  send_sized t fiber ~src ~dst ~size:(Proto.sizes body) body

(* CPU cycles a node spends serving a request, charged to its application
   fiber (on a uniprocessor node the handler and the application share
   the CPU). *)
let serve_cost (t : t) ~in_size ~out_size ~replied =
  let ov = Paged.overhead t in
  let words (s : Msg.sizes) = (s.consistency_bytes + s.payload_bytes + 7) / 8 in
  ov.fixed_recv + ov.handler + (ov.per_word * words in_size)
  + if replied then ov.fixed_send + (ov.per_word * words out_size) else 0

let zero_size = Msg.sizes ()

(* ------------------------------------------------------------------ *)
(* Write-notice registration and invalidation                          *)

(* Register foreign interval records: remember them, queue per-page
   notices, and invalidate affected valid pages.  Only a record's first
   registration queues anything: after it, each of the record's pages
   either holds the notice in [pending] or has [applied] past it (a fault
   drops a notice only once applied, and [rejoin], which rolls [applied]
   back, re-queues what it un-applies), so a repeat would find nothing
   to add.  The mark is separate from store membership: the barrier
   manager stashes arrival records in its store before its own departure
   registers them. *)
let register_records (t : t) fiber (nd : node) records =
  List.iter
    (fun (r : Record.t) ->
      ignore (Record.Store.add nd.x.store r);
      if r.creator <> nd.id && Record.Store.first_notice nd.x.store r then
        List.iter
          (fun p ->
            if r.seqno > nd.x.applied.(p).(r.creator) then begin
              nd.x.pending.(p) <-
                Record.notice ~creator:r.creator ~seqno:r.seqno
                :: nd.x.pending.(p);
              if is_valid nd p then begin
                invalidate nd p;
                Counters.bump t.s.k_invalidations 1;
                Engine.instant fiber "tmk.invalidate"
              end
            end)
          r.pages)
    records

(* Records with [lo_vc.(c) < seqno <= hi_vc.(c)], oldest first.  The
   caller's store must cover [hi_vc] (the contiguity invariant: a node's
   vector time never advances past its contiguously-known records). *)
let records_range (nd : node) ~lo_vc ~hi_vc =
  let acc = ref [] in
  for c = Vc.nodes lo_vc - 1 downto 0 do
    let lo = lo_vc.(c) and hi = hi_vc.(c) in
    if hi > lo then
      acc := Record.Store.range_onto nd.x.store ~creator:c ~lo ~hi !acc
  done;
  List.sort Record.compare_linear !acc

(* Records the destination lacks, relative to our own vector time. *)
let records_between (nd : node) ~vc_dst =
  records_range nd ~lo_vc:vc_dst ~hi_vc:nd.x.vc

(* ------------------------------------------------------------------ *)
(* Interval closing and diff creation                                  *)

(* Own intervals between two prunes of a node's diff log. *)
let prune_period = 16

(* The highest of [creator]'s intervals that every other node has
   applied to [page]. *)
let applied_floor (t : t) ~creator page =
  let floor = ref max_int and c = ref 0 in
  while !floor > 0 && !c < t.n_nodes do
    if !c <> creator then
      floor := Int.min !floor t.nodes.(!c).x.applied.(page).(creator);
    incr c
  done;
  !floor

(* Drop the own diffs no node can still request.  A diff request's [lo]
   is the requester's [applied] entry for the creator, and crash-free
   that entry only grows, so a diff at or below every other node's entry
   is never served again.  Under a lifecycle the log stays whole: a
   rejoin rolls [applied] back to its snapshot and fetches again.  Run
   every [prune_period] own intervals over the pages that hold a log, so
   the [nodes]-wide floor is not paid per fault or per diff. *)
let prune_own (t : t) (nd : node) =
  let rec above floor = function
    | (d : Diff.t) :: _ when d.seqno <= floor -> []
    | d :: rest as l ->
        let rest' = above floor rest in
        if rest' == rest then l else d :: rest'
    | [] -> []
  in
  nd.x.logged <-
    List.filter
      (fun p ->
        nd.x.own.(p) <- above (applied_floor t ~creator:nd.id p) nd.x.own.(p);
        nd.x.own.(p) <> [])
      nd.x.logged

(* The highest of [creator]'s intervals that every node's vector time
   covers, and every vector time a grant or departure may still be
   built from (the nodes' [asks]).  No path reads the table at or below
   it: grants and departures read past those vector times, an eager
   update past the receiver's contiguous prefix, an arrival past the
   floor (it counts the rest as bytes), and a fault orders diffs by
   their stamps (DESIGN.md §12.1). *)
let record_floor (t : t) ~creator =
  let floor = ref max_int in
  Array.iter
    (fun (nd : node) ->
      floor := Int.min !floor nd.x.vc.(creator);
      List.iter (fun (v : Vc.t) -> floor := Int.min !floor v.(creator)) nd.x.asks)
    t.nodes;
  !floor

(* Drop the node's own records below the floor.  Crash-free only, on the
   diff log's cadence: a rejoin reads the records past its checkpoint's
   snapshot, so under a lifecycle the table stays whole. *)
let drop_records (t : t) (nd : node) =
  Record.Table.drop t.s.records ~creator:nd.id (record_floor t ~creator:nd.id)

let rec forget v = function
  | [] -> []
  | x :: rest -> if x == v then rest else x :: forget v rest

let close_interval (t : t) fiber (nd : node) =
  match nd.x.dirty with
  | [] -> None
  | dirty ->
      (* Clear the dirty list before the first yield below: a co-located
         processor that writes (and re-twins) a page while this close is
         mid-loop must land its mark on the NEXT interval's list, not on
         the one a trailing [nd.x.dirty <- []] would wipe — that wipe
         silently dropped the write from every future diff. *)
      nd.x.dirty <- [];
      let ov = Paged.overhead t in
      nd.x.seq <- nd.x.seq + 1;
      nd.x.vc.(nd.id) <- nd.x.seq;
      let pages = List.sort Int.compare dirty in
      let vsum = Vc.sum nd.x.vc in
      List.iter
        (fun p ->
          let twin =
            match nd.x.twins.(p) with
            | Some tw -> tw
            | None -> failwith "close_interval: dirty page without twin"
          in
          let diff =
            Diff.make_stamped ~creator:nd.id ~seqno:nd.x.seq ~vsum ~page:p ~twin
              ~current:nd.mem ~base:(p * Memory.page_words)
              ~words:Memory.page_words
          in
          Engine.advance_as fiber Engine.Diff
            (ov.diff_per_word * Memory.page_words);
          if nd.x.own.(p) = [] then nd.x.logged <- p :: nd.x.logged;
          nd.x.own.(p) <- diff :: nd.x.own.(p);
          Counters.bump t.s.k_diffs_created 1;
          nd.x.twins.(p) <- None;
          if is_valid nd p then Bytes.set nd.rights p '\001';
          (applied_for_write t nd p).(nd.id) <- nd.x.seq)
        pages;
      if Option.is_none nd.ckpt && nd.x.seq mod prune_period = 0 then begin
        prune_own t nd;
        drop_records t nd
      end;
      let record = Record.make ~creator:nd.id ~seqno:nd.x.seq ~vsum ~pages in
      ignore (Record.Store.add nd.x.store record);
      nd.x.unsent_bytes <- nd.x.unsent_bytes + Record.bytes record;
      Counters.bump t.s.k_intervals 1;
      Some record

(* ------------------------------------------------------------------ *)
(* Eager release (paper Section 2.4.3)                                 *)

let eager_broadcast (t : t) fiber (nd : node) (record : Record.t) =
  let diffs =
    List.map
      (fun p ->
        List.find (fun (d : Diff.t) -> d.seqno = record.seqno) nd.x.own.(p))
      record.pages
  in
  let body = Proto.Eager_update { record; diffs } in
  for dst = 0 to t.n_nodes - 1 do
    if dst <> nd.id then send t fiber ~src:nd.id ~dst body
  done;
  Counters.incr t.counters "tmk.eager_broadcasts"

(* An eagerly shipped interval can arrive out of order relative to other
   intervals touching the same page — delivery latency grows with
   message size, and updates from successive lock holders come from
   different senders — so patching memory directly here could apply an
   older write over a newer one, or leave the page looking current while
   an earlier interval is still in flight (the page's [applied]
   high-water mark would then make a later lock grant skip its
   invalidation).  Instead an eager update is a write notice with its
   diffs prepaid: register the record (invalidating the page) and stash
   the diffs; the next access faults and applies everything pending in
   happened-before order — from the stash, with no remote fetch, when
   the stash covers it, which is the eager variant's latency win. *)
let apply_eager_update (t : t) fiber (nd : node) (record : Record.t) diffs =
  (* Two application processors co-located on one node can release
     back-to-back, and their broadcasts overtake each other on the wire:
     interval k+1 can land here before interval k.  Registering a gapped
     record would let a fault advance [applied] past the missing
     interval, after which its notice fails the staleness test forever
     and the diff is silently lost.  So: stash the diffs (the fault
     looks them up by exact (page, creator, seqno)), park the record in
     the store, and register only the contiguously-known prefix — the
     gap's registration happens when the overtaken message arrives.
     [register_records] is idempotent, so re-registering records that
     reached us first through a lock grant or barrier departure is
     harmless. *)
  let before = Record.Store.contiguous nd.x.store ~creator:record.creator in
  ignore (Record.Store.add nd.x.store record);
  List.iter
    (fun (d : Diff.t) ->
      if record.seqno > nd.x.applied.(d.page).(record.creator) then
        Hashtbl.replace nd.x.eager_diffs (d.page, record.creator, record.seqno) d)
    diffs;
  let hi = Record.Store.contiguous nd.x.store ~creator:record.creator in
  if hi > before then
    register_records t fiber nd
      (Record.Store.range nd.x.store ~creator:record.creator ~lo:before ~hi)

(* ------------------------------------------------------------------ *)
(* Page faults                                                         *)

let apply_diffs (t : t) fiber (nd : node) ~page items =
  let base = page * Memory.page_words and twin = nd.x.twins.(page) in
  let rec apply = function
    | [] -> ()
    | (d : Diff.t) :: rest ->
        Diff.apply d nd.mem ~base;
        (match twin with Some tw -> Diff.apply_to_twin d tw | None -> ());
        Engine.advance_as fiber Engine.Diff (apply_per_word * Diff.words d);
        Engine.instant fiber "tmk.diff-apply";
        if d.seqno > nd.x.applied.(page).(d.creator) then
          (applied_for_write t nd page).(d.creator) <- d.seqno;
        Counters.bump t.s.k_diffs_applied 1;
        apply rest
  in
  (* Apply in a linear extension of happened-before-1. *)
  apply (List.sort Diff.compare_linear items);
  if items <> [] then Paged.mark_changed nd page

(* A fault's middle, inside the shell's: fetch and apply the diffs of
   every pending notice, then validate the page unless more notices
   arrived meanwhile. *)
let fetch (t : t) fiber (nd : node) page ~write:_ =
  (* Needed notices, grouped by creator. *)
  let needed = Record.unapplied nd.x.applied.(page) nd.x.pending.(page) in
  let seqs_by_creator = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let c = Record.notice_creator k in
      let l =
        Option.value ~default:[] (Hashtbl.find_opt seqs_by_creator c)
      in
      Hashtbl.replace seqs_by_creator c (Record.notice_seqno k :: l))
    needed;
  (* Intervals whose diffs were eagerly shipped are served from the
     local stash.  A creator goes remote only if any of its needed
     intervals is missing there — the range request then covers all of
     them, so stashed and fetched diffs never double-apply.  Lazy
     release never stashes, so its creators all go remote. *)
  let stashed_items = ref [] in
  let by_creator = Hashtbl.create 4 in
  let eager = Hashtbl.length nd.x.eager_diffs > 0 in
  Hashtbl.iter
    (fun c seqs ->
      let stashed =
        if not eager then []
        else
          List.filter_map
            (fun s -> Hashtbl.find_opt nd.x.eager_diffs (page, c, s))
            seqs
      in
      if List.length stashed = List.length seqs then begin
        stashed_items := stashed @ !stashed_items;
        Counters.bump t.s.k_eager_applies (List.length stashed)
      end
      else Hashtbl.replace by_creator c (List.fold_left Int.max 0 seqs))
    seqs_by_creator;
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  let expected = Hashtbl.length by_creator in
  Hashtbl.iter
    (fun creator hi ->
      send t fiber ~src:nd.id ~dst:creator
        (Proto.Diff_req
           {
             page;
             requester = nd.id;
             req;
             lo = nd.x.applied.(page).(creator);
             hi;
           }))
    by_creator;
  let items = ref !stashed_items in
  for _ = 1 to expected do
    match Node.await fiber Engine.Net_wait mb with
    | Proto.Diff_resp { page = p; creator; diffs; _ } ->
        assert (p = page);
        List.iter
          (fun (d : Diff.t) ->
            let seqno = d.seqno in
            if Record.Store.mem nd.x.store ~creator ~seqno then
              items := d :: !items
            else
              let pend =
                String.concat ";"
                  (List.map
                     (fun k ->
                       Printf.sprintf "(%d,%d)" (Record.notice_creator k)
                         (Record.notice_seqno k))
                     nd.x.pending.(page))
              in
              let reqs =
                Hashtbl.fold
                  (fun c hi acc ->
                    Printf.sprintf "%d:(%d,%d] %s" c nd.x.applied.(page).(c) hi
                      acc)
                  by_creator ""
              in
              failwith
                (Printf.sprintf
                   "fault: node %d page %d: diff (creator %d, seq %d) \
                    unknown; vc=%s applied=%s contiguous=%d pending=%s \
                    reqs=%s"
                   nd.id page creator seqno
                   (Format.asprintf "%a" Vc.pp nd.x.vc)
                   (Format.asprintf "%a" Vc.pp nd.x.applied.(page))
                   (Record.Store.contiguous nd.x.store ~creator)
                   pend reqs))
          diffs
    | _ -> failwith "fault: unexpected response"
  done;
  apply_diffs t fiber nd ~page !items;
  if Hashtbl.length nd.x.eager_diffs > 0 then
    List.iter
      (fun k ->
        Hashtbl.remove nd.x.eager_diffs
          (page, Record.notice_creator k, Record.notice_seqno k))
      needed;
  (* Notices may have arrived while we were fetching; if any remain
     unapplied the page must stay invalid and fault again. *)
  nd.x.pending.(page) <- Record.unapplied nd.x.applied.(page) nd.x.pending.(page);
  if nd.x.pending.(page) = [] then begin
    (* Contents are final, then the TLB byte, then the hook: a hook that
       rebuilds derived state (platform caches) must observe both. *)
    validate nd page;
    t.page_hook ~node:nd.id ~page
  end;
  Node.finish nd.rt req

(* ------------------------------------------------------------------ *)
(* Write hits                                                          *)

(* The shell's write hit: the first write of an interval to a page twins
   it. *)
let ensure_twin (t : t) fiber (nd : node) page =
  match nd.x.twins.(page) with
  | Some _ -> ()
  | None ->
      (* First write of the interval: make the twin (a page memcpy). *)
      Engine.sync fiber;
      (* Re-check after the yield: a co-located processor may have made
         the twin (or even written through it) meanwhile. *)
      if nd.x.twins.(page) = None then begin
        let twin =
          Memory.sub_copy ~src:nd.mem ~pos:(page * Memory.page_words)
            ~len:Memory.page_words
        in
        Engine.advance_as fiber Engine.Twin
          ((Paged.overhead t).handler
          + (twin_copy_per_word * Memory.page_words));
        nd.x.twins.(page) <- Some twin;
        if is_valid nd page then Bytes.set nd.rights page '\002';
        nd.x.dirty <- page :: nd.x.dirty;
        Paged.mark_changed nd page;
        Counters.bump t.s.k_twins 1
      end

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

(* Grant the token of lock [l] from node [nd] to [requester]; the grant
   carries the interval records the requester lacks.  A requester on the
   same node (a co-located processor that requested through the manager
   before the token landed here) is served locally: the token stays and
   no message or notice is needed. *)
let send_grant (t : t) fiber (nd : node) ~lock ~requester ~req ~req_vc =
  if requester = nd.id then begin
    (* Reserve the lock for the local requester now, so no other
       co-located processor can slip in before it wakes. *)
    (lock_of t nd lock).in_use <- true;
    Paged.reply nd fiber ~req
      (Proto.Lock_grant { lock; req; vc = Vc.copy nd.x.vc; records = [] })
  end
  else begin
    let records = records_between nd ~vc_dst:req_vc in
    (lock_of t nd lock).has_token <- false;
    send t fiber ~src:nd.id ~dst:requester
      (Proto.Lock_grant { lock; req; vc = Vc.copy nd.x.vc; records })
  end

(* A forwarded request reaches the node currently at the distributed
   queue's tail: grant now if the token is here, idle, and no earlier
   request is queued (forwards must be served FIFO, or an immediate grant
   would carry the token away and orphan the queue), else queue. *)
let deliver_forward (t : t) fiber (nd : node) ~lock ~requester ~req ~req_vc =
  let ls = lock_of t nd lock in
  if ls.has_token && (not ls.in_use) && Queue.is_empty ls.remote_waiters then
    send_grant t fiber nd ~lock ~requester ~req ~req_vc
  else Queue.push (requester, req, req_vc) ls.remote_waiters

let handle_lock_req (t : t) fiber (nd : node) ~lock ~requester ~req ~req_vc =
  let ls = lock_of t nd lock in
  let previous_tail = ls.tail in
  ls.tail <- requester;
  if previous_tail = nd.id then
    deliver_forward t fiber nd ~lock ~requester ~req ~req_vc
  else
    send t fiber ~src:nd.id ~dst:previous_tail
      (Proto.Lock_forward { lock; requester; req; vc = req_vc })

let acquire (t : t) fiber ~node ~lock =
  Roles.check_lock t.s.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  let ls = lock_of t nd lock in
  while ls.in_use do
    Engine.with_category fiber Engine.Lock_wait (fun () ->
        Waitq.wait fiber ls.local_waiters)
  done;
  if ls.has_token then begin
    (* Token already on-node: no messages (paper Section 3.1). *)
    ls.in_use <- true;
    Engine.advance_as fiber Engine.Protocol local_lock_cycles;
    Counters.bump t.s.k_lock_local 1
  end
  else
    Engine.with_category fiber Engine.Protocol @@ fun () ->
    begin
    let req = Node.fresh nd.rt in
    let mb = Node.register nd.rt req in
    let vc = Vc.copy nd.x.vc in
    nd.x.asks <- vc :: nd.x.asks;
    let manager = Roles.lock_home t.s.roles lock in
    let body = Proto.Lock_req { lock; requester = nd.id; req; vc } in
    if manager = nd.id then
      (* Even a local request goes through the handler fiber: the manager's
         tail pointer and the forwards it emits must mutate in one logical
         order, and the handler (whose clock tracks its queue) is that
         order.  A direct call here could run with a lagging application
         clock and launch a forward that overtakes an earlier one on the
         wire, breaking the token chain. *)
      Reliable.loopback t.net fiber ~node:nd.id ~class_:(Proto.class_ body)
        ~size:(Proto.sizes body) body
    else send t fiber ~src:nd.id ~dst:manager body;
    (match Node.await fiber Engine.Lock_wait mb with
    | Proto.Lock_grant { vc = granter_vc; records; _ } ->
        register_records t fiber nd records;
        Vc.max_into ~into:nd.x.vc granter_vc;
        ls.has_token <- true;
        ls.in_use <- true
    | _ -> failwith "acquire: unexpected response");
    nd.x.asks <- forget vc nd.x.asks;
    Node.finish nd.rt req;
    Counters.bump t.s.k_lock_remote 1
  end

(* Eager-invalidate RC: broadcast the closing interval's write notice to
   every node and block until all acknowledge.  The acknowledgement wait
   is what keeps eagerly-delivered notices causally ordered (and is the
   latency conventional RC pays at every release). *)
let eager_notice_broadcast (t : t) fiber (nd : node) (record : Record.t) =
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  for dst = 0 to t.n_nodes - 1 do
    if dst <> nd.id then
      send t fiber ~src:nd.id ~dst
        (Proto.Eager_notice { record; requester = nd.id; req })
  done;
  for _ = 1 to t.n_nodes - 1 do
    match Node.await fiber Engine.Net_wait mb with
    | Proto.Eager_ack _ -> ()
    | _ -> failwith "eager release: unexpected response"
  done;
  Node.finish nd.rt req

let after_close (t : t) fiber (nd : node) ~lock closed =
  match closed with
  | None -> ()
  | Some record -> (
      match t.s.cfg.notice_policy with
      | Config.Eager_invalidate -> eager_notice_broadcast t fiber nd record
      | Config.Eager_update -> eager_broadcast t fiber nd record
      | Config.Lazy ->
          if
            match lock with
            | Some l -> List.mem l t.s.cfg.eager_locks
            | None -> false
          then eager_broadcast t fiber nd record)

let release (t : t) fiber ~node ~lock =
  Roles.check_lock t.s.roles lock;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let closed = close_interval t fiber nd in
  after_close t fiber nd ~lock:(Some lock) closed;
  let ls = lock_of t nd lock in
  if not ls.in_use then invalid_arg "Tmk.release: lock not held";
  ls.in_use <- false;
  Engine.advance fiber local_lock_cycles;
  if not (Waitq.wake_one ls.local_waiters ~at:(Engine.clock fiber)) then
    if ls.has_token && not (Queue.is_empty ls.remote_waiters) then begin
      let requester, req, req_vc = Queue.pop ls.remote_waiters in
      send_grant t fiber nd ~lock ~requester ~req ~req_vc
    end

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)

(* The closing arrival's episode, [arrivals] taken and cleared by
   [Roles.arrive] before the first yield: a node that receives its
   departure early can re-arrive for the next episode while we are still
   sending the remaining departures. *)
let send_departs (t : t) fiber (mgr : node) ~id arrivals =
  (* The episode's time is the join of the arrival snapshots.  The
     manager's own vector time is NOT merged at arrival: an arriver's
     clock can cover third-party intervals whose records only arrive with
     their creator, and inflating the manager's clock early would break
     the contiguity invariant for lock grants it makes meanwhile. *)
  let merged = Vc.create ~nodes:t.n_nodes in
  List.iter (fun (_, _, arr_vc) -> Vc.max_into ~into:merged arr_vc) arrivals;
  (* Sort the episode's records once, from the component-wise minimum of
     the arrival times up; each departure keeps, in that order, the ones
     its arriver lacks. *)
  let least = Vc.copy merged in
  List.iter
    (fun (_, _, arr_vc) ->
      Array.iteri (fun c v -> if v < least.(c) then least.(c) <- v) arr_vc)
    arrivals;
  let union = records_range mgr ~lo_vc:least ~hi_vc:merged in
  List.iter
    (fun (node, req, arr_vc) ->
      let records =
        List.filter (fun (r : Record.t) -> r.seqno > arr_vc.(r.creator)) union
      in
      let body = Proto.Barrier_depart { barrier = id; req; vc = merged; records } in
      if node = mgr.id then
        (* Local departure: no message. *)
        Paged.reply mgr fiber ~req body
      else send t fiber ~src:mgr.id ~dst:node body)
    arrivals

let note_arrival (t : t) fiber (mgr : node) ~id ~node ~req ~arr_vc ~records =
  (* Stash arrival records in the store (the departure ranges need them)
     but do NOT invalidate yet: arrivals trickle in causally incomplete,
     and a premature notice would let the manager's still-running
     application fault and apply diffs out of happened-before order.  The
     manager's own departure re-delivers the complete merged set and the
     invalidations happen there. *)
  List.iter (fun r -> ignore (Record.Store.add mgr.x.store r)) records;
  t.s.stash.(id) <- records @ t.s.stash.(id);
  match Roles.arrive t.s.roles ~id (node, req, arr_vc) with
  | [] -> ()
  | arrivals ->
      t.s.stash.(id) <- [];
      send_departs t fiber mgr ~id arrivals

let barrier_arrive (t : t) fiber ~node ~id =
  Roles.check_barrier t.s.roles id;
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let closed = close_interval t fiber nd in
  after_close t fiber nd ~lock:None closed;
  (* The own records below the floor are known everywhere: only their
     bytes travel. *)
  let own_records =
    Record.Store.range nd.x.store ~creator:nd.id
      ~lo:(Int.max nd.x.sent_to_manager (Record.Table.floor t.s.records nd.id))
      ~hi:nd.x.seq
  in
  let dropped_bytes = nd.x.unsent_bytes - Proto.records_bytes own_records in
  nd.x.sent_to_manager <- nd.x.seq;
  nd.x.unsent_bytes <- 0;
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  let mgr_id = Roles.barrier_home t.s.roles in
  let arr_vc = Vc.copy nd.x.vc in
  nd.x.asks <- arr_vc :: nd.x.asks;
  if mgr_id = nd.id then
    note_arrival t fiber t.nodes.(mgr_id) ~id ~node:nd.id ~req ~arr_vc
      ~records:own_records
  else
    send t fiber ~src:nd.id ~dst:mgr_id
      (Proto.Barrier_arrive
         {
           barrier = id;
           node = nd.id;
           req;
           vc = arr_vc;
           records = own_records;
           dropped_bytes;
         });
  (match Node.await fiber Engine.Barrier_wait mb with
  | Proto.Barrier_depart { vc; records; _ } ->
      register_records t fiber nd records;
      Vc.max_into ~into:nd.x.vc vc
  | _ -> failwith "barrier: unexpected response");
  nd.x.asks <- forget arr_vc nd.x.asks;
  Node.finish nd.rt req

(* ------------------------------------------------------------------ *)
(* Failure-atomic checkpoints and crash recovery (DESIGN.md §13)       *)

(* Bring the node's checkpoint image up to the live copy, touching only
   the pages that diverged since the previous checkpoint and, within a
   page, only the changed runs (the diff run-length encoding reused for
   persistence).  Runs from an [Engine.schedule] callback, so the scan
   cost is charged to the application. *)
let checkpoint (t : t) (nd : node) store =
  let ov = Paged.overhead t in
  let pw = Memory.page_words in
  let image = Checkpoint.image store in
  let persist p =
    let snap = own_vc t nd.x.snap.(p) in
    nd.x.snap.(p) <- snap;
    Array.blit nd.x.applied.(p) 0 snap 0 t.n_nodes;
    Ckpt.page_delta ~src:nd.mem ~src_base:(p * pw) ~image
      ~image_base:(p * pw) ~words:pw
  in
  (* An open twin means the application can keep writing the page
     without another protocol event: keep it marked. *)
  let keep p = nd.x.twins.(p) <> None in
  let bytes = Checkpoint.sweep store t.counters ~persist ~keep in
  nd.x.ckpt_seq <- nd.x.seq;
  (* Charge for the data the sweep persists, not for the pages it
     probes: dirty-run discovery rides the twin/diff machinery the
     protocol already pays for, so a twinned-but-idle page costs
     nothing beyond the sweep's fixed handler slice.  Charging a
     full per-word scan of every dirty-marked page compounds — a
     large working set keeps every twinned page perpetually dirty,
     the per-sweep scan outruns the checkpoint interval, and the
     run quasi-livelocks. *)
  Node.charge nd.rt (ov.handler + (ov.diff_per_word * ((bytes + 7) / 8)))

(* Online rejoin of a restarted node.  The volatile image survives the
   outage (the failure-atomic heap model), so nothing is rolled back;
   instead the node (1) replays onto the image each page's own diffs
   created since the last checkpoint, oldest first (seqno order), and
   (2) conservatively distrusts every foreign interval applied after the
   checkpoint: the page's applied vector rolls back to the snapshot, the
   write notices requeue and the page invalidates, so the next access
   re-fetches the diffs from their creators (served from the per-node
   logs, which are never pruned under a lifecycle; re-application is
   idempotent, so contents are unchanged). *)
let rejoin (t : t) (nd : node) store =
  let pw = Memory.page_words in
  let image = Checkpoint.image store in
  let replay_words = ref 0 in
  (* [own] is newest first: its entries past the checkpoint are a
     prefix, replayed from its far end. *)
  let rec replay p = function
    | (d : Diff.t) :: rest when d.seqno > nd.x.ckpt_seq ->
        replay p rest;
        Diff.apply d image ~base:(p * pw);
        replay_words := !replay_words + Diff.words d
    | _ -> ()
  in
  for p = 0 to t.n_pages - 1 do
    replay p nd.x.own.(p);
    if is_valid nd p && nd.x.twins.(p) = None && not (Node.fetching nd.rt p)
    then begin
      let snap = nd.x.snap.(p) in
      let stale = ref [] in
      for c = 0 to t.n_nodes - 1 do
        if c <> nd.id && nd.x.applied.(p).(c) > snap.(c) then begin
          List.iter
            (fun (r : Record.t) ->
              if List.mem p r.pages then
                stale := Record.notice ~creator:c ~seqno:r.seqno :: !stale)
            (Record.Store.range nd.x.store ~creator:c ~lo:snap.(c)
               ~hi:nd.x.applied.(p).(c));
          (applied_for_write t nd p).(c) <- snap.(c)
        end
      done;
      if !stale <> [] then begin
        List.iter
          (fun e ->
            if not (List.mem e nd.x.pending.(p)) then
              nd.x.pending.(p) <- e :: nd.x.pending.(p))
          !stale;
        invalidate nd p;
        t.page_hook ~node:nd.id ~page:p;
        Counters.incr t.counters "recovery.invalidated"
      end
    end
  done;
  let cycles =
    (Paged.overhead t).handler + t.n_pages
    + (apply_per_word * !replay_words)
  in
  Node.charge nd.rt cycles;
  Counters.incr t.counters "recovery.count";
  Counters.add t.counters "recovery.cycles" cycles;
  Counters.add t.counters "recovery.replay_bytes" (8 * !replay_words)

(* ------------------------------------------------------------------ *)
(* Message handler daemon                                              *)

let serve_diff_req (t : t) fiber (nd : node) ~page ~requester ~req ~lo ~hi
    ~in_size =
  (* Walk the page's own diffs newest first and stop at [lo]: the cost
     follows the diffs returned, not the width of the range. *)
  let rec collect acc = function
    | (d : Diff.t) :: rest when d.seqno > lo ->
        collect (if d.seqno <= hi then d :: acc else acc) rest
    | _ -> acc
  in
  let diffs = collect [] nd.x.own.(page) in
  let body = Proto.Diff_resp { page; req; creator = nd.id; diffs } in
  let size = Proto.sizes body in
  send_sized t fiber ~src:nd.id ~dst:requester ~size body;
  Node.charge nd.rt (serve_cost t ~in_size ~out_size:size ~replied:true)

(* The shell's serve: handler time for a request, charged back to the
   application once it is served; a diff request charges its reply
   too. *)
let handle (t : t) fiber (nd : node) (env : Proto.t Msg.envelope) =
  match env.body with
  | Proto.Lock_grant { req; _ } | Proto.Diff_resp { req; _ }
  | Proto.Barrier_depart { req; _ } | Proto.Eager_ack { req } ->
      (* Response for a blocked application fiber: route, no steal (the
         application is idle waiting for it anyway). *)
      Paged.reply nd fiber ~req env.body
  | Proto.Diff_req { page; requester; req; lo; hi } ->
      Engine.advance fiber (Paged.overhead t).handler;
      serve_diff_req t fiber nd ~page ~requester ~req ~lo ~hi ~in_size:env.size
  | body ->
      Engine.advance fiber (Paged.overhead t).handler;
      (match body with
      | Proto.Lock_req { lock; requester; req; vc } ->
          let home = Roles.lock_home t.s.roles lock in
          if Roles.stale t.s.roles ~self:nd.id home then
            send t fiber ~src:nd.id ~dst:home body
          else handle_lock_req t fiber nd ~lock ~requester ~req ~req_vc:vc
      | Proto.Lock_forward { lock; requester; req; vc } ->
          deliver_forward t fiber nd ~lock ~requester ~req ~req_vc:vc
      | Proto.Barrier_arrive { barrier; node; req; vc; records; _ } ->
          let home = Roles.barrier_home t.s.roles in
          if Roles.stale t.s.roles ~self:nd.id home then
            send t fiber ~src:nd.id ~dst:home body
          else
            note_arrival t fiber nd ~id:barrier ~node ~req ~arr_vc:vc ~records
      | Proto.Eager_update { record; diffs } ->
          apply_eager_update t fiber nd record diffs
      | Proto.Eager_notice { record; requester; req } ->
          register_records t fiber nd [ record ];
          send t fiber ~src:nd.id ~dst:requester (Proto.Eager_ack { req })
      | _ -> (* replies and diff requests, matched above *) ());
      Node.charge nd.rt
        (serve_cost t ~in_size:env.size ~out_size:zero_size ~replied:false)

(* Every lock re-homes, touched or not; a moved lock takes the
   distributed queue's tail along, and a moved barrier manager the open
   episodes' arrival records.  A lock the dead node holds no state for
   never left its static home's tail, which is what [lock_of] gives a
   node that has no state for it either, so only a successor that
   already holds state needs the tail set. *)
let move_roles (t : t) lc ~dead =
  Roles.rehome t.s.roles lc ~dead
    ~locks:(fun f ->
      for l = 0 to Shm_memsys.Hw_sync.max_locks - 1 do
        f l
      done)
    ~move_lock:(fun l ~succ ->
      match Node.Itbl.find_opt t.nodes.(dead).x.locks l with
      | Some ls -> (lock_of t t.nodes.(succ) l).tail <- ls.tail
      | None ->
          Option.iter
            (fun ls -> ls.tail <- Roles.static_home t.s.roles l)
            (Node.Itbl.find_opt t.nodes.(succ).x.locks l))
    ~move_barrier:(fun ~succ ->
      let store = t.nodes.(succ).x.store in
      Array.iter
        (List.iter (fun r -> ignore (Record.Store.add store r)))
        t.s.stash)
    ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let page_valid (t : t) ~node ~page = is_valid t.nodes.(node) page

let vc (t : t) ~node = Vc.copy t.nodes.(node).x.vc

let logged_diffs (t : t) ~node =
  Array.fold_left (fun n l -> n + List.length l) 0 t.nodes.(node).x.own

let lock_states (t : t) ~node = Node.Itbl.length t.nodes.(node).x.locks

let records_held (t : t) = Record.Table.held t.s.records

let node_words (t : t) ~node =
  let nd = t.nodes.(node) in
  let words o = Obj.reachable_words (Obj.repr o) in
  let shared = (t.s.records, t.s.zero_vc) in
  let state =
    (nd.x.vc, nd.x.store, nd.x.twins, nd.x.applied, nd.x.pending, nd.x.own,
     nd.x.logged, nd.rights)
  in
  (* Less the two tuples built here. *)
  words (shared, state) - words shared - 3 - (1 + Obj.size (Obj.repr state))

let check_invariants (t : t) =
  Array.iter
    (fun (nd : node) ->
      (* Own component equals own interval count. *)
      if nd.x.vc.(nd.id) <> nd.x.seq then
        failwith
          (Printf.sprintf "node %d: vc self %d <> seq %d" nd.id nd.x.vc.(nd.id)
             nd.x.seq);
      (* Vector components never exceed the creator's interval count. *)
      Array.iteri
        (fun c v ->
          if v > t.nodes.(c).x.seq then
            failwith
              (Printf.sprintf "node %d: vc.(%d)=%d beyond creator seq %d"
                 nd.id c v t.nodes.(c).x.seq))
        nd.x.vc;
      for p = 0 to t.n_pages - 1 do
        let valid = is_valid nd p and twin = nd.x.twins.(p) <> None in
        (* A valid page has no applicable pending notices. *)
        if valid then
          List.iter
            (fun k ->
              failwith
                (Printf.sprintf
                   "node %d: page %d valid with pending (%d,%d)" nd.id p
                   (Record.notice_creator k) (Record.notice_seqno k)))
            (Record.unapplied nd.x.applied.(p) nd.x.pending.(p));
        (* [register_records] queues a notice only on the record's first
           registration, which is sound only if no page ever holds a
           notice twice or one for a record the node does not know. *)
        let rec check_pending = function
          | [] -> ()
          | k :: rest ->
              let c = Record.notice_creator k and s = Record.notice_seqno k in
              if (match rest with k' :: _ -> k' = k | [] -> false) then
                failwith
                  (Printf.sprintf "node %d: page %d pending (%d,%d) twice"
                     nd.id p c s);
              if not (Record.Store.mem nd.x.store ~creator:c ~seqno:s) then
                failwith
                  (Printf.sprintf
                     "node %d: page %d pending (%d,%d) not in the store"
                     nd.id p c s);
              check_pending rest
        in
        check_pending (List.sort Int.compare nd.x.pending.(p));
        (* A valid page is writable exactly while it holds a twin (a
           single node's pages are always writable). *)
        if t.n_nodes > 1 && valid && (Bytes.get nd.rights p = '\002') <> twin
        then
          failwith
            (Printf.sprintf "node %d: page %d rights byte %d with twin=%b"
               nd.id p
               (Char.code (Bytes.get nd.rights p))
               twin);
        (* Twins exist exactly for pages dirty in the open interval. *)
        let dirty = List.mem p nd.x.dirty in
        if twin && not dirty then
          failwith
            (Printf.sprintf "node %d: page %d has twin but not dirty" nd.id p);
        if dirty && not twin then
          failwith
            (Printf.sprintf "node %d: page %d dirty without twin" nd.id p)
      done)
    t.nodes

(* ------------------------------------------------------------------ *)
(* The protocol the shell runs                                         *)

(* A page copy serves reads and writes while valid; the write hit then
   twins it.  Reads and writes count in one fault counter. *)
let protocol : (Proto.t, tnode, sys) Paged.protocol =
  {
    engine = "tmk";
    read_fault = "tmk.faults";
    write_fault = "tmk.faults";
    satisfied = (fun nd page ~write:_ -> is_valid nd page);
    read_hit = (fun _ _ -> ());
    write_hit = ensure_twin;
    fetch;
    serve = handle;
    acquire;
    release;
    barrier_arrive;
    checkpoint;
    rehome = move_roles;
    rejoin;
    check = check_invariants;
  }

(* Pages start valid everywhere.  A lifecycle on the fabric arms
   failure-atomic checkpointing: the shell gives every node a store, and
   every page gets an applied-vector snapshot so a rejoin knows which
   foreign intervals to distrust. *)
let create eng counters fabric cfg ~memories =
  Config.validate cfg;
  if Array.length memories <> cfg.Config.n_nodes then
    invalid_arg "Tmk.System.create: one memory per node required";
  let n = cfg.n_nodes in
  let zero_vc = Vc.create ~nodes:n in
  let records = Record.Table.create ~nodes:n in
  let armed = Option.is_some (Shm_net.Fabric.lifecycle fabric) in
  let key = Counters.key counters in
  Paged.create protocol eng counters fabric ~shared_words:cfg.shared_words
    ~memories ~rights:'\001'
    ~s:(fun _ ->
      {
        cfg;
        zero_vc;
        records;
        roles =
          Roles.create ~engine:"tmk" counters ~n_nodes:n
            ~barrier_home:cfg.barrier_manager ();
        stash = Array.make Shm_memsys.Hw_sync.max_barriers [];
        k_invalidations = key "tmk.invalidations";
        k_diffs_created = key "tmk.diffs_created";
        k_intervals = key "tmk.intervals";
        k_diffs_applied = key "tmk.diffs_applied";
        k_twins = key "tmk.twins";
        k_lock_local = key "tmk.lock_local";
        k_lock_remote = key "tmk.lock_remote";
        k_eager_applies = key "tmk.eager_applies";
      })
    ~x:(fun n_pages ->
      {
        vc = Vc.create ~nodes:n;
        seq = 0;
        store = Record.Store.create records;
        twins = Array.make n_pages None;
        applied = Array.make n_pages zero_vc;
        pending = Array.make n_pages [];
        own = Array.make n_pages [];
        logged = [];
        dirty = [];
        eager_diffs = Hashtbl.create 64;
        locks = Node.Itbl.create 8;
        sent_to_manager = 0;
        unsent_bytes = 0;
        asks = [];
        snap = (if armed then Array.make n_pages zero_vc else [||]);
        ckpt_seq = 0;
      })

let start = Paged.start
