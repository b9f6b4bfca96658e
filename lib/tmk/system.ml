module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Waitq = Shm_sim.Waitq
module Fabric = Shm_net.Fabric
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Lifecycle = Shm_sim.Lifecycle

type page_state = {
  mutable valid : bool;
  mutable twin : Memory.t option;  (** present iff writable *)
  applied : Vc.t;  (** per-creator highest interval reflected in our copy *)
  mutable pending : (int * int) list;  (** (creator, seqno) notices awaiting diffs *)
}

type lock_state = {
  mutable has_token : bool;
  mutable in_use : bool;
  remote_waiters : (int * int * Vc.t) Queue.t;  (** (node, req, vc) *)
  local_waiters : Waitq.t;
  (* Manager-side distributed-queue tail; meaningful only at the lock's
     manager node. *)
  mutable tail : int;
}

type recov = {
  image : Memory.t;
      (** failure-atomic checkpoint image of the node's shared region *)
  snap : Vc.t array;  (** per-page applied vector at the last checkpoint *)
  mutable ckpt_seq : int;  (** own interval count at the last checkpoint *)
  ckpt_dirty : Bytes.t;  (** pages touched since the last checkpoint *)
}

type node = {
  id : int;
  mem : Memory.t;
  vc : Vc.t;
  mutable seq : int;  (** own interval counter, = vc.(id) *)
  store : Record.Store.t;
  pages : page_state array;
  rights : Bytes.t;
      (** software TLB: one byte per page, ['\000'] = guard must fault,
          ['\001'] = readable, ['\002'] = readable and writable (twin in
          place, or single node).  Derived from [pages]; consulted by the
          platforms' fast paths to skip the guard call entirely. *)
  mutable dirty : int list;  (** pages dirtied in the open interval *)
  own_diffs : (int * int, Diff.t) Hashtbl.t;  (** (page, seqno) -> diff *)
  eager_diffs : (int * int * int, Diff.t) Hashtbl.t;
      (** (page, creator, seqno) -> eagerly shipped diff, not yet applied *)
  locks : lock_state array;
  pending_reqs : (int, Proto.t Mailbox.t) Hashtbl.t;
  mutable next_req : int;
  mutable sent_to_manager : int;  (** own seq already pushed to barrier mgr *)
  inflight : (int, Waitq.t) Hashtbl.t;  (** page -> fibers awaiting its fetch *)
  steal : int ref;  (** handler CPU cycles to charge the application *)
  mutable recov : recov option;  (** checkpoint state; [None] = crash-free *)
}

type barrier_state = {
  mutable arrivals : (int * int * Vc.t) list;
  mutable stash : Record.t list;
      (** arrival records of the open episode; copied to a successor's
          store when the barrier manager is re-homed after a crash *)
}

type t = {
  eng : Engine.t;
  counters : Counters.t;
  net : Proto.t Reliable.t;
  cfg : Config.t;
  nodes : node array;
  barriers : barrier_state array;
  page_shift : int;  (** log2 page_words, or -1 if not a power of two *)
  mutable page_hook : node:int -> page:int -> unit;
  lock_home : int array;
      (** current manager of each lock; starts at [Config.manager_of] and
          moves to a surviving node when the manager crashes *)
  mutable barrier_home : int;  (** current barrier manager, likewise *)
  lifecycle : Lifecycle.t option;
}

let config t = t.cfg

let memory t ~node = t.nodes.(node).mem

let set_page_hook t f = t.page_hook <- f

let page_of t addr =
  if t.page_shift >= 0 then addr lsr t.page_shift
  else addr / t.cfg.page_words

let page_shift t = t.page_shift

let access_rights t ~node = t.nodes.(node).rights

(* Recompute the TLB byte for one page from its protocol state.  Must be
   called after every transition of [valid] or [twin]. *)
let update_rights t nd page =
  let st = nd.pages.(page) in
  Bytes.unsafe_set nd.rights page
    (if not st.valid then '\000'
     else if st.twin <> None || t.cfg.n_nodes = 1 then '\002'
     else '\001')

let overhead t = (Fabric.config (Reliable.fabric t.net)).Fabric.overhead

(* Record that a page's contents diverged from the checkpoint image.
   Free when checkpointing is off ([recov = None], the crash-free case). *)
let mark_ckpt_dirty nd page =
  match nd.recov with
  | None -> ()
  | Some rv -> Bytes.unsafe_set rv.ckpt_dirty page '\001'

let create ?lifecycle eng counters fabric cfg ~memories =
  Config.validate cfg;
  if Array.length memories <> cfg.n_nodes then
    invalid_arg "Tmk.System.create: one memory per node required";
  let n = cfg.n_nodes in
  let mk_lock lock node_id =
    let manager = Config.manager_of cfg lock in
    {
      has_token = node_id = manager;
      in_use = false;
      remote_waiters = Queue.create ();
      local_waiters = Waitq.create eng;
      tail = manager;
    }
  in
  let mk_node id =
    {
      id;
      mem = memories.(id);
      vc = Vc.create ~nodes:n;
      seq = 0;
      store = Record.Store.create ~nodes:n;
      pages =
        Array.init (Config.n_pages cfg) (fun _ ->
            { valid = true; twin = None; applied = Vc.create ~nodes:n;
              pending = [] });
      rights =
        (* Pages start valid everywhere; a single node never twins. *)
        Bytes.make (Config.n_pages cfg) (if n = 1 then '\002' else '\001');
      dirty = [];
      own_diffs = Hashtbl.create 256;
      eager_diffs = Hashtbl.create 64;
      locks = Array.init cfg.n_locks (fun l -> mk_lock l id);
      pending_reqs = Hashtbl.create 16;
      next_req = 0;
      sent_to_manager = 0;
      inflight = Hashtbl.create 8;
      steal = ref 0;
      recov = None;
    }
  in
  let pw = cfg.page_words in
  let page_shift =
    if pw > 0 && pw land (pw - 1) = 0 then
      let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
      go 0 pw
    else -1
  in
  let t =
    {
      eng;
      counters;
      net = Reliable.create eng counters fabric;
      cfg;
      nodes = Array.init n mk_node;
      barriers =
        Array.init cfg.n_barriers (fun _ -> { arrivals = []; stash = [] });
      page_shift;
      page_hook = (fun ~node:_ ~page:_ -> ());
      lock_home = Array.init cfg.n_locks (Config.manager_of cfg);
      barrier_home = cfg.barrier_manager;
      lifecycle;
    }
  in
  (match lifecycle with
  | None -> ()
  | Some _ ->
      (* Crash detection and transient loss share the reliable channel:
         a packet to a down peer reports the suspected death once
         ([net.reliable.peer_down]) and then parks its timer at the
         peer's restart instead of aborting, with the backoff exponent
         capped so delivery resumes promptly. *)
      Reliable.set_policy t.net
        {
          Reliable.default_policy with
          Reliable.backoff_cap = 6;
          on_peer_down = Some (fun ~src:_ ~dst:_ ~attempts:_ -> ());
        };
      (* Arm failure-atomic checkpointing: one image per node, seeded
         from the initial memory, plus per-page applied-vector snapshots
         so a rejoin knows which foreign intervals to distrust. *)
      let words = Config.n_pages cfg * cfg.page_words in
      Array.iter
        (fun nd ->
          let image = Memory.create ~words in
          Memory.blit ~src:nd.mem ~src_pos:0 ~dst:image ~dst_pos:0 ~len:words;
          nd.recov <-
            Some
              {
                image;
                snap =
                  Array.init (Config.n_pages cfg) (fun _ ->
                      Vc.create ~nodes:n);
                ckpt_seq = 0;
                ckpt_dirty = Bytes.make (Config.n_pages cfg) '\000';
              })
        t.nodes);
  t

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let fresh_req nd =
  let r = nd.next_req in
  nd.next_req <- r + 1;
  r

let register_req t nd req =
  let mb = Mailbox.create t.eng in
  Hashtbl.replace nd.pending_reqs req mb;
  mb

let finish_req nd req = Hashtbl.remove nd.pending_reqs req

let drain_steal fiber nd =
  let s = !(nd.steal) in
  if s > 0 then begin
    nd.steal := 0;
    (* Handler CPU time charged to the application is protocol overhead. *)
    Engine.with_category fiber Engine.Protocol (fun () ->
        Engine.advance fiber s)
  end

(* Optional protocol tracing for debugging: set TMKDBG_PAGE / TMKDBG_LOCK
   to a page or lock id to stream that object's protocol events to
   stderr (twins, closes, notices, diff applications; requests, forwards,
   grants, releases). *)
let debug_page =
  match Sys.getenv_opt "TMKDBG_PAGE" with
  | Some v -> int_of_string v
  | None -> -1

let debug_lock =
  match Sys.getenv_opt "TMKDBG_LOCK" with
  | Some v -> int_of_string v
  | None -> -1

let send t fiber ~src ~dst body =
  Reliable.send t.net fiber ~src ~dst ~class_:(Proto.class_ body)
    ~size:(Proto.sizes body) body

(* CPU cycles a node spends serving a request, charged to its application
   fiber via [steal] (on a uniprocessor node the handler and the
   application share the CPU). *)
let serve_cost t ~in_size ~out_size ~replied =
  let ov = overhead t in
  let words (s : Msg.sizes) = (s.consistency_bytes + s.payload_bytes + 7) / 8 in
  ov.fixed_recv + ov.handler + (ov.per_word * words in_size)
  + if replied then ov.fixed_send + (ov.per_word * words out_size) else 0

let zero_size = Msg.sizes ()

(* ------------------------------------------------------------------ *)
(* Write-notice registration and invalidation                          *)

(* Register foreign interval records: remember them, queue per-page
   notices, and invalidate affected valid pages. *)
let register_records t fiber nd records =
  List.iter
    (fun (r : Record.t) ->
      ignore (Record.Store.add nd.store r);
      if r.creator <> nd.id then
        List.iter
          (fun p ->
            let st = nd.pages.(p) in
            (* The record may already be in the store (the barrier manager
               stashes arrival records before its own departure), so the
               notice test must not depend on store freshness. *)
            if
              r.seqno > st.applied.(r.creator)
              && not (List.mem (r.creator, r.seqno) st.pending)
            then begin
              st.pending <- (r.creator, r.seqno) :: st.pending;
              if st.valid then begin
                st.valid <- false;
                update_rights t nd p;
                Counters.incr t.counters "tmk.invalidations";
                Engine.instant fiber "tmk.invalidate"
              end
            end)
          r.pages)
    records

(* Records with [lo_vc.(c) < seqno <= hi_vc.(c)], oldest first.  The
   caller's store must cover [hi_vc] (the contiguity invariant: a node's
   vector time never advances past its contiguously-known records). *)
let records_range nd ~lo_vc ~hi_vc =
  let n = Vc.nodes lo_vc in
  let acc = ref [] in
  for c = 0 to n - 1 do
    let lo = lo_vc.(c) and hi = hi_vc.(c) in
    if hi > lo then
      acc := Record.Store.range nd.store ~creator:c ~lo ~hi @ !acc
  done;
  List.sort
    (fun a b -> compare (Record.linear_key a) (Record.linear_key b))
    !acc

(* Records the destination lacks, relative to our own vector time. *)
let records_between nd ~vc_dst = records_range nd ~lo_vc:vc_dst ~hi_vc:nd.vc

(* ------------------------------------------------------------------ *)
(* Interval closing and diff creation                                  *)

let close_interval t fiber nd =
  match nd.dirty with
  | [] -> None
  | dirty ->
      (* Clear the dirty list before the first yield below: a co-located
         processor that writes (and re-twins) a page while this close is
         mid-loop must land its mark on the NEXT interval's list, not on
         the one a trailing [nd.dirty <- []] would wipe — that wipe
         silently dropped the write from every future diff. *)
      nd.dirty <- [];
      let ov = overhead t in
      nd.seq <- nd.seq + 1;
      nd.vc.(nd.id) <- nd.seq;
      let pages = List.sort compare dirty in
      if List.mem debug_page pages then
        Printf.eprintf "node %d closes interval %d with page %d vc=%s\n" nd.id
          nd.seq debug_page
          (Format.asprintf "%a" Vc.pp nd.vc);
      List.iter
        (fun p ->
          let st = nd.pages.(p) in
          let twin =
            match st.twin with
            | Some tw -> tw
            | None -> failwith "close_interval: dirty page without twin"
          in
          let diff =
            Diff.make ~page:p ~twin ~current:nd.mem
              ~base:(p * t.cfg.page_words) ~words:t.cfg.page_words
          in
          Engine.with_category fiber Engine.Diff (fun () ->
              Engine.advance fiber (ov.diff_per_word * t.cfg.page_words));
          Hashtbl.replace nd.own_diffs (p, nd.seq) diff;
          Counters.incr t.counters "tmk.diffs_created";
          st.twin <- None;
          update_rights t nd p;
          st.applied.(nd.id) <- nd.seq)
        pages;
      let record =
        { Record.creator = nd.id; seqno = nd.seq; vc = Vc.copy nd.vc; pages }
      in
      ignore (Record.Store.add nd.store record);
      Counters.incr t.counters "tmk.intervals";
      Some record

(* ------------------------------------------------------------------ *)
(* Eager release (paper Section 2.4.3)                                 *)

let eager_broadcast t fiber nd (record : Record.t) =
  let diffs =
    List.map (fun p -> Hashtbl.find nd.own_diffs (p, record.seqno)) record.pages
  in
  let body = Proto.Eager_update { record; diffs } in
  for dst = 0 to t.cfg.n_nodes - 1 do
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
let apply_eager_update t fiber nd (record : Record.t) diffs =
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
  let before = Record.Store.contiguous nd.store ~creator:record.creator in
  ignore (Record.Store.add nd.store record);
  List.iter
    (fun (d : Diff.t) ->
      if record.seqno > nd.pages.(d.Diff.page).applied.(record.creator) then
        Hashtbl.replace nd.eager_diffs
          (d.Diff.page, record.creator, record.seqno)
          d)
    diffs;
  let hi = Record.Store.contiguous nd.store ~creator:record.creator in
  if hi > before then
    register_records t fiber nd
      (Record.Store.range nd.store ~creator:record.creator ~lo:before ~hi)

(* ------------------------------------------------------------------ *)
(* Page faults                                                         *)

let apply_diffs t fiber nd ~page items =
  (* [items]: (record, diff) pairs; apply in a linear extension of
     happened-before-1. *)
  let items =
    List.sort
      (fun ((a : Record.t), _) (b, _) ->
        compare (Record.linear_key a) (Record.linear_key b))
      items
  in
  let st = nd.pages.(page) in
  let base = page * t.cfg.page_words in
  List.iter
    (fun ((r : Record.t), (d : Diff.t)) ->
      if page = debug_page then begin
        let words =
          String.concat ","
            (List.concat_map
               (fun (run : Diff.run) ->
                 List.init (Array.length run.words) (fun k ->
                     Printf.sprintf "%d=%Ld" (run.offset + k) run.words.(k)))
               d.runs)
        in
        Printf.eprintf "node %d applies (%d,%d) page %d: %s\n" nd.id r.creator
          r.seqno page words
      end;
      Diff.apply d nd.mem ~base;
      Option.iter (Diff.apply_to_twin d) st.twin;
      Engine.with_category fiber Engine.Diff (fun () ->
          Engine.advance fiber (t.cfg.apply_per_word * Diff.words d));
      Engine.instant fiber "tmk.diff-apply";
      if r.seqno > st.applied.(r.creator) then
        st.applied.(r.creator) <- r.seqno;
      Counters.incr t.counters "tmk.diffs_applied")
    items;
  if items <> [] then mark_ckpt_dirty nd page

let fault t fiber nd page =
  Engine.sync fiber;
  drain_steal fiber nd;
  let st = nd.pages.(page) in
  let rec wait_if_inflight () =
    match Hashtbl.find_opt nd.inflight page with
    | Some wq when not st.valid ->
        (* Another co-located processor is fetching this page. *)
        Engine.with_category fiber Engine.Net_wait (fun () ->
            Waitq.wait fiber wq);
        wait_if_inflight ()
    | Some _ | None -> ()
  in
  wait_if_inflight ();
  if not st.valid then
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  begin
    let wq = Waitq.create t.eng in
    Hashtbl.replace nd.inflight page wq;
    Counters.incr t.counters "tmk.faults";
    Engine.instant fiber "tmk.fault";
    Engine.advance fiber (overhead t).handler;
    (* Needed notices, grouped by creator. *)
    let needed =
      List.filter (fun (c, s) -> s > st.applied.(c)) st.pending
    in
    let seqs_by_creator = Hashtbl.create 4 in
    List.iter
      (fun (c, s) ->
        let l =
          Option.value ~default:[] (Hashtbl.find_opt seqs_by_creator c)
        in
        Hashtbl.replace seqs_by_creator c (s :: l))
      needed;
    (* Intervals whose diffs were eagerly shipped are served from the
       local stash.  A creator goes remote only if any of its needed
       intervals is missing there — the range request then covers all of
       them, so stashed and fetched diffs never double-apply. *)
    let stashed_items = ref [] in
    let by_creator = Hashtbl.create 4 in
    Hashtbl.iter
      (fun c seqs ->
        let stashed =
          List.filter_map
            (fun s ->
              match
                ( Hashtbl.find_opt nd.eager_diffs (page, c, s),
                  Record.Store.find nd.store ~creator:c ~seqno:s )
              with
              | Some d, Some r -> Some (r, d)
              | _ -> None)
            seqs
        in
        if List.length stashed = List.length seqs then begin
          stashed_items := stashed @ !stashed_items;
          Counters.add t.counters "tmk.eager_applies" (List.length stashed)
        end
        else Hashtbl.replace by_creator c (List.fold_left max 0 seqs))
      seqs_by_creator;
    let req = fresh_req nd in
    let mb = register_req t nd req in
    let expected = Hashtbl.length by_creator in
    Hashtbl.iter
      (fun creator hi ->
        if page = debug_page then
          Printf.eprintf "[%d] node %d fault page %d: req to %d (%d,%d]\n"
            (Engine.clock fiber) nd.id page creator st.applied.(creator) hi;
        send t fiber ~src:nd.id ~dst:creator
          (Proto.Diff_req
             { page; requester = nd.id; req; lo = st.applied.(creator); hi }))
      by_creator;
    let items = ref !stashed_items in
    for _ = 1 to expected do
      match
        Engine.with_category fiber Engine.Net_wait (fun () ->
            Mailbox.recv fiber mb)
      with
      | Proto.Diff_resp { page = p; creator; diffs; _ } ->
          assert (p = page);
          List.iter
            (fun (seqno, diff) ->
              match Record.Store.find nd.store ~creator ~seqno with
              | Some record -> items := (record, diff) :: !items
              | None ->
                  let pend =
                    String.concat ";"
                      (List.map
                         (fun (c, s) -> Printf.sprintf "(%d,%d)" c s)
                         st.pending)
                  in
                  let reqs =
                    Hashtbl.fold
                      (fun c hi acc ->
                        Printf.sprintf "%d:(%d,%d] %s" c st.applied.(c) hi acc)
                      by_creator ""
                  in
                  failwith
                    (Printf.sprintf
                       "fault: node %d page %d: diff (creator %d, seq %d) \
                        unknown; vc=%s applied=%s contiguous=%d pending=%s \
                        reqs=%s"
                       nd.id page creator seqno
                       (Format.asprintf "%a" Vc.pp nd.vc)
                       (Format.asprintf "%a" Vc.pp st.applied)
                       (Record.Store.contiguous nd.store ~creator)
                       pend reqs))
            diffs
      | _ -> failwith "fault: unexpected response"
    done;
    apply_diffs t fiber nd ~page !items;
    List.iter (fun (c, s) -> Hashtbl.remove nd.eager_diffs (page, c, s)) needed;
    (* Notices may have arrived while we were fetching; if any remain
       unapplied the page must stay invalid and fault again. *)
    st.pending <- List.filter (fun (c, s) -> s > st.applied.(c)) st.pending;
    if st.pending = [] then begin
      st.valid <- true;
      (* Contents are final, then the TLB byte, then the hook: a hook that
         rebuilds derived state (platform caches) must observe both. *)
      update_rights t nd page;
      t.page_hook ~node:nd.id ~page
    end;
    Hashtbl.remove nd.inflight page;
    finish_req nd req;
    ignore (Waitq.wake_all wq ~at:(Engine.clock fiber))
  end

(* ------------------------------------------------------------------ *)
(* Access guards                                                       *)

let read_guard t fiber ~node addr =
  let nd = t.nodes.(node) in
  let page = page_of t addr in
  let st = nd.pages.(page) in
  while not st.valid do
    fault t fiber nd page
  done

let ensure_twin t fiber nd page (st : page_state) =
  match st.twin with
  | Some _ -> ()
  | None when t.cfg.n_nodes = 1 ->
      (* A single process never write-protects pages: no twins, no diffs. *)
      ()
  | None ->
      (* First write of the interval: make the twin (a page memcpy). *)
      Engine.sync fiber;
      (* Re-check after the yield: a co-located processor may have made
         the twin (or even written through it) meanwhile. *)
      if st.twin = None then begin
        let base = page * t.cfg.page_words in
        let twin = Memory.create ~words:t.cfg.page_words in
        Memory.blit ~src:nd.mem ~src_pos:base ~dst:twin ~dst_pos:0
          ~len:t.cfg.page_words;
        if page = debug_page then
          Printf.eprintf "node %d twins page %d (c4=%d, seq=%d)\n" nd.id page
            (Memory.get_int nd.mem (base + 4)) nd.seq;
        Engine.with_category fiber Engine.Twin (fun () ->
            Engine.advance fiber
              ((overhead t).handler
              + (t.cfg.twin_copy_per_word * t.cfg.page_words)));
        st.twin <- Some twin;
        update_rights t nd page;
        nd.dirty <- page :: nd.dirty;
        mark_ckpt_dirty nd page;
        Counters.incr t.counters "tmk.twins"
      end

let write_guard t fiber ~node addr =
  let nd = t.nodes.(node) in
  let page = page_of t addr in
  let st = nd.pages.(page) in
  while not st.valid do
    fault t fiber nd page
  done;
  ensure_twin t fiber nd page st

(* Range guards: guard each page overlapping [addr, addr+words) exactly
   once, in address order, handing each in-page run to [f run_addr
   run_words] as soon as that page's guard completes.  Interleaving data
   movement page by page (rather than guarding the whole range up front)
   is what makes the range observably identical to the per-word loop: a
   fault's yield can let the handler rewrite {e later} pages (eager
   updates), and those must be re-examined when reached, exactly as the
   per-word sequence would.  Within one page run neither the guard's
   valid-check nor [f] may yield, so no transition can interpose — the
   same argument that makes the per-word guard/access pair atomic. *)

let read_range_guard t fiber ~node addr words ~f =
  let nd = t.nodes.(node) in
  let pw = t.cfg.page_words in
  let stop = addr + words in
  let a = ref addr in
  while !a < stop do
    let page = page_of t !a in
    let run = min ((page + 1) * pw) stop - !a in
    let st = nd.pages.(page) in
    while not st.valid do
      fault t fiber nd page
    done;
    f !a run;
    a := !a + run
  done

let write_range_guard t fiber ~node addr words ~f =
  let nd = t.nodes.(node) in
  let pw = t.cfg.page_words in
  let stop = addr + words in
  let a = ref addr in
  while !a < stop do
    let page = page_of t !a in
    let run = min ((page + 1) * pw) stop - !a in
    let st = nd.pages.(page) in
    while not st.valid do
      fault t fiber nd page
    done;
    ensure_twin t fiber nd page st;
    f !a run;
    a := !a + run
  done

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

(* Grant the token of lock [l] from node [nd] to [requester]; the grant
   carries the interval records the requester lacks.  A requester on the
   same node (a co-located processor that requested through the manager
   before the token landed here) is served locally: the token stays and
   no message or notice is needed. *)
let send_grant t fiber nd ~lock ~requester ~req ~req_vc =
  if lock = debug_lock then
    Printf.eprintf "[%d] node %d GRANT lock %d to %d (req %d)\n"
      (Engine.clock fiber) nd.id lock requester req;
  if requester = nd.id then begin
    (* Reserve the lock for the local requester now, so no other
       co-located processor can slip in before it wakes. *)
    nd.locks.(lock).in_use <- true;
    let body = Proto.Lock_grant { lock; req; vc = Vc.copy nd.vc; records = [] } in
    match Hashtbl.find_opt nd.pending_reqs req with
    | Some mb -> Mailbox.post mb ~at:(Engine.clock fiber) body
    | None -> failwith "send_grant: local requester vanished"
  end
  else begin
    let records = records_between nd ~vc_dst:req_vc in
    nd.locks.(lock).has_token <- false;
    send t fiber ~src:nd.id ~dst:requester
      (Proto.Lock_grant { lock; req; vc = Vc.copy nd.vc; records })
  end

(* A forwarded request reaches the node currently at the distributed
   queue's tail: grant now if the token is here, idle, and no earlier
   request is queued (forwards must be served FIFO, or an immediate grant
   would carry the token away and orphan the queue), else queue. *)
let deliver_forward t fiber nd ~lock ~requester ~req ~req_vc =
  let ls = nd.locks.(lock) in
  if lock = debug_lock then
    Printf.eprintf
      "[%d] node %d FORWARD lock %d for %d (req %d): token=%b in_use=%b q=%d\n"
      (Engine.clock fiber) nd.id lock requester req ls.has_token ls.in_use
      (Queue.length ls.remote_waiters);
  if ls.has_token && (not ls.in_use) && Queue.is_empty ls.remote_waiters then
    send_grant t fiber nd ~lock ~requester ~req ~req_vc
  else Queue.push (requester, req, req_vc) ls.remote_waiters

let handle_lock_req t fiber nd ~lock ~requester ~req ~req_vc =
  let ls = nd.locks.(lock) in
  let previous_tail = ls.tail in
  if lock = debug_lock then
    Printf.eprintf "[%d] node %d MGRREQ lock %d from %d (req %d) tail %d->%d\n"
      (Engine.clock fiber) nd.id lock requester req previous_tail requester;
  ls.tail <- requester;
  if previous_tail = nd.id then
    deliver_forward t fiber nd ~lock ~requester ~req ~req_vc
  else
    send t fiber ~src:nd.id ~dst:previous_tail
      (Proto.Lock_forward { lock; requester; req; vc = req_vc })

let acquire t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  let ls = nd.locks.(lock) in
  while ls.in_use do
    Engine.with_category fiber Engine.Lock_wait (fun () ->
        Waitq.wait fiber ls.local_waiters)
  done;
  if ls.has_token then begin
    (* Token already on-node: no messages (paper Section 3.1). *)
    if lock = debug_lock then
      Printf.eprintf "[%d] node %d LOCAL lock %d\n" (Engine.clock fiber)
        nd.id lock;
    ls.in_use <- true;
    Engine.with_category fiber Engine.Protocol (fun () ->
        Engine.advance fiber t.cfg.local_lock_cycles);
    Counters.incr t.counters "tmk.lock_local"
  end
  else
    Engine.with_category fiber Engine.Protocol @@ fun () ->
    begin
    let req = fresh_req nd in
    let mb = register_req t nd req in
    let vc = Vc.copy nd.vc in
    let manager = t.lock_home.(lock) in
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
    (match
       Engine.with_category fiber Engine.Lock_wait (fun () ->
           Mailbox.recv fiber mb)
     with
    | Proto.Lock_grant { vc = granter_vc; records; _ } ->
        if lock = debug_lock then
          Printf.eprintf "[%d] node %d GOT lock %d (req %d)\n"
            (Engine.clock fiber) nd.id lock req;
        register_records t fiber nd records;
        Vc.max_into ~into:nd.vc granter_vc;
        ls.has_token <- true;
        ls.in_use <- true
    | _ -> failwith "acquire: unexpected response");
    finish_req nd req;
    Counters.incr t.counters "tmk.lock_remote"
  end

(* Eager-invalidate RC: broadcast the closing interval's write notice to
   every node and block until all acknowledge.  The acknowledgement wait
   is what keeps eagerly-delivered notices causally ordered (and is the
   latency conventional RC pays at every release). *)
let eager_notice_broadcast t fiber nd (record : Record.t) =
  let req = fresh_req nd in
  let mb = register_req t nd req in
  for dst = 0 to t.cfg.n_nodes - 1 do
    if dst <> nd.id then
      send t fiber ~src:nd.id ~dst
        (Proto.Eager_notice { record; requester = nd.id; req })
  done;
  for _ = 1 to t.cfg.n_nodes - 1 do
    match
      Engine.with_category fiber Engine.Net_wait (fun () ->
          Mailbox.recv fiber mb)
    with
    | Proto.Eager_ack _ -> ()
    | _ -> failwith "eager release: unexpected response"
  done;
  finish_req nd req

let after_close t fiber nd ~lock closed =
  match closed with
  | None -> ()
  | Some record -> (
      match t.cfg.notice_policy with
      | Config.Eager_invalidate -> eager_notice_broadcast t fiber nd record
      | Config.Eager_update -> eager_broadcast t fiber nd record
      | Config.Lazy ->
          if
            match lock with
            | Some l -> List.mem l t.cfg.eager_locks
            | None -> false
          then eager_broadcast t fiber nd record)

let release t fiber ~node ~lock =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let closed = close_interval t fiber nd in
  after_close t fiber nd ~lock:(Some lock) closed;
  let ls = nd.locks.(lock) in
  if not ls.in_use then invalid_arg "Tmk.release: lock not held";
  if lock = debug_lock then
    Printf.eprintf "[%d] node %d RELEASE lock %d: token=%b q=%d localq=%d\n"
      (Engine.clock fiber) nd.id lock ls.has_token
      (Queue.length ls.remote_waiters)
      (Waitq.waiting ls.local_waiters);
  ls.in_use <- false;
  Engine.advance fiber t.cfg.local_lock_cycles;
  if not (Waitq.wake_one ls.local_waiters ~at:(Engine.clock fiber)) then
    if ls.has_token && not (Queue.is_empty ls.remote_waiters) then begin
      let requester, req, req_vc = Queue.pop ls.remote_waiters in
      send_grant t fiber nd ~lock ~requester ~req ~req_vc
    end

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)

let send_departs t fiber mgr ~id =
  let b = t.barriers.(id) in
  (* Snapshot and clear before the first yield: a node that receives its
     departure early can re-arrive for the next episode while we are still
     sending the remaining departures. *)
  let arrivals = b.arrivals in
  b.arrivals <- [];
  b.stash <- [];
  (* The episode's time is the join of the arrival snapshots.  The
     manager's own vector time is NOT merged at arrival: an arriver's
     clock can cover third-party intervals whose records only arrive with
     their creator, and inflating the manager's clock early would break
     the contiguity invariant for lock grants it makes meanwhile. *)
  let merged = Vc.create ~nodes:t.cfg.n_nodes in
  List.iter (fun (_, _, arr_vc) -> Vc.max_into ~into:merged arr_vc) arrivals;
  List.iter
    (fun (node, req, arr_vc) ->
      let records = records_range mgr ~lo_vc:arr_vc ~hi_vc:merged in
      let body = Proto.Barrier_depart { barrier = id; req; vc = merged; records } in
      if node = mgr.id then
        (* Local departure: no message. *)
        match Hashtbl.find_opt mgr.pending_reqs req with
        | Some mb -> Mailbox.post mb ~at:(Engine.clock fiber) body
        | None -> failwith "barrier: missing local arrival mailbox"
      else send t fiber ~src:mgr.id ~dst:node body)
    arrivals;
  Counters.incr t.counters "tmk.barriers"

let note_arrival t fiber mgr ~id ~node ~req ~arr_vc ~records =
  let b = t.barriers.(id) in
  (* Stash arrival records in the store (the departure ranges need them)
     but do NOT invalidate yet: arrivals trickle in causally incomplete,
     and a premature notice would let the manager's still-running
     application fault and apply diffs out of happened-before order.  The
     manager's own departure re-delivers the complete merged set and the
     invalidations happen there. *)
  List.iter (fun r -> ignore (Record.Store.add mgr.store r)) records;
  b.stash <- records @ b.stash;
  b.arrivals <- (node, req, arr_vc) :: b.arrivals;
  if List.length b.arrivals = t.cfg.n_nodes then send_departs t fiber mgr ~id

let barrier_arrive t fiber ~node ~id =
  let nd = t.nodes.(node) in
  Engine.sync fiber;
  drain_steal fiber nd;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let closed = close_interval t fiber nd in
  after_close t fiber nd ~lock:None closed;
  let own_records =
    Record.Store.range nd.store ~creator:nd.id ~lo:nd.sent_to_manager ~hi:nd.seq
  in
  nd.sent_to_manager <- nd.seq;
  let req = fresh_req nd in
  let mb = register_req t nd req in
  let mgr_id = t.barrier_home in
  let arr_vc = Vc.copy nd.vc in
  if mgr_id = nd.id then
    note_arrival t fiber t.nodes.(mgr_id) ~id ~node:nd.id ~req ~arr_vc
      ~records:own_records
  else
    send t fiber ~src:nd.id ~dst:mgr_id
      (Proto.Barrier_arrive
         { barrier = id; node = nd.id; req; vc = arr_vc; records = own_records });
  (match
     Engine.with_category fiber Engine.Barrier_wait (fun () ->
         Mailbox.recv fiber mb)
   with
  | Proto.Barrier_depart { vc; records; _ } ->
      register_records t fiber nd records;
      Vc.max_into ~into:nd.vc vc
  | _ -> failwith "barrier: unexpected response");
  finish_req nd req

(* ------------------------------------------------------------------ *)
(* Failure-atomic checkpoints and crash recovery (DESIGN.md §13)       *)

(* Bring the node's checkpoint image up to the live copy, touching only
   the pages that diverged since the previous checkpoint and, within a
   page, only the changed runs (the diff run-length encoding reused for
   persistence).  Runs from an [Engine.schedule] callback, so the scan
   cost is charged through [steal]. *)
let checkpoint t nd =
  match nd.recov with
  | None -> ()
  | Some rv ->
      let ov = overhead t in
      let pw = t.cfg.page_words in
      let bytes = ref 0 in
      Array.iteri
        (fun p st ->
          if Bytes.get rv.ckpt_dirty p <> '\000' then begin
            bytes :=
              !bytes
              + Ckpt.page_delta ~src:nd.mem ~src_base:(p * pw) ~image:rv.image
                  ~image_base:(p * pw) ~words:pw;
            Array.blit st.applied 0 rv.snap.(p) 0 t.cfg.n_nodes;
            (* An open twin means the application can keep writing the
               page without another protocol event: keep it dirty. *)
            if st.twin = None then Bytes.set rv.ckpt_dirty p '\000'
          end)
        nd.pages;
      rv.ckpt_seq <- nd.seq;
      (* Charge for the data the sweep persists, not for the pages it
         probes: dirty-run discovery rides the twin/diff machinery the
         protocol already pays for, so a twinned-but-idle page costs
         nothing beyond the sweep's fixed handler slice.  Charging a
         full per-word scan of every dirty-marked page compounds — a
         large working set keeps every twinned page perpetually dirty,
         the per-sweep scan outruns the checkpoint interval, and the
         run quasi-livelocks. *)
      nd.steal :=
        !(nd.steal) + ov.handler + (ov.diff_per_word * ((!bytes + 7) / 8));
      Counters.incr t.counters "ckpt.count";
      Counters.add t.counters "ckpt.bytes" !bytes

(* Online rejoin of a restarted node.  The volatile image survives the
   outage (the failure-atomic heap model), so nothing is rolled back;
   instead the node (1) replays its own diff log — the WAL — since the
   last checkpoint onto the image, and (2) conservatively distrusts
   every foreign interval applied after the checkpoint: the page's
   applied vector rolls back to the snapshot, the write notices requeue
   and the page invalidates, so the next access re-fetches the diffs
   from their creators (served from the never-pruned per-node logs;
   re-application is idempotent, so contents are unchanged). *)
let rejoin t nd =
  match nd.recov with
  | None -> ()
  | Some rv ->
      let pw = t.cfg.page_words in
      let replay_words = ref 0 in
      Hashtbl.iter
        (fun (p, seqno) (d : Diff.t) ->
          if seqno > rv.ckpt_seq then begin
            Diff.apply d rv.image ~base:(p * pw);
            replay_words := !replay_words + Diff.words d
          end)
        nd.own_diffs;
      Array.iteri
        (fun p st ->
          if st.valid && st.twin = None && not (Hashtbl.mem nd.inflight p)
          then begin
            let snap = rv.snap.(p) in
            let stale = ref [] in
            for c = 0 to t.cfg.n_nodes - 1 do
              if c <> nd.id && st.applied.(c) > snap.(c) then begin
                List.iter
                  (fun (r : Record.t) ->
                    if List.mem p r.pages then stale := (c, r.seqno) :: !stale)
                  (Record.Store.range nd.store ~creator:c ~lo:snap.(c)
                     ~hi:st.applied.(c));
                st.applied.(c) <- snap.(c)
              end
            done;
            if !stale <> [] then begin
              List.iter
                (fun e ->
                  if not (List.mem e st.pending) then
                    st.pending <- e :: st.pending)
                !stale;
              st.valid <- false;
              update_rights t nd p;
              t.page_hook ~node:nd.id ~page:p;
              Counters.incr t.counters "recovery.invalidated"
            end
          end)
        nd.pages;
      let cycles =
        (overhead t).handler + Config.n_pages t.cfg
        + (t.cfg.apply_per_word * !replay_words)
      in
      nd.steal := !(nd.steal) + cycles;
      Counters.incr t.counters "recovery.count";
      Counters.add t.counters "recovery.cycles" cycles;
      Counters.add t.counters "recovery.replay_bytes" (8 * !replay_words)

(* Re-home manager state owned by a crashed node onto the next surviving
   node: lock queue tails (the replicated directory) and the barrier
   manager role with its stashed arrival records.  Requests already in
   flight — or parked in a peer's retransmit queue — still name the dead
   node; its handler forwards them to the new home after restart. *)
let rehome t lc ~dead =
  let n = t.cfg.n_nodes in
  let successor =
    let rec go k =
      if k >= n then None
      else
        let c = (dead + k) mod n in
        if Lifecycle.alive lc c then Some c else go (k + 1)
    in
    go 1
  in
  match successor with
  | None -> ()
  | Some s ->
      let moved = ref 0 in
      Array.iteri
        (fun l home ->
          if home = dead then begin
            t.lock_home.(l) <- s;
            t.nodes.(s).locks.(l).tail <- t.nodes.(dead).locks.(l).tail;
            incr moved
          end)
        t.lock_home;
      if t.barrier_home = dead then begin
        t.barrier_home <- s;
        Array.iter
          (fun b ->
            List.iter
              (fun r -> ignore (Record.Store.add t.nodes.(s).store r))
              b.stash)
          t.barriers;
        incr moved
      end;
      if !moved > 0 then Counters.add t.counters "recovery.rehomes" !moved

(* ------------------------------------------------------------------ *)
(* Message handler daemon                                              *)

let serve_diff_req t fiber nd ~page ~requester ~req ~lo ~hi ~in_size =
  let diffs = ref [] in
  for seqno = hi downto lo + 1 do
    match Hashtbl.find_opt nd.own_diffs (page, seqno) with
    | Some d -> diffs := (seqno, d) :: !diffs
    | None -> ()
  done;
  let body =
    Proto.Diff_resp { page; req; creator = nd.id; diffs = !diffs }
  in
  send t fiber ~src:nd.id ~dst:requester body;
  nd.steal :=
    !(nd.steal)
    + serve_cost t ~in_size ~out_size:(Proto.sizes body) ~replied:true

let route_response t nd ~req body ~at =
  ignore t;
  match Hashtbl.find_opt nd.pending_reqs req with
  | Some mb -> Mailbox.post mb ~at body
  | None -> failwith "route_response: no pending request"

let handle t fiber nd (env : Proto.t Msg.envelope) =
  let in_size = env.size in
  let steal_simple () =
    nd.steal := !(nd.steal) + serve_cost t ~in_size ~out_size:zero_size ~replied:false
  in
  match env.body with
  | Proto.Lock_req { lock; requester; req; vc } as body ->
      Engine.advance fiber (overhead t).handler;
      if t.lock_home.(lock) <> nd.id then begin
        (* Stale destination: we managed this lock before a crash
           re-homed it (the request outlived the outage in a peer's
           retransmit queue).  Forward to the current home. *)
        Counters.incr t.counters "recovery.forwards";
        send t fiber ~src:nd.id ~dst:t.lock_home.(lock) body
      end
      else handle_lock_req t fiber nd ~lock ~requester ~req ~req_vc:vc;
      steal_simple ()
  | Proto.Lock_forward { lock; requester; req; vc } ->
      Engine.advance fiber (overhead t).handler;
      deliver_forward t fiber nd ~lock ~requester ~req ~req_vc:vc;
      steal_simple ()
  | Proto.Diff_req { page; requester; req; lo; hi } ->
      Engine.advance fiber (overhead t).handler;
      serve_diff_req t fiber nd ~page ~requester ~req ~lo ~hi ~in_size
  | Proto.Barrier_arrive { barrier; node; req; vc; records } as body ->
      Engine.advance fiber (overhead t).handler;
      if t.barrier_home <> nd.id then begin
        Counters.incr t.counters "recovery.forwards";
        send t fiber ~src:nd.id ~dst:t.barrier_home body
      end
      else note_arrival t fiber nd ~id:barrier ~node ~req ~arr_vc:vc ~records;
      steal_simple ()
  | Proto.Eager_update { record; diffs } ->
      Engine.advance fiber (overhead t).handler;
      apply_eager_update t fiber nd record diffs;
      steal_simple ()
  | Proto.Eager_notice { record; requester; req } ->
      Engine.advance fiber (overhead t).handler;
      register_records t fiber nd [ record ];
      send t fiber ~src:nd.id ~dst:requester (Proto.Eager_ack { req });
      steal_simple ()
  | Proto.Lock_grant { req; _ } | Proto.Diff_resp { req; _ }
  | Proto.Barrier_depart { req; _ } | Proto.Eager_ack { req } ->
      (* Response for a blocked application fiber: route, no steal (the
         application is idle waiting for it anyway). *)
      route_response t nd ~req env.body ~at:(Engine.clock fiber)

let handler_loop t nd fiber =
  let rec loop () =
    let env =
      Engine.with_category fiber Engine.Net_wait (fun () ->
          Reliable.recv t.net fiber ~node:nd.id)
    in
    Engine.with_category fiber Engine.Protocol (fun () ->
        handle t fiber nd env);
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
           ~name:(Printf.sprintf "tmk-handler-%d" nd.id)
           ~at:0
           (fun fiber -> handler_loop t nd fiber)))
    t.nodes

let retx_note t = Reliable.pending_note t.net

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let page_valid t ~node ~page = t.nodes.(node).pages.(page).valid

let vc t ~node = Vc.copy t.nodes.(node).vc

let check_invariants t =
  Array.iter
    (fun nd ->
      (* Own component equals own interval count. *)
      if nd.vc.(nd.id) <> nd.seq then
        failwith
          (Printf.sprintf "node %d: vc self %d <> seq %d" nd.id nd.vc.(nd.id)
             nd.seq);
      (* Vector components never exceed the creator's interval count. *)
      Array.iteri
        (fun c v ->
          if v > t.nodes.(c).seq then
            failwith
              (Printf.sprintf "node %d: vc.(%d)=%d beyond creator seq %d"
                 nd.id c v t.nodes.(c).seq))
        nd.vc;
      Array.iteri
        (fun p st ->
          (* A valid page has no applicable pending notices. *)
          if st.valid then
            List.iter
              (fun (c, s) ->
                if s > st.applied.(c) then
                  failwith
                    (Printf.sprintf
                       "node %d: page %d valid with pending (%d,%d)" nd.id p c
                       s))
              st.pending;
          (* The TLB byte is a pure function of the page state. *)
          let expect =
            if not st.valid then '\000'
            else if st.twin <> None || t.cfg.n_nodes = 1 then '\002'
            else '\001'
          in
          if Bytes.get nd.rights p <> expect then
            failwith
              (Printf.sprintf
                 "node %d: page %d rights byte %d, expected %d (valid=%b \
                  twin=%b)"
                 nd.id p
                 (Char.code (Bytes.get nd.rights p))
                 (Char.code expect) st.valid (st.twin <> None));
          (* Twins exist exactly for pages dirty in the open interval. *)
          let dirty = List.mem p nd.dirty in
          match st.twin with
          | Some _ when not dirty ->
              failwith
                (Printf.sprintf "node %d: page %d has twin but not dirty"
                   nd.id p)
          | None when dirty ->
              failwith
                (Printf.sprintf "node %d: page %d dirty without twin" nd.id p)
          | Some _ | None -> ())
        nd.pages)
    t.nodes
