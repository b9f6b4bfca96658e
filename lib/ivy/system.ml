module Engine = Shm_sim.Engine
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters
module Node = Shm_dsm.Node
module Checkpoint = Shm_dsm.Checkpoint
module Home = Shm_dsm.Home
module Roles = Shm_dsm.Roles
module Iset = Set.Make (Int)

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

type node = {
  id : int;
  mem : Memory.t;
  access : page_access array;
  rights : Bytes.t;
      (** software TLB mirroring [access]: ['\000'] Invalid, ['\001'] Read,
          ['\002'] Write — consulted by the platforms' fast paths. *)
  rt : Proto.t Node.t;
  ckpt : Checkpoint.t option;  (** checkpoint store; [None] = crash-free *)
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
  roles : (int * int) Roles.t;  (** barrier arrivals: (node, req) *)
  page_shift : int;  (** log2 page_words, or -1 if not a power of two *)
  mutable page_hook : node:int -> page:int -> unit;
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
  (match nd.ckpt with
  | Some c when a = Write -> Checkpoint.mark c page
  | Some _ | None -> ());
  Bytes.unsafe_set nd.rights page
    (match a with Invalid -> '\000' | Read -> '\001' | Write -> '\002')

let memory t ~node = t.nodes.(node).mem

let set_page_hook t f = t.page_hook <- f

let overhead t = Node.overhead t.net

let create eng counters fabric ~page_words ~shared_words ~memories =
  let n_nodes = Array.length memories in
  let n_pages = (shared_words + page_words - 1) / page_words in
  (* The initial owner (the manager) holds each page in Read like everyone
     else; ownership only matters once someone writes.  [Iset] is
     immutable, so every page shares the one full copyset. *)
  let everyone = Iset.of_list (List.init n_nodes Fun.id) in
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
            access = Array.make n_pages Read;
            rights =
              Bytes.make n_pages (if n_nodes = 1 then '\002' else '\001');
            rt = Node.create eng ~engine:"ivy";
            ckpt =
              Option.map
                (fun _ ->
                  Checkpoint.create memories.(id) ~pages:n_pages ~page_words)
                (Shm_net.Fabric.lifecycle fabric);
          });
    home =
      Home.create ~engine:"ivy" ~n_nodes ~n_pages (fun page ->
          { owner = page mod n_nodes; copyset = everyone; acks_waited = 0 });
    roles = Roles.create counters ~n_nodes ~barrier_counter:"ivy.barriers" ();
    page_shift = Node.page_shift page_words;
    page_hook = (fun ~node:_ ~page:_ -> ());
  }

let install_page t fiber nd page data =
  Node.install nd.mem ~page_words:t.page_words page data;
  Option.iter (fun c -> Checkpoint.mark c page) nd.ckpt;
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
  match txn.kind with
  | Read ->
      deliver t fiber ~src:mgr ~dst:mp.owner
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
            deliver t fiber ~src:mgr ~dst
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
                 (Home.busy t.home page) mp.acks_waited
                 (Home.queued t.home page);
           })

and mgr_proceed_write t fiber mgr page =
  let mp = Home.page t.home page in
  match Home.current t.home page with
  | Some { requester; req; _ } ->
      if mp.owner = requester then
        (* Ownership upgrade: the requester already holds the data. *)
        deliver t fiber ~src:mgr ~dst:requester
          (Proto.Page_grant { page; req; data = None })
      else
        deliver t fiber ~src:mgr ~dst:mp.owner
          (Proto.Write_fwd { page; requester; req })
  | None -> failwith "ivy: write proceed without transaction"

(* ---------------- message dispatch --------------------------------- *)

and dispatch t fiber nd ~src body =
  ignore src;
  match body with
  | Proto.Read_req { page; requester; req } ->
      let txn = { kind = Read; requester; req } in
      if Home.request t.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Write_req { page; requester; req } ->
      let txn = { kind = Write; requester; req } in
      if Home.request t.home page txn then mgr_start_txn t fiber nd.id page txn
  | Proto.Read_fwd { page; requester; req } ->
      (* We are the owner: downgrade and ship a copy. *)
      if nd.access.(page) = Write then set_access nd page Read;
      Engine.advance fiber t.page_words;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_copy
           {
             page;
             req;
             data = Node.page_data nd.mem ~page_words:t.page_words page;
           });
      Counters.incr t.counters "ivy.page_copies"
  | Proto.Write_fwd { page; requester; req } ->
      (* We are the owner: ship the page with ownership and drop it. *)
      Engine.advance fiber t.page_words;
      let data = Some (Node.page_data nd.mem ~page_words:t.page_words page) in
      set_access nd page Invalid;
      deliver t fiber ~src:nd.id ~dst:requester
        (Proto.Page_grant { page; req; data });
      Counters.incr t.counters "ivy.page_transfers"
  | Proto.Invalidate { page; req } ->
      set_access nd page Invalid;
      Engine.instant fiber "ivy.invalidate";
      deliver t fiber ~src:nd.id ~dst:(Home.manager t.home page)
        (Proto.Inval_ack { page; req })
  | Proto.Inval_ack { page; _ } ->
      let mp = Home.page t.home page in
      mp.acks_waited <- mp.acks_waited - 1;
      if mp.acks_waited = 0 then mgr_proceed_write t fiber nd.id page
  | Proto.Txn_done { page; requester; write } -> (
      let mp = Home.page t.home page in
      if write = 1 then begin
        mp.owner <- requester;
        mp.copyset <- Iset.singleton requester
      end
      else mp.copyset <- Iset.add requester mp.copyset;
      match Home.txn_done t.home page with
      | Some txn -> mgr_start_txn t fiber nd.id page txn
      | None -> ())
  | Proto.Lock_req { lock; requester; req } ->
      let home = Roles.lock_home t.roles lock in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else if Home.lock_req (Home.lock t.home lock) ~requester ~req then
        deliver t fiber ~src:nd.id ~dst:requester
          (Proto.Lock_grant { lock; req })
  | Proto.Unlock { lock; _ } -> (
      let home = Roles.lock_home t.roles lock in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else
        match Home.unlock (Home.lock t.home lock) ~stamp:0 with
        | Some (requester, req) ->
            deliver t fiber ~src:nd.id ~dst:requester
              (Proto.Lock_grant { lock; req })
        | None -> ())
  | Proto.Barrier_arrive { barrier; node; req } ->
      let home = Roles.barrier_home t.roles in
      if Roles.stale t.roles ~self:nd.id home then
        deliver t fiber ~src:nd.id ~dst:home body
      else begin
        match Roles.arrive t.roles ~id:barrier (node, req) with
        | [] -> ()
        | departs ->
            List.iter
              (fun (dst, dreq) ->
                deliver t fiber ~src:nd.id ~dst
                  (Proto.Barrier_depart { barrier; req = dreq }))
              departs
      end
  | Proto.Page_copy { req; _ } | Proto.Page_grant { req; _ }
  | Proto.Lock_grant { req; _ } | Proto.Barrier_depart { req; _ } ->
      Node.route nd.rt ~req body ~at:(Engine.clock fiber)

let serve t fiber id (env : Proto.t Msg.envelope) =
  Node.serve_step t.nodes.(id).rt fiber (overhead t)
    ~reply:(Proto.is_reply env.body);
  dispatch t fiber t.nodes.(id) ~src:env.src env.body

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* Page-granular failure-atomic checkpoint: whole dirty pages copy into
   the image (IVY moves whole pages, so it persists whole pages —
   contrast the TreadMarks sub-page run-length deltas).  Runs from an
   [Engine.schedule] callback; cost charged to the application. *)
let checkpoint t nd =
  match nd.ckpt with
  | None -> ()
  | Some store ->
      let pw = t.page_words in
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
      let keep p = nd.access.(p) = Write in
      ignore (Checkpoint.sweep store t.counters ~persist ~keep : int);
      Node.charge nd.rt ((overhead t).handler + !copied)

(* Online rejoin of a restarted node: every page it neither owns nor has
   a transaction in flight for is conservatively invalidated, so the
   next access re-fetches a fresh copy through the (sequentially
   consistent) manager.  Owned pages are authoritative — the volatile
   copy survives the outage under the failure-atomic heap model — and
   invalidating them would strand the directory. *)
let rejoin t nd =
  match nd.ckpt with
  | None -> ()
  | Some _ ->
      for p = 0 to t.n_pages - 1 do
        if nd.access.(p) <> Invalid && not (Node.fetching nd.rt p) then begin
          let ours =
            (Home.page t.home p).owner = nd.id
            ||
            match Home.current t.home p with
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
      Node.charge nd.rt cycles;
      Counters.incr t.counters "recovery.count";
      Counters.add t.counters "recovery.cycles" cycles

let start t =
  Reliable.start t.net;
  Node.on_lifecycle t.net ~nodes:t.n_nodes
    ~checkpoint:(fun id -> checkpoint t t.nodes.(id))
    ~rehome:(fun lc ~dead ->
      Roles.rehome t.roles lc ~dead ~locks:(Home.iter_locks t.home) ())
    ~rejoin:(fun id -> rejoin t t.nodes.(id));
  Node.spawn_handlers t.eng t.net ~engine:"ivy" ~nodes:t.n_nodes
    (fun fiber id env -> serve t fiber id env)

let retx_note t = Reliable.pending_note t.net

(* ---------------- application-facing operations -------------------- *)

let satisfied nd page ~write =
  match nd.access.(page) with
  | Write -> true
  | Read -> not write
  | Invalid -> false

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
      (if write then "ivy.write_faults" else "ivy.read_faults");
    Engine.instant fiber "ivy.fault";
    Engine.advance fiber (overhead t).handler;
    let req = Node.fresh nd.rt in
    let mb = Node.register nd.rt req in
    let mgr = Home.manager t.home page in
    let body =
      if write then Proto.Write_req { page; requester = nd.id; req }
      else Proto.Read_req { page; requester = nd.id; req }
    in
    deliver t fiber ~src:nd.id ~dst:mgr body;
    (match Node.await fiber Engine.Net_wait mb with
    | Proto.Page_copy { data; _ } ->
        install_page t fiber nd page data;
        set_access nd page Read
    | Proto.Page_grant { data; _ } ->
        Option.iter (install_page t fiber nd page) data;
        set_access nd page Write
    | _ -> failwith "ivy: unexpected fault response");
    deliver t fiber ~src:nd.id ~dst:mgr
      (Proto.Txn_done
         { page; requester = nd.id; write = (if write then 1 else 0) });
    Node.finish nd.rt req;
    Node.end_fetch nd.rt fiber page wq
  end

let[@inline] read_page t nd fiber page =
  while nd.access.(page) = Invalid do
    fault t fiber nd page ~write:false
  done

let[@inline] write_page t nd fiber page =
  while nd.access.(page) <> Write do
    fault t fiber nd page ~write:true
  done

let read_guard t fiber ~node addr =
  if t.n_nodes > 1 then read_page t t.nodes.(node) fiber (page_of t addr)

(* A single process never write-protects pages. *)
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
  | Proto.Lock_grant _ -> ()
  | _ -> failwith "ivy: unexpected lock response");
  Node.finish nd.rt req;
  Counters.incr t.counters "ivy.lock_acquires"

let release t fiber ~node ~lock =
  Node.sync t.nodes.(node).rt fiber;
  Engine.with_category fiber Engine.Protocol (fun () ->
      deliver t fiber ~src:node ~dst:(Roles.lock_home t.roles lock)
        (Proto.Unlock { lock; requester = node }))

let barrier_arrive t fiber ~node ~id =
  let nd = t.nodes.(node) in
  Node.sync nd.rt fiber;
  Engine.with_category fiber Engine.Protocol @@ fun () ->
  let req = Node.fresh nd.rt in
  let mb = Node.register nd.rt req in
  deliver t fiber ~src:node ~dst:(Roles.barrier_home t.roles)
    (Proto.Barrier_arrive { barrier = id; node; req });
  (match Node.await fiber Engine.Barrier_wait mb with
  | Proto.Barrier_depart _ -> ()
  | _ -> failwith "ivy: unexpected barrier response");
  Node.finish nd.rt req

let check_invariants t =
  Home.check_drained t.home;
  for page = 0 to t.n_pages - 1 do
    let mp = Home.page t.home page in
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
                (Printf.sprintf "ivy: page %d copy at %d not in copyset" page
                   nd.id)
        | Write ->
            if nd.id <> mp.owner then
              failwith
                (Printf.sprintf "ivy: page %d writer %d is not owner %d" page
                   nd.id mp.owner))
      t.nodes
  done
