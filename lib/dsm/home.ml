(* The home manager of a page-based DSM with a static home per page
   ([page mod n_nodes]), shared by IVY and Tardis: per-page transaction
   serialization and the queued lock manager.  Where a lock's manager
   and the barrier manager live, the counting barrier and their
   re-homing after a crash are {!Roles}, shared with TreadMarks.  The
   managers are pure state machines: they say who to grant, and the
   engine sends its own messages. *)

(* The engine's protocol-state error, printed as [<engine>.Proto_error].
   Raised when a message violates the manager's state machine, carrying
   the page, the requesting node, the manager node and a rendered state,
   so a bug surfaced under a chaos schedule is diagnosable from the
   exception alone. *)
module Error (E : sig
  val engine : string
end) =
struct
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
               "%s.Proto_error: page %d, requester %d, manager %d: %s" E.engine
               page requester manager state)
      | _ -> None)
end

(* A home page: the engine's record plus the transaction serializer.  At
   most one transaction per page is [current] (the page is busy); later
   ones queue. *)
type ('txn, 'page) slot = {
  data : 'page;
  mutable current : 'txn option;
  waiting : 'txn Queue.t;
}

type lock = {
  mutable held : bool;
  mutable stamp : int;  (** highest release stamp so far *)
  waiters : (int * int) Queue.t;  (** (requester, req), FIFO *)
}

type ('txn, 'page) t = {
  engine : string;
  n_nodes : int;
  n_pages : int;
  homes : ('txn, 'page) slot array array;
      (** [homes.(page mod n_nodes).(page / n_nodes)]: each node's home
          pages, densely *)
  locks : (int, lock) Hashtbl.t;  (** built on first request *)
}

let create ~engine ~n_nodes ~n_pages make =
  {
    engine;
    n_nodes;
    n_pages;
    homes =
      Array.init n_nodes (fun m ->
          Array.init
            (max 0 ((n_pages - m + n_nodes - 1) / n_nodes))
            (fun k ->
              {
                data = make (m + (k * n_nodes));
                current = None;
                waiting = Queue.create ();
              }));
    locks = Hashtbl.create 16;
  }

(* ---------------- per-page transaction serialization --------------- *)

(* The page directory is deliberately NOT re-homed on a crash: requests
   to a down manager stall in the senders' retransmit queues until it
   restarts (a documented deviation — see DESIGN.md §13).  Locks and the
   barrier do re-home ({!Roles.rehome}). *)
let[@inline] manager h page = page mod h.n_nodes

let[@inline] slot h page = h.homes.(page mod h.n_nodes).(page / h.n_nodes)

let page h page = (slot h page).data

let busy h page = (slot h page).current <> None

let current h page = (slot h page).current

let queued h page = Queue.length (slot h page).waiting

(* [request h page txn]: [true] when the page was idle and [txn] is now
   its current transaction (the caller starts it); [false] when queued. *)
let request h page txn =
  let s = slot h page in
  match s.current with
  | Some _ ->
      Queue.push txn s.waiting;
      false
  | None ->
      s.current <- Some txn;
      true

(* [txn_done h page]: the current transaction finished; the next queued
   one, if any, becomes current and is returned for the caller to
   start. *)
let txn_done h page =
  let s = slot h page in
  let next = Queue.take_opt s.waiting in
  s.current <- next;
  next

(* ---------------- lock manager ------------------------------------- *)

(* [Hashtbl.find], not [find_opt]: a lock or unlock message allocates no
   option. *)
let lock h l =
  match Hashtbl.find h.locks l with
  | ml -> ml
  | exception Not_found ->
      let ml = { held = false; stamp = 0; waiters = Queue.create () } in
      Hashtbl.add h.locks l ml;
      ml

(* [lock_req ml ~requester ~req]: [true] when the lock was free and is
   now granted (the grant carries [ml.stamp]); [false] when queued. *)
let lock_req ml ~requester ~req =
  if ml.held then begin
    Queue.push (requester, req) ml.waiters;
    false
  end
  else begin
    ml.held <- true;
    true
  end

(* [unlock ml ~stamp]: fold the release stamp in, then hand the lock to
   the oldest waiter, returned for the caller to grant, or free it. *)
let unlock ml ~stamp =
  if stamp > ml.stamp then ml.stamp <- stamp;
  match Queue.take_opt ml.waiters with
  | Some _ as next -> next
  | None ->
      ml.held <- false;
      None

(* The locks that have a manager record: the ones IVY and Tardis
   re-home. *)
let iter_locks h f = Hashtbl.iter (fun l _ -> f l) h.locks

(* ---------------- end-of-run check --------------------------------- *)

(* Every transaction drained and no lock queue stranded behind a free
   lock. *)
let check_drained h =
  for p = 0 to h.n_pages - 1 do
    let s = slot h p in
    if s.current <> None then
      failwith
        (Printf.sprintf "%s: page %d transaction never drained" h.engine p);
    if not (Queue.is_empty s.waiting) then
      failwith
        (Printf.sprintf "%s: page %d idle with %d queued transactions"
           h.engine p (Queue.length s.waiting))
  done;
  Hashtbl.iter
    (fun l ml ->
      if (not ml.held) && not (Queue.is_empty ml.waiters) then
        failwith
          (Printf.sprintf "%s: lock %d free with %d queued requests" h.engine
             l (Queue.length ml.waiters)))
    h.locks
