module Engine = Shm_sim.Engine
module Waitq = Shm_sim.Waitq

type access = {
  rmw : Engine.fiber -> cpu:int -> int -> (int64 -> int64) -> int64;
  read : Engine.fiber -> cpu:int -> int -> unit;
}

let max_locks = 1024
let max_barriers = 16
let region_words = max_locks + (2 * max_barriers)

type t = {
  eng : Engine.t;
  access : access;
  base : int;
  nprocs : int;
  lock_waiters : (int, Waitq.t) Hashtbl.t;
  barrier_waiters : (int, Waitq.t) Hashtbl.t;
}

let create eng access ~base ~nprocs =
  {
    eng;
    access;
    base;
    nprocs;
    lock_waiters = Hashtbl.create 16;
    barrier_waiters = Hashtbl.create 16;
  }

let waitq tbl eng key =
  match Hashtbl.find_opt tbl key with
  | Some wq -> wq
  | None ->
      let wq = Waitq.create eng in
      Hashtbl.add tbl key wq;
      wq

let lock_addr t l =
  if l < 0 || l >= max_locks then invalid_arg "Hw_sync: lock id out of range";
  t.base + l

let counter_addr t b =
  if b < 0 || b >= max_barriers then
    invalid_arg "Hw_sync: barrier id out of range";
  t.base + max_locks + b

let generation_addr t b = t.base + max_locks + max_barriers + b

(* Cycles inside lock/barrier are charged to the corresponding wait
   category; the rmw's bus/directory transactions re-scope themselves to
   [Mem_stall] underneath (innermost scope wins), so the wait categories
   capture parked time plus the synchronization variables' hit cycles. *)

let rec lock t fiber ~cpu l =
  Engine.with_category fiber Engine.Lock_wait @@ fun () ->
  let old = t.access.rmw fiber ~cpu (lock_addr t l) (fun _ -> 1L) in
  if old <> 0L then begin
    Waitq.wait fiber (waitq t.lock_waiters t.eng l);
    lock t fiber ~cpu l
  end

let unlock t fiber ~cpu l =
  Engine.with_category fiber Engine.Lock_wait @@ fun () ->
  ignore (t.access.rmw fiber ~cpu (lock_addr t l) (fun _ -> 0L));
  ignore (Waitq.wake_one (waitq t.lock_waiters t.eng l) ~at:(Engine.clock fiber))

let barrier t ?last fiber ~cpu b =
  Engine.with_category fiber Engine.Barrier_wait @@ fun () ->
  let arrived =
    Int64.to_int (t.access.rmw fiber ~cpu (counter_addr t b) Int64.succ) + 1
  in
  if arrived = t.nprocs then begin
    ignore (t.access.rmw fiber ~cpu (counter_addr t b) (fun _ -> 0L));
    (match last with Some up -> up b | None -> ());
    ignore (t.access.rmw fiber ~cpu (generation_addr t b) Int64.succ);
    ignore
      (Waitq.wake_all (waitq t.barrier_waiters t.eng b) ~at:(Engine.clock fiber))
  end
  else begin
    Waitq.wait fiber (waitq t.barrier_waiters t.eng b);
    (* Re-read the generation flag that the releaser invalidated. *)
    t.access.read fiber ~cpu (generation_addr t b)
  end
