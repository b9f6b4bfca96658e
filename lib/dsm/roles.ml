(* The manager roles every software DSM (TreadMarks, IVY, Tardis) places
   the same way (paper Section 2): each lock has a static home
   [lock mod n_nodes] and every barrier runs through one central
   manager; a crash moves both onto a survivor.  The barrier manager
   counts arrivals, and the n-th closes the episode.  The record is pure
   state: it says where a role lives and who departs, and the engine
   builds and sends its own messages.  What a role carries beyond its
   home (IVY's lock queues, TreadMarks' queue tail and arrival records)
   stays with the engine, which moves it through [rehome]'s hooks. *)

module Counters = Shm_stats.Counters
module Hw_sync = Shm_memsys.Hw_sync

(* One barrier's open episode; ['a] is what an arrival carries. *)
type 'a episode = {
  mutable arrivals : 'a list;  (** newest first *)
  mutable arrived : int;  (** [List.length arrivals] *)
}

type 'a t = {
  engine : string;  (** engine name, for diagnostics *)
  counters : Counters.t;
  n_nodes : int;
  moved : (int, int) Hashtbl.t;
      (** lock -> current home, for the locks a crash re-homed; empty
          (every lock at its static home) until then *)
  mutable barrier_home : int;
  barriers : 'a episode array;
  barrier_counter : Counters.key;  (** [<engine>.barriers]: completed episodes *)
}

let create ~engine counters ~n_nodes ?(barrier_home = 0) () =
  {
    engine;
    counters;
    n_nodes;
    moved = Hashtbl.create 8;
    barrier_home;
    barriers =
      Array.init Hw_sync.max_barriers (fun _ -> { arrivals = []; arrived = 0 });
    barrier_counter = Counters.key counters (engine ^ ".barriers");
  }

(* ---------------- ids ---------------------------------------------- *)

(* Lock ids run over [0, Hw_sync.max_locks) and barrier ids over
   [0, Hw_sync.max_barriers), as on the hardware platforms.
   The calling processor checks its id before any message leaves it, so
   a bad id fails there, the same way on every engine. *)
let check r what id n =
  if id < 0 || id >= n then
    invalid_arg (Printf.sprintf "%s: %s %d out of range [0, %d)" r.engine what id n)

let check_lock r lock = check r "lock" lock Hw_sync.max_locks
let check_barrier r id = check r "barrier" id (Array.length r.barriers)

(* ---------------- where each role lives ---------------------------- *)

(* The lock's static manager: its home until a crash moves it, and where
   its token starts. *)
let[@inline] static_home r lock = lock mod r.n_nodes

(* [Hashtbl.find], not [find_opt]: a lock message allocates no option. *)
let lock_home r lock =
  if Hashtbl.length r.moved = 0 then static_home r lock
  else
    match Hashtbl.find r.moved lock with
    | home -> home
    | exception Not_found -> static_home r lock

let barrier_home r = r.barrier_home

(* ---------------- counting barrier --------------------------------- *)

(* [arrive r ~id a]: record an arrival.  The [n_nodes]-th closes the
   episode: it bumps the barrier counter and returns every arrival,
   newest first, for the caller to depart; earlier arrivals return []. *)
let arrive r ~id a =
  let b = r.barriers.(id) in
  b.arrivals <- a :: b.arrivals;
  b.arrived <- b.arrived + 1;
  if b.arrived = r.n_nodes then begin
    let arrivals = b.arrivals in
    b.arrivals <- [];
    b.arrived <- 0;
    Counters.bump r.barrier_counter 1;
    arrivals
  end
  else []

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* [stale r ~self home]: [true] when a crash moved the role this node
   was addressed for to [home]: the request outlived the outage in a
   peer's retransmit queue, and the caller forwards it there. *)
let stale r ~self home =
  home <> self
  && begin
       Counters.incr r.counters "recovery.forwards";
       true
     end

(* Move the roles of a crashed node onto the next surviving node: every
   lock [locks] enumerates whose home is [dead], then the barrier if it
   was there.  [move_lock] and [move_barrier] carry the engine's state
   for a role that moved; open episodes keep their arrivals, so only the
   manager changes.  Requests that still name the dead node are
   forwarded by its handler after restart (see [stale]). *)
let rehome r lc ~dead ~locks ?(move_lock = fun _ ~succ:_ -> ())
    ?(move_barrier = fun ~succ:_ -> ()) () =
  match Node.successor lc ~nodes:r.n_nodes ~dead with
  | None -> ()
  | Some succ ->
      let moved = ref 0 in
      locks (fun l ->
          if lock_home r l = dead then begin
            Hashtbl.replace r.moved l succ;
            move_lock l ~succ;
            incr moved
          end);
      if r.barrier_home = dead then begin
        r.barrier_home <- succ;
        move_barrier ~succ;
        incr moved
      end;
      if !moved > 0 then Counters.add r.counters "recovery.rehomes" !moved
