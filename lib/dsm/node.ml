(* The per-node runtime every software-DSM engine (TreadMarks, IVY,
   Tardis) runs on: the table of requests awaiting a reply, the pages
   being fetched and the handler time owed by the application, plus the
   page helpers the shell uses.  The engine keeps only its protocol:
   what to send, and what a message does when it arrives.  All three
   run on one page-DSM shell ({!Paged}: node header, guards, fault
   shell, start-up and mounting), which reaches the engine's protocol
   through a record of closures: an indirect call where a per-engine
   copy had a direct one, and no allocation.  Measured when IVY and
   Tardis first shared sending and serving this way, on [kv] at [ivy]
   8, default scale (408,224 messages, 20 alternating runs on a 2-core
   x86-64 host): median user time 0.742 s against 0.714 s for
   per-engine sending, minimum 0.557 s against 0.556 s; the paired
   median difference, 15 ms or about 35 ns a message, is inside the
   host's run-to-run spread (0.56 to 0.90 s). *)

module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Waitq = Shm_sim.Waitq
module Lifecycle = Shm_sim.Lifecycle
module Memory = Shm_memsys.Memory

(* Tables keyed by a request id, page or lock number that no one
   iterates: hashed by the key itself and compared as an integer, where
   the generic table hashes and compares every key through C. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type 'msg t = {
  eng : Engine.t;
  engine : string;  (** engine name, for diagnostics *)
  pending : 'msg Mailbox.t Itbl.t;  (** request id -> reply box *)
  mutable next_req : int;
  inflight : Waitq.t Itbl.t;  (** page -> fibers awaiting its fetch *)
  mutable steal : int;  (** handler CPU cycles to charge the application *)
}

let create eng ~engine =
  {
    eng;
    engine;
    pending = Itbl.create 16;
    next_req = 0;
    inflight = Itbl.create 8;
    steal = 0;
  }

(* ---------------- requests awaiting a reply ------------------------ *)

let fresh rt =
  let r = rt.next_req in
  rt.next_req <- r + 1;
  r

let register rt req =
  let mb = Mailbox.create rt.eng in
  Itbl.replace rt.pending req mb;
  mb

let finish rt req = Itbl.remove rt.pending req

(* Block on a reply box, the time spent charged to [wait]. *)
let await fiber wait mb =
  Engine.with_category fiber wait (fun () -> Mailbox.recv fiber mb)

(* Hand a reply to the fiber blocked on request [req]. *)
let route rt ~req body ~at =
  match Itbl.find_opt rt.pending req with
  | Some mb -> Mailbox.post mb ~at body
  | None -> failwith (rt.engine ^ ": response without pending request")

(* ---------------- handler time owed by the application ------------- *)

(* On a uniprocessor node the handler and the application share the CPU:
   the handler's serving time is charged back to the application. *)
let[@inline] charge rt cycles = rt.steal <- rt.steal + cycles

(* Bring the application fiber's clock up to date and charge it the
   handler time owed, as protocol overhead.  Every protocol entry point
   starts here. *)
let sync rt fiber =
  Engine.sync fiber;
  let s = rt.steal in
  if s > 0 then begin
    rt.steal <- 0;
    Engine.advance_as fiber Engine.Protocol s
  end

(* ---------------- coalesced page fetches --------------------------- *)

(* [wait_fetch rt fiber page]: if a co-located processor is fetching
   [page], wait for it to finish and return [true]; else [false].  A
   fault loops on it while its access is still not satisfied. *)
let wait_fetch rt fiber page =
  match Itbl.find_opt rt.inflight page with
  | Some wq ->
      Engine.with_category fiber Engine.Net_wait (fun () ->
          Waitq.wait fiber wq);
      true
  | None -> false

let begin_fetch rt page =
  let wq = Waitq.create rt.eng in
  Itbl.replace rt.inflight page wq;
  wq

let end_fetch rt fiber page wq =
  Itbl.remove rt.inflight page;
  ignore (Waitq.wake_all wq ~at:(Engine.clock fiber))

let fetching rt page = Itbl.mem rt.inflight page

(* ---------------- crash recovery (DESIGN.md §13) ------------------- *)

(* The next surviving node after [dead], in id order, wrapping. *)
let successor lc ~nodes ~dead =
  let rec go k =
    if k >= nodes then None
    else
      let c = (dead + k) mod nodes in
      if Lifecycle.alive lc c then Some c else go (k + 1)
  in
  go 1

(* ---------------- pages -------------------------------------------- *)

(* A page payload is a malloc'd copy outside the OCaml heap: a page
   transfer allocates no boxed words and leaves the major heap alone. *)
let page_data mem page =
  Memory.sub_copy ~src:mem ~pos:(page * Memory.page_words)
    ~len:Memory.page_words
