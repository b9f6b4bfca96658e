(* Pending messages wait in a ring of (delivery time, message) slots and
   receivers in a list, oldest first.  A mailbox lives long enough to be
   in the major heap, where every pointer stored into it goes through
   the write barrier, so a delivery and its take store as few pointers
   as they can: one slot in, one slot out, and the waiter list. *)
type 'a t = {
  eng : Engine.t;
  mutable times : int array;
  mutable msgs : 'a option array;
  mutable first : int; (* slot of the oldest pending message *)
  mutable count : int;
  mutable waiters : Engine.fiber list;
}

let create eng =
  { eng; times = [||]; msgs = [||]; first = 0; count = 0; waiters = [] }

let grow mb =
  let len = Array.length mb.msgs in
  let len' = Int.max 4 (2 * len) in
  let times = Array.make len' 0 and msgs = Array.make len' None in
  for k = 0 to mb.count - 1 do
    let i = (mb.first + k) land (len - 1) in
    times.(k) <- mb.times.(i);
    msgs.(k) <- mb.msgs.(i)
  done;
  mb.times <- times;
  mb.msgs <- msgs;
  mb.first <- 0

let[@inline] deliver mb msg =
  if mb.count = Array.length mb.msgs then grow mb;
  let i = (mb.first + mb.count) land (Array.length mb.msgs - 1) in
  mb.times.(i) <- Engine.now mb.eng;
  mb.msgs.(i) <- Some msg;
  mb.count <- mb.count + 1;
  match mb.waiters with
  | [] -> ()
  | f :: rest ->
      mb.waiters <- rest;
      Engine.resume_here mb.eng f

let post mb ~at msg = Engine.schedule mb.eng ~at (fun () -> deliver mb msg)

let take fiber mb =
  let i = mb.first in
  let msg = Option.get mb.msgs.(i) in
  mb.msgs.(i) <- None;
  mb.first <- (i + 1) land (Array.length mb.msgs - 1);
  mb.count <- mb.count - 1;
  Engine.set_clock fiber mb.times.(i);
  msg

let rec recv fiber mb =
  if mb.count = 0 then begin
    mb.waiters <- mb.waiters @ [ fiber ];
    Engine.suspend fiber;
    recv fiber mb
  end
  else take fiber mb

let poll fiber mb = if mb.count = 0 then None else Some (take fiber mb)
