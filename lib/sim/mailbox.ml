type 'a t = {
  eng : Engine.t;
  pending : (int * 'a) Queue.t; (* delivered messages: (delivery time, msg) *)
  waiters : Engine.fiber Queue.t;
}

let create eng = { eng; pending = Queue.create (); waiters = Queue.create () }

let wake_one mb ~at =
  match Queue.take_opt mb.waiters with
  | None -> ()
  | Some f -> Engine.resume mb.eng f ~at

let[@inline] deliver mb msg =
  let at = Engine.now mb.eng in
  Queue.push (at, msg) mb.pending;
  wake_one mb ~at

let post mb ~at msg = Engine.schedule mb.eng ~at (fun () -> deliver mb msg)

let take fiber mb =
  let time, msg = Queue.pop mb.pending in
  Engine.set_clock fiber time;
  msg

let rec recv fiber mb =
  if Queue.is_empty mb.pending then begin
    Queue.push fiber mb.waiters;
    Engine.suspend fiber;
    recv fiber mb
  end
  else take fiber mb

let poll fiber mb =
  if Queue.is_empty mb.pending then None else Some (take fiber mb)
