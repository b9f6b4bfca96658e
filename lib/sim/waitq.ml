type t = { eng : Engine.t; waiters : Engine.fiber Queue.t }

let create eng = { eng; waiters = Queue.create () }

let wait fiber q =
  Queue.push fiber q.waiters;
  Engine.suspend fiber

let wake_one q ~at =
  match Queue.take_opt q.waiters with
  | None -> false
  | Some f ->
      Engine.resume q.eng f ~at;
      true

let wake_all q ~at =
  let n = Queue.length q.waiters in
  while not (Queue.is_empty q.waiters) do
    let f = Queue.pop q.waiters in
    Engine.resume q.eng f ~at
  done;
  n
