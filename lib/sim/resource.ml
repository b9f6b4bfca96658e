type t = {
  rname : string;
  mutable free_at : int;
  mutable busy : int;
}

let create ?(name = "resource") () = { rname = name; free_at = 0; busy = 0 }

let name r = r.rname

let reserve r ~ready ~cycles =
  let start = Int.max ready r.free_at in
  r.free_at <- start + cycles;
  r.busy <- r.busy + cycles;
  start + cycles

let use fiber r ~cycles =
  Engine.sync fiber;
  let finish = reserve r ~ready:(Engine.clock fiber) ~cycles in
  Engine.set_clock fiber finish

let busy_cycles r = r.busy
