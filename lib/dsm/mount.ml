(* Mounting a software-DSM system as a {!Shm_proto.instance}: the three
   software engines expose one signature, so one function builds the
   record for each of them. *)

module Engine = Shm_sim.Engine
module Fabric = Shm_net.Fabric

module type SYSTEM = sig
  type t

  val page_shift : t -> int
  val access_rights : t -> node:int -> Bytes.t
  val set_page_hook : t -> (node:int -> page:int -> unit) -> unit
  val start : t -> unit
  val retx_note : t -> string
  val read_guard : t -> Engine.fiber -> node:int -> int -> unit
  val write_guard : t -> Engine.fiber -> node:int -> int -> unit

  val read_range_guard :
    t -> Engine.fiber -> node:int -> int -> int -> f:(int -> int -> unit) ->
    unit

  val write_range_guard :
    t -> Engine.fiber -> node:int -> int -> int -> f:(int -> int -> unit) ->
    unit

  val acquire : t -> Engine.fiber -> node:int -> lock:int -> unit
  val release : t -> Engine.fiber -> node:int -> lock:int -> unit
  val barrier_arrive : t -> Engine.fiber -> node:int -> id:int -> unit
  val check_invariants : t -> unit
end

(* The machine's message fabric, with the crash lifecycle (if any)
   attached before the system creates its reliable channel, so the
   channel arms sequencing/retransmission and sees node liveness. *)
let fabric (ctx : Shm_proto.ctx) =
  let fabric = Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes in
  Option.iter (Fabric.attach_lifecycle fabric) ctx.lifecycle;
  fabric

let instance (type s) (module S : SYSTEM with type t = s) (sys : s) ~i_name
    ~wordwise_ranges =
  {
    Shm_proto.i_name;
    page_shift = S.page_shift sys;
    wordwise_ranges;
    access_rights = Some (fun ~node -> S.access_rights sys ~node);
    set_page_hook = S.set_page_hook sys;
    start = (fun () -> S.start sys);
    retx_note = (fun () -> S.retx_note sys);
    read_guard = (fun f ~node addr -> S.read_guard sys f ~node addr);
    write_guard = (fun f ~node addr -> S.write_guard sys f ~node addr);
    read_range_guard =
      (fun f ~node addr words ~f:move ->
        S.read_range_guard sys f ~node addr words ~f:move);
    write_range_guard =
      (fun f ~node addr words ~f:move ->
        S.write_range_guard sys f ~node addr words ~f:move);
    acquire = (fun f ~node ~lock -> S.acquire sys f ~node ~lock);
    release = (fun f ~node ~lock -> S.release sys f ~node ~lock);
    barrier_arrive = (fun f ~node ~id -> S.barrier_arrive sys f ~node ~id);
    rmw = None;
    invalidate_range = None;
    check_invariants = (fun () -> S.check_invariants sys);
  }
