(* The IVY sequentially-consistent page DSM as a mountable coherence
   engine (registry name "ivy"). *)

module Fabric = Shm_net.Fabric

let name = "ivy"
let kind = Shm_proto.Sdsm

let describe =
  "IVY sequentially-consistent page DSM: one writer at a time, whole-page \
   transfers, invalidation with acknowledgements on every write fault"

let mount (ctx : Shm_proto.ctx) =
  let fabric = Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes in
  (* Attach before the system creates its Reliable channel, so the
     channel arms sequencing/retransmission and sees node liveness. *)
  Option.iter (Fabric.attach_lifecycle fabric) ctx.lifecycle;
  let sys =
    System.create ?lifecycle:ctx.lifecycle ctx.eng ctx.counters fabric
      ~page_words:ctx.page_words ~shared_words:ctx.shared_words
      ~memories:ctx.memories
  in
  {
    Shm_proto.i_name = name;
    page_shift = System.page_shift sys;
    wordwise_ranges = false;
    access_rights = Some (fun ~node -> System.access_rights sys ~node);
    set_page_hook = (fun h -> System.set_page_hook sys h);
    start = (fun () -> System.start sys);
    retx_note = (fun () -> System.retx_note sys);
    read_guard = (fun f ~node addr -> System.read_guard sys f ~node addr);
    write_guard = (fun f ~node addr -> System.write_guard sys f ~node addr);
    read_range_guard =
      (fun f ~node addr words ~f:move ->
        System.read_range_guard sys f ~node addr words ~f:move);
    write_range_guard =
      (fun f ~node addr words ~f:move ->
        System.write_range_guard sys f ~node addr words ~f:move);
    acquire = (fun f ~node ~lock -> System.acquire sys f ~node ~lock);
    release = (fun f ~node ~lock -> System.release sys f ~node ~lock);
    barrier_arrive = (fun f ~node ~id -> System.barrier_arrive sys f ~node ~id);
    rmw = None;
    invalidate_range = None;
    check_invariants = (fun () -> System.check_invariants sys);
  }
