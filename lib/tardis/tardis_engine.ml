(* The Tardis timestamp-coherence DSM as a mountable engine (registry
   name "tardis"). *)

module Fabric = Shm_net.Fabric

let name = "tardis"
let kind = Shm_proto.Sdsm

let describe =
  "Tardis timestamp-counter coherence (arXiv 1501.04504): leased read \
   copies and logical timestamps; renewals instead of invalidation \
   broadcasts"

let mount (ctx : Shm_proto.ctx) =
  (* Tardis keeps leased read copies whose expiry is entangled with the
     global timestamp order; a crash/restart model for it needs lease
     recovery that is not implemented.  Refuse loudly rather than run an
     unrecoverable protocol under crash injection. *)
  if ctx.lifecycle <> None then
    invalid_arg
      "tardis: whole-node crash injection is not supported (no lease \
       recovery); use lrc, eager-lrc, erc or ivy";
  let fabric = Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes in
  let sys =
    System.create ctx.eng ctx.counters fabric ~page_words:ctx.page_words
      ~shared_words:ctx.shared_words ~memories:ctx.memories
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
