(* What the hardware adapters share when they mount a cache machine as a
   {!Shm_proto.instance}: PARMACS locks and barriers as test-and-set
   words in a sync region after the shared heap ({!Shm_memsys.Hw_sync}),
   run over the machine's own read-modify-write and read, and the fields
   every machine without page tables or protocol daemons fills the same
   way.  The adapter supplies the machine's timing guards, the
   invalidation hook and its coherence check. *)

module Hw_sync = Shm_memsys.Hw_sync

let instance (ctx : Shm_proto.ctx) ~i_name ~rmw ~read ~read_guard
    ~write_guard ~invalidate_range ~check_invariants =
  let sync =
    Hw_sync.create ctx.eng { Hw_sync.rmw; read } ~base:ctx.shared_words
      ~nprocs:ctx.nodes
  in
  {
    Shm_proto.i_name;
    page_shift = -1;
    access_rights = None;
    set_page_hook = (fun _ -> ());
    start = (fun () -> ());
    retx_note = (fun () -> "");
    read_guard;
    write_guard;
    acquire = (fun f ~node ~lock -> Hw_sync.lock sync f ~cpu:node lock);
    release = (fun f ~node ~lock -> Hw_sync.unlock sync f ~cpu:node lock);
    barrier_arrive = (fun f ~node ~id -> Hw_sync.barrier sync f ~cpu:node id);
    rmw = Some (fun f ~node addr g -> rmw f ~cpu:node addr g);
    invalidate_range = Some invalidate_range;
    check_invariants;
  }
