(* What the hardware adapters share when they mount a cache machine as a
   {!Shm_proto.hw_instance}: the domain's PARMACS locks and barriers as
   test-and-set words in its slice of the sync region
   ({!Shm_memsys.Hw_sync}), run over the machine's own read-modify-write
   and read timing.  The adapter supplies the machine's timing guards,
   the invalidation hook and its coherence check. *)

module Hw_sync = Shm_memsys.Hw_sync

let instance (ctx : Shm_proto.hw_ctx) ~rmw ~read_guard ~write_guard
    ~invalidate_range ~check_invariants =
  {
    Shm_proto.read_guard;
    write_guard;
    invalidate_range;
    check_invariants;
    sync =
      Hw_sync.create ctx.eng
        { Hw_sync.rmw; read = (fun f ~cpu addr -> read_guard f ~node:cpu addr) }
        ~base:ctx.sync_base ~nprocs:ctx.nodes;
  }
