(* The TreadMarks protocol family as mountable coherence engines.

   Three registry entries share one [System]: plain lazy release
   consistency (the paper's TreadMarks), an eager-update variant that
   broadcasts every closing interval's diffs (the paper's TSP
   stale-bound fix applied to all intervals), and conventional
   eager-invalidate release consistency (the Munin-style ablation). *)

module Fabric = Shm_net.Fabric

let mount_policy ~policy ~i_name (ctx : Shm_proto.ctx) =
  let fabric = Fabric.create ctx.eng ctx.counters ctx.fabric ~nodes:ctx.nodes in
  (* Attach before the system creates its Reliable channel, so the
     channel arms sequencing/retransmission and sees node liveness. *)
  Option.iter (Fabric.attach_lifecycle fabric) ctx.lifecycle;
  let cfg =
    {
      (Config.default ~n_nodes:ctx.nodes ~shared_words:ctx.shared_words) with
      Config.page_words = ctx.page_words;
      notice_policy = policy;
      eager_locks = ctx.eager_lock_hints;
    }
  in
  let sys =
    System.create ?lifecycle:ctx.lifecycle ctx.eng ctx.counters fabric cfg
      ~memories:ctx.memories
  in
  {
    Shm_proto.i_name;
    page_shift = System.page_shift sys;
    (* Under eager invalidation a remote release can yank a page at any
       moment, so batched range guards would observably diverge from the
       per-word sequence: force the literal loop. *)
    wordwise_ranges = (policy = Config.Eager_invalidate);
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

module Lrc = struct
  let name = "lrc"
  let kind = Shm_proto.Sdsm

  let describe =
    "TreadMarks lazy release consistency: multiple writers, diffs, write \
     notices moving only with lock grants and barrier departures"

  let mount ctx = mount_policy ~policy:Config.Lazy ~i_name:name ctx
end

module Eager_lrc = struct
  let name = "eager-lrc"
  let kind = Shm_proto.Sdsm

  let describe =
    "release consistency with eager diff updates: every release and \
     barrier broadcasts the closing interval's diffs (the paper's TSP \
     stale-bound fix, applied to every interval)"

  let mount ctx = mount_policy ~policy:Config.Eager_update ~i_name:name ctx
end

module Erc = struct
  let name = "erc"
  let kind = Shm_proto.Sdsm

  let describe =
    "conventional eager-invalidate release consistency: every release \
     broadcasts write notices and waits for acknowledgements (Munin-style)"

  let mount ctx = mount_policy ~policy:Config.Eager_invalidate ~i_name:name ctx
end
