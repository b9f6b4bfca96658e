(* The TreadMarks protocol family as mountable coherence engines.

   Three registry entries share one [System]: plain lazy release
   consistency (the paper's TreadMarks), an eager-update variant that
   broadcasts every closing interval's diffs (the paper's TSP
   stale-bound fix applied to all intervals), and conventional
   eager-invalidate release consistency (the Munin-style ablation). *)

let mount_policy ~policy =
  let mount (ctx : Shm_proto.sdsm_ctx) =
    let cfg =
      {
        (Config.default ~n_nodes:ctx.nodes ~shared_words:ctx.shared_words)
        with
        Config.notice_policy = policy;
        eager_locks = ctx.eager_lock_hints;
      }
    in
    Shm_dsm.Paged.instance
      (System.create ctx.eng ctx.counters (Shm_dsm.Paged.fabric ctx) cfg
         ~memories:ctx.memories)
  in
  Shm_proto.Software { mount; recovery = Recovers }

module Lrc = struct
  let name = "lrc"

  let describe =
    "TreadMarks lazy release consistency: multiple writers, diffs, write \
     notices moving only with lock grants and barrier departures"

  let mount = mount_policy ~policy:Config.Lazy
end

module Eager_lrc = struct
  let name = "eager-lrc"

  let describe =
    "release consistency with eager diff updates: every release and \
     barrier broadcasts the closing interval's diffs (the paper's TSP \
     stale-bound fix, applied to every interval)"

  let mount = mount_policy ~policy:Config.Eager_update
end

module Erc = struct
  let name = "erc"

  let describe =
    "conventional eager-invalidate release consistency: every release \
     broadcasts write notices and waits for acknowledgements (Munin-style)"

  let mount = mount_policy ~policy:Config.Eager_invalidate
end
