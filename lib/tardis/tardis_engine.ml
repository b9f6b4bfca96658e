(* The Tardis timestamp-coherence DSM as a mountable engine (registry
   name "tardis"). *)

let name = "tardis"

let describe =
  "Tardis timestamp-counter coherence (arXiv 1501.04504): leased read \
   copies and logical timestamps; renewals instead of invalidation \
   broadcasts"

(* Leased read copies expire against the global timestamp order, and a
   crash/restart model for them needs lease recovery, which is not
   implemented. *)
let mount =
  Shm_proto.Software
    {
      mount = Shm_dsm.Paged.mount System.create;
      recovery =
        No_recovery
          "no lease recovery: a restarted node cannot rebuild the leased \
           read copies the global timestamp order depends on";
    }
