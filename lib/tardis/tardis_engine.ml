(* The Tardis timestamp-coherence DSM as a mountable engine (registry
   name "tardis"). *)

let name = "tardis"

let describe =
  "Tardis timestamp-counter coherence (arXiv 1501.04504): leased read \
   copies and logical timestamps; renewals instead of invalidation \
   broadcasts"

(* Tardis keeps leased read copies whose expiry is entangled with the
   global timestamp order; a crash/restart model for it needs lease
   recovery that is not implemented.  Refuse loudly rather than run an
   unrecoverable protocol under crash injection. *)
let mount =
  Shm_proto.Software
    (fun ctx ->
      if ctx.lifecycle <> None then
        invalid_arg
          "tardis: whole-node crash injection is not supported (no lease \
           recovery); use lrc, eager-lrc, erc or ivy";
      Shm_dsm.Paged.mount System.create ctx)
