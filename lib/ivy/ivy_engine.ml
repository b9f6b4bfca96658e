(* The IVY sequentially-consistent page DSM as a mountable coherence
   engine (registry name "ivy"). *)

let name = "ivy"

let describe =
  "IVY sequentially-consistent page DSM: one writer at a time, whole-page \
   transfers, invalidation with acknowledgements on every write fault"

let mount =
  Shm_proto.Software
    { mount = Shm_dsm.Paged.mount System.create; recovery = Recovers }
