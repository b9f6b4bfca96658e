(* The IVY sequentially-consistent page DSM as a mountable coherence
   engine (registry name "ivy"). *)

let name = "ivy"
let kind = Shm_proto.Sdsm

let describe =
  "IVY sequentially-consistent page DSM: one writer at a time, whole-page \
   transfers, invalidation with acknowledgements on every write fault"

let mount ctx = Shm_dsm.Paged.mount System.create ctx ~i_name:name
