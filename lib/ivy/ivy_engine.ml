(* The IVY sequentially-consistent page DSM as a mountable coherence
   engine (registry name "ivy"). *)

let name = "ivy"
let kind = Shm_proto.Sdsm

let describe =
  "IVY sequentially-consistent page DSM: one writer at a time, whole-page \
   transfers, invalidation with acknowledgements on every write fault"

let mount (ctx : Shm_proto.ctx) =
  let sys =
    System.create ctx.eng ctx.counters
      (Shm_dsm.Mount.fabric ctx) ~page_words:ctx.page_words
      ~shared_words:ctx.shared_words ~memories:ctx.memories
  in
  Shm_dsm.Mount.instance (module System) sys ~i_name:name
    ~wordwise_ranges:false
