(* Full-map directory cache coherence as a mountable engine (registry
   name "directory") — the All-Hardware design's DASH/FLASH-like scheme
   over a crossbar of uniprocessor nodes. *)

module Directory = Shm_memsys.Directory

let name = "directory"

let describe =
  "full-map directory cache coherence over a crossbar (DASH/FLASH-like, \
   the All-Hardware design)"

(* The timing is the crossbar's on every profile. *)
let mount =
  Shm_proto.Hardware
    {
      profiles = [ Sgi_bus; Sgi_bus_fast; Hs_node_bus; Crossbar ];
      mount =
        (fun ctx ->
          let machine =
            Directory.create ctx.eng ctx.counters ctx.memory
              (Directory.sim_config ~n_nodes:ctx.nodes)
          in
          Hw_mount.instance ctx
            ~rmw:(fun f ~cpu addr g -> Directory.rmw machine f ~node:cpu addr g)
            ~read_guard:(fun f ~node addr ->
              Directory.read_timing machine f ~node addr)
            ~write_guard:(fun f ~node addr ->
              Directory.write_timing machine f ~node addr)
            ~invalidate_range:(fun ~addr ~words ->
              Directory.invalidate_range machine ~addr ~words)
            ~check_invariants:(fun () -> Directory.check_invariants machine));
    }
