(* Full-map directory cache coherence as a mountable engine (registry
   name "directory") — the All-Hardware design's DASH/FLASH-like scheme
   over a crossbar of uniprocessor nodes. *)

module Directory = Shm_memsys.Directory
module Hw_sync = Shm_memsys.Hw_sync

let name = "directory"
let kind = Shm_proto.Hw

let describe =
  "full-map directory cache coherence over a crossbar (DASH/FLASH-like, \
   the All-Hardware design)"

let mount (ctx : Shm_proto.ctx) =
  let machine =
    Directory.create ctx.eng ctx.counters ctx.memories.(0)
      (Directory.sim_config ~n_nodes:ctx.nodes)
  in
  let access =
    {
      Hw_sync.rmw = (fun f ~cpu addr g -> Directory.rmw machine f ~node:cpu addr g);
      read = (fun f ~cpu addr -> ignore (Directory.read machine f ~node:cpu addr));
    }
  in
  let sync = Hw_sync.create ctx.eng access ~base:ctx.shared_words ~nprocs:ctx.nodes in
  {
    Shm_proto.i_name = name;
    page_shift = -1;
    wordwise_ranges = false;
    access_rights = None;
    set_page_hook = (fun _ -> ());
    start = (fun () -> ());
    retx_note = (fun () -> "");
    read_guard =
      (fun f ~node addr -> Directory.read_timing machine f ~node addr);
    write_guard =
      (fun f ~node addr -> Directory.write_timing machine f ~node addr);
    read_range_guard =
      (fun f ~node addr words ~f:move ->
        Directory.read_range machine f ~node addr words ~f:move);
    write_range_guard =
      (fun f ~node addr words ~f:move ->
        Directory.write_range machine f ~node addr words ~f:move);
    acquire = (fun f ~node ~lock -> Hw_sync.lock sync f ~cpu:node lock);
    release = (fun f ~node ~lock -> Hw_sync.unlock sync f ~cpu:node lock);
    barrier_arrive = (fun f ~node ~id -> Hw_sync.barrier sync f ~cpu:node id);
    rmw = Some (fun f ~node addr g -> Directory.rmw machine f ~node addr g);
    invalidate_range =
      Some (fun ~addr ~words -> Directory.invalidate_range machine ~addr ~words);
    check_invariants = (fun () -> Directory.check_invariants machine);
  }
