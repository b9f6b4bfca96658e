(* The MESI snooping-bus cache hierarchy as a mountable engine (registry
   name "mesi").  The hardware profile in the mount context selects the
   bus timing: the SGI 4D/480 bus, the Section-2.5 doubled-speed bus, or
   an HS node's local bus.  A crossbar is not a bus, so it is not among
   the profiles the engine accepts. *)

module Snoop = Shm_memsys.Snoop

let name = "mesi"

let describe =
  "MESI write-invalidate snooping cache coherence over a shared bus \
   (Illinois protocol, the SGI 4D/480's scheme)"

(* The bus timing of each accepted profile, for [n_cpus] processors. *)
let configs =
  [
    (Shm_proto.Sgi_bus, fun n_cpus -> Snoop.sgi_config ~n_cpus);
    ( Shm_proto.Sgi_bus_fast,
      fun n_cpus ->
        let base = Snoop.sgi_config ~n_cpus in
        {
          base with
          Snoop.bus_block_cycles = base.Snoop.bus_block_cycles / 2;
          bus_upgrade_cycles = base.Snoop.bus_upgrade_cycles / 2;
          memory_extra_cycles = base.Snoop.memory_extra_cycles / 2;
        } );
    (Shm_proto.Hs_node_bus, fun n_cpus -> Snoop.hs_node_config ~n_cpus);
  ]

let mount =
  Shm_proto.Hardware
    {
      profiles = List.map fst configs;
      mount =
        (fun ctx ->
          let machine =
            Snoop.create ctx.eng ctx.counters ctx.memory
              ((List.assoc ctx.profile configs) ctx.nodes)
          in
          Hw_mount.instance ctx
            ~rmw:(fun f ~cpu addr g -> Snoop.rmw machine f ~cpu addr g)
            ~read_guard:(fun f ~node addr ->
              Snoop.read_timing machine f ~cpu:node addr)
            ~write_guard:(fun f ~node addr ->
              Snoop.write_timing machine f ~cpu:node addr)
            ~invalidate_range:(fun ~addr ~words ->
              Snoop.invalidate_range machine ~addr ~words)
            ~check_invariants:(fun () -> Snoop.check_coherence machine));
    }
