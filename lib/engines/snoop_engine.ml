(* The MESI snooping-bus cache hierarchy as a mountable engine (registry
   name "mesi").  The hardware profile in the mount context selects the
   bus timing: the SGI 4D/480 bus, the Section-2.5 doubled-speed bus, or
   an HS node's local bus. *)

module Snoop = Shm_memsys.Snoop

let name = "mesi"
let kind = Shm_proto.Hw

let describe =
  "MESI write-invalidate snooping cache coherence over a shared bus \
   (Illinois protocol, the SGI 4D/480's scheme)"

let config_of (ctx : Shm_proto.ctx) =
  match ctx.hw_profile with
  | Some Shm_proto.Sgi_bus -> Snoop.sgi_config ~n_cpus:ctx.nodes
  | Some Shm_proto.Sgi_bus_fast ->
      let base = Snoop.sgi_config ~n_cpus:ctx.nodes in
      {
        base with
        Snoop.bus_block_cycles = base.Snoop.bus_block_cycles / 2;
        bus_upgrade_cycles = base.Snoop.bus_upgrade_cycles / 2;
        memory_extra_cycles = base.Snoop.memory_extra_cycles / 2;
      }
  | Some Shm_proto.Hs_node_bus -> Snoop.hs_node_config ~n_cpus:ctx.nodes
  | Some Shm_proto.Crossbar ->
      invalid_arg
        "protocol \"mesi\" models a snooping bus and cannot run over a \
         crossbar machine (that machine mounts \"directory\")"
  | None ->
      invalid_arg
        "protocol \"mesi\" needs a hardware bus profile; software-DSM \
         machines mount software engines (lrc, eager-lrc, erc, ivy, tardis)"

let mount (ctx : Shm_proto.ctx) =
  let machine = Snoop.create ctx.eng ctx.counters ctx.memories.(0) (config_of ctx) in
  Hw_mount.instance ctx ~i_name:name
    ~rmw:(fun f ~cpu addr g -> Snoop.rmw machine f ~cpu addr g)
    ~read:(fun f ~cpu addr -> ignore (Snoop.read machine f ~cpu addr))
    ~read_guard:(fun f ~node addr -> Snoop.read_timing machine f ~cpu:node addr)
    ~write_guard:(fun f ~node addr -> Snoop.write_timing machine f ~cpu:node addr)
    ~invalidate_range:(fun ~addr ~words ->
      Snoop.invalidate_range machine ~addr ~words)
    ~check_invariants:(fun () -> Snoop.check_coherence machine)
