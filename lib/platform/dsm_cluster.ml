(* The Section-3 "All Software" design with its messaging overhead as a
   parameter; {!Machines}' ["as"] row is this machine at the default
   overhead. *)
let as_machine ?overhead ?instrument () =
  Topology.build ~name:"AS" ?instrument
    ~host:(Topology.host_sim ?overhead ())
    (Topology.Dom { engine = "lrc"; children = [ Topology.Cpus 256 ] })
