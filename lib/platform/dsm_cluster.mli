(** The Section-3 "All Software" design — 100 MHz uniprocessor nodes
    kept coherent by TreadMarks LRC over the simulated network — with
    the messaging overhead (default {!Shm_net.Overhead.treadmarks_user})
    as a parameter, swept for Figures 14-15.  The paper's other machines
    are rows of {!Machines}; [instrument] as in {!Machines.get}. *)
val as_machine :
  ?overhead:Shm_net.Overhead.t -> ?instrument:Instrument.t -> unit -> Platform.t
