(** A runnable machine model: give it an application and a processor
    count, get a timed, counted, checksummed report. *)

type t = {
  name : string;
  clock_mhz : float;
  max_procs : int;
  run : Shm_parmacs.Parmacs.app -> nprocs:int -> Report.t;
}

(** @raise Invalid_argument, as [p.run] does, for a processor count [p]
    cannot seat: more than [p.max_procs], or fewer than one. *)
val check_nprocs : t -> int -> unit
