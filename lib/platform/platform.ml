type t = {
  name : string;
  clock_mhz : float;
  max_procs : int;
  run : Shm_parmacs.Parmacs.app -> nprocs:int -> Report.t;
}
