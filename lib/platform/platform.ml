type t = {
  name : string;
  clock_mhz : float;
  max_procs : int;
  run : Shm_parmacs.Parmacs.app -> nprocs:int -> Report.t;
}

let check_nprocs p nprocs =
  if nprocs > p.max_procs then
    invalid_arg
      (Printf.sprintf "platform %S provides %d processors; %d requested"
         p.name p.max_procs nprocs);
  if nprocs < 1 then
    invalid_arg (Printf.sprintf "platform %S: nprocs must be positive" p.name)
