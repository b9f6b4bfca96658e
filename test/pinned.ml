(* A pinned PRNG for qcheck properties, so tier-1 is deterministic;
   QCHECK_SEED still picks a different excursion. *)
let rand seed =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> int_of_string s
    | None -> seed
  in
  Random.State.make [| seed |]
