(* One pass of a workload: its runs, one simulation at a time, each timed
   and checked.  Reference results are computed once per process, before
   any timing. *)

module Parmacs = Shm_parmacs.Parmacs
module Report = Shm_platform.Report
module Instrument = Shm_platform.Instrument
module Tsp = Shm_apps.Tsp

type outcome = {
  run : Workloads.run;
  report : Report.t option;  (** [None] when the run raised *)
  error : string;
  reference : float;  (** what the checksum was compared against *)
  ok : bool;
  wall_ns : int;  (** app and platform build, [Platform.run], check *)
  setup_ns : int;  (** build, plus [Platform.run] call to the first work entry *)
}

type t = {
  outcomes : outcome list;
  wall_s : float;  (** sum of the runs' walls *)
  setup_s : float;
  minor_mw : float;  (** minor-heap words allocated, millions *)
  major_gcs : int;
}

(* Expected checksums per app key.  Kv digests are filled in by the first
   run of each key, and every later run must match it. *)
type refs = (string, float) Hashtbl.t

let prepare (runs : Workloads.run list) : refs =
  let refs = Hashtbl.create 16 in
  List.iter
    (fun (r : Workloads.run) ->
      let a = r.app in
      if not (Hashtbl.mem refs a.key) then
        match a.check with
        | Workloads.Sequential ->
            let app = a.make () in
            Hashtbl.replace refs a.key
              (Parmacs.checksum_of (Parmacs.run_sequential app) app)
        | Workloads.Tour p -> Hashtbl.replace refs a.key (Tsp.optimal_length p)
        | Workloads.Kv -> ())
    runs;
  refs

let judge refs (r : Workloads.run) (rep : Report.t) =
  let c = rep.Report.checksum in
  match r.app.check with
  | Workloads.Sequential ->
      let expect = Hashtbl.find refs r.app.key in
      (expect, Float.abs (c -. expect) <= 1e-9 *. Float.abs expect)
  | Workloads.Tour _ ->
      let expect = Hashtbl.find refs r.app.key in
      (expect, c = expect)
  | Workloads.Kv -> (
      let model_ok = Report.get rep "kv.model_ok" = 1 in
      match Hashtbl.find_opt refs r.app.key with
      | Some d -> (d, model_ok && c = d)
      | None ->
          if model_ok then Hashtbl.replace refs r.app.key c;
          (c, model_ok))

let with_start_hook first (app : Parmacs.app) =
  {
    app with
    work =
      (fun ctx ->
        if !first < 0 then first := Host.now ();
        app.work ctx);
  }

let exec ?tracer refs (r : Workloads.run) =
  let first = ref (-1) in
  let t0 = Host.now () in
  Option.iter Tracer.begin_run tracer;
  let result =
    match
      let app = r.app.make () in
      let app =
        match tracer with
        | Some t -> Tracer.wrap_app t app
        | None -> with_start_hook first app
      in
      let instrument =
        if tracer = None then Instrument.off else Instrument.breakdown_only
      in
      (r.platform instrument).Shm_platform.Platform.run app ~nprocs:r.nprocs
    with
    | rep -> Ok rep
    | exception e -> Error (Printexc.to_string e)
  in
  Option.iter Tracer.end_run tracer;
  let report, error, reference, ok =
    match result with
    | Ok rep ->
        let expect, ok = judge refs r rep in
        (Some rep, (if ok then "" else "checksum mismatch"), expect, ok)
    | Error msg -> (None, msg, nan, false)
  in
  let t1 = Host.now () in
  {
    run = r;
    report;
    error;
    reference;
    ok;
    wall_ns = t1 - t0;
    setup_ns = (if !first < 0 then 0 else !first - t0);
  }

let run ?tracer refs runs =
  let minor = ref 0.0 and majors = ref 0 in
  let outcomes =
    List.map
      (fun r ->
        (* Every run starts from a collected heap (untimed), so a run does
           not pay for the garbage of the one before it and the process's
           peak RSS is that of its largest run. *)
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let o = exec ?tracer refs r in
        let g1 = Gc.quick_stat () in
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        o)
      runs
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    outcomes;
    wall_s = float_of_int (sum (fun o -> o.wall_ns)) *. 1e-9;
    setup_s = float_of_int (sum (fun o -> o.setup_ns)) *. 1e-9;
    minor_mw = !minor /. 1e6;
    major_gcs = !majors;
  }

let failures p = List.length (List.filter (fun o -> not o.ok) p.outcomes)
