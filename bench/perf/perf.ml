(* The simulator's benchmark.  README.md in this directory defines the
   workloads and metrics.

   Usage:
     perf.exe all [--seed S] [--out R.json]
         every workload in its own child process (warm-up + 5 timed
         passes), then one traced child per workload, then the
         micro-kernels; prints "workload metric value unit" lines
     perf.exe run WORKLOAD [--seed S] [--seconds T] [--json P]
     perf.exe trace WORKLOAD [--seed S] [--seconds T] [--json P]
     perf.exe micro [--json P]
     perf.exe compare A.json B.json [--bench BENCHMARK.json]
     perf.exe smoke [--seed S] [--bench BENCHMARK.json]
     perf.exe --workload W --seed S --seconds T --trace 0|1
         one workload, ending with a one-line JSON result: end-to-end
         metrics with --trace 0, per-layer metrics with --trace 1 *)

module Report = Shm_platform.Report
module Engine = Shm_sim.Engine

(* ---- options ---------------------------------------------------------- *)

type opts = {
  mutable pos : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable json : string option;
  mutable out : string;
  mutable bench : string;
  mutable workload : string option;
  mutable trace : int option;
}

let usage () =
  prerr_endline
    "usage: perf.exe (all | run W | trace W | micro | compare A B | smoke) [options]\n\
    \       perf.exe --workload W --seed S --seconds T --trace 0|1";
  exit 2

let parse argv =
  let o =
    { pos = []; seed = 1; seconds = 0.0; json = None; out = "R.json";
      bench = "BENCHMARK.json"; workload = None; trace = None }
  in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: r -> o.seed <- int_of v; go r
    | "--seconds" :: v :: r ->
        (match float_of_string_opt v with Some f -> o.seconds <- f | None -> usage ());
        go r
    | "--json" :: v :: r -> o.json <- Some v; go r
    | "--out" :: v :: r -> o.out <- v; go r
    | "--bench" :: v :: r -> o.bench <- v; go r
    | "--workload" :: v :: r -> o.workload <- Some v; go r
    | "--trace" :: v :: r -> o.trace <- Some (int_of v); go r
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage ()
    | a :: r -> o.pos <- o.pos @ [ a ]; go r
  in
  go (List.tl (Array.to_list argv));
  o

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2

(* ---- metric values ---------------------------------------------------- *)

(* A reported value: the median of [samples] when there are several. *)
type value = { v : float; samples : float list }

let single v = { v; samples = [] }
let of_samples xs = { v = Metrics.median xs; samples = xs }

let unit_of name =
  match Metrics.find name with Some m -> m.Metrics.unit | None -> ""

let metric_json ~detail (name, x) =
  let base = [ ("value", Json.Float x.v); ("unit", Json.String (unit_of name)) ] in
  let extra =
    if detail && x.samples <> [] then
      let q1, q3 = Metrics.quartiles x.samples in
      [ ("q1", Json.Float q1); ("q3", Json.Float q3);
        ("n", Json.Int (List.length x.samples));
        ("samples", Json.List (List.map (fun s -> Json.Float s) x.samples)) ]
    else []
  in
  (name, Json.Obj (base @ extra))

let print_metrics wname ms =
  List.iter
    (fun (name, x) -> Printf.printf "%s %s %.6g %s\n" wname name x.v (unit_of name))
    ms

(* ---- per-pass metrics ------------------------------------------------- *)

let reports (p : Pass.t) = List.filter_map (fun o -> o.Pass.report) p.outcomes

let sum_counter reps names =
  List.fold_left (fun acc r -> List.fold_left (fun a n -> a + Report.get r n) acc names) 0 reps

let mcycles reps =
  float_of_int (List.fold_left (fun acc r -> acc + r.Report.cycles) 0 reps) /. 1e6

let counts (p : Pass.t) =
  let reps = reports p in
  ("sim.mcycles", single (mcycles reps))
  :: List.map
       (fun (name, _, names, scale) ->
         (name, single (float_of_int (sum_counter reps names) /. scale)))
       Metrics.counts

let per_pass (ps : Pass.t list) =
  let each f = of_samples (List.map f ps) in
  [
    ("host.minor_mw", each (fun p -> p.Pass.minor_mw));
    ("host.major_gcs", each (fun p -> float_of_int p.Pass.major_gcs));
    ("sim.mcycles_per_s", each (fun p -> mcycles (reports p) /. p.Pass.wall_s));
    ( "net.host_us_per_msg",
      each (fun p ->
          let msgs = sum_counter (reports p) [ "net.msgs.total" ] in
          if msgs = 0 then 0.0 else p.Pass.wall_s *. 1e6 /. float_of_int msgs) );
  ]

(* ---- per-run detail --------------------------------------------------- *)

let runs_json (passes : Pass.t list) =
  match passes with
  | [] -> Json.List []
  | first :: _ ->
      Json.List
        (List.mapi
           (fun i (o : Pass.outcome) ->
             let all = List.map (fun (p : Pass.t) -> List.nth p.outcomes i) passes in
             let num f = match o.report with Some r -> f r | None -> Json.Null in
             let err =
               List.find_map (fun (x : Pass.outcome) -> if x.ok then None else Some x.error) all
             in
             Json.Obj
               [
                 ("name", Json.String o.run.name);
                 ("nprocs", Json.Int o.run.nprocs);
                 ("cycles", num (fun r -> Json.Int r.Report.cycles));
                 ("msgs", num (fun r -> Json.Int (Report.get r "net.msgs.total")));
                 ("checksum", num (fun r -> Json.Float r.Report.checksum));
                 ("reference", Json.Float o.reference);
                 ("ok", Json.Bool (List.for_all (fun (x : Pass.outcome) -> x.ok) all));
                 ("error", match err with Some e -> Json.String e | None -> Json.Null);
                 ( "walls",
                   Json.List
                     (List.map
                        (fun (x : Pass.outcome) -> Json.Float (float_of_int x.wall_ns *. 1e-9))
                        all) );
               ])
           first.outcomes)

let report_failures wname (ps : Pass.t list) =
  List.iter
    (fun (p : Pass.t) ->
      List.iter
        (fun (o : Pass.outcome) ->
          if not o.ok then
            Printf.eprintf "FAILED %s %s: %s (checksum %s, expected %.17g)\n%!" wname
              o.run.name o.error
              (match o.report with
              | Some r -> Printf.sprintf "%.17g" r.Report.checksum
              | None -> "-")
              o.reference)
        p.outcomes)
    ps

(* What one child mode measured. *)
type result = {
  wname : string;
  attempted : int;
  failed : int;
  metrics : (string * value) list;
  runs : Json.t;
}

let tally ps =
  ( List.fold_left (fun a (p : Pass.t) -> a + List.length p.outcomes) 0 ps,
    List.fold_left (fun a p -> a + Pass.failures p) 0 ps )

(* ---- run: warm-up, then timed passes with tracing off ----------------- *)

(* Passes from [next ()], at least [min], then more while another pass of
   the last one's length still ends within [seconds] of the first. *)
let repeat ~min ~seconds next =
  let t0 = Host.now () in
  let rec go acc n last =
    if n >= min && Host.seconds_since t0 +. last > seconds then List.rev acc
    else
      let t1 = Host.now () in
      let x = next () in
      go (x :: acc) (n + 1) (Host.seconds_since t1)
  in
  go [] 0 0.0

(* The timed passes of [run] and [all]; the [--workload] form takes at
   least 3 and fills its [--seconds] budget instead. *)
let timed_passes = 5

let run_mode (w : Workloads.t) ~seed ~passes ~seconds =
  let runs = w.runs ~seed in
  let refs = Pass.prepare runs in
  let warm = Pass.run refs runs in
  let ps = repeat ~min:passes ~seconds (fun () -> Pass.run refs runs) in
  let attempted, failed = tally (warm :: ps) in
  report_failures w.name (warm :: ps);
  let e2e =
    [
      ("wall_s", of_samples (List.map (fun (p : Pass.t) -> p.wall_s) ps));
      ("setup_s", of_samples (List.map (fun (p : Pass.t) -> p.setup_s) ps));
      ("peak_rss_mb", single (Host.status_mb "VmHWM"));
      ("failed_runs_pct", single (100.0 *. float_of_int failed /. float_of_int attempted));
    ]
  in
  { wname = w.name; attempted; failed; metrics = e2e @ per_pass ps @ counts (List.hd ps);
    runs = runs_json ps }

(* ---- trace: one untraced pass, then traced passes --------------------- *)

let breakdown_pct reps =
  let totals =
    List.map
      (fun c ->
        ( Engine.category_name c,
          List.fold_left
            (fun acc r -> acc + Report.get r ("time." ^ Engine.category_name c))
            0 reps ))
      Engine.categories
  in
  let all = List.fold_left (fun a (_, v) -> a + v) 0 totals in
  List.map
    (fun c ->
      let v = match List.assoc_opt c totals with Some v -> v | None -> 0 in
      ( Printf.sprintf "sim.time.%s_pct" c,
        if all = 0 then 0.0 else 100.0 *. float_of_int v /. float_of_int all ))
    Metrics.sim_categories

let traced_values (t : Tracer.t) ~cal (p : Pass.t) ~base_wall =
  let ns k = Tracer.corrected_ns t ~cal k in
  let calls k = float_of_int t.segs.(k) in
  let per k scale = if t.segs.(k) = 0 then 0.0 else ns k /. calls k /. scale in
  let op k = Tracer.op_names.(k) in
  let scalar k =
    [ (Printf.sprintf "parmacs.%s.calls" (op k), calls k);
      (Printf.sprintf "parmacs.%s.ns" (op k), per k 1.0) ]
  in
  let blocking k =
    [ (Printf.sprintf "parmacs.%s.calls" (op k), calls k);
      (Printf.sprintf "parmacs.%s.us" (op k), per k 1e3) ]
  in
  let access_ns = ns Tracer.read +. ns Tracer.write +. ns Tracer.range in
  [ ("apps.kernel_s", ns Tracer.apps *. 1e-9) ]
  @ List.concat_map scalar [ Tracer.read; Tracer.write; Tracer.compute ]
  @ [ ( "parmacs.host_ns_per_access",
        if t.words = 0 then 0.0 else access_ns /. float_of_int t.words ) ]
  @ List.concat_map blocking [ Tracer.range; Tracer.barrier; Tracer.lock; Tracer.unlock ]
  @ [
      ("platform.finish_s", ns Tracer.finish *. 1e-9);
      ("platform.setup_rss_mb", t.setup_rss_mb);
      ("trace.overhead_pct", 100.0 *. ((p.wall_s /. base_wall) -. 1.0));
    ]
  @ breakdown_pct (reports p)

let micro_quota = 0.25

let micro_values () =
  List.map (fun (name, v) -> (name, single v)) (Micro.run ~quota:micro_quota)

let trace_mode (w : Workloads.t) ~seed ~seconds ~micro =
  let runs = w.runs ~seed in
  let refs = Pass.prepare runs in
  let cal = Tracer.calibrate () in
  let warm = Pass.run refs runs in
  let base = Pass.run refs runs in
  let tps =
    repeat ~min:1 ~seconds (fun () ->
        let t = Tracer.create () in
        (t, Pass.run ~tracer:t refs runs))
  in
  let all_passes = warm :: base :: List.map snd tps in
  let attempted, failed = tally all_passes in
  report_failures w.name all_passes;
  let per_traced = List.map (fun (t, p) -> traced_values t ~cal p ~base_wall:base.wall_s) tps in
  let traced_metrics =
    List.map
      (fun (name, _) -> (name, of_samples (List.map (List.assoc name) per_traced)))
      (List.hd per_traced)
  in
  Printf.eprintf "%s: boundary cost %.1f ns (subtracted per segment)\n%!" w.name cal;
  {
    wname = w.name;
    attempted;
    failed;
    metrics =
      traced_metrics @ per_pass [ base ] @ counts base
      @ (if micro then micro_values () else []);
    runs = runs_json (List.map snd tps);
  }

(* ---- output ----------------------------------------------------------- *)

let result_json r =
  Json.Obj
    [
      ("workload", Json.String r.wname);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map (metric_json ~detail:true) r.metrics));
      ("runs", r.runs);
    ]

(* The one-line result of the --workload form: exactly the metrics named
   in [defs]. *)
let contract_line r defs =
  let pick (d : Metrics.def) =
    match List.assoc_opt d.name r.metrics with
    | Some x -> metric_json ~detail:false (d.name, x)
    | None -> failwith ("metric not measured: " ^ d.name)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", Json.Obj (List.map pick defs));
       ])

let finish_child o r =
  print_metrics r.wname r.metrics;
  Option.iter (fun path -> Json.to_file path (result_json r)) o.json

(* ---- all: one child process per workload, one at a time ---------------- *)

let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  (* A child's own metric lines go to stderr as progress, so stdout carries
     only the merged table. *)
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ ->
      Printf.eprintf "child failed: %s\n" (String.concat " " args);
      exit 1

let child_json args path =
  spawn (args @ [ "--json"; path ]);
  let j = Json.of_file path in
  Sys.remove path;
  j

let all_mode o =
  let seed = string_of_int o.seed in
  let part suffix = Printf.sprintf "%s.%s.part" o.out suffix in
  let per_workload =
    List.map
      (fun (w : Workloads.t) ->
        Printf.eprintf "== %s\n%!" w.name;
        let run =
          child_json [ "run"; w.name; "--seed"; seed ] (part (w.name ^ ".run"))
        in
        let trace = child_json [ "trace"; w.name; "--seed"; seed ] (part (w.name ^ ".trace")) in
        (w, run, trace))
      Workloads.all
  in
  Printf.eprintf "== micro\n%!";
  let micro = Json.to_assoc (Json.member "metrics" (child_json [ "micro" ] (part "micro"))) in
  let workloads =
    List.map
      (fun ((w : Workloads.t), run, trace) ->
        let from_run = Json.to_assoc (Json.member "metrics" run) in
        (* The timed passes' per-pass and count metrics win over the traced
           child's single untraced pass. *)
        let from_trace =
          List.filter (fun (k, _) -> not (List.mem_assoc k from_run))
            (Json.to_assoc (Json.member "metrics" trace))
        in
        let mine =
          List.filter
            (fun (k, _) ->
              List.exists (fun (n, _, wn) -> n = k && wn = w.name) Metrics.micro)
            micro
        in
        let metrics = from_run @ from_trace @ mine in
        List.iter
          (fun (k, v) ->
            Printf.printf "%s %s %.6g %s\n" w.name k
              (Json.to_float (Json.member "value" v))
              (Json.to_str (Json.member "unit" v)))
          metrics;
        let both k =
          Json.Int (int_of_float (Json.to_float (Json.member k run) +. Json.to_float (Json.member k trace)))
        in
        Json.Obj
          [
            ("name", Json.String w.name);
            ("attempted", both "attempted");
            ("failed", both "failed");
            ("metrics", Json.Obj metrics);
            ("runs", Json.member "runs" run);
            ("traced_runs", Json.member "runs" trace);
          ])
      per_workload
  in
  Json.to_file o.out
    (Json.Obj
       [ ("schema", Json.String "perf/1"); ("seed", Json.Int o.seed);
         ("workloads", Json.List workloads) ]);
  Printf.eprintf "wrote %s\n" o.out

(* ---- compare ---------------------------------------------------------- *)

let bounds path =
  let j = Json.of_file path in
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)))
    (Json.to_list (Json.member "end_to_end" j))

type side = { med : float; q1 : float; q3 : float; xs : float list }

let side m =
  let med = Json.to_float (Json.member "value" m) in
  let get k = match Json.member k m with Json.Null -> med | v -> Json.to_float v in
  { med; q1 = get "q1"; q3 = get "q3";
    xs = List.map Json.to_float (Json.to_list (Json.member "samples" m)) }

(* A verdict on one end-to-end metric, lower being better: the change is
   [b], the parent [a]. *)
let verdict ~bound a b =
  let rel x = if a.med = 0.0 then (if x = 0.0 then 0.0 else infinity) else x /. a.med in
  let delta = rel (b.med -. a.med) in
  let spread s = if s.med = 0.0 then 0.0 else (s.q3 -. s.q1) /. s.med in
  let all_better =
    a.xs <> [] && b.xs <> []
    && List.fold_left Float.max neg_infinity b.xs < List.fold_left Float.min infinity a.xs
  in
  let verdict =
    if bound > 0.0 && Float.max (spread a) (spread b) > bound then
      if all_better then "improved" else "unresolved"
    else if delta > bound then "regressed"
    else if delta < -.bound && (bound > 0.0 || b.med < a.med) then "improved"
    else "no worse"
  in
  (delta, verdict)

let compare_mode o a_path b_path =
  let bounds = bounds o.bench in
  let a = Json.of_file a_path and b = Json.of_file b_path in
  let workloads j =
    List.map (fun w -> (Json.to_str (Json.member "name" w), w))
      (Json.to_list (Json.member "workloads" j))
  in
  let wa = workloads a and wb = workloads b in
  let regressions = ref 0 in
  Printf.printf "%-13s %-16s %28s %28s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "verdict";
  let fmt s = Printf.sprintf "%.4g [%.4g, %.4g]" s.med s.q1 s.q3 in
  List.iter
    (fun (name, ja) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%-13s missing from %s\n" name b_path
      | Some jb ->
          let ma = Json.member "metrics" ja and mb = Json.member "metrics" jb in
          List.iter
            (fun (d : Metrics.def) ->
              match (Json.member d.name ma, Json.member d.name mb) with
              | Json.Null, _ | _, Json.Null -> ()
              | x, y ->
                  let sa = side x and sb = side y in
                  let bound = Option.value (List.assoc_opt d.name bounds) ~default:0.0 in
                  let bound = if sa.med > 0.0 then Float.max bound (d.floor /. sa.med) else bound in
                  let delta, v = verdict ~bound sa sb in
                  if v = "regressed" then incr regressions;
                  Printf.printf "%-13s %-16s %28s %28s %+7.1f%%  %s (bound %.3g%%)\n" name d.name
                    (fmt sa) (fmt sb) (100.0 *. delta) v (100.0 *. bound))
            (Metrics.end_to_end @ [ Metrics.failed_runs_pct ]);
          let differing =
            List.filter_map
              (fun (d : Metrics.def) ->
                let va = Json.member d.name ma and vb = Json.member d.name mb in
                let fa = Json.to_float (Json.member "value" va)
                and fb = Json.to_float (Json.member "value" vb) in
                if fa = fb then None else Some (Printf.sprintf "%s %.17g -> %.17g" d.name fa fb))
              Metrics.count_defs
          in
          if differing = [] then Printf.printf "%-13s simulated counts: identical\n" name
          else
            List.iter (fun s -> Printf.printf "%-13s simulated count differs: %s\n" name s)
              differing)
    wa;
  if !regressions > 0 then exit 1

(* ---- smoke ------------------------------------------------------------ *)

(* BENCHMARK.json must name exactly the metrics this program emits. *)
let check_bench path =
  let j = Json.of_file path in
  let listed k f = List.sort compare (List.map f (Json.to_list (Json.member k j))) in
  let field k m = Json.to_str (Json.member k m) in
  let same k theirs mine =
    if theirs <> List.sort compare mine then begin
      Printf.eprintf "%s: %s differs from what perf.exe emits\n" path k;
      exit 1
    end
  in
  let metric m = (field "name" m, field "unit" m, field "better" m) in
  let mine defs =
    List.map
      (fun (d : Metrics.def) -> (d.name, d.unit, if d.higher_better then "higher" else "lower"))
      defs
  in
  same "end_to_end" (listed "end_to_end" metric) (mine Metrics.end_to_end);
  same "per_layer" (listed "per_layer" metric) (mine Metrics.per_layer);
  same "workloads" (listed "workloads" (field "name"))
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let smoke_mode o =
  if Sys.file_exists o.bench then check_bench o.bench;
  let failed =
    List.fold_left
      (fun acc (w : Workloads.t) ->
        let runs = w.runs ~seed:o.seed in
        let p = Pass.run (Pass.prepare runs) runs in
        List.iter
          (fun (x : Pass.outcome) ->
            Printf.printf "%-13s %-24s %s %.2fs\n%!" w.name x.run.name
              (if x.ok then "ok" else "FAILED " ^ x.error)
              (float_of_int x.wall_ns *. 1e-9))
          p.outcomes;
        acc + Pass.failures p)
      0 Workloads.all
  in
  if failed > 0 then (Printf.printf "%d run(s) failed\n" failed; exit 1)

(* ---- entry ------------------------------------------------------------ *)

let () =
  let o = parse Sys.argv in
  match (o.workload, o.trace, o.pos) with
  | Some w, Some tr, [] ->
      let w = workload w in
      if tr = 0 then
        let r = run_mode w ~seed:o.seed ~passes:3 ~seconds:o.seconds in
        finish_child o r;
        print_endline (contract_line r Metrics.end_to_end)
      else
        let r = trace_mode w ~seed:o.seed ~seconds:o.seconds ~micro:true in
        finish_child o r;
        print_endline (contract_line r Metrics.per_layer)
  | None, None, [ "all" ] -> all_mode o
  | None, None, [ "run"; w ] ->
      finish_child o (run_mode (workload w) ~seed:o.seed ~passes:timed_passes ~seconds:o.seconds)
  | None, None, [ "trace"; w ] ->
      finish_child o (trace_mode (workload w) ~seed:o.seed ~seconds:o.seconds ~micro:false)
  | None, None, [ "micro" ] ->
      finish_child o
        { wname = "micro"; attempted = 0; failed = 0; metrics = micro_values (); runs = Json.List [] }
  | None, None, [ "compare"; a; b ] -> compare_mode o a b
  | None, None, [ "smoke" ] -> smoke_mode o
  | _ -> usage ()
