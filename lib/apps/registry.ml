type scale = Quick | Default | Paper

let scale_of_string = function
  | "quick" -> Some Quick
  | "default" -> Some Default
  | "paper" -> Some Paper
  | _ -> None

let scale_name = function
  | Quick -> "quick"
  | Default -> "default"
  | Paper -> "paper"

let names =
  [
    "sor"; "sor-square"; "sor-touchall"; "tsp"; "tsp-small"; "water";
    "m-water"; "ilink-clp"; "ilink-bad"; "migratory"; "producer-consumer";
    "false-sharing"; "read-mostly"; "kv";
  ]

(* Per-app parameter overrides, given as string pairs from the CLI.
   Every app declares its known keys; an unknown key is an error rather
   than a silent no-op, since a typoed knob that quietly reverts to the
   default is the worst possible failure mode for an experiment. *)

let check_keys ~app known params =
  List.iter
    (fun (k, _) ->
      if not (List.mem k known) then
        invalid_arg
          (Printf.sprintf "app %S: unknown parameter %S (known: %s)" app k
             (String.concat ", " known)))
    params

let pint params key default =
  match List.assoc_opt key params with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "parameter %s=%S: expected an integer" key v))

let pfloat params key default =
  match List.assoc_opt key params with
  | None -> default
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> f
      | None ->
          invalid_arg
            (Printf.sprintf "parameter %s=%S: expected a number" key v))

let sor_params ~scale ~square ~touch_all =
  let rows, cols, iters =
    match (scale, square) with
    | Quick, _ -> (96, 96, 4)
    | Default, false -> (2048, 1024, 8)
    | Default, true -> (1152, 1152, 8)
    | Paper, false -> (2000, 1000, 51)
    | Paper, true -> (1000, 1000, 51)
  in
  { Sor.default_params with rows; cols; iters; touch_all }

(* The paper ran 18- and 19-city inputs on real hardware; an exhaustive
   simulated search at that size is intractable (days of DFS), so paper
   scale caps at 16/15 cities — documented in EXPERIMENTS.md. *)
let tsp_cities ~scale ~small =
  match (scale, small) with
  | Quick, false -> 10
  | Quick, true -> 9
  | Default, false -> 13
  | Default, true -> 12
  | Paper, false -> 16
  | Paper, true -> 15

let water_params ~scale mode =
  match scale with
  | Quick -> { (Water.default_params mode) with molecules = 64; steps = 1 }
  | Default -> Water.default_params mode
  | Paper -> Water.params_paper mode

let ilink_params ~scale input =
  let base = Ilink.default_params input in
  (* The BAD input iterates more often over smaller families: a higher
     barrier rate, the paper's worst case. *)
  let base =
    match input with
    | Ilink.Bad -> { base with Ilink.iters = 10; scale = 0.7 }
    | Ilink.Clp -> base
  in
  match scale with
  | Quick -> { base with Ilink.iters = base.Ilink.iters / 3 + 1; scale = base.Ilink.scale *. 0.25 }
  | Default -> base
  | Paper -> { base with Ilink.iters = base.Ilink.iters * 2; scale = base.Ilink.scale *. 4.0 }

let pattern_params ~scale kind =
  let base = Patterns.default_params kind in
  match scale with
  | Quick -> { base with Patterns.rounds = base.Patterns.rounds / 4 }
  | Default -> base
  | Paper -> { base with Patterns.rounds = base.Patterns.rounds * 4 }

let kv_params ~scale params =
  check_keys ~app:"kv"
    [ "keys"; "zipf"; "get-ratio"; "requests"; "shards"; "mean-gap";
      "service"; "seed" ]
    params;
  let keys, requests, mean_gap =
    match scale with
    | Quick -> (256, 400, 2000)
    | Default -> (4096, 5000, 1500)
    | Paper -> (16384, 20000, 1500)
  in
  {
    Kvstore.shards = pint params "shards" 16;
    service_cycles = pint params "service" 400;
    load =
      {
        Loadgen.seed = pint params "seed" 42;
        keys = pint params "keys" keys;
        zipf = pfloat params "zipf" 0.9;
        get_ratio = pfloat params "get-ratio" 0.9;
        requests = pint params "requests" requests;
        mean_gap = pint params "mean-gap" mean_gap;
      };
  }

let kv ~scale ?(params = []) () = Kvstore.make (kv_params ~scale params)

let app ~scale ?(params = []) ?nprocs name =
  let check known = check_keys ~app:name known params in
  let fits slots = Option.iter (Layout.check_slots ~app:name ~slots) nprocs in
  match name with
  | ("sor" | "sor-square" | "sor-touchall") as n ->
      check [ "rows"; "cols"; "iters"; "slots" ];
      let base =
        sor_params ~scale ~square:(n = "sor-square")
          ~touch_all:(n = "sor-touchall")
      in
      let p =
        {
          base with
          Sor.rows = pint params "rows" base.Sor.rows;
          cols = pint params "cols" base.Sor.cols;
          iters = pint params "iters" base.Sor.iters;
          slots = pint params "slots" base.Sor.slots;
        }
      in
      fits p.slots;
      Sor.make p
  | ("tsp" | "tsp-small") as n ->
      (* tsp has no per-processor layout, so [slots] is accepted for CLI
         uniformity (the generic --slots knob) and has nothing to size. *)
      check [ "cities"; "slots" ];
      let base = tsp_cities ~scale ~small:(n = "tsp-small") in
      Tsp.make (Tsp.params_n (pint params "cities" base))
  | ("water" | "m-water") as n ->
      check [ "molecules"; "steps"; "slots" ];
      let mode = if n = "water" then Water.Locked else Water.Batched in
      let base = water_params ~scale mode in
      let p =
        {
          base with
          Water.molecules = pint params "molecules" base.Water.molecules;
          steps = pint params "steps" base.Water.steps;
          slots = pint params "slots" base.Water.slots;
        }
      in
      fits p.slots;
      Water.make p
  | ("ilink-clp" | "ilink-bad") as n ->
      check [ "iters"; "scale"; "slots" ];
      let input = if n = "ilink-clp" then Ilink.Clp else Ilink.Bad in
      let base = ilink_params ~scale input in
      let p =
        {
          base with
          Ilink.iters = pint params "iters" base.Ilink.iters;
          scale = pfloat params "scale" base.Ilink.scale;
          slots = pint params "slots" base.Ilink.slots;
        }
      in
      fits p.slots;
      Ilink.make p
  | ("migratory" | "producer-consumer" | "false-sharing" | "read-mostly") as n
    ->
      check [ "rounds"; "words"; "compute"; "slots" ];
      let kind =
        match n with
        | "migratory" -> Patterns.Migratory
        | "producer-consumer" -> Patterns.Producer_consumer
        | "false-sharing" -> Patterns.False_sharing
        | _ -> Patterns.Read_mostly
      in
      let base = pattern_params ~scale kind in
      let p =
        {
          base with
          Patterns.rounds = pint params "rounds" base.Patterns.rounds;
          words = pint params "words" base.Patterns.words;
          compute = pint params "compute" base.Patterns.compute;
          slots = pint params "slots" base.Patterns.slots;
        }
      in
      fits p.slots;
      Patterns.make p
  | "kv" -> (kv ~scale ~params ()).Kvstore.app
  | name -> invalid_arg (Printf.sprintf "unknown application %S" name)
