module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Lifecycle = Shm_sim.Lifecycle
module Private_cache = Shm_memsys.Private_cache

(* A declarative topology of coherence domains: a tree whose root names
   the outermost coherence mechanism and whose leaves are processors.
   [Cpus n] contributes [n] single-processor participants to its parent;
   [Dom] contributes one participant running its own engine over its
   children.  A software-DSM engine at the root spans message-connected
   nodes; hardware engines (snoop bus, directory group) form the levels
   inside a node.  The builder below is the only place in lib/platform
   that resolves engine names and wires machines together. *)

type tree = Cpus of int | Dom of { engine : string; children : tree list }

type host = {
  host_name : string;
  clock_mhz : float;
  fabric_of : (unit -> Fabric.config) option;
      (* inter-node fabric for a software-DSM root; None on hosts that
         model a single cabinet with no network *)
  cache_cfg : Private_cache.config option;
      (* per-node private cache of a flat software-DSM cluster *)
  bus_profile : Shm_proto.hw_profile;
      (* timing profile a flat hardware root mounts with *)
}

let host_sim ?(overhead = Overhead.treadmarks_user) () =
  {
    host_name = "sim";
    clock_mhz = 100.0;
    fabric_of = Some (fun () -> Fabric.atm_sim ~overhead);
    cache_cfg = Some Private_cache.sim_node_config;
    bus_profile = Shm_proto.Crossbar;
  }

let host_dec ?(overhead = Overhead.treadmarks_user) () =
  {
    host_name = "dec";
    clock_mhz = 40.0;
    fabric_of = Some (fun () -> Fabric.atm_dec ~overhead);
    cache_cfg = Some Private_cache.dec_config;
    bus_profile = Shm_proto.Sgi_bus;
  }

let host_sgi () =
  {
    host_name = "sgi";
    clock_mhz = 40.0;
    fabric_of = None;
    cache_cfg = None;
    bus_profile = Shm_proto.Sgi_bus;
  }

let host_sgi_fast () =
  { (host_sgi ()) with host_name = "sgi-fast";
    bus_profile = Shm_proto.Sgi_bus_fast }

let host_names = [ "sim"; "dec"; "dec-kernel"; "sgi"; "sgi-fast" ]

let host_of_name = function
  | "sim" -> host_sim ()
  | "dec" -> host_dec ()
  | "dec-kernel" ->
      { (host_dec ~overhead:Overhead.treadmarks_kernel ()) with
        host_name = "dec-kernel" }
  | "sgi" -> host_sgi ()
  | "sgi-fast" -> host_sgi_fast ()
  | h ->
      invalid_arg
        (Printf.sprintf "unknown topology host %S (known hosts: %s)" h
           (String.concat ", " host_names))

let engine_kind = Shm_engines.kind_of
let engine_names () = Shm_engines.names

let rec capacity = function
  | Cpus n -> n
  | Dom { children; _ } ->
      List.fold_left (fun a c -> a + capacity c) 0 children

(* {2 Spec strings} *)

let grammar_hint =
  "grammar: SPEC = ENGINE*N | ENGINE(ITEM, ...), ITEM = N | SPEC [x K], \
   with an optional @HOST suffix (one of sim, dec, dec-kernel, sgi, \
   sgi-fast; default sim) — e.g. \"lrc(mesi*8 x 4)\" is four 8-way \
   snooping buses under a software-DSM root"

type tok = Name of string | Int of int | Star | Lpar | Rpar | Comma | At | Rep

let lex spec =
  let bad msg =
    invalid_arg (Printf.sprintf "topology spec %S: %s (%s)" spec msg grammar_hint)
  in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '-' || c = '_'
  in
  let n = String.length spec in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = spec.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '*' then (toks := Star :: !toks; incr i)
    else if c = '(' then (toks := Lpar :: !toks; incr i)
    else if c = ')' then (toks := Rpar :: !toks; incr i)
    else if c = ',' then (toks := Comma :: !toks; incr i)
    else if c = '@' then (toks := At :: !toks; incr i)
    else if is_word c then begin
      let j = ref !i in
      while !j < n && is_word spec.[!j] do incr j done;
      let w = String.sub spec !i (!j - !i) in
      i := !j;
      match int_of_string_opt w with
      | Some k -> toks := Int k :: !toks
      | None -> if w = "x" then toks := Rep :: !toks else toks := Name w :: !toks
    end
    else bad (Printf.sprintf "unexpected character %C" c)
  done;
  List.rev !toks

(* [of_string spec] parses a topology expression plus optional host tag. *)
let of_string spec =
  let bad msg =
    invalid_arg (Printf.sprintf "topology spec %S: %s (%s)" spec msg grammar_hint)
  in
  let toks = ref (lex spec) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let next () =
    match !toks with
    | [] -> bad "unexpected end of spec"
    | t :: rest ->
        toks := rest;
        t
  in
  let rec parse_node () =
    match next () with
    | Name engine -> (
        match next () with
        | Star -> (
            match next () with
            | Int k -> Dom { engine; children = [ Cpus k ] }
            | _ -> bad (Printf.sprintf "expected a processor count after %S*" engine))
        | Lpar ->
            let children = parse_args [] in
            Dom { engine; children }
        | _ ->
            bad
              (Printf.sprintf
                 "expected \"*N\" or \"(...)\" after engine %S" engine))
    | Int _ -> bad "a topology needs a coherence engine at its root, not a bare processor count"
    | _ -> bad "expected an engine name"
  and parse_args acc =
    let item =
      match peek () with
      | Some (Int k) ->
          ignore (next ());
          [ Cpus k ]
      | _ ->
          let d = parse_node () in
          (match peek () with
          | Some Rep -> (
              ignore (next ());
              match next () with
              | Int k when k >= 1 -> List.init k (fun _ -> d)
              | Int k -> bad (Printf.sprintf "repeat count %d must be positive" k)
              | _ -> bad "expected a repeat count after \"x\"")
          | _ -> [ d ])
    in
    let acc = acc @ item in
    match next () with
    | Comma -> parse_args acc
    | Rpar -> acc
    | _ -> bad "expected \",\" or \")\" in the member list"
  in
  let t = parse_node () in
  let host =
    match peek () with
    | None -> None
    | Some At -> (
        ignore (next ());
        match next () with
        | Name h -> Some h
        | _ -> bad "expected a host name after \"@\"")
    | Some _ -> bad "trailing tokens after the topology"
  in
  (match !toks with [] -> () | _ -> bad "trailing tokens after the host tag");
  (t, host)

let rec to_string = function
  | Cpus n -> string_of_int n
  | Dom { engine; children } -> (
      match children with
      | [ Cpus n ] -> Printf.sprintf "%s*%d" engine n
      | _ ->
          (* Collapse runs of equal members into "member x k". *)
          let rec groups = function
            | [] -> []
            | c :: rest ->
                let rec take k = function
                  | c' :: tl when c' = c -> take (k + 1) tl
                  | tl -> (k, tl)
                in
                let k, tl = take 1 rest in
                (c, k) :: groups tl
          in
          let member (c, k) =
            let s = to_string c in
            if k = 1 then s else Printf.sprintf "%s x %d" s k
          in
          Printf.sprintf "%s(%s)" engine
            (String.concat ", " (List.map member (groups children))))

let spec_string t host = to_string t ^ "@" ^ host.host_name

(* {2 Validation} *)

(* Everything is checked before any engine state is constructed: an
   invalid machine x engine x topology combination raises here, from
   [build], with nothing mounted. *)
let validate ~host t =
  let fail msg = invalid_arg (Printf.sprintf "topology %S: %s" (to_string t) msg) in
  let check_engine e =
    match Shm_engines.find e with
    | Some _ -> ()
    | None ->
        fail
          (Printf.sprintf "unknown engine %S (known engines: %s)" e
             (String.concat ", " (engine_names ())))
  in
  let rec structure ~depth = function
    | Cpus n -> if n < 1 then fail "processor counts must be positive"
    | Dom { engine; children } ->
        check_engine engine;
        if children = [] then
          fail (Printf.sprintf "domain %S has no members" engine);
        (match (engine_kind engine, depth) with
        | Shm_proto.Sdsm, 0 -> (
            match host.fabric_of with
            | Some _ -> ()
            | None ->
                fail
                  (Printf.sprintf
                     "host %S models a single cabinet with no inter-node \
                      network; a software-DSM root needs host sim or dec"
                     host.host_name))
        | Shm_proto.Sdsm, _ ->
            fail
              (Printf.sprintf
                 "software-DSM engine %S below the root — software levels \
                  own per-node memories and mount only at the root of a \
                  topology"
                 engine)
        | Shm_proto.Hw, d when d >= 1 -> ()
        | Shm_proto.Hw, _ ->
            (* flat hardware machine: no sub-domains *)
            List.iter
              (function
                | Cpus _ -> ()
                | Dom { engine = sub; _ } ->
                    fail
                      (Printf.sprintf
                         "hardware root %S cannot contain sub-domain %S — \
                          hardware coherence domains nest only under a \
                          software-DSM root"
                         engine sub))
              children);
        List.iter (structure ~depth:(depth + 1)) children
  in
  match t with
  | Cpus 1 -> () (* the plain uniprocessor *)
  | Cpus _ ->
      fail "a topology needs a coherence domain at its root, not a bare \
            processor count"
  | Dom _ ->
      structure ~depth:0 t;
      if capacity t < 1 then fail "topology provides no processors"

(* {2 Trimming}

   A topology declares capacities; a run for [nprocs] processors fills
   leaves greedily left to right and drops the domains left empty, so a
   half-filled HS-style machine mounts exactly the nodes it uses (the
   [cpus_of_node] rule of the original HS runner). *)

let rec trim t remaining =
  match t with
  | Cpus n ->
      let take = min n remaining in
      ((if take = 0 then None else Some (Cpus take)), take)
  | Dom { engine; children } ->
      let taken, kept =
        List.fold_left
          (fun (taken, kept) c ->
            let c', t = trim c (remaining - taken) in
            (taken + t, match c' with None -> kept | Some c' -> c' :: kept))
          (0, []) children
      in
      ( (if taken = 0 then None
         else Some (Dom { engine; children = List.rev kept })),
        taken )

let rec to_hier = function
  | Cpus n -> Hier.Procs n
  | Dom { engine; children } ->
      Hier.Dom
        {
          Hier.d_engine = Shm_engines.get engine;
          d_children = List.map to_hier children;
        }

(* {2 Building} *)

let is_dom = function Dom _ -> true | Cpus _ -> false

let is_flat_sdsm = function
  | Dom { engine; children } ->
      engine_kind engine = Shm_proto.Sdsm && not (List.exists is_dom children)
  | Cpus _ -> false

let root_kind = function
  | Dom { engine; _ } -> Some (engine_kind engine)
  | Cpus _ -> None

(* The named machines whose default trees satisfy [p], for the refusals
   below to point at. *)
let platforms_where platforms p =
  String.concat ", "
    (List.filter_map (fun (n, t) -> if p t then Some n else None) platforms)

(* A named machine's root engine may be replaced by one of the same
   kind; the plain uniprocessor ([Cpus 1]) mounts none. *)
let with_protocol ~name ~platforms t engine =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let mounting kind =
    platforms_where platforms (fun t -> root_kind t = Some kind)
  in
  match t with
  | Cpus _ ->
      fail
        "platform %S is a uniprocessor and mounts no coherence engine; \
         protocol %S applies only to the shared-memory platforms (%s)"
        name engine
        (platforms_where platforms is_dom)
  | Dom { engine = default; children } ->
      (match (engine_kind default, engine_kind engine) with
      | k, k' when k = k' -> ()
      | Shm_proto.Sdsm, _ when not (List.exists is_dom children) ->
          fail
            "platform %S is a software-DSM cluster; protocol %S is a \
             hardware cache-coherence engine (mount it on one of: %s)"
            name engine (mounting Shm_proto.Hw)
      | Shm_proto.Sdsm, _ ->
          fail
            "platform %S runs a software-DSM protocol between its \
             hardware-coherent nodes; protocol %S is a hardware \
             cache-coherence engine (mount it on one of: %s)"
            name engine (mounting Shm_proto.Hw)
      | Shm_proto.Hw, _ ->
          fail
            "platform %S has hardware cache coherence; protocol %S is a \
             software-DSM engine (mount it on one of: %s)"
            name engine (mounting Shm_proto.Sdsm));
      Dom { engine; children }

(* Fault and crash injection need the node lifecycle and unreliable
   fabric of a flat software-DSM cluster; every other shape refuses an
   active policy before anything is mounted. *)
let check_policies ~name ~platforms t faults crash =
  if not (is_flat_sdsm t) then
    match platforms with
    | None ->
        if Fabric.faults_active faults then
          invalid_arg
            (Printf.sprintf
               "topology %S has hardware coherence levels below reliable \
                machine boundaries; network fault injection applies only to \
                flat software-DSM topologies"
               name);
        if Lifecycle.active crash then
          invalid_arg
            (Printf.sprintf
               "topology %S models reliable multiprocessor nodes; whole-node \
                crash injection applies only to flat software-DSM topologies"
               name)
    | Some platforms ->
        let dsm_platforms = platforms_where platforms is_flat_sdsm in
        if Fabric.faults_active faults then
          invalid_arg
            (Printf.sprintf
               "platform %S models a reliable interconnect; fault injection \
                applies only to the software-DSM platforms (%s)"
               name dsm_platforms);
        if Lifecycle.active crash then
          invalid_arg
            (Printf.sprintf
               "platform %S models a reliable machine; whole-node crash \
                injection applies only to the software-DSM platforms (%s)"
               name dsm_platforms)

let build ?name ?platforms ?protocol ?(faults = Fabric.no_faults)
    ?(crash = Lifecycle.none) ?max_cycles ?(instrument = Instrument.off)
    ?(eager = false) ~host t =
  let name = match name with Some n -> n | None -> spec_string t host in
  let t =
    match protocol with
    | None -> t
    | Some engine ->
        with_protocol ~name
          ~platforms:(Option.value platforms ~default:[])
          t engine
  in
  validate ~host t;
  check_policies ~name ~platforms t faults crash;
  let cap = capacity t in
  let what = if Option.is_none platforms then "topology" else "platform" in
  let run app ~nprocs =
    if nprocs > cap then
      invalid_arg
        (Printf.sprintf "%s %S provides %d processors; %d requested" what
           name cap nprocs);
    if nprocs < 1 then
      invalid_arg (Printf.sprintf "%s %S: nprocs must be positive" what name);
    let root =
      match trim t nprocs with
      | Some t, taken when taken = nprocs -> to_hier t
      | _ -> assert false
    in
    Hier.run ~faults ~crash ?max_cycles ~instrument ~name
      ~clock_mhz:host.clock_mhz ~fabric_of:host.fabric_of
      ~cache_cfg:host.cache_cfg ~bus_profile:host.bus_profile ~eager root app
      ~nprocs
  in
  { Platform.name; clock_mhz = host.clock_mhz; max_procs = cap; run }

let of_spec ?faults ?crash ?max_cycles ?instrument ?eager spec =
  let t, host = of_string spec in
  let host =
    match host with Some h -> host_of_name h | None -> host_sim ()
  in
  build ?faults ?crash ?max_cycles ?instrument ?eager ~host
    ~name:(spec_string t host) t
