(* The named machines: each row is a topology on a host, spelled with
   its default engine at the root.  [--protocol] replaces that engine
   with one of the same kind ({!Topology.build} refuses others; the
   plain uniprocessor mounts none), and [display] names the platform
   after the engine it mounted. *)
type row = {
  name : string;
  display : string -> string;
  eager : bool;
  host : Topology.host;
  tree : Topology.tree;
}

let named base default engine =
  if engine = default then base else base ^ "+" ^ engine

let treadmarks level = function
  | "lrc" -> "treadmarks-" ^ level
  | "erc" -> "treadmarks-erc"
  | p -> Printf.sprintf "treadmarks-%s+%s" level p

let table =
  let row ?(eager = false) name display spec =
    let tree, host = Topology.of_string spec in
    { name; display; eager; tree;
      host = Topology.host_of_name (Option.get host) }
  in
  [
    { name = "dec"; display = (fun _ -> "dec"); eager = false;
      host = Topology.host_dec (); tree = Topology.Cpus 1 };
    row "treadmarks" (treadmarks "user") "lrc*8@dec";
    row "treadmarks-kernel" (treadmarks "kernel") "lrc*8@dec-kernel";
    row ~eager:true "treadmarks-eager" (treadmarks "user") "lrc*8@dec";
    row "treadmarks-erc" (treadmarks "user") "erc*8@dec";
    row "ivy" (named "ivy" "ivy") "ivy*64@dec";
    row "sgi" (named "sgi-4d480" "mesi") "mesi*8@sgi";
    (* Paper Section 2.5: dual cache tags and a bus twice as fast
       relative to the processors. *)
    row "sgi-fast" (named "sgi-fastbus" "mesi") "mesi*8@sgi-fast";
    row "as" (named "AS" "lrc") "lrc*256@sim";
    row "ah" (named "AH" "directory") "directory*256@sim";
    row "hs" (named "HS8" "lrc") "lrc(mesi*8 x 32)@sim";
  ]

let names = List.map (fun r -> r.name) table
let platforms = List.map (fun r -> (r.name, r.tree)) table
let protocols = Topology.engine_names ()

(* A "topo:SPEC" platform name builds the machine from a topology
   expression (DESIGN.md §15); engines are named per level inside the
   spec, so --protocol does not compose with it. *)
let topology ?faults ?crash ?max_cycles ?instrument spec =
  Topology.of_spec ?faults ?crash ?max_cycles ?instrument spec

let topo_prefix = "topo:"

let get ?faults ?crash ?max_cycles ?instrument ?protocol name =
  if String.starts_with ~prefix:topo_prefix name then begin
    (match protocol with
    | Some p ->
        invalid_arg
          (Printf.sprintf
             "a topology spec names its engines per level; --protocol %S \
              does not apply (write the engine into the spec, e.g. \
              \"lrc(mesi*8 x 4)\")"
             p)
    | None -> ());
    topology ?faults ?crash ?max_cycles ?instrument
      (String.sub name (String.length topo_prefix)
         (String.length name - String.length topo_prefix))
  end
  else
    match List.find_opt (fun r -> r.name = name) table with
    | None -> invalid_arg (Printf.sprintf "unknown platform %S" name)
    | Some r ->
        let engine =
          match (protocol, r.tree) with
          | Some e, _ -> e
          | None, Topology.Dom { engine; _ } -> engine
          | None, Topology.Cpus _ -> ""
        in
        Topology.build ~name:(r.display engine) ~platforms ?protocol
          ~eager:r.eager ?faults ?crash ?max_cycles ?instrument ~host:r.host
          r.tree
