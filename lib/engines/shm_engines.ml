(* The protocol registry: every coherence engine in the build, as a pure
   value.  Platforms and the CLI look engines up here by name; nothing
   outside this library names a concrete protocol module. *)

let registry =
  Shm_proto.Registry.of_list
    [
      (module Shm_tmk.Lrc_engine.Lrc : Shm_proto.ENGINE);
      (module Shm_tmk.Lrc_engine.Eager_lrc : Shm_proto.ENGINE);
      (module Shm_tmk.Lrc_engine.Erc : Shm_proto.ENGINE);
      (module Shm_ivy.Ivy_engine : Shm_proto.ENGINE);
      (module Shm_tardis.Tardis_engine : Shm_proto.ENGINE);
      (module Snoop_engine : Shm_proto.ENGINE);
      (module Directory_engine : Shm_proto.ENGINE);
    ]

let names = Shm_proto.Registry.names registry

let find name = Shm_proto.Registry.find registry name

let get name =
  match find name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown protocol %S (known protocols: %s)" name
           (String.concat ", " names))

let kind_of name =
  let (module E : Shm_proto.ENGINE) = get name in
  Shm_proto.kind_of_mount E.mount
