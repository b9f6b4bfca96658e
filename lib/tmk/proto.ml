module Msg = Shm_net.Msg

type t =
  | Lock_req of { lock : int; requester : int; req : int; vc : Vc.t }
  | Lock_forward of { lock : int; requester : int; req : int; vc : Vc.t }
  | Lock_grant of { lock : int; req : int; vc : Vc.t; records : Record.t list }
  | Diff_req of { page : int; requester : int; req : int; lo : int; hi : int }
  | Diff_resp of { page : int; req : int; creator : int; diffs : Diff.t list }
  | Barrier_arrive of {
      barrier : int;
      node : int;
      req : int;
      vc : Vc.t;
      records : Record.t list;
      dropped_bytes : int;
    }
  | Barrier_depart of { barrier : int; req : int; vc : Vc.t; records : Record.t list }
  | Eager_update of { record : Record.t; diffs : Diff.t list }
  | Eager_notice of { record : Record.t; requester : int; req : int }
  | Eager_ack of { req : int }

let records_bytes records =
  List.fold_left (fun acc r -> acc + Record.bytes r) 0 records

let diffs_bytes diffs =
  List.fold_left (fun acc d -> acc + Diff.bytes d) 0 diffs

let sizes = function
  | Lock_req { vc; _ } | Lock_forward { vc; _ } ->
      Msg.sizes ~consistency:(Vc.bytes vc) ()
  | Lock_grant { vc; records; _ } ->
      Msg.sizes ~consistency:(Vc.bytes vc + records_bytes records) ()
  | Diff_req _ -> Msg.sizes ~consistency:16 ()
  | Diff_resp { diffs; _ } -> Msg.sizes ~payload:(diffs_bytes diffs) ()
  | Barrier_arrive { vc; records; dropped_bytes; _ } ->
      Msg.sizes
        ~consistency:(Vc.bytes vc + records_bytes records + dropped_bytes)
        ()
  | Barrier_depart { vc; records; _ } ->
      Msg.sizes ~consistency:(Vc.bytes vc + records_bytes records) ()
  | Eager_update { record; diffs } ->
      Msg.sizes ~consistency:(Record.bytes record) ~payload:(diffs_bytes diffs)
        ()
  | Eager_notice { record; _ } ->
      Msg.sizes ~consistency:(Record.bytes record) ()
  | Eager_ack _ -> Msg.sizes ()

let class_ = function
  | Lock_req _ | Lock_forward _ | Lock_grant _ | Barrier_arrive _
  | Barrier_depart _ ->
      Msg.Sync
  | Eager_notice _ | Eager_ack _ -> Msg.Sync
  | Diff_req _ | Diff_resp _ | Eager_update _ -> Msg.Miss

let kind_name = function
  | Lock_req _ -> "lock_req"
  | Lock_forward _ -> "lock_forward"
  | Lock_grant _ -> "lock_grant"
  | Diff_req _ -> "diff_req"
  | Diff_resp _ -> "diff_resp"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_depart _ -> "barrier_depart"
  | Eager_update _ -> "eager_update"
  | Eager_notice _ -> "eager_notice"
  | Eager_ack _ -> "eager_ack"
