module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory

type page_data = Memory.t

type t =
  | Read_req of { page : int; requester : int; req : int }
  | Read_fwd of { page : int; requester : int; req : int }
  | Page_copy of { page : int; req : int; data : page_data }
  | Write_req of { page : int; requester : int; req : int }
  | Invalidate of { page : int; req : int }
  | Inval_ack of { page : int; req : int }
  | Write_fwd of { page : int; requester : int; req : int }
  | Page_grant of { page : int; req : int; data : page_data option }
  | Txn_done of { page : int; requester : int; write : int }
  | Lock_req of { lock : int; requester : int; req : int }
  | Lock_grant of { lock : int; req : int }
  | Unlock of { lock : int; requester : int }
  | Barrier_arrive of { barrier : int; node : int; req : int }
  | Barrier_depart of { barrier : int; req : int }

(* Every control message carries one 8-byte word, so one record serves
   them all. *)
let control = Msg.sizes ~consistency:8 ()

let sizes = function
  | Page_copy { data; _ } -> Msg.sizes ~payload:(8 * Memory.words data) ()
  | Page_grant { data = Some d; _ } -> Msg.sizes ~payload:(8 * Memory.words d) ()
  | Read_req _ | Read_fwd _ | Write_req _ | Invalidate _ | Inval_ack _
  | Write_fwd _
  | Page_grant { data = None; _ }
  | Txn_done _ | Lock_req _ | Lock_grant _ | Unlock _ | Barrier_arrive _
  | Barrier_depart _ ->
      control

(* Replies complete a wait of the receiving node's own application. *)
let is_reply = function
  | Page_copy _ | Page_grant _ | Lock_grant _ | Barrier_depart _ -> true
  | Read_req _ | Read_fwd _ | Write_req _ | Invalidate _ | Inval_ack _
  | Write_fwd _ | Txn_done _ | Lock_req _ | Unlock _ | Barrier_arrive _ ->
      false
