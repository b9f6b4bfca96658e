module Msg = Shm_net.Msg
module Memory = Shm_memsys.Memory

type page_data = Memory.t

type t =
  | Read_req of {
      page : int;
      requester : int;
      req : int;
      pts : int;
      have_wts : int;  (** version of the requester's copy, -1 for none *)
    }
  | Read_grant of {
      page : int;
      req : int;
      wts : int;
      lease : int;
      data : page_data option;  (** [None]: a pure lease renewal *)
    }
  | Write_req of {
      page : int;
      requester : int;
      req : int;
      pts : int;
      have_wts : int;
    }
  | Write_grant of { page : int; req : int; ts : int; data : page_data option }
  | Flush_req of { page : int; req : int; drop : bool }
      (** manager -> owner: surrender the page ([drop]: to Invalid for a
          writer, else downgrade to Shared) *)
  | Flush_resp of { page : int; req : int; data : page_data }
      (** owner -> manager: latest contents back to the home copy *)
  | Txn_done of { page : int; requester : int }
  | Lock_req of { lock : int; requester : int; req : int }
  | Lock_grant of { lock : int; req : int; ts : int }
      (** [ts]: the last releaser's timestamp — the acquirer jumps
          forward to it *)
  | Unlock of { lock : int; requester : int; pts : int }
  | Barrier_arrive of { barrier : int; node : int; req : int; pts : int }
  | Barrier_depart of { barrier : int; req : int; ts : int }

(* Timestamps ride in the consistency section: two 8-byte words cover a
   version and a lease (or a pts and a have_wts).  The control sizes are
   constants, so each is one record that every such message shares. *)
let timestamps = Msg.sizes ~consistency:16 ()

let one_word = Msg.sizes ~consistency:8 ()

let sizes = function
  | Read_grant { data = Some d; _ } | Write_grant { data = Some d; _ } ->
      Msg.sizes ~consistency:16 ~payload:(8 * Memory.words d) ()
  | Flush_resp { data; _ } ->
      Msg.sizes ~consistency:8 ~payload:(8 * Memory.words data) ()
  | Read_req _ | Write_req _
  | Read_grant { data = None; _ }
  | Write_grant { data = None; _ }
  | Lock_req _ | Lock_grant _ | Unlock _ | Barrier_arrive _ | Barrier_depart _
    ->
      timestamps
  | Flush_req _ | Txn_done _ -> one_word

(* Replies complete a wait of the receiving node's own application. *)
let is_reply = function
  | Read_grant _ | Write_grant _ | Lock_grant _ | Barrier_depart _ -> true
  | Read_req _ | Write_req _ | Flush_req _ | Flush_resp _ | Txn_done _
  | Lock_req _ | Unlock _ | Barrier_arrive _ ->
      false
