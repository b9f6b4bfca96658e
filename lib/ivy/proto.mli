(** Wire protocol of the IVY-style sequentially-consistent page DSM. *)

type page_data = Shm_memsys.Memory.t

type t =
  | Read_req of { page : int; requester : int; req : int }
      (** to the page's manager *)
  | Read_fwd of { page : int; requester : int; req : int }
      (** manager -> owner *)
  | Page_copy of { page : int; req : int; data : page_data }
      (** owner -> requester (read copy) *)
  | Write_req of { page : int; requester : int; req : int }
  | Invalidate of { page : int; req : int }
      (** manager -> copyset member *)
  | Inval_ack of { page : int; req : int }
  | Write_fwd of { page : int; requester : int; req : int }
      (** manager -> owner, after invalidations complete *)
  | Page_grant of { page : int; req : int; data : page_data option }
      (** owner -> requester: ownership (+ data unless requester held a
          read copy) *)
  | Txn_done of { page : int; requester : int; write : int }
      (** requester -> manager: transaction complete, [write] is 1 for
          ownership transfers *)
  | Lock_req of { lock : int; requester : int; req : int }
  | Lock_grant of { lock : int; req : int }
  | Unlock of { lock : int; requester : int }
  | Barrier_arrive of { barrier : int; node : int; req : int }
  | Barrier_depart of { barrier : int; req : int }

val sizes : t -> Shm_net.Msg.sizes

(** [is_reply m]: [m] completes a wait of the receiving node's own
    application (its handler time is not charged back to it). *)
val is_reply : t -> bool
