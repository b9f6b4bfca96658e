(** Wire protocol of the TreadMarks DSM system. *)

type t =
  | Lock_req of { lock : int; requester : int; req : int; vc : Vc.t }
      (** to the lock's manager *)
  | Lock_forward of { lock : int; requester : int; req : int; vc : Vc.t }
      (** manager -> last requester (distributed queue) *)
  | Lock_grant of { lock : int; req : int; vc : Vc.t; records : Record.t list }
      (** previous holder -> requester, carrying write notices *)
  | Diff_req of { page : int; requester : int; req : int; lo : int; hi : int }
      (** ask the destination (the diffs' creator) for its diffs of [page]
          for intervals [lo < seqno <= hi] *)
  | Diff_resp of { page : int; req : int; creator : int; diffs : Diff.t list }
      (** the creator's diffs, oldest first *)
  | Barrier_arrive of {
      barrier : int;
      node : int;
      req : int;
      vc : Vc.t;
      records : Record.t list;
          (** arriver's own records new to the manager that the record
              table still holds *)
      dropped_bytes : int;
          (** wire bytes of the rest, which every node already knows:
              they count toward the size but carry nothing *)
    }
  | Barrier_depart of { barrier : int; req : int; vc : Vc.t; records : Record.t list }
  | Eager_update of { record : Record.t; diffs : Diff.t list }
      (** eager lock release: push this interval's diffs to everyone *)
  | Eager_notice of { record : Record.t; requester : int; req : int }
      (** eager-invalidate release consistency: push the write notice (not
          the data) to everyone at release *)
  | Eager_ack of { req : int }
      (** eager-invalidate RC: the releaser blocks until every node has
          acknowledged its notices — the ordering guarantee conventional
          RC pays for at every release *)

(** Wire bytes of a list of write notices. *)
val records_bytes : Record.t list -> int

(** Wire sizes, split into consistency data and payload per Figure 13. *)
val sizes : t -> Shm_net.Msg.sizes

val class_ : t -> Shm_net.Msg.class_

val kind_name : t -> string
