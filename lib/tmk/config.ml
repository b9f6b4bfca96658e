type notice_policy = Lazy | Eager_invalidate | Eager_update

type t = {
  n_nodes : int;
  shared_words : int;
  barrier_manager : int;
  notice_policy : notice_policy;
  eager_locks : int list;
}

let default ~n_nodes ~shared_words =
  {
    n_nodes;
    shared_words;
    barrier_manager = 0;
    notice_policy = Lazy;
    eager_locks = [];
  }

let validate t =
  if t.n_nodes < 1 then invalid_arg "Tmk.Config: n_nodes < 1";
  if t.barrier_manager < 0 || t.barrier_manager >= t.n_nodes then
    invalid_arg "Tmk.Config: barrier manager out of range"
