module Memory = Shm_memsys.Memory

type run = { offset : int; words : float array }

type t = { page : int; runs : run list; creator : int; seqno : int; vsum : int }

let make_stamped ~creator ~seqno ~vsum ~page ~twin ~current ~base ~words =
  let runs =
    Memory.fold_diff_runs current base twin 0 words ~init:[]
      (fun runs offset len ->
        let data = Array.create_float len in
        Memory.read_floats current (base + offset) data 0 len;
        { offset; words = data } :: runs)
  in
  { page; runs = List.rev runs; creator; seqno; vsum }

let make = make_stamped ~creator:(-1) ~seqno:0 ~vsum:0

let compare_linear a b =
  if a.vsum <> b.vsum then Int.compare a.vsum b.vsum
  else if a.creator <> b.creator then Int.compare a.creator b.creator
  else Int.compare a.seqno b.seqno

let apply t mem ~base =
  List.iter
    (fun { offset; words } ->
      Memory.write_floats mem (base + offset) words 0 (Array.length words))
    t.runs

let apply_to_twin t twin = apply t twin ~base:0

let is_empty t = t.runs = []

let words t = List.fold_left (fun acc r -> acc + Array.length r.words) 0 t.runs

let bytes t = 16 + List.fold_left (fun acc r -> acc + 4 + (8 * Array.length r.words)) 0 t.runs

