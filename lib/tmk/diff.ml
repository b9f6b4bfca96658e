module Memory = Shm_memsys.Memory

type run = { offset : int; words : float array }

type t = { page : int; runs : run list; creator : int; seqno : int; vsum : int }

let make_stamped ~creator ~seqno ~vsum ~page ~twin ~current ~base ~words =
  let runs = ref [] in
  let i = ref 0 in
  while !i < words do
    let d = Memory.first_diff current (base + !i) twin !i (words - !i) in
    if d < 0 then i := words
    else begin
      let start = !i + d in
      let m =
        Memory.first_match current (base + start) twin start (words - start)
      in
      let stop = if m < 0 then words else start + m in
      let len = stop - start in
      let data = Array.create_float len in
      Memory.read_floats current (base + start) data 0 len;
      runs := { offset = start; words = data } :: !runs;
      i := stop
    end
  done;
  { page; runs = List.rev !runs; creator; seqno; vsum }

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

