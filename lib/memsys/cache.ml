type state = Invalid | Shared | Exclusive | Modified

let state_name = function
  | Invalid -> "I"
  | Shared -> "S"
  | Exclusive -> "E"
  | Modified -> "M"

type t = {
  block_words : int;
  block_shift : int; (* log2 block_words: block index = addr lsr block_shift *)
  block_mask : int; (* block_words - 1 *)
  lines : int;
  line_mask : int; (* lines - 1 *)
  tags : int array; (* resident block address per line; -1 = empty *)
  states : state array;
  mutable hits : int;
  mutable misses : int;
}

let log2_exact name n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Cache.create: %s must be a power of two" name);
  let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
  go 0 n

let create ~size_words ~block_words =
  if size_words mod block_words <> 0 then
    invalid_arg "Cache.create: size not a multiple of block size";
  let block_shift = log2_exact "block_words" block_words in
  let lines = size_words / block_words in
  let _ = log2_exact "size_words / block_words" lines in
  {
    block_words;
    block_shift;
    block_mask = block_words - 1;
    lines;
    line_mask = lines - 1;
    tags = Array.make lines (-1);
    states = Array.make lines Invalid;
    hits = 0;
    misses = 0;
  }

let block_words t = t.block_words

let lines t = t.lines

let[@inline] block_of t addr = addr land lnot t.block_mask

let[@inline] line_of t block = (block lsr t.block_shift) land t.line_mask

let[@inline] state_of t block =
  let line = line_of t block in
  if Array.unsafe_get t.tags line = block then Array.unsafe_get t.states line
  else Invalid

let set_state t block state =
  let line = line_of t block in
  if t.tags.(line) <> block then
    invalid_arg "Cache.set_state: block not resident";
  t.states.(line) <- state

let[@inline] probe t addr = state_of t (block_of t addr)

let insert t block state =
  let line = line_of t block in
  let old_tag = t.tags.(line) and old_state = t.states.(line) in
  t.tags.(line) <- block;
  t.states.(line) <- state;
  if old_tag >= 0 && old_tag <> block && old_state <> Invalid then
    Some (old_tag, old_state)
  else None

let fill t block state =
  let line = line_of t block in
  t.tags.(line) <- block;
  t.states.(line) <- state

let peek_victim t block =
  let line = line_of t block in
  if t.tags.(line) >= 0 && t.tags.(line) <> block && t.states.(line) <> Invalid
  then Some (t.tags.(line), t.states.(line))
  else None

let invalidate t block =
  let line = line_of t block in
  if t.tags.(line) = block then begin
    let old = t.states.(line) in
    t.states.(line) <- Invalid;
    old
  end
  else Invalid

let invalidate_all t =
  Array.fill t.tags 0 t.lines (-1);
  Array.fill t.states 0 t.lines Invalid

let iter_valid t f =
  for line = 0 to t.lines - 1 do
    if t.tags.(line) >= 0 && t.states.(line) <> Invalid then
      f t.tags.(line) t.states.(line)
  done

let hits t = t.hits
let misses t = t.misses
let[@inline] note_hit t = t.hits <- t.hits + 1
let[@inline] note_miss t = t.misses <- t.misses + 1
let[@inline] note_hits t n = t.hits <- t.hits + n
