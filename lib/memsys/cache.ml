type state = Invalid | Shared | Exclusive | Modified

let state_name = function
  | Invalid -> "I"
  | Shared -> "S"
  | Exclusive -> "E"
  | Modified -> "M"

(* A line is one packed word, [(block lsl 3) lor 4 lor code]: bit 2 marks
   a tag as present, and [code] is the state's constructor index, so an
   [Invalid] line keeps its tag and an all-zero word is an empty line.
   Constant constructors are immediate ints, which makes the code and the
   state one representation. *)
let[@inline] code (s : state) : int = Obj.magic s
let[@inline] state_of_code e : state = Obj.magic (e land 3)
let[@inline] tag block = (block lsl 3) lor 4
let[@inline] tag_of e = e land lnot 3

type victim = int

let no_victim = 0
let[@inline] victim_block v = v asr 3
let[@inline] victim_state v = state_of_code v

type t = {
  block_words : int;
  block_shift : int; (* log2 block_words: block index = addr lsr block_shift *)
  block_mask : int; (* block_words - 1 *)
  lines : int;
  line_mask : int; (* lines - 1 *)
  entries : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
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
    entries = Memory.zero_mapped Bigarray.Int lines;
    hits = 0;
    misses = 0;
  }

let block_words t = t.block_words

let lines t = t.lines

let[@inline] block_of t addr = addr land lnot t.block_mask

let[@inline] line_of t block = (block lsr t.block_shift) land t.line_mask

let[@inline] get t line = Bigarray.Array1.unsafe_get t.entries line
let[@inline] set t line e = Bigarray.Array1.unsafe_set t.entries line e

let[@inline] state_of t block =
  let e = get t (line_of t block) in
  if tag_of e = tag block then state_of_code e else Invalid

let set_state t block state =
  let line = line_of t block in
  if tag_of (get t line) <> tag block then
    invalid_arg "Cache.set_state: block not resident";
  set t line (tag block lor code state)

let[@inline] probe t addr = state_of t (block_of t addr)

(* The old entry, if it held a valid line for another block. *)
let[@inline] displaced old block =
  if old land 3 <> 0 && tag_of old <> tag block then old
  else no_victim

let insert t block state =
  let line = line_of t block in
  let old = get t line in
  set t line (tag block lor code state);
  displaced old block

let fill t block state = set t (line_of t block) (tag block lor code state)

let peek_victim t block = displaced (get t (line_of t block)) block

let invalidate t block =
  let line = line_of t block in
  let e = get t line in
  if tag_of e = tag block then begin
    set t line (tag_of e);
    state_of_code e
  end
  else Invalid

(* Consecutive blocks sit in consecutive lines, their tags a fixed step
   apart, so the walk steps both instead of deriving them per block. *)
let invalidate_range t ~addr ~words =
  let first = block_of t addr in
  let n = ((block_of t (addr + words - 1) - first) lsr t.block_shift) + 1 in
  let step = t.block_words lsl 3 in
  let line = ref (line_of t first) and tg = ref (tag first) in
  for _ = 1 to n do
    if tag_of (get t !line) = !tg then set t !line !tg;
    line := (!line + 1) land t.line_mask;
    tg := !tg + step
  done

let iter_valid t f =
  for line = 0 to t.lines - 1 do
    let e = get t line in
    if e land 3 <> 0 then f (victim_block e) (state_of_code e)
  done

let hits t = t.hits
let misses t = t.misses
let[@inline] note_hit t = t.hits <- t.hits + 1
let[@inline] note_miss t = t.misses <- t.misses + 1
