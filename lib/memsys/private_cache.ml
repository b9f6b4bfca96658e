module Engine = Shm_sim.Engine

type write_policy = Write_through_buffered | Write_back_allocate

type config = {
  size_words : int;
  block_words : int;
  hit_cycles : int;
  miss_cycles : int;
  write_policy : write_policy;
}

(* 64 KB = 8192 words; 32-byte blocks = 4 words. *)
let dec_config =
  { size_words = 8192; block_words = 4; hit_cycles = 1; miss_cycles = 18;
    write_policy = Write_through_buffered }

let sim_node_config =
  { size_words = 8192; block_words = 4; hit_cycles = 1; miss_cycles = 20;
    write_policy = Write_back_allocate }

type t = { cfg : config; cache : Cache.t }

let create cfg =
  { cfg; cache = Cache.create ~size_words:cfg.size_words ~block_words:cfg.block_words }

let config t = t.cfg

let[@inline] read t fiber addr =
  match Cache.probe t.cache addr with
  | Cache.Invalid ->
      Cache.note_miss t.cache;
      Cache.fill t.cache (Cache.block_of t.cache addr) Cache.Exclusive;
      Engine.advance fiber t.cfg.miss_cycles
  | Cache.Shared | Cache.Exclusive | Cache.Modified ->
      Cache.note_hit t.cache;
      Engine.advance fiber t.cfg.hit_cycles

let[@inline] write t fiber addr =
  match t.cfg.write_policy with
  | Write_through_buffered ->
      (* Write buffer absorbs the store; no allocation on miss. *)
      Engine.advance fiber t.cfg.hit_cycles
  | Write_back_allocate -> (
      match Cache.probe t.cache addr with
      | Cache.Invalid ->
          Cache.note_miss t.cache;
          Cache.fill t.cache (Cache.block_of t.cache addr) Cache.Modified;
          Engine.advance fiber t.cfg.miss_cycles
      | Cache.Shared | Cache.Exclusive | Cache.Modified ->
          Cache.note_hit t.cache;
          Cache.fill t.cache (Cache.block_of t.cache addr) Cache.Modified;
          Engine.advance fiber t.cfg.hit_cycles)

(* Range variants: charge exactly what the per-word loop would — same
   hit/miss counts, same cache end-state, same total cycles — but with one
   probe per block run and a single clock bump.  [read]/[write] never yield,
   so batching the [advance] is observably identical. *)

let read_range t fiber addr words =
  let c = t.cache in
  let bw = t.cfg.block_words in
  let cycles = ref 0 in
  let a = ref addr in
  let stop = addr + words in
  while !a < stop do
    let block = Cache.block_of c !a in
    let cnt = Int.min (block + bw) stop - !a in
    (match Cache.state_of c block with
    | Cache.Invalid ->
        Cache.note_miss c;
        Cache.fill c block Cache.Exclusive;
        if cnt > 1 then Cache.note_hits c (cnt - 1);
        cycles := !cycles + t.cfg.miss_cycles + ((cnt - 1) * t.cfg.hit_cycles)
    | Cache.Shared | Cache.Exclusive | Cache.Modified ->
        Cache.note_hits c cnt;
        cycles := !cycles + (cnt * t.cfg.hit_cycles));
    a := block + bw
  done;
  Engine.advance fiber !cycles

let write_range t fiber addr words =
  match t.cfg.write_policy with
  | Write_through_buffered -> Engine.advance fiber (words * t.cfg.hit_cycles)
  | Write_back_allocate ->
      let c = t.cache in
      let bw = t.cfg.block_words in
      let cycles = ref 0 in
      let a = ref addr in
      let stop = addr + words in
      while !a < stop do
        let block = Cache.block_of c !a in
        let cnt = Int.min (block + bw) stop - !a in
        (match Cache.state_of c block with
        | Cache.Invalid ->
            Cache.note_miss c;
            if cnt > 1 then Cache.note_hits c (cnt - 1);
            cycles :=
              !cycles + t.cfg.miss_cycles + ((cnt - 1) * t.cfg.hit_cycles)
        | Cache.Shared | Cache.Exclusive | Cache.Modified ->
            Cache.note_hits c cnt;
            cycles := !cycles + (cnt * t.cfg.hit_cycles));
        Cache.fill c block Cache.Modified;
        a := block + bw
      done;
      Engine.advance fiber !cycles

let invalidate_range t ~addr ~words = Cache.invalidate_range t.cache ~addr ~words

let hits t = Cache.hits t.cache
let misses t = Cache.misses t.cache
