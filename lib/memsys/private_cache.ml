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

let invalidate_range t ~addr ~words = Cache.invalidate_range t.cache ~addr ~words

let hits t = Cache.hits t.cache
let misses t = Cache.misses t.cache
