module Engine = Shm_sim.Engine
module Resource = Shm_sim.Resource
module Counters = Shm_stats.Counters
module Iset = Set.Make (Int)

type config = {
  n_nodes : int;
  cache_size_words : int;
  cache_block_words : int;
  local_miss_cycles : int;
  remote_clean_cycles : int;
  remote_dirty_cycles : int;
  invalidation_cycles : int;
  port_block_cycles : int;
}

let sim_config ~n_nodes =
  {
    n_nodes;
    cache_size_words = 8192;
    cache_block_words = 4;
    local_miss_cycles = 20;
    remote_clean_cycles = 90;
    remote_dirty_cycles = 130;
    invalidation_cycles = 20;
    port_block_cycles = 16;
  }

type entry = Uncached | Shared_by of Iset.t | Owned_by of int

(* The directory is a table indexed by block number, split into chunks of
   [chunk_blocks] entries.  A chunk is built on the first entry that
   leaves [Uncached], so a node's directory costs host memory only for
   the part of its memory it shares. *)
let chunk_shift = 9

let chunk_blocks = 1 lsl chunk_shift

type t = {
  cfg : config;
  mem : Memory.t;
  caches : Cache.t array;
  ports : Resource.t array;
  block_shift : int; (* log2 cache_block_words *)
  chunks : entry array array; (* [||] until first written *)
  c_msgs : Counters.key;
  c_bytes : Counters.key;
  c_forwards : Counters.key;
  c_invalidations : Counters.key;
  c_writebacks : Counters.key;
  c_replacement_hints : Counters.key;
}

let create _eng counters mem cfg =
  let rec log2 s =
    if 1 lsl s >= cfg.cache_block_words then s else log2 (s + 1)
  in
  let block_shift = log2 0 in
  let blocks = (Memory.words mem + cfg.cache_block_words - 1) lsr block_shift in
  let key = Counters.key counters in
  {
    cfg;
    mem;
    caches =
      Array.init cfg.n_nodes (fun _ ->
          Cache.create ~size_words:cfg.cache_size_words
            ~block_words:cfg.cache_block_words);
    ports =
      Array.init cfg.n_nodes (fun i ->
          Resource.create ~name:(Printf.sprintf "port%d" i) ());
    block_shift;
    chunks = Array.make ((blocks + chunk_blocks - 1) lsr chunk_shift) [||];
    c_msgs = key "dir.msgs";
    c_bytes = key "dir.bytes";
    c_forwards = key "dir.forwards";
    c_invalidations = key "dir.invalidations";
    c_writebacks = key "dir.writebacks";
    c_replacement_hints = key "dir.replacement_hints";
  }

let entry_of t block =
  let i = block lsr t.block_shift in
  let c = t.chunks.(i lsr chunk_shift) in
  if Array.length c = 0 then Uncached
  else Array.unsafe_get c (i land (chunk_blocks - 1))

let set_entry t block e =
  let i = block lsr t.block_shift in
  let ci = i lsr chunk_shift in
  let c = t.chunks.(ci) in
  if Array.length c > 0 then Array.unsafe_set c (i land (chunk_blocks - 1)) e
  else
    match e with
    | Uncached -> ()
    | Shared_by _ | Owned_by _ ->
        let c = Array.make chunk_blocks Uncached in
        t.chunks.(ci) <- c;
        Array.unsafe_set c (i land (chunk_blocks - 1)) e

(* Drop directory and cache state for a word range without modelling any
   traffic: the words are already in memory (data never lives only in a
   cache here), so forgetting the blocks is safe and the next access
   simply misses.  Used by hybrid platforms whose software-DSM layer
   rewrites pages underneath the hardware level. *)
let invalidate_range t ~addr ~words =
  let bw = t.cfg.cache_block_words in
  let first = addr / bw * bw in
  let last = (addr + words - 1) / bw * bw in
  let b = ref first in
  while !b <= last do
    set_entry t !b Uncached;
    Array.iter (fun c -> ignore (Cache.invalidate c !b)) t.caches;
    b := !b + bw
  done

let home_of t block = block / t.cfg.cache_block_words mod t.cfg.n_nodes

let block_bytes t = t.cfg.cache_block_words * 8

let header_bytes = 16

let count_msg t ~payload =
  Counters.bump t.c_msgs 1;
  Counters.bump t.c_bytes (header_bytes + payload)

let port_use t fiber ~node ~cycles =
  Engine.sync fiber;
  let finish =
    Resource.reserve t.ports.(node) ~ready:(Engine.clock fiber) ~cycles
  in
  Engine.set_clock fiber finish

(* An eviction notifies the home so the directory stays exact for E/M
   lines; dirty data travels back. *)
let evict t fiber ~node victim =
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  match Cache.victim_state victim with
  | Cache.Invalid -> ()
  | Cache.Shared ->
      (* Silent: the directory keeps a (harmless) stale sharer bit. *)
      ()
  | Cache.Exclusive | Cache.Modified as vstate ->
      (* Retire the line and the directory entry first — the port
         occupancy below yields, and another node must be free to
         claim the block meanwhile without us stomping it after. *)
      let vblock = Cache.victim_block victim in
      ignore (Cache.invalidate t.caches.(node) vblock);
      (match entry_of t vblock with
      | Owned_by o when o = node -> set_entry t vblock Uncached
      | Owned_by _ | Uncached | Shared_by _ -> ());
      let home = home_of t vblock in
      let dirty = vstate = Cache.Modified in
      count_msg t ~payload:(if dirty then block_bytes t else 0);
      Counters.bump
        (if dirty then t.c_writebacks else t.c_replacement_hints)
        1;
      if home <> node && dirty then
        port_use t fiber ~node:home ~cycles:t.cfg.port_block_cycles

let downgrade_owner t owner block =
  (match Cache.state_of t.caches.(owner) block with
  | Cache.Exclusive | Cache.Modified ->
      Cache.set_state t.caches.(owner) block Cache.Shared
  | Cache.Shared | Cache.Invalid -> ());
  Counters.bump t.c_forwards 1

(* Charge the latency of a miss serviced at [home]; data moves through
   [port] (the supplier's crossbar port) when remote. *)
let charge_fetch t fiber ~node ~home ~port ~cycles =
  Engine.advance fiber cycles;
  if home <> node then begin
    count_msg t ~payload:0;
    count_msg t ~payload:(block_bytes t);
    port_use t fiber ~node:port ~cycles:t.cfg.port_block_cycles
  end

(* Fill [block] and retire whatever the fill actually displaced.  [evict]
   retires the *predicted* victim before a transaction's yields, but on
   hybrid platforms several fibers drive one member cache (a nested
   domain is a single participant of its parent level), so a co-member
   can refill the set between that peek and this insert.  The displaced
   data is already in memory; only the directory entry must stop naming
   us owner, or the next miss on that block would read [Owned_by] self
   with an Invalid line and retry forever.  State-only: no yield, so the
   caller's transaction stays atomic from its last yield. *)
let insert_retiring t ~node cache block state =
  let victim = Cache.insert cache block state in
  match Cache.victim_state victim with
  | Cache.Exclusive | Cache.Modified ->
      let vblock = Cache.victim_block victim in
      (match entry_of t vblock with
      | Owned_by o when o = node -> set_entry t vblock Uncached
      | Owned_by _ | Uncached | Shared_by _ -> ());
      Counters.bump t.c_replacement_hints 1
  | Cache.Shared | Cache.Invalid -> ()

(* Install [block] in [node]'s cache for reading.  Yield points (port
   occupancy) can let competing transactions in, so the directory entry is
   re-read after every yield and the transaction retried on interference. *)
let rec fetch_for_read t fiber ~node block =
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  let cache = t.caches.(node) in
  let home = home_of t block in
  let local = home = node in
  match entry_of t block with
  | Owned_by owner when owner <> node ->
      (* Dirty elsewhere: forward through the home to the owner. *)
      Engine.advance fiber
        (if local then t.cfg.remote_clean_cycles else t.cfg.remote_dirty_cycles);
      count_msg t ~payload:0;
      count_msg t ~payload:(block_bytes t);
      port_use t fiber ~node:owner ~cycles:t.cfg.port_block_cycles;
      (match entry_of t block with
      | Owned_by o when o = owner ->
          downgrade_owner t owner block;
          set_entry t block (Shared_by (Iset.of_list [ owner; node ]));
          insert_retiring t ~node cache block Cache.Shared
      | Owned_by _ | Uncached | Shared_by _ -> fetch_for_read t fiber ~node block)
  | Owned_by _ (* self, line lost: a co-member's fill displaced it while
       the directory kept our ownership (see [insert_retiring]); memory
       is current, so refill without a directory transition. *) -> (
      charge_fetch t fiber ~node ~home ~port:home
        ~cycles:t.cfg.local_miss_cycles;
      match entry_of t block with
      | Owned_by o when o = node ->
          insert_retiring t ~node cache block Cache.Exclusive
      | Owned_by _ | Uncached | Shared_by _ -> fetch_for_read t fiber ~node block)
  | Uncached -> (
      charge_fetch t fiber ~node ~home ~port:home
        ~cycles:(if local then t.cfg.local_miss_cycles else t.cfg.remote_clean_cycles);
      match entry_of t block with
      | Uncached ->
          set_entry t block (Owned_by node);
          insert_retiring t ~node cache block Cache.Exclusive
      | Owned_by _ | Shared_by _ -> fetch_for_read t fiber ~node block)
  | Shared_by _ -> (
      charge_fetch t fiber ~node ~home ~port:home
        ~cycles:(if local then t.cfg.local_miss_cycles else t.cfg.remote_clean_cycles);
      match entry_of t block with
      | Shared_by sharers ->
          set_entry t block (Shared_by (Iset.add node sharers));
          insert_retiring t ~node cache block Cache.Shared
      | Uncached | Owned_by _ -> fetch_for_read t fiber ~node block)

(* Coherence and timing of a load, without the data movement.  No yield
   after the final state change, so the caller's load immediately after
   this returns sees the same word {!read} would have returned. *)
let read_timing t fiber ~node addr =
  let cache = t.caches.(node) in
  let block = Cache.block_of cache addr in
  match Cache.state_of cache block with
  | Cache.Shared | Cache.Exclusive | Cache.Modified ->
      Cache.note_hit cache;
      Engine.advance fiber 1
  | Cache.Invalid ->
      Cache.note_miss cache;
      Engine.sync fiber;
      (* Retire the displaced line before the fill so the directory never
         carries a stale owner across our yields. *)
      evict t fiber ~node (Cache.peek_victim cache block);
      fetch_for_read t fiber ~node block

let read t fiber ~node addr =
  read_timing t fiber ~node addr;
  Memory.get t.mem addr

(* Make the directory entry [Owned_by node], invalidating other copies.
   Postcondition holds with no yield after the final state change. *)
let rec acquire_exclusive t fiber ~node block =
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  let home = home_of t block in
  let local = home = node in
  match entry_of t block with
  | Owned_by owner when owner = node -> ()
  | Owned_by owner -> (
      Engine.advance fiber
        (if local then t.cfg.remote_clean_cycles else t.cfg.remote_dirty_cycles);
      count_msg t ~payload:0;
      count_msg t ~payload:(block_bytes t);
      port_use t fiber ~node:owner ~cycles:t.cfg.port_block_cycles;
      match entry_of t block with
      | Owned_by o when o = owner ->
          ignore (Cache.invalidate t.caches.(owner) block);
          Counters.bump t.c_invalidations 1;
          set_entry t block (Owned_by node)
      | Owned_by _ | Uncached | Shared_by _ ->
          acquire_exclusive t fiber ~node block)
  | Uncached -> (
      charge_fetch t fiber ~node ~home ~port:home
        ~cycles:(if local then t.cfg.local_miss_cycles else t.cfg.remote_clean_cycles);
      match entry_of t block with
      | Uncached -> set_entry t block (Owned_by node)
      | Owned_by _ | Shared_by _ -> acquire_exclusive t fiber ~node block)
  | Shared_by sharers ->
      (* Invalidations are state-only updates: no yield, so no retry. *)
      let others = Iset.remove node sharers in
      Engine.advance fiber
        ((if local then t.cfg.local_miss_cycles else t.cfg.remote_clean_cycles)
        + (t.cfg.invalidation_cycles * Iset.cardinal others));
      if not local then begin
        count_msg t ~payload:0;
        count_msg t ~payload:(block_bytes t)
      end;
      Iset.iter
        (fun s ->
          ignore (Cache.invalidate t.caches.(s) block);
          count_msg t ~payload:0;
          Counters.bump t.c_invalidations 1)
        others;
      set_entry t block (Owned_by node)

(* Obtain a Modified copy; atomic from the last internal yield. *)
let rec ensure_modified t fiber ~node block =
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  let cache = t.caches.(node) in
  match Cache.state_of cache block with
  | Cache.Modified -> ()
  | Cache.Exclusive -> Cache.set_state cache block Cache.Modified
  | Cache.Shared | Cache.Invalid ->
      evict t fiber ~node (Cache.peek_victim cache block);
      acquire_exclusive t fiber ~node block;
      insert_retiring t ~node cache block Cache.Modified;
      ensure_modified t fiber ~node block

(* Store counterpart of {!read_timing}: the caller performs the actual
   memory update immediately after, with no yield in between. *)
let write_timing t fiber ~node addr =
  let cache = t.caches.(node) in
  let block = Cache.block_of cache addr in
  match Cache.state_of cache block with
  | Cache.Modified ->
      Cache.note_hit cache;
      Engine.advance fiber 1
  | Cache.Exclusive ->
      Cache.note_hit cache;
      Engine.advance fiber 1;
      Cache.set_state cache block Cache.Modified
  | Cache.Shared ->
      Cache.note_hit cache;
      Engine.sync fiber;
      Engine.advance fiber 1;
      ensure_modified t fiber ~node block
  | Cache.Invalid ->
      Cache.note_miss cache;
      Engine.sync fiber;
      ensure_modified t fiber ~node block

let write t fiber ~node addr value =
  write_timing t fiber ~node addr;
  Memory.set t.mem addr value

let rmw t fiber ~node addr f =
  Engine.sync fiber;
  let cache = t.caches.(node) in
  let block = Cache.block_of cache addr in
  Engine.advance fiber 1;
  ensure_modified t fiber ~node block;
  (* We hold Modified and have not yielded since: the update is atomic. *)
  let old = Memory.get t.mem addr in
  Memory.set t.mem addr (f old);
  old

(* In time proportional to the entries and the resident lines, not
   entries x nodes: each owner must hold its block E/M, and each valid
   line must be allowed by its block's entry. *)
let check_invariants t =
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun k e ->
          match e with
          | Owned_by owner ->
              let block = ((ci lsl chunk_shift) + k) lsl t.block_shift in
              let st = Cache.state_of t.caches.(owner) block in
              if st <> Cache.Exclusive && st <> Cache.Modified then
                failwith
                  (Printf.sprintf "dir: block %d owned by %d but state %s"
                     block owner (Cache.state_name st))
          | Uncached | Shared_by _ -> ())
        c)
    t.chunks;
  Array.iteri
    (fun n cache ->
      Cache.iter_valid cache (fun block st ->
          match entry_of t block with
          | Uncached -> ()
          | Owned_by owner ->
              if n <> owner then
                failwith
                  (Printf.sprintf "dir: block %d owned by %d but node %d has %s"
                     block owner n (Cache.state_name st))
          | Shared_by sharers -> (
              match st with
              | Cache.Modified | Cache.Exclusive ->
                  failwith
                    (Printf.sprintf "dir: shared block %d has %s at node %d"
                       block (Cache.state_name st) n)
              | Cache.Shared ->
                  if not (Iset.mem n sharers) then
                    failwith
                      (Printf.sprintf "dir: block %d sharer %d not recorded"
                         block n)
              | Cache.Invalid -> ())))
    t.caches

let cache_for_test t node = t.caches.(node)
