module Engine = Shm_sim.Engine
module Resource = Shm_sim.Resource
module Counters = Shm_stats.Counters

type level_config = { size_words : int; block_words : int }

type config = {
  n_cpus : int;
  primary : level_config option;
  coherent : level_config;
  coherent_hit_cycles : int;
  bus_upgrade_cycles : int;
  bus_block_cycles : int;
  memory_extra_cycles : int;
}

(* SGI: 1 MB secondary = 131072 words, 128-byte lines = 16 words.
   The PowerPath bus sustains ~64 MB/s: a 128-byte line occupies
   ~80 CPU cycles at 40 MHz including arbitration. *)
let sgi_config ~n_cpus =
  {
    n_cpus;
    primary = Some { size_words = 8192; block_words = 4 };
    coherent = { size_words = 131072; block_words = 16 };
    coherent_hit_cycles = 20;
    bus_upgrade_cycles = 6;
    bus_block_cycles = 80;
    memory_extra_cycles = 20;
  }

let hs_node_config ~n_cpus =
  {
    n_cpus;
    primary = None;
    coherent = { size_words = 8192; block_words = 4 };
    coherent_hit_cycles = 1;
    bus_upgrade_cycles = 4;
    bus_block_cycles = 5;
    memory_extra_cycles = 20;
  }

type t = {
  cfg : config;
  mem : Memory.t;
  bus : Resource.t;
  primaries : Cache.t array; (* empty array when no primary level *)
  coherents : Cache.t array;
  c_busy : Counters.key;
  c_bytes : Counters.key;
  c_rd : Counters.key;
  c_rdx : Counters.key;
  c_upgr : Counters.key;
  c_inval : Counters.key;
  c_wb : Counters.key;
}

let create _eng counters mem cfg =
  let mk (l : level_config) () =
    Cache.create ~size_words:l.size_words ~block_words:l.block_words
  in
  {
    cfg;
    mem;
    bus = Resource.create ~name:"bus" ();
    primaries =
      (match cfg.primary with
      | None -> [||]
      | Some l -> Array.init cfg.n_cpus (fun _ -> mk l ()));
    coherents = Array.init cfg.n_cpus (fun _ -> mk cfg.coherent ());
    c_busy = Counters.key counters "bus.busy";
    c_bytes = Counters.key counters "bus.bytes";
    c_rd = Counters.key counters "bus.rd";
    c_rdx = Counters.key counters "bus.rdx";
    c_upgr = Counters.key counters "bus.upgr";
    c_inval = Counters.key counters "bus.inval";
    c_wb = Counters.key counters "bus.wb";
  }

(* Claim bus occupancy without yielding: used inside a transaction whose
   state transitions must be atomic with respect to other processors
   (the caller has already synced at the transaction start). *)
let bus_occupy t fiber ~cycles =
  let finish = Resource.reserve t.bus ~ready:(Engine.clock fiber) ~cycles in
  Engine.set_clock fiber finish;
  Counters.bump t.c_busy cycles

let block_bytes t = t.cfg.coherent.block_words * 8

(* Invalidate the primary-cache lines of [cpu] covering a coherent block
   (inclusion property). *)
let primary_invalidate_block t cpu block =
  if Array.length t.primaries > 0 then begin
    let p = t.primaries.(cpu) in
    let bw = Cache.block_words p in
    let words = t.cfg.coherent.block_words in
    let b = ref block in
    while !b < block + words do
      ignore (Cache.invalidate p !b);
      b := !b + bw
    done
  end

(* Returns [`Cache] if some other CPU's coherent cache can supply [block]
   (Illinois cache-to-cache transfer), [`Memory] otherwise.  A [Modified]
   holder is downgraded to [Shared] (its data is already in [t.mem]). *)
let snoop_for_read t ~cpu block =
  let supply = ref `Memory in
  for other = 0 to t.cfg.n_cpus - 1 do
    if other <> cpu then begin
      match Cache.state_of t.coherents.(other) block with
      | Cache.Invalid -> ()
      | Cache.Shared -> if !supply = `Memory then supply := `Cache
      | Cache.Exclusive ->
          Cache.set_state t.coherents.(other) block Cache.Shared;
          supply := `Cache
      | Cache.Modified ->
          Cache.set_state t.coherents.(other) block Cache.Shared;
          Counters.bump t.c_wb 1;
          Counters.bump t.c_bytes (block_bytes t);
          supply := `Cache
    end
  done;
  !supply

(* Invalidate every other copy; returns the supplier for a read-exclusive. *)
let snoop_for_write t ~cpu block =
  let supply = ref `Memory in
  for other = 0 to t.cfg.n_cpus - 1 do
    if other <> cpu then begin
      (match Cache.state_of t.coherents.(other) block with
      | Cache.Invalid -> ()
      | Cache.Shared | Cache.Exclusive ->
          Counters.bump t.c_inval 1;
          supply := `Cache
      | Cache.Modified ->
          Counters.bump t.c_inval 1;
          Counters.bump t.c_wb 1;
          Counters.bump t.c_bytes (block_bytes t);
          supply := `Cache);
      ignore (Cache.invalidate t.coherents.(other) block);
      primary_invalidate_block t other block
    end
  done;
  !supply

let handle_eviction t fiber ~cpu victim =
  match Cache.victim_state victim with
  | Cache.Invalid -> ()
  | vstate ->
      if vstate = Cache.Modified then begin
        (* Write the dirty line back over the bus. *)
        bus_occupy t fiber ~cycles:t.cfg.bus_block_cycles;
        Counters.bump t.c_wb 1;
        Counters.bump t.c_bytes (block_bytes t)
      end;
      (* Inclusion: drop this CPU's primary copies of the victim. *)
      primary_invalidate_block t cpu (Cache.victim_block victim)

(* Fill [block] into [cpu]'s coherent cache after a bus read.  The caller
   syncs once at the start; everything after runs without yielding so the
   snoop, the occupancy claim and the fill are one atomic transaction. *)
let bus_read t fiber ~cpu block ~exclusive =
  Engine.sync fiber;
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  Counters.bump (if exclusive then t.c_rdx else t.c_rd) 1;
  let supply =
    if exclusive then snoop_for_write t ~cpu block
    else snoop_for_read t ~cpu block
  in
  let occupancy =
    t.cfg.bus_block_cycles
    + (match supply with `Memory -> t.cfg.memory_extra_cycles | `Cache -> 0)
  in
  bus_occupy t fiber ~cycles:occupancy;
  Counters.bump t.c_bytes (block_bytes t);
  let state =
    if exclusive then Cache.Modified
    else
      match supply with `Cache -> Cache.Shared | `Memory -> Cache.Exclusive
  in
  let victim = Cache.insert t.coherents.(cpu) block state in
  handle_eviction t fiber ~cpu victim

(* Upgrade a Shared line to Modified (atomic after the initial sync). *)
let bus_upgrade t fiber ~cpu block =
  Engine.sync fiber;
  Engine.with_category fiber Engine.Mem_stall @@ fun () ->
  (match Cache.state_of t.coherents.(cpu) block with
  | Cache.Shared ->
      Counters.bump t.c_upgr 1;
      ignore (snoop_for_write t ~cpu block);
      bus_occupy t fiber ~cycles:t.cfg.bus_upgrade_cycles;
      Cache.set_state t.coherents.(cpu) block Cache.Modified
  | Cache.Invalid ->
      (* Our copy was invalidated while we waited to sync: fall back to a
         full read-exclusive. *)
      bus_read t fiber ~cpu block ~exclusive:true
  | Cache.Exclusive | Cache.Modified ->
      Cache.set_state t.coherents.(cpu) block Cache.Modified)

let[@inline] primary_fill t cpu addr =
  if Array.length t.primaries > 0 then begin
    let p = Array.unsafe_get t.primaries cpu in
    Cache.fill p (Cache.block_of p addr) Cache.Shared
  end

(* Coherence and timing of a load, without the data movement; see
   {!write_timing}.  No yield can occur after the final state change, so
   loading the word right after this returns is equivalent to loading it
   inside {!read}. *)
let read_slow t fiber ~cpu addr =
  let coh = Array.unsafe_get t.coherents cpu in
  let block = Cache.block_of coh addr in
  (match Cache.state_of coh block with
  | Cache.Shared | Cache.Exclusive | Cache.Modified ->
      Cache.note_hit coh;
      Engine.advance fiber t.cfg.coherent_hit_cycles
  | Cache.Invalid ->
      Cache.note_miss coh;
      Engine.advance fiber t.cfg.coherent_hit_cycles;
      bus_read t fiber ~cpu block ~exclusive:false);
  primary_fill t cpu addr

let[@inline] read_timing t fiber ~cpu addr =
  if
    Array.length t.primaries > 0
    && Cache.probe (Array.unsafe_get t.primaries cpu) addr <> Cache.Invalid
  then begin
    Cache.note_hit (Array.unsafe_get t.primaries cpu);
    Engine.advance fiber 1
  end
  else read_slow t fiber ~cpu addr

let read t fiber ~cpu addr =
  read_timing t fiber ~cpu addr;
  Memory.get t.mem addr

let write_state_machine t fiber ~cpu addr =
  let coh = t.coherents.(cpu) in
  let block = Cache.block_of coh addr in
  match Cache.state_of coh block with
  | Cache.Modified -> ()
  | Cache.Exclusive -> Cache.set_state coh block Cache.Modified
  | Cache.Shared -> bus_upgrade t fiber ~cpu block
  | Cache.Invalid ->
      Cache.note_miss coh;
      bus_read t fiber ~cpu block ~exclusive:true

(* Coherence and timing of a store, without the data movement: callers
   that must interleave protocol layers (the HS platform's DSM guard) do
   the timing first and the actual memory update later, atomically. *)
let[@inline] write_timing t fiber ~cpu addr =
  (* Write-through primary with a write buffer: the store itself retires in
     one cycle; the coherent level may still need a transaction. *)
  Engine.advance fiber
    (if Array.length t.primaries > 0 then 1 else t.cfg.coherent_hit_cycles);
  (let coh = Array.unsafe_get t.coherents cpu in
   match Cache.state_of coh (Cache.block_of coh addr) with
   | Cache.Modified -> ()
   | Cache.Exclusive | Cache.Shared | Cache.Invalid ->
       write_state_machine t fiber ~cpu addr);
  primary_fill t cpu addr

let write t fiber ~cpu addr value =
  write_timing t fiber ~cpu addr;
  Memory.set t.mem addr value

let rmw t fiber ~cpu addr f =
  Engine.sync fiber;
  Engine.advance fiber
    (if Array.length t.primaries > 0 then 1 else t.cfg.coherent_hit_cycles);
  write_state_machine t fiber ~cpu addr;
  primary_fill t cpu addr;
  let old = Memory.get t.mem addr in
  Memory.set t.mem addr (f old);
  old

let invalidate_range t ~addr ~words =
  let drop c = Cache.invalidate_range c ~addr ~words in
  Array.iter drop t.coherents;
  Array.iter drop t.primaries

let check_coherence t =
  (* For every block resident anywhere, check the single-writer invariant. *)
  let owners : (int, Cache.state list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      Cache.iter_valid c (fun block state ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt owners block) in
          Hashtbl.replace owners block (state :: prev)))
    t.coherents;
  Hashtbl.iter
    (fun block states ->
      let exclusive_holders =
        List.length
          (List.filter (fun s -> s = Cache.Modified || s = Cache.Exclusive) states)
      in
      let copies = List.length states in
      if exclusive_holders > 1 || (exclusive_holders = 1 && copies > 1) then
        failwith
          (Printf.sprintf "coherence violation on block %d: %s" block
             (String.concat "," (List.map Cache.state_name states))))
    owners
