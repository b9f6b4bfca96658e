(* Tests for the memory-system substrate: backing store, cache directory,
   private cache timing, snooping MESI machine, directory machine. *)

module Engine = Shm_sim.Engine
module Prng = Shm_sim.Prng
module Counters = Shm_stats.Counters
module Memory = Shm_memsys.Memory
module Cache = Shm_memsys.Cache
module Private_cache = Shm_memsys.Private_cache
module Snoop = Shm_memsys.Snoop
module Directory = Shm_memsys.Directory

let test_memory_roundtrip () =
  let m = Memory.create ~words:64 in
  Memory.set_float m 0 3.14159;
  Memory.set_int m 1 (-42);
  Memory.set_int m 2 max_int;
  Alcotest.(check (float 0.0)) "float" 3.14159 (Memory.get_float m 0);
  Alcotest.(check int) "negative int" (-42) (Memory.get_int m 1);
  Alcotest.(check int) "max int" max_int (Memory.get_int m 2)

let prop_memory_float_bits =
  QCheck.Test.make ~count:200 ~name:"memory preserves float bit patterns"
    QCheck.float (fun v ->
      let m = Memory.create ~words:1 in
      Memory.set_float m 0 v;
      Int64.bits_of_float (Memory.get_float m 0) = Int64.bits_of_float v)

(* A lazily mapped image reads zero everywhere and round-trips scalar
   traffic, including through the float view of the same buffer. *)
let test_mapped_roundtrip () =
  let words = 3 * 4096 in
  let m = Memory.create_mapped ~words in
  Alcotest.(check int) "words" words (Memory.words m);
  let zeros = ref true in
  for i = 0 to words - 1 do
    if Memory.get m i <> 0L then zeros := false
  done;
  Alcotest.(check bool) "reads zero everywhere" true !zeros;
  Memory.set m 5 (-7L);
  Memory.set_float m 4100 (-0.0);
  Memory.set_float m (words - 1) 2.5e-300;
  Memory.set_int m 9000 max_int;
  Alcotest.(check int64) "int64" (-7L) (Memory.get m 5);
  Alcotest.(check int64) "negative zero bits"
    (Int64.bits_of_float (-0.0))
    (Memory.get m 4100);
  Alcotest.(check (float 0.0)) "float" 2.5e-300 (Memory.get_float m (words - 1));
  Alcotest.(check int) "int" max_int (Memory.get_int m 9000);
  Alcotest.(check int64) "neighbour untouched" 0L (Memory.get m 4101)

(* Bulk operations mix mapped and malloc'd stores freely, and [seed]
   copies every non-zero word, including a chunk whose only non-zero
   word is its last. *)
let test_mapped_bulk_ops () =
  let words = 2048 in
  let heap = Memory.create ~words and mapped = Memory.create_mapped ~words in
  for i = 0 to 511 do
    Memory.set_int heap i (i + 1)
  done;
  Memory.set_int heap 1023 77;
  Memory.set_float heap (words - 1) 1.5;
  Alcotest.(check int) "first_diff heap vs fresh mapping" 0
    (Memory.first_diff heap 0 mapped 0 words);
  Alcotest.(check bool) "all-zero chunk equal" true
    (Memory.equal_range heap mapped ~pos:1024 ~len:512);
  Memory.blit ~src:heap ~src_pos:0 ~dst:mapped ~dst_pos:0 ~len:512;
  Alcotest.(check bool) "blit heap -> mapped" true
    (Memory.equal_range heap mapped ~pos:0 ~len:512);
  Alcotest.(check int) "first_diff after blit" 1023
    (Memory.first_diff mapped 0 heap 0 words);
  let back = Memory.create ~words in
  Memory.blit ~src:mapped ~src_pos:0 ~dst:back ~dst_pos:0 ~len:words;
  Alcotest.(check int) "blit mapped -> heap" (-1)
    (Memory.first_diff back 0 mapped 0 words);
  let dsts = [| Memory.create_mapped ~words; Memory.create ~words |] in
  Memory.seed ~src:heap ~len:words dsts;
  Array.iteri
    (fun k d ->
      Alcotest.(check int)
        (Printf.sprintf "seeded copy %d identical" k)
        (-1)
        (Memory.first_diff heap 0 d 0 words))
    dsts

(* Resident set of this process in kB, where /proc provides it. *)
let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
              Scanf.sscanf line "VmRSS: %d kB" Option.some
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* Mapped stores put no pressure on the GC, so a leak of the mappings
   themselves would show only as growing host memory: allocate and drop
   a few thousand 1 MB images, touching a few pages of each. *)
let test_mapped_no_leak () =
  let words = 131_072 in
  let cycle () =
    for _ = 1 to 64 do
      let m = Memory.create_mapped ~words in
      for k = 0 to 7 do
        Memory.set_int m (k * 16_384) k
      done;
      ignore (Sys.opaque_identity m)
    done;
    Gc.full_major ()
  in
  cycle ();
  let before = vm_rss_kb () in
  for _ = 1 to 48 do
    cycle ()
  done;
  match (before, vm_rss_kb ()) with
  | Some b, Some a ->
      (* A leak would keep 3072 x 32 kB = 96 MB resident. *)
      Alcotest.(check bool)
        (Printf.sprintf "VmRSS %d kB -> %d kB" b a)
        true
        (a - b < 16_384)
  | _ -> ()

(* Clones of one image read its words and zero past [len], and a write
   to one clone reaches neither its siblings nor the source.  [len] ends
   mid-chunk, one chunk's only non-zero word is its last, and a non-zero
   source word past [len] is not copied. *)
let test_clones_read_and_isolate () =
  let len = 1500 in
  let src = Memory.create ~words:2048 in
  for i = 0 to 99 do
    Memory.set_int src i (i + 1)
  done;
  Memory.set_int src 1023 77;
  Memory.set_float src (len - 1) (-2.5);
  Memory.set_int src len 99;
  let clones = Memory.clones ~src ~len [| 2048; 4096; len |] in
  Array.iteri
    (fun k c ->
      Alcotest.(check int) (Printf.sprintf "clone %d words" k)
        [| 2048; 4096; len |].(k) (Memory.words c);
      Alcotest.(check int) (Printf.sprintf "clone %d reads the image" k) (-1)
        (Memory.first_diff src 0 c 0 len);
      for i = len to Memory.words c - 1 do
        if Memory.get c i <> 0L then
          Alcotest.failf "clone %d word %d past len reads %Ld" k i
            (Memory.get c i)
      done)
    clones;
  Memory.set_int clones.(0) 5 (-5);
  Memory.set_int clones.(0) 600 6;
  Memory.set_int clones.(1) 3000 7;
  Alcotest.(check int) "source untouched" 6 (Memory.get_int src 5);
  Alcotest.(check int) "sibling untouched" 6 (Memory.get_int clones.(1) 5);
  Alcotest.(check int) "sibling zero chunk untouched" 0
    (Memory.get_int clones.(2) 600);
  Alcotest.(check int) "writer sees its write" (-5)
    (Memory.get_int clones.(0) 5);
  Alcotest.(check int) "write past len" 7 (Memory.get_int clones.(1) 3000);
  (* An all-zero image takes no file; its clones behave the same. *)
  let zeros = Memory.clones ~src:(Memory.create ~words:1024) ~len:1024
      [| 1024; 2048 |] in
  Memory.set_int zeros.(0) 9 1;
  Alcotest.(check int) "all-zero image: writer" 1 (Memory.get_int zeros.(0) 9);
  Alcotest.(check int) "all-zero image: sibling" (-1)
    (Memory.first_diff (Memory.create ~words:2048) 0 zeros.(1) 0 2048)

(* Names of this process's image files in the temp dir. *)
let image_files () =
  let prefix = Printf.sprintf "shmsim-image-%d-" (Unix.getpid ()) in
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix)

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

(* The image file is unlinked and its descriptor closed before [clones]
   returns: no name is left in the temp dir and no descriptor leaks. *)
let test_clones_leave_nothing () =
  let src = Memory.create ~words:1024 in
  Memory.set_int src 700 1;
  let before = open_fds () in
  for _ = 1 to 100 do
    let c = Memory.clones ~src ~len:1024 [| 1024; 1024 |] in
    Alcotest.(check (list string)) "no image file" [] (image_files ());
    ignore (Sys.opaque_identity c)
  done;
  Gc.full_major ();
  Alcotest.(check (option int)) "descriptors" before (open_fds ())

(* Clones are mappings the GC does not count, like [create_mapped]: clone
   and drop a 1 MB image a few hundred times, writing a few pages of each
   clone, and host memory must stay flat. *)
let test_clones_no_leak () =
  let words = 131_072 in
  let src = Memory.create ~words in
  for k = 0 to 7 do
    Memory.set_int src (k * 16_384) (k + 1)
  done;
  let cycle () =
    for _ = 1 to 8 do
      let cs = Memory.clones ~src ~len:words (Array.make 8 words) in
      Array.iteri (fun k c -> Memory.set_int c (k * 16_384 + 1) k) cs;
      ignore (Sys.opaque_identity cs)
    done;
    Gc.full_major ()
  in
  cycle ();
  let before = vm_rss_kb () in
  for _ = 1 to 48 do
    cycle ()
  done;
  match (before, vm_rss_kb ()) with
  | Some b, Some a ->
      (* A leak would keep 3072 clones x 32 kB = 96 MB resident. *)
      Alcotest.(check bool)
        (Printf.sprintf "VmRSS %d kB -> %d kB" b a)
        true
        (a - b < 16_384)
  | _ -> ()

(* Clones share the image's pages until they write: 16 clones of a
   16 MB image with every page non-zero, each reading one word, stay far
   below the 256 MB that 16 seeded copies would take. *)
let test_clones_share_pages () =
  let words = 2 * 1024 * 1024 in
  let src = Memory.create ~words in
  for i = 0 to words - 1 do
    Memory.set_int src i (i + 1)
  done;
  match vm_rss_kb () with
  | None -> ()
  | Some before ->
      let cs = Memory.clones ~src ~len:words (Array.make 16 words) in
      Array.iteri
        (fun k c ->
          let i = k * (words / 16) in
          Alcotest.(check int) "clone reads the image" (i + 1)
            (Memory.get_int c i))
        cs;
      let after = Option.get (vm_rss_kb ()) in
      ignore (Sys.opaque_identity (src, cs));
      Alcotest.(check bool)
        (Printf.sprintf "VmRSS %d kB -> %d kB" before after)
        true
        (after - before < 65_536)

let test_memory_blit () =
  let a = Memory.create ~words:32 and b = Memory.create ~words:32 in
  for i = 0 to 31 do
    Memory.set_int a i (i * i)
  done;
  Memory.blit ~src:a ~src_pos:8 ~dst:b ~dst_pos:16 ~len:8;
  Alcotest.(check int) "copied" (10 * 10) (Memory.get_int b 18);
  Alcotest.(check bool) "range equal" true
    (let ok = ref true in
     for i = 0 to 7 do
       if Memory.get_int b (16 + i) <> (8 + i) * (8 + i) then ok := false
     done;
     !ok)

let test_cache_mapping () =
  let c = Cache.create ~size_words:64 ~block_words:4 in
  Alcotest.(check int) "lines" 16 (Cache.lines c);
  Alcotest.(check int) "block alignment" 8 (Cache.block_of c 11);
  ignore (Cache.insert c 8 Cache.Shared);
  Alcotest.(check bool) "probe within block" true
    (Cache.probe c 10 = Cache.Shared);
  (* Word 8 + 64 maps to the same line: conflict eviction. *)
  let victim = Cache.insert c (8 + 64) Cache.Modified in
  Alcotest.(check bool) "evicted the old block" true
    (Cache.victim_block victim = 8 && Cache.victim_state victim = Cache.Shared);
  Alcotest.(check bool) "old block gone" true (Cache.probe c 8 = Cache.Invalid)

let test_cache_peek_victim () =
  let c = Cache.create ~size_words:64 ~block_words:4 in
  ignore (Cache.insert c 0 Cache.Modified);
  let victim = Cache.peek_victim c 64 in
  Alcotest.(check bool) "peek sees conflicting block" true
    (Cache.victim_block victim = 0 && Cache.victim_state victim = Cache.Modified);
  Alcotest.(check bool) "peek same block is none" true
    (Cache.peek_victim c 0 = Cache.no_victim);
  (* Peek must not modify anything. *)
  Alcotest.(check bool) "still resident" true (Cache.probe c 0 = Cache.Modified)

(* The two-array directory [Cache] used to keep, as a reference: a tag
   per line (-1 = empty) beside a state per line. *)
module Ref_cache = struct
  type t = { bw : int; tags : int array; states : Cache.state array }

  let create ~lines ~bw =
    {
      bw;
      tags = Array.make lines (-1);
      states = Array.make lines Cache.Invalid;
    }

  let line t block = block / t.bw land (Array.length t.tags - 1)

  let state_of t block =
    let l = line t block in
    if t.tags.(l) = block then t.states.(l) else Cache.Invalid

  let set_state t block state =
    let l = line t block in
    if t.tags.(l) <> block then invalid_arg "Ref_cache.set_state";
    t.states.(l) <- state

  let peek_victim t block =
    let l = line t block in
    if t.tags.(l) >= 0 && t.tags.(l) <> block && t.states.(l) <> Cache.Invalid
    then Some (t.tags.(l), t.states.(l))
    else None

  let fill t block state =
    let l = line t block in
    t.tags.(l) <- block;
    t.states.(l) <- state

  let insert t block state =
    let victim = peek_victim t block in
    fill t block state;
    victim

  let invalidate t block =
    let l = line t block in
    if t.tags.(l) = block then begin
      let old = t.states.(l) in
      t.states.(l) <- Cache.Invalid;
      old
    end
    else Cache.Invalid

  let valid t =
    List.filter_map
      (fun l ->
        if t.tags.(l) >= 0 && t.states.(l) <> Cache.Invalid then
          Some (t.tags.(l), t.states.(l))
        else None)
      (List.init (Array.length t.tags) Fun.id)
end

let victim_opt v =
  match Cache.victim_state v with
  | Cache.Invalid -> None
  | st -> Some (Cache.victim_block v, st)

(* Random operation sequences on 8-line caches of 1-, 4- and 16-word
   blocks give the packed directory exactly the reference's answers.
   Addresses cluster near 0 (block 0 included) and near 2^50, so tags
   collide on every line and large tags round-trip. *)
let prop_cache_matches_reference =
  let states =
    [| Cache.Invalid; Cache.Shared; Cache.Exclusive; Cache.Modified |]
  in
  let addr =
    QCheck.Gen.(
      oneof
        [ return 0; int_bound 511; map (fun k -> (1 lsl 50) + k) (int_bound 511) ])
  in
  let op = QCheck.Gen.(triple (int_bound 6) addr (int_bound 3)) in
  QCheck.Test.make ~count:300 ~name:"packed cache matches the two-array model"
    QCheck.(
      make
        ~print:(fun (bw, ops) ->
          Printf.sprintf "block_words %d: %s" bw
            (String.concat "; "
               (List.map (fun (o, a, s) -> Printf.sprintf "%d@%d/%d" o a s) ops)))
        Gen.(pair (oneofl [ 1; 4; 16 ]) (list_size (1 -- 200) op)))
    (fun (bw, ops) ->
      let lines = 8 in
      let c = Cache.create ~size_words:(lines * bw) ~block_words:bw in
      let r = Ref_cache.create ~lines ~bw in
      let raises f =
        match f () with () -> false | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun (o, a, s) ->
          let block = Cache.block_of c a and st = states.(s) in
          match o with
          | 0 ->
              victim_opt (Cache.insert c block st) = Ref_cache.insert r block st
          | 1 ->
              Cache.fill c block st;
              Ref_cache.fill r block st;
              true
          | 2 -> Cache.invalidate c block = Ref_cache.invalidate r block
          | 3 ->
              raises (fun () -> Cache.set_state c block st)
              = raises (fun () -> Ref_cache.set_state r block st)
          | 4 -> Cache.probe c a = Ref_cache.state_of r block
          | 5 ->
              victim_opt (Cache.peek_victim c block)
              = Ref_cache.peek_victim r block
          | _ ->
              let seen = ref [] in
              Cache.iter_valid c (fun b st -> seen := (b, st) :: !seen);
              List.rev !seen = Ref_cache.valid r)
        ops)

(* A cache holds host memory only for lines it has written: 2048 caches
   of 8192 words, each probed once, stay well below the 64 MB that a tag
   and a state array per line would take. *)
let test_cache_unwritten_lines_free () =
  match vm_rss_kb () with
  | None -> ()
  | Some before ->
      let caches =
        Array.init 2048 (fun _ -> Cache.create ~size_words:8192 ~block_words:4)
      in
      let empty = ref true in
      Array.iteri
        (fun k c ->
          if Cache.probe c (k * 4) <> Cache.Invalid then empty := false)
        caches;
      Alcotest.(check bool) "every probe misses" true !empty;
      let after = Option.get (vm_rss_kb ()) in
      ignore (Sys.opaque_identity caches);
      Alcotest.(check bool)
        (Printf.sprintf "VmRSS %d kB -> %d kB" before after)
        true
        (after - before < 16_384)

let test_private_cache_write_through () =
  let eng = Engine.create () in
  let pc = Private_cache.create Private_cache.dec_config in
  ignore
    (Engine.spawn eng ~name:"cpu" ~at:0 (fun f ->
         (* Write-through buffered: writes always cost one cycle. *)
         Private_cache.write pc f 100;
         Alcotest.(check int) "write is 1 cycle" 1 (Engine.clock f);
         (* Cold read misses. *)
         Private_cache.read pc f 100;
         Alcotest.(check int) "read miss" 19 (Engine.clock f);
         (* Same block now hits. *)
         Private_cache.read pc f 101;
         Alcotest.(check int) "read hit" 20 (Engine.clock f)));
  Engine.run eng;
  Alcotest.(check int) "one miss" 1 (Private_cache.misses pc);
  Alcotest.(check int) "one hit" 1 (Private_cache.hits pc)

let test_private_cache_invalidate_range () =
  let eng = Engine.create () in
  let pc = Private_cache.create Private_cache.sim_node_config in
  ignore
    (Engine.spawn eng ~name:"cpu" ~at:0 (fun f ->
         Private_cache.read pc f 0;
         Private_cache.invalidate_range pc ~addr:0 ~words:512;
         let before = Engine.clock f in
         Private_cache.read pc f 0;
         Alcotest.(check int) "re-miss after invalidation" 20
           (Engine.clock f - before)));
  Engine.run eng

(* MESI state walk on the snooping bus: E on sole read, S on shared read,
   M on write, cache-to-cache supply, invalidation on write. *)
let test_snoop_mesi_walk () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let mem = Memory.create ~words:1024 in
  Memory.set_int mem 0 7;
  let m = Snoop.create eng counters mem (Snoop.hs_node_config ~n_cpus:3) in
  ignore
    (Engine.spawn eng ~name:"script" ~at:0 (fun f ->
         (* CPU 0 reads alone: Exclusive. *)
         Alcotest.(check int) "value" 7
           (Int64.to_int (Snoop.read m f ~cpu:0 0));
         (* CPU 1 reads: both Shared, cache supplies. *)
         ignore (Snoop.read m f ~cpu:1 0);
         Snoop.check_coherence m;
         (* CPU 2 writes: others invalidated. *)
         Snoop.write m f ~cpu:2 0 99L;
         Snoop.check_coherence m;
         Alcotest.(check int) "write visible" 99
           (Int64.to_int (Snoop.read m f ~cpu:0 0));
         Snoop.check_coherence m))
  |> ignore;
  Engine.run eng;
  Alcotest.(check bool) "invalidations happened" true
    (Counters.get counters "bus.inval" > 0)

(* Concurrent rmw increments through the snooping machine never lose
   updates, under random interleavings. *)
let prop_snoop_rmw_atomic =
  QCheck.Test.make ~count:25 ~name:"snoop rmw increments are atomic"
    QCheck.(int_bound 1000)
    (fun seed ->
      let eng = Engine.create () in
      let counters = Counters.create () in
      let mem = Memory.create ~words:64 in
      let m = Snoop.create eng counters mem (Snoop.sgi_config ~n_cpus:4) in
      let rng = Prng.create ~seed in
      let per_cpu = 50 in
      for cpu = 0 to 3 do
        let delay = Prng.int rng 100 in
        ignore
          (Engine.spawn eng ~name:(Printf.sprintf "cpu%d" cpu) ~at:delay
             (fun f ->
               for _ = 1 to per_cpu do
                 ignore (Snoop.rmw m f ~cpu 0 Int64.succ);
                 Engine.advance f (Prng.int rng 50)
               done))
      done;
      Engine.run eng;
      Snoop.check_coherence m;
      Memory.get_int mem 0 = 4 * per_cpu)

let prop_directory_rmw_atomic =
  QCheck.Test.make ~count:25 ~name:"directory rmw increments are atomic"
    QCheck.(int_bound 1000)
    (fun seed ->
      let eng = Engine.create () in
      let counters = Counters.create () in
      let mem = Memory.create ~words:256 in
      let m =
        Directory.create eng counters mem (Directory.sim_config ~n_nodes:8)
      in
      let rng = Prng.create ~seed in
      let per_cpu = 40 in
      for node = 0 to 7 do
        let delay = Prng.int rng 100 in
        ignore
          (Engine.spawn eng ~name:(Printf.sprintf "n%d" node) ~at:delay
             (fun f ->
               for _ = 1 to per_cpu do
                 ignore (Directory.rmw m f ~node 0 Int64.succ);
                 Engine.advance f (Prng.int rng 200)
               done))
      done;
      Engine.run eng;
      Directory.check_invariants m;
      Memory.get_int mem 0 = 8 * per_cpu)

(* Random mixed reads/writes to random addresses, with page-style range
   invalidations interleaved, keep the directory and the caches mutually
   consistent on a 64-node machine.  A third of the addresses fall near
   the boundary between the directory's first two chunks of entries
   (2048 words in) or on the last block of memory, and so do the
   invalidated ranges. *)
let prop_directory_random_traffic =
  QCheck.Test.make ~count:20 ~name:"directory invariants under random traffic"
    QCheck.(int_bound 1000)
    (fun seed ->
      let eng = Engine.create () in
      let counters = Counters.create () in
      let words = 4096 and nodes = 64 in
      let mem = Memory.create ~words in
      let m =
        Directory.create eng counters mem (Directory.sim_config ~n_nodes:nodes)
      in
      let rng = Prng.create ~seed in
      let addr () =
        match Prng.int rng 6 with
        | 0 -> 2048 - 8 + Prng.int rng 16
        | 1 -> words - 1 - Prng.int rng 8
        | _ -> Prng.int rng words
      in
      for node = 0 to nodes - 1 do
        let plan =
          Array.init 200 (fun _ ->
              (addr (), Prng.int rng 10, Prng.int rng 30))
        in
        ignore
          (Engine.spawn eng ~name:(Printf.sprintf "n%d" node) ~at:0 (fun f ->
               Array.iter
                 (fun (addr, op, think) ->
                   (match op with
                   | 0 ->
                       let words = 1 + ((addr * 7) mod 16) in
                       let addr = min addr (Memory.words mem - words) in
                       Directory.invalidate_range m ~addr ~words
                   | 1 | 2 | 3 | 4 -> ignore (Directory.read m f ~node addr)
                   | _ -> Directory.write m f ~node addr (Int64.of_int addr));
                   Engine.advance f think)
                 plan))
      done;
      Engine.run eng;
      Directory.check_invariants m;
      true)

(* Each of [check_invariants]' four failures, reached by corrupting one
   cache line behind the directory's back after legal traffic. *)
let directory_check_fails ~setup ~corrupt expected () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let mem = Memory.create ~words:1024 in
  let m = Directory.create eng counters mem (Directory.sim_config ~n_nodes:4) in
  ignore (Engine.spawn eng ~name:"script" ~at:0 (fun f -> setup m f));
  Engine.run eng;
  Directory.check_invariants m;
  corrupt (Directory.cache_for_test m);
  Alcotest.check_raises "failure message" (Failure expected) (fun () ->
      Directory.check_invariants m)

let directory_invariant_cases =
  let owned m f = Directory.write m f ~node:0 40 7L in
  let shared m f =
    ignore (Directory.read m f ~node:0 40);
    ignore (Directory.read m f ~node:1 40)
  in
  [
    ( "owner not holding E/M",
      directory_check_fails ~setup:owned
        ~corrupt:(fun cache -> ignore (Cache.invalidate (cache 0) 40))
        "dir: block 40 owned by 0 but state I" );
    ( "non-owner holding a copy",
      directory_check_fails ~setup:owned
        ~corrupt:(fun cache -> ignore (Cache.insert (cache 2) 40 Cache.Shared))
        "dir: block 40 owned by 0 but node 2 has S" );
    ( "E/M on a shared block",
      directory_check_fails ~setup:shared
        ~corrupt:(fun cache -> Cache.set_state (cache 1) 40 Cache.Modified)
        "dir: shared block 40 has M at node 1" );
    ( "unrecorded sharer",
      directory_check_fails ~setup:shared
        ~corrupt:(fun cache -> ignore (Cache.insert (cache 3) 40 Cache.Shared))
        "dir: block 40 sharer 3 not recorded" );
  ]

(* Remote misses cost more than local ones on the directory machine. *)
let test_directory_latencies () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let mem = Memory.create ~words:1024 in
  let m = Directory.create eng counters mem (Directory.sim_config ~n_nodes:4) in
  (* Block 0 is homed at node 0 (block-interleaved). *)
  let local = ref 0 and remote = ref 0 in
  ignore
    (Engine.spawn eng ~name:"script" ~at:0 (fun f ->
         let t0 = Engine.clock f in
         ignore (Directory.read m f ~node:0 0);
         local := Engine.clock f - t0;
         let t1 = Engine.clock f in
         (* Word 16 is block index 4, homed at node 0: remote for node 1. *)
         ignore (Directory.read m f ~node:1 16);
         remote := Engine.clock f - t1));
  Engine.run eng;
  Alcotest.(check bool)
    (Printf.sprintf "remote (%d) > local (%d)" !remote !local)
    true
    (!remote > !local)

(* The SOR effect: a working set larger than the SGI secondary thrashes. *)
let test_snoop_capacity_miss () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let words = 300_000 in
  (* > 1 MB secondary *)
  let mem = Memory.create ~words in
  let m = Snoop.create eng counters mem (Snoop.sgi_config ~n_cpus:1) in
  let small_time = ref 0 and large_time = ref 0 in
  ignore
    (Engine.spawn eng ~name:"cpu" ~at:0 (fun f ->
         (* Two passes over a small buffer: second pass all hits. *)
         for i = 0 to 8191 do
           ignore (Snoop.read m f ~cpu:0 i)
         done;
         let t = Engine.clock f in
         for i = 0 to 8191 do
           ignore (Snoop.read m f ~cpu:0 i)
         done;
         small_time := Engine.clock f - t;
         (* Two passes over > cache: second pass misses again. *)
         for i = 0 to words - 1 do
           ignore (Snoop.read m f ~cpu:0 i)
         done;
         let t = Engine.clock f in
         for i = 0 to words - 1 do
           ignore (Snoop.read m f ~cpu:0 i)
         done;
         large_time := Engine.clock f - t));
  Engine.run eng;
  let small_per_word = float_of_int !small_time /. 8192. in
  let large_per_word = float_of_int !large_time /. float_of_int words in
  Alcotest.(check bool)
    (Printf.sprintf "thrash %.2f cy/word > resident %.2f cy/word"
       large_per_word small_per_word)
    true
    (large_per_word > 2. *. small_per_word)

let suite =
  [
    Alcotest.test_case "memory int/float roundtrip" `Quick test_memory_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xDCAD)
      prop_memory_float_bits;
    Alcotest.test_case "memory blit" `Quick test_memory_blit;
    Alcotest.test_case "mapped memory roundtrip" `Quick test_mapped_roundtrip;
    Alcotest.test_case "mapped memory bulk ops and seeding" `Quick
      test_mapped_bulk_ops;
    Alcotest.test_case "mapped memory is released" `Quick test_mapped_no_leak;
    Alcotest.test_case "clones read the image, writes stay private" `Quick
      test_clones_read_and_isolate;
    Alcotest.test_case "clones leave no file or descriptor" `Quick
      test_clones_leave_nothing;
    Alcotest.test_case "clones are released" `Quick test_clones_no_leak;
    Alcotest.test_case "clones share unwritten pages" `Quick
      test_clones_share_pages;
    Alcotest.test_case "cache direct mapping and eviction" `Quick
      test_cache_mapping;
    Alcotest.test_case "cache peek_victim" `Quick test_cache_peek_victim;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xCAC4)
      prop_cache_matches_reference;
    Alcotest.test_case "caches hold no memory for unwritten lines" `Quick
      test_cache_unwritten_lines_free;
    Alcotest.test_case "private cache write-through timing" `Quick
      test_private_cache_write_through;
    Alcotest.test_case "private cache range invalidation" `Quick
      test_private_cache_invalidate_range;
    Alcotest.test_case "snoop MESI state walk" `Quick test_snoop_mesi_walk;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xF498)
      prop_snoop_rmw_atomic;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xE7F5)
      prop_directory_rmw_atomic;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xD1C7)
      prop_directory_random_traffic;
    Alcotest.test_case "directory remote > local latency" `Quick
      test_directory_latencies;
    Alcotest.test_case "secondary-cache capacity misses" `Quick
      test_snoop_capacity_miss;
  ]
  @ List.map
      (fun (name, f) ->
        Alcotest.test_case ("directory check: " ^ name) `Quick f)
      directory_invariant_cases
