(* Tests for the software DSMs on the shared page-DSM shell: IVY (the
   sequentially-consistent baseline), Tardis and TreadMarks, each case
   run on every engine whose protocol promises the outcome. *)

module Engine = Shm_sim.Engine
module Prng = Shm_sim.Prng
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Paged = Shm_dsm.Paged

let fabric eng counters ~nodes =
  Fabric.create eng counters
    (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
    ~nodes

(* The software DSMs built on {!Shm_dsm.Paged}, mounted through its
   instance.  [transfers] counts a home-based engine's ownership moves
   (TreadMarks moves none; the ping-pong case does not run on it),
   [shipped] the messages that carried a page's data (for TreadMarks,
   the diffs applied). *)
type engine = {
  name : string;
  mount :
    Engine.t -> Counters.t -> nodes:int -> shared_words:int ->
    Memory.t array -> Shm_proto.sdsm_instance;
  transfers : string;
  shipped : Counters.t -> int;
}

let ivy =
  {
    name = "ivy";
    mount =
      (fun eng counters ~nodes ~shared_words memories ->
        Paged.instance
          (Shm_ivy.System.create eng counters (fabric eng counters ~nodes)
             ~shared_words ~memories));
    transfers = "ivy.page_transfers";
    shipped =
      (fun c ->
        Counters.get c "ivy.page_copies" + Counters.get c "ivy.page_transfers");
  }

let tardis =
  {
    name = "tardis";
    mount =
      (fun eng counters ~nodes ~shared_words memories ->
        Paged.instance
          (Shm_tardis.System.create eng counters (fabric eng counters ~nodes)
             ~shared_words ~memories));
    transfers = "tardis.flushes";
    shipped =
      (fun c ->
        Counters.get c "tardis.page_fetches" + Counters.get c "tardis.flushes");
  }

let lrc =
  {
    name = "lrc";
    mount =
      (fun eng counters ~nodes ~shared_words memories ->
        Paged.instance
          (Shm_tmk.System.create eng counters (fabric eng counters ~nodes)
             (Shm_tmk.Config.default ~n_nodes:nodes ~shared_words)
             ~memories));
    transfers = "tmk.diffs_applied";
    shipped = (fun c -> Counters.get c "tmk.diffs_applied");
  }

type cluster = {
  eng : Engine.t;
  sys : Shm_proto.sdsm_instance;
  counters : Counters.t;
  memories : Memory.t array;
}

let make_cluster ?(engine = ivy) ~nodes ~shared_words () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let memories = Array.init nodes (fun _ -> Memory.create ~words:shared_words) in
  let sys = engine.mount eng counters ~nodes ~shared_words memories in
  sys.start ();
  { eng; sys; counters; memories }

let spawn c ~node body =
  ignore (Engine.spawn c.eng ~name:(Printf.sprintf "node%d" node) ~at:0 body)

let read c f ~node addr =
  c.sys.read_guard f ~node addr;
  Memory.get_int c.memories.(node) addr

let write c f ~node addr v =
  c.sys.write_guard f ~node addr;
  Memory.set_int c.memories.(node) addr v

let test_lock_counter engine () =
  let nodes = 4 in
  let c = make_cluster ~engine ~nodes ~shared_words:1024 () in
  let final = ref (-1) in
  for node = 0 to nodes - 1 do
    spawn c ~node (fun f ->
        for _ = 1 to 10 do
          c.sys.acquire f ~node ~lock:3;
          let v = read c f ~node 0 in
          write c f ~node 0 (v + 1);
          c.sys.release f ~node ~lock:3
        done;
        c.sys.barrier_arrive f ~node ~id:0;
        if node = 0 then final := read c f ~node 0)
  done;
  Engine.run c.eng;
  Alcotest.(check int) "all increments" 40 !final;
  c.sys.check_invariants ()

(* Sequential consistency: a reader polling an unsynchronized flag DOES
   see the writer's update (contrast with the LRC staleness test). *)
let test_sc_propagates_without_sync () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  let observed = ref (-1) in
  spawn c ~node:0 (fun f -> write c f ~node:0 0 7);
  spawn c ~node:1 (fun f ->
      (* Poll until the value arrives; SC guarantees it eventually does
         because the write invalidates our copy. *)
      let rec poll tries =
        if tries = 0 then ()
        else
          let v = read c f ~node:1 0 in
          if v = 7 then observed := v
          else begin
            Engine.wait_until f (Engine.clock f + 100_000);
            poll (tries - 1)
          end
      in
      poll 100);
  Engine.run c.eng;
  Alcotest.(check int) "update visible without synchronization" 7 !observed

let test_write_ping_pong_counts engine () =
  (* Two nodes alternately writing the same page transfer the whole page
     each time: the false-sharing failure mode. *)
  let c = make_cluster ~engine ~nodes:2 ~shared_words:1024 () in
  let rounds = 5 in
  for node = 0 to 1 do
    spawn c ~node (fun f ->
        for r = 1 to rounds do
          (* Barriers force strict alternation. *)
          if r mod 2 = node then write c f ~node node (r * 10) else ();
          c.sys.barrier_arrive f ~node ~id:0
        done)
  done;
  Engine.run c.eng;
  c.sys.check_invariants ();
  Alcotest.(check bool) "page transfers happened" true
    (Counters.get c.counters engine.transfers >= rounds - 1)

let prop_random_writes_converge engine =
  QCheck.Test.make ~count:15
    ~name:(engine.name ^ ": disjoint writes all visible")
    QCheck.(int_bound 1000)
    (fun seed ->
      let nodes = 3 in
      let c = make_cluster ~engine ~nodes ~shared_words:2048 () in
      let rng = Prng.create ~seed in
      let plans =
        Array.init nodes (fun node ->
            Array.init 25 (fun _ ->
                ((node * 680) + Prng.int rng 680, Prng.int rng 100_000)))
      in
      for node = 0 to nodes - 1 do
        spawn c ~node (fun f ->
            Array.iter (fun (a, v) -> write c f ~node a v) plans.(node);
            c.sys.barrier_arrive f ~node ~id:0)
      done;
      Engine.run c.eng;
      c.sys.check_invariants ();
      (* Node 0 reads everything through the protocol. *)
      let eng2 = c.eng in
      ignore eng2;
      let c2 = c in
      let ok = ref true in
      ignore
        (Engine.spawn c.eng ~name:"checker" ~at:0 (fun f ->
             Array.iter
               (fun plan ->
                 (* The last write to each address must be visible. *)
                 let final = Hashtbl.create 16 in
                 Array.iter (fun (a, v) -> Hashtbl.replace final a v) plan;
                 Hashtbl.iter
                   (fun a v -> if read c2 f ~node:0 a <> v then ok := false)
                   final)
               plans));
      Engine.run c.eng;
      !ok)

(* A page moves between nodes as a raw copy: the bit patterns a float
   round trip could disturb (a signalling NaN among them) arrive intact. *)
let test_page_transfer_bit_exact engine () =
  let words = Test_props.tricky_words in
  let c = make_cluster ~engine ~nodes:2 ~shared_words:1024 () in
  let seen = ref [] in
  spawn c ~node:0 (fun f ->
      List.iteri
        (fun k w ->
          c.sys.write_guard f ~node:0 k;
          Memory.set c.memories.(0) k w)
        words;
      c.sys.barrier_arrive f ~node:0 ~id:0);
  spawn c ~node:1 (fun f ->
      c.sys.barrier_arrive f ~node:1 ~id:0;
      seen :=
        List.mapi
          (fun k _ ->
            c.sys.read_guard f ~node:1 k;
            Memory.get c.memories.(1) k)
          words);
  Engine.run c.eng;
  c.sys.check_invariants ();
  Alcotest.(check bool) "page shipped" true (engine.shipped c.counters >= 1);
  Alcotest.(check (list int64)) "bits intact" words !seen

let test_single_node_is_free engine () =
  let c = make_cluster ~engine ~nodes:1 ~shared_words:1024 () in
  spawn c ~node:0 (fun f ->
      write c f ~node:0 0 5;
      ignore (read c f ~node:0 0);
      Alcotest.(check int) "no protocol cost" 0 (Engine.clock f));
  Engine.run c.eng

(* The cases every engine on the shell passes. *)
let shell_cases engine =
  [
    Alcotest.test_case "lock-protected counter" `Quick
      (test_lock_counter engine);
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x1717)
      (prop_random_writes_converge engine);
    Alcotest.test_case "single node costs nothing" `Quick
      (test_single_node_is_free engine);
    Alcotest.test_case "page transfers are bit-exact" `Quick
      (test_page_transfer_bit_exact engine);
  ]

(* The home-based engines also move a written page whole, so alternating
   writers transfer it; IVY adds sequential consistency without
   synchronization, which Tardis' leases and TreadMarks' lazy release do
   not promise. *)
let cases engine =
  Alcotest.test_case "write ping-pong transfers pages" `Quick
    (test_write_ping_pong_counts engine)
  :: shell_cases engine

let suite =
  Alcotest.test_case "SC propagates without sync" `Quick
    test_sc_propagates_without_sync
  :: cases ivy

let tardis_suite = cases tardis
let lrc_suite = shell_cases lrc
