(* Protocol-level tests of the TreadMarks lazy-release-consistency engine:
   propagation through locks and barriers, multiple-writer merging, lazy
   staleness, eager release, fault merging, and protocol invariants. *)

module Engine = Shm_sim.Engine
module Waitq = Shm_sim.Waitq
module Prng = Shm_sim.Prng
module Counters = Shm_stats.Counters
module Fabric = Shm_net.Fabric
module Lifecycle = Shm_sim.Lifecycle
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Vc = Shm_tmk.Vc
module Diff = Shm_tmk.Diff
module Record = Shm_tmk.Record
module Config = Shm_tmk.Config
module System = Shm_tmk.System

type cluster = {
  eng : Engine.t;
  sys : System.t;
  counters : Counters.t;
  lc : Lifecycle.t option;  (** attached iff built with [~crash] *)
}

let make_cluster ?(eager_locks = []) ?crash ~nodes ~shared_words () =
  let eng = Engine.create () in
  let counters = Counters.create () in
  let fabric =
    Fabric.create eng counters
      (Fabric.atm_dec ~overhead:Overhead.treadmarks_user)
      ~nodes
  in
  let lc =
    Option.map
      (fun policy ->
        let lc = Lifecycle.create eng counters policy ~nodes in
        Fabric.attach_lifecycle fabric lc;
        lc)
      crash
  in
  (* Lazily mapped: a node commits host memory only for the pages it
     writes, so a wide cluster costs what it touches. *)
  let memories =
    Array.init nodes (fun _ -> Memory.create_mapped ~words:shared_words)
  in
  let cfg = { (Config.default ~n_nodes:nodes ~shared_words) with eager_locks } in
  let sys = System.create eng counters fabric cfg ~memories in
  System.start sys;
  Option.iter Lifecycle.start lc;
  { eng; sys; counters; lc }

let spawn_node c ~node body =
  ignore
    (Engine.spawn c.eng ~name:(Printf.sprintf "node%d" node) ~at:0 (fun f ->
         body f))

let read c f ~node addr =
  Shm_dsm.Paged.read_guard c.sys f ~node addr;
  Memory.get_int (System.memory c.sys ~node) addr

let write c f ~node addr v =
  Shm_dsm.Paged.write_guard c.sys f ~node addr;
  Memory.set_int (System.memory c.sys ~node) addr v

let test_lock_counter () =
  let nodes = 4 in
  let c = make_cluster ~nodes ~shared_words:1024 () in
  let final = ref (-1) in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        for _ = 1 to 10 do
          System.acquire c.sys f ~node ~lock:3;
          let v = read c f ~node 0 in
          write c f ~node 0 (v + 1);
          System.release c.sys f ~node ~lock:3
        done;
        System.barrier_arrive c.sys f ~node ~id:0;
        if node = 0 then final := read c f ~node 0)
  done;
  Engine.run c.eng;
  Alcotest.(check int) "all increments visible" 40 !final;
  System.check_invariants c.sys

let test_barrier_propagation () =
  let nodes = 3 in
  let c = make_cluster ~nodes ~shared_words:4096 () in
  let sums = Array.make nodes 0 in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        if node = 0 then
          for i = 0 to 99 do
            write c f ~node i (i * i)
          done;
        System.barrier_arrive c.sys f ~node ~id:0;
        let s = ref 0 in
        for i = 0 to 99 do
          s := !s + read c f ~node i
        done;
        sums.(node) <- !s)
  done;
  Engine.run c.eng;
  let expected = ref 0 in
  for i = 0 to 99 do
    expected := !expected + (i * i)
  done;
  Array.iteri
    (fun n s -> Alcotest.(check int) (Printf.sprintf "node %d sum" n) !expected s)
    sums;
  System.check_invariants c.sys

(* Two nodes write disjoint halves of the same page between barriers: the
   multiple-writer protocol must merge both sets of writes everywhere. *)
let test_multiple_writer_merge () =
  let nodes = 2 in
  let c = make_cluster ~nodes ~shared_words:1024 () in
  let ok = Array.make nodes false in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        let base = if node = 0 then 0 else 256 in
        for i = 0 to 255 do
          write c f ~node (base + i) ((node * 1000) + i)
        done;
        System.barrier_arrive c.sys f ~node ~id:0;
        let good = ref true in
        for i = 0 to 255 do
          if read c f ~node i <> i then good := false;
          if read c f ~node (256 + i) <> 1000 + i then good := false
        done;
        ok.(node) <- !good)
  done;
  Engine.run c.eng;
  Array.iteri
    (fun n g -> Alcotest.(check bool) (Printf.sprintf "node %d merged" n) true g)
    ok;
  System.check_invariants c.sys

(* LRC is lazy: without an acquire, a node keeps reading its stale copy. *)
let test_lazy_staleness () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  let observed = ref (-1) in
  spawn_node c ~node:0 (fun f ->
      System.acquire c.sys f ~node:0 ~lock:0;
      write c f ~node:0 0 7;
      System.release c.sys f ~node:0 ~lock:0;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  spawn_node c ~node:1 (fun f ->
      (* Wait long enough that node 0's release has surely happened. *)
      Engine.wait_until f 100_000_000;
      observed := read c f ~node:1 0;
      System.barrier_arrive c.sys f ~node:1 ~id:0);
  Engine.run c.eng;
  Alcotest.(check int) "unsynchronized read stays stale" 0 !observed

(* With an eager lock the release pushes the new value everywhere. *)
let test_eager_release_propagates () =
  let c = make_cluster ~eager_locks:[ 0 ] ~nodes:2 ~shared_words:1024 () in
  let observed = ref (-1) in
  spawn_node c ~node:0 (fun f ->
      System.acquire c.sys f ~node:0 ~lock:0;
      write c f ~node:0 0 7;
      System.release c.sys f ~node:0 ~lock:0;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  spawn_node c ~node:1 (fun f ->
      Engine.wait_until f 100_000_000;
      observed := read c f ~node:1 0;
      System.barrier_arrive c.sys f ~node:1 ~id:0);
  Engine.run c.eng;
  Alcotest.(check int) "eager release pushed the update" 7 !observed

(* A lock whose token is already on-node costs no messages. *)
let test_token_locality () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  spawn_node c ~node:0 (fun f ->
      (* Lock 0's manager is node 0, so every acquire is local. *)
      for _ = 1 to 5 do
        System.acquire c.sys f ~node:0 ~lock:0;
        System.release c.sys f ~node:0 ~lock:0
      done;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  spawn_node c ~node:1 (fun f -> System.barrier_arrive c.sys f ~node:1 ~id:0);
  Engine.run c.eng;
  Alcotest.(check int) "local acquires" 5 (Counters.get c.counters "tmk.lock_local");
  Alcotest.(check int) "no remote acquires" 0
    (Counters.get c.counters "tmk.lock_remote")

(* Two processors of the same (HS-style) node faulting on one page merge
   into a single fetch. *)
let test_fault_merging () =
  let c = make_cluster ~nodes:2 ~shared_words:1024 () in
  let vals = ref [] in
  spawn_node c ~node:0 (fun f ->
      write c f ~node:0 0 41;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  (* Node 1 has two processor fibers; only one calls the barrier (as the
     platform would do for an SMP node). *)
  let arrived = ref false in
  for cpu = 0 to 1 do
    ignore
      (Engine.spawn c.eng ~name:(Printf.sprintf "n1cpu%d" cpu) ~at:0 (fun f ->
           if not !arrived then begin
             arrived := true;
             System.barrier_arrive c.sys f ~node:1 ~id:0
           end
           else Engine.wait_until f 200_000_000;
           vals := read c f ~node:1 0 :: !vals))
  done;
  Engine.run c.eng;
  Alcotest.(check (list int)) "both read the value" [ 41; 41 ] !vals;
  Alcotest.(check int) "one page fault" 1 (Counters.get c.counters "tmk.faults")

(* Runs with identical inputs produce identical timing and counters. *)
let test_protocol_determinism () =
  let run () =
    let c = make_cluster ~nodes:4 ~shared_words:8192 () in
    let rng = Prng.create ~seed:11 in
    let plan =
      Array.init 4 (fun _ ->
          Array.init 20 (fun _ -> (Prng.int rng 1000, Prng.int rng 4)))
    in
    for node = 0 to 3 do
      spawn_node c ~node (fun f ->
          Array.iter
            (fun (addr, lck) ->
              System.acquire c.sys f ~node ~lock:lck;
              let v = read c f ~node addr in
              write c f ~node addr (v + 1);
              System.release c.sys f ~node ~lock:lck)
            plan.(node);
          System.barrier_arrive c.sys f ~node ~id:0)
    done;
    Engine.run c.eng;
    (Engine.now c.eng, Counters.to_list c.counters)
  in
  let t1, c1 = run () and t2, c2 = run () in
  Alcotest.(check int) "same final time" t1 t2;
  Alcotest.(check (list (pair string int))) "same counters" c1 c2

(* After a barrier every node's copy of the whole shared space is
   word-for-word identical (qcheck over random write patterns). *)
let prop_barrier_converges =
  QCheck.Test.make ~count:30 ~name:"barrier converges all copies"
    QCheck.(pair small_int (small_list (pair small_nat small_nat)))
    (fun (seed, _) ->
      let nodes = 3 in
      let shared_words = 2048 in
      let c = make_cluster ~nodes ~shared_words () in
      let rng = Prng.create ~seed in
      let plans =
        Array.init nodes (fun node ->
            Array.init 30 (fun _ ->
                (* Disjoint word ranges per node to stay data-race-free. *)
                let addr = Prng.int rng 600 in
                ((node * 640) + addr, Prng.int rng 1_000_000)))
      in
      for node = 0 to nodes - 1 do
        spawn_node c ~node (fun f ->
            Array.iter (fun (addr, v) -> write c f ~node addr v) plans.(node);
            System.barrier_arrive c.sys f ~node ~id:0;
            (* Touch every page to revalidate before comparing. *)
            for p = 0 to (shared_words / 512) - 1 do
              ignore (read c f ~node (p * 512))
            done;
            System.barrier_arrive c.sys f ~node ~id:1)
      done;
      Engine.run c.eng;
      let m0 = System.memory c.sys ~node:0 in
      let ok = ref true in
      for n = 1 to nodes - 1 do
        let mn = System.memory c.sys ~node:n in
        if not (Memory.equal_range m0 mn ~pos:0 ~len:shared_words) then
          ok := false
      done;
      System.check_invariants c.sys;
      !ok)

(* Reading after revalidation applies exactly the written values. *)
let prop_diff_roundtrip =
  QCheck.Test.make ~count:100 ~name:"diff make/apply roundtrip"
    QCheck.(small_list (pair small_nat (int_bound 1000)))
    (fun writes ->
      let words = 128 in
      let twin = Memory.create ~words in
      for i = 0 to words - 1 do
        Memory.set_int twin i i
      done;
      let mem = Memory.create ~words in
      Memory.copy_all ~src:twin ~dst:mem;
      List.iter
        (fun (off, v) -> Memory.set_int mem (off mod words) (v + 2000))
        writes;
      let diff = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words in
      (* Apply onto a fresh copy of the twin. *)
      let mem2 = Memory.create ~words in
      Memory.copy_all ~src:twin ~dst:mem2;
      Diff.apply diff mem2 ~base:0;
      Memory.equal_range mem mem2 ~pos:0 ~len:words)

let prop_vc_join_lub =
  QCheck.Test.make ~count:200 ~name:"vc join is the least upper bound"
    QCheck.(pair (array_of_size (QCheck.Gen.return 5) small_nat)
              (array_of_size (QCheck.Gen.return 5) small_nat))
    (fun (a, b) ->
      let j = Vc.join a b in
      Vc.dominates j a && Vc.dominates j b
      && Array.for_all2 (fun x y -> x = max y (j.(0) * 0) || true) j a
      && Vc.sum j <= Vc.sum a + Vc.sum b)

let test_record_store () =
  let s = Record.Store.create (Record.Table.create ~nodes:2) in
  let mk seqno = Record.make ~creator:1 ~seqno ~vsum:seqno ~pages:[ 0 ] in
  Alcotest.(check bool) "add new" true (Record.Store.add s (mk 1));
  Alcotest.(check bool) "add dup" false (Record.Store.add s (mk 1));
  ignore (Record.Store.add s (mk 2));
  ignore (Record.Store.add s (mk 4));
  Alcotest.(check int) "contiguous stops at gap" 2
    (Record.Store.contiguous s ~creator:1);
  let r = Record.Store.range s ~creator:1 ~lo:0 ~hi:2 in
  Alcotest.(check (list int)) "range seqnos" [ 1; 2 ]
    (List.map (fun (x : Record.t) -> x.seqno) r);
  Alcotest.check_raises "gap raises"
    (Invalid_argument "Record.Store.range: creator 1 missing seq 3")
    (fun () -> ignore (Record.Store.range s ~creator:1 ~lo:0 ~hi:4))

(* Pages start out sharing one all-zero [applied] vector and take their
   own on their first write.  Nodes 0 and 1 each write a different page;
   node 2 must then fault on both and apply exactly one diff to each.  A
   vector shared between pages (or written in place while shared) would
   make node 2 believe it already holds one of the writes. *)
let test_applied_vectors_per_page () =
  let nodes = 3 in
  let c = make_cluster ~nodes ~shared_words:2048 () in
  let seen = Array.make 2 0 in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        if node < 2 then write c f ~node (1024 + (node * 512) + 7) (100 + node);
        System.barrier_arrive c.sys f ~node ~id:0;
        if node = 2 then
          for w = 0 to 1 do
            seen.(w) <- read c f ~node (1024 + (w * 512) + 7)
          done)
  done;
  Engine.run c.eng;
  Alcotest.(check (array int)) "node 2 sees both writers" [| 100; 101 |] seen;
  Alcotest.(check int) "one fault per page" 2
    (Counters.get c.counters "tmk.faults");
  Alcotest.(check int) "one diff per page" 2
    (Counters.get c.counters "tmk.diffs_applied");
  System.check_invariants c.sys

(* The dense record store against a hash-table model.  Seqnos reach well
   past the store's first capacity, arrive out of order and with gaps,
   and repeat; [first_notice] calls interleave with the adds. *)
let prop_store_matches_model =
  let op =
    QCheck.(
      triple bool (int_bound 2) (map (fun s -> s + 1) (int_bound 39)))
  in
  QCheck.Test.make ~count:200 ~name:"record store matches a hash-table model"
    QCheck.(list_of_size (Gen.int_bound 80) op)
    (fun ops ->
      let nodes = 3 and top = 42 in
      let store = Record.Store.create (Record.Table.create ~nodes) in
      let model = Hashtbl.create 64 and noticed = Hashtbl.create 64 in
      let mk creator seqno =
        Record.make ~creator ~seqno ~vsum:seqno ~pages:[ seqno mod 5 ]
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (notice, creator, seqno) ->
          let r = mk creator seqno in
          if notice then begin
            expect
              (Record.Store.first_notice store r
              = not (Hashtbl.mem noticed (creator, seqno)));
            Hashtbl.replace noticed (creator, seqno) ()
          end
          else begin
            expect
              (Record.Store.add store r
              = not (Hashtbl.mem model (creator, seqno)));
            if not (Hashtbl.mem model (creator, seqno)) then
              Hashtbl.add model (creator, seqno) r
          end)
        ops;
      for creator = 0 to nodes - 1 do
        let contig = ref 0 in
        while Hashtbl.mem model (creator, !contig + 1) do
          incr contig
        done;
        expect (Record.Store.contiguous store ~creator = !contig);
        for seqno = 0 to top do
          let want = Hashtbl.find_opt model (creator, seqno) in
          expect
            (match (Record.Store.find store ~creator ~seqno, want) with
            | Some g, Some w -> g == w
            | None, None -> true
            | _ -> false);
          expect (Record.Store.known store (mk creator seqno) = (want <> None))
        done;
        for lo = 0 to top do
          for hi = lo to top do
            let want =
              let rec go s acc =
                if s <= lo then Ok acc
                else
                  match Hashtbl.find_opt model (creator, s) with
                  | Some r -> go (s - 1) (r :: acc)
                  | None ->
                      Error
                        (Printf.sprintf
                           "Record.Store.range: creator %d missing seq %d"
                           creator s)
              in
              go hi []
            in
            let got =
              match Record.Store.range store ~creator ~lo ~hi with
              | l -> Ok l
              | exception Invalid_argument m -> Error m
            in
            expect
              (match (got, want) with
              | Ok g, Ok w ->
                  List.length g = List.length w && List.for_all2 ( == ) g w
              | Error g, Error w -> g = w
              | _ -> false)
          done
        done
      done;
      (* Every mark set above stays set; every other one is still fresh. *)
      for creator = 0 to nodes - 1 do
        for seqno = 1 to top do
          expect
            (Record.Store.first_notice store (mk creator seqno)
            = not (Hashtbl.mem noticed (creator, seqno)))
        done
      done;
      !ok)

(* Reference store: each node keeps its own record array and notice
   byte string per creator. *)
module Old_store = struct
  type per_creator = {
    mutable by_seq : Record.t option array;
    mutable noticed : Bytes.t;
    mutable contig : int;
  }

  let create ~nodes =
    Array.init nodes (fun _ ->
        { by_seq = [||]; noticed = Bytes.empty; contig = 0 })

  let find t ~creator ~seqno =
    let pc = t.(creator) in
    if seqno >= 1 && seqno <= Array.length pc.by_seq then
      pc.by_seq.(seqno - 1)
    else None

  let grown cap seqno = max seqno (max 8 (2 * cap))

  let add t (r : Record.t) =
    let pc = t.(r.creator) in
    if find t ~creator:r.creator ~seqno:r.seqno <> None then false
    else begin
      let cap = Array.length pc.by_seq in
      if r.seqno > cap then begin
        let a = Array.make (grown cap r.seqno) None in
        Array.blit pc.by_seq 0 a 0 cap;
        pc.by_seq <- a
      end;
      pc.by_seq.(r.seqno - 1) <- Some r;
      while find t ~creator:r.creator ~seqno:(pc.contig + 1) <> None do
        pc.contig <- pc.contig + 1
      done;
      true
    end

  let first_notice t (r : Record.t) =
    let pc = t.(r.creator) in
    let len = Bytes.length pc.noticed in
    if r.seqno > len then begin
      let b = Bytes.make (grown len r.seqno) '\000' in
      Bytes.blit pc.noticed 0 b 0 len;
      pc.noticed <- b
    end;
    if Bytes.get pc.noticed (r.seqno - 1) <> '\000' then false
    else begin
      Bytes.set pc.noticed (r.seqno - 1) '\001';
      true
    end

  let range t ~creator ~lo ~hi =
    let rec loop seq acc =
      if seq <= lo then acc
      else
        match find t ~creator ~seqno:seq with
        | Some r -> loop (seq - 1) (r :: acc)
        | None ->
            invalid_arg
              (Printf.sprintf "Record.Store.range: creator %d missing seq %d"
                 creator seq)
    in
    loop hi []
end

(* Register/fault/rejoin-style sequences over three nodes and four pages,
   run on the shared table with packed notices and on [Old_store] with
   each page's notices as (creator, seqno) tuples, newest first.  Every record comes from one pool, as every node holds
   the same value for a (creator, seqno).  After each step both sides
   must agree on every page's pending notices, in order, and on every
   store query. *)
type store_op =
  | Register of int * int * int  (** node, creator, seqno *)
  | Stash of int * int * int  (** store only, as the barrier manager does *)
  | Fault of int * int  (** node, page *)
  | Rejoin of int * int * int  (** node, page, snapshot seqno *)

let prop_notices_match_old_representation =
  let nodes = 3 and pages = 4 and top = 12 in
  let pool =
    Array.init nodes (fun creator ->
        Array.init (top + 1) (fun seqno ->
            let pages =
              List.sort_uniq compare
                [ seqno mod pages; (seqno + creator) mod pages ]
            in
            Record.make ~creator ~seqno ~vsum:seqno ~pages))
  in
  let op =
    QCheck.Gen.(
      let node = int_bound (nodes - 1) and seqno = int_range 1 top in
      frequency
        [
          (4, map3 (fun n c s -> Register (n, c, s)) node node seqno);
          (1, map3 (fun n c s -> Stash (n, c, s)) node node seqno);
          (2, map2 (fun n p -> Fault (n, p)) node (int_bound (pages - 1)));
          ( 1,
            map3
              (fun n p s -> Rejoin (n, p, s))
              node (int_bound (pages - 1)) (int_bound top) );
        ])
  in
  let print = function
    | Register (n, c, s) -> Printf.sprintf "register %d (%d,%d)" n c s
    | Stash (n, c, s) -> Printf.sprintf "stash %d (%d,%d)" n c s
    | Fault (n, p) -> Printf.sprintf "fault %d page %d" n p
    | Rejoin (n, p, s) -> Printf.sprintf "rejoin %d page %d snap %d" n p s
  in
  QCheck.Test.make ~count:300
    ~name:"packed notices and shared store match the old representation"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let table = Record.Table.create ~nodes in
      let stores = Array.init nodes (fun _ -> Record.Store.create table) in
      let olds = Array.init nodes (fun _ -> Old_store.create ~nodes) in
      (* Each side keeps its own applied vectors and pending lists. *)
      let applied () =
        Array.init nodes (fun _ -> Array.make_matrix pages nodes 0)
      in
      let new_applied = applied () and old_applied = applied () in
      let pending = Array.make_matrix nodes pages [] in
      let old_pending = Array.make_matrix nodes pages [] in
      let decode k = (Record.notice_creator k, Record.notice_seqno k) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let same_find n c s =
        match
          ( Record.Store.find stores.(n) ~creator:c ~seqno:s,
            Old_store.find olds.(n) ~creator:c ~seqno:s )
        with
        | Some g, Some w -> g == w
        | None, None -> true
        | _ -> false
      in
      let register n (r : Record.t) =
        expect (Record.Store.add stores.(n) r = Old_store.add olds.(n) r);
        if r.creator <> n then begin
          let fresh = Record.Store.first_notice stores.(n) r in
          expect (fresh = Old_store.first_notice olds.(n) r);
          if fresh then
            List.iter
              (fun p ->
                if r.seqno > new_applied.(n).(p).(r.creator) then
                  pending.(n).(p) <-
                    Record.notice ~creator:r.creator ~seqno:r.seqno
                    :: pending.(n).(p);
                if r.seqno > old_applied.(n).(p).(r.creator) then
                  old_pending.(n).(p) <-
                    (r.creator, r.seqno) :: old_pending.(n).(p))
              r.pages
        end
      in
      let fault n p =
        let needed = Record.unapplied new_applied.(n).(p) pending.(n).(p) in
        let old_needed =
          List.filter
            (fun (c, s) -> s > old_applied.(n).(p).(c))
            old_pending.(n).(p)
        in
        expect (List.map decode needed = old_needed);
        List.iter
          (fun k ->
            let c, s = decode k in
            expect (same_find n c s);
            let v = new_applied.(n).(p) in
            v.(c) <- max v.(c) s)
          needed;
        List.iter
          (fun (c, s) ->
            let v = old_applied.(n).(p) in
            v.(c) <- max v.(c) s)
          old_needed;
        pending.(n).(p) <- Record.unapplied new_applied.(n).(p) pending.(n).(p);
        old_pending.(n).(p) <-
          List.filter
            (fun (c, s) -> s > old_applied.(n).(p).(c))
            old_pending.(n).(p)
      in
      (* Roll the page back to [snap] for every foreign creator and
         requeue the notices of the records it un-applies. *)
      let rejoin n p snap =
        let stale = ref [] and old_stale = ref [] in
        for c = 0 to nodes - 1 do
          let hi = new_applied.(n).(p).(c) in
          if c <> n && hi > snap then begin
            let got =
              match Record.Store.range stores.(n) ~creator:c ~lo:snap ~hi with
              | l -> Ok l
              | exception Invalid_argument m -> Error m
            in
            let want =
              match Old_store.range olds.(n) ~creator:c ~lo:snap ~hi with
              | l -> Ok l
              | exception Invalid_argument m -> Error m
            in
            expect
              (match (got, want) with
              | Ok g, Ok w ->
                  List.length g = List.length w && List.for_all2 ( == ) g w
              | Error g, Error w -> g = w
              | _ -> false);
            List.iter
              (fun (r : Record.t) ->
                if List.mem p r.pages then begin
                  stale := Record.notice ~creator:c ~seqno:r.seqno :: !stale;
                  old_stale := (c, r.seqno) :: !old_stale
                end)
              (match got with Ok l -> l | Error _ -> []);
            new_applied.(n).(p).(c) <- snap;
            old_applied.(n).(p).(c) <- snap
          end
        done;
        List.iter
          (fun k ->
            if not (List.mem k pending.(n).(p)) then
              pending.(n).(p) <- k :: pending.(n).(p))
          !stale;
        List.iter
          (fun e ->
            if not (List.mem e old_pending.(n).(p)) then
              old_pending.(n).(p) <- e :: old_pending.(n).(p))
          !old_stale
      in
      List.iter
        (fun op ->
          (match op with
          | Register (n, c, s) -> register n pool.(c).(s)
          | Stash (n, c, s) ->
              expect
                (Record.Store.add stores.(n) pool.(c).(s)
                = Old_store.add olds.(n) pool.(c).(s))
          | Fault (n, p) -> fault n p
          | Rejoin (n, p, s) -> rejoin n p s);
          for n = 0 to nodes - 1 do
            for p = 0 to pages - 1 do
              expect (List.map decode pending.(n).(p) = old_pending.(n).(p));
              expect (new_applied.(n).(p) = old_applied.(n).(p))
            done;
            for c = 0 to nodes - 1 do
              expect
                (Record.Store.contiguous stores.(n) ~creator:c
                = olds.(n).(c).Old_store.contig);
              for s = 0 to top + 1 do
                expect (same_find n c s);
                if s >= 1 && s <= top then
                  expect
                    (Record.Store.known stores.(n) pool.(c).(s)
                    = (Old_store.find olds.(n) ~creator:c ~seqno:s <> None))
              done
            done
          done)
        ops;
      !ok)

(* The table keeps exactly each creator's records above its floor,
   through any mix of in-order appends and rising drops (partial ones
   leave a dead prefix, full ones compact), and refuses a range that
   reaches below a floor. *)
let prop_table_keeps_records_above_floor =
  QCheck.Test.make ~count:300 ~name:"record table keeps what is above the floor"
    QCheck.(list (pair (int_bound 2) (int_bound 9)))
    (fun ops ->
      let nodes = 3 in
      let table = Record.Table.create ~nodes in
      let store = Record.Store.create table in
      let top = Array.make nodes 0 and floor = Array.make nodes 0 in
      List.iter
        (fun (c, op) ->
          if op < 7 then begin
            top.(c) <- top.(c) + 1;
            ignore
              (Record.Store.add store
                 (Record.make ~creator:c ~seqno:top.(c) ~vsum:top.(c)
                    ~pages:[]))
          end
          else begin
            let f = floor.(c) + ((top.(c) - floor.(c)) * (op - 6) / 3) in
            Record.Table.drop table ~creator:c f;
            floor.(c) <- f
          end)
        ops;
      let kept c =
        List.map
          (fun (r : Record.t) -> (r.creator, r.seqno))
          (Record.Store.range store ~creator:c ~lo:floor.(c) ~hi:top.(c))
      in
      let below c =
        match Record.Store.range store ~creator:c ~lo:0 ~hi:top.(c) with
        | exception Invalid_argument _ -> true
        | _ -> floor.(c) = 0
      in
      let expected = ref 0 and ok = ref true in
      for c = 0 to nodes - 1 do
        expected := !expected + top.(c) - floor.(c);
        ok :=
          !ok
          && kept c = List.init (top.(c) - floor.(c)) (fun i -> (c, floor.(c) + i + 1))
          && below c
          && Record.Table.floor table c = floor.(c)
      done;
      !ok && Record.Table.held table = !expected)

(* The shared happened-before sort orders records exactly as sorting on
   [linear_key] does, and a fault's sort of stamped diffs orders their
   intervals the same way. *)
let prop_compare_linear_is_linear_key =
  let record =
    QCheck.(
      map
        (fun (creator, seqno, vc) ->
          Record.make ~creator ~seqno ~vsum:(Vc.sum vc) ~pages:[])
        (triple (int_bound 3) (int_bound 6)
           (array_of_size (Gen.return 4) (int_bound 6))))
  in
  QCheck.Test.make ~count:500 ~name:"compare_linear sorts like linear_key"
    (QCheck.list record)
    (fun rs ->
      let by_key =
        List.sort
          (fun a b -> compare (Record.linear_key a) (Record.linear_key b))
          rs
      in
      let stamp (r : Record.t) =
        { Diff.page = 0; runs = []; creator = r.creator; seqno = r.seqno;
          vsum = r.vsum }
      in
      let stamped = List.sort Diff.compare_linear (List.map stamp rs) in
      List.for_all2 ( == ) (List.sort Record.compare_linear rs) by_key
      && List.for_all2
           (fun (d : Diff.t) (r : Record.t) ->
             (d.vsum, d.creator, d.seqno) = Record.linear_key r)
           stamped by_key)

(* A diff request names a seqno range, but the creator serves only the
   diffs of the faulting page inside it.  Node 0 writes page A in its
   intervals 1, 3 and 5 and page B in 2 and 4; node 1 applies interval 1
   and later faults on A, which must bring exactly diffs 3 and 5. *)
let test_diff_req_serves_page_diffs () =
  let c = make_cluster ~nodes:2 ~shared_words:2048 () in
  let page_a = 0 and page_b = 512 in
  let applied_on_refault = ref (-1) and seen = ref (-1) in
  let interval f addr v =
    System.acquire c.sys f ~node:0 ~lock:0;
    write c f ~node:0 addr v;
    System.release c.sys f ~node:0 ~lock:0
  in
  spawn_node c ~node:0 (fun f ->
      interval f page_a 1;
      System.barrier_arrive c.sys f ~node:0 ~id:0;
      System.barrier_arrive c.sys f ~node:0 ~id:0;
      interval f page_b 2;
      interval f page_a 3;
      interval f page_b 4;
      interval f page_a 5;
      System.barrier_arrive c.sys f ~node:0 ~id:0);
  spawn_node c ~node:1 (fun f ->
      System.barrier_arrive c.sys f ~node:1 ~id:0;
      ignore (read c f ~node:1 page_a);
      System.barrier_arrive c.sys f ~node:1 ~id:0;
      System.barrier_arrive c.sys f ~node:1 ~id:0;
      let before = Counters.get c.counters "tmk.diffs_applied" in
      seen := read c f ~node:1 page_a;
      applied_on_refault := Counters.get c.counters "tmk.diffs_applied" - before);
  Engine.run c.eng;
  Alcotest.(check int) "node 0 closed five intervals" 5
    (System.vc c.sys ~node:0).(0);
  Alcotest.(check int) "latest write visible" 5 !seen;
  Alcotest.(check int) "diffs 3 and 5 only" 2 !applied_on_refault;
  System.check_invariants c.sys

(* TreadMarks state per node follows what the node holds, not the width
   of the machine.  256 nodes share 128 pages of 512 words, two writers
   to a page; in each of four rounds every node writes its page, meets
   the others at a barrier, reads its neighbour's page and meets them
   again.  A node ends with a notice pending for nearly every page and
   knows every record, so this measures the cost per notice and per
   known record.  Measured at 4,923 words a node; the budget is 6,000.
   Notices as tuples in lists, one record per page state and a store
   with its own arrays per creator took 12,167. *)
let test_width_budget () =
  let nodes = 256 and pages = 128 and rounds = 4 in
  let page_words = Memory.page_words in
  let c = make_cluster ~nodes ~shared_words:(pages * page_words) () in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        for r = 1 to rounds do
          write c f ~node (((node / 2) * page_words) + (node mod 2)) r;
          System.barrier_arrive c.sys f ~node ~id:0;
          ignore (read c f ~node ((node / 2 + 1) mod pages * page_words));
          System.barrier_arrive c.sys f ~node ~id:0
        done)
  done;
  Engine.run c.eng;
  System.check_invariants c.sys;
  let worst = ref 0 in
  for node = 0 to nodes - 1 do
    worst := max !worst (System.node_words c.sys ~node)
  done;
  Printf.printf "per-node TreadMarks state at 256 nodes: %d words\n" !worst;
  if !worst > 6_000 then
    Alcotest.failf "a node holds %d words of TreadMarks state (want <= 6000)"
      !worst

(* A creator keeps only the diffs some node can still request.  Four
   nodes each write their word of one page under one lock, then all read
   the whole page after a barrier, so every node soon applies every
   interval: each node's log stays under 20 at 100 and at 400 rounds
   (a prune every 16 own intervals leaves the few that some node has
   not applied yet).  With a lifecycle attached a rejoin may roll [applied] back
   and fetch again, so there every diff is kept. *)
let logged_after ?crash ~rounds () =
  let nodes = 4 in
  let c = make_cluster ?crash ~nodes ~shared_words:1024 () in
  for node = 0 to nodes - 1 do
    spawn_node c ~node (fun f ->
        for _ = 1 to rounds do
          System.acquire c.sys f ~node ~lock:0;
          write c f ~node node (read c f ~node node + 1);
          System.release c.sys f ~node ~lock:0;
          System.barrier_arrive c.sys f ~node ~id:0;
          for w = 0 to nodes - 1 do
            ignore (read c f ~node w)
          done
        done)
  done;
  Engine.run c.eng;
  System.check_invariants c.sys;
  Array.init nodes (fun node ->
      Alcotest.(check int) "every round's write arrived" rounds
        (Memory.get_int (System.memory c.sys ~node) node);
      System.logged_diffs c.sys ~node)

let test_diff_log_bounded () =
  List.iter
    (fun rounds ->
      let logged = logged_after ~rounds () in
      Printf.printf "diffs kept after %d rounds: %s\n" rounds
        (String.concat " " (Array.to_list (Array.map string_of_int logged)));
      Array.iteri
        (fun node n ->
          if n > 20 then
            Alcotest.failf "node %d keeps %d diffs after %d rounds (want <= 20)"
              node n rounds)
        logged)
    [ 100; 400 ]

let test_diff_log_kept_under_lifecycle () =
  Alcotest.(check (array int)) "one diff per round" (Array.make 4 100)
    (logged_after ~crash:Lifecycle.none ~rounds:100 ())

(* The record table keeps only what a message can still carry.  Each
   of four nodes runs two processors: processor [p] takes lock [p] every
   round, and every fourth round the node's two processors meet at a
   barrier, the second to arrive calling it for the node.  So a node's
   vector time moves on through one processor while the other's lock
   request still waits on an older one, and that older vector time must
   hold the floor down.  Crash-free, the table holds a few dozen records
   at 100 and at 400 rounds, and every message is as large as when the
   table kept every record (the byte counts were taken before records
   were dropped); under a lifecycle it keeps one per interval. *)
let held_after ?crash ~rounds () =
  let nodes = 4 in
  let c = make_cluster ?crash ~nodes ~shared_words:1024 () in
  let seen = Array.make 2 0 in
  let waiting = Array.make nodes false in
  let gate = Array.init nodes (fun _ -> Waitq.create c.eng) in
  let barrier f ~node =
    if waiting.(node) then begin
      waiting.(node) <- false;
      System.barrier_arrive c.sys f ~node ~id:0;
      ignore (Waitq.wake_all gate.(node) ~at:(Engine.clock f))
    end
    else begin
      waiting.(node) <- true;
      Waitq.wait f gate.(node)
    end
  in
  for node = 0 to nodes - 1 do
    for cpu = 0 to 1 do
      ignore
        (Engine.spawn c.eng ~name:(Printf.sprintf "n%dcpu%d" node cpu) ~at:0
           (fun f ->
             let addr = cpu * 512 in
             for r = 1 to rounds do
               System.acquire c.sys f ~node ~lock:cpu;
               write c f ~node addr (read c f ~node addr + 1);
               System.release c.sys f ~node ~lock:cpu;
               if r mod 4 = 0 then barrier f ~node
             done;
             System.acquire c.sys f ~node ~lock:cpu;
             seen.(cpu) <- max seen.(cpu) (read c f ~node addr);
             System.release c.sys f ~node ~lock:cpu))
    done
  done;
  Engine.run c.eng;
  System.check_invariants c.sys;
  Alcotest.(check (array int)) "every round's increment arrived"
    (Array.make 2 (nodes * rounds)) seen;
  ( System.records_held c.sys,
    Counters.get c.counters "tmk.intervals",
    Counters.get c.counters "net.bytes.consistency" )

let test_records_bounded () =
  List.iter
    (fun (rounds, whole_table_bytes) ->
      let held, intervals, bytes = held_after ~rounds () in
      Printf.printf "records held after %d rounds: %d of %d\n" rounds held
        intervals;
      if held > 64 then
        Alcotest.failf "the table holds %d records after %d rounds (want <= 64)"
          held rounds;
      Alcotest.(check int) "consistency bytes as with the whole table"
        whole_table_bytes bytes)
    [ (100, 129_876); (400, 521_800) ]

let test_records_kept_under_lifecycle () =
  let held, intervals, _ = held_after ~crash:Lifecycle.none ~rounds:100 () in
  Alcotest.(check int) "one record per interval" intervals held

(* A crash re-homes the dead node's 256 locks, but only the one it holds
   state for moves: node 2 takes lock 5 (managed by node 1) before node
   1 dies, so nodes 1 and 2 each hold state for lock 5 alone.  After
   the re-homing node 3 takes lock 5 through its new manager, node 2,
   and sees node 2's write. *)
let test_rehome_moves_held_locks () =
  let nodes = 4 in
  let c = make_cluster ~crash:Lifecycle.none ~nodes ~shared_words:1024 () in
  let lc = Option.get c.lc in
  let after_rehome = ref [||] and seen = ref (-1) in
  spawn_node c ~node:2 (fun f ->
      System.acquire c.sys f ~node:2 ~lock:5;
      write c f ~node:2 0 42;
      System.release c.sys f ~node:2 ~lock:5);
  spawn_node c ~node:3 (fun f ->
      Engine.wait_until f 100_000;
      Lifecycle.crash lc 1 ~at:(Engine.clock f);
      (* Past detection, which re-homes node 1's roles. *)
      Engine.wait_until f 400_000;
      after_rehome :=
        Array.init nodes (fun node -> System.lock_states c.sys ~node);
      System.acquire c.sys f ~node:3 ~lock:5;
      seen := read c f ~node:3 0;
      System.release c.sys f ~node:3 ~lock:5);
  Engine.run c.eng;
  Alcotest.(check int) "node 1's locks re-homed" 256
    (Counters.get c.counters "recovery.rehomes");
  Alcotest.(check (array int)) "lock states after the re-homing"
    [| 0; 1; 1; 0 |] !after_rehome;
  Alcotest.(check int) "node 2's write under lock 5" 42 !seen

let suite =
  [
    Alcotest.test_case "lock-protected counter" `Quick test_lock_counter;
    Alcotest.test_case "barrier propagates writes" `Quick test_barrier_propagation;
    Alcotest.test_case "multiple-writer pages merge" `Quick
      test_multiple_writer_merge;
    Alcotest.test_case "unsynchronized reads stay stale" `Quick
      test_lazy_staleness;
    Alcotest.test_case "eager release propagates" `Quick
      test_eager_release_propagates;
    Alcotest.test_case "on-node token costs no messages" `Quick
      test_token_locality;
    Alcotest.test_case "same-node faults merge" `Quick test_fault_merging;
    Alcotest.test_case "protocol is deterministic" `Quick
      test_protocol_determinism;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xBA55)
      prop_barrier_converges;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xCC65)
      prop_diff_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x0F85)
      prop_vc_join_lub;
    Alcotest.test_case "record store ranges" `Quick test_record_store;
    Alcotest.test_case "applied vectors are per page" `Quick
      test_applied_vectors_per_page;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x5eed14)
      prop_store_matches_model;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x50f7)
      prop_compare_linear_is_linear_key;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xf1007)
      prop_table_keeps_records_above_floor;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x7ac1)
      prop_notices_match_old_representation;
    Alcotest.test_case "diff requests serve only the page's diffs" `Quick
      test_diff_req_serves_page_diffs;
    Alcotest.test_case "per-node state within its width budget" `Quick
      test_width_budget;
    Alcotest.test_case "diff log bounded by what can be requested" `Quick
      test_diff_log_bounded;
    Alcotest.test_case "diff log kept whole under a lifecycle" `Quick
      test_diff_log_kept_under_lifecycle;
    Alcotest.test_case "records held bounded by what can be sent" `Quick
      test_records_bounded;
    Alcotest.test_case "record table kept whole under a lifecycle" `Quick
      test_records_kept_under_lifecycle;
    Alcotest.test_case "re-homing moves only held locks" `Quick
      test_rehome_moves_held_locks;
  ]
