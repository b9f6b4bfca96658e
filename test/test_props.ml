(* Property tests over the pure cores: diffs, vector clocks, the event
   queue, message sizing, and application building blocks. *)

module Pqueue = Shm_sim.Pqueue
module Prng = Shm_sim.Prng
module Memory = Shm_memsys.Memory
module Msg = Shm_net.Msg
module Vc = Shm_tmk.Vc
module Diff = Shm_tmk.Diff
module Layout = Shm_apps.Layout
module Water = Shm_apps.Water
module Sor = Shm_apps.Sor
module Tsp = Shm_apps.Tsp
module Ilink = Shm_apps.Ilink

let vc5 = QCheck.(array_of_size (QCheck.Gen.return 5) small_nat)

let prop_vc_partial_order =
  QCheck.Test.make ~count:200 ~name:"vc dominance is a partial order"
    QCheck.(triple vc5 vc5 vc5)
    (fun (a, b, c) ->
      Vc.dominates a a
      && ((not (Vc.dominates a b && Vc.dominates b a)) || a = b)
      && ((not (Vc.dominates a b && Vc.dominates b c)) || Vc.dominates a c))

let prop_vc_join_laws =
  QCheck.Test.make ~count:200 ~name:"vc join: idempotent, commutative, assoc"
    QCheck.(triple vc5 vc5 vc5)
    (fun (a, b, c) ->
      Vc.join a a = a
      && Vc.join a b = Vc.join b a
      && Vc.join (Vc.join a b) c = Vc.join a (Vc.join b c))

let prop_vc_sum_strictly_monotone =
  QCheck.Test.make ~count:200 ~name:"vc sum strictly monotone on dominance"
    QCheck.(pair vc5 vc5)
    (fun (a, b) ->
      (not (Vc.dominates a b && a <> b)) || Vc.sum a > Vc.sum b)

let mem_of_array a =
  let m = Memory.create ~words:(Array.length a) in
  Array.iteri (fun i v -> Memory.set_int m i v) a;
  m

let small_page = QCheck.(array_of_size (QCheck.Gen.return 64) (int_bound 8))

let prop_diff_identical_is_empty =
  QCheck.Test.make ~count:100 ~name:"diff of identical page is empty"
    small_page
    (fun a ->
      let twin = mem_of_array a in
      let mem = mem_of_array a in
      Diff.is_empty (Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words:64))

let prop_diff_apply_idempotent =
  QCheck.Test.make ~count:100 ~name:"diff application is idempotent"
    QCheck.(pair small_page small_page)
    (fun (before, after) ->
      let twin = mem_of_array before in
      let mem = mem_of_array after in
      let d = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words:64 in
      let m1 = mem_of_array before in
      Diff.apply d m1 ~base:0;
      let once = Array.init 64 (Memory.get_int m1) in
      Diff.apply d m1 ~base:0;
      let twice = Array.init 64 (Memory.get_int m1) in
      once = twice)

let prop_diff_twin_apply_matches =
  QCheck.Test.make ~count:100 ~name:"apply_to_twin matches apply"
    QCheck.(pair small_page small_page)
    (fun (before, after) ->
      let twin = mem_of_array before in
      let mem = mem_of_array after in
      let d = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words:64 in
      let tw = mem_of_array before in
      Diff.apply_to_twin d tw;
      let m = mem_of_array before in
      Diff.apply d m ~base:0;
      Memory.equal_range tw m ~pos:0 ~len:64)

let prop_diff_words_bound =
  QCheck.Test.make ~count:100 ~name:"diff carries at most the changed words"
    QCheck.(pair small_page small_page)
    (fun (before, after) ->
      let changed = ref 0 in
      Array.iteri (fun i v -> if v <> after.(i) then incr changed) before;
      let twin = mem_of_array before in
      let mem = mem_of_array after in
      let d = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words:64 in
      Diff.words d = !changed && Diff.bytes d >= 16)

(* Words whose bit patterns a float round trip could disturb: a
   signalling NaN (which an arithmetic move would quiet), a quiet NaN
   with payload, a negative NaN, negative zero, and two integers whose
   top bits are set. *)
let tricky_words =
  [
    0x7FF0000000000001L;
    0x7FF8000000000001L;
    0xFFF0000000000001L;
    0x8000000000000000L;
    Int64.min_int;
    -1L;
  ]

let same_bits m pos w = Int64.equal (Memory.get m pos) w

(* Diff runs carry words as unboxed doubles; every bit must survive
   [make], [apply] and [apply_to_twin], in runs and as lone words. *)
let test_diff_bit_exact () =
  let words = 64 in
  let twin = Memory.create ~words in
  let current = Memory.create ~words in
  (* One contiguous run at 3.., then each word alone at 20, 22, ... *)
  List.iteri
    (fun k w ->
      Memory.set current (3 + k) w;
      Memory.set current (20 + (2 * k)) w)
    tricky_words;
  let d = Diff.make ~page:0 ~twin ~current ~base:0 ~words in
  Alcotest.(check int) "diff words" (2 * List.length tricky_words)
    (Diff.words d);
  let applied = Memory.create ~words in
  Diff.apply d applied ~base:0;
  let twinned = Memory.create ~words in
  Diff.apply_to_twin d twinned;
  List.iteri
    (fun k w ->
      List.iter
        (fun (what, m) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s keeps %Lx" what w)
            true
            (same_bits m (3 + k) w && same_bits m (20 + (2 * k)) w))
        [ ("apply", applied); ("apply_to_twin", twinned) ])
    tricky_words;
  Alcotest.(check bool) "apply reproduces the page" true
    (Memory.equal_range applied current ~pos:0 ~len:words)

let prop_pqueue_sorts =
  QCheck.Test.make ~count:100 ~name:"pqueue pops a sorted sequence"
    QCheck.(small_list small_nat)
    (fun times ->
      let q = Pqueue.create ~dummy:0 in
      List.iter (fun time -> Pqueue.push q ~time time) times;
      let out = ref [] in
      while not (Pqueue.is_empty q) do
        out := fst (Pqueue.pop q) :: !out
      done;
      List.rev !out = List.sort compare times)

(* Observational equivalence of the timing wheel against a naive stable
   reference queue.  Generated scripts interleave pushes and pops; push
   times mix same-tick ties (FIFO order must hold), small steps that stay
   in wheel level 0, strides that land in levels 1-2, and far-future
   outliers that take the heap tier.  Because pops advance the wheel's
   internal horizon, later small pushes also exercise the past-time heap
   path.  Pop results, peeked minima and lengths must match the reference
   at every step. *)
let prop_pqueue_wheel_matches_reference =
  let time_gen =
    QCheck.Gen.(
      frequency
        [
          (4, int_bound 300);
          (3, int_bound 0x20000);
          (2, int_bound 0x2000000);
          (1, int_bound 0x20000000);
        ])
  in
  let arb_ops =
    QCheck.make
      ~print:(fun ops ->
        String.concat "; "
          (List.map
             (function
               | true, t -> "push " ^ string_of_int t
               | false, _ -> "pop")
             ops))
      QCheck.Gen.(list_size (int_bound 400) (pair bool time_gen))
  in
  QCheck.Test.make ~count:200
    ~name:"timing wheel matches stable reference queue (FIFO ties)" arb_ops
    (fun ops ->
      let q = Pqueue.create ~dummy:(-1) in
      (* Reference: (time, seq) pairs; min is lexicographic (time, seq),
         which is exactly FIFO order among equal times. *)
      let reference = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, t) ->
          (if is_push then begin
             Pqueue.push q ~time:t !seq;
             reference := (t, !seq) :: !reference;
             incr seq
           end
           else
             let best =
               List.fold_left
                 (fun best (t, s) ->
                   match best with
                   | Some (bt, bs) when bt < t || (bt = t && bs < s) -> best
                   | _ -> Some (t, s))
                 None !reference
             in
             match best with
             | None -> if not (Pqueue.is_empty q) then ok := false
             | Some (bt, bs) ->
                 let time, v = Pqueue.pop q in
                 if time <> bt || v <> bs then ok := false;
                 reference := List.filter (fun (_, s) -> s <> bs) !reference);
          let rmin =
            List.fold_left (fun acc (t, _) -> min acc t) max_int !reference
          in
          if Pqueue.min_time_exn q <> rmin then ok := false;
          if Pqueue.length q <> List.length !reference then ok := false)
        ops;
      !ok)

module Keys = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* The queue as the engine drives it: no push falls below the last pop,
   pushes come in equal-time bursts and reach up to four 2^24 blocks
   ahead, and the queue fills to 2,000 live entries and drains to 500 in
   turn.  In the first block the wheel and the heap tier each hold
   hundreds; once heap pops carry the clock past the wheel's window,
   everything goes to the heap, as in a long engine run, and the clock
   crosses at least three blocks.  Pops, peeked minima and lengths must
   match the stable reference at every step.  Each case drives its own
   PRNG from the generated seed. *)
let prop_pqueue_engine_shaped =
  QCheck.Test.make ~count:12 ~name:"timing wheel under an engine-shaped load"
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let q = Pqueue.create ~dummy:(-1) in
      let reference = ref Keys.empty and live = ref 0 in
      let seq = ref 0 and now = ref 0 and ok = ref true and filling = ref true in
      let ahead () =
        match Random.State.int rs 10 with
        | 0 | 1 | 2 -> Random.State.int rs 0x100
        | 3 | 4 -> Random.State.int rs 0x10000
        | 5 | 6 -> Random.State.int rs 0x1000000
        | _ -> Random.State.int rs 0x4000000
      in
      for _ = 1 to 12_000 do
        if !live >= 2_000 then filling := false
        else if !live <= 500 then filling := true;
        if !live = 0 || !filling = (Random.State.int rs 4 > 0) then begin
          let time = !now + ahead () in
          let burst =
            if Random.State.int rs 4 = 0 then 2 + Random.State.int rs 8 else 1
          in
          for _ = 1 to burst do
            Pqueue.push q ~time !seq;
            reference := Keys.add (time, !seq) !reference;
            incr seq;
            incr live
          done
        end
        else begin
          let ((bt, bs) as best) = Keys.min_elt !reference in
          let time, v = Pqueue.pop q in
          if time <> bt || v <> bs then ok := false;
          reference := Keys.remove best !reference;
          decr live;
          now := time
        end;
        let rmin =
          match Keys.min_elt_opt !reference with Some (t, _) -> t | None -> max_int
        in
        if Pqueue.min_time_exn q <> rmin || Pqueue.length q <> !live then
          ok := false
      done;
      !ok && !now lsr 24 >= 3)

let prop_msg_total =
  QCheck.Test.make ~count:100 ~name:"message size totals add up"
    QCheck.(pair small_nat small_nat)
    (fun (c, p) ->
      let s = Msg.sizes ~consistency:c ~payload:p () in
      Msg.total_bytes s = Msg.default_header_bytes + c + p)

let prop_layout_aligned =
  QCheck.Test.make ~count:100 ~name:"aligned allocations are aligned"
    QCheck.(small_list (pair (int_range 1 100) bool))
    (fun allocs ->
      let l = Layout.create () in
      List.for_all
        (fun (words, aligned) ->
          if aligned then Layout.alloc_aligned l words ~align:512 mod 512 = 0
          else Layout.alloc l words >= 0)
        allocs)

let prop_tsp_distances_symmetric =
  QCheck.Test.make ~count:30 ~name:"tsp instances are symmetric and positive"
    QCheck.(int_range 1 200)
    (fun seed ->
      let p = { (Tsp.params_n 8) with Tsp.seed } in
      (* Probe via the public app: the init writes the matrix. *)
      let app = Tsp.make p in
      let mem = Memory.create ~words:app.Shm_parmacs.Parmacs.shared_words in
      app.Shm_parmacs.Parmacs.init mem;
      let ok = ref true in
      for i = 0 to 7 do
        for j = 0 to 7 do
          let d = Memory.get_int mem ((i * 8) + j) in
          if i <> j && d <= 0 then ok := false;
          if d <> Memory.get_int mem ((j * 8) + i) then ok := false
        done
      done;
      !ok)

let test_water_pair_cost_is_positive () =
  let p = Water.default_params Water.Batched in
  Alcotest.(check bool) "pair cost sane" true (p.Water.pair_cycles > 0)

let prop_ilink_costs_positive =
  QCheck.Test.make ~count:30 ~name:"ilink family costs are positive"
    QCheck.(int_range 1 100)
    (fun seed ->
      let p = { (Ilink.default_params Ilink.Bad) with Ilink.seed } in
      Array.for_all (fun c -> c > 0) (Ilink.family_costs p))

let prop_sor_stays_bounded =
  QCheck.Test.make ~count:10 ~name:"sor stays within boundary values"
    QCheck.(int_range 1 8)
    (fun iters ->
      let p = { Sor.default_params with rows = 16; cols = 16; iters } in
      let app = Sor.make p in
      let mem = Shm_parmacs.Parmacs.run_sequential app in
      (* Every interior point lies in [0, 1]: convex combinations of a hot
         boundary (1.0) and a cold interior (0.0). *)
      let ok = ref true in
      for i = 1 to 16 do
        for j = 1 to 14 do
          let v = Memory.get_float mem ((i * 16) + j) in
          if v < -1e-12 || v > 1.0 +. 1e-12 then ok := false
        done
      done;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xB2CF)
      prop_vc_partial_order;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xD713)
      prop_vc_join_laws;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x2453)
      prop_vc_sum_strictly_monotone;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x0490)
      prop_diff_identical_is_empty;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x8853)
      prop_diff_apply_idempotent;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xE357)
      prop_diff_twin_apply_matches;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xF551)
      prop_diff_words_bound;
    Alcotest.test_case "diffs carry words bit-exactly" `Quick
      test_diff_bit_exact;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xE3AF)
      prop_pqueue_sorts;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x31A0)
      prop_pqueue_wheel_matches_reference;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x6E51)
      prop_pqueue_engine_shaped;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x5188)
      prop_msg_total;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x10AB)
      prop_layout_aligned;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x40CF)
      prop_tsp_distances_symmetric;
    Alcotest.test_case "water pair cost" `Quick test_water_pair_cost_is_positive;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xEBB1)
      prop_ilink_costs_positive;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xF699)
      prop_sor_stays_bounded;
  ]
