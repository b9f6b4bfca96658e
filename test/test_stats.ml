(* Tests for counters, table rendering and the latency histogram. *)

module Counters = Shm_stats.Counters
module Table = Shm_stats.Table
module Hist = Shm_stats.Hist

let test_counters_basic () =
  let c = Counters.create () in
  Counters.incr c "a";
  Counters.add c "a" 4;
  Counters.add c "b" 10;
  Alcotest.(check int) "a" 5 (Counters.get c "a");
  Alcotest.(check int) "b" 10 (Counters.get c "b");
  Alcotest.(check int) "missing is zero" 0 (Counters.get c "zzz")

let test_counters_merge_reset () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add a "x" 1;
  Counters.add b "x" 2;
  Counters.add b "y" 3;
  Counters.merge ~into:a b;
  Alcotest.(check (list (pair string int)))
    "merged sorted"
    [ ("x", 3); ("y", 3) ]
    (Counters.to_list a);
  Counters.reset a;
  Alcotest.(check int) "reset" 0 (Counters.get a "x")

(* Bumping a key is [add] on its name: any interleaving of key bumps and
   string-API updates on the same names, including keys made before or
   after their counter exists and keys never bumped, leaves the same
   counter list as the string API alone. *)
let prop_keys_match_names =
  let names = [| "a"; "b"; "c"; "d" |] in
  let op =
    QCheck.(
      triple (int_bound 2) (int_bound (Array.length names - 1)) (int_bound 50))
  in
  QCheck.Test.make ~count:300 ~name:"counter keys bump like add"
    QCheck.(pair (small_list (int_bound (Array.length names - 1)))
              (small_list op))
    (fun (early, ops) ->
      let by_keys = Counters.create () and by_names = Counters.create () in
      let keys = Array.make (Array.length names) None in
      let key_of i =
        match keys.(i) with
        | Some k -> k
        | None ->
            let k = Counters.key by_keys names.(i) in
            keys.(i) <- Some k;
            k
      in
      List.iter (fun i -> ignore (key_of i)) early;
      List.iter
        (fun (kind, i, n) ->
          let name = names.(i) in
          (match kind with
          | 0 -> Counters.bump (key_of i) n
          | 1 -> Counters.add by_keys name n
          | _ -> Counters.incr by_keys name);
          if kind = 2 then Counters.incr by_names name
          else Counters.add by_names name n)
        ops;
      Counters.to_list by_keys = Counters.to_list by_names)

let test_key_never_bumped () =
  let c = Counters.create () in
  Counters.add c "x" 2;
  let before = Counters.to_list c in
  let k = Counters.key c "never" in
  Alcotest.(check bool) "absent" false (Counters.mem c "never");
  Alcotest.(check (list (pair string int))) "list unchanged" before
    (Counters.to_list c);
  Counters.bump k 0;
  Alcotest.(check bool) "a zero bump creates it, as add does" true
    (Counters.mem c "never")

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 1 = "T");
  let index_of needle =
    let n = String.length needle and len = String.length s in
    let rec go i =
      if i + n > len then -1
      else if String.sub s i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "row order preserved" true
    (let a = index_of "alpha" and b = index_of "22" in
     a >= 0 && b >= 0 && a < b)

let test_table_arity () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "only-one" ])

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "digits" "3.1416" (Table.cell_f ~digits:4 3.14159);
  Alcotest.(check string) "int" "42" (Table.cell_i 42);
  Alcotest.(check string) "speedup" "7.40" (Table.cell_speedup 7.4)

(* ------------------------------------------------------------------ *)
(* Latency histogram (DESIGN.md §14)                                   *)

(* Small values are exact: every bucket below [2 * subbuckets] holds a
   single value, so percentiles there are not approximations. *)
let test_hist_small_exact () =
  let h = Hist.create () in
  for v = 0 to (2 * Hist.subbuckets) - 1 do
    Hist.record h v;
    Alcotest.(check (pair int int))
      (Printf.sprintf "bounds of %d" v)
      (v, v)
      (Hist.bounds (Hist.bucket_of v))
  done;
  Alcotest.(check int) "p50 exact" 15 (Hist.percentile h 50.0);
  Alcotest.(check int) "p100 exact" 31 (Hist.percentile h 100.0)

(* Above the exact range, [bucket_of] must land every value inside its
   bucket's [lo, hi] and consecutive buckets must tile the axis. *)
let test_hist_bucket_boundaries () =
  List.iter
    (fun v ->
      let lo, hi = Hist.bounds (Hist.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "%d in [%d, %d]" v lo hi)
        true
        (lo <= v && v <= hi))
    [ 32; 33; 63; 64; 100; 1_000; 65_535; 65_536; 1_000_000; max_int / 2 ];
  for i = 0 to 500 do
    let _, hi = Hist.bounds i in
    let lo', _ = Hist.bounds (i + 1) in
    Alcotest.(check int) (Printf.sprintf "bucket %d tiles" i) (hi + 1) lo'
  done

(* The relative error bound: with 16 sub-buckets per octave, a reported
   percentile is within 6.25% of the true value. *)
let test_hist_error_bound () =
  let h = Hist.create () in
  List.iter (fun v -> Hist.record h v) [ 1_000; 10_000; 100_000 ];
  List.iteri
    (fun i v ->
      let p = float_of_int (i + 1) /. 3.0 *. 100.0 in
      let got = Hist.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "P%.0f ~ %d (got %d)" p v got)
        true
        (float_of_int (abs (got - v)) <= 0.0625 *. float_of_int v))
    [ 1_000; 10_000; 100_000 ];
  (* The top percentile is clamped to the exact recorded maximum. *)
  Alcotest.(check int) "p100 is the exact max" 100_000
    (Hist.percentile h 100.0)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  List.iter
    (fun v ->
      Hist.record all v;
      Hist.record (if v mod 2 = 0 then a else b) v)
    [ 3; 17; 400; 9_000; 123_456; 7; 88 ];
  Hist.merge ~into:a b;
  Alcotest.(check bool) "merge = record-all" true (Hist.equal a all);
  Alcotest.(check int) "count" 7 (Hist.count a);
  Alcotest.(check int) "max" 123_456 (Hist.max_value a);
  Alcotest.(check int) "min" 3 (Hist.min_value a)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"hist: percentiles are monotone in p"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (int_bound 2_000_000))
              (pair (int_bound 999) (int_bound 999)))
    (fun (vs, (pa, pb)) ->
      let h = Hist.create () in
      List.iter (Hist.record h) vs;
      let pa = 0.1 +. (float_of_int pa /. 10.0)
      and pb = 0.1 +. (float_of_int pb /. 10.0) in
      let lo = min pa pb and hi = max pa pb in
      Hist.percentile h lo <= Hist.percentile h hi)

let prop_hist_merge_assoc =
  QCheck.Test.make ~count:100 ~name:"hist: merge is associative"
    QCheck.(triple (small_list (int_bound 1_000_000))
              (small_list (int_bound 1_000_000))
              (small_list (int_bound 1_000_000)))
    (fun (xs, ys, zs) ->
      let mk vs =
        let h = Hist.create () in
        List.iter (Hist.record h) vs;
        h
      in
      (* (x <- y) <- z  vs  x <- (y <- z) *)
      let left = mk xs in
      Hist.merge ~into:left (mk ys);
      Hist.merge ~into:left (mk zs);
      let yz = mk ys in
      Hist.merge ~into:yz (mk zs);
      let right = mk xs in
      Hist.merge ~into:right yz;
      Hist.equal left right)

(* The recorder must be allocation-free on the hot path: recording into
   an existing histogram does zero minor-heap allocation, so it can sit
   inside the per-request loop of a simulated server without perturbing
   GC behaviour. *)
let test_hist_zero_alloc () =
  let h = Hist.create () in
  Hist.record h 1;
  let before = Gc.minor_words () in
  for v = 0 to 9_999 do
    Hist.record h (v * 37)
  done;
  let allocated = Gc.minor_words () -. before in
  (* Allow a tiny constant slack for the measurement itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "10k records allocated %.0f words" allocated)
    true (allocated < 256.0)

let suite =
  [
    Alcotest.test_case "counters add/get" `Quick test_counters_basic;
    Alcotest.test_case "counters merge/reset" `Quick test_counters_merge_reset;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x5eed)
      prop_keys_match_names;
    Alcotest.test_case "a key never bumped leaves no counter" `Quick
      test_key_never_bumped;
    Alcotest.test_case "table renders rows in order" `Quick test_table_render;
    Alcotest.test_case "table rejects wrong arity" `Quick test_table_arity;
    Alcotest.test_case "cell formatting" `Quick test_cells;
    Alcotest.test_case "hist: small values exact" `Quick test_hist_small_exact;
    Alcotest.test_case "hist: bucket boundaries tile" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "hist: bounded relative error" `Quick
      test_hist_error_bound;
    Alcotest.test_case "hist: merge equals record-all" `Quick test_hist_merge;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x64B8)
      prop_hist_percentile_monotone;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x8F3F)
      prop_hist_merge_assoc;
    Alcotest.test_case "hist: recording is allocation-free" `Quick
      test_hist_zero_alloc;
  ]
