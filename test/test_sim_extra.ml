(* Additional simulation-kernel tests: PRNG properties, clamping and
   ordering edge cases, resource accounting. *)

module Engine = Shm_sim.Engine
module Mailbox = Shm_sim.Mailbox
module Resource = Shm_sim.Resource
module Prng = Shm_sim.Prng

let test_prng_determinism () =
  let draw seed = List.init 20 (fun _ -> Prng.int (Prng.create ~seed) 1000) in
  Alcotest.(check bool) "same seed, same stream" true (draw 5 = draw 5);
  Alcotest.(check bool) "different seeds differ" true (draw 5 <> draw 6)

let prop_prng_int_bounds =
  QCheck.Test.make ~count:200 ~name:"prng int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_float_bounds =
  QCheck.Test.make ~count:200 ~name:"prng float stays in bounds"
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let v = Prng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:100 ~name:"shuffle permutes"
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Prng.shuffle (Prng.create ~seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_prng_split_independent () =
  let rng = Prng.create ~seed:1 in
  let a = Prng.split rng in
  let b = Prng.split rng in
  let da = List.init 10 (fun _ -> Prng.int a 1_000_000) in
  let db = List.init 10 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (da <> db)

let test_gaussian_moments () =
  let rng = Prng.create ~seed:3 in
  let n = 5000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.gaussian rng in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f ~ 0, var %.3f ~ 1" mean var)
    true
    (abs_float mean < 0.05 && abs_float (var -. 1.0) < 0.1)

let test_schedule_past_clamps () =
  let eng = Engine.create () in
  let fired_at = ref (-1) in
  ignore
    (Engine.spawn eng ~name:"starter" ~at:100 (fun _ ->
         (* Scheduling in the past fires "now", never back in time. *)
         Engine.schedule eng ~at:10 (fun () -> fired_at := Engine.now eng)));
  Engine.run eng;
  Alcotest.(check int) "clamped to now" 100 !fired_at

let test_set_clock_monotone () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng ~name:"f" ~at:50 (fun f ->
         Engine.set_clock f 10;
         Alcotest.(check int) "never moves backward" 50 (Engine.clock f);
         Engine.set_clock f 99;
         Alcotest.(check int) "moves forward" 99 (Engine.clock f)));
  Engine.run eng

let test_resource_reserve_ordering () =
  let r = Resource.create () in
  let f1 = Resource.reserve r ~ready:0 ~cycles:10 in
  let f2 = Resource.reserve r ~ready:0 ~cycles:10 in
  let f3 = Resource.reserve r ~ready:100 ~cycles:5 in
  Alcotest.(check (list int)) "serialized then idle gap" [ 10; 20; 105 ]
    [ f1; f2; f3 ];
  Alcotest.(check int) "busy total" 25 (Resource.busy_cycles r)

let test_mailbox_poll () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Mailbox.post mb ~at:5 "x";
  ignore
    (Engine.spawn eng ~name:"poller" ~at:0 (fun f ->
         Alcotest.(check bool) "nothing yet" true (Mailbox.poll f mb = None);
         Engine.wait_until f 10;
         Alcotest.(check (option string)) "delivered" (Some "x")
           (Mailbox.poll f mb)));
  Engine.run eng

let test_resume_not_suspended () =
  let eng = Engine.create () in
  let f = Engine.spawn eng ~name:"f" ~at:0 (fun f -> Engine.advance f 1) in
  Engine.run eng;
  Alcotest.check_raises "resume of running fiber rejected"
    (Invalid_argument "Engine.resume: fiber f not suspended") (fun () ->
      Engine.resume eng f ~at:0)

let test_live_fiber_accounting () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng ~name:"a" ~at:0 (fun _ -> ()));
  ignore (Engine.spawn eng ~daemon:true ~name:"d" ~at:0 (fun f -> Engine.suspend f));
  Alcotest.(check int) "daemon not counted" 1 (Engine.live_fibers eng);
  Engine.run eng;
  Alcotest.(check int) "all done" 0 (Engine.live_fibers eng)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xB87C)
      prop_prng_int_bounds;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x2D60)
      prop_prng_float_bounds;
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0x2353)
      prop_shuffle_is_permutation;
    Alcotest.test_case "prng split independence" `Quick
      test_prng_split_independent;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "past schedules clamp to now" `Quick
      test_schedule_past_clamps;
    Alcotest.test_case "set_clock is monotone" `Quick test_set_clock_monotone;
    Alcotest.test_case "resource reserve ordering" `Quick
      test_resource_reserve_ordering;
    Alcotest.test_case "mailbox poll" `Quick test_mailbox_poll;
    Alcotest.test_case "resume rejects non-suspended" `Quick
      test_resume_not_suspended;
    Alcotest.test_case "live fiber accounting" `Quick
      test_live_fiber_accounting;
  ]
