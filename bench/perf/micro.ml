(* Layer micro-kernels, timed with Bechamel (OLS over the monotonic
   clock, as in bench/main.ml).  Each staged call performs [ops]
   operations of its layer; the reported figure is host time per
   operation.  A kernel that has to build an engine, a system or a
   platform around its operations also has a baseline: the same build
   and scaffolding without the operations, whose time is subtracted. *)

module Engine = Shm_sim.Engine
module Pqueue = Shm_sim.Pqueue
module Counters = Shm_stats.Counters
module Hist = Shm_stats.Hist
module Fabric = Shm_net.Fabric
module Reliable = Shm_net.Reliable
module Msg = Shm_net.Msg
module Overhead = Shm_net.Overhead
module Memory = Shm_memsys.Memory
module Cache = Shm_memsys.Cache
module Diff = Shm_tmk.Diff
module Vc = Shm_tmk.Vc
module Config = Shm_tmk.Config
module System = Shm_tmk.System
module Parmacs = Shm_parmacs.Parmacs
module Machines = Shm_platform.Machines
module Report = Shm_platform.Report

type kernel = {
  name : string;  (** metric name; [_ns] or [_us] sets the reported unit *)
  ops : float;  (** layer operations per staged call *)
  fn : unit -> unit;
  base : (unit -> unit) option;  (** [fn] without its [ops] operations *)
}

let kernel ?base name ops fn = { name; ops; fn; base }

let pqueue_push_pop () =
  let q = Pqueue.create ~dummy:() in
  let t = ref 0 in
  kernel "sim.pqueue.push_pop_ns" 1.0 (fun () ->
      incr t;
      Pqueue.push q ~time:!t ();
      ignore (Pqueue.pop q))

(* Two fibers that each re-enter the event queue [k] times: every [sync]
   is one suspend/resume through the scheduler. *)
let fiber_switch () =
  let k = 500 in
  let scenario k () =
    let eng = Engine.create () in
    for _ = 1 to 2 do
      ignore
        (Engine.spawn eng ~name:"f" ~at:0 (fun f ->
             for _ = 1 to k do
               Engine.advance f 1;
               Engine.sync f
             done))
    done;
    Engine.run eng
  in
  kernel ~base:(scenario 0) "sim.fiber.switch_ns" (float_of_int (2 * k)) (scenario k)

let atm_sim = Fabric.atm_sim ~overhead:Overhead.treadmarks_user

(* [k] messages from node 0 to node 1 on the Section-3 ATM fabric. *)
let fabric_send_recv () =
  let k = 200 in
  let scenario k () =
    let eng = Engine.create () in
    let fab = Fabric.create eng (Counters.create ()) atm_sim ~nodes:2 in
    ignore
      (Engine.spawn eng ~name:"rx" ~at:0 (fun f ->
           for _ = 1 to k do
             ignore (Fabric.recv fab f ~node:1)
           done));
    ignore
      (Engine.spawn eng ~name:"tx" ~at:0 (fun f ->
           for i = 1 to k do
             Fabric.send fab f ~src:0 ~dst:1 ~class_:Msg.Sync ~size:(Msg.sizes ()) i
           done));
    Engine.run eng
  in
  kernel ~base:(scenario 0) "net.fabric.send_recv_ns" (float_of_int k) (scenario k)

(* A blackout window no clock ever reaches: the fault policy is active, so
   the reliable layer arms sequencing, acks and retransmit timers, yet no
   packet is lost. *)
let armed_no_loss =
  {
    Fabric.no_faults with
    blackouts = [ { Fabric.bo_src = None; bo_dst = None; bo_from = max_int - 1; bo_until = max_int } ];
  }

let reliable_rtt () =
  let k = 100 in
  let scenario k () =
    let eng = Engine.create () in
    let counters = Counters.create () in
    let fab = Fabric.create eng counters { atm_sim with faults = armed_no_loss } ~nodes:2 in
    let rel = Reliable.create eng counters fab in
    assert (Reliable.armed rel);
    Reliable.start rel;
    ignore
      (Engine.spawn eng ~daemon:true ~name:"echo" ~at:0 (fun f ->
           while true do
             let env = Reliable.recv rel f ~node:1 in
             Reliable.send rel f ~src:1 ~dst:0 ~class_:Msg.Sync ~size:(Msg.sizes ()) env.Msg.body
           done));
    ignore
      (Engine.spawn eng ~name:"client" ~at:0 (fun f ->
           for i = 1 to k do
             Reliable.send rel f ~src:0 ~dst:1 ~class_:Msg.Sync ~size:(Msg.sizes ()) i;
             ignore (Reliable.recv rel f ~node:0)
           done));
    Engine.run eng
  in
  kernel ~base:(scenario 0) "net.reliable.rtt_ns" (float_of_int k) (scenario k)

let hist_record () =
  let h = Hist.create () in
  let x = ref 1 in
  kernel "stats.hist.record_ns" 1.0 (fun () ->
      x := ((!x * 1103515245) + 12345) land 0xFFFFF;
      Hist.record h !x)

let diff_make_apply () =
  let words = 512 in
  let mem = Memory.create ~words and twin = Memory.create ~words in
  for i = 0 to words - 1 do
    Memory.set_int twin i i
  done;
  Memory.copy_all ~src:twin ~dst:mem;
  for i = 0 to 63 do
    Memory.set_int mem (i * 8) (i + 10_000)
  done;
  kernel "tmk.diff.make_apply_ns" 1.0 (fun () ->
      let d = Diff.make ~page:0 ~twin ~current:mem ~base:0 ~words in
      Diff.apply d mem ~base:0)

let vc_join () =
  let a = Array.init 64 (fun i -> i) and b = Array.init 64 (fun i -> 64 - i) in
  kernel "tmk.vc.join64_ns" 1.0 (fun () -> ignore (Vc.join a b))

(* [rounds] barrier episodes of an [nodes]-node TreadMarks system. *)
let tmk_barrier nodes =
  let rounds = 64 in
  let scenario rounds () =
    let eng = Engine.create () in
    let counters = Counters.create () in
    let fabric = Fabric.create eng counters atm_sim ~nodes in
    let memories = Array.init nodes (fun _ -> Memory.create ~words:512) in
    let cfg = Config.default ~n_nodes:nodes ~shared_words:512 in
    let sys = System.create eng counters fabric cfg ~memories in
    System.start sys;
    for node = 0 to nodes - 1 do
      ignore
        (Engine.spawn eng ~name:(string_of_int node) ~at:0 (fun f ->
             for _ = 1 to rounds do
               System.barrier_arrive sys f ~node ~id:0
             done))
    done;
    Engine.run eng
  in
  kernel ~base:(scenario 0)
    (Printf.sprintf "tmk.barrier%d_us" nodes)
    (float_of_int rounds) (scenario rounds)

let app ~name ~work : Parmacs.app =
  { Parmacs.name; shared_words = 1024; eager_lock_hints = []; init = ignore; work;
    checksum_addr = 1023; stats = Parmacs.no_stats }

(* Two processors take turns writing one word and reading it back across a
   barrier: every round is a write fault (twin) on one node and a read
   fault (diff fetch) on the other.  The baseline runs the same platform
   and barriers without touching the word, so the figure is the faults'
   own cost. *)
let page_fault () =
  let rounds = 200 in
  let ping_pong ~touch =
    app ~name:"ping-pong" ~work:(fun ctx ->
        for r = 1 to rounds do
          if touch && ctx.Parmacs.id = r land 1 then Parmacs.write_i ctx 0 r;
          ctx.barrier 0;
          if touch && ctx.id <> r land 1 && Parmacs.read_i ctx 0 <> r then
            failwith "ping-pong: stale read";
          ctx.barrier 0
        done)
  in
  let run ~touch () = (Machines.get "treadmarks").run (ping_pong ~touch) ~nprocs:2 in
  let faults ~touch = Report.get (run ~touch ()) "tmk.faults" in
  kernel ~base:(fun () -> ignore (run ~touch:false ()))
    "tmk.page_fault_us"
    (float_of_int (faults ~touch:true - faults ~touch:false))
    (fun () -> ignore (run ~touch:true ()))

(* One processor re-reading a resident page: every access takes the
   software-TLB fast path.  The baseline builds and runs the same
   platform with no reads. *)
let tlb_hit () =
  let n = 100_000 in
  let reader n =
    app ~name:"resident-read" ~work:(fun ctx ->
        for k = 1 to n do
          ctx.Parmacs.readf (k land 511)
        done)
  in
  let scenario n () = ignore ((Machines.get "as").run (reader n) ~nprocs:1) in
  kernel ~base:(scenario 0) "parmacs.tlb_hit_ns" (float_of_int n) (scenario n)

let cache_probe () =
  let c = Cache.create ~size_words:8192 ~block_words:4 in
  for i = 0 to 2047 do
    ignore (Cache.insert c (i * 4) Cache.Shared)
  done;
  let i = ref 0 in
  kernel "memsys.cache.probe_ns" 1.0 (fun () ->
      i := (!i + 37) land 8191;
      ignore (Cache.probe c !i))

let kernels () =
  [
    pqueue_push_pop (); fiber_switch (); fabric_send_recv (); diff_make_apply ();
    vc_join (); tmk_barrier 8; tmk_barrier 64; reliable_rtt (); hist_record ();
    page_fault (); cache_probe (); tlb_hit ();
  ]

(* [(metric, value)] per kernel, in the unit its name ends with. *)
let run ~quota =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let ns_per_call name fn =
    let test = Test.make ~name (Staged.stage fn) in
    let results = Analyze.all ols clock (Benchmark.all cfg [ clock ] test) in
    Hashtbl.fold
      (fun _ r acc -> match Analyze.OLS.estimates r with Some [ est ] -> est | _ -> acc)
      results nan
  in
  List.map
    (fun k ->
      let base = match k.base with Some b -> ns_per_call (k.name ^ ".base") b | None -> 0.0 in
      let per_op = (ns_per_call k.name k.fn -. base) /. k.ops in
      (k.name, if String.ends_with ~suffix:"_us" k.name then per_op /. 1e3 else per_op))
    (kernels ())
