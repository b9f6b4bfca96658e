(* Range-access equivalence: a range op is the per-word loop over the
   context's scalar accessors, so on every backend it must run exactly
   as the app's own word-by-word loop — same checksum, same simulated
   cycles, same protocol messages, same cache counters.  Apps name a
   contiguous transfer once without changing what the paper's numbers
   count: one simulated access per shared word.

   Plus a cross-backend checksum regression: the five paper applications
   pinned to their current digests on three representative backends, so
   any change to app code, coherence protocols, or the access layer that
   shifts results is caught immediately. *)

module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory
module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Dsm_cluster = Shm_platform.Dsm_cluster
module Machines = Shm_platform.Machines

(* ------------------------------------------------------------------ *)
(* A synthetic app that replays a script of shared-memory operations
   either word-by-word or through the range ops.  Reads roam the whole
   data region (read sharing, races included); each processor's writes
   stay in its own stripe (false sharing across page boundaries, as in
   the real converted apps). *)

type op =
  | Rf of int * int  (* float reads: data offset, len *)
  | Wf of int * int  (* float writes: stripe offset, len *)
  | Ri of int * int
  | Wi of int * int
  | Bar

let max_len = 64
let data_words = 1984 (* ~4 TreadMarks pages of 512 words *)
let nprocs = 3

(* Layout: data region, then one accumulator slot per processor, then the
   digest slot. *)
let shared_words = data_words + nprocs + 1
let slot p = data_words + p
let digest = data_words + nprocs

type mode = Word | Range

let make_app ~mode ~script =
  let init mem =
    for i = 0 to data_words - 1 do
      Memory.set_float mem i (float_of_int (i * 7 mod 1013) *. 0.125)
    done
  in
  let work (ctx : Parmacs.ctx) =
    let buf_f = Array.make max_len 0.0 in
    let buf_i = Array.make max_len 0 in
    let acc = ref 0.0 in
    let stripe = data_words / ctx.nprocs in
    let wbase = ctx.id * stripe in
    List.iteri
      (fun k op ->
        match op with
        | Rf (off, len) ->
            let addr = off mod (data_words - len) in
            (match mode with
            | Word ->
                for j = 0 to len - 1 do
                  acc := !acc +. Parmacs.read_f ctx (addr + j)
                done
            | Range ->
                ctx.range.read_fs addr buf_f 0 len;
                for j = 0 to len - 1 do
                  acc := !acc +. buf_f.(j)
                done)
        | Wf (off, len) ->
            let addr = wbase + (off mod (stripe - len)) in
            let v j = float_of_int (((ctx.id + 1) * 997) + (k * 31) + j) *. 0.5 in
            (match mode with
            | Word ->
                for j = 0 to len - 1 do
                  Parmacs.write_f ctx (addr + j) (v j)
                done
            | Range ->
                for j = 0 to len - 1 do
                  buf_f.(j) <- v j
                done;
                ctx.range.write_fs addr buf_f 0 len)
        | Ri (off, len) ->
            let addr = off mod (data_words - len) in
            (match mode with
            | Word ->
                for j = 0 to len - 1 do
                  acc := !acc +. float_of_int (Parmacs.read_i ctx (addr + j))
                done
            | Range ->
                ctx.range.read_is addr buf_i 0 len;
                for j = 0 to len - 1 do
                  acc := !acc +. float_of_int buf_i.(j)
                done)
        | Wi (off, len) ->
            let addr = wbase + (off mod (stripe - len)) in
            let v j = ((ctx.id + 1) * 8191) + (k * 17) + j in
            (match mode with
            | Word ->
                for j = 0 to len - 1 do
                  Parmacs.write_i ctx (addr + j) (v j)
                done
            | Range ->
                for j = 0 to len - 1 do
                  buf_i.(j) <- v j
                done;
                ctx.range.write_is addr buf_i 0 len)
        | Bar -> ctx.barrier 0)
      script;
    ctx.barrier 0;
    Parmacs.write_f ctx (slot ctx.id) !acc;
    ctx.barrier 0;
    if ctx.id = 0 then begin
      let total = ref 0.0 in
      for p = 0 to ctx.nprocs - 1 do
        total := !total +. Parmacs.read_f ctx (slot p)
      done;
      Parmacs.write_f ctx digest !total
    end
  in
  {
    Parmacs.name = "range-equiv";
    shared_words;
    eager_lock_hints = [];
    init;
    work;
    checksum_addr = digest;
    stats = Parmacs.no_stats;
  }

(* Every engine and every stage shape: flat clusters (lrc, erc, ivy,
   Tardis), the uniprocessor, hardware cabinets, a node bus under a DSM
   root, and a hybrid with a bare node. *)
let backends () =
  [
    ("dec", Machines.get "dec", 1);
    ("treadmarks", Machines.get "treadmarks", nprocs);
    ("treadmarks-erc", Machines.get "treadmarks-erc", nprocs);
    ("ivy", Machines.get "ivy", nprocs);
    ("tardis", Machines.get ~protocol:"tardis" "treadmarks", nprocs);
    ("sgi", Machines.get "sgi", nprocs);
    ("as", Dsm_cluster.as_machine (), nprocs);
    ("ah", Machines.get "ah", nprocs);
    ("hs", Machines.topology "lrc(mesi*4 x 64)", nprocs);
    (* One bus node and one bare node: the bare node's accesses have the
       DSM root as their only stage, the bus node's a chain of two. *)
    ("lrc(mesi*2, 1)", Machines.topology "lrc(mesi*2, 1)", nprocs);
  ]

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun o l -> Rf (o, l)) (int_bound 4095) (int_range 1 max_len));
        (3, map2 (fun o l -> Wf (o, l)) (int_bound 4095) (int_range 1 (max_len - 1)));
        (2, map2 (fun o l -> Ri (o, l)) (int_bound 4095) (int_range 1 max_len));
        (2, map2 (fun o l -> Wi (o, l)) (int_bound 4095) (int_range 1 (max_len - 1)));
        (1, return Bar);
      ])

let script_gen = QCheck.Gen.(list_size (int_range 4 16) op_gen)

let script_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Rf (o, l) -> Printf.sprintf "Rf(%d,%d)" o l
           | Wf (o, l) -> Printf.sprintf "Wf(%d,%d)" o l
           | Ri (o, l) -> Printf.sprintf "Ri(%d,%d)" o l
           | Wi (o, l) -> Printf.sprintf "Wi(%d,%d)" o l
           | Bar -> "Bar")
         ops)
  in
  QCheck.make ~print script_gen

let prop_ranges_equiv =
  QCheck.Test.make ~count:12 ~name:"range ops = per-word ops on every backend"
    script_arb
    (fun script ->
      (* Sequential reference: both modes agree with no platform at all. *)
      let seq mode =
        let app = make_app ~mode ~script in
        Parmacs.checksum_of (Parmacs.run_sequential app) app
      in
      if seq Word <> seq Range then
        QCheck.Test.fail_reportf "sequential: %.17g <> %.17g" (seq Word)
          (seq Range);
      List.for_all
        (fun (name, (p : Platform.t), n) ->
          let run mode = p.Platform.run (make_app ~mode ~script) ~nprocs:n in
          let rw = run Word and rr = run Range in
          let sorted r = List.sort compare r.Report.counters in
          if rw.Report.checksum <> rr.Report.checksum then
            QCheck.Test.fail_reportf "%s: checksum %.17g <> %.17g" name
              rw.Report.checksum rr.Report.checksum
          else if rw.Report.cycles <> rr.Report.cycles then
            QCheck.Test.fail_reportf "%s: cycles %d <> %d" name
              rw.Report.cycles rr.Report.cycles
          else if sorted rw <> sorted rr then
            QCheck.Test.fail_reportf
              "%s: counters differ (msgs %d vs %d, bytes %d vs %d)" name
              (Report.get rw "net.msgs.total")
              (Report.get rr "net.msgs.total")
              (Report.get rw "net.bytes.total")
              (Report.get rr "net.bytes.total")
          else true)
        (backends ()))

(* ------------------------------------------------------------------ *)
(* A real app on the engine whose read hits change its state: a Tardis
   read hit moves the reader's timestamp, which at a page's home can push
   it past the lease of the node's own copy, so the next word of a range
   may fault where the word before it did not.  Quick-scale Water (a
   3-word range per molecule pair) must run the same through [ctx.range]
   as through the scalar accessors word by word. *)

let per_word_ranges (ctx : Parmacs.ctx) =
  let range =
    {
      Parmacs.read_fs =
        (fun addr dst pos len ->
          for k = 0 to len - 1 do
            ctx.readf (addr + k);
            dst.(pos + k) <- ctx.fcell.v
          done);
      write_fs =
        (fun addr src pos len ->
          for k = 0 to len - 1 do
            ctx.fcell.v <- src.(pos + k);
            ctx.writef (addr + k)
          done);
      read_is =
        (fun addr dst pos len ->
          for k = 0 to len - 1 do
            ctx.readi (addr + k);
            dst.(pos + k) <- !(ctx.icell)
          done);
      write_is =
        (fun addr src pos len ->
          for k = 0 to len - 1 do
            ctx.icell := src.(pos + k);
            ctx.writei (addr + k)
          done);
    }
  in
  { ctx with range }

let test_tardis_water () =
  let p = Machines.get ~protocol:"tardis" "treadmarks" in
  let app = Registry.app ~scale:Registry.Quick "water" in
  let ranged = p.Platform.run app ~nprocs:4 in
  let wordwise =
    p.Platform.run
      { app with work = (fun ctx -> app.work (per_word_ranges ctx)) }
      ~nprocs:4
  in
  let sorted r = List.sort compare r.Report.counters in
  Alcotest.(check int) "cycles" wordwise.Report.cycles ranged.Report.cycles;
  Alcotest.(check (list (pair string int)))
    "counters" (sorted wordwise) (sorted ranged);
  Alcotest.(check (float 0.0))
    "checksum" wordwise.Report.checksum ranged.Report.checksum

(* ------------------------------------------------------------------ *)
(* Cross-backend checksum regression: the five paper applications at
   quick scale, digests pinned.  The simulator is deterministic, so these
   are exact constants; sor/tsp/ilink must also be bit-identical across
   backends, while water/m-water can depend on lock-acquisition order and
   so are pinned per backend (they happen to agree at this scale). *)

let golden_backends () =
  [
    ("treadmarks", Machines.get "treadmarks");
    ("ivy", Machines.get "ivy");
    ("sgi", Machines.get "sgi");
  ]

let goldens : (string * (string * float) list) list =
  [
    ( "sor",
      [
        ("treadmarks", 0x1.70d4575719efep+8);
        ("ivy", 0x1.70d4575719efep+8);
        ("sgi", 0x1.70d4575719efep+8);
      ] );
    ( "tsp",
      [
        ("treadmarks", 0x1.1f2p+11);
        ("ivy", 0x1.1f2p+11);
        ("sgi", 0x1.1f2p+11);
      ] );
    ( "water",
      [
        ("treadmarks", 0x1.293cc893f694dp+8);
        ("ivy", 0x1.293cc893f694dp+8);
        ("sgi", 0x1.293cc893f694dp+8);
      ] );
    ( "m-water",
      [
        ("treadmarks", 0x1.293cc893f694dp+8);
        ("ivy", 0x1.293cc893f694dp+8);
        ("sgi", 0x1.293cc893f694dp+8);
      ] );
    ( "ilink-clp",
      [
        ("treadmarks", 0x1.0eeb716a5b77ap+5);
        ("ivy", 0x1.0eeb716a5b77ap+5);
        ("sgi", 0x1.0eeb716a5b77ap+5);
      ] );
  ]

let test_golden_checksums () =
  let failures = ref [] in
  List.iter
    (fun (app_name, expected) ->
      List.iter
        (fun (pname, platform) ->
          let app = Registry.app ~scale:Registry.Quick app_name in
          let r = (platform : Platform.t).Platform.run app ~nprocs:4 in
          let want = List.assoc pname expected in
          if r.Report.checksum <> want then
            failures :=
              Printf.sprintf "%s on %s: got %h, pinned %h" app_name pname
                r.Report.checksum want
              :: !failures)
        (golden_backends ()))
    goldens;
  match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "checksum drift:\n%s" (String.concat "\n" fs)

let suite =
  [
    QCheck_alcotest.to_alcotest ~rand:(Pinned.rand 0xBF25)
      prop_ranges_equiv;
    Alcotest.test_case "tardis water: range = per-word loop" `Quick
      test_tardis_water;
    Alcotest.test_case "five-app golden checksums" `Quick
      test_golden_checksums;
  ]
