(* The per-access path allocates nothing.  A scalar shared access on a
   hit is a guard check, a clock bump and a word move through the
   transfer cell; a float that crossed a call, or a cell that boxed its
   contents, would show up here as minor-heap words per access. *)

module Parmacs = Shm_parmacs.Parmacs
module Platform = Shm_platform.Platform
module Machines = Shm_platform.Machines

let accesses = 10_000

(* Processor 0 touches its two words once (faults, fills and twins
   happen here), then runs [accesses] rounds of readf/writef/readi/writei
   on them, all hits, and records the minor words allocated per access.
   Every other processor returns at once, so nothing interleaves. *)
let words_per_access machine ~nprocs =
  let result = ref nan in
  let fa = 8 and ia = 16 in
  let work (ctx : Parmacs.ctx) =
    if ctx.id = 0 then begin
      let readf = ctx.readf and writef = ctx.writef
      and readi = ctx.readi and writei = ctx.writei in
      ctx.fcell.v <- 1.5;
      writef fa;
      readf fa;
      ctx.icell := 3;
      writei ia;
      readi ia;
      let before = Gc.minor_words () in
      for _ = 1 to accesses do
        readf fa;
        writef fa;
        readi ia;
        writei ia
      done;
      let after = Gc.minor_words () in
      result := (after -. before) /. float_of_int (4 * accesses)
    end
  in
  let app =
    {
      Parmacs.name = "access-alloc";
      shared_words = 64;
      eager_lock_hints = [];
      init = ignore;
      work;
      checksum_addr = 0;
      stats = Parmacs.no_stats;
    }
  in
  ignore ((Machines.get machine).Platform.run app ~nprocs);
  !result

let test_no_allocation () =
  List.iter
    (fun (machine, nprocs) ->
      let w = words_per_access machine ~nprocs in
      if not (w < 0.01) then
        Alcotest.failf "%s: %.3f minor words per access (want < 0.01)" machine
          w)
    [
      ("dec", 1);
      ("sgi", 1);
      ("ah", 1);
      ("treadmarks", 1);
      ("topo:lrc(mesi*2 x 2)", 4);
    ]

(* A primary miss that hits the coherent level refills the primary line
   and drops what it displaced.  Words 0 and 8192 share primary line 0
   on the SGI bus but sit in different coherent lines, so after the first
   round every read of processor 0 is exactly that refill. *)
let test_primary_refill_no_allocation () =
  let result = ref nan in
  let work (ctx : Parmacs.ctx) =
    if ctx.id = 0 then begin
      let readi = ctx.readi in
      readi 0;
      readi 8192;
      let before = Gc.minor_words () in
      for _ = 1 to accesses do
        readi 0;
        readi 8192
      done;
      let after = Gc.minor_words () in
      result := (after -. before) /. float_of_int (2 * accesses)
    end
  in
  let app =
    {
      Parmacs.name = "refill-alloc";
      shared_words = 16_384;
      eager_lock_hints = [];
      init = ignore;
      work;
      checksum_addr = 0;
      stats = Parmacs.no_stats;
    }
  in
  ignore ((Machines.get "sgi").Platform.run app ~nprocs:1);
  if not (!result < 0.01) then
    Alcotest.failf "sgi: %.3f minor words per refilling read (want < 0.01)"
      !result

(* A coherent miss on the SGI bus refills the line through [bus_read]
   and retires what the refill displaced.  Words 0 and 131072 share
   line 0 of both SGI cache levels, so after the first round every read
   of processor 0 is a bus refill that evicts the other block.  The
   eviction allocates nothing; the 8 words a refill takes are the
   closure [bus_read] hands [Engine.with_category]. *)
let test_bus_refill_eviction_words () =
  let result = ref nan in
  let work (ctx : Parmacs.ctx) =
    if ctx.id = 0 then begin
      let readi = ctx.readi in
      readi 0;
      readi 131_072;
      let before = Gc.minor_words () in
      for _ = 1 to accesses do
        readi 0;
        readi 131_072
      done;
      let after = Gc.minor_words () in
      result := (after -. before) /. float_of_int (2 * accesses)
    end
  in
  let app =
    {
      Parmacs.name = "evict-alloc";
      shared_words = 262_144;
      eager_lock_hints = [];
      init = ignore;
      work;
      checksum_addr = 0;
      stats = Parmacs.no_stats;
    }
  in
  ignore ((Machines.get "sgi").Platform.run app ~nprocs:1);
  if not (!result < 9.0) then
    Alcotest.failf "sgi: %.3f minor words per evicting bus refill (want < 9)"
      !result

let suite =
  [
    Alcotest.test_case "scalar accesses allocate nothing" `Quick
      test_no_allocation;
    Alcotest.test_case "primary refills allocate nothing" `Quick
      test_primary_refill_no_allocation;
    Alcotest.test_case "evicting bus refills stay within their word budget"
      `Quick test_bus_refill_eviction_words;
  ]
