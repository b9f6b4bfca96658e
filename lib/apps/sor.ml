module Parmacs = Shm_parmacs.Parmacs
module Memory = Shm_memsys.Memory

type params = {
  rows : int;
  cols : int;
  iters : int;
  touch_all : bool;
  omega : float;
  point_cycles : int;
  slots : int;
}

(* Default cycle cost of one point update beyond its memory accesses
   (R3000-class: four fp adds, two fp multiplies, loop overhead). *)
let default_point_cycles = 30

let default_params =
  { rows = 256; cols = 256; iters = 10; touch_all = false; omega = 0.9;
    point_cycles = default_point_cycles; slots = 64 }

(* Shared layout: grid, per-processor partial sums, checksum slot. *)
type layout = { grid : int; partials : int; checksum : int; words : int }

let layout_of p =
  let l = Layout.create () in
  let grid = Layout.alloc l ((p.rows + 2) * p.cols) in
  (* Partial-sum slots one page apart: no false sharing between writers. *)
  let partials =
    Layout.alloc_aligned l (p.slots * Parmacs.page_words)
      ~align:Parmacs.page_words
  in
  let checksum = Layout.alloc l 1 in
  { grid; partials; checksum; words = Layout.size l }

let partial_slot lay p = lay.partials + (p * Parmacs.page_words)

let seed_value ~touch_all i j =
  if touch_all then float_of_int (((i * 31) + (j * 17)) mod 97) /. 97.0
  else 0.0

let init p lay mem =
  let set i j v = Memory.set_float mem (lay.grid + (i * p.cols) + j) v in
  for i = 0 to p.rows + 1 do
    for j = 0 to p.cols - 1 do
      let boundary = i = 0 || i = p.rows + 1 || j = 0 || j = p.cols - 1 in
      if boundary then set i j 1.0 else set i j (seed_value ~touch_all:p.touch_all i j)
    done
  done

let work p lay (ctx : Parmacs.ctx) =
  Layout.check_slots ~app:"sor" ~slots:p.slots ctx.nprocs;
  let cols = p.cols in
  let addr i j = lay.grid + (i * cols) + j in
  let lo = 1 + (p.rows * ctx.id / ctx.nprocs) in
  let hi = 1 + (p.rows * (ctx.id + 1) / ctx.nprocs) in
  (* Hot stencil: the platform closures and the transfer cell are hoisted
     out of the loops, and per-point addresses are offsets from a row
     base, so each point is five guarded reads, one guarded write, and
     pure float arithmetic — no per-point projections or re-multiplies.
     The accesses stay per-word in the exact order of the naive loop (the
     stencil is not contiguous, so the range layer does not apply). *)
  let readf = ctx.readf
  and writef = ctx.writef
  and fcell = ctx.fcell
  and compute = ctx.compute in
  let omega = p.omega and point_cycles = p.point_cycles in
  for _iter = 1 to p.iters do
    for phase = 0 to 1 do
      for i = lo to hi - 1 do
        let base = lay.grid + (i * cols) in
        let j0 = if (i + 1) land 1 = phase then 1 else 2 in
        let j = ref j0 in
        while !j <= cols - 2 do
          let jj = !j in
          readf (base - cols + jj);
          let up = fcell.v in
          readf (base + cols + jj);
          let down = fcell.v in
          readf (base + jj - 1);
          let left = fcell.v in
          readf (base + jj + 1);
          let right = fcell.v in
          readf (base + jj);
          let self = fcell.v in
          let avg = 0.25 *. (up +. down +. left +. right) in
          fcell.v <- self +. (omega *. (avg -. self));
          writef (base + jj);
          compute point_cycles;
          j := jj + 2
        done
      done;
      ctx.barrier 0
    done
  done;
  (* Checksum: banded partial sums, combined by processor 0.  Each row's
     interior is contiguous, so fetch it as one range. *)
  let s = ref 0.0 in
  let row = Array.make (cols - 2) 0.0 in
  for i = lo to hi - 1 do
    Parmacs.read_range_f ctx (addr i 1) row;
    for j = 0 to cols - 3 do
      s := !s +. Array.unsafe_get row j
    done
  done;
  Parmacs.write_f ctx (partial_slot lay ctx.id) !s;
  ctx.barrier 0;
  if ctx.id = 0 then begin
    let total = ref 0.0 in
    for q = 0 to ctx.nprocs - 1 do
      total := !total +. Parmacs.read_f ctx (partial_slot lay q)
    done;
    Parmacs.write_f ctx lay.checksum !total
  end;
  ctx.barrier 0

let make p =
  let lay = layout_of p in
  {
    Parmacs.name =
      Printf.sprintf "sor-%dx%d%s" p.rows p.cols
        (if p.touch_all then "-touchall" else "");
    shared_words = lay.words;
    eager_lock_hints = [];
    init = init p lay;
    work = work p lay;
    checksum_addr = lay.checksum;
    stats = Parmacs.no_stats;
  }

let reference p =
  let app = make p in
  let mem = Parmacs.run_sequential app in
  Parmacs.checksum_of mem app
