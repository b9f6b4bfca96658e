module Memory = Shm_memsys.Memory

let page_words = Memory.page_words

type range_ops = {
  read_fs : int -> float array -> int -> int -> unit;
  write_fs : int -> float array -> int -> int -> unit;
  read_is : int -> int array -> int -> int -> unit;
  write_is : int -> int array -> int -> int -> unit;
}

type fcell = Memory.fcell = { mutable v : float }

type ctx = {
  id : int;
  nprocs : int;
  read : int -> int64;
  write : int -> int64 -> unit;
  fcell : fcell;
  readf : int -> unit;
  writef : int -> unit;
  icell : int ref;
  readi : int -> unit;
  writei : int -> unit;
  range : range_ops;
  lock : int -> unit;
  unlock : int -> unit;
  barrier : int -> unit;
  compute : int -> unit;
  clock : unit -> int;
}

(* Scalar float traffic goes through [fcell] so no value is ever boxed
   across the platform closure: [readf] stores the loaded word into the
   cell, [writef] stores the cell's value.  [fcell] is a record with one
   float field, which OCaml stores flat, so both sides are plain unboxed
   double moves. *)
let[@inline] read_f ctx addr =
  ctx.readf addr;
  ctx.fcell.v

let[@inline] write_f ctx addr v =
  ctx.fcell.v <- v;
  ctx.writef addr

(* Scalar int traffic mirrors the float path: [icell] carries the word
   across the platform closure, so no [int64] is boxed per access. *)
let[@inline] read_i ctx addr =
  ctx.readi addr;
  !(ctx.icell)

let[@inline] write_i ctx addr v =
  ctx.icell := v;
  ctx.writei addr

let read_range_f ctx addr (dst : float array) =
  ctx.range.read_fs addr dst 0 (Array.length dst)

let write_range_f ctx addr (src : float array) =
  ctx.range.write_fs addr src 0 (Array.length src)

(* A range is the per-word loop over the scalar accessors, in ascending
   address order, each word through the transfer cell, so it allocates
   nothing per word and is by construction the access sequence it
   names. *)
let per_word_range ~fcell ~readf ~writef ~icell ~readi ~writei =
  {
    read_fs =
      (fun addr dst pos len ->
        for k = 0 to len - 1 do
          readf (addr + k);
          dst.(pos + k) <- fcell.v
        done);
    write_fs =
      (fun addr src pos len ->
        for k = 0 to len - 1 do
          fcell.v <- src.(pos + k);
          writef (addr + k)
        done);
    read_is =
      (fun addr dst pos len ->
        for k = 0 to len - 1 do
          readi (addr + k);
          dst.(pos + k) <- !icell
        done);
    write_is =
      (fun addr src pos len ->
        for k = 0 to len - 1 do
          icell := src.(pos + k);
          writei (addr + k)
        done);
  }

type app = {
  name : string;
  shared_words : int;
  eager_lock_hints : int list;
  init : Memory.t -> unit;
  work : ctx -> unit;
  checksum_addr : int;
  stats : unit -> (string * int) list;
}

let no_stats () = []

let run_sequential app =
  let mem = Memory.create ~words:app.shared_words in
  app.init mem;
  let fcell = { v = 0.0 } in
  let icell = ref 0 in
  let readf addr = Memory.load_float mem addr fcell
  and writef addr = Memory.store_float mem addr fcell
  and readi addr = icell := Memory.get_int mem addr
  and writei addr = Memory.set_int mem addr !icell in
  let ctx =
    {
      id = 0;
      nprocs = 1;
      read = Memory.get mem;
      write = Memory.set mem;
      fcell;
      readf;
      writef;
      icell;
      readi;
      writei;
      range = per_word_range ~fcell ~readf ~writef ~icell ~readi ~writei;
      lock = ignore;
      unlock = ignore;
      barrier = ignore;
      compute = ignore;
      clock = (fun () -> 0);
    }
  in
  app.work ctx;
  mem

let checksum_of mem app = Memory.get_float mem app.checksum_addr
