open Bigarray

type t = (int64, int64_elt, c_layout) Array1.t

(* The simulated page: 512 words (4 KB). *)
let page_shift = 9
let page_words = 1 lsl page_shift

let create ~words : t =
  let a = Array1.create Int64 C_layout words in
  Array1.fill a 0L;
  a

(* A private (copy-on-write) mapping of /dev/zero: every page reads as the
   kernel's shared zero page until its first write.  The descriptor must
   be writable: [Unix.map_file] grows a file shorter than the mapping by
   writing its last byte, which /dev/zero accepts and discards. *)
let zero_mapped kind n =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> array1_of_genarray (Unix.map_file fd kind C_layout false [| n |]))

let create_mapped ~words : t = zero_mapped Int64 words

let words (t : t) = Array1.dim t

let[@inline] get (t : t) i = Array1.unsafe_get t i
let[@inline] set (t : t) i v = Array1.unsafe_set t i v

(* Same buffer viewed as unboxed doubles.  Int64 and Float64 bigarrays
   share element size and layout; only the kind tag differs, and the
   type-specialized access primitives never consult it.  Going through
   the float view keeps scalar float traffic allocation-free, where the
   int64 elements would be boxed on every load. *)
type fview = (float, float64_elt, c_layout) Array1.t

let float_view (t : t) : fview = Obj.magic t

let[@inline] get_float t i = Array1.unsafe_get (float_view t) i
let[@inline] set_float t i (v : float) = Array1.unsafe_set (float_view t) i v

(* A record whose only field is a float is stored flat, so the word moves
   between the bigarray and the cell as a plain double: no float crosses
   a call and none is boxed, inlined or not. *)
type fcell = { mutable v : float }

let[@inline] load_float t i c = c.v <- Array1.unsafe_get (float_view t) i
let[@inline] store_float t i c = Array1.unsafe_set (float_view t) i c.v

let get_int t i = Int64.to_int (get t i)
let set_int t i v = set t i (Int64.of_int v)

(* [len] words at [pos] as a store of their own.  A sub-array is a
   custom block the collector must finalize, so a whole store is its own
   view. *)
let view (t : t) pos len =
  if pos = 0 && len = Array1.dim t then t else Array1.sub t pos len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  Array1.blit (view src src_pos len) (view dst dst_pos len)

let sub_copy ~src ~pos ~len : t =
  let a = Array1.create Int64 C_layout len in
  blit ~src ~src_pos:pos ~dst:a ~dst_pos:0 ~len;
  a

let copy_all ~src ~dst = Array1.blit src dst

(* Host pages of 4 KB: the unit a lazily mapped destination commits. *)
let seed_chunk = 512

(* [iter_nonzero_chunks src len f] calls [f pos n] for each aligned
   4 KB chunk of words [\[0, len)] of [src] holding a non-zero word. *)
let iter_nonzero_chunks (src : t) len f =
  let pos = ref 0 in
  while !pos < len do
    let n = min seed_chunk (len - !pos) in
    let k = ref 0 in
    while !k < n && Array1.unsafe_get src (!pos + !k) = 0L do
      incr k
    done;
    if !k < n then f !pos n;
    pos := !pos + n
  done

let seed ~src ~len dsts =
  iter_nonzero_chunks src len (fun pos n ->
      Array.iter
        (fun dst -> blit ~src ~src_pos:pos ~dst ~dst_pos:pos ~len:n)
        dsts)

let image_error path e =
  failwith
    (Printf.sprintf "Memory.clones: cannot create %s: %s" path
       (Unix.error_message e))

(* The image file is created with O_EXCL under a name unique to this
   process and domain, and unlinked at once, so concurrent runs never
   share one; a name left behind by another process is skipped. *)
let open_image () =
  let dir = Filename.get_temp_dir_name () in
  let rec attempt k =
    let path =
      Filename.concat dir
        (Printf.sprintf "shmsim-image-%d-%d-%d" (Unix.getpid ())
           (Domain.self () :> int) k)
    in
    match
      Unix.openfile path
        [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
        0o600
    with
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (k + 1)
    | exception Unix.Unix_error (e, _, _) -> image_error path e
    | fd -> (
        match Unix.unlink path with
        | () -> (fd, path)
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            image_error path e)
  in
  attempt 0

(* An all-zero image needs no file: a /dev/zero mapping reads the same,
   and creating and unlinking a file costs tens of microseconds on a
   disk-backed temp dir. *)
let clones ~(src : t) ~len sizes =
  let rec zero_from i =
    i >= len || (Array1.unsafe_get src i = 0L && zero_from (i + 1))
  in
  if zero_from 0 then Array.map (fun words -> create_mapped ~words) sizes
  else begin
    let fd, path = open_image () in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        try
          Unix.ftruncate fd (8 * Array.fold_left max len sizes);
          let buf = Bytes.create (8 * seed_chunk) in
          iter_nonzero_chunks src len (fun pos n ->
              for k = 0 to n - 1 do
                Bytes.set_int64_ne buf (8 * k) (Array1.unsafe_get src (pos + k))
              done;
              ignore (Unix.lseek fd (8 * pos) Unix.SEEK_SET);
              ignore (Unix.write fd buf 0 (8 * n)));
          Array.map
            (fun words ->
              array1_of_genarray
                (Unix.map_file fd Int64 C_layout false [| words |]))
            sizes
        with Unix.Unix_error (e, _, _) -> image_error path e)
  end

let equal_range a b ~pos ~len =
  let rec loop i = i >= pos + len || (get a i = get b i && loop (i + 1)) in
  loop pos

(* Bulk typed transfers.  Keeping these loops inside this unit lets the
   compiler keep the int64/float values unboxed end to end; going through
   [get]/[set] from another module would box one value per word. *)

let read_floats (t : t) pos (dst : float array) dst_pos len =
  let fv = float_view t in
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array1.unsafe_get fv (pos + i))
  done

let write_floats (t : t) pos (src : float array) src_pos len =
  let fv = float_view t in
  for i = 0 to len - 1 do
    Array1.unsafe_set fv (pos + i) (Array.unsafe_get src (src_pos + i))
  done

(* Bitwise word equality without allocation: xor the operands and test the
   low 63 bits and the top bit separately ([Int64.to_int] drops bit 63). *)
let[@inline] same_bits x y =
  let d = Int64.logxor x y in
  Int64.to_int d lor Int64.to_int (Int64.shift_right_logical d 63) = 0

(* First offset k in [0, len) where [a.(apos+k)] and [b.(bpos+k)] differ
   bitwise, or -1 if the ranges are identical.  Equal words are skipped
   four at a time, their xors or-ed into one test. *)
let first_diff (a : t) apos (b : t) bpos len =
  let k = ref 0 in
  while
    !k + 4 <= len
    &&
    let i = apos + !k and j = bpos + !k in
    let x0 = Int64.logxor (Array1.unsafe_get a i) (Array1.unsafe_get b j)
    and x1 = Int64.logxor (Array1.unsafe_get a (i + 1)) (Array1.unsafe_get b (j + 1))
    and x2 = Int64.logxor (Array1.unsafe_get a (i + 2)) (Array1.unsafe_get b (j + 2))
    and x3 = Int64.logxor (Array1.unsafe_get a (i + 3)) (Array1.unsafe_get b (j + 3)) in
    same_bits (Int64.logor (Int64.logor x0 x1) (Int64.logor x2 x3)) 0L
  do
    k := !k + 4
  done;
  while
    !k < len
    && same_bits (Array1.unsafe_get a (apos + !k)) (Array1.unsafe_get b (bpos + !k))
  do
    incr k
  done;
  if !k >= len then -1 else !k

(* First offset k in [0, len) where the ranges agree bitwise, or -1. *)
let first_match (a : t) apos (b : t) bpos len =
  let k = ref 0 in
  while
    !k < len
    && not
         (same_bits (Array1.unsafe_get a (apos + !k))
            (Array1.unsafe_get b (bpos + !k)))
  do
    incr k
  done;
  if !k >= len then -1 else !k

(* [f acc start n] over each maximal differing run [start, start + n),
   in address order: the run scan of a diff and of a checkpoint delta. *)
let[@inline] fold_diff_runs a apos b bpos len ~init f =
  let acc = ref init and i = ref 0 in
  while !i < len do
    let d = first_diff a (apos + !i) b (bpos + !i) (len - !i) in
    if d < 0 then i := len
    else begin
      let start = !i + d in
      let m = first_match a (apos + start) b (bpos + start) (len - start) in
      let stop = if m < 0 then len else start + m in
      acc := f !acc start (stop - start);
      i := stop
    end
  done;
  !acc
