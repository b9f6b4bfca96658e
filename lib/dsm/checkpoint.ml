(* The failure-atomic checkpoint store of one software-DSM node
   (DESIGN.md §13): the image of the node's shared region, one "changed
   since the last sweep" mark per page, and the sweep over the marked
   pages.  The engine keeps only what differs between protocols: how a
   marked page persists, and whether it stays marked after a sweep. *)

module Memory = Shm_memsys.Memory
module Counters = Shm_stats.Counters

type t = {
  image : Memory.t;  (** lazily mapped, seeded from the live copy *)
  marked : Bytes.t;  (** one byte per page: changed since the last sweep *)
}

let create mem ~pages =
  let words = pages * Memory.page_words in
  let image = Memory.create_mapped ~words in
  Memory.seed ~src:mem ~len:words [| image |];
  { image; marked = Bytes.make pages '\000' }

let image t = t.image
let[@inline] mark t page = Bytes.unsafe_set t.marked page '\001'

(* One sweep: [persist page] brings each marked page's image up to the
   live copy and returns the bytes it wrote; the page then stays marked
   iff [keep page].  Counts the sweep in [ckpt.count]/[ckpt.bytes] and
   returns its bytes. *)
let sweep t counters ~persist ~keep =
  let bytes = ref 0 in
  for p = 0 to Bytes.length t.marked - 1 do
    if Bytes.get t.marked p <> '\000' then begin
      bytes := !bytes + persist p;
      if not (keep p) then Bytes.set t.marked p '\000'
    end
  done;
  Counters.incr counters "ckpt.count";
  Counters.add counters "ckpt.bytes" !bytes;
  !bytes
