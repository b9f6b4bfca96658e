(* Hierarchical timing wheel with a binary-heap outlier tier.

   Events are nodes in a preallocated pool of parallel arrays
   ([times]/[seqs]/[vals]/[nxt]); pushing in steady state reuses a node
   off the free list and links it into a slot chain, allocating nothing.

   Wheel geometry: three levels of 256 slots.  Level [l] covers times
   that agree with [start] (the last time popped from the wheel, not the
   heap) on all bits above [8*(l+1)]; the slot index is bits
   [8*l .. 8*l+7] of the event time.  Classification is a single [lxor]
   against [start].  Level-0 slots are one tick wide, so a slot chain is
   a FIFO of same-time events and its head carries the smallest sequence
   number.  Times outside the 2^24 window (or below [start], which the
   engine never produces because [schedule] clamps to the current time)
   go to the heap tier, ordered by [(time, seq)] like the wheel.  The
   heap keeps each entry's key inline beside its pool node, so sifting
   never reads the pool.

   Popping takes whichever of (wheel head, heap root) is smaller under
   [(time, seq)].  Finding the wheel head scans occupancy bitmaps; when
   level 0 is exhausted, [start] advances to the first occupied
   higher-level slot and that slot's chain cascades down, preserving
   chain order.  Cascading keeps FIFO ties intact: a cascaded chain is in
   sequence order, destination slots are empty when a cascade runs (level
   0 is only refilled once drained; crossing a 2^16 boundary implies
   levels 0-1 are empty), and later direct pushes always carry larger
   sequence numbers. *)

type 'a t = {
  dummy : 'a;
  (* Node pool.  [nxt] doubles as the slot-chain link and the free list. *)
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable nxt : int array;
  mutable free : int;
  (* Wheel: 3 levels x 256 slots; [head]/[tail] hold node indices, -1 =
     empty.  [occ] is the occupancy bitmap, 8 words of 32 bits per level. *)
  head : int array;
  tail : int array;
  occ : int array;
  mutable start : int;
  mutable wheel_count : int;
  (* Outlier tier: binary heap ordered by (time, seq), the keys inline
     beside each entry's pool node. *)
  mutable htimes : int array;
  mutable hseqs : int array;
  mutable hnodes : int array;
  mutable heap_size : int;
  mutable next_seq : int;
  (* Cached minimum time; [min_int] means stale (recompute on demand). *)
  mutable cached_min : int;
  (* Cached minimum node and its level-0 slot (-1 = heap tier), so the
     engine's peek-then-pop costs one bitmap scan per event, not two.
     [cached_node = -2] means only the time is cached, not the node (the
     minimum arrived by a push into a level-1/2 slot, where it is not
     the chain head). *)
  mutable cached_node : int;
  mutable cached_slot : int;
}

let initial_cap = 64

let create ~dummy =
  let nxt = Array.init initial_cap (fun i -> i + 1) in
  nxt.(initial_cap - 1) <- -1;
  {
    dummy;
    times = Array.make initial_cap 0;
    seqs = Array.make initial_cap 0;
    vals = Array.make initial_cap dummy;
    nxt;
    free = 0;
    head = Array.make 768 (-1);
    tail = Array.make 768 (-1);
    occ = Array.make 24 0;
    start = 0;
    wheel_count = 0;
    htimes = Array.make 16 0;
    hseqs = Array.make 16 0;
    hnodes = Array.make 16 0;
    heap_size = 0;
    next_seq = 0;
    cached_min = max_int;
    cached_node = -2;
    cached_slot = -1;
  }

let length q = q.wheel_count + q.heap_size

let is_empty q = q.wheel_count = 0 && q.heap_size = 0

(* ------------------------------------------------------------------ *)
(* Node pool                                                           *)

let grow_pool q =
  let cap = Array.length q.times in
  let new_cap = cap * 2 in
  let times = Array.make new_cap 0
  and seqs = Array.make new_cap 0
  and vals = Array.make new_cap q.dummy
  and nxt = Array.make new_cap (-1) in
  Array.blit q.times 0 times 0 cap;
  Array.blit q.seqs 0 seqs 0 cap;
  Array.blit q.vals 0 vals 0 cap;
  Array.blit q.nxt 0 nxt 0 cap;
  for i = cap to new_cap - 2 do
    nxt.(i) <- i + 1
  done;
  nxt.(new_cap - 1) <- -1;
  q.times <- times;
  q.seqs <- seqs;
  q.vals <- vals;
  q.nxt <- nxt;
  q.free <- cap

let alloc q ~time ~seq v =
  if q.free = -1 then grow_pool q;
  let n = q.free in
  q.free <- q.nxt.(n);
  q.times.(n) <- time;
  q.seqs.(n) <- seq;
  q.vals.(n) <- v;
  q.nxt.(n) <- -1;
  n

(* Clear the payload so a dead event's closure isn't retained. *)
let release q n =
  q.vals.(n) <- q.dummy;
  q.nxt.(n) <- q.free;
  q.free <- n

(* ------------------------------------------------------------------ *)
(* Wheel slots                                                         *)

let slot_push q lvl idx n =
  let s = (lvl lsl 8) lor idx in
  (match q.tail.(s) with
  | -1 ->
      q.head.(s) <- n;
      let w = (lvl lsl 3) lor (idx lsr 5) in
      q.occ.(w) <- q.occ.(w) lor (1 lsl (idx land 31))
  | t -> q.nxt.(t) <- n);
  q.tail.(s) <- n

(* First set bit of a nonzero 32-bit chunk. *)
let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* First occupied slot index >= [from] at [lvl], or -1. *)
let scan q lvl from =
  if from > 255 then -1
  else begin
    let base = lvl lsl 3 in
    let wi = ref (from lsr 5) in
    let w = ref (q.occ.(base + !wi) land (-1 lsl (from land 31)) land 0xFFFFFFFF) in
    let res = ref (-1) in
    while !res = -1 && !wi < 8 do
      if !w <> 0 then res := (!wi lsl 5) lor ctz32 !w
      else begin
        incr wi;
        if !wi < 8 then w := q.occ.(base + !wi)
      end
    done;
    !res
  end

(* Detach slot [idx] of level [lvl] and redistribute its chain against
   the current [start].  Chain order (= sequence order) is preserved:
   same-time events go to the same destination slot in order. *)
let cascade q lvl idx =
  let s = (lvl lsl 8) lor idx in
  let n = ref q.head.(s) in
  q.head.(s) <- -1;
  q.tail.(s) <- -1;
  let w = (lvl lsl 3) lor (idx lsr 5) in
  q.occ.(w) <- q.occ.(w) land lnot (1 lsl (idx land 31));
  while !n <> -1 do
    let node = !n in
    n := q.nxt.(node);
    q.nxt.(node) <- -1;
    let t = q.times.(node) in
    let x = t lxor q.start in
    if x < 0x100 then slot_push q 0 (t land 0xff) node
    else slot_push q 1 ((t lsr 8) land 0xff) node
  done

(* Level-0 slot index of the wheel's minimum entry, cascading higher
   levels down as needed (which advances [start]); -1 if the wheel is
   empty.  Precondition maintained throughout: every wheel entry's time
   is >= [start], and the slot containing [start] at levels 1-2 is
   empty. *)
let rec wheel_min_slot q =
  if q.wheel_count = 0 then -1
  else begin
    let i0 = scan q 0 (q.start land 0xff) in
    if i0 >= 0 then i0
    else begin
      let i1 = scan q 1 (((q.start lsr 8) land 0xff) + 1) in
      if i1 >= 0 then begin
        q.start <- (q.start land lnot 0xffff) lor (i1 lsl 8);
        cascade q 1 i1;
        wheel_min_slot q
      end
      else begin
        let i2 = scan q 2 (((q.start lsr 16) land 0xff) + 1) in
        if i2 >= 0 then begin
          q.start <- (q.start land lnot 0xffffff) lor (i2 lsl 16);
          cascade q 2 i2;
          wheel_min_slot q
        end
        else -1
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Heap tier                                                           *)

(* The heap sifts its keys in place: [htimes]/[hseqs] hold each entry's
   [(time, seq)] beside its pool node in [hnodes], so a sift step reads
   two adjacent arrays instead of chasing node indices into the pool. *)
let[@inline] key_less (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let heap_grow q =
  let cap = Array.length q.hnodes in
  let grow a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  q.htimes <- grow q.htimes;
  q.hseqs <- grow q.hseqs;
  q.hnodes <- grow q.hnodes

let heap_push q ~time ~seq n =
  if q.heap_size = Array.length q.hnodes then heap_grow q;
  let ht = q.htimes and hs = q.hseqs and hn = q.hnodes in
  let i = ref q.heap_size in
  q.heap_size <- q.heap_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get ht parent and ps = Array.unsafe_get hs parent in
    if key_less time seq pt ps then begin
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i ps;
      Array.unsafe_set hn !i (Array.unsafe_get hn parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hn !i n

(* Remove the root, sifting the last entry down from the top. *)
let heap_pop_root q =
  let size = q.heap_size - 1 in
  q.heap_size <- size;
  if size > 0 then begin
    let ht = q.htimes and hs = q.hseqs and hn = q.hnodes in
    let time = Array.unsafe_get ht size
    and seq = Array.unsafe_get hs size
    and n = Array.unsafe_get hn size in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < size
            && key_less (Array.unsafe_get ht r) (Array.unsafe_get hs r)
                 (Array.unsafe_get ht l) (Array.unsafe_get hs l)
          then r
          else l
        in
        let ct = Array.unsafe_get ht c and cs = Array.unsafe_get hs c in
        if key_less ct cs time seq then begin
          Array.unsafe_set ht !i ct;
          Array.unsafe_set hs !i cs;
          Array.unsafe_set hn !i (Array.unsafe_get hn c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set ht !i time;
    Array.unsafe_set hs !i seq;
    Array.unsafe_set hn !i n
  end

(* ------------------------------------------------------------------ *)
(* Queue operations                                                    *)

(* A push that beats the cached minimum becomes the new minimum, and in
   two of the three tiers its node position is known without a scan: a
   strictly-smaller heap entry sifts to the root, and a level-0 slot it
   lands in must have been empty (all level-0 entries share [start]'s
   256-block, so a non-empty slot means an equal time, contradicting
   [time < cached_min]).  Only a minimum entering level 1/2 — appended
   at the tail of a multi-time chain — degrades the cache to time-only. *)
let push q ~time v =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let n = alloc q ~time ~seq v in
  let x = time lxor q.start in
  (* Past times (possible for standalone users; the engine clamps to the
     current time) and far-future times both take the heap tier. *)
  if time < q.start || x < 0 || x >= 0x1000000 then begin
    heap_push q ~time ~seq n;
    if time < q.cached_min then begin
      q.cached_min <- time;
      q.cached_node <- n;
      q.cached_slot <- -1
    end
  end
  else begin
    q.wheel_count <- q.wheel_count + 1;
    if x < 0x100 then begin
      let s = time land 0xff in
      slot_push q 0 s n;
      if time < q.cached_min then begin
        q.cached_min <- time;
        q.cached_node <- n;
        q.cached_slot <- s
      end
    end
    else begin
      (if x < 0x10000 then slot_push q 1 ((time lsr 8) land 0xff) n
       else slot_push q 2 ((time lsr 16) land 0xff) n);
      if time < q.cached_min then begin
        q.cached_min <- time;
        q.cached_node <- -2
      end
    end
  end

(* Recompute the cached minimum (time, node, slot) from scratch.  The
   scan may cascade higher levels down, so after it runs the wheel's
   minimum is always the head of a level-0 chain.  The cached node stays
   valid across later pushes: an equal-time push appends at the chain
   tail (or sifts below the heap root), and a smaller-time push
   overwrites the cache in [push]. *)
let refresh_cache q =
  let s0 = wheel_min_slot q in
  if s0 < 0 then
    if q.heap_size > 0 then begin
      q.cached_node <- q.hnodes.(0);
      q.cached_slot <- -1;
      q.cached_min <- q.htimes.(0)
    end
    else begin
      q.cached_node <- -2;
      q.cached_slot <- -1;
      q.cached_min <- max_int
    end
  else begin
    let wn = q.head.(s0) in
    if q.heap_size > 0
       && key_less q.htimes.(0) q.hseqs.(0) q.times.(wn) q.seqs.(wn)
    then begin
      q.cached_node <- q.hnodes.(0);
      q.cached_slot <- -1
    end
    else begin
      q.cached_node <- wn;
      q.cached_slot <- s0
    end;
    q.cached_min <- q.times.(q.cached_node)
  end

let min_time_exn q =
  if q.cached_min <> min_int then q.cached_min
  else begin
    refresh_cache q;
    q.cached_min
  end

(* Unlink the minimum node and return its index.
   @raise Not_found if the queue is empty. *)
let take_min q =
  if q.cached_node = -2 then refresh_cache q;
  let n = q.cached_node in
  if n < 0 then raise Not_found;
  let s0 = q.cached_slot in
  if s0 >= 0 then begin
    (* Pop the head of the level-0 chain. *)
    let next = q.nxt.(n) in
    q.head.(s0) <- next;
    q.wheel_count <- q.wheel_count - 1;
    (* Advancing [start] to the popped time stays within the current
       256-block (level-0 slots hold times >= start in that block), so
       no cascade is needed and the push-classification invariants
       hold. *)
    q.start <- q.times.(n);
    if next <> -1 then
      (* The rest of the chain shares the popped time, and the heap tier
         cannot hold that time (it would have had to be pushed with the
         time already below [start]), so the chain head is the next
         minimum: same-timestamp batches drain without a single scan. *)
      q.cached_node <- next
    else begin
      q.tail.(s0) <- -1;
      q.occ.(s0 lsr 5) <- q.occ.(s0 lsr 5) land lnot (1 lsl (s0 land 31));
      q.cached_min <- (if q.wheel_count = 0 && q.heap_size = 0 then max_int
                       else min_int);
      q.cached_node <- -2;
      q.cached_slot <- -1
    end
  end
  else begin
    heap_pop_root q;
    q.cached_slot <- -1;
    if q.wheel_count > 0 then begin
      q.cached_min <- min_int;
      q.cached_node <- -2
    end
    else if q.heap_size = 0 then begin
      q.cached_min <- max_int;
      q.cached_node <- -2
    end
    else begin
      (* The heap alone holds the rest: its root is the next minimum. *)
      q.cached_min <- q.htimes.(0);
      q.cached_node <- q.hnodes.(0)
    end
  end;
  n

let pop q =
  let n = take_min q in
  let time = q.times.(n) and v = q.vals.(n) in
  release q n;
  (time, v)

let pop_event q =
  let n = take_min q in
  let v = q.vals.(n) in
  release q n;
  v
