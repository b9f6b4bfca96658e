type t = {
  creator : int;
  seqno : int;
  pages : int list;
  vsum : int;
}

let make ~creator ~seqno ~vsum ~pages = { creator; seqno; pages; vsum }

(* Wire size.  Interval vector times are delta-encoded against the
   enclosing message (an interval differs from the previously-described
   one in one or two components), so a record costs a fixed 16-byte
   descriptor plus 4 bytes per dirtied page. *)
let bytes r = 16 + (4 * List.length r.pages)

let linear_key r = (r.vsum, r.creator, r.seqno)

let compare_linear a b =
  if a.vsum <> b.vsum then Int.compare a.vsum b.vsum
  else if a.creator <> b.creator then Int.compare a.creator b.creator
  else Int.compare a.seqno b.seqno

(* A notice packs (creator, seqno) into one immediate: the creator in the
   low [creator_bits], the seqno above. *)
let creator_bits = 20

let max_nodes = 1 lsl creator_bits

let notice ~creator ~seqno = (seqno lsl creator_bits) lor creator

let notice_creator k = k land (max_nodes - 1)

let notice_seqno k = k lsr creator_bits

let unapplied applied notices =
  List.filter
    (fun k -> notice_seqno k > applied.(notice_creator k))
    notices

(* Per creator, the records above a floor, dense by interval index:
   [recs.(c).(s - 1 - base.(c))] is record [s] of creator [c], or
   [absent].  Records at or below [floor.(c)] are dropped: their slots
   between [base.(c)] and [floor.(c)] are a cleared dead prefix, moved
   out once it fills half the array, so each drop costs amortized O(1). *)
module Table = struct
  type record = t

  type t = { recs : record array array; base : int array; floor : int array }

  let absent = { creator = -1; seqno = 0; pages = []; vsum = 0 }

  let create ~nodes =
    if nodes > max_nodes then
      invalid_arg (Printf.sprintf "Record.Table: %d nodes > %d" nodes max_nodes);
    {
      recs = Array.make nodes [||];
      base = Array.make nodes 0;
      floor = Array.make nodes 0;
    }

  let floor t c = t.floor.(c)

  (* [get t c s] for an index the caller knows is filled and above the
     floor. *)
  let get t c s = Array.unsafe_get t.recs.(c) (s - 1 - t.base.(c))

  (* Store [r] unless its slot is filled or dropped: every node holds the
     same value for one (creator, seqno).  Growth at least doubles the
     live span and leaves the dead prefix behind, so a run of appends
     costs amortized O(1). *)
  let put t (r : record) =
    let c = r.creator in
    if r.seqno > t.floor.(c) then begin
      let a = t.recs.(c) in
      let i = r.seqno - 1 - t.base.(c) in
      if i >= Array.length a then begin
        let dead = t.floor.(c) - t.base.(c) in
        let live = Array.length a - dead in
        let b = Array.make (max (i + 1 - dead) (max 8 (2 * live))) absent in
        Array.blit a dead b 0 live;
        b.(i - dead) <- r;
        t.recs.(c) <- b;
        t.base.(c) <- t.floor.(c)
      end
      else if a.(i) == absent then a.(i) <- r
    end

  let drop t ~creator:c floor =
    if floor > t.floor.(c) then begin
      let a = t.recs.(c) and base = t.base.(c) in
      let len = Array.length a in
      let dead = min (floor - base) len in
      let cleared = t.floor.(c) - base in
      if dead > cleared then Array.fill a cleared (dead - cleared) absent;
      t.floor.(c) <- floor;
      if 2 * dead >= len then begin
        (* The live slots fit in the cleared prefix: move them down. *)
        Array.blit a dead a 0 (len - dead);
        Array.fill a dead (len - dead) absent;
        t.base.(c) <- floor
      end
    end

  let held t =
    Array.fold_left
      (fun n a ->
        Array.fold_left (fun n r -> if r == absent then n else n + 1) n a)
      0 t.recs
end

module Store = struct
  type record = t

  (* What one node knows of the shared table: for each creator, the
     prefix [1..contig.(c)], plus the notices of records parked above
     it (eager release can deliver a creator's intervals out of order);
     and which records have had their first notice, as a prefix
     [1..noticed.(c)] plus marks above it. *)
  type t = {
    table : Table.t;
    contig : int array;
    noticed : int array;
    mutable above : int list;
    mutable marks : int list;
  }

  let create (table : Table.t) =
    let n = Array.length table.recs in
    {
      table;
      contig = Array.make n 0;
      noticed = Array.make n 0;
      above = [];
      marks = [];
    }

  (* A set of one creator's seqnos is the prefix [1..prefix.(c)] plus
     the notices parked above it.  [insert] extends the prefix when [s]
     is next, absorbing the parked seqnos that follow, or parks [s]; it
     returns what stays parked. *)
  let in_set prefix parked c s =
    s >= 1
    && (s <= prefix.(c)
       || (parked <> [] && List.mem (notice ~creator:c ~seqno:s) parked))

  let rec insert prefix parked c s =
    if s <> prefix.(c) + 1 then notice ~creator:c ~seqno:s :: parked
    else begin
      prefix.(c) <- s;
      let next = notice ~creator:c ~seqno:(s + 1) in
      if List.mem next parked then
        insert prefix (List.filter (fun k -> k <> next) parked) c (s + 1)
      else parked
    end

  let mem t ~creator ~seqno = in_set t.contig t.above creator seqno

  let add t (r : record) =
    if mem t ~creator:r.creator ~seqno:r.seqno then false
    else begin
      Table.put t.table r;
      t.above <- insert t.contig t.above r.creator r.seqno;
      true
    end

  let dropped t ~creator ~seqno =
    invalid_arg
      (Printf.sprintf "Record.Store: creator %d seq %d is below the floor %d"
         creator seqno (Table.floor t.table creator))

  let find t ~creator ~seqno =
    if not (mem t ~creator ~seqno) then None
    else if seqno <= Table.floor t.table creator then
      dropped t ~creator ~seqno
    else Some (Table.get t.table creator seqno)

  let known t (r : record) = mem t ~creator:r.creator ~seqno:r.seqno

  let first_notice t (r : record) =
    if in_set t.noticed t.marks r.creator r.seqno then false
    else begin
      t.marks <- insert t.noticed t.marks r.creator r.seqno;
      true
    end

  let range_onto t ~creator ~lo ~hi onto =
    if hi > lo && lo < Table.floor t.table creator then
      dropped t ~creator ~seqno:(lo + 1);
    let rec loop seq acc =
      if seq <= lo then acc
      else if mem t ~creator ~seqno:seq then
        loop (seq - 1) (Table.get t.table creator seq :: acc)
      else
        invalid_arg
          (Printf.sprintf "Record.Store.range: creator %d missing seq %d"
             creator seq)
    in
    loop hi onto

  let range t ~creator ~lo ~hi = range_onto t ~creator ~lo ~hi []

  let contiguous t ~creator = t.contig.(creator)
end
