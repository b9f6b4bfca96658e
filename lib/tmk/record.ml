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

(* Per creator, records dense by interval index: [t.(c).(s - 1)] is
   record [s] of creator [c], or [absent]. *)
module Table = struct
  type record = t

  type t = record array array

  let absent = { creator = -1; seqno = 0; pages = []; vsum = 0 }

  let create ~nodes =
    if nodes > max_nodes then
      invalid_arg (Printf.sprintf "Record.Table: %d nodes > %d" nodes max_nodes);
    Array.make nodes [||]

  (* [get t c s] for an index the caller knows is filled. *)
  let get t c s = Array.unsafe_get t.(c) (s - 1)

  (* Store [r] unless its slot is filled: every node holds the same value
     for one (creator, seqno).  Growth at least doubles, so a run of
     appends costs amortized O(1). *)
  let put t (r : record) =
    let a = t.(r.creator) in
    let cap = Array.length a in
    if r.seqno > cap then begin
      let b = Array.make (max r.seqno (max 8 (2 * cap))) absent in
      Array.blit a 0 b 0 cap;
      b.(r.seqno - 1) <- r;
      t.(r.creator) <- b
    end
    else if a.(r.seqno - 1) == absent then a.(r.seqno - 1) <- r
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

  let create table =
    let n = Array.length table in
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

  let find t ~creator ~seqno =
    if mem t ~creator ~seqno then Some (Table.get t.table creator seqno)
    else None

  let known t (r : record) = mem t ~creator:r.creator ~seqno:r.seqno

  let first_notice t (r : record) =
    if in_set t.noticed t.marks r.creator r.seqno then false
    else begin
      t.marks <- insert t.noticed t.marks r.creator r.seqno;
      true
    end

  let range t ~creator ~lo ~hi =
    let rec loop seq acc =
      if seq <= lo then acc
      else if mem t ~creator ~seqno:seq then
        loop (seq - 1) (Table.get t.table creator seq :: acc)
      else
        invalid_arg
          (Printf.sprintf "Record.Store.range: creator %d missing seq %d"
             creator seq)
    in
    loop hi []

  let contiguous t ~creator = t.contig.(creator)
end
