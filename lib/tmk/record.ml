type t = {
  creator : int;
  seqno : int;
  vc : Vc.t;
  pages : int list;
  vsum : int;
}

let make ~creator ~seqno ~vc ~pages =
  { creator; seqno; vc; pages; vsum = Vc.sum vc }

(* Wire size.  Interval vector times are delta-encoded against the
   enclosing message (an interval differs from the previously-described
   one in one or two components), so a record costs a fixed 16-byte
   descriptor plus 4 bytes per dirtied page. *)
let bytes r = 16 + (4 * List.length r.pages)

let happened_before a b = (not (Vc.equal a.vc b.vc)) && Vc.dominates b.vc a.vc

let linear_key r = (r.vsum, r.creator, r.seqno)

let compare_linear a b =
  if a.vsum <> b.vsum then Int.compare a.vsum b.vsum
  else if a.creator <> b.creator then Int.compare a.creator b.creator
  else Int.compare a.seqno b.seqno

module Store = struct
  type record = t

  (* Records of one creator, dense by interval index: [by_seq.(s - 1)]
     is record [s], or [absent].  [noticed] holds one byte per index,
     set by the first [first_notice] call for it. *)
  type per_creator = {
    mutable by_seq : record array;
    mutable noticed : Bytes.t;
    mutable contig : int;
  }

  type t = per_creator array

  let absent = { creator = -1; seqno = 0; vc = [||]; pages = []; vsum = 0 }

  (* Creators start with empty arrays: a node pays only for the creators
     it hears from. *)
  let create ~nodes =
    Array.init nodes (fun _ ->
        { by_seq = [||]; noticed = Bytes.empty; contig = 0 })

  let mem_pc pc seqno =
    seqno >= 1
    && seqno <= Array.length pc.by_seq
    && Array.unsafe_get pc.by_seq (seqno - 1) != absent

  let find_pc pc seqno =
    if mem_pc pc seqno then Some pc.by_seq.(seqno - 1) else None

  (* Capacity that covers index [seqno] and at least doubles [cap], so a
     run of appends costs amortized O(1). *)
  let grown cap seqno = max seqno (max 8 (2 * cap))

  let reserve pc seqno =
    let cap = Array.length pc.by_seq in
    if seqno > cap then begin
      let a = Array.make (grown cap seqno) absent in
      Array.blit pc.by_seq 0 a 0 cap;
      pc.by_seq <- a
    end

  let add t (r : record) =
    let pc = t.(r.creator) in
    if mem_pc pc r.seqno then false
    else begin
      reserve pc r.seqno;
      pc.by_seq.(r.seqno - 1) <- r;
      while mem_pc pc (pc.contig + 1) do
        pc.contig <- pc.contig + 1
      done;
      true
    end

  let find t ~creator ~seqno = find_pc t.(creator) seqno

  let known t (r : record) = mem_pc t.(r.creator) r.seqno

  let first_notice t (r : record) =
    let pc = t.(r.creator) in
    let len = Bytes.length pc.noticed in
    if r.seqno > len then begin
      let b = Bytes.make (grown len r.seqno) '\000' in
      Bytes.blit pc.noticed 0 b 0 len;
      pc.noticed <- b
    end;
    if Bytes.get pc.noticed (r.seqno - 1) <> '\000' then false
    else begin
      Bytes.set pc.noticed (r.seqno - 1) '\001';
      true
    end

  let range t ~creator ~lo ~hi =
    let pc = t.(creator) in
    let rec loop seq acc =
      if seq <= lo then acc
      else
        match find_pc pc seq with
        | Some r -> loop (seq - 1) (r :: acc)
        | None ->
            invalid_arg
              (Printf.sprintf "Record.Store.range: creator %d missing seq %d"
                 creator seq)
    in
    loop hi []

  let contiguous t ~creator = t.(creator).contig
end
