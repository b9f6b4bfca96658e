(* Failure-atomic checkpoint deltas (DESIGN.md §13).

   A checkpoint of a shared page is maintained as an image plus the
   run-length-encoded delta that brings the image up to the live copy —
   the same encoding as {!Diff}, reused for persistence instead of
   coherence.  Only the changed runs are "written" (counted), so a
   checkpoint costs bytes proportional to what actually changed since
   the last one, not to the number of dirty pages (the FAMS/msync
   sub-page dirty-tracking model: no page write-amplification). *)

module Memory = Shm_memsys.Memory

(* [page_delta ~src ~src_base ~image ~image_base ~words] scans one page,
   copies every run of words where [src] and [image] differ into the
   image, and returns the checkpoint cost in bytes: 0 when the page was
   already clean, else a 16-byte page descriptor plus, per changed run,
   a 4-byte run header and 8 bytes per word — the {!Diff.bytes} layout. *)
let page_delta ~src ~src_base ~image ~image_base ~words =
  Memory.fold_diff_runs src src_base image image_base words ~init:0
    (fun bytes start len ->
      Memory.blit ~src ~src_pos:(src_base + start) ~dst:image
        ~dst_pos:(image_base + start) ~len;
      (if bytes = 0 then 16 else bytes) + 4 + (8 * len))
