type t = { mutable next : int }

let create () = { next = 0 }

let alloc t words =
  let base = t.next in
  t.next <- base + words;
  base

let alloc_aligned t words ~align =
  let base = (t.next + align - 1) / align * align in
  t.next <- base + words;
  base

let size t = t.next

let check_slots ~app ~slots nprocs =
  if nprocs > slots then
    invalid_arg
      (Printf.sprintf
         "app %S lays out %d per-processor slots, too few for %d processors \
          (raise them with --slots %d)"
         app slots nprocs nprocs)
