(* Host-time attribution at the PARMACS boundary, from outside the
   library.  Every closure of a [Parmacs.ctx] is wrapped, and so are the
   entry and exit of the app's [work]; each wrapper marks a boundary.
   The boundaries split the host timeline into segments:

   - the segment after an operation's entry is charged to that operation
     until the next boundary — which, when the fiber blocks, is some other
     fiber's exit, so the scheduler and protocol work a blocking call
     triggers land on the call that triggered it;
   - the segment after an exit (or a work entry) is the app's own
     computation, [apps];
   - from the start of a run's set-up to the first work entry is [setup],
     and after the last work exit, until [Platform.run] returns, [finish].

   Each segment also holds the cost of one boundary (a clock read plus
   bookkeeping); [calibrate] measures it and [corrected_ns] subtracts it
   per segment. *)

module Parmacs = Shm_parmacs.Parmacs

let apps = 0
let read = 1
let write = 2
let range = 3
let lock = 4
let unlock = 5
let barrier = 6
let compute = 7
let setup = 8
let finish = 9
let idle = 10
let op_names = [| "apps"; "read"; "write"; "range"; "lock"; "unlock"; "barrier"; "compute" |]

type t = {
  ns : int array;  (** raw host ns per state *)
  segs : int array;  (** segments closed per state = entries into it *)
  mutable state : int;
  mutable last : int;
  mutable words : int;  (** shared words moved by read/write/range *)
  mutable live : int;  (** [work] calls in progress *)
  mutable entered : bool;
  mutable setup_rss_mb : float;
      (** largest resident set at a run's first work entry: the OCaml heap
          plus the Bigarray-backed shared images *)
}

let create () =
  {
    ns = Array.make (idle + 1) 0;
    segs = Array.make (idle + 1) 0;
    state = idle;
    last = 0;
    words = 0;
    live = 0;
    entered = false;
    setup_rss_mb = 0.0;
  }

let switch t next =
  let now = Host.now () in
  let s = t.state in
  t.ns.(s) <- t.ns.(s) + (now - t.last);
  t.segs.(s) <- t.segs.(s) + 1;
  t.last <- now;
  t.state <- next

(* Host ns one boundary adds to the segment it closes. *)
let calibrate () =
  let t = create () in
  let n = 200_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Host.now () in
    for i = 1 to n do
      switch t (i land 1)
    done;
    best := Float.min !best (float_of_int (Host.now () - t0) /. float_of_int n)
  done;
  !best

let corrected_ns t ~cal k =
  Float.max 0.0 (float_of_int t.ns.(k) -. (cal *. float_of_int t.segs.(k)))

let wrap t (c : Parmacs.ctx) : Parmacs.ctx =
  let op k f x =
    switch t k;
    f x;
    switch t apps
  in
  let scalar k f x =
    t.words <- t.words + 1;
    op k f x
  in
  let ranged f addr buf pos len =
    switch t range;
    t.words <- t.words + len;
    f addr buf pos len;
    switch t apps
  in
  {
    c with
    read =
      (fun a ->
        switch t read;
        t.words <- t.words + 1;
        let v = c.read a in
        switch t apps;
        v);
    write =
      (fun a v ->
        switch t write;
        t.words <- t.words + 1;
        c.write a v;
        switch t apps);
    readf = scalar read c.readf;
    writef = scalar write c.writef;
    readi = scalar read c.readi;
    writei = scalar write c.writei;
    range =
      {
        read_fs = ranged c.range.read_fs;
        write_fs = ranged c.range.write_fs;
        read_is = ranged c.range.read_is;
        write_is = ranged c.range.write_is;
      };
    lock = op lock c.lock;
    unlock = op unlock c.unlock;
    barrier = op barrier c.barrier;
    compute = op compute c.compute;
  }

let wrap_app t (app : Parmacs.app) =
  {
    app with
    work =
      (fun ctx ->
        if not t.entered then begin
          t.entered <- true;
          t.setup_rss_mb <- Float.max t.setup_rss_mb (Host.status_mb "VmRSS")
        end;
        t.live <- t.live + 1;
        switch t apps;
        app.work (wrap t ctx);
        t.live <- t.live - 1;
        switch t (if t.live = 0 then finish else apps));
  }

(* Open a run's [setup] segment; the gap since the previous run is not
   charged anywhere. *)
let begin_run t =
  t.state <- setup;
  t.last <- Host.now ();
  t.entered <- false;
  t.live <- 0

let end_run t = switch t idle
