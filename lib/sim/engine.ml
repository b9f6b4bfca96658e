exception
  Deadlock of { time : int; blocked : (string * int) list; note : string }

exception
  Watchdog of {
    time : int;
    limit : int;
    blocked : (string * int) list;
    note : string;
  }

let render_blocked blocked =
  String.concat ", "
    (List.map (fun (name, clock) -> Printf.sprintf "%s@%d" name clock) blocked)

let render_note = function "" -> "" | note -> "; " ^ note

let () =
  Printexc.register_printer (function
    | Deadlock { time; blocked; note } ->
        Some
          (Printf.sprintf "Engine.Deadlock at t=%d (%d blocked): %s%s" time
             (List.length blocked) (render_blocked blocked) (render_note note))
    | Watchdog { time; limit; blocked; note } ->
        Some
          (Printf.sprintf
             "Engine.Watchdog: event at t=%d exceeds max_cycles=%d (%d \
              blocked): %s%s"
             time limit (List.length blocked) (render_blocked blocked)
             (render_note note))
    | _ -> None)

(* Execution-time attribution.  Every simulated cycle a fiber spends is
   charged to exactly one category; [Compute] is the default and protocol
   layers re-scope sections with [with_category].  The set mirrors the
   paper's execution-time breakdowns (computation / protocol overhead /
   idle waiting), refined per platform family. *)
type category =
  | Compute
  | Protocol
  | Net_wait
  | Lock_wait
  | Barrier_wait
  | Diff
  | Twin
  | Mem_stall

let categories =
  [ Compute; Protocol; Net_wait; Lock_wait; Barrier_wait; Diff; Twin; Mem_stall ]

let num_categories = 8

let cat_index = function
  | Compute -> 0
  | Protocol -> 1
  | Net_wait -> 2
  | Lock_wait -> 3
  | Barrier_wait -> 4
  | Diff -> 5
  | Twin -> 6
  | Mem_stall -> 7

let category_name = function
  | Compute -> "compute"
  | Protocol -> "protocol"
  | Net_wait -> "net_wait"
  | Lock_wait -> "lock_wait"
  | Barrier_wait -> "barrier_wait"
  | Diff -> "diff"
  | Twin -> "twin"
  | Mem_stall -> "mem_stall"

let category_of_index = function
  | 0 -> Compute
  | 1 -> Protocol
  | 2 -> Net_wait
  | 3 -> Lock_wait
  | 4 -> Barrier_wait
  | 5 -> Diff
  | 6 -> Twin
  | 7 -> Mem_stall
  | i -> invalid_arg (Printf.sprintf "Engine.category_of_index: %d" i)

type tracer = {
  trace_track : track:int -> name:string -> unit;
  trace_segment : track:int -> cat:category -> start:int -> stop:int -> unit;
  trace_instant : name:string -> track:int -> at:int -> unit;
}

type t = {
  queue : (unit -> unit) Pqueue.t;
  mutable time : int;
  mutable live : int;
  mutable next_fiber_id : int;
  mutable fibers : fiber list; (* all spawned, newest first; suspended ones
                                  (cont <> None) feed deadlock reports *)
  einstr : bool;
  tracer : tracer option;
  mutable in_fiber : bool; (* a fiber's code is running *)
  mutable limit : int; (* [run]'s cycle budget *)
}

and fiber = {
  fid : int;
  fname : string;
  eng : t;
  daemon : bool;
  instr : bool;
  fstart : int;
  acats : int array; (* per-category cycle totals; [||] when not instr *)
  mutable fcat : int; (* index of the current category *)
  mutable seg_start : int; (* clock at which the current trace segment began *)
  mutable fclock : int;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable finished : bool;
}

type _ Effect.t +=
  | Yield : fiber -> unit Effect.t
  | Park : fiber -> unit Effect.t

let create ?(instrument = false) ?tracer () =
  { queue = Pqueue.create ~dummy:ignore; time = 0; live = 0; next_fiber_id = 0;
    fibers = [];
    einstr = instrument || tracer <> None;
    tracer; in_fiber = false; limit = max_int }

let instrumented t = t.einstr

let now t = t.time

let live_fibers t = t.live

let schedule t ~at f =
  let at = Int.max at t.time in
  Pqueue.push t.queue ~time:at f

let clock f = f.fclock
let name f = f.fname
let id f = f.fid
let engine f = f.eng

let[@inline] advance f n =
  if f.instr then f.acats.(f.fcat) <- f.acats.(f.fcat) + n;
  f.fclock <- f.fclock + n

let set_clock f time =
  if time > f.fclock then begin
    if f.instr then f.acats.(f.fcat) <- f.acats.(f.fcat) + (time - f.fclock);
    f.fclock <- time
  end

(* Emit the open trace segment [seg_start, fclock) and start a new one. *)
let flush_segment f =
  (match f.eng.tracer with
  | Some tr when f.fclock > f.seg_start ->
      tr.trace_segment ~track:f.fid
        ~cat:(category_of_index f.fcat)
        ~start:f.seg_start ~stop:f.fclock
  | Some _ | None -> ());
  f.seg_start <- f.fclock

let[@inline] set_category_index f i =
  if i <> f.fcat then begin
    flush_segment f;
    f.fcat <- i
  end

let with_category f cat body =
  if not f.instr then body ()
  else begin
    let saved = f.fcat in
    set_category_index f (cat_index cat);
    match body () with
    | v ->
        set_category_index f saved;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        set_category_index f saved;
        Printexc.raise_with_backtrace e bt
  end

let advance_as f cat n =
  if not f.instr then f.fclock <- f.fclock + n
  else begin
    let saved = f.fcat in
    set_category_index f (cat_index cat);
    advance f n;
    set_category_index f saved
  end

let instant f name =
  match f.eng.tracer with
  | None -> ()
  | Some tr -> tr.trace_instant ~name ~track:f.fid ~at:f.fclock

let breakdown f =
  if not f.instr then []
  else List.map (fun c -> (c, f.acats.(cat_index c))) categories

let attributed_total f = Array.fold_left ( + ) 0 f.acats

let check_attribution f =
  if f.instr then begin
    let total = attributed_total f in
    let elapsed = f.fclock - f.fstart in
    if total <> elapsed then
      failwith
        (Printf.sprintf
           "Engine.check_attribution: fiber %s: categories sum to %d but \
            clock advanced %d cycles"
           f.fname total elapsed)
  end

(* Run a fiber until it next yields, parks or finishes. *)
let[@inline] enter t k =
  t.in_fiber <- true;
  Effect.Deep.continue k ();
  t.in_fiber <- false

let effc : type b. fiber -> b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option
    =
 fun _fiber eff ->
  match eff with
  | Yield f ->
      Some
        (fun k ->
          schedule f.eng ~at:f.fclock (fun () -> enter f.eng k))
  | Park f -> Some (fun k -> f.cont <- Some k)
  | _ -> None

let spawn t ?(daemon = false) ~name ~at body =
  let fiber =
    { fid = t.next_fiber_id; fname = name; eng = t; daemon; instr = t.einstr;
      fstart = at; acats = (if t.einstr then Array.make num_categories 0 else [||]);
      fcat = 0; seg_start = at; fclock = at;
      cont = None; finished = false }
  in
  t.next_fiber_id <- t.next_fiber_id + 1;
  t.fibers <- fiber :: t.fibers;
  (match t.tracer with
  | Some tr -> tr.trace_track ~track:fiber.fid ~name
  | None -> ());
  if not daemon then t.live <- t.live + 1;
  let start () =
    t.in_fiber <- true;
    Effect.Deep.match_with
      (fun () -> body fiber)
      ()
      {
        retc =
          (fun () ->
            if fiber.instr then flush_segment fiber;
            fiber.finished <- true;
            if not daemon then t.live <- t.live - 1);
        exnc =
          (fun e ->
            Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
        effc = (fun eff -> effc fiber eff);
      };
    t.in_fiber <- false
  in
  schedule t ~at start;
  fiber

let blocked_report t =
  List.filter_map
    (fun f ->
      if f.cont = None || f.finished || f.daemon then None
      else Some (f.fname, f.fclock))
    t.fibers
  |> List.sort compare

let run ?max_cycles ?(diag = fun () -> "") t =
  let limit = match max_cycles with Some l -> l | None -> max_int in
  t.limit <- limit;
  t.in_fiber <- false;
  let queue = t.queue in
  (* The inner loop reads the (cached) minimum time and pops just the
     event closure, so draining a same-timestamp batch is a sentinel
     compare, a pop, and a call per event — no option or pair boxing. *)
  let running = ref true in
  while !running do
    let time = Pqueue.min_time_exn queue in
    if time = max_int && Pqueue.is_empty queue then running := false
    else if time > limit then
      raise
        (Watchdog { time; limit; blocked = blocked_report t; note = diag () })
    else begin
      t.time <- time;
      (Pqueue.pop_event queue) ()
    end
  done;
  (* A fiber that never yields (a uniprocessor without synchronization)
     schedules no event past its start: bound its finishing clock too. *)
  if Option.is_some max_cycles then begin
    let last =
      List.fold_left
        (fun a f -> if f.finished && f.fclock > a then f.fclock else a)
        0 t.fibers
    in
    if last > limit then
      raise
        (Watchdog
           { time = last; limit; blocked = blocked_report t; note = diag () })
  end;
  (* Parked daemons never return, so their last open segment is flushed
     here rather than in [retc]. *)
  if t.tracer <> None then
    List.iter (fun f -> if f.cont <> None then flush_segment f) t.fibers;
  if t.live > 0 then
    raise
      (Deadlock { time = t.time; blocked = blocked_report t; note = diag () })

(* Raised into a parked fiber by [release]; nothing else sees it. *)
exception Released

(* A continuation that is dropped without being resumed keeps its fiber
   stack: the collector does not free it.  Unwinding each parked fiber
   frees the stack, so a process that runs many simulations does not
   grow by the stacks of every run's idle daemons. *)
let release t =
  List.iter
    (fun f ->
      match f.cont with
      | None -> ()
      | Some k -> (
          f.cont <- None;
          try Effect.Deep.discontinue k Released with Released -> ()))
    t.fibers

let sync f =
  (* Fast path: if nothing is scheduled before our clock, yielding would be
     a no-op; skip the effect.  [min_time_exn] is a cached sentinel read
     ([max_int] when empty), so the common case is one compare. *)
  if Pqueue.min_time_exn f.eng.queue <= f.fclock then Effect.perform (Yield f)

let wait_until f time =
  set_clock f time;
  sync f

let suspend f = Effect.perform (Park f)

let is_suspended f = f.cont <> None

let resume t f ~at =
  match f.cont with
  | None -> invalid_arg (Printf.sprintf "Engine.resume: fiber %s not suspended" f.fname)
  | Some k ->
      f.cont <- None;
      set_clock f at;
      schedule t ~at:f.fclock (fun () -> enter t k)

(* The resume [resume t f ~at:(now t)] would queue is the very next pop
   when nothing queued is due at or before its time: [schedule] clamps
   every later push to the current time, and equal times pop in push
   order.  So the fiber continues here, with the clock the pop would
   have set and the watchdog the pop would have met, and the order of
   events is unchanged.  The caller must be an engine callback whose
   last action this is: anything it did afterwards would run after the
   fiber instead of before it. *)
let resume_here t f =
  if t.in_fiber then
    invalid_arg
      (Printf.sprintf "Engine.resume_here: fiber %s resumed from inside a fiber"
         f.fname);
  match f.cont with
  | None ->
      invalid_arg
        (Printf.sprintf "Engine.resume_here: fiber %s not suspended" f.fname)
  | Some k ->
      f.cont <- None;
      set_clock f t.time;
      let at = f.fclock in
      if at <= t.limit && Pqueue.min_time_exn t.queue > at then begin
        t.time <- at;
        enter t k
      end
      else schedule t ~at (fun () -> enter t k)
