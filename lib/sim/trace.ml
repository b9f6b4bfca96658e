type span = {
  s_track : int;
  s_cat : Engine.category;
  s_start : int;
  s_stop : int;
}

type mark = { m_track : int; m_name : string; m_at : int }

type t = {
  mutable tracks : (int * string) list; (* fiber id -> display name *)
  mutable spans : span list; (* accumulated in reverse order *)
  mutable marks : mark list;
}

let create () = { tracks = []; spans = []; marks = [] }

let span_count t = List.length t.spans

let instant_count ?name t =
  match name with
  | None -> List.length t.marks
  | Some n -> List.length (List.filter (fun m -> m.m_name = n) t.marks)

let tracer t =
  {
    Engine.trace_track =
      (fun ~track ~name -> t.tracks <- (track, name) :: t.tracks);
    trace_segment =
      (fun ~track ~cat ~start ~stop ->
        t.spans <- { s_track = track; s_cat = cat;
                     s_start = start; s_stop = stop } :: t.spans);
    trace_instant =
      (fun ~name ~track ~at ->
        t.marks <- { m_track = track; m_name = name; m_at = at } :: t.marks);
  }

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace event format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   One JSON object per line so the output can be validated line-by-line
   ("shmsim trace-check") without a JSON parser.  Timestamps are in
   microseconds of simulated time ([cycles / clock_mhz]); "pid" is always 0
   and "tid" is the fiber id, with a thread_name metadata record per track. *)
let write_chrome t oc ~clock_mhz =
  let us cycles = float_of_int cycles /. clock_mhz in
  let track_list = List.sort compare (List.rev t.tracks) in
  (* Merge spans and instants into one stream sorted by simulated time
     (span time = its start), then by track, so timestamps in the file are
     monotonically non-decreasing. *)
  let events =
    List.rev_map (fun s -> (s.s_start, s.s_track, `Span s)) t.spans
    @ List.rev_map (fun m -> (m.m_at, m.m_track, `Mark m)) t.marks
    |> List.stable_sort (fun (ta, ka, _) (tb, kb, _) ->
           match compare ta tb with 0 -> compare ka kb | c -> c)
  in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if !first then first := false else output_string oc ",\n";
    output_string oc line
  in
  List.iter
    (fun (id, name) ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           id (json_escape name)))
    track_list;
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | `Span s ->
          emit
            (Printf.sprintf
               "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
               (Engine.category_name s.s_cat)
               (Engine.category_name s.s_cat)
               s.s_track (us s.s_start)
               (us (s.s_stop - s.s_start)))
      | `Mark m ->
          emit
            (Printf.sprintf
               "{\"ph\":\"i\",\"name\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\"}"
               (json_escape m.m_name) m.m_track (us m.m_at)))
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_chrome_file t path ~clock_mhz =
  let oc = open_out path in
  Fun.protect
    (fun () -> write_chrome t oc ~clock_mhz)
    ~finally:(fun () -> close_out oc)
