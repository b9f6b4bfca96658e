(** In-memory trace buffer and Chrome-trace JSON writer.

    A [Trace.t] collects the segments and instant events streamed by an
    instrumented {!Engine} (hook it up with [Engine.create
    ~tracer:(Trace.tracer tr) ()]) and renders them in the Chrome trace
    event format, loadable in [chrome://tracing] / Perfetto: one track per
    simulated processor (complete ["ph":"X"] spans labelled with the
    attribution category) plus instant ["ph":"i"] events for faults,
    retransmissions, invalidations and write-notice application.

    The writer emits exactly one JSON object per line, with timestamps
    monotonically non-decreasing, so [shmsim trace-check] can validate the
    file line-by-line without a JSON parser. *)

type t

val create : unit -> t

(** [tracer t] is the {!Engine.tracer} that appends into [t].  Track
    display names are registered automatically as fibers are spawned. *)
val tracer : t -> Engine.tracer

val span_count : t -> int

(** [instant_count ?name t] counts the instant events, only those called
    [name] when given. *)
val instant_count : ?name:string -> t -> int

(** [write_chrome t oc ~clock_mhz] writes the trace as Chrome trace event
    JSON.  Timestamps and durations are microseconds of simulated time:
    [cycles /. clock_mhz]. *)
val write_chrome : t -> out_channel -> clock_mhz:float -> unit

(** [json_escape s] is [s] escaped for a JSON string literal: quote,
    backslash and newline as their escapes, every other control byte as
    [\u00XX]. *)
val json_escape : string -> string

val write_chrome_file : t -> string -> clock_mhz:float -> unit
