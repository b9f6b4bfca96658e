(** Named application instances at three problem scales, shared by the
    CLI, the examples and the benchmark harness. *)

type scale = Quick | Default | Paper

val scale_of_string : string -> scale option

val scale_name : scale -> string

(** Canonical application names: ["sor"], ["sor-square"], ["sor-touchall"],
    ["tsp"], ["tsp-small"], ["water"], ["m-water"], ["ilink-clp"],
    ["ilink-bad"], the sharing-pattern microbenchmarks ["migratory"],
    ["producer-consumer"], ["false-sharing"], ["read-mostly"], and the
    serving workload ["kv"]. *)
val names : string list

(** [app ~scale ?params name] builds a fresh instance (one per run —
    DESIGN.md §8).  [params] are per-app [key, value] overrides layered
    on top of the scale defaults; each app declares its known keys
    (e.g. sor: rows/cols/iters; tsp: cities; water: molecules/steps;
    ilink: iters/scale; patterns: rounds/words/compute; kv:
    keys/zipf/get-ratio/requests/shards/mean-gap/service/seed).  With
    [nprocs], an app that lays out per-processor slots (sor, water,
    ilink, the patterns) refuses a run on more processors than its
    [slots] before any platform is built.
    @raise Invalid_argument for an unknown name, an unknown key, an
    unparsable value, or [nprocs] beyond the app's slots. *)
val app :
  scale:scale ->
  ?params:(string * string) list ->
  ?nprocs:int ->
  string ->
  Shm_parmacs.Parmacs.app

(** [kv ~scale ?params ()] builds the KV store with its observation
    handle exposed, for the differential harness and the benchmark's
    latency tables.  Same parameter keys as [app ~scale "kv"]. *)
val kv :
  scale:scale -> ?params:(string * string) list -> unit -> Kvstore.t
