module Engine = Shm_sim.Engine
module Lifecycle = Shm_sim.Lifecycle
module Counters = Shm_stats.Counters
module Hw_sync = Shm_memsys.Hw_sync
module Memory = Shm_memsys.Memory
module Private_cache = Shm_memsys.Private_cache
module Fabric = Shm_net.Fabric
module Parmacs = Shm_parmacs.Parmacs

(* Backstop for fault-mode runs with no explicit --max-cycles: generous
   enough for any paper-scale run (~1e10 cycles), small enough that a
   retransmission livelock surfaces as Engine.Watchdog instead of an
   apparent hang. *)
let default_fault_watchdog = 200_000_000_000

(* The processor runner: every machine is a tree of coherence domains,
   and every processor of every machine is built here.  A software-DSM
   root spans message-connected memory nodes, one per root participant
   (a bare uniprocessor node, or a tree of hardware coherence domains
   sharing that node's memory — the HS design of paper Section 3
   generalized to any depth).  Without a DSM root the whole machine is
   one memory node: a flat hardware cabinet (SGI, AH) or, with no
   engine at all, the plain uniprocessor.

   Every shared access takes the same sequence of optional stages: the
   DSM root's guard behind its software-TLB rights byte, the
   processor's chain of hardware-domain guards, the node's private
   cache, then the load or store.  Locks go to the outermost engine:
   the DSM root, else the cabinet's domain.  Barriers ascend the
   processor's hardware levels last-arriver style, each through its
   domain's own sync, ending in the DSM root's arrival or, in a
   cabinet, in nothing.

   The mount contract per kind ({!Shm_proto}): the DSM root gets the
   fabric, one memory per node and the crash lifecycle.
   A hardware domain gets its node's memory, its member count and a
   private slice of the sync region above the application's shared
   space (domain [j] in preorder sits at
   [shared_words + j * Hw_sync.region_words]), so sibling and nested
   domains on one memory never collide on lock/barrier words; its
   engine builds the domain's one {!Hw_sync.t} there, with the timing
   profile the topology chose for it. *)

type child = Procs of int | Dom of dom

and dom = {
  d_mount : Shm_proto.hw_ctx -> Shm_proto.hw_instance;
  d_profile : Shm_proto.hw_profile;
  d_children : child list;
}

(* A software-DSM root over its nodes (each a bare processor or a tree
   of hardware domains), or one memory node. *)
type machine =
  | Dsm of (Shm_proto.sdsm_ctx -> Shm_proto.sdsm_instance) * child list
  | Node of child

let rec count_doms = function
  | Procs _ -> 0
  | Dom d -> List.fold_left (fun a c -> a + count_doms c) 1 d.d_children

(* One processor: its memory node, its index within the node, and the
   chain of (domain, member-index) pairs from its leaf domain outward. *)
type cpu = {
  top : int;
  idx : int;
  chain : (Shm_proto.hw_instance * int) array;
}

let run ?(faults = Fabric.no_faults) ?(crash = Lifecycle.none) ?max_cycles
    ~instrument ~name ~clock_mhz ~fabric_of ~cache_cfg ~eager
    machine (app : Parmacs.app) ~nprocs =
  let eng = Instrument.engine instrument in
  let counters = Counters.create () in
  let dsm_mount, nodes =
    match machine with
    | Dsm (mount, children) ->
        ( Some mount,
          List.concat_map
            (function
              | Procs n -> List.init n (fun _ -> Procs 1) | Dom d -> [ Dom d ])
            children )
    | Node node -> (None, [ node ])
  in
  let nodes = Array.of_list nodes in
  let ntops = Array.length nodes in
  let no_hw =
    Array.for_all (function Procs _ -> true | Dom _ -> false) nodes
  in
  (* Crash-free runs never construct a lifecycle. *)
  let lifecycle =
    if Lifecycle.active crash then
      Some (Lifecycle.create eng counters crash ~nodes:ntops)
    else None
  in
  (* Round up to whole pages under a DSM root: twins and diffs work
     page-at-a-time. *)
  let shared_words =
    match dsm_mount with
    | Some _ ->
        let pw = Memory.page_words in
        (app.shared_words + pw - 1) / pw * pw
    | None -> app.shared_words
  in
  (* Every DSM node maps one shared initial image copy-on-write: a page
     it only reads is the image's page, and its first write copies that
     page alone. *)
  let memories =
    let words node = shared_words + (count_doms node * Hw_sync.region_words) in
    match dsm_mount with
    | None ->
        let mem = Memory.create ~words:(words nodes.(0)) in
        app.init mem;
        [| mem |]
    | Some _ ->
        let image = Memory.create ~words:shared_words in
        app.init image;
        Memory.clones ~src:image ~len:shared_words (Array.map words nodes)
  in
  let dsm =
    Option.map
      (fun mount ->
        mount
          {
            Shm_proto.eng;
            counters;
            fabric = { ((Option.get fabric_of) ()) with Fabric.faults };
            nodes = ntops;
            shared_words;
            memories;
            eager_lock_hints = (if eager then app.eager_lock_hints else []);
            lifecycle;
          })
      dsm_mount
  in
  let node_levels = Array.make ntops [] in
  let cpus = ref [] and next_p = ref 0 in
  Array.iteri
    (fun i node ->
      let next_c = ref 0 and next_j = ref 0 in
      let register chain =
        let cpu = { top = i; idx = !next_c; chain = Array.of_list chain } in
        cpus := cpu :: !cpus;
        incr next_p;
        incr next_c
      in
      let rec mount_dom ~above { d_mount; d_profile; d_children } =
        let j = !next_j in
        incr next_j;
        let expected =
          List.fold_left
            (fun a c -> a + match c with Procs n -> n | Dom _ -> 1)
            0 d_children
        in
        let lv =
          d_mount
            {
              Shm_proto.eng;
              counters;
              nodes = expected;
              memory = memories.(i);
              sync_base = shared_words + (j * Hw_sync.region_words);
              profile = d_profile;
            }
        in
        node_levels.(i) <- lv :: node_levels.(i);
        List.fold_left
          (fun m c ->
            match c with
            | Procs n ->
                for k = 0 to n - 1 do
                  register ((lv, m + k) :: above)
                done;
                m + n
            | Dom d' ->
                mount_dom ~above:((lv, m) :: above) d';
                m + 1)
          0 d_children
        |> ignore
      in
      match node with
      | Procs n ->
          for _ = 1 to n do
            register []
          done
      | Dom d -> mount_dom ~above:[] d)
    nodes;
  (* The topology trimmed the machine to [nprocs] before the run. *)
  assert (!next_p = nprocs);
  (* Private caches on the nodes of machines without hardware domains:
     the flat software-DSM cluster and the uniprocessor. *)
  let caches =
    Array.map
      (fun _ ->
        if no_hw then Option.map Private_cache.create cache_cfg else None)
      nodes
  in
  Option.iter
    (fun d ->
      d.Shm_proto.set_page_hook (fun ~node ~page ->
          let addr = page * Memory.page_words and words = Memory.page_words in
          (match caches.(node) with
          | Some pc -> Private_cache.invalidate_range pc ~addr ~words
          | None -> ());
          List.iter
            (fun lv -> lv.Shm_proto.invalidate_range ~addr ~words)
            node_levels.(node)))
    dsm;
  Option.iter (fun d -> d.Shm_proto.start ()) dsm;
  (* Hierarchical barriers, the HS last-arriver pattern at every level:
     each domain's own hardware barrier, whose last direct participant
     ascends one level (ultimately doing the DSM root's arrival, or
     nothing at a cabinet's outermost level) before it bumps the
     generation word and wakes the domain's waiters.  A processor's
     levels are chained once, when its context is built, so an arrival
     allocates no continuation. *)
  let hier_barrier f chain outer =
    Array.fold_right
      (fun ((lv : Shm_proto.hw_instance), m) up b ->
        Hw_sync.barrier lv.sync ~last:up f ~cpu:m b)
      chain outer
  in
  let context f p { top; chain; _ } =
    let mem = memories.(top) and pc = caches.(top) in
    (* Software-TLB fast path: one byte load decides whether the DSM
       guard call can be skipped (page readable / writable with the twin
       in place).  The engine keeps the byte current on every
       transition, so the fast path is exactly the guard's no-op
       branch. *)
    let tlb =
      Option.map (fun d -> (d, d.Shm_proto.access_rights ~node:top)) dsm
    in
    (* The full stage sequence, inlined into each accessor that uses it. *)
    let[@inline] rguard addr =
      (match tlb with
      | Some (d, rights)
        when Bytes.unsafe_get rights (addr lsr Memory.page_shift) = '\000' ->
          d.Shm_proto.read_guard f ~node:top addr
      | _ -> ());
      (match chain with
      | [||] -> ()
      | [| (h, m) |] -> h.Shm_proto.read_guard f ~node:m addr
      | c ->
          for k = Array.length c - 1 downto 0 do
            let h, m = Array.unsafe_get c k in
            h.Shm_proto.read_guard f ~node:m addr
          done);
      match pc with Some pc -> Private_cache.read pc f addr | None -> ()
    in
    (* Writes run the hardware transactions first, leaf outward (they
       can yield), the DSM guard second, the store immediately after: a
       same-node release yielding in between would otherwise close the
       interval and lose this write from its diff. *)
    let[@inline] wguard addr =
      (match chain with
      | [||] -> ()
      | [| (h, m) |] -> h.Shm_proto.write_guard f ~node:m addr
      | c ->
          for k = 0 to Array.length c - 1 do
            let h, m = Array.unsafe_get c k in
            h.Shm_proto.write_guard f ~node:m addr
          done);
      (match tlb with
      | Some (d, rights)
        when Bytes.unsafe_get rights (addr lsr Memory.page_shift) <> '\002' ->
          d.Shm_proto.write_guard f ~node:top addr
      | _ -> ());
      match pc with Some pc -> Private_cache.write pc f addr | None -> ()
    in
    let fcell = { Memory.v = 0.0 } and icell = ref 0 in
    (* The accessors are specialized when the context is built: the two
       hot shapes — a flat cabinet's processor and a flat DSM node — get
       closures holding exactly their one stage, every other shape runs
       the full sequence.  (A closure passed to a generator would cost
       an indirect call per access.) *)
    let read, write, readf, writef, readi, writei =
      match (tlb, chain, pc) with
      | None, [| (h, m) |], None ->
          let rg = h.Shm_proto.read_guard and wg = h.Shm_proto.write_guard in
          ( (fun addr -> rg f ~node:m addr; Memory.get mem addr),
            (fun addr v -> wg f ~node:m addr; Memory.set mem addr v),
            (fun addr -> rg f ~node:m addr; Memory.load_float mem addr fcell),
            (fun addr -> wg f ~node:m addr; Memory.store_float mem addr fcell),
            (fun addr -> rg f ~node:m addr; icell := Memory.get_int mem addr),
            (fun addr -> wg f ~node:m addr; Memory.set_int mem addr !icell) )
      | Some (d, rights), [||], Some pc ->
          let[@inline] rg addr =
            if Bytes.unsafe_get rights (addr lsr Memory.page_shift) = '\000'
            then d.Shm_proto.read_guard f ~node:top addr;
            Private_cache.read pc f addr
          in
          let[@inline] wg addr =
            if Bytes.unsafe_get rights (addr lsr Memory.page_shift) <> '\002'
            then d.Shm_proto.write_guard f ~node:top addr;
            Private_cache.write pc f addr
          in
          ( (fun addr -> rg addr; Memory.get mem addr),
            (fun addr v -> wg addr; Memory.set mem addr v),
            (fun addr -> rg addr; Memory.load_float mem addr fcell),
            (fun addr -> wg addr; Memory.store_float mem addr fcell),
            (fun addr -> rg addr; icell := Memory.get_int mem addr),
            (fun addr -> wg addr; Memory.set_int mem addr !icell) )
      | _ ->
          ( (fun addr -> rguard addr; Memory.get mem addr),
            (fun addr v -> wguard addr; Memory.set mem addr v),
            (fun addr -> rguard addr; Memory.load_float mem addr fcell),
            (fun addr -> wguard addr; Memory.store_float mem addr fcell),
            (fun addr -> rguard addr; icell := Memory.get_int mem addr),
            (fun addr -> wguard addr; Memory.set_int mem addr !icell) )
    in
    (* Locks go to the outermost engine: the DSM root at this node,
       else the cabinet's domain at this processor's member index.  The
       plain uniprocessor has nothing to synchronize. *)
    let lock, unlock, barrier =
      match (dsm, chain) with
      | Some d, _ ->
          ( (fun l -> d.Shm_proto.acquire f ~node:top ~lock:l),
            (fun l -> d.Shm_proto.release f ~node:top ~lock:l),
            hier_barrier f chain (fun b ->
                d.Shm_proto.barrier_arrive f ~node:top ~id:b) )
      | None, [||] -> (ignore, ignore, ignore)
      | None, _ ->
          let lv, m = chain.(Array.length chain - 1) in
          ( (fun l -> Hw_sync.lock lv.Shm_proto.sync f ~cpu:m l),
            (fun l -> Hw_sync.unlock lv.Shm_proto.sync f ~cpu:m l),
            hier_barrier f chain ignore )
    in
    let ctx =
      {
        Parmacs.id = p;
        nprocs;
        read;
        write;
        fcell;
        readf;
        writef;
        icell;
        readi;
        writei;
        range =
          Parmacs.per_word_range ~fcell ~readf ~writef ~icell ~readi ~writei;
        lock;
        unlock;
        barrier;
        compute = (fun n -> Engine.advance f n);
        clock = (fun () -> Engine.clock f);
      }
    in
    (* With a crash policy armed, every shared-memory and
       synchronization operation first gates on the node's liveness: a
       crashed node's processors park at their next shared access (the
       failure-atomicity boundary) and resume at the restart cycle,
       after the engine's rejoin hooks ran.  Crash-free runs keep the
       ungated closures above. *)
    match lifecycle with
    | None -> ctx
    | Some lc ->
        let g () = Lifecycle.gate lc f ~node:top in
        let gated op x =
          g ();
          op x
        in
        let read addr =
          g ();
          read addr
        and write addr v =
          g ();
          write addr v
        in
        let readf = gated readf and writef = gated writef in
        let readi = gated readi and writei = gated writei in
        {
          ctx with
          Parmacs.read;
          write;
          readf;
          writef;
          readi;
          writei;
          range =
          Parmacs.per_word_range ~fcell ~readf ~writef ~icell ~readi ~writei;
          lock = gated lock;
          unlock = gated unlock;
          barrier = gated barrier;
        }
  in
  let hierarchy = Option.is_some dsm && not no_hw in
  let ends = Array.make nprocs 0 in
  let fibers =
    Array.of_list (List.rev !cpus)
    |> Array.mapi (fun p cpu ->
           let fiber_name =
             if hierarchy then Printf.sprintf "n%dc%d" cpu.top cpu.idx
             else Printf.sprintf "cpu%d" p
           in
           Engine.spawn eng ~name:fiber_name ~at:0 (fun f ->
               app.work (context f p cpu);
               ends.(p) <- Engine.clock f))
  in
  Option.iter Lifecycle.start lifecycle;
  let max_cycles =
    match max_cycles with
    | Some _ -> max_cycles
    | None ->
        if Fabric.faults_active faults || Option.is_some lifecycle then
          Some default_fault_watchdog
        else None
  in
  (* Diagnostics distinguish "blocked on a crashed peer" from a genuine
     deadlock: the lifecycle's liveness note rides along with the
     pending-retransmission summary in every blocked-fiber report. *)
  let diag =
    Option.map
      (fun d () ->
        let base = d.Shm_proto.retx_note () in
        match lifecycle with
        | None -> base
        | Some lc ->
            let ln = Lifecycle.note lc in
            if base = "" then ln else base ^ "; " ^ ln)
      dsm
  in
  (* The engine is dropped after this run: release its parked fibers
     once the report is built, or their stacks outlive it. *)
  Fun.protect ~finally:(fun () -> Engine.release eng) @@ fun () ->
  Engine.run ?max_cycles ?diag eng;
  Option.iter (fun (d : Shm_proto.sdsm_instance) -> d.check_invariants ()) dsm;
  Array.iter
    (List.iter (fun lv -> lv.Shm_proto.check_invariants ()))
    node_levels;
  Instrument.finish instrument counters fibers;
  List.iter (fun (k, v) -> Counters.add counters k v) (app.stats ());
  {
    Report.platform = name;
    app = app.name;
    nprocs;
    cycles = Array.fold_left max 0 ends;
    clock_mhz;
    checksum = Parmacs.checksum_of memories.(0) app;
    counters = Counters.to_list counters;
  }
