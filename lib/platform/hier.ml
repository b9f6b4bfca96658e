module Engine = Shm_sim.Engine
module Lifecycle = Shm_sim.Lifecycle
module Waitq = Shm_sim.Waitq
module Counters = Shm_stats.Counters
module Hw_sync = Shm_memsys.Hw_sync
module Memory = Shm_memsys.Memory
module Private_cache = Shm_memsys.Private_cache
module Fabric = Shm_net.Fabric
module Parmacs = Shm_parmacs.Parmacs

let page_words = 512

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
   cache, then the load or store.  Synchronization goes to the
   outermost engine; barriers ascend the hardware levels below it
   last-arriver style.

   The mount contract per hardware domain: the domain's engine gets the
   node's memory and a private slice of the sync region above the
   application's shared space (domain [j] in preorder sits at
   [shared_words + j * Hw_sync.region_words]), so sibling and nested
   domains on one memory never collide on lock/barrier words.  A
   domain at the root mounts with the host's bus profile, nested ones
   with [Hs_node_bus]. *)

type child = Procs of int | Dom of dom
and dom = { d_engine : (module Shm_proto.ENGINE); d_children : child list }

let rec count_doms = function
  | Procs _ -> 0
  | Dom d -> List.fold_left (fun a c -> a + count_doms c) 1 d.d_children

(* One mounted hardware domain. *)
type level = {
  inst : Shm_proto.instance;
  expected : int; (* direct participants: cpus + sub-domains *)
  sync_base : int; (* this domain's slice of the sync region *)
  waitqs : (int, Waitq.t) Hashtbl.t; (* per-barrier-id wait queues *)
}

(* One processor: its memory node, its index within the node, and the
   chain of (domain, member-index) pairs from its leaf domain outward. *)
type cpu = { top : int; idx : int; chain : (level * int) array }

(* A processor's hardware stages, specialized for the common depths. *)
type hw_stages =
  | No_hw
  | Leaf of Shm_proto.instance * int
  | Chain of (Shm_proto.instance * int) array

let run ?(faults = Fabric.no_faults) ?(crash = Lifecycle.none) ?max_cycles
    ~instrument ~name ~clock_mhz ~fabric_of ~cache_cfg ~bus_profile ~eager
    root (app : Parmacs.app) ~nprocs =
  let eng = Instrument.engine instrument in
  let counters = Counters.create () in
  let dsm_engine, nodes =
    match root with
    | Dom { d_engine = (module E : Shm_proto.ENGINE); d_children }
      when E.kind = Shm_proto.Sdsm ->
        ( Some (module E : Shm_proto.ENGINE),
          List.concat_map
            (function
              | Procs n -> List.init n (fun _ -> Procs 1) | Dom d -> [ Dom d ])
            d_children )
    | _ -> (None, [ root ])
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
    match dsm_engine with
    | Some _ -> (app.shared_words + page_words - 1) / page_words * page_words
    | None -> app.shared_words
  in
  let memories =
    Array.map
      (fun node ->
        Memory.create
          ~words:(shared_words + (count_doms node * Hw_sync.region_words)))
      nodes
  in
  if ntops = 1 then app.init memories.(0)
  else begin
    let image = Memory.create ~words:shared_words in
    app.init image;
    Array.iter
      (fun m ->
        Memory.blit ~src:image ~src_pos:0 ~dst:m ~dst_pos:0 ~len:shared_words)
      memories
  end;
  let dsm =
    Option.map
      (fun (module E : Shm_proto.ENGINE) ->
        E.mount
          {
            Shm_proto.eng;
            counters;
            fabric = { ((Option.get fabric_of) ()) with Fabric.faults };
            nodes = ntops;
            page_words;
            shared_words;
            memories;
            eager_lock_hints = (if eager then app.eager_lock_hints else []);
            hw_profile = None;
            lifecycle;
          })
      dsm_engine
  in
  let levels = ref [] in
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
      let rec mount_dom ~above { d_engine = (module D : Shm_proto.ENGINE);
                                 d_children } =
        let j = !next_j in
        incr next_j;
        let expected =
          List.fold_left
            (fun a c -> a + match c with Procs n -> n | Dom _ -> 1)
            0 d_children
        in
        let sync_base = shared_words + (j * Hw_sync.region_words) in
        let inst =
          D.mount
            {
              Shm_proto.eng;
              counters;
              fabric = Fabric.crossbar_sim (* unused: hardware levels are wired *);
              nodes = expected;
              page_words;
              shared_words = sync_base;
              memories = [| memories.(i) |];
              eager_lock_hints = [];
              hw_profile =
                Some
                  (if Option.is_none dsm then bus_profile
                   else Shm_proto.Hs_node_bus);
              lifecycle = None;
            }
        in
        if Option.is_some dsm && Option.is_none inst.Shm_proto.rmw then
          invalid_arg
            (Printf.sprintf
               "platform %S: engine %S provides no atomic rmw and cannot \
                anchor a hierarchical barrier level"
               name D.name);
        let lv = { inst; expected; sync_base; waitqs = Hashtbl.create 8 } in
        levels := lv :: !levels;
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
  if !next_p <> nprocs then
    invalid_arg
      (Printf.sprintf
         "platform %S: topology provides %d processors but the run asked \
          for %d"
         name !next_p nprocs);
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
          let addr = page * page_words in
          (match caches.(node) with
          | Some pc -> Private_cache.invalidate_range pc ~addr ~words:page_words
          | None -> ());
          List.iter
            (fun lv ->
              Option.iter
                (fun iv -> iv ~addr ~words:page_words)
                lv.inst.Shm_proto.invalidate_range)
            node_levels.(node)))
    dsm;
  Option.iter (fun d -> d.Shm_proto.start ()) dsm;
  List.iter (fun lv -> lv.inst.Shm_proto.start ()) (List.rev !levels);
  (* Hierarchical barriers, the HS last-arriver pattern at every level:
     an on-domain counter in the domain's sync-region slice; the last
     direct participant to arrive ascends one level (ultimately doing
     the outermost engine's arrival), then on the way back down bumps
     the generation word and wakes the domain's waiters, each of which
     re-reads the generation through its own level's coherence. *)
  let counter_addr lv b = lv.sync_base + Hw_sync.max_locks + b in
  let gen_addr lv b =
    lv.sync_base + Hw_sync.max_locks + Hw_sync.max_barriers + b
  in
  let waitq_of lv b =
    match Hashtbl.find_opt lv.waitqs b with
    | Some wq -> wq
    | None ->
        let wq = Waitq.create eng in
        Hashtbl.add lv.waitqs b wq;
        wq
  in
  let hier_barrier f chain outer b =
    Engine.with_category f Engine.Barrier_wait @@ fun () ->
    let rec arrive k =
      if k >= Array.length chain then outer b
      else begin
        let lv, m = chain.(k) in
        let rmw = Option.get lv.inst.Shm_proto.rmw in
        let arrived =
          Int64.to_int (rmw f ~node:m (counter_addr lv b) Int64.succ) + 1
        in
        if arrived = lv.expected then begin
          ignore (rmw f ~node:m (counter_addr lv b) (fun _ -> 0L));
          arrive (k + 1);
          ignore (rmw f ~node:m (gen_addr lv b) Int64.succ);
          ignore (Waitq.wake_all (waitq_of lv b) ~at:(Engine.clock f))
        end
        else begin
          Waitq.wait f (waitq_of lv b);
          lv.inst.Shm_proto.read_guard f ~node:m (gen_addr lv b)
        end
      end
    in
    arrive 0
  in
  let dsm_tlb =
    Option.map
      (fun d ->
        match d.Shm_proto.access_rights with
        | Some rights_of -> (d, rights_of)
        | None ->
            invalid_arg
              (Printf.sprintf
                 "platform %S: engine %S provides no page table for the \
                  software-TLB fast path"
                 name d.Shm_proto.i_name))
      dsm
  in
  let shift = match dsm with Some d -> d.Shm_proto.page_shift | None -> 0 in
  assert (shift >= 0);
  let context f p { top; chain; _ } =
    let mem = memories.(top) and pc = caches.(top) in
    (* Software-TLB fast path: one byte load decides whether the DSM
       guard call can be skipped (page readable / writable with the twin
       in place).  The engine keeps the byte current on every
       transition, so the fast path is exactly the guard's no-op
       branch. *)
    let tlb = Option.map (fun (d, rights) -> (d, rights ~node:top)) dsm_tlb in
    let hw =
      match chain with
      | [||] -> No_hw
      | [| (lv, m) |] -> Leaf (lv.inst, m)
      | c -> Chain (Array.map (fun (lv, m) -> (lv.inst, m)) c)
    in
    (* The full stage sequence, inlined into each accessor that uses it. *)
    let[@inline] rguard addr =
      (match tlb with
      | Some (d, rights) when Bytes.unsafe_get rights (addr lsr shift) = '\000'
        ->
          d.Shm_proto.read_guard f ~node:top addr
      | _ -> ());
      (match hw with
      | No_hw -> ()
      | Leaf (h, m) -> h.Shm_proto.read_guard f ~node:m addr
      | Chain c ->
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
      (match hw with
      | No_hw -> ()
      | Leaf (h, m) -> h.Shm_proto.write_guard f ~node:m addr
      | Chain c ->
          for k = 0 to Array.length c - 1 do
            let h, m = Array.unsafe_get c k in
            h.Shm_proto.write_guard f ~node:m addr
          done);
      (match tlb with
      | Some (d, rights) when Bytes.unsafe_get rights (addr lsr shift) <> '\002'
        ->
          d.Shm_proto.write_guard f ~node:top addr
      | _ -> ());
      match pc with Some pc -> Private_cache.write pc f addr | None -> ()
    in
    let fcell = ref 0.0 and icell = ref 0 in
    (* The accessors are specialized when the context is built: the two
       hot shapes — a flat cabinet's processor and a flat DSM node — get
       closures holding exactly their one stage, every other shape runs
       the full sequence.  (A closure passed to a generator would cost
       an indirect call per access.) *)
    let read, write, readf, writef, readi, writei =
      match (tlb, hw, pc) with
      | None, Leaf (h, m), None ->
          let rg = h.Shm_proto.read_guard and wg = h.Shm_proto.write_guard in
          ( (fun addr -> rg f ~node:m addr; Memory.get mem addr),
            (fun addr v -> wg f ~node:m addr; Memory.set mem addr v),
            (fun addr -> rg f ~node:m addr; fcell := Memory.get_float mem addr),
            (fun addr -> wg f ~node:m addr; Memory.set_float mem addr !fcell),
            (fun addr -> rg f ~node:m addr; icell := Memory.get_int mem addr),
            (fun addr -> wg f ~node:m addr; Memory.set_int mem addr !icell) )
      | Some (d, rights), No_hw, Some pc ->
          let[@inline] rg addr =
            if Bytes.unsafe_get rights (addr lsr shift) = '\000' then
              d.Shm_proto.read_guard f ~node:top addr;
            Private_cache.read pc f addr
          in
          let[@inline] wg addr =
            if Bytes.unsafe_get rights (addr lsr shift) <> '\002' then
              d.Shm_proto.write_guard f ~node:top addr;
            Private_cache.write pc f addr
          in
          ( (fun addr -> rg addr; Memory.get mem addr),
            (fun addr v -> wg addr; Memory.set mem addr v),
            (fun addr -> rg addr; fcell := Memory.get_float mem addr),
            (fun addr -> wg addr; Memory.set_float mem addr !fcell),
            (fun addr -> rg addr; icell := Memory.get_int mem addr),
            (fun addr -> wg addr; Memory.set_int mem addr !icell) )
      | _ ->
          ( (fun addr -> rguard addr; Memory.get mem addr),
            (fun addr v -> wguard addr; Memory.set mem addr v),
            (fun addr -> rguard addr; fcell := Memory.get_float mem addr),
            (fun addr -> wguard addr; Memory.set_float mem addr !fcell),
            (fun addr -> rguard addr; icell := Memory.get_int mem addr),
            (fun addr -> wguard addr; Memory.set_int mem addr !icell) )
    in
    (* Ranges are batched when at most one coherence stage validates
       them; the guard-then-store interleaving of a longer chain (and an
       engine asking for it) falls back to the literal per-word loop. *)
    let runs =
      let[@inline] cached cache move =
        match pc with
        | None -> move
        | Some pc ->
            fun a l ->
              cache pc f a l;
              move a l
      in
      let[@inline] guarded (i : Shm_proto.instance) node =
        let rg = i.read_range_guard and wg = i.write_range_guard in
        Some
          ( (fun addr words ~f:move ->
              rg f ~node addr words ~f:(cached Private_cache.read_range move)),
            fun addr words ~f:move ->
              wg f ~node addr words ~f:(cached Private_cache.write_range move)
          )
      in
      match (tlb, hw) with
      | None, No_hw ->
          Some
            ( (fun addr words ~f:move ->
                cached Private_cache.read_range move addr words),
              fun addr words ~f:move ->
                cached Private_cache.write_range move addr words )
      | Some (d, _), No_hw when not d.Shm_proto.wordwise_ranges -> guarded d top
      | None, Leaf (h, m) when not h.Shm_proto.wordwise_ranges -> guarded h m
      | _ -> None
    in
    let range ~read ~write ~gate =
      match runs with
      | None -> Parmacs.range_ops_wordwise ~read ~write
      | Some (read_run, write_run) -> (
          match gate with
          | None -> Parmacs.range_ops_of_runs ~mem ~read_run ~write_run
          | Some g ->
              Parmacs.range_ops_of_runs ~mem
                ~read_run:(fun addr words ~f ->
                  g ();
                  read_run addr words ~f)
                ~write_run:(fun addr words ~f ->
                  g ();
                  write_run addr words ~f))
    in
    (* Synchronization goes to the outermost engine: the DSM root at
       this node, else the cabinet's root domain at this processor's
       member index; the hardware levels below it form the barrier
       chain.  The plain uniprocessor has nothing to synchronize. *)
    let outer, bchain =
      match dsm with
      | Some d -> (Some (d, top), chain)
      | None ->
          let n = Array.length chain in
          if n = 0 then (None, chain)
          else
            let lv, m = chain.(n - 1) in
            (Some (lv.inst, m), Array.sub chain 0 (n - 1))
    in
    let lock, unlock, barrier =
      match outer with
      | None -> (ignore, ignore, ignore)
      | Some (s, node) ->
          let arrive b = s.Shm_proto.barrier_arrive f ~node ~id:b in
          ( (fun l -> s.Shm_proto.acquire f ~node ~lock:l),
            (fun l -> s.Shm_proto.release f ~node ~lock:l),
            if Array.length bchain = 0 then arrive
            else fun b -> hier_barrier f bchain arrive b )
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
        range = range ~read ~write ~gate:None;
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
        {
          ctx with
          Parmacs.read;
          write;
          readf = gated readf;
          writef = gated writef;
          readi = gated readi;
          writei = gated writei;
          range = range ~read ~write ~gate:(Some g);
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
  Engine.run ?max_cycles ?diag eng;
  Option.iter (fun d -> d.Shm_proto.check_invariants ()) dsm;
  List.iter (fun lv -> lv.inst.Shm_proto.check_invariants ()) !levels;
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
