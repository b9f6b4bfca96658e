#!/bin/sh
# CI gate: type-check everything, run the full test suite, and refuse to
# pass if build artifacts sneak back into the git index.
set -eu

cd "$(dirname "$0")/.."

if git ls-files --error-unmatch _build >/dev/null 2>&1 || \
   [ -n "$(git ls-files '_build/*')" ]; then
  echo "ci: _build/ is tracked in the git index; remove it" >&2
  exit 1
fi

dune build @check
dune runtest

# Inlining audit (DESIGN.md §12): the default profile is release, whose
# flags are dev's warnings-as-errors set but which, unlike dev, compiles
# library modules without -opaque.  With -opaque every small accessor on
# the simulated access path (Memory, Cache, Engine.advance) is a real
# call from every other module.
memory_rule=$(dune rules _build/default/lib/memsys/.shm_memsys.objs/native/shm_memsys__Memory.cmx)
if printf '%s\n' "$memory_rule" | grep -q -e '-opaque'; then
  echo "ci: the default build compiles lib/ with -opaque (no cross-module inlining)" >&2
  exit 1
fi
if ! printf '%s\n' "$memory_rule" | grep -q -F -e '@1..3@5..28@30..39@43@46..47@49..57@61..62-40'; then
  echo "ci: the default build lost dev's warnings-as-errors flags" >&2
  exit 1
fi

# Isolation audit for the run scheduler: lib/ must hold no module-level
# mutable state, or concurrent runs on separate domains could interfere
# (see DESIGN.md §8).  Matches toplevel bindings that allocate a mutable
# container or touch global randomness.
if grep -nE '^let [a-zA-Z0-9_]+ *(:[^=]*)?= *(ref |Hashtbl\.create|Buffer\.create|Queue\.create|Bytes\.(create|make)|Array\.(make|create|init)|Atomic\.make|Weak\.create|Random\.)' \
     lib/*/*.ml; then
  echo "ci: module-level mutable state in lib/ breaks run isolation" >&2
  exit 1
fi

# Reliability audit: the DSM protocol layers must route every remote
# message through Shm_net.Reliable — a direct Fabric send/recv would
# bypass sequencing and break the fault-tolerance contract of
# DESIGN.md §9.
if grep -nE 'Fabric\.(send|recv|loopback)' lib/tmk/*.ml lib/ivy/*.ml \
     lib/tardis/*.ml lib/dsm/*.ml; then
  echo "ci: the DSM engines must use Shm_net.Reliable, not raw Fabric" >&2
  exit 1
fi

# Window audit: acks are cumulative, so what a reliable link still owes
# is the sequence window (acked, next_seq), not a table of
# unacknowledged packets (DESIGN.md §9).  The inbound out-of-order
# buffer is a ring over the same window, so the reliable layer keeps no
# Hashtbl at all.
if grep -n 'unacked' lib/net/*.ml || grep -n 'Hashtbl' lib/net/reliable.ml; then
  echo "ci: a reliable link keeps a sequence window, not an unacked table" >&2
  exit 1
fi

# Diagnosability audit: a protocol layer that reaches an impossible state
# must raise a descriptive error naming the page/requester/state, never
# a bare `assert false` (DESIGN.md §10 — the Ivy manager's Invalid-state
# branch was exactly such a silent failure).
if grep -n 'assert false' lib/ivy/*.ml lib/tmk/*.ml lib/tardis/*.ml \
     lib/dsm/*.ml; then
  echo "ci: raise a descriptive error instead of 'assert false' in the DSM protocol layers" >&2
  exit 1
fi

# Fork guard: the software-DSM engines share one node runtime, one home
# manager and one role record (lib/dsm, DESIGN.md §6).  An engine
# defining its own request table, steal account, reply routing, manager
# queues, lock or barrier manager placement or re-homing again would
# restart the fork that lib/dsm replaced.
if grep -nE '^(let|and)( rec)? (fresh_req|register_req|drain_steal|route_response|mgr_request|mgr_lock_req|mgr_barrier_arrive|rehome|lock_home|barrier_home)\b|^ +(mutable +)?(lock_home|barrier_home) *:' \
     lib/ivy/*.ml lib/tardis/*.ml lib/tmk/*.ml; then
  echo "ci: the DSM engines must use Shm_dsm.Node/Home/Roles, not their own copies" >&2
  exit 1
fi

# Skeleton fork guard: IVY and Tardis run on one home-based page-DSM
# skeleton (Shm_dsm.Paged, DESIGN.md §6) and keep only their protocol.
# An engine defining its own sending, serving, start-up, guards or
# synchronization clients again would restart the fork Paged replaced.
if grep -nE '^(let|and)( rec)? (deliver|serve|start|read_guard|write_guard|acquire|release|barrier_arrive)\b' \
     lib/ivy/*.ml lib/tardis/*.ml; then
  echo "ci: IVY and Tardis must use Shm_dsm.Paged, not their own skeleton" >&2
  exit 1
fi

# Shell fork guard: all three software engines run on one page-DSM
# shell (Shm_dsm.Paged, DESIGN.md §6): the node header and page
# accessors, the guards, the fault shell, start-up and the mounted
# instance.  TreadMarks keeps only its protocol; defining
# any of those again, or a second system signature for mounting, would
# restart the fork the shell replaced.  The one exempt line is the
# alias of Paged.start that bench/perf calls as System.start.
if grep -nE '^(let|and)( rec)? (start|read_guard|write_guard|read_page|write_page|page_of|access_rights|set_page_hook)\b' \
     lib/tmk/*.ml \
     | grep -vE '^lib/tmk/system\.ml:[0-9]+:let start = Paged\.start$' || \
   grep -n 'module type SYSTEM' lib/dsm/*.ml; then
  echo "ci: TreadMarks must use the Shm_dsm.Paged shell, not its own copy" >&2
  exit 1
fi

# Access-path fork guard: a shared-memory range is the per-word loop
# over a context's scalar accessors (Parmacs.per_word_range, DESIGN.md
# §4.1), so every word is one guarded access on every engine.  Range
# guards, a per-engine switch between batched and per-word ranges, run
# builders or a page walk for them would restart the second access path
# that let a Tardis range skip the faults its own words take.
if grep -rn -e read_range_guard -e write_range_guard -e wordwise_ranges \
     -e range_ops_of_runs -e walk_pages lib; then
  echo "ci: a range must be the per-word loop, not a second access path" >&2
  exit 1
fi

# Page-size audit: the simulator has one page, the constants
# Memory.page_words and Memory.page_shift (DESIGN.md §4.1).  A labelled
# page-size argument or a page-size record field in lib/ would thread
# the one value back through the layers as a parameter no caller varies,
# with the power-of-two refusal and log2 that came with it.
if grep -rnE '[~?]page_(words|shift)\b|^ *(mutable +)?page_(words|shift) *:' \
     lib --include='*.ml' --include='*.mli'; then
  echo "ci: the page size is Memory.page_words, not a parameter or a field" >&2
  exit 1
fi

# Recovery fork guard: the fabric's lifecycle is the one crash switch
# and Shm_dsm.Checkpoint the one checkpoint store (DESIGN.md §13).  A
# second WAL beside the per-page own-diff lists, a per-engine dirty map,
# a settable retry policy or a separate crash-aware flag would restart
# the fork, as would an engine's own record holding a checkpoint image.
if grep -nwE 'own_diffs|ckpt_dirty|set_policy|crash_aware' lib/*/*.ml \
     lib/*/*.mli || \
   grep -nE '^ *(mutable +)?image *:' lib/tmk/*.ml lib/ivy/*.ml; then
  echo "ci: crash recovery must use the fabric's lifecycle and Shm_dsm.Checkpoint" >&2
  exit 1
fi

# Environment audit: lib/ reads one environment variable, the run
# pool's SHMCS_JOBS.  Anything else that changes a run belongs on the
# command line, where it is recorded; tracing is `shmsim run --trace`.
if grep -n 'Sys\.getenv' lib/*/*.ml | grep -v '^lib/runner/pool\.ml:'; then
  echo "ci: only lib/runner/pool.ml may read the environment in lib/" >&2
  exit 1
fi

# Layering audit: lib/platform mounts coherence engines only through the
# Shm_proto interface and the Shm_engines registry (DESIGN.md §11).  A
# platform naming a concrete engine library would re-couple the layers
# the protocol interface decoupled.
if grep -nE 'Shm_tmk\.|Shm_ivy\.|Shm_tardis\.|Snoop\.|Directory\.|Shm_memsys\.Snoop|Shm_memsys\.Directory' \
     lib/platform/*.ml lib/platform/*.mli; then
  echo "ci: lib/platform must mount engines via Shm_proto/Shm_engines, not name them directly" >&2
  exit 1
fi

# Contract-split audit: each engine kind has its own mount contract
# (DESIGN.md §11).  A hardware domain synchronizes through the one
# Hw_sync.t its engine builds at mount (lib/engines/hw_mount.ml), and a
# hardware mount context carries no message fabric.  A second
# Hw_sync.create in lib/, or a platform naming the crossbar fabric as a
# placeholder, would bring back the duplicate sync object and the
# other kind's fields the split removed.
if grep -rn 'Hw_sync\.create' lib \
     | grep -v -e '^lib/memsys/hw_sync\.ml:' -e '^lib/engines/hw_mount\.ml:' || \
   grep -rn 'crossbar_sim' lib/platform; then
  echo "ci: one Hw_sync per hardware domain, built by its engine; no fabric in a hardware mount" >&2
  exit 1
fi

# Engine-limits audit: an engine declares what it cannot do on its
# mount (a software engine's crash recovery, a hardware engine's host
# profiles), and the topology refuses from those limits before anything
# is built (DESIGN.md §11).  A refusal raised inside an engine adapter
# would come only from its mount, inside the run, after the node
# memories and the initial image exist.
if grep -nwE 'invalid_arg|raise|failwith' lib/engines/*_engine.ml \
     lib/tardis/tardis_engine.ml lib/ivy/ivy_engine.ml lib/tmk/lrc_engine.ml; then
  echo "ci: an engine adapter must declare its limits, not refuse at mount" >&2
  exit 1
fi

# Topology-layering audit: the topology builder is the single place in
# lib/platform that consults the engine registry (DESIGN.md §15).  A
# named platform resolving engines itself would hard-code wiring the
# declarative layer exists to centralize.
if grep -nE 'Shm_engines\.' lib/platform/*.ml \
     | grep -v '^lib/platform/topology\.ml:'; then
  echo "ci: only lib/platform/topology.ml may consult the Shm_engines registry" >&2
  exit 1
fi

# Runner audit: every processor of every machine is built by the one
# runner (DESIGN.md §15).  A second place constructing a PARMACS context
# would fork the access path (TLB fast path, private caches, lifecycle
# gating, max_cycles) the runner keeps in one copy; only the untimed
# sequential reference in Parmacs itself may build its own.
if grep -nE '(^|[{ (])Parmacs\.id *=' lib/*/*.ml \
     | grep -v -e '^lib/platform/hier\.ml:' -e '^lib/parmacs/parmacs\.ml:'; then
  echo "ci: only lib/platform/hier.ml may build a Parmacs context in lib/" >&2
  exit 1
fi

# Refusal smoke: what an engine's limits or a machine's capacity
# exclude is refused before any run starts, so `shmsim run` exits 2
# with the reason on stderr and prints no table: a snooping bus on the
# crossbar host, Tardis (no lease recovery) under a crash policy, and
# more processors than the DEC cluster seats.
refusal_out=$(mktemp)
refusal_err=$(mktemp)
trap 'rm -f "$refusal_out" "$refusal_err"' EXIT
for args in "--topology mesi*8@sim -n 4" \
            "-p treadmarks --protocol tardis --crash 1@500000 -n 4" \
            "-p treadmarks -n 16"; do
  status=0
  dune exec bin/shmsim.exe -- run -a sor $args \
    >"$refusal_out" 2>"$refusal_err" || status=$?
  if [ "$status" -ne 2 ] || [ -s "$refusal_out" ] || \
     ! grep -q '^shmsim: ' "$refusal_err"; then
    echo "ci: 'shmsim run -a sor $args' was not refused up front" \
      "(exit $status)" >&2
    cat "$refusal_out" "$refusal_err" >&2
    exit 1
  fi
done
rm -f "$refusal_out" "$refusal_err"

# Bench smoke under a parallel pool: one quick-scale exhibit with
# --jobs 2 must succeed and emit a valid bench_access/8 JSON report,
# byte-identical to the same exhibit at --jobs 1 modulo the wall-time
# fields (run results and order must not depend on the pool width).  An
# unknown --only id must fail before any run starts.
smoke_json=$(mktemp)
smoke1_json=$(mktemp)
clean_json=$(mktemp)
chaos_json=$(mktemp)
trap 'rm -f "$smoke_json" "$smoke1_json" "$clean_json" "$chaos_json" ${crash_json:+"$crash_json"} ${kv_json:+"$kv_json"} ${kv_ref_json:+"$kv_ref_json"} ${trace_json:+"$trace_json"} ${traced_run_json:+"$traced_run_json"} ${topo_json:+"$topo_json"} ${topo_ref_json:+"$topo_ref_json"}' EXIT
if dune exec bench/main.exe -- --scale quick --only nosuch \
     --json "$smoke_json" >/dev/null 2>&1 || [ -s "$smoke_json" ]; then
  echo "ci: bench accepted an unknown --only id or wrote its JSON" >&2
  exit 1
fi
dune exec bench/main.exe -- --scale quick --only f3 --jobs 2 \
  --json "$smoke_json" >/dev/null
dune exec bench/main.exe -- --scale quick --only f3 --jobs 1 --pool-probe \
  --json "$smoke1_json" >/dev/null
dune exec bin/shmsim.exe -- run -a sor -p treadmarks -n 8 --scale quick \
  --json "$clean_json" >/dev/null
python3 - "$smoke_json" "$smoke1_json" "$clean_json" <<'EOF'
import json, sys

d2 = json.load(open(sys.argv[1]))
d1 = json.load(open(sys.argv[2]))
shmsim = json.load(open(sys.argv[3]))
assert d2["schema"] == "bench_access/8", d2["schema"]
assert d2["jobs"] == 2 and d1["jobs"] == 1, (d2["jobs"], d1["jobs"])
assert len(d2["runs"]) >= 1
assert d2["host_cores"] >= 1 and d2["pool_speedup"] > 0

# /7 pool-probe contract: always a host_cores count and an explicit
# skipped marker; walls only when the probe actually ran (>= 2 cores).
probe = d1["pool_probe"]
assert probe["host_cores"] >= 1, probe
if probe["host_cores"] < 2:
    assert probe["skipped"] is True and "jobs1_wall_s" not in probe, probe
else:
    assert probe["skipped"] is False, probe
    assert probe["jobs1_wall_s"] > 0 and probe["jobs4_wall_s"] > 0, probe
# Crash-recovery fields are present and zero on this crash-free run;
# serving-workload fields are present and zero on this non-KV run.
for r in d2["runs"]:
    assert r["crashes"] == 0 and r["restarts"] == 0, r
    assert r["recovery_cycles"] == 0 and r["ckpt_bytes"] == 0, r
    assert r["kv_ops"] == 0 and r["kv_model_ok"] == 0, r

# Simulation results are deterministic: everything but host-side timing
# must be identical between --jobs 1 and --jobs 2.
timing = ("wall_s", "mcycles_per_s")
strip = lambda r: {k: v for k, v in r.items() if k not in timing}
r1, r2 = [strip(r) for r in d1["runs"]], [strip(r) for r in d2["runs"]]
assert r1 == r2, "bench runs differ between --jobs 1 and --jobs 2"

# One run record: the bench's simulated members are shmsim's, value for
# value, for the same run.
sor8 = [r for r in d1["runs"]
        if (r["app"], r["platform"], r["nprocs"]) == ("sor", "treadmarks", 8)]
assert len(sor8) == 1, sor8
bench_sim = {k: v for k, v in sor8[0].items()
             if k not in ("app", "platform") + timing}
assert [bench_sim] == shmsim["runs"], (bench_sim, shmsim["runs"])

# Perf smoke: aggregate simulator throughput on this exhibit.  The seed
# tree sustained ~270 Mcycles/s on the reference container; 80 is a
# generous floor that still catches an order-of-magnitude regression in
# the event core without flaking on slow or loaded hosts.
tp = d1["mcycles_per_s"]
assert tp >= 80.0, f"simulator throughput regressed: {tp:.1f} Mcycles/s < 80"
print(f"ci: bench throughput {tp:.1f} Mcycles/s (jobs=1), "
      f"pool_speedup {d2['pool_speedup']:.2f} at jobs=2")
EOF

# Chaos smoke: a seeded 5% drop schedule over the Quick five-app matrix
# on the software-DSM engines (including the timestamp-coherence engine
# mounted via --protocol) must leave every checksum identical to the
# fault-free run, with the reliable layer actually retransmitting.  The
# JSON writer emits one flat line, so grep suffices to extract fields
# without a jq dependency.  $plat expands to multiple words for the
# --protocol rows, so it is deliberately unquoted.
for plat in "treadmarks" "ivy" "treadmarks --protocol tardis"; do
  for app in sor tsp water m-water ilink-clp; do
    dune exec bin/shmsim.exe -- run -a "$app" -p $plat -n 4 \
      --scale quick --json "$clean_json" >/dev/null
    dune exec bin/shmsim.exe -- run -a "$app" -p $plat -n 4 \
      --scale quick --drop 0.05 --fault-seed 1 \
      --json "$chaos_json" >/dev/null
    clean_sum=$(grep -o '"checksum": "[^"]*"' "$clean_json")
    chaos_sum=$(grep -o '"checksum": "[^"]*"' "$chaos_json")
    retrans=$(grep -o '"retrans": [0-9]*' "$chaos_json" | grep -o '[0-9]*$')
    if [ -z "$clean_sum" ] || [ "$clean_sum" != "$chaos_sum" ]; then
      echo "ci: chaos checksum diverged for $app on $plat" >&2
      echo "ci:   clean: $clean_sum" >&2
      echo "ci:   chaos: $chaos_sum" >&2
      exit 1
    fi
    if [ "${retrans:-0}" -eq 0 ]; then
      echo "ci: chaos run for $app on $plat never retransmitted" >&2
      exit 1
    fi
  done
done

# Crash smoke: kill and restart one node mid-run on both SDSM platforms
# (DESIGN.md §13).  The run must complete, recover to the crash-free
# checksum, and report nonzero crash/recovery/checkpoint counters.
crash_json=$(mktemp)
for plat in treadmarks ivy; do
  for app in sor tsp; do
    dune exec bin/shmsim.exe -- run -a "$app" -p "$plat" -n 4 \
      --scale quick --json "$clean_json" >/dev/null
    dune exec bin/shmsim.exe -- run -a "$app" -p "$plat" -n 4 \
      --scale quick --crash 1@500000 --json "$crash_json" >/dev/null
    clean_sum=$(grep -o '"checksum": "[^"]*"' "$clean_json")
    crash_sum=$(grep -o '"checksum": "[^"]*"' "$crash_json")
    crashes=$(grep -o '"crashes": [0-9]*' "$crash_json" | grep -o '[0-9]*$')
    restarts=$(grep -o '"restarts": [0-9]*' "$crash_json" | grep -o '[0-9]*$')
    ckpts=$(grep -o '"ckpts": [0-9]*' "$crash_json" | grep -o '[0-9]*$')
    recov=$(grep -o '"recovery_cycles": [0-9]*' "$crash_json" \
      | grep -o '[0-9]*$')
    if [ -z "$clean_sum" ] || [ "$clean_sum" != "$crash_sum" ]; then
      echo "ci: post-recovery checksum diverged for $app on $plat" >&2
      echo "ci:   clean: $clean_sum" >&2
      echo "ci:   crash: $crash_sum" >&2
      exit 1
    fi
    if [ "${crashes:-0}" -eq 0 ] || [ "${restarts:-0}" -eq 0 ] || \
       [ "${ckpts:-0}" -eq 0 ] || [ "${recov:-0}" -eq 0 ]; then
      echo "ci: crash run for $app on $plat missing recovery activity" \
        "(crashes=${crashes:-0} restarts=${restarts:-0}" \
        "ckpts=${ckpts:-0} recovery_cycles=${recov:-0})" >&2
      exit 1
    fi
  done
done
rm -f "$crash_json"

# KV serving smoke (DESIGN.md §14): the sharded store under the
# open-loop generator must pass its built-in differential check
# ("kv_model_ok": 1 — every recorded get replayed against a sequential
# hash-table model) on both a software DSM and the bus machine.  The
# put-partitioned trace makes the content digest platform-independent,
# so the chaos (5% drop) and crash/restart variants must land on the
# treadmarks run's exact checksum while showing real fault activity.
kv_json=$(mktemp)
kv_ref_json=$(mktemp)
kv_args="run -a kv -n 4 --scale quick --requests 150 --keys 256"
dune exec bin/shmsim.exe -- $kv_args -p treadmarks \
  --json "$kv_ref_json" >/dev/null
kv_ref_sum=$(grep -o '"checksum": "[^"]*"' "$kv_ref_json")
for variant in "-p sgi" "-p treadmarks --drop 0.05 --fault-seed 1" \
               "-p treadmarks --crash 1@500000"; do
  dune exec bin/shmsim.exe -- $kv_args $variant --json "$kv_json" >/dev/null
  model_ok=$(grep -o '"kv_model_ok": [0-9]*' "$kv_json" | grep -o '[0-9]*$')
  kv_sum=$(grep -o '"checksum": "[^"]*"' "$kv_json")
  if [ "${model_ok:-0}" -ne 1 ]; then
    echo "ci: kv differential check failed for '$variant'" >&2
    exit 1
  fi
  if [ -z "$kv_ref_sum" ] || [ "$kv_sum" != "$kv_ref_sum" ]; then
    echo "ci: kv digest diverged for '$variant'" >&2
    echo "ci:   reference: $kv_ref_sum" >&2
    echo "ci:   variant:   $kv_sum" >&2
    exit 1
  fi
  case "$variant" in
  *--drop*)
    retrans=$(grep -o '"retrans": [0-9]*' "$kv_json" | grep -o '[0-9]*$')
    if [ "${retrans:-0}" -eq 0 ]; then
      echo "ci: kv chaos run never retransmitted" >&2
      exit 1
    fi
    ;;
  *--crash*)
    crashes=$(grep -o '"crashes": [0-9]*' "$kv_json" | grep -o '[0-9]*$')
    restarts=$(grep -o '"restarts": [0-9]*' "$kv_json" | grep -o '[0-9]*$')
    if [ "${crashes:-0}" -eq 0 ] || [ "${restarts:-0}" -eq 0 ]; then
      echo "ci: kv crash run missing recovery activity" \
        "(crashes=${crashes:-0} restarts=${restarts:-0})" >&2
      exit 1
    fi
    ;;
  esac
done
rm -f "$kv_json" "$kv_ref_json"

# Topology smoke (DESIGN.md §15): a 256-processor HS-shaped topology —
# 32 snooping buses under a software-DSM root, past the named platforms'
# 64-processor app ceiling — must complete and land on the checksum of
# the same computation on a flat hardware topology of the same size.
topo_json=$(mktemp)
topo_ref_json=$(mktemp)
topo_args="run -a sor -n 256 --scale quick --slots 256"
dune exec bin/shmsim.exe -- $topo_args --topology "lrc(mesi*8 x 32)" \
  --json "$topo_json" >/dev/null
dune exec bin/shmsim.exe -- $topo_args --topology "directory*256" \
  --json "$topo_ref_json" >/dev/null
topo_sum=$(grep -o '"checksum": "[^"]*"' "$topo_json")
topo_ref_sum=$(grep -o '"checksum": "[^"]*"' "$topo_ref_json")
if [ -z "$topo_sum" ] || [ "$topo_sum" != "$topo_ref_sum" ]; then
  echo "ci: 256-processor topology checksums diverged" >&2
  echo "ci:   hybrid lrc(mesi*8 x 32): $topo_sum" >&2
  echo "ci:   flat directory*256:      $topo_ref_sum" >&2
  exit 1
fi
rm -f "$topo_json" "$topo_ref_json"

# Memory guard (DESIGN.md §15): a software-DSM node's host memory follows
# the pages, locks and links it touches, not the machine's size.  Flat
# LRC at 256 processors must peak under 67 MB (about 52 MB today; 72 MB
# when each node kept its own record store and tuple write notices, and
# 554 MB when every node held a full copy of the shared image).  The
# built binary runs directly so dune's own footprint is not measured.
dune build bin/shmsim.exe
python3 - <<'EOF'
import resource, subprocess, sys

subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "sor", "-n", "256",
     "--scale", "quick", "--slots", "256", "--topology", "lrc*256"],
    check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > 67:
    sys.exit(f"ci: sor on lrc*256 peaked at {peak_mb:.0f} MB > 67 MB")
print(f"ci: sor on lrc*256 peaked at {peak_mb:.0f} MB")
EOF

# Cache guard (DESIGN.md §15): a hardware cache's lines live in a
# /dev/zero mapping, so a node holds host memory only for the lines it
# writes.  Quick SOR on the 1024-node directory machine must peak under
# 45 MB (about 29 MB today; 61 MB when every cache held a tag array and a
# state array sized to the whole cache).
python3 - <<'EOF'
import resource, subprocess, sys

subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "sor", "-n", "1024",
     "--scale", "quick", "--slots", "1024", "--topology", "directory*1024"],
    check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > 45:
    sys.exit(f"ci: sor on directory*1024 peaked at {peak_mb:.0f} MB > 45 MB")
print(f"ci: sor on directory*1024 peaked at {peak_mb:.0f} MB")
EOF

# Shared-image guard (DESIGN.md §15): every DSM node maps one
# copy-on-write initial image, so a node pays host memory for the pages
# it touches, not for every page the app initialised.  Default-scale SOR
# on flat LRC at 32 processors must peak under 400 MB (about 180 MB
# today; 747 MB when the non-zero image was copied into every node).
python3 - <<'EOF'
import resource, subprocess, sys

subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "sor", "-n", "32",
     "--scale", "default", "--topology", "lrc*32"],
    check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > 400:
    sys.exit(f"ci: default-scale sor on lrc*32 peaked at {peak_mb:.0f} MB > 400 MB")
print(f"ci: default-scale sor on lrc*32 peaked at {peak_mb:.0f} MB")
EOF

# Diff-log and record-floor guard (DESIGN.md §12.1): crash-free, a
# TreadMarks creator keeps only the diffs some node can still request,
# the shared table only the records a message can still carry, and a
# record keeps the sum of its vector time, not the vector.
# Default-scale KV on TreadMarks at 8 nodes with 2% drop must peak
# under 24 MB (about 23.1 MB today; 24.6 MB when the table kept every
# record, 32 MB when every creator also kept every diff it made and
# every record a copy of its vector time).
python3 - <<'EOF'
import resource, subprocess, sys

subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "kv", "-p", "treadmarks",
     "-n", "8", "--scale", "default", "--drop", "0.02"],
    check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if peak_mb > 24:
    sys.exit(f"ci: kv on treadmarks with 2% drop peaked at {peak_mb:.1f} MB > 24 MB")
print(f"ci: kv on treadmarks with 2% drop peaked at {peak_mb:.1f} MB")
EOF

# Payload GC guard (DESIGN.md §12): IVY and Tardis move pages as
# malloc'd copies outside the OCaml heap, so page traffic must not drive
# the major collector.  KV on IVY at 8 nodes must finish within 50 major
# collections (about 10 today; 384 when every transfer built a boxed
# int64 array).
python3 - <<'EOF'
import os, re, subprocess, sys

env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
run = subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "kv", "-p", "ivy", "-n",
     "8", "--scale", "default"],
    check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    env=env)
m = re.search(r"^major_collections: *(\d+)", run.stderr, re.M)
if m is None:
    sys.exit("ci: no major_collections figure from OCAMLRUNPARAM=v=0x400")
majors = int(m.group(1))
if majors > 50:
    sys.exit(f"ci: kv on ivy ran {majors} major collections > 50")
print(f"ci: kv on ivy ran {majors} major collections")
EOF

# Hot-path allocation guard (DESIGN.md §12): a hit allocates nothing, so
# minor-heap traffic follows the simulated transactions, not the
# accesses.  Default-scale SOR on the SGI bus at 8 processors must stay
# within 150M minor words (about 63M today; 335M when every float read
# boxed its value).
python3 - <<'EOF'
import os, re, subprocess, sys

env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
run = subprocess.run(
    ["_build/default/bin/shmsim.exe", "run", "-a", "sor", "-p", "sgi", "-n",
     "8", "--scale", "default"],
    check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    env=env)
m = re.search(r"^minor_words: *(\d+)", run.stderr, re.M)
if m is None:
    sys.exit("ci: no minor_words figure from OCAMLRUNPARAM=v=0x400")
words = int(m.group(1))
if words > 150_000_000:
    sys.exit(f"ci: sor on sgi at 8 allocated {words} minor words > 150M")
print(f"ci: sor on sgi at 8 allocated {words / 1e6:.0f}M minor words")
EOF

# Tracing smoke: a traced SOR run must produce a valid Chrome-trace file
# (known event kinds, monotonic timestamps — `shmsim trace-check` is the
# self-contained validator) and identical results to the untraced run.
trace_json=$(mktemp)
traced_run_json=$(mktemp)
dune exec bin/shmsim.exe -- run -a sor -p treadmarks -n 4 --scale quick \
  --trace "$trace_json" --json "$traced_run_json" >/dev/null
dune exec bin/shmsim.exe -- trace-check "$trace_json"
dune exec bin/shmsim.exe -- run -a sor -p treadmarks -n 4 --scale quick \
  --json "$clean_json" >/dev/null
if ! cmp -s "$clean_json" "$traced_run_json"; then
  echo "ci: --trace perturbed the sor/treadmarks run" >&2
  diff "$clean_json" "$traced_run_json" >&2 || true
  exit 1
fi
rm -f "$trace_json" "$traced_run_json"

# Benchmark smoke: the perf harness builds, runs one short pass per
# workload and checks BENCHMARK.json against the metric names it emits.
dune build @bench/perf/smoke

echo "ci: OK"
