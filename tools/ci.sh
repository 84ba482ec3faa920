#!/usr/bin/env bash
# Tier-1 CI gate: configure, build, run the full test suite; optionally the
# same under ASan/UBSan (DRW_SANITIZE=1) or TSan (DRW_SANITIZE=tsan, which
# also forces a multi-threaded executor so races in the parallel round
# engine are actually exercised) and the serving-layer acceptance benches
# (DRW_BENCH=1).
#
#   tools/ci.sh                    # plain build + ctest
#   DRW_SANITIZE=1 tools/ci.sh     # ASan/UBSan build + ctest
#   DRW_SANITIZE=tsan tools/ci.sh  # TSan build + ctest at DRW_THREADS=4
#   DRW_BENCH=1 tools/ci.sh        # also run the bench acceptance gates
#   DRW_CXX=clang++ tools/ci.sh    # compiler override (the CI matrix sets
#                                  # this per leg; build dirs get a suffix)
#   DRW_LAUNCHER=ccache tools/ci.sh  # compiler launcher (ccache in CI)
set -euo pipefail
cd "$(dirname "$0")/.."

# Compiler / launcher overrides for the CI {gcc, clang} x ccache matrix.
CMAKE_TOOLCHAIN_ARGS=()
DIR_SUFFIX=""
if [[ -n "${DRW_CXX:-}" ]]; then
  CMAKE_TOOLCHAIN_ARGS+=(-DCMAKE_CXX_COMPILER="${DRW_CXX}")
  DIR_SUFFIX="-$(basename "${DRW_CXX}")"
fi
if [[ -n "${DRW_LAUNCHER:-}" ]]; then
  CMAKE_TOOLCHAIN_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER="${DRW_LAUNCHER}")
fi

# One build tree per (sanitize mode, compiler): a shared tree would cache
# the previous mode's DRW_SANITIZE/DRW_TSAN options and trip their
# mutual-exclusion check.
if [[ "${DRW_SANITIZE:-0}" == "tsan" ]]; then
  BUILD_DIR=${BUILD_DIR:-build-ci-tsan${DIR_SUFFIX}}
  CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DDRW_TSAN=ON -DDRW_SANITIZE=OFF)
  # Run every test on the parallel executor path, regardless of host width,
  # and drop the inline-dispatch grain to 1 so even small-graph tests run
  # on_round on concurrent workers (one per shard) under the race checker.
  export DRW_THREADS=${DRW_THREADS:-4}
  export DRW_PARALLEL_GRAIN=${DRW_PARALLEL_GRAIN:-1}
elif [[ "${DRW_SANITIZE:-0}" == "1" ]]; then
  BUILD_DIR=${BUILD_DIR:-build-ci-asan${DIR_SUFFIX}}
  # Debug (no NDEBUG) so the simulator's internal invariant asserts -- e.g.
  # the post-run empty-arena check -- actually execute in at least one leg.
  CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DDRW_SANITIZE=ON -DDRW_TSAN=OFF
              -DCMAKE_BUILD_TYPE=Debug)
else
  BUILD_DIR=${BUILD_DIR:-build-ci${DIR_SUFFIX}}
  CMAKE_ARGS=(-B "$BUILD_DIR" -S . -DDRW_SANITIZE=OFF -DDRW_TSAN=OFF)
fi

cmake "${CMAKE_ARGS[@]}" "${CMAKE_TOOLCHAIN_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
# --timeout backs up the per-test TIMEOUT properties (tests/CMakeLists.txt)
# so a hung protocol run -- e.g. a mux lane that never quiesces -- fails
# the leg in minutes instead of eating the 6-hour job limit.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      --timeout "${DRW_CTEST_TIMEOUT:-900}"

if [[ "${DRW_SANITIZE:-0}" == "tsan" ]]; then
  # Re-run the observability suite with tracing + stats armed process-wide:
  # concurrent workers write their per-thread trace rings and the atomic
  # registry histograms while TSan watches the executor underneath.
  DRW_TRACE="$BUILD_DIR/trace_obs_tsan.json" DRW_STATS=1 \
      "$BUILD_DIR/test_obs"
fi

if [[ "${DRW_SANITIZE:-0}" == "1" ]]; then
  # Re-run the resilience suite with failpoints armed at a site the tests
  # then re-arm themselves: the arm/disarm registry, the snapshot
  # encode/decode round-trips and the torn-file readers all execute under
  # ASan/UBSan with the env-arming startup path on the tested path too.
  DRW_FAILPOINTS="ci.unused@1:throw" "$BUILD_DIR/test_resil"
fi

if [[ "${DRW_BENCH:-0}" == "1" ]]; then
  # bench_service exits non-zero if the serviced workload fails to beat
  # per-request serving, never exercises inventory replenishment, or the
  # executor misses its speedup gate (>=2x@8t on >=8-thread hosts, the
  # calibrated 2-thread floor on 4..7-thread hosts).
  "$BUILD_DIR/bench_service" --benchmark_min_time=1x
  # bench_skew gates the load-balanced executor: edge-weighted shards
  # must clear the calibrated 2-thread speedup floor on a
  # degree-skewed family (on >=4-thread hosts), with results bit-identical
  # at 1, 2 and 8 threads.
  "$BUILD_DIR/bench_skew"
  # bench_mux gates concurrent stitching: mux-of-8 stitch batches must cut
  # total stitch rounds >=2x (deterministic, host-independent) and beat
  # sequential stitching >=1.5x wall-clock at 8 threads (same self-skip
  # ladder), with mux results bit-identical to the serial schedule.
  "$BUILD_DIR/bench_mux"
  # bench_arena gates the transmit fast path's packing losslessness
  # (PackedToken round trips bit-identically, the classifier binds on the
  # 32-bit payload boundary) and records the arena / generic / SoA
  # per-message costs into BENCH_arena.json for the trajectory diff.
  "$BUILD_DIR/bench_arena" --benchmark_min_time=1x
  # bench_serve_latency gates the admission front end: under a hot-key
  # flood, deficit-round-robin admission must hold the light class's p99
  # latency within 2x of its no-flood baseline while the FIFO baseline
  # policy measurably violates it (both are same-process latency RATIOS,
  # so the gate is machine-speed invariant). Per-class percentiles land in
  # BENCH_serve_latency.json; ci.yml diffs the lat_*_p99_ms family against
  # the committed baseline via a --gate-field glob.
  "$BUILD_DIR/bench_serve_latency" --benchmark_min_time=1x
  # The bench-diff contract the trajectory step depends on (new obs_* keys
  # must never fail a diff, cross-host wall deltas never gate, gated fields
  # fail even warn-only diffs, glob gate-fields match families, ...).
  python3 tools/bench_diff.py --self-test
  # Observability gate: a traced single-threaded serve workload must export
  # a Perfetto-loadable trace whose per-shard transmit spans reconcile with
  # RunStats.transmit_ms (tools/validate_trace.py, 10% tolerance), plus a
  # machine-readable stats JSON. Both files are uploaded as CI artifacts.
  DRW_TRACE=trace_serve.json "$BUILD_DIR/drw" serve \
      --graph=regular:2000,4 --seed=7 --k=24 --l=2048 --threads=1 --mux=4 \
      --batch-size=8 --stats-json=stats_serve.json
  python3 tools/validate_trace.py trace_serve.json
  # Tree-cache accounting: every stitch starts with exactly one BFS tree
  # build or one cached-tree reuse, in every batch and over the lifetime.
  python3 - stats_serve.json <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
for name, r in [("lifetime", stats["lifetime"])] + [
        (f"batch {i + 1}", b) for i, b in enumerate(stats["batches"])]:
    if r["tree_builds"] + r["tree_reuses"] != r["stitches"]:
        sys.exit(f"{name}: tree_builds {r['tree_builds']} + tree_reuses "
                 f"{r['tree_reuses']} != stitches {r['stitches']}")
print(f"tree accounting: {stats['lifetime']['tree_builds']} builds + "
      f"{stats['lifetime']['tree_reuses']} reuses == "
      f"{stats['lifetime']['stitches']} stitches")
PY
  # Resilience gate: kill -9 a serving subprocess inside the snapshot-commit
  # window and demand a warm restart, plus CRC rejection of bit-flipped and
  # torn snapshots, a smoke of every DRW_FAILPOINTS action
  # (throw/abort/short_write/delay_ms) against the real CLI, and a kill -9
  # inside the csr.commit window of `drw convert` (partial caches are
  # rejected and serving degrades to the text sibling).
  python3 tools/crash_harness.py "$BUILD_DIR/drw"
  # Live-service smoke: boot `drw serve --listen` on an ephemeral port,
  # race a mixed-class client against a 40-request flood via `drw
  # request`, SIGTERM it, and demand the admission-log replay reproduce
  # every response byte for byte. Server and replay run at --mux=4 and the
  # server's DRW_TRACE output must pass validate_trace.py (artifacts land
  # in server_smoke_artifacts/ for upload on failure).
  python3 tools/server_smoke.py "$BUILD_DIR/drw"
  # Ingestion gate: every route (legacy per-line, bulk at t=1/2/8, converted
  # + mmap'd CSR) must carry the same graph, the bulk parser must beat the
  # per-line reference >=3x at t=1, and a warm mmap reload must beat the
  # text re-parse >=5x at serving start. Wall numbers land in
  # BENCH_ingest.json for the trajectory diff.
  "$BUILD_DIR/bench_ingest" --benchmark_min_time=1x
  # Real-graph round trip: convert a SNAP-class edge list and demand
  # bit-identical serving from the text file and the mmap'd CSR. ci.yml
  # caches the download under data/ (actions/cache); offline hosts fall
  # back to a deterministic synthetic edge list so the gate always runs.
  SNAP_TXT="data/facebook_combined.txt"
  if [[ ! -f "$SNAP_TXT" ]]; then
    mkdir -p data
    if ! curl -fsSL --max-time 120 -o "$SNAP_TXT.gz" \
         https://snap.stanford.edu/data/facebook_combined.txt.gz \
         2>/dev/null || ! gunzip -f "$SNAP_TXT.gz" 2>/dev/null; then
      rm -f "$SNAP_TXT.gz"
      echo "ci: SNAP download unavailable; generating a synthetic edge list"
      python3 - "$SNAP_TXT" <<'PYEOF'
import random, sys
random.seed(4242)
n = 4000
edges = {(i, (i + 1) % n) for i in range(n)}
while len(edges) < 40000:
    a, b = random.randrange(n), random.randrange(n)
    if a != b:
        edges.add((min(a, b), max(a, b)))
with open(sys.argv[1], "w") as f:
    f.write(f"# nodes {n}\n")
    for a, b in sorted(edges):
        f.write(f"{a} {b}\n")
PYEOF
    fi
  fi
  "$BUILD_DIR/drw" convert "$SNAP_TXT" "$SNAP_TXT.csr"
  "$BUILD_DIR/drw" serve --graph="file:$SNAP_TXT" --seed=7 --k=8 --l=512 \
      --batch-size=4 > serve_text.out
  "$BUILD_DIR/drw" serve --graph="$SNAP_TXT.csr" --seed=7 --k=8 --l=512 \
      --batch-size=4 > serve_csr.out
  grep -q '^graph: csr' serve_csr.out
  grep -q '^graph: text' serve_text.out
  # Identical serving modulo provenance: drop the source-describing lines
  # (graph spec banner, provenance, parse stats) and wall-clock executor
  # lines, then demand byte equality of every result and counter.
  filter() { grep -v -e '^graph' -e '^ingest:' -e '^executor:' "$1"; }
  diff <(filter serve_text.out) <(filter serve_csr.out)
  echo "ci: text vs csr serving round trip identical"
fi
echo "ci: OK"
