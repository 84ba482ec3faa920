#!/usr/bin/env bash
# Tier-1 CI gate: configure, build, run the full test suite; optionally the
# same under ASan/UBSan (DRW_SANITIZE=1) or TSan (DRW_SANITIZE=tsan, which
# also forces a multi-threaded executor so races in the parallel round
# engine are actually exercised) and the paper-claims and serving-layer
# acceptance benches (DRW_BENCH=1).
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
  # bench_paper gates the paper's claims E1-E12 (round slopes in l, D and
  # k, the Lemma 2.6 visit bound, the lower-bound gadget, RST uniformity,
  # mixing estimates, the Section 2.1 ablations, served batches against
  # Theorem 2.8's bound) on round, visit and count quantities only, so its
  # verdict is deterministic and host-independent.
  # Every gated quantity lands in BENCH_paper.json.
  "$BUILD_DIR/bench_paper"
  # bench_service exits non-zero if the serviced workload fails to beat
  # per-request serving, never exercises inventory replenishment, or the
  # executor misses its speedup gate (>=2x@8t on >=8-thread hosts, the
  # calibrated 2-thread floor on 4..7-thread hosts).
  # --benchmark_min_time=0 (a bare number of seconds, which google-benchmark
  # 1.7 and 1.8 both parse; 1.7 rejects the "1x" form and falls back to its
  # default) stops every BM_* timer after one iteration.
  "$BUILD_DIR/bench_service" --benchmark_min_time=0
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
  # bench_arena records the arena push+pop and staged-send per-message
  # costs into BENCH_arena.json for the trajectory diff (no gate).
  "$BUILD_DIR/bench_arena" --benchmark_min_time=0
  # bench_serve_latency gates the admission front end: under a hot-key
  # flood, deficit-round-robin admission must hold the light class's p99
  # latency within 2x of its no-flood baseline while the FIFO baseline
  # policy measurably violates it (both are same-process latency RATIOS,
  # so the gate is machine-speed invariant). Per-class percentiles land in
  # BENCH_serve_latency.json; ci.yml diffs the lat_*_p99_ms family against
  # the committed baseline via a --gate-field glob.
  "$BUILD_DIR/bench_serve_latency" --benchmark_min_time=0
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
  # Bounded --paths serving state: 400 perfbench-shaped batches (ten
  # 1024-step requests each; two ask for two walks, one records its path)
  # served with --paths. After every batch the store holds no used short
  # walk, and over the run the freeing pass drops spent routing records
  # (Phase-1 and GET-MORE-WALKS generations alike). The same batches served
  # at four threads (with every round dispatched to the pool) must print
  # byte-identical results (the executor timing and stats-file lines
  # aside): the owner shards replay every worker's staged sends in
  # canonical order, and the replay's record matching draws from a hash of
  # the walk, never from a node stream. The check is repeated at --mux=4,
  # where concurrent lanes interleave their records.
  python3 - gmw_batches.req <<'PY'
import random, sys
rng = random.Random(19)
with open(sys.argv[1], "w") as f:
    for _ in range(400):
        counts = [2, 2] + [1] * 8
        records = [1] + [0] * 9
        rng.shuffle(counts)
        rng.shuffle(records)
        for count, record in zip(counts, records):
            f.write(f"{rng.randrange(512)} 1024 {count} {record}\n")
        f.write("# batch\n")
PY
  "$BUILD_DIR/drw" serve --graph=regular:512,4 --seed=2 --threads=1 --paths \
      --requests=gmw_batches.req --stats-json=stats_gmw.json \
      --print-results > gmw_t1.out
  DRW_PARALLEL_GRAIN=1 "$BUILD_DIR/drw" serve --graph=regular:512,4 --seed=2 \
      --threads=4 --paths --requests=gmw_batches.req --print-results \
      > gmw_t4.out
  diff <(grep -Ev '^(executor|stats json):' gmw_t1.out) \
       <(grep -Ev '^(executor|stats json):' gmw_t4.out)
  for threads in 1 4; do
    DRW_PARALLEL_GRAIN=1 "$BUILD_DIR/drw" serve --graph=regular:512,4 \
        --seed=2 --threads=$threads --mux=4 --paths \
        --requests=gmw_batches.req --stats-json=stats_gmw_mux4.json \
        --print-results > gmw_mux4_t$threads.out
  done
  diff <(grep -Ev '^(executor|stats json):' gmw_mux4_t1.out) \
       <(grep -Ev '^(executor|stats json):' gmw_mux4_t4.out)
  # Round gate: each batch runs its top-ups as one GET-MORE-WALKS run and
  # its tails with its regeneration as one more. Per-source top-up runs and
  # a separate regeneration run cost 1,159,224 rounds and 9,185,335
  # messages here at --mux=1, and 1,111,124 and 9,332,979 at --mux=4.
  # Lifetime rounds must stay at or below 0.65x those, and messages within
  # 1.05x.
  python3 - stats_gmw.json stats_gmw_mux4.json <<'PY'
import json, sys
for path, rounds, messages in [(sys.argv[1], 1159224, 9185335),
                               (sys.argv[2], 1111124, 9332979)]:
    life = json.load(open(path))["lifetime"]
    if life["rounds"] > 0.65 * rounds:
        sys.exit(f"{path}: {life['rounds']} rounds > 0.65 x {rounds}")
    if life["messages"] > 1.05 * messages:
        sys.exit(f"{path}: {life['messages']} messages > 1.05 x {messages}")
    print(f"round gate: {path}: {life['rounds']} rounds "
          f"({life['rounds'] / rounds:.3f} x {rounds}), "
          f"{life['messages']} messages")
PY
  # Node-step gate: executor.node_steps counts the top-level on_round
  # calls. When every run woke all 512 nodes in round 0, these batches took
  # 14,314,430 node steps at --mux=1 and 10,135,112 at --mux=4, where a
  # wave's lanes already shared one round 0. Round 0 now runs only each
  # protocol's start set: 8,215,818 and 8,018,370 steps. What remains is
  # mostly token hops and tree floods, which waves do not share, so the
  # --mux=4 count cannot fall as far; it is gated at 0.8x.
  python3 - stats_gmw.json stats_gmw_mux4.json <<'PY'
import json, sys
for path, parent, bound in [(sys.argv[1], 14314430, 0.6),
                            (sys.argv[2], 10135112, 0.8)]:
    steps = json.load(open(path))["registry"]["executor.node_steps"]
    if steps > bound * parent:
        sys.exit(f"{path}: {steps} node steps > {bound} x {parent}")
    print(f"node-step gate: {path}: {steps} node steps "
          f"({steps / parent:.3f} x {parent})")
PY
  python3 - stats_gmw.json <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
for i, b in enumerate(stats["batches"]):
    if b["held_tokens"] != b["unused_tokens"]:
        sys.exit(f"batch {i + 1}: {b['held_tokens']} tokens held but only "
                 f"{b['unused_tokens']} unused")
life = stats["lifetime"]
if life["gmw_records_freed"] == 0:
    sys.exit("no routing record was ever freed")
print(f"bounded state: {len(stats['batches'])} batches, "
      f"{life['held_tokens']} tokens held, {life['gmw_records']} records "
      f"stored, {life['gmw_records_freed']} freed")
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
  "$BUILD_DIR/bench_ingest" --benchmark_min_time=0
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
