#!/usr/bin/env python3
"""Diff two BENCH_<name>.json trajectory files.

Compares every numeric field present in both files and classifies the
movement:

  * wall-clock fields (``*_ms``, ``wall_ms_*``): relative change beyond the
    threshold is a REGRESSION (slower) or an improvement (faster);
  * exact counters (rounds, messages, determinism flags, ...): any change is
    reported -- these are correctness-relevant, not noise;
  * fields present on only one side are listed, since gates and knobs come
    and go across PRs.

Exit status: 0 when clean or in the default warn-only mode (CI runners are
too noisy for a hard wall-clock gate); 1 when regressions were found and
``--fail-on-regression`` was passed, or when a field named by
``--gate-field`` regressed (those gate unconditionally on matching
hardware -- the transmit-phase rearchitecture is protected by
``--gate-field t_widest_transmit_ms`` so a delivery-path regression
cannot hide behind an overall-wall improvement). When GITHUB_ACTIONS is
set, regressions are emitted as ``::warning::`` annotations so they
surface on the workflow summary without failing the build.

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 0.10]
                      [--fail-on-regression] [--gate-field FIELD ...]
"""

import argparse
import fnmatch
import json
import math
import os
import sys

# Fields whose change is expected run-to-run and never worth reporting.
IGNORED = {"seed"}
# Exact fields that describe the measuring host, not the measured code.
HOST_FIELDS = {"hw_threads", "sweep_skipped_hw1", "dispatch_grain"}
# Wall-clock families that are informational by default: ingestion timings
# (ingest_*, csr_*) depend on page-cache and filesystem state far more than
# on the measured code, so they never regress a diff unless explicitly
# promoted with --gate-field. The hard ingest gates (bulk >= 3x per-line,
# mmap >= 5x re-parse) live inside bench_ingest itself where they compare
# routes within ONE run.
INFORMATIONAL_PREFIXES = ("ingest_", "csr_")


def is_wall_field(key: str) -> bool:
    return key.endswith("_ms") or "wall_ms" in key


def is_informational_field(key: str) -> bool:
    return key.startswith(INFORMATIONAL_PREFIXES)


def is_gated_field(key: str, gate_fields) -> bool:
    """--gate-field values are fnmatch globs, so one flag can cover a
    field family (``lat_*_p99_ms`` gates every per-class serving tail
    latency the serve bench emits). A plain name matches itself."""
    return any(fnmatch.fnmatchcase(key, pat) for pat in gate_fields)


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a flat JSON object")
    return data


def annotate(message: str) -> None:
    print(message)
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::warning::{message}")


def run_diff(args: argparse.Namespace) -> int:
    if not os.path.exists(args.current):
        annotate(f"bench_diff: {args.current} missing (bench did not run?)")
        return 0
    base = load(args.baseline)
    cur = load(args.current)

    # A baseline captured on a different host shape (e.g. the committed
    # 1-core dev-container numbers vs a 4-vCPU runner) makes wall-clock
    # comparisons meaningless: report them informationally, but do not
    # annotate or fail until the baseline is refreshed on matching hardware.
    same_host = base.get("hw_threads") == cur.get("hw_threads")

    gate_fields = set(args.gate_field or [])
    regressions = []
    gated_regressions = []
    improvements = []
    moved = []
    counter_changes = []
    shared = [k for k in base if k in cur and k not in IGNORED]
    for key in shared:
        b, c = base[key], cur[key]
        if not (isinstance(b, (int, float)) and isinstance(c, (int, float))):
            if b != c:
                counter_changes.append(f"{key}: {b!r} -> {c!r}")
            continue
        if is_wall_field(key):
            if b <= 0 or math.isnan(b) or math.isnan(c):
                continue
            rel = (c - b) / b
            line = f"{key}: {b:.6g} -> {c:.6g} ms ({rel:+.1%})"
            if rel > args.threshold:
                if is_gated_field(key, gate_fields):
                    gated_regressions.append(line)
                elif is_informational_field(key):
                    moved.append(f"{line} (io-noisy family, informational)")
                else:
                    regressions.append(line)
            elif rel < -args.threshold:
                improvements.append(line)
        elif key in HOST_FIELDS:
            if b != c:
                counter_changes.append(
                    f"{key}: {b!r} -> {c!r} (host/knob difference -- "
                    "wall-clock deltas may be meaningless)")
        elif isinstance(b, float) or isinstance(c, float):
            # Measured ratios (speedups, improvements, hit rates) jitter
            # run to run; threshold them like wall fields but keep them
            # informational -- the gates in the benches themselves decide
            # pass/fail for these.
            if b != 0 and abs(c - b) / abs(b) > args.threshold:
                moved.append(f"{key}: {b:.6g} -> {c:.6g}")
        elif b != c:
            counter_changes.append(f"{key}: {b!r} -> {c!r}")

    only_base = sorted(k for k in base if k not in cur)
    only_cur = sorted(k for k in cur if k not in base)

    print(f"bench_diff: {args.baseline} vs {args.current} "
          f"({len(shared)} shared fields, threshold {args.threshold:.0%})")
    if not same_host:
        print("  NOTE: hw_threads differs between baseline and current -- "
              "wall-clock deltas reported informationally only; refresh "
              "the baseline on matching hardware to re-arm the gate")
    for line in counter_changes:
        print(f"  counter  {line}")
    for line in moved:
        print(f"  moved    {line}")
    for line in improvements:
        print(f"  faster   {line}")
    for line in regressions:
        if same_host:
            annotate(f"  REGRESSION {line}")
        else:
            print(f"  slower   {line}")
    for line in gated_regressions:
        if same_host:
            annotate(f"  GATED REGRESSION {line}")
        else:
            print(f"  slower   {line} (gated field, cross-host: not "
                  "enforced)")
    if only_base:
        print(f"  removed fields: {', '.join(only_base)}")
    if only_cur:
        print(f"  new fields: {', '.join(only_cur)}")
    if not (counter_changes or moved or improvements or regressions):
        print("  no movement beyond threshold")

    if gated_regressions and same_host:
        return 1
    if regressions and same_host and args.fail_on_regression:
        return 1
    return 0


def self_test() -> int:
    """Unit-ish checks invocable from ci.sh (--self-test).

    Guards the contracts other tooling relies on: unknown keys never fail
    the diff (bench JSON grows obs_* fields across PRs), wall regressions
    gate only with --fail-on-regression on matching hardware, and
    non-numeric fields diff without crashing.
    """
    import contextlib
    import io
    import tempfile

    def diff(base: dict, cur: dict, fail_on_regression: bool = False,
             threshold: float = 0.10, gate_field=None):
        with tempfile.TemporaryDirectory() as tmp:
            b_path = os.path.join(tmp, "base.json")
            c_path = os.path.join(tmp, "cur.json")
            with open(b_path, "w", encoding="utf-8") as fh:
                json.dump(base, fh)
            with open(c_path, "w", encoding="utf-8") as fh:
                json.dump(cur, fh)
            args = argparse.Namespace(
                baseline=b_path, current=c_path, threshold=threshold,
                fail_on_regression=fail_on_regression,
                gate_field=gate_field or [])
            out = io.StringIO()
            github = os.environ.pop("GITHUB_ACTIONS", None)
            try:
                with contextlib.redirect_stdout(out):
                    code = run_diff(args)
            finally:
                if github is not None:
                    os.environ["GITHUB_ACTIONS"] = github
            return code, out.getvalue()

    checks = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        print(f"  {'ok' if ok else 'FAIL'}  {name}"
              f"{'' if ok else ' -- ' + detail}")

    base = {"hw_threads": 4, "wall_ms_t1": 100.0, "rounds": 7}

    # New (e.g. obs_*) keys on the current side must never fail the diff.
    code, out = diff(base, {**base, "obs_round_wall_us_p99": 512,
                            "obs_executor_runs": 3},
                     fail_on_regression=True)
    check("unknown new keys pass", code == 0 and "new fields" in out,
          f"code={code}")

    # Removed keys are reported, not fatal.
    code, out = diff(base, {"hw_threads": 4, "wall_ms_t1": 100.0},
                     fail_on_regression=True)
    check("removed keys pass", code == 0 and "removed fields" in out,
          f"code={code}")

    # A same-host wall regression beyond threshold fails only when asked.
    slow = {**base, "wall_ms_t1": 150.0}
    code, _ = diff(base, slow, fail_on_regression=True)
    check("wall regression gates with --fail-on-regression", code == 1,
          f"code={code}")
    code, _ = diff(base, slow, fail_on_regression=False)
    check("wall regression warns by default", code == 0, f"code={code}")

    # Cross-host wall deltas are informational even when gating.
    code, _ = diff(base, {**slow, "hw_threads": 8}, fail_on_regression=True)
    check("cross-host wall deltas never gate", code == 0, f"code={code}")

    # Exact counter movement is reported; non-numeric values do not crash.
    code, out = diff(base, {**base, "rounds": 8, "mode": "mux"})
    check("counter changes reported", code == 0 and "rounds: 7 -> 8" in out,
          f"code={code}")
    code, out = diff({**base, "mode": "serial"}, {**base, "mode": "mux"})
    check("non-numeric fields diff cleanly",
          code == 0 and "'serial' -> 'mux'" in out, f"code={code}")

    # A --gate-field regression fails even without --fail-on-regression:
    # the transmit-phase gate must not hide behind warn-only mode.
    phase_base = {**base, "t_widest_transmit_ms": 100.0}
    phase_slow = {**phase_base, "t_widest_transmit_ms": 150.0}
    code, out = diff(phase_base, phase_slow,
                     gate_field=["t_widest_transmit_ms"])
    check("gate-field regression fails warn-only diffs",
          code == 1 and "GATED REGRESSION" in out, f"code={code}")

    # Other fields regressing do not trip a gate aimed elsewhere.
    code, _ = diff(phase_base, {**phase_base, "wall_ms_t1": 150.0},
                   gate_field=["t_widest_transmit_ms"])
    check("gate-field ignores other regressions", code == 0,
          f"code={code}")

    # Gated improvements and within-threshold moves pass.
    code, _ = diff(phase_base, {**phase_base, "t_widest_transmit_ms": 60.0},
                   gate_field=["t_widest_transmit_ms"])
    check("gate-field improvement passes", code == 0, f"code={code}")

    # Cross-host gated deltas stay informational like everything else.
    code, _ = diff(phase_base, {**phase_slow, "hw_threads": 8},
                   gate_field=["t_widest_transmit_ms"])
    check("gate-field never gates cross-host", code == 0, f"code={code}")

    # --gate-field is an fnmatch glob: one pattern covers the whole
    # per-class latency family the serve bench emits...
    lat_base = {**base, "lat_light_p99_ms": 10.0, "lat_flood_p99_ms": 40.0,
                "lat_light_p50_ms": 5.0}
    code, out = diff(lat_base, {**lat_base, "lat_flood_p99_ms": 60.0},
                     gate_field=["lat_*_p99_ms"])
    check("gate-field glob matches its field family",
          code == 1 and "GATED REGRESSION" in out, f"code={code}")

    # ...without capturing fields outside the glob (a p50 regression is an
    # ordinary warn-only wall delta).
    code, _ = diff(lat_base, {**lat_base, "lat_light_p50_ms": 9.0},
                   gate_field=["lat_*_p99_ms"])
    check("gate-field glob ignores non-matching keys", code == 0,
          f"code={code}")

    # Ingestion wall fields (ingest_*/csr_*) are IO-noisy: informational
    # even under --fail-on-regression...
    ingest_base = {**base, "ingest_bulk_t1_ms": 10.0, "csr_mmap_start_ms": 1.0}
    ingest_slow = {**ingest_base, "ingest_bulk_t1_ms": 20.0,
                   "csr_mmap_start_ms": 3.0}
    code, out = diff(ingest_base, ingest_slow, fail_on_regression=True)
    check("ingest/csr wall fields informational by default",
          code == 0 and "io-noisy" in out, f"code={code}")

    # ...but still promotable to a hard gate with --gate-field.
    code, out = diff(ingest_base, ingest_slow,
                     gate_field=["csr_mmap_start_ms"])
    check("ingest/csr fields gate when promoted",
          code == 1 and "GATED REGRESSION" in out, f"code={code}")

    if all(checks):
        print(f"bench_diff --self-test: OK ({len(checks)} checks)")
        return 0
    print("bench_diff --self-test: FAILED")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_<name>.json files")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative wall-clock change that counts as a "
                             "regression (default 0.10 = 10%%)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 on wall-clock regressions (default: "
                             "warn only -- shared CI runners are noisy)")
    parser.add_argument("--gate-field", action="append", default=[],
                        metavar="FIELD",
                        help="wall-clock field that gates unconditionally "
                             "on matching hardware (repeatable; fnmatch "
                             "globs cover field families), e.g. "
                             "t_widest_transmit_ms or 'lat_*_p99_ms'")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in contract checks and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required (or --self-test)")
    return run_diff(args)


if __name__ == "__main__":
    sys.exit(main())
