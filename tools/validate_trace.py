#!/usr/bin/env python3
"""Validate a drw Chrome trace-event JSON (DRW_TRACE / drw --trace).

Structural checks (always):
  * the file parses as JSON with a ``traceEvents`` list;
  * per (pid, tid) track, timestamps are non-decreasing (the exporter
    stable-sorts by stamp, so a violation means a broken merge);
  * 'B'/'E' duration events are balanced and name-matched per track (an
    unmatched 'E' is tolerated only when otherData.dropped > 0 -- the ring
    dropped its opening 'B');
  * every mux-track tid is < otherData.mux_width (lane attribution cannot
    name a lane the scheduler could not have opened).

Cross-check (when the producer recorded the metadata):
  * with otherData.threads == 1 and no drops, the summed transmit-shard
    span time (the ``transmit.fused.shard`` spans) must land
    within --tolerance (default 10%) of the driver's
    otherData.transmit_ms -- the acceptance gate tying the trace to
    RunStats. At threads > 1 shards transmit concurrently and span-sum is
    CPU time, not wall time, so the check is skipped with a note.

Exit status 0 on success, 1 on any failure.

Usage: tools/validate_trace.py TRACE.json [--tolerance 0.10]
"""

import argparse
import json
import sys

MUX_PID = 2  # obs::kPidMux


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL: {msg}")
    sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative transmit span-sum mismatch allowed "
                             "(default 0.10 = 10%%)")
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{args.trace}: {err}")
    if not isinstance(data, dict) or "traceEvents" not in data:
        fail("missing traceEvents")
    events = data["traceEvents"]
    other = data.get("otherData", {})
    dropped = int(other.get("dropped", 0))

    last_ts = {}    # (pid, tid) -> last timestamp seen
    stacks = {}     # (pid, tid) -> open 'B' stack of (name, ts)
    unmatched_e = 0
    transmit_spans_us = 0.0
    mux_width = other.get("mux_width")
    n_events = 0

    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        n_events += 1
        for field in ("name", "ts", "pid", "tid"):
            if field not in ev:
                fail(f"event missing {field}: {ev}")
        key = (ev["pid"], ev["tid"])
        ts = float(ev["ts"])
        if key in last_ts and ts < last_ts[key]:
            fail(f"timestamps regress on track {key}: "
                 f"{last_ts[key]} -> {ts} at {ev['name']}")
        last_ts[key] = ts

        if ev["pid"] == MUX_PID and mux_width is not None:
            if int(ev["tid"]) >= int(mux_width):
                fail(f"mux event on lane {ev['tid']} but mux_width is "
                     f"{int(mux_width)}: {ev['name']}")

        if ph == "B":
            stacks.setdefault(key, []).append((ev["name"], ts))
        elif ph == "E":
            stack = stacks.get(key, [])
            if not stack:
                unmatched_e += 1
                if dropped == 0:
                    fail(f"unmatched 'E' ({ev['name']}) on track {key} "
                         "with no ring drops")
                continue
            name, begin = stack.pop()
            if name != ev["name"]:
                fail(f"mismatched span on track {key}: "
                     f"B={name} closed by E={ev['name']}")
            # Each span brackets one shard's whole transmit pass.
            if ev["name"] == "transmit.fused.shard":
                transmit_spans_us += ts - begin
        elif ph not in ("i", "C"):
            fail(f"unknown phase {ph!r}: {ev}")

    open_spans = sum(len(s) for s in stacks.values())
    if open_spans and dropped == 0:
        leftovers = [s[-1][0] for s in stacks.values() if s]
        fail(f"{open_spans} unclosed 'B' span(s) with no ring drops "
             f"(e.g. {leftovers[:4]})")

    notes = [f"{n_events} events", f"{dropped} dropped"]
    transmit_ms = other.get("transmit_ms")
    threads = other.get("threads")
    if transmit_ms is None or threads is None:
        notes.append("no transmit_ms/threads metadata: span-sum check "
                     "skipped")
    elif int(threads) != 1:
        notes.append(f"threads={int(threads)}: span-sum vs transmit_ms "
                     "only comparable at threads=1, skipped")
    elif dropped > 0:
        notes.append("ring dropped events: span-sum check skipped")
    elif float(transmit_ms) <= 0.0:
        notes.append("transmit_ms is zero: span-sum check skipped")
    else:
        span_ms = transmit_spans_us / 1000.0
        rel = abs(span_ms - float(transmit_ms)) / float(transmit_ms)
        if rel > args.tolerance:
            fail(f"transmit shard spans sum to {span_ms:.3f} ms but "
                 f"RunStats.transmit_ms is {float(transmit_ms):.3f} ms "
                 f"({rel:+.1%} off, tolerance {args.tolerance:.0%})")
        notes.append(f"transmit spans {span_ms:.1f} ms vs RunStats "
                     f"{float(transmit_ms):.1f} ms ({rel:.1%} off)")

    print(f"validate_trace: OK ({'; '.join(notes)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
