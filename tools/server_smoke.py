#!/usr/bin/env python3
"""Live-service smoke for `drw serve --listen` (the always-on TCP server).

Boots a real server process on an ephemeral port, drives it with two
concurrent `drw request` clients -- a light mixed-class workload (some
requests recording full paths) racing a 40-request hot-key flood -- then
stops it with SIGTERM and asserts the serving determinism contract:

  * every client response carries a unique server-assigned admission index;
  * the admission log + `# batch` markers the server wrote replay through
    `drw serve --requests=LOG --print-results` (same graph, same seed,
    fresh process) to the BYTE-IDENTICAL `result[...]` lines the clients
    printed -- destinations, paths, statuses, ordering;
  * SIGTERM produces the `shutdown: clean | ...` summary with zero
    rejections (nothing in this workload should bounce);
  * the trace the server wrote under DRW_TRACE passes
    tools/validate_trace.py (its mux lanes stay below the recorded
    mux_width);
  * a request file with a negative, non-numeric or partly numeric field,
    a fifth field, or a count above UINT32_MAX is rejected with a
    line-numbered usage error before anything is served.

Server and replay both stitch at --mux=4, so multi-lane waves run over
real sockets.

Everything the run produced (server stdout, both client transcripts, the
admission log, the server trace, the replay output) is left under
./server_smoke_artifacts/ so CI can upload it when a check fails.

Exit status 0 when every check passes, 1 otherwise.

Usage: tools/server_smoke.py BUILD_DIR/drw
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

GRAPH_ARGS = ["--graph=torus:8x8", "--seed=7", "--paths", "--mux=4"]
MUX_PID = 2  # obs::kPidMux, as in validate_trace.py
VALIDATE_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "validate_trace.py")

# Mixed light workload: in-range sources on the 64-node torus, two requests
# recording full trajectories. Each length exceeds 2 * lambda for any batch
# this run can form (lambda = sqrt(k l D) + k <= 1288 at k = 47 walks,
# l = 4096, D = 8), so these walks always stitch, from distinct connectors,
# and share mux waves; the hot-key flood alone serializes on its one
# connector.
LIGHT_REQUESTS = """\
0 4096 2 1
5 3584 1
9 3072 2
17 4096 1
63 3584 1 1
"""

failures = []


def check(ok: bool, what: str) -> None:
    print(f"  {'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def result_lines(text: str) -> list:
    return [ln for ln in text.splitlines() if ln.startswith("result[")]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    drw = os.path.abspath(sys.argv[1])
    if not os.access(drw, os.X_OK):
        print(f"server_smoke: not executable: {drw}")
        return 2

    work = os.path.abspath("server_smoke_artifacts")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    adm_log = os.path.join(work, "admission.log")
    trace = os.path.join(work, "trace_listen.json")
    light_req = os.path.join(work, "light.req")
    flood_req = os.path.join(work, "flood.req")
    with open(light_req, "w") as f:
        f.write(LIGHT_REQUESTS)
    with open(flood_req, "w") as f:
        for _ in range(40):
            f.write("7 256 1\n")

    env = dict(os.environ)
    env.pop("DRW_FAILPOINTS", None)
    env.pop("DRW_TRACE", None)
    server_env = dict(env, DRW_TRACE=trace)

    print("server_smoke: booting the live server")
    server = subprocess.Popen(
        [drw, "serve"] + GRAPH_ARGS +
        ["--listen=127.0.0.1:0", f"--admission-log={adm_log}"],
        env=server_env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    server_out = []
    try:
        port = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = server.stdout.readline()
            if not line:
                break
            server_out.append(line)
            if line.startswith("listening: "):
                port = line.strip().rsplit(":", 1)[-1]
                break
        check(port is not None, "server prints its listening: HOST:PORT line")
        if port is None:
            raise RuntimeError("no listening line")

        # Flood first so its backlog is queued when the light class arrives;
        # DRR admission must still serve the light requests promptly (the
        # bench gates the latency ratio; here we only need full, correct
        # responses for both classes).
        flood = subprocess.Popen(
            [drw, "request", f"--connect=127.0.0.1:{port}",
             f"--requests={flood_req}", "--class=flood"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        light = subprocess.run(
            [drw, "request", f"--connect=127.0.0.1:{port}",
             f"--requests={light_req}", "--class=light"],
            env=env, capture_output=True, text=True, timeout=120)
        flood_out, _ = flood.communicate(timeout=120)
        check(light.returncode == 0, "light client exits 0")
        check(flood.returncode == 0, "flood client exits 0")
        check("responses: 5 admitted, 0 rejected" in light.stdout,
              "light client: all 5 requests admitted")
        check("responses: 40 admitted, 0 rejected" in flood_out,
              "flood client: all 40 requests admitted")
        check("result[" in light.stdout and "] path:" in light.stdout,
              "light client received recorded paths")

        server.send_signal(signal.SIGTERM)
        rest, _ = server.communicate(timeout=60)
        server_out.append(rest)
        check(server.returncode == 0, "SIGTERM: server exits 0")
        shutdown = [ln for ln in rest.splitlines()
                    if ln.startswith("shutdown: clean")]
        check(bool(shutdown), "server prints the clean-shutdown summary")
        if shutdown:
            check("requests=45" in shutdown[0] and "admitted=45" in shutdown[0]
                  and "queue_full=0" in shutdown[0],
                  f"shutdown summary counts 45/45 admitted ({shutdown[0]})")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
        with open(os.path.join(work, "server.out"), "w") as f:
            f.writelines(server_out)
        with open(os.path.join(work, "light.out"), "w") as f:
            f.write(light.stdout if 'light' in dir() else "")
        with open(os.path.join(work, "flood.out"), "w") as f:
            f.write(flood_out if 'flood_out' in dir() else "")

    validate = subprocess.run(
        [sys.executable, VALIDATE_TRACE, trace],
        capture_output=True, text=True, timeout=120)
    print("    " + "\n    ".join(validate.stdout.strip().splitlines()))
    check(validate.returncode == 0, "server trace passes validate_trace.py")
    lanes = set()
    if validate.returncode == 0:
        with open(trace) as f:
            lanes = {ev["tid"] for ev in json.load(f)["traceEvents"]
                     if ev["pid"] == MUX_PID}
    check(any(lane >= 1 for lane in lanes),
          f"server ran multi-lane waves (mux lanes {sorted(lanes)})")

    # The determinism contract: replaying the admission log through a fresh
    # offline process reproduces every served line byte for byte.
    print("server_smoke: replaying the admission log")
    check(os.path.exists(adm_log), "server wrote the admission log")
    replay = subprocess.run(
        [drw, "serve"] + GRAPH_ARGS +
        [f"--requests={adm_log}", "--print-results"],
        env=env, capture_output=True, text=True, timeout=120)
    with open(os.path.join(work, "replay.out"), "w") as f:
        f.write(replay.stdout)
    check(replay.returncode == 0, "replay exits 0")

    served = sorted(result_lines(light.stdout) + result_lines(flood_out))
    replayed = sorted(result_lines(replay.stdout))
    check(len(served) > 0, "clients printed result lines")
    check(served == replayed,
          f"replay is byte-identical to the live responses "
          f"({len(served)} live vs {len(replayed)} replayed lines)")
    if served != replayed:
        for live, rep in zip(served, replayed):
            if live != rep:
                print(f"    first divergence:\n      live:   {live}\n"
                      f"      replay: {rep}")
                break

    # One `result[IDX] source=...` header per request (`result[IDX] path:`
    # continuation lines reuse the index of their request).
    indices = sorted(int(ln.split("]")[0][len("result["):])
                     for ln in served if " source=" in ln)
    check(indices == list(range(len(indices))) and len(indices) == 45,
          "admission indices are a dense 0..44 permutation")

    # Request-file fields are parsed strictly: a negative field (which an
    # unsigned parse would wrap), a count above UINT32_MAX (which would be
    # truncated), a non-numeric or partly numeric field, or a fifth field
    # is a line-numbered usage error, never a served batch.
    for bad in ("0 64 4294967297", "0 64 -1", "0 64 abc", "2 64 3x",
                "1 64 2 1 junk"):
        bad_req = os.path.join(work, "bad.req")
        with open(bad_req, "w") as f:
            f.write(f"0 64 1\n{bad}\n")
        rejected = subprocess.run(
            [drw, "serve"] + GRAPH_ARGS +
            [f"--requests={bad_req}", "--print-results"],
            env=env, capture_output=True, text=True, timeout=60)
        check(rejected.returncode != 0 and
              "request file line 2:" in rejected.stderr and
              not result_lines(rejected.stdout),
              f"request line `{bad}` is rejected with a line-numbered "
              f"usage error")

    if failures:
        print(f"server_smoke: FAIL ({len(failures)} check(s)); artifacts in "
              f"{work}")
        return 1
    print(f"server_smoke: PASS ({len(served)} responses byte-identical "
          f"to replay)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
