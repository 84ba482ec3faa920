#!/usr/bin/env python3
"""End-to-end walk-serving benchmark for drw.

Builds the `drw` CLI from the checkout's sources, then measures one workload
the way a user meets the system:

  batch         offline `drw serve --requests=FILE`: batches of walk requests
                served in one process (no sockets, no admission queue).
                Unit of latency: one batch.
  serve-steady  a live `drw serve --listen` process driven over loopback TCP
                by four "light" client connections with open-loop arrivals.
                Unit of latency: one light request, timed from the instant it
                was due to be sent.
  serve-flood   serve-steady plus a "flood" connection that keeps a window of
                longer hot-key requests outstanding, so light requests compete
                with a saturating bulk client through DRR admission.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is SESSIONS independent sessions, each a fresh process serving the
graph fixed for its slot under traffic drawn from --seed, so one run
averages several graphs and traffic draws and sets up several times. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 arms the
program's tracer and stats registry on TRACE_SESSIONS of the sessions and
reports per-layer metrics (congest / core / service / net) instead.
Everything a run writes stays under .bench_build/ in the checkout; progress
goes to stderr.

Correctness: serve sessions replay the server's admission log through a fresh
offline process and require every response to match it exactly (walk
endpoints and recorded paths); every workload checks response structure and
that long-walk endpoints pass a chi-square test against the uniform
stationary distribution of the regular graph served.
"""

import argparse
import json
import math
import os
import pty
import random
import re
import select
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import tty

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# The served graph: a random 4-regular expander (diameter 8 at this size).
# Its stationary distribution is uniform, which the endpoint check uses.
NODES = 512
DEGREE = 4
# Serial stitching. Wider mux widths abort with "token already used" when a
# hot key floods the connectors, so they cannot carry the flood workload.
MUX = 1

# Light traffic. One walk length keeps every batch's planned lambda inside
# the service's re-plan slack window, so Phase 1 runs only during set-up and
# a run measures serving rather than a re-prepare lottery. Requests differ in
# walk count and in whether they record the full path (regeneration).
LIGHT_LENGTH = 1024
LIGHT_PAIR_SHARE = 0.2      # requests asking for two walks instead of one
LIGHT_RECORD_SHARE = 0.1    # requests that also return the walk's path
LIGHT_RATE = 50.0           # requests per second, summed over the clients
LIGHT_CLIENTS = 4

# Flood: one connection keeping FLOOD_WINDOW requests for one hot source
# outstanding (closed loop: it saturates the server without overflowing the
# admission queue). A request costs a whole batch of admission budget; its
# walk length matches the light class so mixed batches plan the same lambda.
FLOOD_LENGTH = 1024
FLOOD_COUNT = 8
FLOOD_WINDOW = 4

BATCH_REQUESTS = 10         # requests per offline batch
TRACE_BATCHES = 40          # offline batches per traced session
SESSIONS = 15               # independent sessions per run
TRACE_SESSIONS = 5          # of those, run by a traced run: a traced flood
                            # session writes ~300 MB of spans and takes 3x
                            # as long, so fifteen would not fit the time limit
GRAPH_SEED0 = 1             # session i serves the graph of seed GRAPH_SEED0+i
WARMUP_REQUESTS = 4         # served one by one before a session's timing
WARMUP_FLOOD = 48           # flood requests served before a flood session's
                            # timing
REPLAY_JOBS = 3             # admission-log replays run at once
ENDPOINT_MIN_LENGTH = 256   # walks this long are mixed on the served graph

MSG_HELLO, MSG_REQUEST, MSG_RESPONSE = 1, 2, 3
HEADER = struct.Struct("<IB")
REQUEST = struct.Struct("<QQQIIB")
RESPONSE_HEAD = struct.Struct("<QQBBI")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that must end the run without a result."""


# --------------------------------------------------------------------- build

def build():
    """Configures (once) and builds the drw CLI; returns its path."""
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "drw_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"program sources not found ({need} missing)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", ROOT, "-B", BUILD_DIR, "-DBUILD_TESTING=OFF"]
        if subprocess.run(configure + gen, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "drw_cli",
                       "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    drw = os.path.join(BUILD_DIR, "drw")
    if not os.access(drw, os.X_OK):
        raise BenchError(f"build produced no {drw}")
    return drw


# ----------------------------------------------------------------- workloads

def light_mix(rng, n):
    """n light requests (source, length, count, record) in random order. The
    shares of two-walk and recorded requests are exact, so every seed offers
    the same work and only sources, order and timing change."""
    counts = [2 if i < round(n * LIGHT_PAIR_SHARE) else 1 for i in range(n)]
    records = [i < round(n * LIGHT_RECORD_SHARE) for i in range(n)]
    rng.shuffle(counts)
    rng.shuffle(records)
    return [(rng.randrange(NODES), LIGHT_LENGTH, count, record)
            for count, record in zip(counts, records)]


def graph_args(seed):
    return [f"--graph=regular:{NODES},{DEGREE}", f"--seed={seed}",
            "--threads=1", f"--mux={MUX}", "--paths"]


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def program_env(trace):
    env = dict(os.environ)
    env.pop("DRW_FAILPOINTS", None)
    if trace:
        # Rings large enough that a session's events are never overwritten.
        env["DRW_TRACE_BUF"] = str(1 << 22)
    return env


def trace_args(work):
    return [f"--trace={os.path.join(work, 'trace.json')}",
            f"--stats-json={os.path.join(work, 'stats.json')}"]


# ------------------------------------------------------------- correctness

class Checker:
    """Structural and distributional checks on served walks."""

    def __init__(self):
        self.errors = []
        self.endpoint_counts = [0] * NODES
        self.endpoints = 0

    def error(self, msg):
        if len(self.errors) < 10:
            self.errors.append(msg)

    def check(self, req, status, destinations, paths):
        """True when one response is well formed for its request."""
        source, length, count, record = req
        if status != 0:
            self.error(f"request {req} failed with status {status}")
            return False
        if len(destinations) != count or any(d >= NODES for d in destinations):
            self.error(f"request {req}: bad destinations {destinations}")
            return False
        if len(paths) != (count if record else 0):
            self.error(f"request {req}: {len(paths)} paths")
            return False
        for path, dest in zip(paths, destinations):
            if len(path) != length + 1 or path[0] != source or path[-1] != dest:
                self.error(f"request {req}: malformed path")
                return False
        if length >= ENDPOINT_MIN_LENGTH:
            for d in destinations:
                self.endpoint_counts[d] += 1
            self.endpoints += len(destinations)
        return True

    def endpoints_uniform(self):
        """Chi-square of long-walk endpoints against uniform, via the
        Wilson-Hilferty normal approximation; z > 6 (p < 1e-9) fails, so a
        biased sampler fails while seed-to-seed noise never does."""
        if self.endpoints < 2 * NODES:
            return True
        expected = self.endpoints / NODES
        chi2 = sum((c - expected) ** 2 for c in self.endpoint_counts) / expected
        k = NODES - 1
        z = ((chi2 / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))
        if z > 6:
            self.error(f"endpoint distribution not uniform (chi2={chi2:.0f}, "
                       f"df={k}, z={z:.1f})")
            return False
        return True


RESULT_RE = re.compile(
    r"result\[(\d+)\] source=(\d+) length=(\d+) count=(\d+) status=(.*?) "
    r"destinations:(.*)")
PATH_RE = re.compile(r"result\[(\d+)\] path:(.*)")


def parse_result_lines(lines):
    """`result[...]` lines of `drw serve --print-results` -> {index: rec}."""
    out = {}
    for line in lines:
        m = RESULT_RE.match(line)
        if m:
            out[int(m.group(1))] = {
                "req": (int(m.group(2)), int(m.group(3)), int(m.group(4))),
                "ok": m.group(5) == "ok",
                "dest": [int(x) for x in m.group(6).split()],
                "paths": []}
            continue
        m = PATH_RE.match(line)
        if m and int(m.group(1)) in out:
            out[int(m.group(1))]["paths"].append(
                [int(x) for x in m.group(2).split()])
    return out


# --------------------------------------------------------------- wire client

def frame(kind, payload):
    return HEADER.pack(len(payload), kind) + payload


def hello_frame(klass):
    name = klass.encode()
    return frame(MSG_HELLO, struct.pack("<IB", 1, len(name)) + name +
                 struct.pack("<Q", 0))


def request_frame(tag, req):
    source, length, count, record = req
    return frame(MSG_REQUEST, REQUEST.pack(tag, source, length, count, 0,
                                           1 if record else 0))


def decode_response(payload):
    """RESPONSE payload -> (tag, admission index, status, dests, paths)."""
    tag, index, status, _record, n_dest = RESPONSE_HEAD.unpack_from(payload)
    at = RESPONSE_HEAD.size
    dest = list(struct.unpack_from(f"<{n_dest}I", payload, at))
    at += 4 * n_dest
    (n_paths,) = struct.unpack_from("<I", payload, at)
    at += 4
    paths = []
    for _ in range(n_paths):
        (plen,) = struct.unpack_from("<I", payload, at)
        at += 4
        paths.append(list(struct.unpack_from(f"<{plen}I", payload, at)))
        at += 4 * plen
    if at != len(payload):
        raise BenchError("malformed response frame")
    return tag, index, status, dest, paths


class Conn:
    """One client connection: HELLO handshake, then length-prefixed frames."""

    def __init__(self, port, klass):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.bytes_in = 0
        self.sock.sendall(hello_frame(klass))
        kind, payload = self.read_frame()
        if kind != MSG_HELLO:
            raise BenchError("HELLO handshake failed")
        (nodes,) = struct.unpack_from("<Q", payload, 5 + payload[4])
        if nodes != NODES:
            raise BenchError(f"server reports {nodes} nodes")

    def read_frame(self):
        while True:
            got = self.pop_frame()
            if got is not None:
                return got
            if not self.fill():
                raise BenchError("server closed a client connection")

    def fill(self):
        chunk = self.sock.recv(1 << 16)
        self.bytes_in += len(chunk)
        self.buf += chunk
        return bool(chunk)

    def pop_frame(self):
        if len(self.buf) < HEADER.size:
            return None
        length, kind = HEADER.unpack_from(self.buf)
        if len(self.buf) < HEADER.size + length:
            return None
        payload = bytes(self.buf[HEADER.size:HEADER.size + length])
        del self.buf[:HEADER.size + length]
        return kind, payload


# -------------------------------------------------------------- serve loads

class Server:
    """A `drw serve --listen` process on an ephemeral port."""

    def __init__(self, drw, seed, work, trace):
        self.log_path = os.path.join(work, "admission.log")
        cmd = [drw, "serve"] + graph_args(seed) + [
            "--listen=127.0.0.1:0", f"--admission-log={self.log_path}",
            "--class-quantum=light:8192", "--class-quantum=flood:2048"]
        if trace:
            cmd += trace_args(work)
        self.err_path = os.path.join(work, "server.err")
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=err, stdin=subprocess.DEVNULL,
                                         env=program_env(trace), text=True)
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("listening: "):
                self.port = int(line.strip().rsplit(":", 1)[-1])
                break
        if self.port is None:
            self.kill()
            raise BenchError("server exited before listening")

    def stop(self):
        """SIGTERM; returns the counts of the clean-shutdown summary."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop on SIGTERM")
        if self.proc.returncode != 0:
            with open(self.err_path) as f:
                tail = f.read()[-400:]
            raise BenchError(f"server exited {self.proc.returncode}: {tail}")
        for line in out.splitlines():
            if line.startswith("shutdown: clean"):
                return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}
        raise BenchError("server printed no shutdown summary")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def replay_all(drw, sessions, checker):
    """The determinism contract: an offline replay of each session's
    admission log gives every admitted request exactly the walks the client
    received. Replays run after every session is measured, REPLAY_JOBS at a
    time, so they neither perturb timing nor serialise behind it."""
    todo = [s for s in sessions if "log_path" in s]
    running = []   # (session, process, stdout path, start time)
    try:
        while todo or running:
            while todo and len(running) < REPLAY_JOBS:
                s = todo.pop(0)
                out_path = s["log_path"] + ".replay"
                with open(out_path, "w") as f:
                    proc = subprocess.Popen(
                        [drw, "serve"] + graph_args(s["seed"]) +
                        [f"--requests={s['log_path']}", "--print-results"],
                        stdout=f, stderr=subprocess.DEVNULL,
                        stdin=subprocess.DEVNULL)
                running.append((s, proc, out_path, time.monotonic()))
            s, proc, out_path, started = running[0]
            try:
                code = proc.wait(timeout=max(0.1, started + 120 - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError("admission-log replay timed out")
            running.pop(0)
            if code != 0:
                raise BenchError("admission-log replay failed")
            with open(out_path) as f:
                expected = parse_result_lines(f.read().splitlines())
            for req, (index, _status, dest, paths) in s["responses"]:
                want = expected.get(index)
                if (want is None or want["req"] != req[:3] or not want["ok"]
                        or want["dest"] != dest or want["paths"] != paths):
                    s["failed"] += 1
                    checker.error(f"response #{index} differs from the replay")
            del s["responses"]
    finally:
        for _, proc, _, _ in running:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def warm_up(conn, rng, checker):
    """Serves WARMUP_REQUESTS light requests one at a time (the first runs
    Phase 1), so timing starts on a prepared inventory. The first request is
    always the two-walk one: Phase 1 plans lambda from the first batch's walk
    count (91 for one walk, 130 for two here), and under the flood a lambda
    of 91 costs half as much again per walk, so leaving it to the draw would
    make every session a coin toss between two speeds."""
    served = []
    reqs = sorted(light_mix(rng, WARMUP_REQUESTS), key=lambda r: -r[2])
    for tag, req in enumerate(reqs):
        conn.sock.sendall(request_frame(tag, req))
        kind, payload = conn.read_frame()
        if kind != MSG_RESPONSE:
            raise BenchError("unexpected frame during warm-up")
        _, index, status, dest, paths = decode_response(payload)
        checker.check(req, status, dest, paths)
        served.append((req, (index, status, dest, paths)))
    return served


def warm_flood(port, req, checker):
    """Serves WARMUP_FLOOD flood requests, FLOOD_WINDOW at a time, before a
    flood session's timing. Saturating traffic drains the short-walk
    inventory into its steady state of GET-MORE-WALKS top-ups over the
    first few hundred walks; a warm-up counted in requests, not seconds,
    starts every timed window from that state however fast the host is."""
    conn = Conn(port, "flood")
    served = []
    sent = 0
    while len(served) < WARMUP_FLOOD:
        while sent < WARMUP_FLOOD and sent - len(served) < FLOOD_WINDOW:
            conn.sock.sendall(request_frame(WARMUP_REQUESTS + sent, req))
            sent += 1
        kind, payload = conn.read_frame()
        if kind != MSG_RESPONSE:
            raise BenchError("unexpected frame during warm-up")
        _, index, status, dest, paths = decode_response(payload)
        checker.check(req, status, dest, paths)
        served.append((req, (index, status, dest, paths)))
    conn.sock.close()
    return served


def serve_session(drw, args, work, graph_seed, seed, seconds, flood, checker):
    rng = random.Random(seed)
    t0 = time.perf_counter()
    server = Server(drw, graph_seed, work, args.trace)
    try:
        warm_conn = Conn(server.port, "light")
        warm = warm_up(warm_conn, rng, checker)
        setup = time.perf_counter() - t0
        flood_req = None
        if flood:
            flood_req = (rng.randrange(NODES), FLOOD_LENGTH, FLOOD_COUNT, False)
            warm += warm_flood(server.port, flood_req, checker)
        out = drive(server.port, seconds, rng, checker, flood_req)
        out["bytes_in"] += warm_conn.bytes_in
        warm_conn.sock.close()
        counts = server.stop()
    except BaseException:
        server.kill()
        raise
    out["responses"] += warm
    if (counts.get("admitted") != len(out["responses"])
            or counts.get("queue_full") or counts.get("deadline")
            or counts.get("invalid")):
        checker.error(f"server summary disagrees: {counts}")
    out["attempted"] = len(out["responses"])
    out["setup_s"] = setup
    out["seed"] = graph_seed
    out["log_path"] = server.log_path
    return out


def drive(port, seconds, rng, checker, flood_req):
    """A session's measured phase: open-loop light clients, plus the flood
    when `flood_req` names its request."""
    flood = flood_req is not None
    lights = [Conn(port, "light") for _ in range(LIGHT_CLIENTS)]
    conns = lights + ([Conn(port, "flood")] if flood else [])
    # Poisson arrivals conditioned on their number: a fixed count of due
    # times spread uniformly over the window, dealt round-robin to clients.
    n = max(1, round(LIGHT_RATE * seconds))
    dues = sorted(rng.uniform(0, seconds) for _ in range(n))
    schedule = [(due, lights[i % LIGHT_CLIENTS], req)
                for i, (due, req) in enumerate(zip(dues, light_mix(rng, n)))]

    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    pending = {}          # tag -> (request, due or send time, is light)
    out = {"responses": [], "light_ms": [], "lag_ms": [], "steps": 0,
           "failed": 0}
    tag = WARMUP_REQUESTS
    flood_outstanding = 0
    next_light = 0
    start = time.perf_counter()
    end = start + seconds
    last = start
    while True:
        now = time.perf_counter()
        while next_light < n and start + schedule[next_light][0] <= now:
            due, conn, req = schedule[next_light]
            conn.sock.sendall(request_frame(tag, req))
            out["lag_ms"].append((time.perf_counter() - start - due) * 1e3)
            pending[tag] = (req, start + due, True)
            tag += 1
            next_light += 1
        while flood and now < end and flood_outstanding < FLOOD_WINDOW:
            conns[-1].sock.sendall(request_frame(tag, flood_req))
            pending[tag] = (flood_req, time.perf_counter(), False)
            tag += 1
            flood_outstanding += 1
        if next_light == n and not pending:
            break
        if now > end + 100:
            raise BenchError(f"{len(pending)} requests never answered")
        timeout = 0.25
        if next_light < n:
            timeout = min(timeout, max(0.0, start + schedule[next_light][0] - now))
        for key, _ in sel.select(timeout):
            conn = key.data
            if not conn.fill():
                raise BenchError("server closed a client connection")
            while (got := conn.pop_frame()) is not None:
                t_recv = time.perf_counter()
                kind, payload = got
                if kind != MSG_RESPONSE:
                    raise BenchError("unexpected frame type")
                rtag, index, status, dest, paths = decode_response(payload)
                req, sent, is_light = pending.pop(rtag)
                if is_light:
                    out["light_ms"].append((t_recv - sent) * 1e3)
                else:
                    flood_outstanding -= 1
                if checker.check(req, status, dest, paths):
                    out["steps"] += req[1] * req[2]
                else:
                    out["failed"] += 1
                out["responses"].append((req, (index, status, dest, paths)))
                last = t_recv
    out["elapsed_s"] = last - start
    out["bytes_in"] = sum(conn.bytes_in for conn in conns)
    for conn in conns:
        sel.unregister(conn.sock)
        conn.sock.close()
    return out


# -------------------------------------------------------------- batch load

class PtyRun:
    """A child whose stdout is a pseudo-terminal, so the CLI line-buffers
    and each `batch N:` line can be timestamped as its batch completes."""

    def __init__(self, cmd, trace):
        master, slave = pty.openpty()
        tty.setraw(slave)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=slave,
                                     stderr=subprocess.DEVNULL,
                                     stdin=subprocess.DEVNULL,
                                     env=program_env(trace))
        os.close(slave)
        self.fd = master
        self.buf = b""
        self.lines = []
        self.first_result = None  # arrival of the batch's first result line
        self.output_ms = 0.0      # first result line -> batch line, summed
        self.output_bytes = 0     # result-line bytes

    def next_batch(self):
        """(completion time, result lines) of the next batch; None at EOF."""
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line = self.buf[:nl].decode(errors="replace").rstrip("\r")
                self.buf = self.buf[nl + 1:]
                now = time.perf_counter()
                if line.startswith("batch "):
                    if self.first_result is not None:
                        self.output_ms += (now - self.first_result) * 1e3
                        self.first_result = None
                    lines, self.lines = self.lines, []
                    return now, lines
                if line.startswith("result["):
                    if self.first_result is None:
                        self.first_result = now
                    self.output_bytes += nl + 1
                    self.lines.append(line)
                continue
            ready, _, _ = select.select([self.fd], [], [], 120)
            if not ready:
                raise BenchError("batch process stalled")
            try:
                chunk = os.read(self.fd, 1 << 16)
            except OSError:  # EIO: the child closed the terminal
                chunk = b""
            if not chunk:
                return None
            self.buf += chunk

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        os.close(self.fd)


def batch_session(drw, args, work, graph_seed, seed, seconds, checker):
    """One process: a warm-up batch (Phase 1; ends set-up), then batches
    timed until `seconds` pass. Traced sessions serve TRACE_BATCHES and exit
    on their own, since the CLI writes its trace at exit."""
    rng = random.Random(seed)
    # More batches than any build serves in the window.
    n = 1 + (TRACE_BATCHES if args.trace else max(1, int(seconds * 1000)))
    batches = [light_mix(rng, BATCH_REQUESTS) for _ in range(n)]
    req_path = os.path.join(work, "batch.req")
    with open(req_path, "w") as f:
        for batch in batches:
            for source, length, count, record in batch:
                f.write(f"{source} {length} {count} {int(record)}\n")
            f.write("# batch\n")
    cmd = [drw, "serve"] + graph_args(graph_seed) + [
        f"--requests={req_path}", "--print-results"]
    if args.trace:
        cmd += trace_args(work)

    run = PtyRun(cmd, args.trace)
    try:
        stamps = [run.t0]
        outputs = []
        while args.trace or len(stamps) < 2 or stamps[-1] < stamps[1] + seconds:
            got = run.next_batch()
            if got is None:
                break
            stamps.append(got[0])
            outputs.append(got[1])
        if args.trace and run.proc.wait() != 0:
            raise BenchError("traced batch process failed")
    finally:
        run.close()
    if len(outputs) < 2:
        raise BenchError("batch process served no timed batch")

    out = {"failed": 0, "attempted": 0, "steps": 0,
           "output_ms": run.output_ms, "bytes_in": run.output_bytes,
           "setup_s": stamps[1] - stamps[0],
           "batch_ms": [(b - a) * 1e3 for a, b in zip(stamps[1:], stamps[2:])],
           "elapsed_s": stamps[-1] - stamps[1]}
    served = {}
    for lines in outputs:
        served.update(parse_result_lines(lines))
    index = 0
    for b, batch in enumerate(batches[:len(outputs)]):
        for req in batch:
            got = served.get(index)
            index += 1
            out["attempted"] += 1
            if got is None or got["req"] != req[:3]:
                out["failed"] += 1
                checker.error(f"request #{index - 1} missing from the output")
            elif not checker.check(req, 0 if got["ok"] else 1, got["dest"],
                                   got["paths"]):
                out["failed"] += 1
            elif b > 0:
                out["steps"] += req[1] * req[2]
    return out


# ---------------------------------------------------------- per-layer split

TRACE_RE = re.compile(
    r'"name":"([a-z.]+)","cat":"drw","ph":"([BE])","ts":([0-9.]+)')
# Spans the serving thread records, by the layer whose own work they time.
LAYER_OF = {
    "server.respond": "net",          # response encode + socket write
    "server.drain": "service",        # admission drain, submit, log
    "service.batch": "service",       # batch planning, stitch loop, results
    "engine.prepare": "core",         # Phase 1
    "engine.replenish": "core",       # GET-MORE-WALKS top-ups
    "engine.tails": "core",           # deferred naive tails
    "net.run": "congest",             # one Network::run
}


def trace_times(path):
    """(self ms, inclusive ms) per LAYER_OF span name, and the traced
    lifetime in ms. With one executor thread every such span nests on the
    serving thread's timeline."""
    stack = []
    own = dict.fromkeys(LAYER_OF, 0.0)
    total = dict.fromkeys(LAYER_OF, 0.0)
    first = last = None
    with open(path) as f:
        for line in f:
            m = TRACE_RE.search(line)
            if not m:
                continue
            name, ts = m.group(1), float(m.group(3)) / 1e3
            first = ts if first is None else first
            last = ts
            if name not in LAYER_OF:
                continue
            if m.group(2) == "B":
                stack.append([name, ts, 0.0])
                continue
            for i in range(len(stack) - 1, -1, -1):
                if stack[i][0] == name:
                    _, begin, child = stack.pop(i)
                    span = ts - begin
                    own[name] += span - child
                    total[name] += span
                    if i > 0:
                        stack[i - 1][2] += span
                    break
    return own, total, (last - first) if first is not None else 0.0


def session_layers(work):
    """Lifetime counters and span times of one traced session. The trace is
    deleted once read: a session's trace runs to tens of megabytes."""
    with open(os.path.join(work, "stats.json")) as f:
        life = {k: v for k, v in json.load(f)["lifetime"].items()
                if isinstance(v, (int, float))}
    path = os.path.join(work, "trace.json")
    own, total, lifetime_ms = trace_times(path)
    os.remove(path)
    return {"life": life, "own": own, "total": total,
            "busy_ms": max(total["server.drain"], total["service.batch"]),
            "lifetime_ms": lifetime_ms}


def layer_metrics(sessions):
    """Per-layer metrics summed over a run's traced sessions."""
    def summed(key):
        out = {}
        for s in sessions:
            for k, v in s["layers"][key].items():
                out[k] = out.get(k, 0) + v
        return out

    life, own, total = summed("life"), summed("own"), summed("total")
    walks = max(1, life["walks"])
    requests = max(1, life["requests"])
    # The offline CLI has no socket: its encode-and-write step is printing
    # the result lines, timed from the first one's arrival to the batch line.
    respond_ms = own["server.respond"] + sum(s.get("output_ms", 0.0)
                                             for s in sessions)

    def per_walk(ms):
        return ms * 1e3 / walks

    def layer_self(layer):
        return per_walk(sum(own[n] for n, l in LAYER_OF.items() if l == layer))

    return {
        "congest.rounds_per_walk": (life["rounds"] / walks, "count"),
        "congest.messages_per_walk": (life["messages"] / walks, "count"),
        "congest.run_us_per_walk": (layer_self("congest"), "us"),
        "congest.compute_us_per_walk": (per_walk(life["compute_ms"]), "us"),
        "congest.transmit_us_per_walk": (per_walk(life["transmit_ms"]), "us"),
        "congest.merge_us_per_walk": (per_walk(life["merge_ms"]), "us"),
        "core.self_us_per_walk": (layer_self("core"), "us"),
        "core.phase1_us_per_walk": (per_walk(total["engine.prepare"]), "us"),
        "core.get_more_walks_us_per_walk":
            (per_walk(total["engine.replenish"]), "us"),
        "core.tails_us_per_walk": (per_walk(total["engine.tails"]), "us"),
        "core.full_prepares": (life["full_prepares"], "count"),
        "core.replenishments": (life["replenishments"], "count"),
        "core.engine_gmw_calls": (life["engine_gmw_calls"], "count"),
        "core.inventory_hit_rate":
            (life["inventory_hits"] / max(1, life["stitches"]), "ratio"),
        "service.self_us_per_walk": (layer_self("service"), "us"),
        "service.requests_per_batch":
            (requests / max(1, life["batches"]), "count"),
        "service.busy_share":
            (sum(s["layers"]["busy_ms"] for s in sessions) /
             max(1e-9, sum(s["layers"]["lifetime_ms"] for s in sessions)),
             "ratio"),
        "net.respond_us_per_request": (respond_ms * 1e3 / requests, "us"),
        "net.bytes_per_response":
            (sum(s["bytes_in"] for s in sessions) /
             sum(s["attempted"] for s in sessions), "B"),
    }


# -------------------------------------------------------------------- main

def run(drw, args):
    checker = Checker()
    sessions = []
    per_session = args.seconds / SESSIONS
    for i in range(TRACE_SESSIONS if args.trace else SESSIONS):
        # The graph (and the program's own seed) is fixed per session slot;
        # --seed draws the traffic. Every run then serves the same
        # graphs, whose speeds differ by up to 2x under the flood, so the
        # graph draw does not move a run's figures.
        graph_seed = GRAPH_SEED0 + i
        seed = (args.seed * 1000 + i) % (1 << 32)
        work = os.path.join(BUILD_DIR, f"work-{args.workload}", f"s{i}")
        os.makedirs(work)
        if args.workload == "batch":
            s = batch_session(drw, args, work, graph_seed, seed, per_session,
                              checker)
        else:
            s = serve_session(drw, args, work, graph_seed, seed, per_session,
                              args.workload == "serve-flood", checker)
        if args.trace:
            s["layers"] = session_layers(work)
        sessions.append(s)
        lat = s.get("light_ms", s.get("batch_ms"))
        log(f"session {i}: p50 {percentile(lat, 0.5):.2f} ms, "
            f"p90 {percentile(lat, 0.9):.2f} ms, "
            f"{s['steps'] / s['elapsed_s']:.0f} steps/s, "
            f"setup {s['setup_s']:.3f} s")
    replay_all(drw, sessions, checker)
    latencies = [x for s in sessions
                 for x in s.get("light_ms", s.get("batch_ms"))]
    if not latencies:
        raise BenchError("no latency samples")
    metrics = {
        "p50_ms": (percentile(latencies, 0.50), "ms"),
        "p90_ms": (percentile(latencies, 0.90), "ms"),
        "steps_per_s": (sum(s["steps"] for s in sessions) /
                        sum(s["elapsed_s"] for s in sessions), "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
    }
    if args.trace:
        metrics = layer_metrics(sessions)
    lags = [x for s in sessions for x in s.get("lag_ms", ())]
    log(f"{len(latencies)} latency samples; setups "
        f"{[round(s['setup_s'], 3) for s in sessions]} s"
        + (f"; sender lag p99 {percentile(lags, 0.99):.2f} ms" if lags else ""))
    correct = checker.endpoints_uniform() and not checker.errors
    for err in checker.errors:
        log(f"check failed: {err}")
    return {"correct": correct,
            "attempted": sum(s["attempted"] for s in sessions),
            "failed": sum(s["failed"] for s in sessions),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["batch", "serve-steady", "serve-flood"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        drw = build()
        shutil.rmtree(os.path.join(BUILD_DIR, f"work-{args.workload}"),
                      ignore_errors=True)
        log(f"{args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}")
        result = run(drw, args)
    except (BenchError, OSError, subprocess.SubprocessError, struct.error) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
