"""The serving probe of a traced run: iddqsyn_server on TCP loopback with
a fresh cache, driven by a single-threaded load generator over two
sessions.

A probe warms the cache with the warm keys, then runs a short open-loop
phase at a fixed Poisson rate and a closed-loop phase with at most nproc
requests outstanding, and turns the client-observed protocol events into
per-layer metrics. The server is reaped before it returns, on failure too.
"""

import json
import os
import selectors
import socket
import subprocess
import time

import keys
from common import SERVER, BenchError, median, percentile, reap

GENERATIONS = 4        # server --generations: the ES budget of a miss
SESSIONS = 2
OPEN_COUNT, CLOSED_COUNT = 120, 60
OPEN_RATE = 60.0       # jobs/s, about half the closed-loop capacity
JOB_LIMIT_S = 10.0     # a job not done this long after its due time failed
CONNECT_TIMEOUT_S = 10.0


class Request:
    __slots__ = ("index", "key", "due", "sent", "events", "payloads", "ok",
                 "done", "error")

    def __init__(self, index, key):
        self.index = index
        self.key = key
        self.due = None        # scheduled send time (open loop)
        self.sent = None
        self.events = {}       # event kind -> first arrival time
        self.payloads = []     # row payload text, by arrival
        self.ok = False
        self.done = None       # sweep_done (or refusal) arrival time
        self.error = None

    @property
    def rid(self):
        return f"r{self.index}"

    def latency_s(self):
        """Due (or send) time to sweep_done; a failed job is over the limit."""
        start = self.due if self.due is not None else self.sent
        if not self.ok or self.done is None:
            return JOB_LIMIT_S
        return self.done - start


# --------------------------------------------------------------- server --

def start_server(scratch):
    """Spawns the server under test in a fresh directory; returns
    (proc, (host, port)) once it listens. The caller reaps it; a server
    that never listens is reaped here."""
    home = os.path.join(scratch, "server")
    os.makedirs(home)
    log_path = os.path.join(scratch, "server.log")
    with open(log_path, "wb") as log_file:
        proc = subprocess.Popen(
            [SERVER, "--listen", "127.0.0.1:0", "--workers", "2",
             "--cache-dir", "cache", "--threads", "1",
             "--generations", str(GENERATIONS)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=log_file, cwd=home)
    try:
        deadline = time.monotonic() + CONNECT_TIMEOUT_S
        marker = "iddqsyn_server: listening on "
        while time.monotonic() < deadline and proc.poll() is None:
            with open(log_path, "r", errors="replace") as fh:
                for line in fh:
                    if line.startswith(marker) and line.endswith("\n"):
                        endpoint = line[len(marker):].split()[0]
                        host, _, port = endpoint.rpartition(":")
                        return proc, (host, int(port))
            time.sleep(0.0002)
        raise BenchError(f"the server did not start listening "
                         f"(see {log_path})")
    except BaseException:
        reap(proc)
        raise


# ------------------------------------------------------------ load gen ---

class LoadGen:
    """Line-JSON client over `sessions` connections, one thread."""

    def __init__(self, addr, sessions):
        self.selector = selectors.DefaultSelector()
        self.socks = []
        self.buffers = {}
        self.requests = {}
        self.replies = {}       # session-level event kind -> last event
        self.spans = []
        for _ in range(sessions):
            sock = socket.create_connection(addr, timeout=CONNECT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.buffers[sock] = b""
            self.selector.register(sock, selectors.EVENT_READ)

    def close(self):
        for sock in self.socks:
            self.selector.unregister(sock)
            sock.close()
        self.selector.close()

    def send(self, session, obj):
        self.socks[session % len(self.socks)].sendall(
            (json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def submit(self, req, now):
        self.requests[req.rid] = req
        req.sent = now
        circuit, seed = req.key
        self.send(req.index, {"op": "submit", "id": req.rid,
                              "circuits": [circuit],
                              "methods": keys.METHODS, "seed": seed})

    def poll(self, timeout):
        """Reads whatever arrives within `timeout`; returns requests that
        completed."""
        finished = []
        for sel_key, _ in self.selector.select(max(0.0, timeout)):
            sock = sel_key.fileobj
            data = sock.recv(1 << 16)
            if not data:
                raise BenchError("server closed the connection")
            now = time.perf_counter()
            buf = self.buffers[sock] + data
            *lines, self.buffers[sock] = buf.split(b"\n")
            for line in lines:
                req = self._handle(line.decode(), now)
                if req is not None:
                    finished.append(req)
        return finished

    def _handle(self, line, now):
        event = json.loads(line)
        kind = event.get("event")
        req = self.requests.get(event.get("id", ""))
        if req is None:
            self.replies[kind] = event
            return None
        if kind == "row":
            req.payloads.append(line[line.index('"index":'):])
            req.events["row"] = now
        elif kind == "sweep_done":
            req.ok = event.get("ok") == 1 and event.get("failed", 0) == 0
            req.done = now
            if not req.ok:
                req.error = f"sweep_done {event}"
            return req
        elif kind == "error":
            req.done = now
            req.error = event.get("message", "error")
            return req
        else:
            req.events.setdefault(kind, now)
        return None

    def request_reply(self, op, kind, timeout=10.0):
        self.replies.pop(kind, None)
        self.send(0, {"op": op})
        deadline = time.monotonic() + timeout
        while kind not in self.replies:
            if time.monotonic() > deadline:
                raise BenchError(f"no {kind} reply to {op}")
            self.poll(0.05)
        return self.replies[kind]

    def run_closed(self, reqs, outstanding):
        """Closed loop: at most `outstanding` requests in flight."""
        pending = list(reversed(reqs))
        in_flight = set()
        deadline = time.monotonic() + JOB_LIMIT_S * max(1, len(reqs) // 50)
        while pending or in_flight:
            while pending and len(in_flight) < outstanding:
                req = pending.pop()
                self.submit(req, time.perf_counter())
                in_flight.add(req.rid)
            for req in self.poll(0.05):
                in_flight.discard(req.rid)
            if time.monotonic() > deadline:
                break

    def run_open(self, reqs, schedule):
        """Open loop: request i is due at start + schedule[i], whatever the
        state of earlier requests."""
        start = time.perf_counter() + 0.05
        for req, offset in zip(reqs, schedule):
            req.due = start + offset
        nxt = 0
        open_count = 0
        end = start + (schedule[-1] if schedule else 0.0) + JOB_LIMIT_S
        while nxt < len(reqs) or open_count > 0:
            now = time.perf_counter()
            while nxt < len(reqs) and reqs[nxt].due <= now:
                self.submit(reqs[nxt], now)
                nxt += 1
                open_count += 1
            wait = reqs[nxt].due - now if nxt < len(reqs) else 0.05
            open_count -= len(self.poll(min(wait, 0.05)))
            if now > end:
                break

    def record_spans(self, reqs):
        """One span per protocol step of every request."""
        steps = [("proto.accept", "sent", "accepted"),
                 ("jobs.queue_wait", "queued", "running"),
                 ("jobs.run", "running", "row"),
                 ("delivery.tail", "row", "done")]
        for req in reqs:
            times = dict(req.events, sent=req.sent, done=req.done)
            for name, a, b in steps:
                if times.get(a) is not None and times.get(b) is not None:
                    self.spans.append({"request": req.rid, "name": name,
                                       "t0": times[a], "t1": times[b]})


# ---------------------------------------------------------------- probe --

def run(seed, scratch):
    """Runs the serving probe; returns the raw observations."""
    nproc = os.cpu_count() or 1
    outstanding = min(4, nproc)
    warm, stream = keys.key_stream(seed, OPEN_COUNT + CLOSED_COUNT)
    schedule = keys.arrival_schedule(seed, OPEN_RATE, OPEN_COUNT)
    misses = keys.first_occurrences(warm, stream)
    proc, addr = start_server(scratch)
    gen = None
    try:
        gen = LoadGen(addr, sessions=min(SESSIONS, nproc))
        gen.request_reply("ping", "pong")
        warm_reqs = [Request(-1 - i, k) for i, k in enumerate(warm)]
        gen.run_closed(warm_reqs, outstanding)
        reqs = [Request(i, k) for i, k in enumerate(stream)]
        gen.run_open(reqs[:OPEN_COUNT], schedule)
        gen.run_closed(reqs[OPEN_COUNT:], outstanding)
        stats = gen.request_reply("stats", "stats")
        gen.record_spans(reqs)
    finally:
        if gen is not None:
            gen.close()
        reap(proc)
    return {"warm": warm_reqs, "reqs": reqs, "n_open": OPEN_COUNT,
            "misses": misses, "stats": stats, "spans": gen.spans}


def check(obs):
    """Every job must end with both rows, and every repeat of a key (a cache
    hit) must return the rows its first computation did. Returns
    (attempted, failed, problems)."""
    problems = []
    first = {}
    failed = 0
    all_reqs = obs["warm"] + obs["reqs"]
    for req in all_reqs:
        bad = None
        if not req.ok:
            bad = req.error or "no sweep_done"
        elif len(req.payloads) != len(keys.METHODS):
            bad = f"{len(req.payloads)} rows"
        else:
            ref = first.setdefault(req.key, req.payloads)
            if req.payloads != ref:
                bad = "rows differ from the first rows of the same key"
        if bad:
            failed += 1
            problems.append(f"{req.rid} {req.key}: {bad}")
    return len(all_reqs), failed, problems


def per_layer(obs):
    """Client-observed protocol layers, cache hit ratio and generator lag."""
    reqs = obs["reqs"]
    open_reqs = reqs[:obs["n_open"]]
    by_step = {}
    for span in obs["spans"]:
        by_step.setdefault(span["name"], []).append(
            (span["t1"] - span["t0"]) * 1e3)
    hits = [r.latency_s() * 1e3 for r in open_reqs
            if r.index not in obs["misses"]]
    misses = [r.latency_s() * 1e3 for r in open_reqs
              if r.index in obs["misses"]]
    stats = obs["stats"]
    lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    return {
        "proto.accept_ms": median(by_step.get("proto.accept", [0.0])),
        "jobs.queue_wait_ms": median(by_step.get("jobs.queue_wait", [0.0])),
        "jobs.run_ms": median(by_step.get("jobs.run", [0.0])),
        "delivery.tail_ms": median(by_step.get("delivery.tail", [0.0])),
        "jobs.hit_p50_ms": percentile(hits, 50) if hits else 0.0,
        "jobs.miss_p50_ms": percentile(misses, 50) if misses else 0.0,
        "cache.hit_ratio": stats.get("cache_hits", 0) / lookups
        if lookups else 0.0,
        "loadgen.lag_p99_ms": percentile(
            [(r.sent - r.due) * 1e3 for r in open_reqs if r.sent], 99),
    }
