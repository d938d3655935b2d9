"""``service-mix``: a request mix against a ``repro serve --jobs 1`` subprocess.

Most requests are cache hits (``synth`` and ``validate`` of a warm
pool); the rest is fresh work: ``synth`` of a suite circuit at gammas
from a fixed grid, ``validate`` under random fault maps, and a few
``map`` requests.  Fresh jobs share a connection's FIFO with the hits,
so worker cost shows in the tail.

The measured run is a closed loop: :data:`PIPELINE` requests in flight
on one Unix-socket connection, in passes of :data:`CAPACITY_PASS`
requests.  The traced run adds the open loop:
seeded Poisson arrivals at :data:`RATE` requests per second, each
request timed from the moment it was due, so a stall also counts
against the requests queued behind it.  Its latencies swing with the
host's scheduling (on a shared 2-CPU VM the median doubled between
consecutive runs), so they are reported as per-layer figures, which
carry no regression bound.

The set of fresh requests depends only on the run length; the seed sets
arrival times, the order of requests (so which arrival gets which gamma)
and the choice of hits, so every seed asks for the same work.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

from checks import cost, normalized, synth_problem
from common import (
    ROOT,
    SETUP_REPEATS,
    HostSpeed,
    Outcome,
    Tracer,
    child_env,
    median,
    run_dir,
    tail,
    windowed_tail,
)
from inputs import GAMMA, synth_params, write_circuit
from layers import LayerProbe, emit_layers, empty_layers

#: Offered load of the open loop; the parent commit meets it with headroom.
RATE = 400.0
#: Latency limit on the open loop's tail percentile at :data:`RATE`.
LATENCY_LIMIT_MS = 1000.0
#: The tail is taken per window of this many consecutive requests (so
#: p99 has 10 samples beyond it) and reported as the median over windows.
TAIL_WINDOW = 1000
#: Connections of the open loop.
CONNECTIONS = 2
#: The closed loop runs on one connection, so the client, the server's
#: front and its worker mostly take turns instead of contending for the
#: 2 CPUs; with two connections the passes swung more with the host's load.
CLOSED_CONNECTIONS = 1
#: Requests in flight on that connection during the capacity phase.
PIPELINE = 32
#: Share of ``--seconds`` the traced run's open loop lasts.
OPEN_SHARE = 0.75
CAPACITY_PASS = 800
#: Fresh requests in every block of :data:`MIX_BLOCK` consecutive
#: requests; the rest are cache hits.  Shuffling within blocks keeps the
#: arrivals Poisson while bounding how many fresh jobs can bunch up.
MIX_BLOCK = 800
FRESH_PER_BLOCK = {"fresh_synth": 1, "validate": 8, "map": 4}
#: Open-loop requests the traced run replays in process.
REPLAYED = 2000

#: Warm pool: ``synth`` (gamma 0.5) and plain ``validate`` of each.
POOL = ("c17", "voter9", "parity16", "alu4", "mux16", "priority32")
#: Fresh synthesis uses a circuit whose OCT labeling is optimal for every
#: gamma, so the work per request does not depend on the gamma drawn.
#: Its job takes about 0.3 s, long enough that the tail follows the
#: job's work rather than the host's scheduling jitter.
FRESH_SYNTH = ("mux16",)
FAULTED = ("c17", "voter9", "alu4")
#: Remapping c17 stays on the greedy placer; larger designs can fall
#: through to the time-limited MILP.
MAPPED = ("c17",)
GAMMAS = tuple(k / 1000 for k in range(1, 1000) if k != 500)

_READ_LIMIT = 32 * 1024 * 1024


# -- the server ---------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on a Unix socket inside the run directory."""

    def __init__(self, index: int):
        self.socket = os.path.relpath(run_dir() / f"s{index}.sock", ROOT)
        self._log = open(run_dir() / f"serve{index}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket, "--jobs", "1"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,  # its own process group, so a kill reaches the workers
        )
        self.maxrss_mb = 0.0

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            if os.path.exists(ROOT / self.socket):
                try:
                    call(self.socket, [("ping", {})])
                    return
                except OSError:
                    pass  # bound but not accepting yet
            time.sleep(0.005)
        raise TimeoutError("repro serve did not answer ping in time")

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain the server with SIGTERM (SIGKILL to its group if it hangs) and reap it."""
        if self.proc.returncode is None:  # not reaped yet
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + timeout_s
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._log.close()


def frame(request_id: int, method: str, params: dict) -> bytes:
    return (json.dumps({"v": 1, "id": request_id, "method": method, "params": params},
                       separators=(",", ":"), sort_keys=True) + "\n").encode()


def call(sock: str, requests: list[tuple[str, dict]]) -> list[dict]:
    """Blocking request/response over one connection (set-up and stats only)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(str(ROOT / sock))
        stream = conn.makefile("rb")
        replies = []
        for index, (method, params) in enumerate(requests, start=1):
            conn.sendall(frame(index, method, params))
            line = stream.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            replies.append(json.loads(line))
        return replies


# -- the request mix ----------------------------------------------------------------


def pool_requests() -> list[tuple[str, dict]]:
    return [("synth", synth_params("verilog", write_circuit(name, "verilog"), f"{name}.v"))
            for name in POOL]


def warm(server: Server) -> dict:
    """Fill the server's cache with the pool; returns ``{name: {method: (params, result)}}``."""
    synths = pool_requests()
    replies = call(server.socket, synths)
    pool = {}
    validates = []
    for name, (method, params), reply in zip(POOL, synths, replies):
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up synth of {name} failed: {reply.get('error')}")
        pool[name] = {"synth": (params, reply["result"])}
        validates.append(("validate", {"circuit": params["circuit"],
                                       "design_json": reply["result"]["design_json"]}))
    for name, (method, params), reply in zip(POOL, validates, call(server.socket, validates)):
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up validate of {name} failed: {reply.get('error')}")
        pool[name]["validate"] = (params, reply["result"])
    return pool


class FreshWork:
    """Numbers the fresh requests of one run across its phases.

    A fresh request that repeated an earlier one would be answered from
    the cache, so indices keep counting from phase to phase and a random
    fault map that happens to equal an earlier one is drawn again.
    Everything follows from the indices alone, so the fresh work of a
    run does not depend on its seed.
    """

    def __init__(self):
        self.next = {"fresh_synth": 0, "validate": 0, "map": 0}
        self._maps: set[tuple] = set()

    def _fault_map(self, kind: str, name: str, rows: int, cols: int, index: int) -> str:
        from repro.crossbar import fault_map_to_json, random_fault_map

        p_on, p_off = (0.01, 0.05) if kind == "validate" else (0.005, 0.03)
        seed = index
        while True:
            text = fault_map_to_json(
                random_fault_map(rows, cols, p_stuck_on=p_on, p_stuck_off=p_off, seed=seed))
            if (kind, name, text) not in self._maps:
                self._maps.add((kind, name, text))
                return text
            seed += 1_000_003

    def request(self, kind: str, pool: dict) -> dict:
        index = self.next[kind]
        self.next[kind] += 1
        if kind == "fresh_synth":
            name = FRESH_SYNTH[index % len(FRESH_SYNTH)]
            if index // len(FRESH_SYNTH) >= len(GAMMAS):
                raise ValueError("run too long: the gamma grid is exhausted")
            gamma = GAMMAS[index // len(FRESH_SYNTH)]
            params = dict(pool[name]["synth"][0], gamma=gamma)
            return {"kind": kind, "method": "synth", "circuit": name, "gamma": gamma,
                    "params": params}
        names = FAULTED if kind == "validate" else MAPPED
        name = names[index % len(names)]
        synth, result = pool[name]["synth"]
        rows, cols = result["metrics"]["rows"], result["metrics"]["cols"]
        if kind == "map":
            rows, cols = rows + 1, cols + 1  # a spare line each way to remap onto
        params = {"circuit": synth["circuit"], "design_json": result["design_json"],
                  "fault_map": self._fault_map(kind, name, rows, cols, index)}
        return {"kind": kind, "method": kind, "circuit": name, "params": params}


def build_mix(seed: int, count: int, pool: dict, fresh: FreshWork) -> list[dict]:
    """``count`` requests in the seed's order, the fresh ones drawn from ``fresh``."""
    rng = random.Random(seed)
    kinds = []
    counts = dict.fromkeys(FRESH_PER_BLOCK, 0)
    for start in range(0, count, MIX_BLOCK):
        size = min(MIX_BLOCK, count - start)
        block = []
        for kind, per_block in FRESH_PER_BLOCK.items():
            n = round(per_block * size / MIX_BLOCK)
            counts[kind] += n
            block += [kind] * n
        block += ["hit"] * (size - len(block))
        rng.shuffle(block)
        kinds += block
    # The fresh requests of a phase follow from ``fresh`` alone; the seed
    # only decides which arrival gets which of them.
    fresh_requests = {}
    for kind, n in counts.items():
        fresh_requests[kind] = [fresh.request(kind, pool) for _ in range(n)]
        rng.shuffle(fresh_requests[kind])
    hits = [(name, method) for name in POOL for method in ("synth", "validate")]
    entries = []
    for kind in kinds:
        if kind == "hit":
            name, method = rng.choice(hits)
            params, result = pool[name][method]
            entries.append({"kind": "hit", "method": method, "circuit": name,
                            "params": params, "expect": result})
        else:
            entries.append(fresh_requests[kind].pop())
    return entries


def arrivals(seed: int, count: int, rate: float) -> list[float]:
    """Poisson arrival offsets (seconds from the start of the phase)."""
    rng = random.Random(seed ^ 0x5EED)
    due, out = 0.0, []
    for _ in range(count):
        due += rng.expovariate(rate)
        out.append(due)
    return out


# -- load generators ----------------------------------------------------------------


async def _open_loop(sock: str, entries: list[dict], due: list[float], timeout_s: float):
    """Send each request at its due time; ``(lines, recv_times, late, t0)``."""
    lines: list[bytes | None] = [None] * len(entries)
    received = [0.0] * len(entries)
    late = [0.0] * len(entries)
    conns = [await asyncio.open_unix_connection(str(ROOT / sock), limit=_READ_LIMIT)
             for _ in range(CONNECTIONS)]
    t0 = time.perf_counter() + 0.05

    async def send(writer, mine):
        for i in mine:
            delay = t0 + due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = time.perf_counter() - (t0 + due[i])
            writer.write(frame_of(entries[i]))
            await writer.drain()

    async def receive(reader, mine):
        for i in mine:
            line = await reader.readline()
            if not line:
                return
            received[i] = time.perf_counter()
            lines[i] = line

    tasks = []
    for c, (reader, writer) in enumerate(conns):
        mine = list(range(c, len(entries), CONNECTIONS))
        tasks.append(asyncio.ensure_future(send(writer, mine)))
        tasks.append(asyncio.ensure_future(receive(reader, mine)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout_s)
    except asyncio.TimeoutError:
        pass  # unanswered requests stay None and count as failed
    finally:
        for _, writer in conns:
            writer.close()
    return lines, received, late, t0


async def _closed_loop(sock: str, entries: list[dict], timeout_s: float):
    """Keep :data:`PIPELINE` requests in flight per connection.

    Returns ``(lines, latencies_s, wall_s)``; a request's latency runs
    from its write to its response.
    """
    lines: list[bytes | None] = [None] * len(entries)
    sent = [0.0] * len(entries)
    latency = [0.0] * len(entries)
    conns = [await asyncio.open_unix_connection(str(ROOT / sock), limit=_READ_LIMIT)
             for _ in range(CLOSED_CONNECTIONS)]
    start = time.perf_counter()
    end = [start]

    async def send(writer, mine, window):
        for i in mine:
            await window.acquire()
            sent[i] = time.perf_counter()
            writer.write(frame_of(entries[i]))
            await writer.drain()

    async def receive(reader, mine, window):
        for i in mine:
            line = await reader.readline()
            if not line:
                return
            end[0] = time.perf_counter()
            lines[i] = line
            latency[i] = end[0] - sent[i]
            window.release()

    tasks = []
    for c, (reader, writer) in enumerate(conns):
        mine = list(range(c, len(entries), CLOSED_CONNECTIONS))
        window = asyncio.Semaphore(PIPELINE)
        tasks.append(asyncio.ensure_future(send(writer, mine, window)))
        tasks.append(asyncio.ensure_future(receive(reader, mine, window)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout_s)
    except asyncio.TimeoutError:
        pass
    finally:
        for _, writer in conns:
            writer.close()
    return lines, latency, end[0] - start


def number(entries: list[dict], first_id: int) -> None:
    """Give each entry its request id and its encoded params.

    Repeated requests share one params object, so they share its
    encoding too; frames are assembled at send time.
    """
    encoded: dict[int, bytes] = {}
    for offset, entry in enumerate(entries):
        entry["id"] = first_id + offset
        key = id(entry["params"])
        if key not in encoded:
            encoded[key] = json.dumps(entry["params"], separators=(",", ":"),
                                      sort_keys=True).encode()
        entry["body"] = encoded[key]


def frame_of(entry: dict) -> bytes:
    """The same bytes as :func:`frame` for a numbered entry."""
    return b'{"id":%d,"method":"%s","params":%s,"v":1}\n' % (
        entry["id"], entry["method"].encode(), entry["body"])


# -- checks -------------------------------------------------------------------------


def check_responses(entries, lines, outcome: Outcome, fresh_results: dict) -> list[bool]:
    """Check every response; returns which ones passed."""
    from repro.bench.suites import circuit
    from repro.service.jobs import execute

    passed = []
    for entry, line in zip(entries, lines):
        problem = None
        if line is None:
            problem = f"request {entry['id']}: no response"
        else:
            reply = json.loads(line)
            result = reply.get("result")
            if reply.get("id") != entry["id"]:
                problem = f"request {entry['id']}: response id {reply.get('id')} out of FIFO order"
            elif not reply.get("ok"):
                problem = f"request {entry['id']} ({entry['kind']}): {reply.get('error')}"
            elif entry["kind"] == "hit":
                if result != entry["expect"]:
                    problem = f"hit {entry['method']} {entry['circuit']}: differs from warm result"
            elif entry["kind"] == "fresh_synth":
                problem = synth_problem({"ok": True, "result": result},
                                        circuit(entry["circuit"]), 1)
                fresh_results[entry["id"]] = result
            else:
                direct = execute(entry["method"], entry["params"])
                if not direct.get("ok") or normalized(direct["result"]) != result:
                    problem = (f"{entry['method']} {entry['circuit']}: verdict differs from a "
                               f"direct jobs.execute call")
        outcome.record(problem is None, problem or "")
        passed.append(problem is None)
    return passed


def check_pool(pool: dict, outcome: Outcome) -> None:
    from repro.bench.suites import circuit
    from repro.service.jobs import execute

    for name in POOL:
        params, result = pool[name]["synth"]
        problem = synth_problem({"ok": True, "result": result}, circuit(name), 1)
        outcome.record(problem is None, problem or "")
        params, result = pool[name]["validate"]
        direct = execute("validate", params)
        same = direct.get("ok") and normalized(direct["result"]) == result
        outcome.record(bool(same), f"validate {name}: warm verdict differs from jobs.execute")


# -- in-process replay (traced run) ---------------------------------------------------


def replay(entries: list[dict], pool: dict, tracer: Tracer | None):
    """Run the mix through the service layers in this process; design JSON per request id."""
    from repro.service import protocol
    from repro.service.cache import ResultCache, request_key
    from repro.service.jobs import execute

    cache = ResultCache(capacity=256, shards=8)
    for name in POOL:
        for method in ("synth", "validate"):
            params, result = pool[name][method]
            cache.put(request_key(method, params), result, method)

    def timed(name, func, *args):
        if tracer is None:
            return func(*args)
        with tracer.span(name):
            return func(*args)

    designs = {}
    for entry in entries:
        request = timed("service.protocol", protocol.decode_request, frame_of(entry))
        method, params = request["method"], request["params"]
        key = timed("service.key", request_key, method, params)
        result = timed("service.cache_get", cache.get, key)
        if result is None:
            payload = timed(f"service.execute_{method}", execute, method, params)
            if not payload.get("ok"):
                designs[entry["id"]] = None  # counted as a failed comparison
                continue
            result = payload["result"]
            cache.put(key, result, method)
        timed("service.protocol", protocol.encode,
              protocol.ok_response(request["id"], result, cached=False))
        if entry["kind"] == "fresh_synth":
            designs[entry["id"]] = result["design_json"]
    return designs


# -- the workload ---------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    # The client, the server's front and its worker share the CPUs.
    outcome = Outcome(host=HostSpeed(per_cpu=True))
    setup_spans = []
    server = None
    host = outcome.host
    try:
        host.sample()
        for index in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(index)
            server.wait_ready()
            pool = warm(server)
            setup_spans.append((start, time.perf_counter() - start))
            host.sample()
        if trace:
            return _traced(seed, seconds, server, pool, outcome)
        spans, latencies, entries, lines = _capacity(seed, seconds, server, pool, quick, host)
    finally:
        if server is not None:
            server.stop()

    check_pool(pool, outcome)
    fresh_results: dict = {}
    passed = check_responses(entries, lines, outcome, fresh_results)
    passes = [wall for _, wall in spans]
    factors = [host.scale(start, start + wall) for start, wall in spans]
    # A request that failed or was refused misses any latency limit: it
    # counts as having waited for the whole phase.
    phase_ms = sum(passes) * 1000.0
    latencies_ms = [x * 1000.0 if ok else phase_ms for x, ok in zip(latencies, passed)]
    scaled_ms = [x * factors[i // _pass_size(quick)] for i, x in enumerate(latencies_ms)]
    p, tail_ms, beyond = windowed_tail(scaled_ms, TAIL_WINDOW)
    first_two = entries[:2 * _pass_size(quick)]
    fresh_cost = sum(cost(fresh_results[e["id"]], e["gamma"]) for e in first_two
                     if e["kind"] == "fresh_synth" and e["id"] in fresh_results)
    outcome.timed_metric("setup_s", median([host.scaled(w, s) for s, w in setup_spans]),
                         median([w for _, w in setup_spans]), "s")
    outcome.metric("success_rate", (outcome.attempted - outcome.failed) / outcome.attempted, "ratio")
    outcome.timed_metric("pass_wall_s", median([w * f for w, f in zip(passes, factors)]),
                         median(passes), "s")
    outcome.timed_metric("op_p50_ms", median(scaled_ms), median(latencies_ms), "ms")
    outcome.timed_metric("op_tail_ms", tail_ms, windowed_tail(latencies_ms, TAIL_WINDOW)[1], "ms")
    outcome.metric("design_cost", sum(cost(pool[name]["synth"][1], GAMMA) for name in POOL)
                   + fresh_cost, "cost")
    outcome.metric("peak_rss_mb", server.maxrss_mb, "MB")
    outcome.notes.append(
        f"closed loop: {len(passes)} passes of {_pass_size(quick)} requests, {PIPELINE} in flight "
        f"on {CLOSED_CONNECTIONS} connection; {len(entries) / sum(passes):.1f} requests/s; "
        f"p50 {median(scaled_ms):.2f} ms, p{p:g} {tail_ms:.2f} ms (median over windows of "
        f"{TAIL_WINDOW}, {beyond} beyond in each)"
    )
    return outcome


def _pass_size(quick: bool) -> int:
    return CAPACITY_PASS // 10 if quick else CAPACITY_PASS


def _capacity(seed: int, seconds: float, server: Server, pool: dict, quick: bool,
              host: HostSpeed):
    """Closed-loop passes for ``seconds`` (at least two).

    Returns ``(spans, latencies, entries, lines)``, with ``(start,
    seconds)`` per pass; ``host`` is sampled before the first pass and
    after each, once the server has answered every request.
    """
    fresh = FreshWork()
    spans, latencies, entries, lines = [], [], [], []
    host.sample()
    start = time.perf_counter()
    while len(spans) < 2 or time.perf_counter() - start < seconds:
        batch = build_mix(seed + 7919 * len(spans), _pass_size(quick), pool, fresh)
        number(batch, len(entries) + 1)
        began = time.perf_counter()
        got, latency, wall = asyncio.run(_closed_loop(server.socket, batch, 120.0))
        host.sample()
        spans.append((began, wall))
        latencies += latency
        entries += batch
        lines += got
    return spans, latencies, entries, lines


def _traced(seed: int, seconds: float, server: Server, pool: dict, outcome: Outcome) -> Outcome:
    """The fixed-rate open loop against the live server, then an in-process replay."""
    count = max(CONNECTIONS, round(RATE * seconds * OPEN_SHARE))
    entries = build_mix(seed, count, pool, FreshWork())
    number(entries, 1)
    due = arrivals(seed, count, RATE)
    stats_before = call(server.socket, [("stats", {})])[0]["result"]
    lines, received, late, t0 = asyncio.run(
        _open_loop(server.socket, entries, due, timeout_s=due[-1] + 60.0))
    stats_after = call(server.socket, [("stats", {})])[0]["result"]
    server.stop()

    check_pool(pool, outcome)
    fresh_results: dict = {}
    passed = check_responses(entries, lines, outcome, fresh_results)
    open_wall = max(received) - t0 if any(received) else due[-1]
    # Requests that failed or were refused count as having waited the
    # whole open loop, so they miss any latency limit.
    latencies_ms = [
        (received[i] - (t0 + due[i])) * 1000.0 if ok else open_wall * 1000.0
        for i, ok in enumerate(passed)
    ]
    p, tail_ms, beyond = windowed_tail(latencies_ms, TAIL_WINDOW)
    late_p, late_ms, _ = tail([x * 1000.0 for x in late])
    outcome.notes.append(
        f"open loop: {len(entries)} requests at {RATE:g}/s over {CONNECTIONS} connections; "
        f"p50 {median(latencies_ms):.2f} ms; p{p:g} {tail_ms:.2f} ms (median over windows of "
        f"{TAIL_WINDOW}, {beyond} beyond in each; limit {LATENCY_LIMIT_MS:g} ms "
        f"{'met' if tail_ms <= LATENCY_LIMIT_MS else 'MISSED'}); "
        f"generator late p{late_p:g} {late_ms:.3f} ms"
    )

    counters_before = stats_before["engine"]["counters"]
    counters_after = stats_after["engine"]["counters"]

    def delta(name):
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    cache_before, cache_after = stats_before["engine"]["cache"], stats_after["engine"]["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    replies = [json.loads(line) if line else {} for line in lines]
    cached_ms = [x for x, r in zip(latencies_ms, replies) if r.get("cached")]
    fresh_ms = [x for x, r in zip(latencies_ms, replies) if r and not r.get("cached")]

    # Replaying every request would derive thousands of keys; the first
    # REPLAYED requests have the mix's composition.
    replayed = entries[:REPLAYED]
    start = time.perf_counter()
    replay(replayed, pool, None)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    probe = LayerProbe(tracer)
    start = time.perf_counter()
    with probe.active():
        designs = replay(replayed, pool, tracer)
    traced_wall = time.perf_counter() - start
    for request_id, design_json in designs.items():
        same = design_json is not None and (
            fresh_results.get(request_id, {}).get("design_json") == design_json)
        outcome.record(same, f"request {request_id}: traced replay differs from the server")

    layers = empty_layers()
    layers.update(probe.layers())
    spans = tracer.inclusive_times()
    synths = [e for e in replayed if e["kind"] == "fresh_synth"]
    layers.update({
        "core.optimal_share": sum(
            bool(fresh_results.get(e["id"], {}).get("optimal")) for e in synths
        ) / max(1, len(synths)),
        "service.protocol_s": spans.get("service.protocol", 0.0),
        "service.key_s": spans.get("service.key", 0.0),
        "service.cache_get_s": spans.get("service.cache_get", 0.0),
        "service.execute_synth_s": spans.get("service.execute_synth", 0.0),
        "service.execute_validate_s": spans.get("service.execute_validate", 0.0),
        "service.execute_map_s": spans.get("service.execute_map", 0.0),
        "service.cache_hit_rate": hits / lookups if lookups else 0.0,
        "service.key_memo_hits": delta("service_key_memo_hits"),
        "service.batch_coalesced": delta("service_batch_coalesced"),
        "service.dedup_hits": delta("service_dedup_hits"),
        "service.jobs_rejected": delta("service_jobs_rejected"),
        "service.open_p50_ms": median(latencies_ms),
        "service.open_tail_ms": tail_ms,
        "service.cached_p50_ms": median(cached_ms) if cached_ms else 0.0,
        "service.fresh_p50_ms": median(fresh_ms) if fresh_ms else 0.0,
        "service.generator_late_ms": late_ms,
        "trace.overhead_share": traced_wall / plain_wall - 1.0,
    })
    emit_layers(outcome, layers)
    outcome.notes.append(f"replay untraced {plain_wall:.3f}s, traced {traced_wall:.3f}s")
    return outcome
