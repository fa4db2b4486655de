"""The service workloads, driven against a real ``repro serve``.

* ``serve_hot`` — 2 keep-alive connections in a closed loop cycling
  through 8 catalog nodes × {default pattern, one fixed pattern}; every
  answer is already in the result cache.
* ``serve_explore`` — the same client shape, every request on a device
  never seen before: DSL text with a scaled ``vint``, builder keywords
  with a unique ``datarate``, and 1 in 10 a sensitivity ``/sweep``,
  buffered and streamed in turn.
* ``trace_upload`` — the generated trace as a chunked gzip upload on
  one connection, one upload after the other.

Closed loop: a connection sends its next request as soon as the
previous reply is read, so a slower server receives less load.
"""

from __future__ import annotations

import gzip
import itertools
import json
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import spans
from harness import (MAX_FAILURE_LINES, ROOT, Rep, child_env,
                     latency_summary, peak_rss_mb, same_answer,
                     timed_phase)

from repro.client import NO_RETRY, ServiceClient
from trace_lib import TRACE_NODE, serial_replay, trace_device

HERE = Path(__file__).resolve().parent

HOT_NODES = (170, 110, 75, 55, 44, 31, 21, 16)
FIXED_PATTERN = "act nop rd nop rd nop pre nop"
CONNECTIONS = 2
#: Requests generated per timed second of ``serve_explore``: well above
#: any rate measured (under 200/s), so every request stays on a device
#: never seen before.
EXPLORE_PER_SECOND = 500
EXPLORE_NODE = 55
#: Service replies compared with the library: 1 in this many.
SAMPLE_EVERY = 50
#: Relative tolerance of sampled sweep replies: the vector kernel
#: agrees with the scalar path to ~1e-15.
SWEEP_TOLERANCE = 1e-9
UPLOAD_SNAPSHOT_EVERY = 100_000
START_TIMEOUT = 60.0
CLIENT_TIMEOUT = 120.0

#: A request: (client method, keyword arguments).
Request = Tuple[str, Dict[str, Any]]


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------
def hot_requests(seed: int) -> List[Request]:
    """The 16 distinct requests of ``serve_hot``, in seeded order."""
    combos = [("evaluate", {"device": {"node": node},
                            "pattern": pattern})
              for node in HOT_NODES for pattern in (None, FIXED_PATTERN)]
    random.Random(seed).shuffle(combos)
    return combos


def _split_vint(text: str) -> Tuple[str, str, str]:
    """``(before, vint value, after)`` of a description's Supply line."""
    match = re.search(r"(?m)^Supply .*?\bvint=(\S+)", text)
    return text[:match.start(1)], match.group(1), text[match.end(1):]


#: One block of the ``serve_explore`` mix, shuffled per block: 45 % DSL
#: text, 45 % builder keywords, 10 % sensitivity sweeps (one buffered,
#: one streamed).  A fixed mix per block keeps the share of the costly
#: sweeps the same in every run.
EXPLORE_BLOCK = ("dsl",) * 9 + ("builder",) * 9 + ("sweep", "sweep_stream")
EXPLORE_WARMUP = len(EXPLORE_BLOCK)


def explore_requests(seed: int, count: int) -> List[Request]:
    """``count`` requests, no two on the same device."""
    from repro.devices import build_device
    from repro.dsl import dumps

    rng = random.Random(seed)
    before, vint, after = _split_vint(dumps(build_device(EXPLORE_NODE)))
    datarates = iter(rng.sample(range(1_000_000_000, 2_000_000_000, 1000),
                                count))
    requests: List[Request] = []
    while len(requests) < count:
        block = list(EXPLORE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "dsl":
                scaled = float(vint) * rng.uniform(0.85, 1.0)
                requests.append(("evaluate", {
                    "device": {"dsl": f"{before}{scaled!r}{after}"}}))
                continue
            device = {"node": EXPLORE_NODE, "datarate": next(datarates)}
            if kind == "builder":
                requests.append(("evaluate", {"device": device}))
            else:
                requests.append((kind, {"kind": "sensitivity",
                                        "device": device}))
    return requests[:count]


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------
def _client(url: str) -> ServiceClient:
    """A client that sees every failure: no retries, no breaker."""
    return ServiceClient(url, timeout=CLIENT_TIMEOUT, retry=NO_RETRY,
                         breaker=None)


class Server:
    """One ``repro serve`` process on an ephemeral port.

    With ``spans_path`` it starts through ``serve_traced.py``, which
    wraps every layer and writes its spans there on exit.
    """

    def __init__(self, log_path: Path, spans_path: Optional[Path] = None):
        command = [sys.executable, "-m", "repro"]
        if spans_path is not None:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       "--spans", str(spans_path)]
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command + ["serve", "--port", "0"], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            self.url = f"http://127.0.0.1:{self._read_port()}"
            self.client = _client(self.url)
            if not self.client.wait_until_ready(timeout=START_TIMEOUT):
                raise RuntimeError(f"service at {self.url} never became "
                                   f"ready: {self.client.last_ready_error}")
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(match.group(1))

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait for the exit."""
        if getattr(self, "client", None) is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()


# ----------------------------------------------------------------------
# Load.
# ----------------------------------------------------------------------
@dataclass
class Load:
    """What one timed phase of client traffic observed."""

    start: float = 0.0
    busy_s: float = 0.0
    """Connection-seconds: each connection's time from start to its
    last reply, summed."""
    wall_s: float = 0.0
    items: int = 0
    attempted: int = 0
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    samples: List[Tuple[int, Any]] = field(default_factory=list)
    """``(request index, reply)`` of the sampled requests."""
    results: Dict[str, int] = field(default_factory=dict)
    """Upload results (canonical JSON) and how often each came back."""
    best: Optional[Dict[str, Any]] = None
    """The fastest clean upload (see :meth:`harness.Phase.best`)."""


def _send(client: ServiceClient, method: str,
          kwargs: Dict[str, Any]) -> Any:
    """One request; raises on an error status or a malformed reply."""
    if method == "sweep_stream":
        records = list(client.sweep_stream(**kwargs))
        if not records or not records[-1].get("done") \
                or any("error" in record for record in records):
            raise ValueError(f"stream ended badly: {records[-1:]}")
        return records
    reply = getattr(client, method)(**kwargs)
    if method == "evaluate" and reply.get("count") != 1:
        raise ValueError(f"evaluate answered {reply.get('count')} results")
    return reply


def closed_loop(url: str, requests: Sequence[Request], seconds: float,
                sampled: Callable[[int], bool], cycle: bool,
                connections: int = CONNECTIONS) -> Load:
    """``connections`` closed-loop clients until ``seconds`` pass.

    Requests are taken in order from ``requests`` (round and round
    with ``cycle``).  A request that raises counts as failed; its time
    still counts as its latency.
    """
    load = Load()
    lock = threading.Lock()
    counter = itertools.count()
    load.start = time.perf_counter()
    deadline = load.start + seconds

    def connection() -> None:
        client = _client(url)
        latencies: List[float] = []
        failures: List[str] = []
        samples: List[Tuple[int, Any]] = []
        try:
            while time.perf_counter() < deadline:
                index = next(counter)
                if not cycle and index >= len(requests):
                    break
                method, kwargs = requests[index % len(requests)]
                began = time.perf_counter()
                try:
                    reply = _send(client, method, kwargs)
                except Exception as exc:  # counted, the loop goes on
                    failures.append(f"request {index} ({method}): "
                                    f"{type(exc).__name__}: {exc}")
                    reply = None
                latencies.append(time.perf_counter() - began)
                if reply is not None and sampled(index):
                    samples.append((index, reply))
        finally:
            client.close()
            with lock:
                load.busy_s += time.perf_counter() - load.start
                load.latencies += latencies
                load.failures += failures
                load.samples += samples

    threads = [threading.Thread(target=connection)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.wall_s = time.perf_counter() - load.start
    load.attempted = len(load.latencies)
    load.items = load.attempted - len(load.failures)
    return load


def upload_loop(url: str, path: Path, seconds: float) -> Load:
    """Upload the trace file again and again on one connection."""
    load = Load()
    client = _client(url)

    def upload() -> Rep:
        rep = Rep()
        began = time.perf_counter()
        try:
            records = list(client.trace_stream(
                str(path), device={"node": TRACE_NODE},
                snapshot_every=UPLOAD_SNAPSHOT_EVERY))
            if not records[-1].get("done"):
                raise ValueError(f"upload ended badly: {records[-1]}")
        except Exception as exc:  # counted, the loop goes on
            rep.failures.append(f"upload: {type(exc).__name__}: {exc}")
        else:
            rep.items = records[-1]["count"]
            key = json.dumps(records[-1]["result"], sort_keys=True)
            load.results[key] = load.results.get(key, 0) + 1
        rep.latencies.append(time.perf_counter() - began)
        return rep

    load.start = time.perf_counter()
    try:
        phase = timed_phase(upload, seconds)
    finally:
        client.close()
    load.wall_s = load.busy_s = phase.wall_s
    load.items = phase.items
    load.attempted = phase.attempted
    load.latencies = phase.latencies
    load.failures = phase.failures
    load.best = phase.best()
    return load


# ----------------------------------------------------------------------
# Output checks, after the clock stops.
# ----------------------------------------------------------------------
def library_answer(method: str, kwargs: Dict[str, Any]) -> Any:
    """What the library answers for one request, as JSON values."""
    from repro.engine import EvaluationSession
    from repro.service.jsonapi import evaluate_payload, sweep_payload
    from repro.service.streaming import sweep_stream

    payload = {key: value for key, value in kwargs.items()
               if value is not None}
    session = EvaluationSession()
    if method == "evaluate":
        answer: Any = evaluate_payload(session, payload)
    elif method == "sweep":
        answer = sweep_payload(session, payload)
    else:
        answer = list(sweep_stream(session, dict(payload, stream=True)))
    return json.loads(json.dumps(answer))


def check_samples(samples: Sequence[Tuple[int, Any]],
                  requests: Sequence[Request]) -> List[str]:
    """One line per sampled reply that differs from the library."""
    failures = []
    for index, reply in samples:
        method, kwargs = requests[index % len(requests)]
        rel = 0.0 if method == "evaluate" else SWEEP_TOLERANCE
        if not same_answer(reply, library_answer(method, kwargs), rel):
            failures.append(f"request {index} ({method}): reply differs "
                            f"from the library answer")
    return failures


def check_uploads(results: Dict[str, int], path: Path) -> List[str]:
    """One line per upload whose result differs from serial replay."""
    from repro.core import DramPowerModel
    from repro.service.tracing import trace_result_row

    oracle = json.loads(json.dumps(trace_result_row(
        *serial_replay(DramPowerModel(trace_device()), path))))
    failures = []
    for key, count in results.items():
        if not same_answer(json.loads(key), oracle):
            failures += ["upload result differs from the serial "
                         "oracle"] * count
    return failures


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
class _Traffic:
    """Warm-up, timed load and checks of one service workload."""

    def __init__(self, name: str, seed: int, seconds: float,
                 trace_file: Optional[Path]):
        self.name = name
        self.trace_file = trace_file
        offset = random.Random(seed).randrange(SAMPLE_EVERY)
        self.sampled = lambda index: index % SAMPLE_EVERY == offset
        if name == "serve_hot":
            self.requests = hot_requests(seed)
            self.warmup = self.requests
        elif name == "serve_explore":
            generated = explore_requests(
                seed, EXPLORE_WARMUP + int(seconds * EXPLORE_PER_SECOND))
            self.warmup = generated[:EXPLORE_WARMUP]
            self.requests = generated[EXPLORE_WARMUP:]
        self.unit = "commands" if name == "trace_upload" else "requests"

    def warm(self, client: ServiceClient) -> None:
        if self.name == "trace_upload":
            list(client.trace_stream(str(self.trace_file),
                                     device={"node": TRACE_NODE}))
            return
        for method, kwargs in self.warmup:
            _send(client, method, kwargs)

    def drive(self, url: str, seconds: float) -> Load:
        if self.name == "trace_upload":
            return upload_loop(url, self.trace_file, seconds)
        return closed_loop(url, self.requests, seconds, self.sampled,
                           cycle=self.name == "serve_hot")

    def check(self, load: Load) -> List[str]:
        if self.name == "trace_upload":
            return check_uploads(load.results, self.trace_file)
        return check_samples(load.samples, self.requests)


def _per_item(load: Load) -> float:
    """Connection-seconds per item (the fastest upload's, if any)."""
    if load.best is not None:
        return load.best["seconds"] / load.best["items"]
    return load.busy_s / load.items


def _delta(after: Dict[str, Any], before: Dict[str, Any]
           ) -> Dict[str, float]:
    return {key: value - before.get(key, 0)
            for key, value in after.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}


def _traced_layers(recorder: spans.Recorder, load: Load,
                   dump: Dict[str, Any], before: Dict[str, Any],
                   after: Dict[str, Any]) -> Dict[str, float]:
    """Merge client and server spans of the traced phase.

    The server's spans all run inside the client calls that caused
    them, so the client's root spans cover the traced wall time; the
    server's request time is taken out of ``client.wire`` and reported
    as its ``wait_s``.
    """
    requests = spans.window_requests(dump["spans"], load.start,
                                     load.start + load.busy_s)
    server = spans.layer_totals(
        span for span in dump["spans"] if span[5] in requests)
    server_s = sum(entry["root_s"] for entry in server.values())
    totals = spans.layer_totals(recorder.spans)
    for layer, entry in server.items():
        merged = totals.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                           "root_s": 0.0})
        merged["calls"] += entry["calls"]
        merged["self_s"] += entry["self_s"]
    wire = totals.setdefault("client.wire", {"calls": 0, "self_s": 0.0,
                                             "root_s": 0.0})
    wire["self_s"] -= server_s
    counters = spans.counter_totals(dump["counts"], requests)
    for name, value in spans.counter_totals(recorder.counts).items():
        counters[name] = counters.get(name, 0) + value
    counters["client.wire.wait_s"] = server_s
    layers = spans.layer_metrics(totals, counters, load.busy_s)
    layers.update(spans.engine_extras(
        _delta(after["engine"], before["engine"])))
    layers.update(spans.result_cache_extras(
        _delta(after["result_cache"], before["result_cache"])))
    return layers


def run(name: str, seed: int, seconds: float, trace: bool, out: Path,
        setups: int, trace_file: Optional[Path] = None
        ) -> Tuple[List[float], Dict[str, Any]]:
    """Set the server up ``setups`` times, keep the last one, drive it.

    Returns the set-up times and the measurement of the timed phase.
    """
    traffic = _Traffic(name, seed, seconds, trace_file)
    log = out / "server.log"
    setup_times: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            server = Server(log)
            traffic.warm(server.client)
            setup_times.append(time.perf_counter() - began)
        result: Dict[str, Any] = {"unit": traffic.unit}
        if not trace:
            load = traffic.drive(server.url, seconds)
            result["peak_rss_mb"] = peak_rss_mb(server.process.pid)
            server.stop()
            server = None
            loads = [load]
        else:
            untraced = traffic.drive(server.url, seconds / 2)
            server.stop()
            spans_path = out / "server-spans.json.gz"
            server = Server(log, spans_path=spans_path)
            traffic.warm(server.client)
            before = server.client.stats()
            recorder = spans.Recorder()
            uninstall = spans.install(recorder)
            try:
                load = traffic.drive(server.url, seconds / 2)
            finally:
                uninstall()
            after = server.client.stats()
            server.stop()
            server = None
            with gzip.open(spans_path, "rt", encoding="utf-8") as handle:
                dump = json.load(handle)
            layers = _traced_layers(recorder, load, dump, before, after)
            layers["tracing_overhead"] = _per_item(load) / _per_item(
                untraced) - 1.0
            result["layers"] = layers
            result["traced_wall_s"] = load.busy_s
            loads = [untraced, load]
    finally:
        if server is not None:
            server.stop()
    failures = [line for each in loads for line in each.failures]
    for each in loads:
        failures += traffic.check(each)
    result.update({
        "wall_s": load.wall_s,
        "items": load.items,
        "attempted": sum(each.attempted for each in loads),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_LINES],
        "latency": latency_summary(load.latencies),
        "report": {},
        "best": load.best,
    })
    return setup_times, result
