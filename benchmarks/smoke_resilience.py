"""CI smoke check: the resilience layer under injected faults.

**Service under load**, as a real subprocess: ``repro serve`` with one
in-flight slot, a one-deep queue and injected handler latency (via
``REPRO_FAULTS``) is hammered by concurrent clients.  The admission
bound must hold, load must actually be shed with ``Retry-After``, and
every client must still succeed through backoff-and-retry.  SIGTERM
must drain and exit 0.

Shed counts and client-side latency percentiles are printed.

Usage: ``PYTHONPATH=src python benchmarks/smoke_resilience.py``
Exits non-zero on any failed expectation.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.client import RetryPolicy, ServiceClient
from repro.errors import ServiceError

CLIENTS = 8


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def check_saturated_service() -> None:
    """A tiny saturated server, retrying clients, SIGTERM."""
    port = _free_port()
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["REPRO_FAULTS"] = json.dumps([
        {"kind": "latency", "path": "/evaluate", "seconds": 0.05}])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--max-inflight", "1",
         "--max-queue", "1", "--retry-after", "0",
         "--request-timeout", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    base_url = f"http://127.0.0.1:{port}"
    policy = RetryPolicy(max_attempts=30, base_delay=0.02,
                         max_delay=0.2)
    try:
        probe = ServiceClient(base_url)
        assert probe.wait_until_ready(timeout=30), \
            f"service never came up: {probe.last_ready_error}"

        latencies = []
        errors = []
        lock = threading.Lock()

        def hammer():
            client = ServiceClient(base_url, retry=policy,
                                   breaker=None)
            started = time.perf_counter()
            try:
                client.evaluate(device={"node": 55})
            except ServiceError as error:
                with lock:
                    errors.append(error)
                return
            elapsed = (time.perf_counter() - started) * 1e3
            with lock:
                latencies.append(elapsed)

        threads = [threading.Thread(target=hammer)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == [], \
            f"{len(errors)} clients failed despite retries: " \
            f"{errors[0]}"

        stats = probe.stats()
        admission = stats["admission"]
        assert admission["max_in_flight"] <= 1, \
            f"in-flight bound violated: {admission}"
        assert admission["shed_total"] > 0, \
            f"saturation never shed anything: {admission}"

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, \
            f"exit code {process.returncode} after SIGTERM:\n{out}"
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)

    latencies.sort()
    p50 = statistics.median(latencies)
    p95 = latencies[int(0.95 * len(latencies))]
    print(f"saturation: {CLIENTS} retrying clients all succeeded "
          f"against 1 slot + 1 queue; shed 429={admission['shed_busy']}"
          f" 503={admission['shed_timeout']}, max in-flight "
          f"{admission['max_in_flight']}, client latency p50 "
          f"{p50:.0f} ms p95 {p95:.0f} ms, admitted "
          f"{admission['admitted']}, clean SIGTERM exit")


def main() -> int:
    check_saturated_service()
    print("OK: resilience smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
