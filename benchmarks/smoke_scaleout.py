"""CI smoke check: pre-fork scale-out throughput and parity.

Boots the service twice from the real CLI entry point — once single
process, once with ``--workers 4`` — and drives both with the same
closed-loop client load:

* responses must be byte-identical between the two deployments (and
  across repeats), so forking N processes never changes an answer;
* throughput (req/s) and latency quantiles are printed;
* on hosts with >= 4 CPUs the 4-worker fleet must clear a 3x
  throughput speedup over the single process; on smaller hosts the
  ratio is printed but informational only (forked workers time-slice
  one core, so no speedup exists to assert).

Usage: ``PYTHONPATH=src python benchmarks/smoke_scaleout.py``
Exits non-zero on any failed expectation.
"""

import http.client
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

from repro.client import ServiceClient

#: Distinct devices in the request mix — one per roadmap node, so the
#: model cache works but every request still evaluates a real model.
NODES = (170, 110, 90, 75, 65, 55, 44, 36)
THREADS = 8
REQUESTS_PER_THREAD = 15
SPEEDUP_FLOOR = 3.0
FLEET_WORKERS = 4


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fail(process, message):
    print(f"FAIL: {message}")
    if process.poll() is None:
        process.kill()
        process.communicate(timeout=10)
    return 1


def _boot(workers):
    port = _free_port()
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro", "serve",
               "--port", str(port), "--result-cache", "0"]
    if workers > 1:
        command += ["--workers", str(workers)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               env=env)
    return process, port


def _stop(process):
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=30)
    return process.returncode, output


def _raw_evaluate(port, node):
    """One uncompressed exchange; returns the exact reply bytes."""
    blob = json.dumps({"device": {"node": node}})
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/evaluate", body=blob,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _drive(port):
    """Closed-loop load; returns (req/s, p50 ms, p95 ms, errors)."""
    url = f"http://127.0.0.1:{port}"
    latencies = []
    errors = []
    lock = threading.Lock()

    def worker(offset):
        client = ServiceClient(url)
        for index in range(REQUESTS_PER_THREAD):
            node = NODES[(offset + index) % len(NODES)]
            started = time.perf_counter()
            try:
                client.evaluate(device={"node": node})
            except Exception as exc:  # noqa: BLE001 - tally and go on
                with lock:
                    errors.append(repr(exc))
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(THREADS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    rate = len(latencies) / wall if wall > 0 else 0.0
    p50 = statistics.median(latencies) * 1e3 if latencies else 0.0
    p95 = (sorted(latencies)[int(len(latencies) * 0.95) - 1] * 1e3
           if latencies else 0.0)
    return rate, p50, p95, errors


def _measure(workers, label):
    process, port = _boot(workers)
    client = ServiceClient(f"http://127.0.0.1:{port}")
    if not client.wait_until_ready(timeout=60):
        return None, _fail(process, f"{label}: service never ready "
                                    f"({client.last_ready_error})")
    for node in NODES:  # warm every model before the clock starts
        client.evaluate(device={"node": node})
    rate, p50, p95, errors = _drive(port)
    status, reference = _raw_evaluate(port, NODES[0])
    returncode, output = _stop(process)
    if errors:
        print(f"FAIL: {label}: {len(errors)} request errors, "
              f"first: {errors[0]}")
        return None, 1
    if status != 200:
        print(f"FAIL: {label}: parity probe answered {status}")
        return None, 1
    if returncode != 0:
        print(f"FAIL: {label}: exit code {returncode}\n{output}")
        return None, 1
    print(f"{label}: {rate:.1f} req/s, p50 {p50:.1f} ms, "
          f"p95 {p95:.1f} ms")
    return {"rate": rate, "p50": p50, "p95": p95,
            "reference": reference}, 0


def main() -> int:
    cpus = os.cpu_count() or 1
    single, code = _measure(1, "1 worker")
    if code:
        return code
    fleet, code = _measure(FLEET_WORKERS, f"{FLEET_WORKERS} workers")
    if code:
        return code

    if single["reference"] != fleet["reference"]:
        print("FAIL: fleet reply differs from single-process reply")
        return 1

    speedup = (fleet["rate"] / single["rate"]
               if single["rate"] > 0 else 0.0)
    print(f"{THREADS * REQUESTS_PER_THREAD} requests per deployment "
          f"on {cpus} CPUs: {FLEET_WORKERS}-worker speedup "
          f"{speedup:.2f}x")

    if cpus >= FLEET_WORKERS and speedup < SPEEDUP_FLOOR:
        print(f"FAIL: {FLEET_WORKERS}-worker speedup {speedup:.2f}x "
              f"below {SPEEDUP_FLOOR}x on a {cpus}-CPU host")
        return 1
    if cpus < FLEET_WORKERS:
        print(f"OK: parity held; speedup {speedup:.2f}x "
              f"(not asserted on a {cpus}-CPU host)")
    else:
        print(f"OK: parity held; speedup {speedup:.2f}x >= "
              f"{SPEEDUP_FLOOR}x on {cpus} CPUs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
