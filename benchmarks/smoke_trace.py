"""CI smoke check: high-throughput trace replay, every backend.

Generates a gzipped k6 trace of ~400k transactions (open-page
expansion grows it past one million DRAM commands) whose addresses
span the full decoder width including (channel, rank) bits, then
holds every replay backend to the same bar:

* ``serial`` — the scalar oracle, timed as the baseline;
* ``vector`` — the columnar kernel, timed and run under
  ``tracemalloc`` (batching must keep the footprint constant);
* a real ``python -m repro serve`` subprocess receives the same file
  as a gzipped chunked ``POST /trace`` upload and must reproduce the
  library result bit for bit, emitting incremental snapshots, at no
  less than ``MIN_UPLOAD_RATIO`` of the library columnar rate when
  numpy is present.

All backends must agree bit for bit.  The ≥``MIN_SPEEDUP``× columnar
floor is asserted only when numpy is present and the host has at
least ``MIN_CPUS_FOR_FLOOR`` CPUs (mirroring ``smoke_scaleout``'s
host gating, so tiny CI runners report throughput without failing).

Throughput and footprint land in ``benchmarks/BENCH_trace.json``.

Usage: ``PYTHONPATH=src python benchmarks/smoke_trace.py``
Exits non-zero on any failed expectation.
"""

import gzip
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro import DramPowerModel
from repro.client import ServiceClient
from repro.devices import build_device
from repro.trace import (AddressDecoder, columnar_available,
                         replay_trace_file)

#: Transactions to generate; expansion yields ~3 commands each.
TRANSACTIONS = 400_000

#: Commands the expanded trace must at least reach.
MIN_COMMANDS = 1_000_000

#: Peak-memory envelope for the columnar fold (bytes).  Batching
#: bounds the working set regardless of trace length; a materializing
#: evaluator would need hundreds of MB here.
PEAK_BUDGET = 64 * 1024 * 1024

#: Columnar-over-serial floor, asserted only on capable hosts.
MIN_SPEEDUP = 5.0

#: Host gate for the speedup assertion (mirrors smoke_scaleout).
MIN_CPUS_FOR_FLOOR = 4

#: Chunked-upload rate as a share of the library columnar rate,
#: asserted whenever numpy is present.  The upload runs the same byte
#: reader and fold behind HTTP; measured ~1.0x on a 2-vCPU host, and
#: ~0.25x when the line splitter was quadratic in the chunk size.
MIN_UPLOAD_RATIO = 0.5

SNAPSHOT_EVERY = 250_000

#: Shard geometry: 1 channel bit + 1 rank bit = 4 replay shards.
CHANNEL_BITS = 1
RANK_BITS = 1


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _generate(path: Path, address_bits: int) -> None:
    """Write a deterministic pseudo-random k6 trace, gzipped, with
    addresses spanning the full decoder width so every (channel,
    rank) shard sees traffic."""
    state = 0x2C011
    mask = (1 << address_bits) - 1
    with gzip.open(path, "wt") as handle:
        for i in range(TRANSACTIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            op = "P_MEM_WR" if state % 3 == 0 else "P_MEM_RD"
            address = (state * 2654435761) & mask
            handle.write(f"0x{address:X} {op} {i * 16}\n")
            if i % 50_000 == 49_999:
                handle.write(f"0x0 REF {i * 16 + 8}\n")


def _timed_replay(model, path, decoder, backend, traced=False):
    """Replay on one backend; returns (accumulator, seconds, peak)."""
    if traced:
        tracemalloc.start()
    started = time.perf_counter()
    accumulator, used = replay_trace_file(model, path,
                                          decoder=decoder,
                                          backend=backend)
    elapsed = time.perf_counter() - started
    peak = 0
    if traced:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return accumulator, used, elapsed, peak


def _fingerprint(accumulator):
    result = accumulator.result()
    return (result.energy, result.duration, result.counts,
            result.row_hits, result.row_misses, result.row_conflicts,
            result.data_bits, result.breakdown.values,
            accumulator.commands_seen)


def _service_pass(path: Path):
    """Upload the file to a live service; returns (records, seconds)."""
    port = _free_port()
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=180.0)
        if not client.wait_until_ready(timeout=30):
            raise RuntimeError(f"service never came up on :{port}")
        started = time.perf_counter()
        records = list(client.trace_stream(
            path, device={"node": 55},
            snapshot_every=SNAPSHOT_EVERY))
        elapsed = time.perf_counter() - started
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
    return records, elapsed


def main() -> int:
    device = build_device(55)
    model = DramPowerModel(device)
    decoder = AddressDecoder.from_device(device,
                                         channel_bits=CHANNEL_BITS,
                                         rank_bits=RANK_BITS)
    cpus = os.cpu_count() or 1

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "smoke.trc.gz"
        _generate(path, decoder.address_bits)
        size_mb = path.stat().st_size / 1e6
        print(f"generated {TRANSACTIONS} transactions "
              f"({size_mb:.1f} MB gzipped, "
              f"{decoder.num_shards} shards)")

        serial, _, serial_seconds, _ = _timed_replay(
            model, path, decoder, "serial")
        commands = serial.commands_seen
        serial_rate = commands / serial_seconds / 1e6
        print(f"serial : {commands} commands in "
              f"{serial_seconds:.1f}s ({serial_rate:.2f} Mcmd/s)")
        if commands < MIN_COMMANDS:
            print(f"FAIL: expanded trace has only {commands} "
                  f"commands (< {MIN_COMMANDS})")
            return 1
        baseline = _fingerprint(serial)

        # ``vector`` degrades to serial without numpy (marker fires);
        # timing it anyway keeps the no-numpy leg honest end to end.
        # The memory envelope runs as a separate pass: tracemalloc
        # slows allocation-heavy code several-fold and would poison
        # the throughput number.
        vector, vector_used, vector_seconds, _ = _timed_replay(
            model, path, decoder, "vector")
        vector_rate = commands / vector_seconds / 1e6
        print(f"vector : {vector_seconds:.1f}s "
              f"({vector_rate:.2f} Mcmd/s, ran as {vector_used})")
        if _fingerprint(vector) != baseline:
            print("FAIL: vector replay diverged from serial")
            return 1
        traced, _, _, peak = _timed_replay(model, path, decoder,
                                           "vector", traced=True)
        print(f"vector : peak {peak / 1e6:.1f} MB under tracemalloc")
        if _fingerprint(traced) != baseline:
            print("FAIL: traced vector replay diverged from serial")
            return 1
        if peak > PEAK_BUDGET:
            print(f"FAIL: columnar fold peaked at {peak} bytes "
                  f"(budget {PEAK_BUDGET})")
            return 1

        speedup = serial_seconds / vector_seconds
        if columnar_available() and cpus >= MIN_CPUS_FOR_FLOOR:
            if speedup < MIN_SPEEDUP:
                print(f"FAIL: columnar speedup {speedup:.1f}x "
                      f"< {MIN_SPEEDUP}x floor")
                return 1
        else:
            print(f"note: speedup floor not asserted "
                  f"(numpy={columnar_available()}, cpus={cpus})")

        records, upload_seconds = _service_pass(path)
        if not records or records[-1].get("done") is not True:
            print(f"FAIL: upload stream ended without a done "
                  f"record ({records[-1:]})")
            return 1
        snapshots = [r for r in records if "snapshot" in r]
        if not snapshots:
            print("FAIL: no incremental snapshots were streamed")
            return 1
        final = records[-1]["result"]
        # The upload decodes with the service's default (shardless)
        # decoder, so compare against a matching library replay.
        reference, _, _, _ = _timed_replay(
            model, path, AddressDecoder.from_device(device), "auto")
        if final["energy_j"] != reference.result().energy:
            print(f"FAIL: uploaded energy {final['energy_j']!r} != "
                  f"library {reference.result().energy!r}")
            return 1
        expected_counts = {command.value: count for command, count
                           in reference.result().counts.items()}
        if final["counts"] != expected_counts:
            print(f"FAIL: count mismatch: {final['counts']} != "
                  f"{expected_counts}")
            return 1
        upload_rate = records[-1]["count"] / upload_seconds / 1e6
        print(f"service: parity OK, {len(snapshots)} snapshots, "
              f"upload+evaluate {upload_seconds:.1f}s "
              f"({upload_rate:.2f} Mcmd/s)")
        if (columnar_available()
                and upload_rate < MIN_UPLOAD_RATIO * vector_rate):
            print(f"FAIL: upload {upload_rate:.2f} Mcmd/s < "
                  f"{MIN_UPLOAD_RATIO}x library vector "
                  f"{vector_rate:.2f} Mcmd/s")
            return 1

    metrics_path = Path(__file__).parent / "BENCH_trace.json"
    metrics = {
        "trace.transactions": TRANSACTIONS,
        "trace.commands": commands,
        "trace.gzip_mb": round(size_mb, 2),
        "trace.shards": decoder.num_shards,
        "trace.cpus": cpus,
        "trace.numpy": columnar_available(),
        "trace.library.mcmd_per_s.serial": round(serial_rate, 3),
        "trace.library.mcmd_per_s.vector": round(vector_rate, 3),
        "trace.library.speedup.vector": round(speedup, 2),
        "trace.library.peak_mb": round(peak / 1e6, 2),
        "trace.upload.seconds": round(upload_seconds, 2),
        "trace.upload.mcmd_per_s": round(upload_rate, 3),
        "trace.upload.snapshots": len(snapshots),
    }
    metrics_path.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"OK: wrote {metrics_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
