"""The library trace workloads and their shared input.

One seeded gzipped k6 file (random addresses over the default
decoder's width, so open-page expansion yields about three commands per
transaction) feeds ``trace_replay`` here and ``trace_upload`` in
``serve.py``; ``trace_strict`` replays a generated timing-legal command
list through the strict scalar fold.
"""

from __future__ import annotations

import gzip
import hashlib
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from harness import Rep

from repro.core import DramPowerModel
from repro.core.trace import evaluate_trace
from repro.devices import build_device
from repro.trace import AddressDecoder, replay_trace_file
from repro.workloads import random_trace

#: Transactions in the generated file: three columnar parse batches.
TRANSACTIONS = 150_000
#: A refresh line every this many transactions.
REFRESH_EVERY = 50_000
#: Accesses of the strict workload's generated command list.
STRICT_ACCESSES = 50_000
TRACE_NODE = 55


def trace_device():
    return build_device(TRACE_NODE)


def write_trace_file(seed: int, path: Path) -> None:
    """Write the seeded k6 trace, gzipped (same seed, same bytes)."""
    rng = random.Random(seed)
    bits = AddressDecoder.from_device(trace_device()).address_bits
    lines = []
    for index in range(TRANSACTIONS):
        op = "P_MEM_WR" if rng.random() < 1 / 3 else "P_MEM_RD"
        lines.append(f"0x{rng.getrandbits(bits):X} {op} {index * 16}\n")
        if index % REFRESH_EVERY == REFRESH_EVERY - 1:
            lines.append(f"0x0 REF {index * 16 + 8}\n")
    with open(path, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write("".join(lines).encode("ascii"))


def serial_replay(model: DramPowerModel, path: Path):
    """The scalar oracle of a file replay: ``(result, commands)``."""
    accumulator, _ = replay_trace_file(model, path, backend="serial")
    return accumulator.result(), accumulator.commands_seen


class _TraceWorkload:
    unit = "commands"

    def __init__(self) -> None:
        self.device = trace_device()
        self.model = DramPowerModel(self.device)
        #: Distinct outputs of the timed reps: repr → [result,
        #: commands, times seen].
        self.results: Dict[str, list] = {}

    def _run(self, rep: Rep, fn, *args, **kwargs) -> None:
        start = time.perf_counter()
        try:
            result, commands = fn(*args, **kwargs)
        except Exception as exc:
            rep.failures.append(f"{type(exc).__name__}: {exc}")
        else:
            rep.items += commands
            key = repr((result, commands))
            self.results.setdefault(key, [result, commands, 0])[2] += 1
            rep.digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        finally:
            rep.latencies.append(time.perf_counter() - start)

    def reset(self) -> None:
        self.results.clear()

    def _check(self, oracle_result, oracle_commands: int) -> List[str]:
        """One line per repetition whose result differs from the
        oracle."""
        failures = []
        for result, commands, count in self.results.values():
            if (result, commands) != (oracle_result, oracle_commands):
                failures += [f"result differs from the serial oracle: "
                             f"{commands} commands, energy "
                             f"{result.energy!r} vs {oracle_commands} "
                             f"commands, energy {oracle_result.energy!r}"
                             ] * count
        return failures

    def report(self) -> Dict[str, Any]:
        return {}


class TraceReplay(_TraceWorkload):
    """``replay_trace_file(backend="auto")`` of the generated file."""

    def __init__(self, seed: int, path: str):
        super().__init__()
        self.path = Path(path)

    def _replay(self):
        accumulator, _ = replay_trace_file(self.model, self.path,
                                           backend="auto")
        return accumulator.result(), accumulator.commands_seen

    def rep(self) -> Rep:
        rep = Rep()
        self._run(rep, self._replay)
        return rep

    def check(self) -> List[str]:
        return self._check(*serial_replay(self.model, self.path))


class TraceStrict(_TraceWorkload):
    """``evaluate_trace(strict=True)`` on a generated legal trace."""

    def __init__(self, seed: int, _input: Any = None):
        super().__init__()
        self.commands = random_trace(self.device, STRICT_ACCESSES,
                                     with_refresh=True, seed=seed)

    def _evaluate(self):
        return (evaluate_trace(self.model, self.commands, strict=True),
                len(self.commands))

    def rep(self) -> Rep:
        rep = Rep()
        self._run(rep, self._evaluate)
        return rep

    def check(self) -> List[str]:
        # Lenient replay skips every legality check; on a legal trace
        # it must price exactly what the strict fold priced.
        return self._check(
            evaluate_trace(self.model, self.commands, strict=False),
            len(self.commands))


WORKLOADS = {"trace_replay": TraceReplay, "trace_strict": TraceStrict}
