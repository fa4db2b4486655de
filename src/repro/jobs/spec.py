"""Job specifications and deterministic chunk planning.

A *job spec* is the durable, JSON-serialisable description of a wide
workload — what to compute, never how far it got (progress lives in
the journal).  Planning a spec against a session yields a
:class:`JobPlan`: a fixed number of work *units* split into
contiguous chunks of ``chunk_size`` units each.  Two properties make
crash-resume bit-for-bit exact:

* planning is **deterministic** — the unit list depends only on the
  spec (Monte-Carlo draws are regenerated from the seed, so a resumed
  runner sees the same devices at the same indices as the crashed
  one);
* chunks are **independent and ordered** — each chunk's JSON result
  depends only on its own units, and :meth:`JobPlan.assemble` merges
  the chunk map in index order, so mixing journal-replayed chunks
  with freshly computed ones reproduces the uninterrupted result
  exactly (Python round-trips floats through JSON losslessly).

Four kinds cover the ROADMAP's fleet-scale campaigns:

* ``montecarlo`` — VAR-DRAM-style variation sweeps; one unit = one
  sampled device, result rows match
  :class:`repro.analysis.montecarlo.Distribution` summaries;
* ``evaluate`` — wide device batches; one unit = one device, the
  assembled result matches buffered ``POST /evaluate``;
* ``sweep`` — the named sweep families; one unit = one decomposed
  sweep slice (parameter / node / scheme; ``corners`` is one unit),
  rows in the same order the streaming endpoint emits them.
* ``trace`` — replay of an on-disk trace file; the whole file is one
  unit, replayed once by :func:`~repro.trace.replay_trace_file`, whose
  result row is journaled, so the job result is bit-identical to
  serial one-shot replay.

``evaluate`` and ``sweep`` run the service's operation table
(:data:`~repro.service.jsonapi.EVALUATE` and
:data:`~repro.service.jsonapi.SWEEPS`) through one generic
:class:`OperationPlan`: the same eager parse as the endpoints, the
same units, ``rows`` called once per unit like a stream.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Mapping, Tuple

from ..analysis.montecarlo import (DEFAULT_SIGMAS, Distribution,
                                   _measure_milliamps, _sample_variant)
from ..core.idd import IddMeasure
from ..engine import EvaluationSession
from ..errors import JobError, ServiceError
from ..service.jsonapi import (EVALUATE, Operation, device_from_payload,
                               execution_options, sweep_operation)
from ..service.tracing import (check_strict, decoder_params,
                               trace_result_row)
from ..trace import (DEFAULT_CLOCK, FORMATS, AddressDecoder,
                     replay_trace_file, resolve_trace_format)

#: Default units per journaled chunk.
DEFAULT_CHUNK_SIZE = 8

#: Hard ceiling on Monte-Carlo samples per job (memory guard).
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class JobSpec:
    """A durable job description: what to run, in chunks of what."""

    kind: str
    params: Mapping[str, Any]
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params),
                "chunk_size": self.chunk_size}

    def canonical(self) -> str:
        """Key-sorted JSON — the idempotency comparison form."""
        return json.dumps(self.to_dict(), sort_keys=True)


def parse_job_spec(payload: Any) -> JobSpec:
    """Decode and eagerly validate a ``POST /jobs`` body.

    Raises :class:`ServiceError` (HTTP 400) on anything malformed so
    a bad spec is rejected at submit time, never accepted and then
    failed asynchronously.
    """
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; choose from "
            + "/".join(sorted(JOB_KINDS)))
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ServiceError("'params' must be a JSON object")
    chunk_size = payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
    if not isinstance(chunk_size, int) or chunk_size < 1:
        raise ServiceError("'chunk_size' must be a positive integer")
    spec = JobSpec(kind=kind, params=params, chunk_size=chunk_size)
    JOB_KINDS[kind].validate(params)
    return spec


class JobPlan:
    """Deterministic chunked execution plan of one spec."""

    def __init__(self, spec: JobSpec, session: EvaluationSession):
        self.spec = spec
        self.session = session
        self.units = 0

    # ------------------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        size = self.spec.chunk_size
        return (self.units + size - 1) // size

    def chunk_range(self, index: int) -> Tuple[int, int]:
        low = index * self.spec.chunk_size
        return low, min(self.units, low + self.spec.chunk_size)

    def _merged(self, chunks: Mapping[int, Any]) -> List[Any]:
        """Unit results in index order; raises if a chunk is absent."""
        merged: List[Any] = []
        for index in range(self.chunk_count):
            if index not in chunks:
                raise JobError(f"chunk {index} missing at assembly")
            merged.extend(chunks[index])
        return merged

    # -- kind-specific hooks -------------------------------------------
    @classmethod
    def validate(cls, params: Mapping[str, Any]) -> None:
        """Cheap eager validation; raises :class:`ServiceError`."""
        raise NotImplementedError

    def run_chunk(self, index: int) -> List[Any]:
        """Evaluate one chunk to a JSON-safe list of unit results."""
        raise NotImplementedError

    def assemble(self, chunks: Mapping[int, Any]) -> Dict[str, Any]:
        """The final job result from the complete chunk map."""
        raise NotImplementedError


class MonteCarloPlan(JobPlan):
    """``montecarlo``: one unit per sampled device variant."""

    def __init__(self, spec: JobSpec, session: EvaluationSession):
        super().__init__(spec, session)
        params = spec.params
        self.device = device_from_payload(params.get("device", {}))
        self.samples = int(params["samples"])
        self.seed = int(params.get("seed", 1))
        self.measures = tuple(
            IddMeasure(name) for name in params.get(
                "measures", ("idd0", "idd4r")))
        sigmas = params.get("sigmas")
        self.sigmas = dict(DEFAULT_SIGMAS if sigmas is None
                           else sigmas)
        self.backend = execution_options(params)
        # The deterministic core: the whole draw sequence depends
        # only on the seed, so a resumed plan regenerates the exact
        # draws.  A chunk applies only its own, so a resume pays for
        # the chunks it computes, not for those it replays.
        rng = random.Random(self.seed)
        self.variants = [_sample_variant(rng, self.sigmas)
                         for _ in range(self.samples)]
        self.units = self.samples

    @classmethod
    def validate(cls, params: Mapping[str, Any]) -> None:
        samples = params.get("samples")
        if not isinstance(samples, int) or samples < 1:
            raise ServiceError("'samples' must be a positive integer")
        if samples > MAX_SAMPLES:
            raise ServiceError(
                f"'samples' capped at {MAX_SAMPLES}")
        seed = params.get("seed", 1)
        if not isinstance(seed, int):
            raise ServiceError("'seed' must be an integer")
        sigmas = params.get("sigmas")
        if sigmas is not None and not isinstance(sigmas, dict):
            raise ServiceError("'sigmas' must be a JSON object")
        try:
            for name in params.get("measures", ("idd0", "idd4r")):
                IddMeasure(name)
        except (ValueError, TypeError) as exc:
            raise ServiceError(f"bad measure: {exc}") from exc
        device_from_payload(params.get("device", {}))
        execution_options(params)

    def run_chunk(self, index: int) -> List[Any]:
        low, high = self.chunk_range(index)
        return self.session.map(
            [variant.apply(self.device)
             for variant in self.variants[low:high]],
            partial(_measure_milliamps, measures=self.measures),
            backend=self.backend)

    def assemble(self, chunks: Mapping[int, Any]) -> Dict[str, Any]:
        series = self._merged(chunks)
        rows = []
        for column, which in enumerate(self.measures):
            dist = Distribution(measure=which,
                                samples=tuple(row[column]
                                              for row in series))
            rows.append({"measure": dist.measure.value,
                         "mean_ma": dist.mean,
                         "stdev_ma": dist.stdev,
                         "min_ma": dist.minimum,
                         "max_ma": dist.maximum,
                         "p95_ma": dist.percentile(0.95),
                         "guard_band": dist.guard_band})
        return {"kind": "montecarlo", "device": self.device.name,
                "samples": self.samples, "seed": self.seed,
                "measures": [m.value for m in self.measures],
                "rows": rows}


class OperationPlan(JobPlan):
    """``evaluate``/``sweep``: one unit per unit of a table operation.

    A chunk calls the operation's ``rows`` once per unit, exactly like
    a stream, and journals the chunk's rows; assembly concatenates
    them in unit order.
    """

    def __init__(self, spec: JobSpec, session: EvaluationSession):
        super().__init__(spec, session)
        self.head, self.operation = self.lookup(spec.params)
        self.request = self.operation.parse(dict(spec.params))
        self.unit_list = list(self.operation.units(self.request))
        self.units = len(self.unit_list)

    @staticmethod
    def lookup(params: Mapping[str, Any]
               ) -> Tuple[Dict[str, Any], Operation]:
        """``(result head, table operation)`` for ``params``."""
        raise NotImplementedError

    @classmethod
    def validate(cls, params: Mapping[str, Any]) -> None:
        cls.lookup(params)[1].parse(dict(params))

    def run_chunk(self, index: int) -> List[Any]:
        low, high = self.chunk_range(index)
        return [row for unit in self.unit_list[low:high]
                for row in self.operation.rows(self.session,
                                               self.request, [unit])]

    def assemble(self, chunks: Mapping[int, Any]) -> Dict[str, Any]:
        rows = self._merged(chunks)
        # "results" for evaluate, "rows" for sweeps: the buffered keys.
        return dict(self.head, count=len(rows),
                    **{self.operation.record + "s": rows})


class EvaluatePlan(OperationPlan):
    """``evaluate``: one unit per device of a wide batch."""

    @staticmethod
    def lookup(params: Mapping[str, Any]
               ) -> Tuple[Dict[str, Any], Operation]:
        return {"kind": "evaluate"}, EVALUATE


class SweepPlan(OperationPlan):
    """``sweep``: one unit per decomposed slice of a named sweep."""

    @staticmethod
    def lookup(params: Mapping[str, Any]
               ) -> Tuple[Dict[str, Any], Operation]:
        kind, operation = sweep_operation(dict(params))
        return {"kind": "sweep", "sweep": kind}, operation


class TracePlan(JobPlan):
    """``trace``: one unit that replays a trace file once.

    The file stays on disk (the journal carries the result row, never
    trace lines), so multi-gigabyte traces replay as durable jobs.
    The unit runs :func:`~repro.trace.replay_trace_file` — columnar
    when numpy is present — and journals the final result row, command
    count included, which reproduces serial one-shot replay bit for
    bit.  A crash before that checkpoint repeats the one replay.
    """

    def __init__(self, spec: JobSpec, session: EvaluationSession):
        super().__init__(spec, session)
        params = spec.params
        self.device = device_from_payload(params.get("device", {}))
        self.path = str(params["path"])
        self.clock = float(params.get("clock", DEFAULT_CLOCK))
        self.decoder = AddressDecoder.from_device(
            self.device, **decoder_params(params.get("decoder", {})))
        self.fmt = resolve_trace_format(self.path,
                                        params.get("format"))
        self.units = 1

    @classmethod
    def validate(cls, params: Mapping[str, Any]) -> None:
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError("'path' must be a trace file path")
        if not os.path.isfile(path):
            raise ServiceError(f"trace file not found: {path!r}",
                               status=400)
        fmt = params.get("format")
        if fmt is not None and fmt != "auto" and fmt not in FORMATS:
            raise ServiceError(
                f"unknown trace format {fmt!r}; choose from "
                + "/".join(sorted(FORMATS)))
        clock = params.get("clock", DEFAULT_CLOCK)
        if (not isinstance(clock, (int, float))
                or not 0 < clock < math.inf):
            raise ServiceError("'clock' must be positive, finite Hz")
        check_strict(params)
        device_from_payload(params.get("device", {}))
        decoder_params(params.get("decoder", {}))

    def run_chunk(self, index: int) -> List[Any]:
        try:
            accumulator, _ = replay_trace_file(
                self.session.model(self.device), self.path, self.fmt,
                self.decoder, self.clock)
        except OSError as exc:
            raise JobError(str(exc)) from exc
        return [trace_result_row(accumulator.result(),
                                 accumulator.commands_seen)]

    def assemble(self, chunks: Mapping[int, Any]) -> Dict[str, Any]:
        row, = self._merged(chunks)
        if "energy_j" not in row:
            # An older release journaled one exported accumulator
            # state per range of (channel, rank) shards.
            raise JobError(
                "the journal holds shard states of an older trace "
                "job, which this release cannot assemble; resubmit "
                "the job")
        return {"kind": "trace", "path": self.path,
                "format": self.fmt, "device": self.device.name,
                "commands": row["commands"], "result": row}


#: Registered job kinds, keyed by spec ``kind``.
JOB_KINDS: Dict[str, Any] = {
    "montecarlo": MonteCarloPlan,
    "evaluate": EvaluatePlan,
    "sweep": SweepPlan,
    "trace": TracePlan,
}


def plan_job(spec: JobSpec,
             session: EvaluationSession) -> JobPlan:
    """Instantiate the plan for ``spec`` against ``session``."""
    return JOB_KINDS[spec.kind](spec, session)
