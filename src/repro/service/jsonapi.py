"""JSON request/response bodies of the evaluation service.

Pure functions from parsed JSON payloads to JSON-compatible dicts;
:mod:`repro.service.server` owns the HTTP plumbing and calls in here.
Keeping the API surface socket-free makes every endpoint unit-testable
without a server and reusable by other front ends.

Every ``/evaluate`` and ``/sweep`` operation is defined once, as one
:class:`Operation` of the table below (:data:`EVALUATE` and one
:data:`SWEEPS` entry per sweep kind): an eager ``parse``, a
deterministic list of work ``units`` and a ``rows`` evaluator.  The
three reply modes only differ in how they call ``rows``: a buffered
reply here calls it once with every unit, while NDJSON streams
(:mod:`repro.service.streaming`) and durable jobs
(:mod:`repro.jobs.spec`) call it once per unit.  Adding a sweep kind
is one table entry.

A *device payload* takes one of three shapes:

* builder keywords — ``{"node": 55, "io_width": 16, ...}`` routed to
  :func:`repro.devices.build_device` (an empty object is the default
  mainstream device);
* description language — ``{"dsl": "Device ..."}`` parsed by
  :func:`repro.dsl.loads`;
* JSON interchange — ``{"json": {...}}`` decoded by
  :func:`repro.description.jsonio.from_dict`.

Every malformed request raises :class:`~repro.errors.ServiceError`
carrying the HTTP status it maps to; model-layer failures
(:class:`~repro.errors.ReproError`) are translated to 400s so a bad
description never takes the daemon down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import threading
from collections import OrderedDict
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..analysis.corners import (STANDARD_CORNERS, VENDOR_SPREAD_CORNERS,
                                corner_sweep)
from ..analysis.sensitivity import PARAMETERS, sensitivity
from ..analysis.trends import generation_trend
from ..core import DramPowerModel
from ..description import DramDescription, Pattern
from ..description.jsonio import from_dict
from ..description.pattern import Command
from ..devices import build_device
from ..dsl import loads
from ..engine import AUTO, EngineStats, EvaluationSession, resolve_backend
from ..errors import ReproError, ServiceError
from ..schemes import ALL_SCHEMES, compare_schemes
from ..technology.roadmap import nodes
from ..units import parse_quantity

#: Keyword keys accepted by the builder shape of a device payload.
BUILDER_KEYS = ("node", "interface", "density_bits", "io_width",
                "datarate", "page_bits", "banks", "name")

#: Operations whose per-operation energy every evaluation reports.
_OPERATIONS = (Command.ACT, Command.PRE, Command.RD, Command.WR)


def _finite(value: float) -> Optional[float]:
    """``value`` as JSON-safe data: non-finite floats become null."""
    return value if math.isfinite(value) else None


class ResultCache:
    """Bounded LRU of whole ``/evaluate`` replies, encoded.

    Maps :func:`request_key`, the SHA-256 digest of the canonical
    request body, to the reply's JSON bytes: the reply is a pure
    function of the body, so a warm repeat skips device decoding,
    fingerprinting, the model build, the evaluation and encoding the
    reply.  Thread safe; a zero capacity disables it.  Hit/miss
    counters surface in ``GET /stats`` under ``result_cache``.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: bytes) -> Optional[bytes]:
        """The cached reply for ``key``, counting hit or miss."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: bytes, value: bytes) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._entries),
                    "capacity": self.capacity}


def device_from_payload(payload: Any) -> DramDescription:
    """Decode one device payload (see the module docstring shapes)."""
    if not isinstance(payload, dict):
        raise ServiceError("device payload must be a JSON object")
    try:
        if "dsl" in payload:
            if not isinstance(payload["dsl"], str):
                raise ServiceError("'dsl' must be a string")
            return loads(payload["dsl"], source="<request>")
        if "json" in payload:
            return from_dict(payload["json"])
        unknown = set(payload) - set(BUILDER_KEYS)
        if unknown:
            raise ServiceError(
                "unknown device keys: " + ", ".join(sorted(unknown))
                + "; builder keys are " + ", ".join(BUILDER_KEYS)
                + " (or pass 'dsl' / 'json')")
        kwargs = dict(payload)
        node = kwargs.pop("node", 55)
        if isinstance(kwargs.get("datarate"), str):
            kwargs["datarate"] = parse_quantity(kwargs["datarate"])
        return build_device(node, **kwargs)
    except ServiceError:
        raise
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc
    except (TypeError, ValueError, KeyError) as exc:
        raise ServiceError(
            f"invalid device payload: {type(exc).__name__}: {exc}"
        ) from exc


def _evaluation(model: DramPowerModel,
                pattern: Optional[Pattern]) -> Dict[str, Any]:
    """The JSON body describing one evaluated device."""
    result = model.pattern_power(pattern)
    return {
        "device": result.device_name,
        "pattern": result.pattern,
        "power_w": result.power,
        "current_a": result.current,
        "duration_s": result.duration,
        "energy_per_bit_pj": _finite(result.energy_per_bit_pj),
        "operation_power_w": {name: value for name, value
                              in result.operation_power.items()},
        "operation_energy_pj": {
            command.value: model.operation_energy(command) * 1e12
            for command in _OPERATIONS},
        "breakdown_w": result.breakdown.as_dict(),
    }


@dataclasses.dataclass(frozen=True)
class Operation:
    """One service operation, defined once for every reply mode.

    ``parse`` turns a JSON payload into a validated request and raises
    :class:`ServiceError` (400) before any work starts; ``units`` lists
    the request's work units in a deterministic order; ``rows``
    evaluates a sequence of those units to JSON rows and raises on
    failure.  ``record`` names one row inside a streamed record.
    """

    parse: Callable[[Any], Any]
    units: Callable[[Any], Sequence[Any]]
    rows: Callable[[EvaluationSession, Any, Sequence[Any]],
                   List[Dict[str, Any]]]
    record: str = "row"


def _buffered_rows(session: EvaluationSession, operation: Operation,
                   request: Any) -> List[Dict[str, Any]]:
    """Every row of ``request`` from one ``rows`` call over all units.

    One call keeps a sweep one vector-kernel batch and in the
    analysis' own order.  Model-layer failures become 400s; a
    :class:`ServiceError` (deadline, injected fault) keeps its status.
    """
    try:
        return operation.rows(session, request, operation.units(request))
    except ServiceError:
        raise
    except (ReproError, ValueError, TypeError) as exc:
        raise ServiceError(str(exc)) from exc


def parse_evaluate_request(payload: Any
                           ) -> Tuple[List[DramDescription],
                                      Optional[Pattern]]:
    """Decode an ``/evaluate`` body into ``(devices, pattern)``.

    The ``parse`` of :data:`EVALUATE`, so every reply mode rejects
    malformed requests identically and before any evaluation starts.
    """
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    if "devices" in payload:
        specs = payload["devices"]
        if not isinstance(specs, list) or not specs:
            raise ServiceError("'devices' must be a non-empty list")
    elif "device" in payload:
        specs = [payload["device"]]
    else:
        raise ServiceError("request needs a 'device' or 'devices' key")
    pattern = None
    if payload.get("pattern") is not None:
        if not isinstance(payload["pattern"], str):
            raise ServiceError("'pattern' must be a command string")
        try:
            pattern = Pattern.parse(payload["pattern"])
        except (ReproError, ValueError) as exc:
            raise ServiceError(f"bad pattern: {exc}") from exc
    devices = [device_from_payload(spec) for spec in specs]
    return devices, pattern


def _evaluate_rows(session: EvaluationSession, request: Tuple,
                   devices: Sequence[DramDescription]
                   ) -> List[Dict[str, Any]]:
    return [_evaluation(session.model(device), request[1])
            for device in devices]


#: ``/evaluate``: one unit per device, in request order.  ``parse``
#: resolves the module attribute per call, so a wrapper installed on
#: it later still sees every request.
EVALUATE = Operation(
    parse=lambda payload: parse_evaluate_request(payload),
    units=lambda request: request[0],
    rows=_evaluate_rows, record="result")


def request_key(payload: Any) -> bytes:
    """The :class:`ResultCache` key of a request body: the SHA-256
    digest of its key-sorted JSON.

    A digest, not the canonical string, keeps every key at 32 bytes
    however long the body (a DSL text may carry comments up to the
    body cap).  A body too deeply nested to re-encode is a 400, like
    one too deeply nested to decode.
    """
    try:
        canonical = json.dumps(payload, sort_keys=True)
    except RecursionError as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from exc
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def evaluate_payload(session: EvaluationSession,
                     payload: Any) -> Dict[str, Any]:
    """``POST /evaluate``: one description or a batch.

    ``{"device": {...}}`` or ``{"devices": [{...}, ...]}``, plus an
    optional ``"pattern"`` command loop evaluated on every device
    (the device default pattern when omitted).  Results keep the
    request order.  The service memoizes the encoded reply in a
    :class:`ResultCache` around this call.
    """
    request = parse_evaluate_request(payload)
    results = _buffered_rows(session, EVALUATE, request)
    return {"count": len(results), "results": results}


# ----------------------------------------------------------------------
# Named sweeps.
# ----------------------------------------------------------------------
def execution_options(payload: Dict[str, Any]) -> Optional[str]:
    """The validated ``backend`` of a sweep-like body.

    ``backend`` defaults to ``"auto"``; an unknown backend is a 400
    here, before any work starts.  Keys the parser does not read are
    ignored, so a job spec journaled with a ``jobs`` key resumes.
    """
    backend = payload.get("backend", AUTO)
    if backend is not None and not isinstance(backend, str):
        raise ServiceError("'backend' must be a backend name")
    try:
        resolve_backend(backend)
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc
    return backend


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """A validated ``/sweep`` request; ``echo`` heads the reply."""

    device: Optional[DramDescription]
    params: Dict[str, Any]
    backend: Optional[str]
    echo: Dict[str, Any]

    def options(self, session: EvaluationSession) -> Dict[str, Any]:
        """Keyword arguments every analysis entry point takes."""
        return {"session": session, "backend": self.backend}


def _checked(test: Callable[[Any], bool], wants: str
             ) -> Callable[[str, Any], Any]:
    def check(name: str, value: Any) -> Any:
        if not test(value):
            raise ServiceError(f"'{name}' must be {wants}")
        return value
    return check


_FRACTION = _checked(lambda v: isinstance(v, float) and 0.0 < v < 1.0,
                     "a fraction in (0, 1)")
_FLAG = _checked(lambda v: isinstance(v, bool), "true or false")
_INTEGER = _checked(lambda v: isinstance(v, int)
                    and not isinstance(v, bool), "an integer")
_NODES = _checked(lambda v: v is None or (isinstance(v, list) and v),
                  "a non-empty list of nodes in nm")

#: One kind-specific sweep parameter: (JSON key, default, checker,
#: echoed in the buffered reply).
Param = Tuple[str, Any, Callable[[str, Any], Any], bool]


def _parse_sweep(payload: Dict[str, Any], params: Tuple[Param, ...],
                 device: bool) -> SweepRequest:
    backend = execution_options(payload)
    values = {name: check(name, payload[name]) if name in payload
              else default for name, default, check, _ in params}
    base = (device_from_payload(payload.get("device", {})) if device
            else None)
    echo = {"device": base.name} if device else {}
    echo.update((name, values[name])
                for name, _, _, shown in params if shown)
    return SweepRequest(base, values, backend, echo)


def _sweep(rows: Callable, units: Callable[[SweepRequest], Sequence],
           *params: Param, device: bool = True) -> Operation:
    return Operation(partial(_parse_sweep, params=params, device=device),
                     units, rows)


def _sensitivity_rows(session, request, parameters):
    results = sensitivity(request.device,
                          variation=request.params["variation"],
                          parameters=tuple(parameters),
                          **request.options(session))
    return [{"name": result.name,
             "group": result.group,
             "impact": result.impact,
             "power_base_w": result.power_base,
             "power_low_w": result.power_low,
             "power_high_w": result.power_high} for result in results]


def _corner_rows(session, request, _units):
    corners = (VENDOR_SPREAD_CORNERS if request.params["vendor"]
               else STANDARD_CORNERS)
    bands = corner_sweep(request.device, corners=corners,
                         **request.options(session))
    return [{"measure": band.measure.value,
             "min_ma": band.minimum,
             "typ_ma": band.typical,
             "max_ma": band.maximum,
             "spread": band.spread,
             "values_ma": band.values_ma} for band in bands]


def _trend_rows(session, request, node_list):
    points = generation_trend(io_width=request.params["io_width"],
                              node_list=list(node_list),
                              **request.options(session))
    return [{"node_nm": point.node_nm,
             "year": point.year,
             "interface": point.interface,
             "datarate_gbps": point.datarate / 1e9,
             "vdd": point.vdd,
             "die_area_mm2": point.die_area_mm2,
             "idd0_ma": point.idd0_ma,
             "idd4r_ma": point.idd4r_ma,
             "energy_idd7_pj": point.energy_idd7_pj} for point in points]


def _scheme_rows(session, request, schemes):
    results = compare_schemes(request.device, schemes=tuple(schemes),
                              session=session)
    return [{"scheme": result.scheme,
             "power_saving": result.power_saving,
             "area_overhead": result.area_overhead,
             "baseline_power_w": result.baseline.power,
             "modified_power_w": result.modified.power,
             "notes": result.notes} for result in results]


#: Sweep kinds served by ``POST /sweep``.  Units: one per sensitivity
#: parameter, one per roadmap node, one per scheme; the corner bands
#: share one model per corner, so ``corners`` is a single unit.
SWEEPS: Dict[str, Operation] = {
    "sensitivity": _sweep(_sensitivity_rows, lambda _: PARAMETERS,
                          ("variation", 0.2, _FRACTION, True)),
    "corners": _sweep(_corner_rows, lambda _: ("corners",),
                      ("vendor", False, _FLAG, True)),
    "trends": _sweep(_trend_rows,
                     lambda request: request.params["nodes"] or nodes(),
                     ("io_width", 16, _INTEGER, True),
                     ("nodes", None, _NODES, False), device=False),
    "schemes": _sweep(_scheme_rows, lambda _: ALL_SCHEMES),
}


def sweep_operation(payload: Any) -> Tuple[str, Operation]:
    """``(kind, table entry)`` of a ``/sweep`` body; 400 if unknown."""
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in SWEEPS:
        raise ServiceError(
            f"unknown sweep kind {kind!r}; choose from "
            + "/".join(sorted(SWEEPS)))
    return kind, SWEEPS[kind]


def sweep_payload(session: EvaluationSession,
                  payload: Any) -> Dict[str, Any]:
    """``POST /sweep``: one named sweep over the shared session.

    ``{"kind": "sensitivity"|"corners"|"trends"|"schemes", ...}`` with
    kind-specific parameters (``device``, ``variation``, ``vendor``,
    ``io_width``, ``nodes``) plus the uniform execution option
    ``backend`` (default ``"auto"``, which folds batchable sweep
    families through the columnar vector kernel when numpy is
    installed — visible as the ``vector_*`` counters of
    ``GET /stats``; ``"vector"`` requests the kernel explicitly).
    Rows come in the analysis' own order (sensitivity by impact,
    schemes by saving), unlike the per-unit order of a stream.
    """
    kind, operation = sweep_operation(payload)
    request = operation.parse(payload)
    rows = _buffered_rows(session, operation, request)
    return dict(request.echo, rows=rows, kind=kind,
                backend_requested=request.backend)


def stats_payload(session: EvaluationSession) -> Dict[str, Any]:
    """The engine half of ``GET /stats``: one counter snapshot.

    The server wraps this with uptime and request counts; keeping the
    engine part here lets tests assert cache behaviour without HTTP.
    """
    return {"engine": engine_payload(session.stats)}


def engine_payload(stats: EngineStats) -> Dict[str, Any]:
    """One :class:`~repro.engine.EngineStats` as JSON, with its rates."""
    engine: Dict[str, Any] = dataclasses.asdict(stats)
    engine["hit_rate"] = stats.hit_rate
    engine["lookups"] = stats.lookups
    return engine


def sweep_kinds() -> List[str]:
    """The kinds ``POST /sweep`` understands, sorted."""
    return sorted(SWEEPS)
