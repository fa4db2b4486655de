"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  A traced run instead wraps the
public call of each layer (the :data:`TARGETS` table) at call or batch
granularity: every call becomes a span with a name, start, end, parent
span (a context variable) and request id (the id of the root span it
runs under).  Wrappers return the original result and re-raise the
original exception.  A function imported elsewhere with
``from ... import`` is replaced in every module that holds it, found by
identity, so the caller's own binding is timed too.

A layer's *self time* is its spans' duration minus the time covered by
their child spans.  Self times of all layers plus the time no span
covers (``other``) add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

#: ``(span id, request id)`` of the innermost open span on this thread.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None)

#: A recorded span: (layer, start, end, span id, parent id or 0,
#: request id, resumed).  ``resumed`` marks one ``next()`` of a
#: streamed result rather than a call.
Span = Tuple[str, float, float, int, int, int, bool]


@dataclass(frozen=True)
class Target:
    """One wrapped public call and the layer it is charged to."""

    layer: str
    module: str
    attr: str
    """A module attribute, or ``Class.method`` for a method."""
    stream: bool = False
    """Also time each ``next()`` of the returned iterator."""
    count_only: Optional[str] = None
    """Only count calls, under ``<layer>.<count_only>``; no span."""
    errors: Optional[str] = None
    """Count raised exceptions under ``<layer>.<errors>``."""
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
    """Extra counters: ``after(args, before(args))`` once it returns."""
    on_item: Optional[Callable[[Any], Dict[str, float]]] = None
    """Extra counters per streamed item."""
    everywhere: bool = True
    """Replace every module binding of the function, not just one."""


def _snapshots(record: Any) -> Dict[str, float]:
    return {"snapshots": 1} if "snapshot" in record else {}


def _feed_before(args: tuple) -> int:
    return args[0].commands_seen


def _feed_after(args: tuple, seen: int) -> Dict[str, float]:
    return {"commands": args[0].commands_seen - seen}


def _parse_after(args: tuple, _state: Any) -> Dict[str, float]:
    return {"lines": len(args[0])}


_ANALYSES = (
    ("repro.engine.session", "EvaluationSession.map"),
    ("repro.analysis.montecarlo", "monte_carlo"),
    ("repro.analysis.sensitivity", "sensitivity"),
    ("repro.analysis.trends", "generation_trend"),
    ("repro.schemes.evaluator", "compare_schemes"),
    ("repro.analysis.corners", "corner_sweep"),
    ("repro.analysis.verification", "verify_ddr2"),
    ("repro.analysis.verification", "verify_ddr3"),
)

#: The layer table (see README.md): which public call each layer owns.
TARGETS: Tuple[Target, ...] = (
    Target("description", "repro.description.dram",
           "DramDescription.scale_path"),
    Target("description", "repro.engine.variant", "Variant.apply"),
    Target("dsl", "repro.dsl", "loads"),
    Target("devices", "repro.devices.builder", "build_device"),
    Target("engine.fingerprint", "repro.engine.fingerprint",
           "fingerprint"),
    Target("engine.stages.keys", "repro.engine.stages", "stage_keys"),
    Target("engine.stages.keys", "repro.engine.stages",
           "chain_stage_key"),
    Target("engine.stages.geometry", "repro.floorplan.geometry",
           "FloorplanGeometry.__init__"),
    Target("engine.stages.capacitance", "repro.core.builder",
           "build_skeletons"),
    Target("engine.stages.charge", "repro.core.builder",
           "resolve_events"),
    Target("engine.stages.current", "repro.core.operations",
           "OperationEnergies.__init__"),
    Target("engine.stages.power", "repro.core.model",
           "DramPowerModel.pattern_power"),
    Target("engine.cache", "repro.engine.cache", "ModelCache.model"),
    Target("engine.vector.plan", "repro.engine.vector", "plan_batches"),
    Target("engine.vector.fold", "repro.engine.vector",
           "build_family_models"),
) + tuple(Target("analysis", module, attr) for module, attr in _ANALYSES
          ) + (
    Target("service.http", "repro.service.server",
           "ServiceHandler.do_POST"),
    Target("service.admission", "repro.service.admission",
           "AdmissionController.acquire", errors="shed"),
    Target("service.jsonapi", "repro.service.jsonapi",
           "parse_evaluate_request"),
    Target("service.jsonapi", "repro.service.jsonapi",
           "evaluate_payload"),
    Target("service.jsonapi", "repro.service.jsonapi", "sweep_payload"),
    Target("service.streaming", "repro.service.streaming",
           "sweep_stream", stream=True),
    Target("service.tracing", "repro.service.tracing",
           "trace_stream_records", stream=True, on_item=_snapshots),
    Target("client.wire", "repro.client", "ServiceClient.evaluate"),
    Target("client.wire", "repro.client", "ServiceClient.sweep"),
    Target("client.wire", "repro.client", "ServiceClient.sweep_stream",
           stream=True),
    Target("client.wire", "repro.client", "ServiceClient.trace_stream",
           stream=True),
    Target("trace.read", "repro.trace.columnar", "replay_lines_columnar"),
    Target("trace.parse", "repro.trace.columnar", "parse_columns",
           after=_parse_after),
    # The scalar parser re-run on a batch the fast path refused.
    Target("trace.parse", "repro.trace.columnar", "iter_records",
           count_only="fallback_batches", everywhere=False),
    Target("trace.fold", "repro.trace.columnar", "fold_columns"),
    Target("core.trace.absorb", "repro.core.trace",
           "TraceAccumulator.absorb_batch"),
    Target("core.trace.feed", "repro.core.trace", "TraceAccumulator.feed",
           before=_feed_before, after=_feed_after),
)

#: Every layer, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class Recorder:
    """In-memory span and counter store shared by every thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(request id, "<layer>.<counter>", amount)`` increments.
        self.counts: List[Tuple[int, str, float]] = []
        self._ids = itertools.count(1)

    def count(self, layer: str, extras: Dict[str, float],
              request: Optional[int] = None) -> None:
        if request is None:
            current = _CURRENT.get()
            request = current[1] if current is not None else 0
        for name, value in extras.items():
            self.counts.append((request, f"{layer}.{name}", value))

    def call(self, target: Target, fn: Callable, args: tuple,
             kwargs: dict, resumed: bool = False) -> Any:
        """Run ``fn`` inside one span charged to ``target.layer``."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        request = parent[1] if parent is not None else span_id
        token = _CURRENT.set((span_id, request))
        state = target.before(args) if target.before else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            if target.errors:
                self.count(target.layer, {target.errors: 1}, request)
            raise
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((target.layer, start, end, span_id,
                               parent[0] if parent is not None else 0,
                               request, resumed))
        if target.after is not None:
            self.count(target.layer, target.after(args, state), request)
        return result


class _TimedStream:
    """Iterator proxy timing each ``next()`` as a span."""

    def __init__(self, recorder: Recorder, target: Target,
                 iterator: Any) -> None:
        self._recorder = recorder
        self._target = target
        self._iterator = iterator

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self) -> Any:
        item = self._recorder.call(self._target, next, (self._iterator,),
                                   {}, resumed=True)
        if self._target.on_item is not None:
            self._recorder.count(self._target.layer,
                                 self._target.on_item(item))
        return item

    def __getattr__(self, name: str) -> Any:
        return getattr(self._iterator, name)


def _wrapper(recorder: Recorder, target: Target,
             original: Callable) -> Callable:
    if target.count_only:
        counted = {target.count_only: 1}

        @functools.wraps(original)
        def count(*args, **kwargs):
            recorder.count(target.layer, counted)
            return original(*args, **kwargs)
        return count

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = recorder.call(target, original, args, kwargs)
        if target.stream:
            return _TimedStream(recorder, target, result)
        return result
    return wrapper


def _holders(extra_modules: Iterable[str]) -> List[Any]:
    names = set(extra_modules) | {"__main__"}
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro.")
                 or name in names)]


def install(recorder: Recorder,
            extra_modules: Iterable[str] = ()) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` call; returns the undo function.

    Functions are replaced in every ``repro`` module (and in
    ``extra_modules``) whose namespace holds the original object.
    """
    undo: List[Tuple[Any, str, Any]] = []
    modules = {target.module: importlib.import_module(target.module)
               for target in TARGETS}
    holders = _holders(extra_modules)
    for target in TARGETS:
        module = modules[target.module]
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, _wrapper(recorder, target, original))
            continue
        original = getattr(module, method)
        wrapped = _wrapper(recorder, target, original)
        places = holders if target.everywhere else [module]
        for holder in places:
            for name, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, name, original))
                    setattr(holder, name, wrapped)

    def uninstall() -> None:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)
    return uninstall


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls": n, "self_s": s, "root_s": r}}``.

    ``root_s`` is the time of the layer's spans that have no parent —
    the part of the wall time this process's spans cover.
    """
    spans = list(spans)
    children: Dict[int, float] = {}
    for layer, start, end, _sid, parent, _req, _res in spans:
        if parent:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: Dict[str, Dict[str, float]] = {}
    for layer, start, end, sid, parent, _req, resumed in spans:
        entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                          "root_s": 0.0})
        duration = end - start
        entry["self_s"] += duration - children.get(sid, 0.0)
        if not resumed:
            entry["calls"] += 1
        if not parent:
            entry["root_s"] += duration
    return totals


def counter_totals(counts: Iterable[Tuple[int, str, float]],
                   requests: Optional[Set[int]] = None
                   ) -> Dict[str, float]:
    """Summed counters, optionally of the given requests only."""
    totals: Dict[str, float] = {}
    for request, name, value in counts:
        if requests is None or request in requests:
            totals[name] = totals.get(name, 0) + value
    return totals


def window_requests(spans: Iterable[Span], start: float,
                    end: float) -> Set[int]:
    """Ids of the requests whose root span began in ``[start, end]``.

    Processes on one host share the monotonic clock ``perf_counter``
    reads, so a server's spans can be cut to the client's window.
    """
    return {sid for _l, begin, _e, sid, parent, _r, _res in spans
            if not parent and start <= begin <= end}


#: Per-layer counters beyond ``calls``/``self_s``, with their units.
EXTRAS: Tuple[Tuple[str, str], ...] = (
    ("engine.cache.hit_rate", "ratio"),
    ("engine.stages.hit_rate", "ratio"),
    ("engine.vector.fold.builds", "count"),
    ("engine.vector.fold.fallbacks", "count"),
    ("service.admission.wait_s", "s"),
    ("service.admission.shed", "count"),
    ("service.result_cache.hit_rate", "ratio"),
    ("client.wire.wait_s", "s"),
    ("service.tracing.snapshots", "count"),
    ("trace.parse.lines", "count"),
    ("trace.parse.fallback_batches", "count"),
    ("core.trace.feed.commands", "count"),
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRAS)
    units["other.self_s"] = "s"
    units["tracing_overhead"] = "ratio"
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def engine_extras(engine: Dict[str, float]) -> Dict[str, float]:
    """Cache and kernel counters from ``EngineStats`` fields (summed
    over sessions, or a before/after delta of ``GET /stats``)."""
    get = lambda key: engine.get(key, 0)  # noqa: E731
    lookups = (get("hits") + get("disk_hits") + get("misses")
               + get("vector_builds"))
    return {
        "engine.cache.hit_rate": _ratio(get("hits") + get("disk_hits"),
                                        lookups),
        "engine.stages.hit_rate": _ratio(
            get("stage_hits"), get("stage_hits") + get("stage_misses")),
        "engine.vector.fold.builds": get("vector_builds"),
        "engine.vector.fold.fallbacks": get("vector_fallbacks"),
    }


def result_cache_extras(cache: Dict[str, float]) -> Dict[str, float]:
    """Hit rate of the service's ``/evaluate`` result cache."""
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    return {"service.result_cache.hit_rate": _ratio(hits, hits + misses)}


def layer_metrics(totals: Dict[str, Dict[str, float]],
                  counters: Dict[str, float],
                  wall_s: float) -> Dict[str, float]:
    """Every per-layer metric but ``tracing_overhead``.

    ``wall_s`` is the traced wall time (summed over connections when
    several run at once); ``other.self_s`` is the part no root span
    covers, so self times plus ``other`` add up to it.
    """
    metrics = {name: 0.0 for name in metric_units()}
    for layer, entry in totals.items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    metrics["service.admission.wait_s"] = \
        totals.get("service.admission", {}).get("self_s", 0.0)
    for name, value in counters.items():
        if name in metrics:
            metrics[name] = value
    metrics["other.self_s"] = wall_s - sum(
        entry["root_s"] for entry in totals.values())
    del metrics["tracing_overhead"]
    return metrics
