"""Socket-free logic of the ``POST /trace`` endpoint.

Two request shapes share one streaming evaluator:

JSON mode (``Content-Type: application/json``)
    ``{"device": {...}, "text": "<trace lines>", "format": "k6",
    "clock": 1e9, "strict": false, "stream": true}`` — the trace rides
    inside the JSON body (subject to the service's normal body cap);
    the response is either one buffered result or NDJSON snapshots
    with ``"stream": true``.

Raw mode (any other content type)
    The body *is* the trace — arbitrarily long, optionally gzipped
    (``Content-Encoding: gzip``) and optionally chunk-framed
    (``Transfer-Encoding: chunked``).  Evaluation parameters travel in
    the query string (``/trace?format=k6&clock=1e9&node=55&...``); the
    response always streams NDJSON incremental aggregates.

Records mirror :mod:`repro.service.streaming` conventions:
``{"index": i, "snapshot": {...}}`` every ``snapshot_every`` commands,
``{"done": true, "count": n, "result": {...}}`` terminally, and
``{"index": i, "error": ..., "status": ...}`` for failures after the
stream started.  The evaluator is the same constant-memory
:class:`~repro.core.trace.TraceAccumulator` fold the library uses, so
an uploaded trace prices bit-for-bit identically to local one-shot
evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..core.trace import TraceAccumulator, TraceResult
from ..engine import EvaluationSession
from ..errors import ReproError, ServiceError
from ..trace import (DEFAULT_CLOCK, FORMATS, POLICIES, AddressDecoder,
                     ColumnarReplayer, columnar_available,
                     commands_from_records, iter_decompressed,
                     iter_line_batches, iter_lines, iter_records)
from ..trace.columnar import LINES_PER_BATCH, record_downgrade
from .admission import Deadline
from .jsonapi import _finite, device_from_payload

#: Commands between incremental snapshot records.
DEFAULT_SNAPSHOT_EVERY = 250_000

#: Snapshot cadence floor: each record is written while the upload is
#: still being consumed, so pathologically chatty cadences could fill
#: socket buffers against a client that only reads after sending.
MIN_SNAPSHOT_EVERY = 1_000

#: Query keys forwarded to the device builder in raw mode.
_DEVICE_QUERY_KEYS = ("node", "interface", "io_width", "datarate",
                      "density_bits")

#: Query keys interpreted by the trace evaluator itself.
_TRACE_QUERY_KEYS = ("format", "clock", "strict", "snapshot_every",
                     "policy", "channel_bits", "rank_bits",
                     "offset_bits", "backend")

#: Backends a streamed upload can ask for.  ``process`` is rejected:
#: a socket stream is consumed sequentially and cannot be re-read by
#: shard workers — file-scale sharded replays go through the CLI or
#: the durable ``trace`` job kind instead.
_STREAM_BACKENDS = ("auto", "serial", "vector")


@dataclass
class TraceRequest:
    """Validated parameters of one ``/trace`` evaluation."""

    device_payload: Dict[str, Any] = field(default_factory=dict)
    fmt: str = "k6"
    clock: float = DEFAULT_CLOCK
    strict: bool = False
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    policy: str = "row-bank-column"
    channel_bits: int = 0
    rank_bits: int = 0
    offset_bits: Optional[int] = None
    gzipped: bool = False
    backend: str = "auto"


def _parse_int(value: Any, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(f"'{name}' must be an integer") from None


def _parse_float(value: Any, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"'{name}' must be a number") from None


def _parse_bool(value: Any, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off", ""):
            return False
    raise ServiceError(f"'{name}' must be a boolean")


def _validate(request: TraceRequest) -> TraceRequest:
    if request.fmt not in FORMATS:
        raise ServiceError(
            f"unknown trace format {request.fmt!r}; choose from "
            + "/".join(sorted(FORMATS)))
    if request.policy not in POLICIES:
        raise ServiceError(
            f"unknown decode policy {request.policy!r}; choose from "
            + "/".join(POLICIES))
    if not request.clock > 0:
        raise ServiceError("'clock' must be positive Hz")
    if request.backend not in _STREAM_BACKENDS:
        raise ServiceError(
            f"unknown trace backend {request.backend!r}; choose from "
            + "/".join(_STREAM_BACKENDS)
            + " (sharded process replay needs a seekable file: use "
            "the CLI or a 'trace' job)")
    if request.backend == "vector" and request.strict:
        raise ServiceError(
            "the vector backend replays batched and cannot honour "
            "strict=true; use backend=serial for strict legality "
            "checking")
    request.snapshot_every = max(MIN_SNAPSHOT_EVERY,
                                 int(request.snapshot_every))
    return request


def parse_trace_query(query: Dict[str, List[str]]) -> TraceRequest:
    """Raw-mode parameters from a parsed query string."""
    flat = {key: values[-1] for key, values in query.items() if values}
    unknown = (set(flat) - set(_DEVICE_QUERY_KEYS)
               - set(_TRACE_QUERY_KEYS))
    if unknown:
        raise ServiceError(
            "unknown trace query keys: " + ", ".join(sorted(unknown))
            + "; known: " + ", ".join(_DEVICE_QUERY_KEYS
                                      + _TRACE_QUERY_KEYS))
    device: Dict[str, Any] = {}
    for key in _DEVICE_QUERY_KEYS:
        if key not in flat:
            continue
        if key in ("node", "io_width", "density_bits"):
            device[key] = _parse_int(flat[key], key)
        else:
            device[key] = flat[key]
    request = TraceRequest(device_payload=device)
    if "format" in flat:
        request.fmt = flat["format"]
    if "clock" in flat:
        request.clock = _parse_float(flat["clock"], "clock")
    if "strict" in flat:
        request.strict = _parse_bool(flat["strict"], "strict")
    if "snapshot_every" in flat:
        request.snapshot_every = _parse_int(flat["snapshot_every"],
                                            "snapshot_every")
    if "policy" in flat:
        request.policy = flat["policy"]
    for key in ("channel_bits", "rank_bits"):
        if key in flat:
            setattr(request, key, _parse_int(flat[key], key))
    if "offset_bits" in flat:
        request.offset_bits = _parse_int(flat["offset_bits"],
                                         "offset_bits")
    if "backend" in flat:
        request.backend = flat["backend"]
    return _validate(request)


def parse_trace_payload(payload: Any) -> Tuple[TraceRequest, str]:
    """JSON-mode parameters; returns ``(request, trace_text)``."""
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    if "device" not in payload:
        raise ServiceError("request needs a 'device' key")
    text = payload.get("text")
    if not isinstance(text, str) or not text:
        raise ServiceError(
            "request needs a non-empty 'text' key with trace lines "
            "(or upload the raw trace as the request body)")
    request = TraceRequest(device_payload=payload["device"])
    request.fmt = payload.get("format", "k6")
    if not isinstance(request.fmt, str):
        raise ServiceError("'format' must be a string")
    if "clock" in payload:
        request.clock = _parse_float(payload["clock"], "clock")
    if "strict" in payload:
        request.strict = _parse_bool(payload["strict"], "strict")
    if "snapshot_every" in payload:
        request.snapshot_every = _parse_int(payload["snapshot_every"],
                                            "snapshot_every")
    if "backend" in payload:
        request.backend = payload["backend"]
        if not isinstance(request.backend, str):
            raise ServiceError("'backend' must be a string")
    decoder = payload.get("decoder", {})
    if not isinstance(decoder, dict):
        raise ServiceError("'decoder' must be a JSON object")
    if "policy" in decoder:
        request.policy = decoder["policy"]
    for key in ("channel_bits", "rank_bits"):
        if key in decoder:
            setattr(request, key, _parse_int(decoder[key], key))
    if "offset_bits" in decoder:
        request.offset_bits = _parse_int(decoder["offset_bits"],
                                         "offset_bits")
    return _validate(request), text


# ----------------------------------------------------------------------
def trace_result_row(result: TraceResult,
                     commands: int) -> Dict[str, Any]:
    """The JSON shape of one trace aggregate (snapshot or final)."""
    return {
        "device": result.device_name,
        "commands": commands,
        "duration_s": result.duration,
        "energy_j": result.energy,
        "average_power_w": result.average_power,
        "average_current_a": result.average_current,
        "energy_per_bit_pj": _finite(result.energy_per_bit * 1e12),
        "data_bits": result.data_bits,
        "counts": {command.value: count
                   for command, count in result.counts.items()},
        "row_hits": result.row_hits,
        "row_misses": result.row_misses,
        "row_conflicts": result.row_conflicts,
        "row_hit_rate": result.row_hit_rate,
        "breakdown_j": result.breakdown.as_dict(),
    }


def _error_record(index: int, exc: Exception) -> Dict[str, Any]:
    status = exc.status if isinstance(exc, ServiceError) else 400
    record = {"index": index, "error": str(exc), "status": status}
    if (isinstance(exc, ServiceError)
            and exc.retry_after is not None):
        # Shedding-class failures after the stream started cannot
        # carry a Retry-After header; the hint rides in-band.
        record["retry_after"] = exc.retry_after
    return record


def trace_stream_records(session: EvaluationSession,
                         request: TraceRequest,
                         chunks: Iterable[bytes],
                         deadline: Optional[Deadline] = None
                         ) -> Iterator[Dict[str, Any]]:
    """NDJSON records for one streamed trace evaluation.

    Builds the model and decoder eagerly (malformed devices stay
    ordinary 400s), then returns a generator that folds the byte
    stream in ``snapshot_every``-command segments, yielding one
    snapshot record per full segment and a terminal ``done`` record.
    Failures after the first byte was consumed (malformed lines, blown
    deadlines) degrade to in-band error records.
    """
    device = device_from_payload(request.device_payload)
    model = session.model(device)
    decoder = AddressDecoder.from_device(
        device, policy=request.policy,
        channel_bits=request.channel_bits,
        rank_bits=request.rank_bits,
        offset_bits=request.offset_bits)

    def scalar_records(accumulator: TraceAccumulator,
                       lines: Iterator[str]
                       ) -> Iterator[Dict[str, Any]]:
        parsed = iter_records(lines, request.fmt, source="<upload>")
        commands = commands_from_records(parsed, decoder,
                                         request.clock)
        index = 0
        try:
            while True:
                seen = accumulator.commands_seen
                accumulator.feed(itertools.islice(
                    commands, request.snapshot_every))
                if deadline is not None:
                    deadline.check()
                consumed = accumulator.commands_seen - seen
                if consumed < request.snapshot_every:
                    break
                yield {"index": index,
                       "snapshot": trace_result_row(
                           accumulator.snapshot(),
                           accumulator.commands_seen)}
                index += 1
        except (ServiceError, ReproError, ValueError) as exc:
            yield _error_record(index, exc)
            return
        yield {"done": True, "count": accumulator.commands_seen,
               "result": trace_result_row(accumulator.result(),
                                          accumulator.commands_seen)}

    def columnar_records(accumulator: TraceAccumulator,
                         blocks: Iterable[bytes]
                         ) -> Iterator[Dict[str, Any]]:
        # One line yields at least one command, so batching
        # ``snapshot_every`` lines guarantees each full batch crosses
        # the snapshot cadence; the cap keeps batches array-sized.
        batch_lines = min(request.snapshot_every, LINES_PER_BATCH)
        index = 0
        last_snap = 0
        try:
            replayer = ColumnarReplayer(accumulator, request.fmt,
                                        decoder, request.clock,
                                        source="<upload>")
            for batch in iter_line_batches(blocks, batch_lines,
                                           source="<upload>"):
                replayer.feed_lines(batch)
                if deadline is not None:
                    deadline.check()
                if (len(batch) == batch_lines
                        and accumulator.commands_seen - last_snap
                        >= request.snapshot_every):
                    yield {"index": index,
                           "snapshot": trace_result_row(
                               accumulator.snapshot(),
                               accumulator.commands_seen)}
                    last_snap = accumulator.commands_seen
                    index += 1
        except (ServiceError, ReproError, ValueError) as exc:
            yield _error_record(index, exc)
            return
        yield {"done": True, "count": accumulator.commands_seen,
               "result": trace_result_row(accumulator.result(),
                                          accumulator.commands_seen)}

    def records() -> Iterator[Dict[str, Any]]:
        accumulator = TraceAccumulator(model, strict=request.strict)
        blocks = (iter_decompressed(chunks) if request.gzipped
                  else chunks)
        columnar = (request.backend in ("auto", "vector")
                    and not request.strict)
        if columnar and not columnar_available():
            record_downgrade()
            columnar = False
        if columnar:
            yield from columnar_records(accumulator, blocks)
        else:
            yield from scalar_records(
                accumulator, iter_lines(blocks, source="<upload>"))

    return records()


def trace_stream_payload(session: EvaluationSession, payload: Any,
                         deadline: Optional[Deadline] = None
                         ) -> Iterator[Dict[str, Any]]:
    """Streaming JSON-mode ``POST /trace``."""
    request, text = parse_trace_payload(payload)
    return trace_stream_records(session, request,
                                [text.encode("utf-8")],
                                deadline=deadline)


def trace_payload(session: EvaluationSession, payload: Any,
                  deadline: Optional[Deadline] = None
                  ) -> Dict[str, Any]:
    """Buffered JSON-mode ``POST /trace``: just the final aggregate."""
    final: Optional[Dict[str, Any]] = None
    for record in trace_stream_payload(session, payload,
                                       deadline=deadline):
        if "error" in record:
            status = record.get("status", 400)
            raise ServiceError(record["error"], status=status)
        if record.get("done"):
            final = record["result"]
    if final is None:  # pragma: no cover - defensive
        raise ServiceError("trace evaluation produced no result")
    return final
