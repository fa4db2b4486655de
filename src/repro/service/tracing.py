"""Socket-free logic of the ``POST /trace`` endpoint.

Two request shapes share one streaming evaluator:

JSON mode (``Content-Type: application/json``)
    ``{"device": {...}, "text": "<trace lines>", "format": "k6",
    "clock": 1e9, "stream": true}`` — the trace rides
    inside the JSON body (subject to the service's normal body cap);
    the response is either one buffered result or NDJSON snapshots
    with ``"stream": true``.

Raw mode (any other content type)
    The body *is* the trace — arbitrarily long, optionally gzipped
    (``Content-Encoding: gzip``) and optionally chunk-framed
    (``Transfer-Encoding: chunked``).  Evaluation parameters travel in
    the query string (``/trace?format=k6&clock=1e9&node=55&...``); the
    response always streams NDJSON incremental aggregates.

A true ``strict`` in either shape is a 400 with
:data:`~repro.trace.STRICT_REFUSAL`; a false one does nothing.
:func:`check_strict` reads it here and for the ``trace`` job kind.

Records go through the one framer of :mod:`repro.service.streaming`:
``{"index": i, "snapshot": {...}}`` every ``snapshot_every`` commands,
``{"done": true, "count": n, "result": {...}}`` terminally, and
``{"index": i, "error": ..., "status": ...}`` for failures after the
stream started.  The buffered JSON reply collects the same fold and
re-raises a failure as the original exception, so a blown deadline is
a counted 504.  The evaluator is the same constant-memory
:class:`~repro.core.trace.TraceAccumulator` fold the library uses, so
an uploaded trace prices bit-for-bit identically to local one-shot
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Tuple)

from ..core.trace import TraceAccumulator, TraceResult
from ..engine import EvaluationSession, resolve_backend
from ..errors import ReproError, ServiceError
from ..trace import (DEFAULT_CLOCK, FORMATS, POLICIES, STRICT_REFUSAL,
                     AddressDecoder, ColumnarReplayer, iter_decompressed,
                     iter_line_batches)
from ..trace.columnar import LINES_PER_BATCH
from .admission import Deadline
from .jsonapi import _finite, device_from_payload
from .streaming import frame

#: Commands between incremental snapshot records.
DEFAULT_SNAPSHOT_EVERY = 250_000

#: Snapshot cadence floor: each record is written while the upload is
#: still being consumed, so pathologically chatty cadences could fill
#: socket buffers against a client that only reads after sending.
MIN_SNAPSHOT_EVERY = 1_000

#: Query keys forwarded to the device builder in raw mode.
_DEVICE_QUERY_KEYS = ("node", "interface", "io_width", "datarate",
                      "density_bits")

#: Address-decoder keys: a JSON ``decoder`` object or the query.
_DECODER_KEYS = ("policy", "channel_bits", "rank_bits", "offset_bits")

#: Widest decoder bit field accepted from outside: decoding builds a
#: ``(1 << bits) - 1`` mask per field per record, so the cost of every
#: record grows with the count.
MAX_DECODER_BITS = 128

#: Query keys interpreted by the trace evaluator itself.
_TRACE_QUERY_KEYS = (("format", "clock", "strict", "snapshot_every")
                     + _DECODER_KEYS + ("backend",))


@dataclass
class TraceRequest:
    """Validated parameters of one ``/trace`` evaluation."""

    device_payload: Dict[str, Any] = field(default_factory=dict)
    fmt: str = "k6"
    clock: float = DEFAULT_CLOCK
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    policy: str = "row-bank-column"
    channel_bits: int = 0
    rank_bits: int = 0
    offset_bits: Optional[int] = None
    gzipped: bool = False
    backend: str = "auto"


def _parse_number(value: Any, name: str, kind: type = int) -> Any:
    try:
        return kind(value)
    except (TypeError, ValueError):
        wants = "an integer" if kind is int else "a number"
        raise ServiceError(f"'{name}' must be {wants}") from None


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


def check_strict(fields: Mapping[str, Any]) -> None:
    """Refuse a true ``strict`` in ``fields`` with
    :data:`~repro.trace.STRICT_REFUSAL`; a false one does nothing.

    The one reader of the key for ``/trace`` (query string and JSON)
    and ``trace`` job submits: a boolean, or text read as one
    (``1/true/yes/on``, ``0/false/no/off`` or empty); any other value,
    JSON ``0`` and ``null`` included, is a 400 naming the key.
    """
    if "strict" in fields and _parse_bool(fields["strict"], "strict"):
        raise ServiceError(STRICT_REFUSAL)


def decoder_params(fields: Any) -> Dict[str, Any]:
    """Validated :class:`~repro.trace.AddressDecoder` keywords.

    ``fields`` is a JSON ``decoder`` object or the flat query string,
    whose values arrive as text and are read as base-10 integers.
    Every bit count must be an integer from 0 to
    :data:`MAX_DECODER_BITS`: ``2.5``, ``-1`` or ``129`` is a 400,
    never truncated or left for the decoder to refuse.
    """
    if not isinstance(fields, dict):
        raise ServiceError("'decoder' must be a JSON object")
    policy = fields.get("policy", "row-bank-column")
    if policy not in POLICIES:
        raise ServiceError(
            f"unknown decode policy {policy!r}; choose from "
            + "/".join(POLICIES))
    kwargs: Dict[str, Any] = {"policy": policy}
    for key in _DECODER_KEYS[1:]:
        if key not in fields:
            continue
        value = fields[key]
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass  # refused below
        if (isinstance(value, bool) or not isinstance(value, int)
                or not 0 <= value <= MAX_DECODER_BITS):
            raise ServiceError(f"'{key}' must be an integer from 0 "
                               f"to {MAX_DECODER_BITS}")
        kwargs[key] = value
    return kwargs


def _parse(request: TraceRequest, fields: Dict[str, Any],
           decoder: Dict[str, Any]) -> TraceRequest:
    """Fill ``request`` from JSON fields or query text, validated."""
    for key in ("format", "backend"):
        if not isinstance(fields.get(key, ""), str):
            raise ServiceError(f"'{key}' must be a string")
    request.fmt = fields.get("format", request.fmt)
    request.backend = fields.get("backend", request.backend)
    if "clock" in fields:
        request.clock = _parse_number(fields["clock"], "clock", float)
    check_strict(fields)
    if "snapshot_every" in fields:
        request.snapshot_every = _parse_number(
            fields["snapshot_every"], "snapshot_every")
    if request.fmt not in FORMATS:
        raise ServiceError(
            f"unknown trace format {request.fmt!r}; choose from "
            + "/".join(sorted(FORMATS)))
    for key, value in decoder_params(decoder).items():
        setattr(request, key, value)
    if not 0 < request.clock < math.inf:
        raise ServiceError("'clock' must be positive, finite Hz")
    try:
        resolve_backend(request.backend)
    except ReproError as exc:
        raise ServiceError(str(exc)) from None
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
            device[key] = _parse_number(flat[key], key)
        else:
            device[key] = flat[key]
    return _parse(TraceRequest(device_payload=device), flat,
                  {key: flat[key] for key in _DECODER_KEYS if key in flat})


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
    return _parse(request, payload, payload.get("decoder", {})), text


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


def _trace_fold(session: EvaluationSession, request: TraceRequest,
                chunks: Iterable[bytes], deadline: Optional[Deadline]
                ) -> Tuple[Iterator[Tuple[str, Dict[str, Any]]],
                           Callable[[int], Dict[str, Any]]]:
    """The trace operation: ``(snapshot items, done record)``.

    Builds the model, decoder and batch replayer eagerly (malformed
    devices stay ordinary 400s); the items fold the byte stream
    lazily, one snapshot after each full line batch that crosses the
    ``snapshot_every`` cadence, and raise on failure (malformed lines,
    blown deadlines).  Every backend feeds the same batches, so a
    stream emits the same records on each.
    """
    device = device_from_payload(request.device_payload)
    accumulator = TraceAccumulator(session.model(device), strict=False)
    decoder = AddressDecoder.from_device(
        device, policy=request.policy,
        channel_bits=request.channel_bits,
        rank_bits=request.rank_bits,
        offset_bits=request.offset_bits)
    replayer = ColumnarReplayer(
        accumulator, request.fmt, decoder, request.clock,
        source="<upload>", backend=request.backend)
    # One line yields at least one command, so batching
    # ``snapshot_every`` lines guarantees each full batch crosses the
    # snapshot cadence; the cap keeps batches array-sized.
    batch_lines = min(request.snapshot_every, LINES_PER_BATCH)

    def items() -> Iterator[Tuple[str, Dict[str, Any]]]:
        blocks = (iter_decompressed(chunks) if request.gzipped
                  else chunks)
        last_snap = 0
        for batch in iter_line_batches(blocks, batch_lines,
                                       source="<upload>"):
            replayer.feed_lines(batch)
            if deadline is not None:
                deadline.check()
            if (len(batch) == batch_lines
                    and accumulator.commands_seen - last_snap
                    >= request.snapshot_every):
                last_snap = accumulator.commands_seen
                yield "snapshot", trace_result_row(
                    accumulator.snapshot(), accumulator.commands_seen)

    def done(_records: int) -> Dict[str, Any]:
        return {"done": True, "count": accumulator.commands_seen,
                "result": trace_result_row(accumulator.result(),
                                           accumulator.commands_seen)}

    return items(), done


def trace_stream_records(session: EvaluationSession,
                         request: TraceRequest,
                         chunks: Iterable[bytes],
                         deadline: Optional[Deadline] = None
                         ) -> Iterator[Dict[str, Any]]:
    """NDJSON records for one streamed trace evaluation.

    Snapshot records while the fold runs, then the terminal ``done``
    record; failures after the first byte was consumed degrade to an
    in-band error record (see :func:`~repro.service.streaming.frame`).
    """
    return frame(*_trace_fold(session, request, chunks, deadline))


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
    """Buffered JSON-mode ``POST /trace``: just the final aggregate.

    Collects the same fold as the stream.  A failure re-raises: a
    :class:`ServiceError` as itself (a blown deadline stays a counted
    504), anything else as a 400.
    """
    request, text = parse_trace_payload(payload)
    items, done = _trace_fold(session, request, [text.encode("utf-8")],
                              deadline)
    try:
        for _ in items:
            pass
    except ServiceError:
        raise
    except (ReproError, ValueError, TypeError) as exc:
        raise ServiceError(str(exc)) from exc
    return done(0)["result"]
