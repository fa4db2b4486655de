"""Chunked NDJSON streaming bodies for batch evaluation and sweeps.

A buffered ``POST /evaluate`` or ``POST /sweep`` holds its whole
response until the last device is done; for a long batch the client
stares at a silent socket.  With ``{"stream": true}`` in the request
body the server switches to chunked transfer encoding and emits one
newline-delimited JSON record per finished unit of work instead:

* ``{"index": i, "result": {...}}`` — one ``/evaluate`` device;
* ``{"index": i, "row": {...}}`` — one ``/sweep`` row;
* ``{"index": i, "error": "...", "status": 400}`` — a unit that
  failed after the stream started (the stream then ends);
* ``{"done": true, "count": n}`` — the terminal record.

A stream runs the same :class:`~repro.service.jsonapi.Operation` as
the buffered reply: the request is parsed — every parameter validated
— before the generator is returned, so a malformed request still gets
an ordinary JSON 400, and ``rows`` then runs once per unit, so the
first record arrives long before the sweep completes.  Rows are
bit-identical to the buffered reply's; only sensitivity and schemes
come in unit order instead of the buffered impact/saving order.

:func:`frame` is the one framer of every NDJSON stream, ``/trace``
snapshots included: it numbers the records and turns a failure into
the in-band error record.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

from ..engine import EvaluationSession
from ..errors import ReproError, ServiceError
from .jsonapi import (EVALUATE, Operation, parse_evaluate_request,
                      sweep_operation)

#: NDJSON content type of every streamed response.
STREAM_CONTENT_TYPE = "application/x-ndjson"


def wants_stream(payload: Any) -> bool:
    """Whether a request body opted into the streaming mode."""
    return isinstance(payload, dict) and payload.get("stream") is True


def _error_record(index: int, exc: Exception) -> Dict[str, Any]:
    """An in-band failure record for a unit that died mid-stream.

    Shedding-class failures (429/503) additionally carry their
    ``retry_after`` hint in-band, since chunked streams cannot grow
    a ``Retry-After`` header after the 200 went out.
    """
    status = exc.status if isinstance(exc, ServiceError) else 400
    record = {"index": index, "error": str(exc), "status": status}
    if (isinstance(exc, ServiceError)
            and exc.retry_after is not None):
        record["retry_after"] = exc.retry_after
    return record


def _done(count: int) -> Dict[str, Any]:
    return {"done": True, "count": count}


def frame(items: Iterable[Tuple[str, Any]],
          done: Callable[[int], Dict[str, Any]] = _done
          ) -> Iterator[Dict[str, Any]]:
    """NDJSON records of ``(key, value)`` items, then ``done(count)``.

    Record ``i`` is ``{"index": i, key: value}``.  A failure while
    producing an item ends the stream with one in-band error record
    at the index it would have had.
    """
    index = 0
    try:
        for key, value in items:
            yield {"index": index, key: value}
            index += 1
    except (ReproError, ValueError, TypeError) as exc:
        yield _error_record(index, exc)
        return
    yield done(index)


def operation_stream(session: EvaluationSession, operation: Operation,
                     request: Any) -> Iterator[Dict[str, Any]]:
    """The records of a parsed request, ``rows`` called per unit."""

    def items() -> Iterator[Tuple[str, Any]]:
        for unit in operation.units(request):
            for row in operation.rows(session, request, [unit]):
                yield operation.record, row

    return frame(items())


def evaluate_stream(session: EvaluationSession,
                    payload: Any) -> Iterator[Dict[str, Any]]:
    """Streaming ``POST /evaluate``: one record per device."""
    return operation_stream(session, EVALUATE,
                            parse_evaluate_request(payload))


def sweep_stream(session: EvaluationSession,
                 payload: Any) -> Iterator[Dict[str, Any]]:
    """Streaming ``POST /sweep``: one record per row, in unit order."""
    _, operation = sweep_operation(payload)
    return operation_stream(session, operation, operation.parse(payload))
