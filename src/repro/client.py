"""Resilient HTTP client for the warm evaluation service.

A stdlib-only wrapper over the service endpoints
(:mod:`repro.service`), used by the test suite, the CI smokes and any
tool that wants cross-request model reuse without importing the model
itself::

    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    client.wait_until_ready()
    result = client.evaluate(device={"node": 55})["results"][0]
    print(result["power_w"], result["energy_per_bit_pj"])

Every failure — transport, HTTP status, server-side model error —
surfaces as one exception type, :class:`~repro.errors.ServiceError`,
whose ``status`` attribute carries the HTTP code (``0`` when the
service could not be reached at all) and whose ``retry_after``
attribute carries the server's backoff hint when one was sent.

Transport: the client speaks HTTP/1.1 itself, through the codec the
service also uses (:mod:`repro.wire`), over plain sockets: one
persistent keep-alive socket per thread (``connections_opened`` stays
at 1 across many sequential requests), each request sent in one
write, transparent gzip response decoding and optional ``api_key``
authentication.  :meth:`ServiceClient.evaluate_stream` and
:meth:`ServiceClient.sweep_stream` consume the chunked NDJSON
streaming mode record by record on a dedicated socket;
:meth:`ServiceClient.trace_stream` uploads external memory traces
(files, blobs or chunk iterables, gzip forwarded as-is) with chunked
transfer encoding and yields the server's incremental aggregates.

Resilience: every evaluation request is a pure computation, so
retrying is always safe.  The client retries retryable failures
(connection errors and the service's load-shedding ``429``/``503``)
with **exponential backoff and full jitter**, honouring the server's
``Retry-After`` hint as a lower bound; a per-call ``deadline`` caps
the total time spent across attempts.  A small **circuit breaker**
counts consecutive transport/5xx failures, fails fast
(:class:`~repro.errors.CircuitOpenError`) once the threshold is hit,
and half-opens after a cooldown to let one probe through.  The
timing sources (``sleep``, ``clock``, ``rng``) are injectable so all
of this is unit-testable without waiting.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator,
                    Optional, Tuple)
from urllib.parse import urlencode, urlsplit

from . import wire
from .errors import (CircuitOpenError, JobError, JobNotFound,
                     ServiceError)

#: Statuses worth retrying: the service's load-shedding replies.
RETRYABLE_STATUSES = frozenset({429, 503})

#: Wire-protocol header name, mirroring ``repro.service.auth`` —
#: duplicated here so importing the thin client never drags the whole
#: model stack in.
API_KEY_HEADER = "X-Api-Key"


class _Connection:
    """One socket to the service and the buffered reader over it."""

    def __init__(self, address: Tuple[str, int], timeout: float):
        self.sock: Optional[socket.socket] = socket.create_connection(
            address, timeout)
        # Requests are small back-to-back writes; without TCP_NODELAY,
        # Nagle pairs with the peer's delayed ACK into ~40 ms stalls on
        # reused connections.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def read_reply(self) -> Tuple[int, wire.Headers, Iterator[bytes]]:
        """``(status, headers, body pieces)`` of the next reply.

        The body is framed by ``Content-Length`` or chunked; any other
        framing, like a malformed head, raises :class:`ServiceError`.
        """
        start_line, headers = wire.read_head(self.rfile)
        words = start_line.split(None, 2)
        if (len(words) < 2 or not words[0].startswith("HTTP/")
                or len(words[1]) != 3 or not words[1].isdigit()):
            raise ServiceError(f"malformed status line {start_line!r}")
        body = wire.iter_body(self.rfile, wire.body_length(headers))
        return int(words[1]), headers, body

    def close(self) -> None:
        """Idempotently close the reader and the socket."""
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None


def _trace_body(source: Any, gzipped: Optional[bool]
                ) -> Tuple[Iterable[bytes], bool]:
    """``(byte-chunk iterable, is_gzipped)`` for a trace upload.

    Paths stream from disk in 64 KiB chunks; blobs upload as one
    chunk; any other iterable passes through.  Gzip is sniffed from
    the magic bytes (or ``.gz`` suffix) unless ``gzipped`` says."""
    if isinstance(source, (str, os.PathLike)):
        if gzipped is None:
            with open(source, "rb") as handle:
                gzipped = handle.read(2) == b"\x1f\x8b"

        def file_chunks() -> Iterator[bytes]:
            with open(source, "rb") as handle:
                while True:
                    chunk = handle.read(65536)
                    if not chunk:
                        return
                    yield chunk

        return file_chunks(), bool(gzipped)
    if isinstance(source, (bytes, bytearray)):
        blob = bytes(source)
        if gzipped is None:
            gzipped = blob[:2] == b"\x1f\x8b"
        return [blob], bool(gzipped)
    return source, bool(gzipped)


def _evaluate_body(device: Optional[Any], devices: Optional[Iterable[Any]],
                   pattern: Optional[str]) -> Dict[str, Any]:
    """The ``/evaluate`` payload of ``evaluate``/``evaluate_stream``."""
    if (device is None) == (devices is None):
        raise ServiceError("pass exactly one of device= or devices=")
    payload: Dict[str, Any] = {}
    if device is not None:
        payload["device"] = device
    if devices is not None:
        payload["devices"] = list(devices)
    if pattern is not None:
        payload["pattern"] = pattern
    return payload


def _sweep_body(kind: str, device: Optional[Any],
                backend: Optional[str],
                params: Dict[str, Any]) -> Dict[str, Any]:
    """The ``/sweep`` payload of ``sweep``/``sweep_stream``."""
    payload: Dict[str, Any] = dict(params)
    payload["kind"] = kind
    if device is not None:
        payload["device"] = device
    if backend is not None:
        payload["backend"] = backend
    return payload


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """``Retry-After`` delay-seconds as a float; None when absent or
    in the (unsupported) HTTP-date form."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter across retryable failures.

    The delay before attempt ``n`` (1-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * multiplier**n)]`` — "full
    jitter", which decorrelates colliding clients far better than
    truncated or equal jitter — and is floored by the server's
    ``Retry-After`` hint when one was sent.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    retryable_statuses: FrozenSet[int] = RETRYABLE_STATUSES
    retry_connection_errors: bool = True

    def is_retryable(self, error: ServiceError) -> bool:
        if error.status == 0:
            return self.retry_connection_errors
        return error.status in self.retryable_statuses

    def backoff(self, attempt: int, retry_after: Optional[float],
                rng: random.Random) -> float:
        cap = min(self.max_delay,
                  self.base_delay * self.multiplier ** attempt)
        delay = rng.uniform(0.0, cap)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay


#: A policy that never retries — useful for probes and stress tests
#: that must observe raw statuses.
NO_RETRY = RetryPolicy(max_attempts=1)


class CircuitBreaker:
    """Fail fast after consecutive failures; half-open on cooldown.

    States: ``closed`` (normal), ``open`` (every call refused without
    touching the network), ``half-open`` (one probe allowed; success
    closes the circuit, failure re-opens it).  Only transport errors
    and server-side failures (status ``0`` or 5xx) count — a 400
    means the *request* was wrong, not the service, and a 429 means
    the service is healthy but shedding load (backoff handles that).
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if (self._probing
                or self._clock() - self._opened_at >= self.cooldown):
            return "half-open"
        return "open"

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """Whether a request may proceed right now."""
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe at a time
        if self._clock() - self._opened_at >= self.cooldown:
            self._probing = True  # half-open: let one probe through
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        self._probing = False
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()

    @staticmethod
    def counts(error: ServiceError) -> bool:
        """Whether ``error`` is a service failure (vs a client bug
        or healthy load shedding)."""
        return error.status == 0 or error.status >= 500


#: Sentinel distinguishing "default breaker" from "no breaker".
_DEFAULT = object()


class NDJSONStream:
    """Iterator over one streamed NDJSON response.

    Owns the dedicated (non-pooled) connection and closes it the
    moment the stream logically ends — the terminal ``done`` record,
    an in-band ``error`` record, EOF, or a transport failure — so an
    abandoned or error-terminated stream never lingers as an open
    socket waiting for garbage collection (and can never desync a
    pooled connection: streams don't use the pool at all).
    ``closed`` is observable for tests and callers.
    """

    def __init__(self, conn: _Connection, url: str,
                 body: Iterator[bytes]):
        self._conn = conn
        self._url = url
        self._body = body
        self._pending = b""
        self.closed = False

    def __iter__(self) -> "NDJSONStream":
        return self

    def _readline(self) -> bytes:
        """The next line of the body with its ``\\n``; ``b""`` at the
        end."""
        while b"\n" not in self._pending:
            piece = next(self._body, b"")
            if not piece:
                line, self._pending = self._pending, b""
                return line
            self._pending += piece
        cut = self._pending.index(b"\n") + 1
        line, self._pending = self._pending[:cut], self._pending[cut:]
        return line

    def __next__(self) -> Dict[str, Any]:
        if self.closed:
            raise StopIteration
        try:
            line = self._readline()
        except (ServiceError, OSError) as exc:
            self.close()
            raise ServiceError(
                f"stream from {self._url} broke: "
                f"{type(exc).__name__}: {exc}", status=0) from exc
        if not line:
            self.close()  # stream ended without a done record
            raise StopIteration
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self.close()
            raise ServiceError(
                f"invalid NDJSON from {self._url}: {exc}",
                status=0) from exc
        if not isinstance(record, dict) or record.get("done") \
                or "error" in record:
            self.close()
        return record

    def close(self) -> None:
        """Idempotently release the dedicated connection."""
        if not self.closed:
            self.closed = True
            self._conn.close()


class ServiceClient:
    """One service endpoint, e.g. ``http://127.0.0.1:8080``.

    ``retry`` is a :class:`RetryPolicy` (pass :data:`NO_RETRY` to see
    raw statuses); ``breaker`` a :class:`CircuitBreaker` (``None``
    disables it); ``deadline`` a default per-call budget in seconds
    across all attempts.  ``sleep``/``clock``/``rng`` exist for
    deterministic tests.
    """

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Any = _DEFAULT,
                 deadline: Optional[float] = None,
                 api_key: Optional[str] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 rng: Optional[random.Random] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker() if breaker is _DEFAULT else breaker)
        self.deadline = deadline
        self.api_key = api_key
        self.last_ready_error: Optional[str] = None
        #: Connections dialled over this client's lifetime (all
        #: threads) — ``1`` after many keep-alive requests proves
        #: connection reuse is working.
        self.connections_opened = 0
        parts = urlsplit(self.base_url)
        self._address = (parts.hostname or "localhost", parts.port or 80)
        self._host = parts.netloc
        self._prefix = parts.path
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    def request(self, method: str, path: str,
                payload: Optional[Any] = None,
                request_timeout: Optional[float] = None,
                deadline: Optional[float] = None,
                retry: Optional[RetryPolicy] = None,
                use_breaker: bool = True) -> Dict[str, Any]:
        """One JSON call with retries; :class:`ServiceError` on failure.

        ``request_timeout`` is forwarded to the server as its
        ``X-Request-Timeout`` budget; ``deadline`` caps this call's
        total time across retries (defaults to the client-level
        deadline).  Evaluations are pure, so retrying is always safe.
        """
        policy = retry if retry is not None else self.retry
        budget = deadline if deadline is not None else self.deadline
        expires = (self._clock() + budget
                   if budget is not None else None)
        breaker = self.breaker if use_breaker else None
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for {self.base_url} after "
                    f"{breaker.consecutive_failures} consecutive "
                    f"failures; retry after "
                    f"{breaker.cooldown:.3g}s cooldown")
            try:
                reply = self._request_once(method, path, payload,
                                           request_timeout, expires)
            except ServiceError as error:
                failure = error
            else:
                if breaker is not None:
                    breaker.record_success()
                return reply
            if breaker is not None and CircuitBreaker.counts(failure):
                breaker.record_failure()
            attempt += 1
            if (not policy.is_retryable(failure)
                    or attempt >= policy.max_attempts):
                raise failure
            delay = policy.backoff(attempt, failure.retry_after,
                                   self._rng)
            if (expires is not None
                    and self._clock() + delay >= expires):
                raise ServiceError(
                    f"deadline exhausted after {attempt} attempts: "
                    f"{failure}", status=failure.status,
                    retry_after=failure.retry_after) from failure
            self._sleep(delay)

    def _build_headers(self, payload: Optional[Any],
                       request_timeout: Optional[float]
                       ) -> Tuple[Optional[bytes], Dict[str, str]]:
        body = None
        headers = {"Host": self._host,
                   "Accept": "application/json",
                   "Accept-Encoding": "gzip"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
            headers["Content-Length"] = str(len(body))
        if request_timeout is not None:
            headers["X-Request-Timeout"] = f"{request_timeout:g}"
        if self.api_key is not None:
            headers[API_KEY_HEADER] = self.api_key
        return body, headers

    def _request_timeout_budget(
            self, expires: Optional[float]) -> float:
        timeout = self.timeout
        if expires is not None:
            timeout = min(timeout,
                          max(1e-3, expires - self._clock()))
        return timeout

    # -- persistent connections (one per thread) -----------------------
    def _dial(self, timeout: float) -> _Connection:
        """A new socket to the service, counted in
        ``connections_opened``."""
        with self._counter_lock:
            self.connections_opened += 1
        return _Connection(self._address, timeout)

    def _connection(self, timeout: float) -> Tuple[_Connection, bool]:
        """This thread's pooled connection and whether it is fresh.

        Reused connections may have been closed server-side while
        idle; the caller resends once on a *stale* reuse but treats a
        fresh connection's failure as the service being down.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._dial(timeout)
            return conn, True
        conn.sock.settimeout(timeout)
        return conn, False

    def close(self) -> None:
        """Close this thread's pooled connection (idempotent)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    # ------------------------------------------------------------------
    def _roundtrip(self, method: str, path: str,
                   body: Optional[bytes], headers: Dict[str, str],
                   timeout: float
                   ) -> Tuple[int, wire.Headers, bytes]:
        """One exchange on this thread's keep-alive connection.

        The request goes out in one write.  Returns ``(status,
        headers, decoded body)``; raises a status-``0``
        :class:`ServiceError` on transport failure.  A stale reused
        connection (EOF or a reset before the first reply byte: the
        server closed it while idle) is reconnected and resent exactly
        once — evaluations are pure, so the resend is safe.
        """
        request = wire.write_head(f"{method} {self._prefix}{path} "
                                  "HTTP/1.1", headers)
        if body is not None:
            request += body
        for attempt in (0, 1):
            fresh, replied = True, False
            try:
                conn, fresh = self._connection(timeout)
                conn.sock.sendall(request)
                replied = bool(conn.rfile.peek(1))
                if not replied:
                    raise ConnectionResetError("closed before replying")
                status, reply_headers, pieces = conn.read_reply()
                data = b"".join(pieces)
            except (ServiceError, OSError) as exc:
                self.close()
                if (isinstance(exc, (BrokenPipeError, ConnectionResetError))
                        and not (fresh or replied or attempt)):
                    continue  # stale keep-alive socket: resend once
                raise ServiceError(
                    f"connection to {self.base_url} failed: "
                    f"{type(exc).__name__}: {exc}", status=0) from exc
            if reply_headers.get("Connection", "").lower() == "close":
                self.close()
            if reply_headers.get("Content-Encoding") == "gzip":
                data = gzip.decompress(data)
            return status, reply_headers, data
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str,
                      payload: Optional[Any],
                      request_timeout: Optional[float],
                      expires: Optional[float]) -> Dict[str, Any]:
        """One wire round-trip, no retries."""
        body, headers = self._build_headers(payload, request_timeout)
        status, reply_headers, data = self._roundtrip(
            method, path, body, headers,
            self._request_timeout_budget(expires))
        if status >= 400:
            raise ServiceError(
                self._error_detail(status, data), status=status,
                retry_after=_parse_retry_after(
                    reply_headers.get("Retry-After")))
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"invalid JSON from {self.base_url}{path}: {exc}",
                status=0) from exc

    @staticmethod
    def _error_detail(status: int, data: bytes) -> str:
        """The server's ``{"error": ...}`` message, or the bare code."""
        try:
            payload = json.loads(data.decode("utf-8"))
            return str(payload.get("error", payload))
        except Exception:
            return f"HTTP {status}"

    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness."""
        return self.request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats`` — engine counters + service bookkeeping."""
        return self.request("GET", "/stats")

    def evaluate(self, device: Optional[Any] = None,
                 devices: Optional[Iterable[Any]] = None,
                 pattern: Optional[str] = None,
                 request_timeout: Optional[float] = None
                 ) -> Dict[str, Any]:
        """``POST /evaluate`` for one device payload or a batch."""
        return self.request("POST", "/evaluate",
                            _evaluate_body(device, devices, pattern),
                            request_timeout=request_timeout)

    def sweep(self, kind: str, device: Optional[Any] = None,
              backend: Optional[str] = None,
              request_timeout: Optional[float] = None,
              **params: Any) -> Dict[str, Any]:
        """``POST /sweep`` — a named sweep with parameters."""
        return self.request("POST", "/sweep",
                            _sweep_body(kind, device, backend, params),
                            request_timeout=request_timeout)

    # ------------------------------------------------------------------
    def evaluate_stream(self, device: Optional[Any] = None,
                        devices: Optional[Iterable[Any]] = None,
                        pattern: Optional[str] = None,
                        request_timeout: Optional[float] = None
                        ) -> Iterator[Dict[str, Any]]:
        """Streaming ``POST /evaluate``: yields records as they land.

        Each record is ``{"index": i, "result": {...}}`` (or an
        ``{"error": ...}`` record for a device that failed
        mid-batch), ending with ``{"done": true, "count": n}`` — the
        first device's result arrives while the rest of the batch is
        still evaluating.
        """
        return self._stream("/evaluate",
                            _evaluate_body(device, devices, pattern),
                            request_timeout)

    def sweep_stream(self, kind: str, device: Optional[Any] = None,
                     backend: Optional[str] = None,
                     request_timeout: Optional[float] = None,
                     **params: Any) -> Iterator[Dict[str, Any]]:
        """Streaming ``POST /sweep``: one record per sweep row."""
        return self._stream("/sweep",
                            _sweep_body(kind, device, backend, params),
                            request_timeout)

    def _stream(self, path: str, payload: Dict[str, Any],
                request_timeout: Optional[float]) -> "NDJSONStream":
        """``payload`` as a streaming JSON ``POST`` (see
        :meth:`_open_stream`)."""
        body, headers = self._build_headers(dict(payload, stream=True),
                                            request_timeout)
        headers.pop("Accept-Encoding")  # streams are never compressed
        return self._open_stream(path, body, headers)

    def _open_stream(self, path: str, body: Any,
                     headers: Dict[str, str],
                     chunked: bool = False) -> "NDJSONStream":
        """POST on a dedicated connection; return its record stream.

        Streams bypass the pool (the connection is busy for the whole
        stream), the retry policy and the breaker: resending half a
        consumed stream is not safe to do silently.  A transport
        failure before the response raises a status-``0``
        :class:`ServiceError` from this call, an error status raises
        its :class:`ServiceError` from here too, and a connection lost
        mid-stream raises from the iterator.  ``chunked`` sends
        ``body`` (an iterable of byte chunks) chunk-framed.
        """
        url = self.base_url + path
        head = wire.write_head(f"POST {self._prefix}{path} HTTP/1.1",
                               headers)
        conn = None
        try:
            conn = self._dial(self.timeout)
            try:
                if not chunked:
                    conn.sock.sendall(head + body)
                else:
                    conn.sock.sendall(head)
                    for piece in body:
                        if piece:  # an empty chunk would end the body
                            conn.sock.sendall(wire.chunk(piece))
                    conn.sock.sendall(wire.chunk(b""))
            except (BrokenPipeError, ConnectionResetError):
                # The server may answer (a 400 for a bad query) and
                # close before reading the body; its reply is still
                # readable, so only a missing reply is status 0.
                pass
            status, reply_headers, pieces = conn.read_reply()
            data = b"".join(pieces) if status >= 400 else None
        except (ServiceError, OSError) as exc:
            if conn is not None:
                conn.close()
            raise ServiceError(
                f"POST {url} failed: {type(exc).__name__}: {exc}",
                status=0) from exc
        if data is not None:
            conn.close()
            raise ServiceError(
                self._error_detail(status, data), status=status,
                retry_after=_parse_retry_after(
                    reply_headers.get("Retry-After")))
        return NDJSONStream(conn, url, pieces)

    # ------------------------------------------------------------------
    def trace_stream(self, source: Any,
                     device: Optional[Dict[str, Any]] = None,
                     fmt: Optional[str] = None,
                     clock: Optional[float] = None,
                     snapshot_every: Optional[int] = None,
                     decoder: Optional[Dict[str, Any]] = None,
                     gzipped: Optional[bool] = None,
                     backend: Optional[str] = None,
                     request_timeout: Optional[float] = None
                     ) -> Iterator[Dict[str, Any]]:
        """Raw-mode ``POST /trace``: chunked upload, NDJSON records.

        ``source`` is a trace file path, a ``bytes`` blob, or any
        iterable of byte chunks; it is streamed to the server with
        ``Transfer-Encoding: chunked`` (constant memory on both
        sides).  Gzip is auto-detected for paths and blobs (pass
        ``gzipped`` to override) and forwarded compressed.  ``device``
        is a builder-key dict (``node``, ``io_width``, …), ``decoder``
        holds ``policy``/``channel_bits``/``rank_bits``/
        ``offset_bits``; all parameters travel in the query string.
        Yields ``{"index": i, "snapshot": {...}}`` records and a
        terminal ``{"done": true, "result": {...}}``.
        """
        query: Dict[str, Any] = dict(device or {})
        if fmt is not None:
            query["format"] = fmt
        if clock is not None:
            query["clock"] = f"{clock:g}"
        if snapshot_every is not None:
            query["snapshot_every"] = snapshot_every
        if backend is not None:
            query["backend"] = backend
        query.update(decoder or {})
        chunks, gzipped = _trace_body(source, gzipped)
        path = "/trace"
        if query:
            path += "?" + urlencode(query)
        _, headers = self._build_headers(None, request_timeout)
        headers["Content-Type"] = "application/octet-stream"
        headers["Transfer-Encoding"] = "chunked"
        if gzipped:
            headers["Content-Encoding"] = "gzip"
        return self._open_stream(path, chunks, headers, chunked=True)

    def trace(self, source: Any, **options: Any) -> Dict[str, Any]:
        """``POST /trace`` returning just the final aggregate.

        Same parameters as :meth:`trace_stream`; snapshot records are
        consumed and discarded, in-band error records raise
        :class:`ServiceError`.
        """
        final: Optional[Dict[str, Any]] = None
        stream = self.trace_stream(source, **options)
        try:
            for record in stream:
                if "error" in record:
                    raise ServiceError(
                        record["error"],
                        status=record.get("status", 400),
                        retry_after=record.get("retry_after"))
                if record.get("done"):
                    final = record.get("result")
        finally:
            stream.close()
        if final is None:
            raise ServiceError("trace stream ended without a result",
                               status=0)
        return final

    # ------------------------------------------------------------------
    def submit_job(self, kind: str,
                   params: Optional[Dict[str, Any]] = None,
                   chunk_size: Optional[int] = None,
                   idempotency_key: Optional[str] = None,
                   request_timeout: Optional[float] = None
                   ) -> "JobHandle":
        """``POST /jobs``: submit a durable job, get a handle.

        With an ``idempotency_key`` the submit is safe to retry (and
        is retried, through the normal policy): a repeat lands on
        the same job instead of starting a second campaign.
        """
        payload: Dict[str, Any] = {"kind": kind,
                                   "params": params or {}}
        if chunk_size is not None:
            payload["chunk_size"] = chunk_size
        if idempotency_key is not None:
            payload["idempotency_key"] = idempotency_key
        status = self.request("POST", "/jobs", payload,
                              request_timeout=request_timeout)
        return JobHandle(self, status["job"], submitted=status)

    def job(self, job_id: str) -> "JobHandle":
        """A handle to an already-submitted job (no request made)."""
        return JobHandle(self, job_id)

    # ------------------------------------------------------------------
    def wait_until_ready(self, timeout: float = 10.0,
                         interval: float = 0.05,
                         max_interval: float = 1.0) -> bool:
        """Poll ``/healthz`` until the service answers.

        Returns ``True`` as soon as a probe succeeds, ``False`` when
        ``timeout`` elapses first — the start-up handshake of the CI
        smokes and the subprocess tests.  Probes back off
        exponentially from ``interval`` up to ``max_interval`` (a
        start-up burst, then gentle polling), bypassing the retry
        policy and circuit breaker.  On failure
        :attr:`last_ready_error` says *how* the service was not ready:
        never reachable (connection refused) vs answering HTTP with an
        error.
        """
        deadline = self._clock() + timeout
        delay = max(interval, 1e-3)
        self.last_ready_error = None
        while True:
            try:
                self.request("GET", "/healthz", retry=NO_RETRY,
                             use_breaker=False)
                return True
            except ServiceError as error:
                if error.status == 0:
                    self.last_ready_error = (
                        f"no HTTP service reachable at "
                        f"{self.base_url}: {error}")
                else:
                    self.last_ready_error = (
                        f"service at {self.base_url} answered HTTP "
                        f"{error.status}: {error}")
            remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._sleep(min(delay, remaining))
            delay = min(delay * 2.0, max_interval)


# ----------------------------------------------------------------------
# Durable-job handle.
# ----------------------------------------------------------------------
#: Job states after which the status can no longer change.
JOB_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class JobHandle:
    """One durable job, addressed through a :class:`ServiceClient`.

    The handle is resume-aware: the job lives in the *service's*
    journal, not in this process, so a handle can be re-created from
    a bare job id after a client crash (``client.job(job_id)``) and
    :meth:`watch`/:meth:`result` keep polling straight through a
    service restart.  The error model distinguishes the two failure
    classes a poller must treat differently:

    * a ``404`` means the job id is *unknown* (expired via TTL GC or
      never submitted) — raised immediately as
      :class:`~repro.errors.JobNotFound`, never retried;
    * transport errors and shedding (status ``0``/``429``/``503``)
      are *transient* — a restarting fleet answers that way while it
      recovers the journal — so :meth:`watch` keeps polling them
      down, bounded by its own timeout.
    """

    def __init__(self, client: ServiceClient, job_id: str,
                 submitted: Optional[Dict[str, Any]] = None):
        self.client = client
        self.id = job_id
        #: The ``POST /jobs`` response when this handle was created
        #: by :meth:`ServiceClient.submit_job`, else ``None``.
        self.submitted = submitted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobHandle({self.id!r})"

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """``GET /jobs/<id>``: current state and chunk progress."""
        try:
            return self.client.request("GET", f"/jobs/{self.id}")
        except ServiceError as error:
            if error.status == 404:
                raise JobNotFound(
                    f"job {self.id!r} unknown at "
                    f"{self.client.base_url} (expired or never "
                    f"submitted)") from error
            raise

    def cancel(self) -> Dict[str, Any]:
        """``DELETE /jobs/<id>``: request cooperative cancellation."""
        try:
            return self.client.request("DELETE", f"/jobs/{self.id}")
        except ServiceError as error:
            if error.status == 404:
                raise JobNotFound(
                    f"job {self.id!r} unknown at "
                    f"{self.client.base_url}") from error
            raise

    # ------------------------------------------------------------------
    def watch(self, interval: float = 0.25,
              timeout: Optional[float] = None
              ) -> Iterator[Dict[str, Any]]:
        """Yield status payloads until the job reaches a terminal
        state.

        Transient poll failures (transport errors, ``429``/``503``
        shedding — the signature of a fleet restarting around a
        durable job) are absorbed and polling continues; ``timeout``
        bounds the *whole* watch, including such outages.  A ``404``
        escapes immediately as :class:`~repro.errors.JobNotFound`.
        """
        clock = self.client._clock
        expires = None if timeout is None else clock() + timeout
        while True:
            try:
                status = self.status()
            except JobNotFound:
                raise
            except ServiceError as error:
                if error.status not in (0, 429, 503):
                    raise
                if expires is not None and clock() >= expires:
                    raise
                self.client._sleep(interval)
                continue
            yield status
            if status.get("state") in JOB_TERMINAL_STATES:
                return
            if expires is not None and clock() >= expires:
                raise JobError(
                    f"watch timed out after {timeout:g}s; job "
                    f"{self.id!r} still {status.get('state')!r} at "
                    f"{status.get('chunks_done', 0)}/"
                    f"{status.get('chunks_total', '?')} chunks")
            self.client._sleep(interval)

    def wait(self, interval: float = 0.25,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until terminal; return the final status payload."""
        status: Dict[str, Any] = {}
        for status in self.watch(interval=interval, timeout=timeout):
            pass
        return status

    def result(self, interval: float = 0.25,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """The job's final result body, polling until it is durable.

        Raises :class:`~repro.errors.JobError` when the job ends
        ``failed`` (carrying the recorded error) or ``cancelled``,
        and :class:`~repro.errors.JobNotFound` when the id is
        unknown.
        """
        status = self.wait(interval=interval, timeout=timeout)
        state = status.get("state")
        if state == "failed":
            raise JobError(
                f"job {self.id!r} failed: "
                f"{status.get('error', 'unknown error')}")
        if state == "cancelled":
            raise JobError(f"job {self.id!r} was cancelled")
        payload = self.client.request("GET", f"/jobs/{self.id}/result")
        return payload["result"]
