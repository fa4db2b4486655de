"""HTTP front end of the warm evaluation service.

A :class:`ThreadingHTTPServer` subclass that owns one long-lived
:class:`~repro.engine.session.EvaluationSession` shared by every
request thread (the model cache is thread-safe), so repeated queries
for equal descriptions are answered from memory across requests.

Lifecycle: :func:`create_service` binds the socket (port ``0`` picks
an ephemeral port — tests use this); :meth:`EvaluationService.run`
serves until SIGTERM/SIGINT, then *drains*: queued requests are
rejected (503), admitted requests finish (handler threads are
non-daemon and joined on close) while idle keep-alive connections are
closed so the join cannot hang on a silent peer.  Embedders that
cannot give up the main thread call
:meth:`serve_forever`/:meth:`shutdown` directly.

The protocol is HTTP/1.1 with persistent connections: every response
carries an exact ``Content-Length`` (or chunked framing for streams),
large JSON bodies are gzip-compressed when the client advertises
``Accept-Encoding: gzip``, and a POST that failed before its body was
consumed closes the connection rather than desynchronise the next
request on it.  Request heads and bodies are read, and reply heads
written, by :mod:`repro.wire`, the codec the client speaks too; the
stdlib keeps the connection loop and the request-line rules.
``{"stream": true}`` in an ``/evaluate`` or ``/sweep`` body switches
the response to chunked NDJSON records
(:mod:`repro.service.streaming`), one per finished device or sweep
row, so long batches deliver results as they complete.  JSON POSTs
dispatch through one route table (:data:`JSON_ROUTES`) onto the
operations of :mod:`repro.service.jsonapi`.
``POST /trace`` (:mod:`repro.service.tracing`) accepts external
memory traces — JSON-wrapped or as a raw, optionally gzipped and
chunk-framed body of unbounded length — and streams incremental
energy/power aggregates back while folding the upload in constant
memory.  ``/jobs`` (POST/GET/DELETE, enabled by ``jobs_dir``) fronts
the durable job layer (:mod:`repro.jobs`): long campaigns submitted
once, journaled at chunk granularity, resumable across crashes.

Scale-out hooks (used by :mod:`repro.service.prefork`): a pre-bound
``listen_socket`` (``SO_REUSEPORT``) can replace the usual bind; a
second *direct* server per worker can share the first's warm state
via ``shared_with``; and with a
:class:`~repro.service.routing.WorkerRegistry`,
``GET /stats?scope=cluster`` scatter-gathers every live worker's
counters over their direct ports into one fleet view.  Optional
API-key auth (:mod:`repro.service.auth`) guards everything but
``/healthz``.

Resilience (see :mod:`repro.service.admission`): POST endpoints pass
through an :class:`~repro.service.admission.AdmissionController` — a
bounded in-flight slot count plus a small wait queue — so a saturated
server sheds excess load with ``429``/``503`` and a ``Retry-After``
header instead of piling up work.  Every request gets a deadline
(``--request-timeout``; ``X-Request-Timeout`` header overrides per
request) enforced between model builds, replying ``504`` on a blown
budget.  ``/evaluate`` responses are additionally memoized in a small
LRU (:class:`~repro.service.jsonapi.ResultCache`).  A
:class:`~repro.service.faults.FaultInjector` (inert by default,
configured via the ``REPRO_FAULTS`` environment variable or assigned
by tests) can inject latency, errors and connection resets to prove
all of the above under fire.

The wire protocol is JSON in both directions; failures are JSON too
(``{"error": ...}`` with a 4xx/5xx status) — a malformed request or a
model-layer error never terminates the daemon.
"""

from __future__ import annotations

import dataclasses
import gzip as gzip_module
import json
import logging
import re
import signal
import socket
import struct
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import wire
from ..client import NO_RETRY, ServiceClient
from ..engine import EngineStats, EvaluationSession, merge_stats
from ..engine.cache import DEFAULT_CAPACITY
from ..errors import ReproError, ServiceError
from .admission import (AdmissionController, AdmissionShed, Deadline,
                        DeadlineExceeded, DeadlineSession,
                        ServiceLimits)
from .auth import API_KEY_HEADER, ApiKeyAuth
from .faults import FaultInjector, InjectedFault
from .jsonapi import (ResultCache, engine_payload, evaluate_payload,
                      request_key, sweep_payload)
from .jsonapi import stats_payload as engine_stats_payload
from .routing import (RESULT_CACHE_SUM_KEYS, WORKER_HEADER,
                      WorkerRegistry, merge_admission,
                      merge_request_counts, sum_counter_dicts)
from .streaming import (STREAM_CONTENT_TYPE, evaluate_stream,
                        sweep_stream, wants_stream)
from .tracing import (parse_trace_query, trace_payload,
                      trace_stream_payload, trace_stream_records)

_LOG = logging.getLogger("repro.service")

#: Largest accepted request body; bigger posts are refused with 413
#: so one misbehaving client cannot balloon the daemon.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The version word of a request line, as the stdlib reads it: two
#: dot-separated numbers of at most 10 digits each.
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")

#: Per-request deadline override header (seconds, e.g. ``0.5``).
TIMEOUT_HEADER = "X-Request-Timeout"

#: Smallest JSON body worth gzip-compressing; tiny replies cost more
#: in header overhead than the compression saves.
GZIP_MIN_BYTES = 2048

#: Top-level service counters that sum meaningfully across workers.
SERVICE_SUM_KEYS = ("requests_total", "errors", "timeouts",
                    "streams", "stream_aborts", "gzipped",
                    "auth_failures")


def _encode(payload: Any) -> bytes:
    """A JSON reply body."""
    return json.dumps(payload).encode("utf-8")


def _evaluate(server, session, payload, deadline, stream):
    """``/evaluate``: the reply's encoded bytes, memoized in the result
    cache on :func:`request_key` and looked up before the body is
    parsed, so a repeat does no model work and encodes nothing.  Only
    successful replies are stored."""
    if stream:
        return evaluate_stream(session, payload)
    cache = server.result_cache
    if not cache.enabled:
        return _encode(evaluate_payload(session, payload))
    key = request_key(payload)
    blob = cache.get(key)
    if blob is None:
        blob = _encode(evaluate_payload(session, payload))
        cache.put(key, blob)
    return blob


def _sweep(server, session, payload, deadline, stream):
    return (sweep_stream if stream else sweep_payload)(session, payload)


def _trace(server, session, payload, deadline, stream):
    reply = trace_stream_payload if stream else trace_payload
    return reply(session, payload, deadline=deadline)


#: ``POST`` routes taking a JSON body: ``route(server, session,
#: payload, deadline, stream)`` returns the buffered reply (a JSON
#: value or its encoded bytes) or, with ``stream``, its NDJSON
#: records.  Each route names its functions as
#: module globals, resolved per request, so a wrapper installed on
#: them after import sees every call.  ``/trace`` also takes raw
#: uploads and ``/jobs`` submits; both are dispatched by ``_post``.
JSON_ROUTES = {"/evaluate": _evaluate, "/sweep": _sweep,
               "/trace": _trace}


class ServiceCounters:
    """Lock-guarded request tallies, shareable between twin servers.

    A pre-fork worker runs two :class:`EvaluationService` instances
    (shared port + private direct port) over one warm session; both
    must tally into the *same* counters for ``/stats`` to add up, so
    the counters live in this aliasable object rather than as plain
    integer attributes of either server.
    """

    #: Tallies besides the per-path request counts, named as in
    #: ``/stats``: answered errors, 504s, streams, streams cut short
    #: by the client, gzipped replies and refused API keys.
    TALLIES = ("errors", "timeouts", "streams", "stream_aborts",
               "gzipped", "auth_failures")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.request_counts: Dict[str, int] = {}
        for name in self.TALLIES:
            setattr(self, name, 0)

    def count(self, name: str) -> None:
        """Add one to the tally ``name``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)

    def count_request(self, path: str, status: int) -> None:
        """Tally one answered request (any status) per endpoint."""
        with self._lock:
            self.request_counts[path] = \
                self.request_counts.get(path, 0) + 1
            if status >= 400:
                self.errors += 1

    def snapshot(self) -> Dict[str, Any]:
        """All tallies at once, under one lock acquisition."""
        with self._lock:
            body: Dict[str, Any] = {"requests": dict(self.request_counts)}
            body.update((name, getattr(self, name))
                        for name in self.TALLIES)
            return body


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the server's shared session."""

    server_version = "repro-service/1.2"
    protocol_version = "HTTP/1.1"

    #: Socket timeout: an idle keep-alive connection is dropped after
    #: this many silent seconds (also bounds half-sent requests).
    timeout = 30.0

    #: TCP_NODELAY: a stream's header block and each of its chunks
    #: are separate writes, and on a reused keep-alive connection
    #: Nagle would hold the next one until the peer's delayed ACK
    #: (~40 ms).  A buffered reply is a single write.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Connection lifecycle: the server tracks live handlers so a
    # drain can close *idle* keep-alive connections instead of
    # waiting out their socket timeout in the non-daemon join.
    # ------------------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        self.busy = False
        self.server.track_handler(self)

    def finish(self) -> None:
        self.server.forget_handler(self)
        super().finish()

    def handle_one_request(self) -> None:
        if self.server.draining:
            self.close_connection = True
            return
        try:
            super().handle_one_request()
        finally:
            self.busy = False
        if self.server.draining:
            self.close_connection = True

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the head after it.

        The stdlib's rules for the request line: 400 for a bad line or
        version, 505 for HTTP/2 and up, HTTP/0.9 ``GET``, a leading
        ``//`` collapsed, the HTTP/1.0 and 1.1 keep-alive defaults,
        the ``Connection`` header and ``Expect: 100-continue``.  The
        header block is read by :func:`repro.wire.read_headers`, not
        the ``email`` parser, and the body framing once by
        :func:`repro.wire.body_length`; their refusals (431, 400) close
        the connection.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _VERSION.fullmatch(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            number = int(number[1]), int(number[2])
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # gh-87389: "//host/x" reads as a scheme-relative URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") \
            else path
        try:
            self.headers = wire.read_headers(self.rfile)
            self.body_length = wire.body_length(self.headers)
        except ServiceError as exc:
            self.send_error(exc.status, explain=str(exc))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (self.headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self.busy = True
        parts = urlsplit(self.path)
        path = parts.path
        if not self._authorized(path):
            return
        try:
            if self.server.faults.before_request(path) == "reset":
                self._abort_connection()
                return
            if path == "/healthz":
                self._reply(200, self.server.health_payload())
            elif path == "/stats":
                query = parse_qs(parts.query)
                scope = query.get("scope", ["local"])[-1]
                if scope == "cluster":
                    body = self.server.cluster_stats_payload()
                else:
                    body = self.server.stats_payload()
                self._reply(200, body)
            elif path == "/jobs" or path.startswith("/jobs/"):
                self._reply(200, self.server.job_payload(path))
            else:
                self._reply(404, {"error": f"unknown path {path!r}"})
        except InjectedFault as exc:
            self._reply(exc.status or 500, {"error": str(exc)})
        except ServiceError as exc:
            self._reply(exc.status or 400, {"error": str(exc)})

    def do_DELETE(self) -> None:
        self.busy = True
        path = urlsplit(self.path).path
        if not self._authorized(path):
            return
        try:
            if self.server.faults.before_request(path) == "reset":
                self._abort_connection()
                return
            parts = path.split("/")
            if (len(parts) == 3 and parts[1] == "jobs"
                    and parts[2]):
                self._reply(200, self.server.cancel_job(parts[2]))
            else:
                self._reply(404, {"error": f"unknown path {path!r}"})
        except ServiceError as exc:
            self._reply(exc.status or 400, {"error": str(exc)})

    def do_POST(self) -> None:
        self.busy = True
        path = urlsplit(self.path).path
        if not self._authorized(path):
            return
        if path not in JSON_ROUTES and path != "/jobs":
            self._reply(404, {"error": f"unknown path {path!r}"})
            return
        server = self.server
        try:
            deadline = self._request_deadline()
        except ServiceError as exc:
            self._reply(exc.status or 400, {"error": str(exc)})
            return
        try:
            server.admission.acquire(deadline)
        except AdmissionShed as exc:
            self._reply(exc.status, {"error": str(exc)},
                        retry_after=server.limits.retry_after)
            return
        except DeadlineExceeded as exc:
            server.counters.count("timeouts")
            self._reply(504, {"error": str(exc)})
            return
        try:
            try:
                if server.faults.before_request(path) == "reset":
                    self._abort_connection()
                    return
                body = self._post(path, deadline)
            finally:
                server.admission.release()
        except DeadlineExceeded as exc:
            server.counters.count("timeouts")
            self._reply(504, {"error": str(exc)})
        except ServiceError as exc:
            self._reply(exc.status or 400, {"error": str(exc)})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            _LOG.exception("unhandled error on %s", path)
            self._reply(500,
                        {"error": f"{type(exc).__name__}: {exc}"})
        else:
            if body is not None:
                self._reply(200, body)

    # ------------------------------------------------------------------
    def _post(self, path: str,
              deadline: Optional[Deadline]) -> Optional[Dict[str, Any]]:
        """Serve one admitted POST: the 200 body, or ``None`` once a
        stream has already answered."""
        server = self.server
        content_type = (self.headers.get("Content-Type") or "")
        content_type = content_type.split(";")[0].strip().lower()
        if path == "/trace" and content_type != "application/json":
            self._upload_trace(deadline)
            return None
        payload = self._read_json()
        if path == "/jobs":
            # Submission is cheap (validation only); the job itself
            # runs asynchronously on the manager.
            return server.submit_job(payload)
        session: EvaluationSession = server.session
        if deadline is not None:
            # A budget blown before evaluation even starts (slow
            # reads, injected latency) is a 504 even when the answer
            # would be memoized.
            deadline.check()
            session = DeadlineSession(session, deadline)
        stream = wants_stream(payload)
        if stream and self.request_version == "HTTP/1.0":
            raise ServiceError("streaming requires an HTTP/1.1 client")
        reply = JSON_ROUTES[path](server, session, payload, deadline,
                                  stream)
        if not stream:
            return reply
        self._stream_reply(path, reply)
        return None

    def _upload_trace(self, deadline: Optional[Deadline]) -> None:
        """Raw-mode ``POST /trace``: the body *is* the trace.

        Optionally gzipped and chunk-framed, exempt from
        ``MAX_BODY_BYTES`` because it is folded incrementally in
        constant memory, with parameters in the query string and an
        NDJSON snapshot stream as the only response shape.
        """
        server = self.server
        if self.request_version == "HTTP/1.0":
            raise ServiceError(
                "raw trace uploads require an HTTP/1.1 client")
        request = parse_trace_query(
            parse_qs(urlsplit(self.path).query))
        encoding = (self.headers.get("Content-Encoding")
                    or "").strip().lower()
        if encoding == "gzip":
            request.gzipped = True
        elif encoding:
            raise ServiceError(
                f"unsupported Content-Encoding {encoding!r}")
        if deadline is not None:
            deadline.check()
        records = trace_stream_records(server.session, request,
                                       self._iter_request_body(),
                                       deadline=deadline)
        # The response interleaves with body consumption; an in-band
        # error can leave unread body bytes, so never reuse the
        # connection after a raw upload.
        self.close_connection = True
        self._stream_reply("/trace", records)

    def _iter_request_body(self):
        """The request body as a lazy byte-chunk stream.

        Honors ``Transfer-Encoding: chunked`` (clients streaming a
        trace of unknown length) and plain ``Content-Length`` bodies;
        either way at most 64 KiB is resident at once.
        """
        return wire.iter_body(self.rfile, self.body_length)

    # ------------------------------------------------------------------
    def _authorized(self, path: str) -> bool:
        """Check the API key; reply ``401`` (and ``False``) if bad.

        ``/healthz`` stays open so liveness probes need no secret.
        The refusal closes the connection: a POST body may still be
        sitting unread on the socket, which would desynchronise the
        next request of a keep-alive connection.
        """
        auth = self.server.auth
        if auth is None or path == "/healthz":
            return True
        if auth.check(self.headers.get(API_KEY_HEADER)):
            return True
        self.server.counters.count("auth_failures")
        self.close_connection = True
        self._reply(401, {"error": "missing or invalid API key"})
        return False

    def _request_deadline(self) -> Optional[Deadline]:
        """The request's deadline: header override, server default,
        or ``None`` when timeouts are disabled."""
        budget = self.server.limits.request_timeout
        header = self.headers.get(TIMEOUT_HEADER)
        if header is not None:
            try:
                budget = float(header)
            except ValueError:
                raise ServiceError(
                    f"invalid {TIMEOUT_HEADER} header {header!r}: "
                    "expected seconds as a number") from None
            if not budget > 0.0:
                raise ServiceError(
                    f"{TIMEOUT_HEADER} must be positive seconds")
        if budget and budget > 0.0:
            return Deadline(budget)
        return None

    def _read_json(self) -> Any:
        length = self.body_length
        if not length or length == wire.CHUNKED:
            raise ServiceError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        raw = b"".join(wire.iter_sized_body(self.rfile, length))
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder's stack.
            raise ServiceError(f"invalid JSON body: {exc}") from exc

    def _accepts_gzip(self) -> bool:
        accept = self.headers.get("Accept-Encoding", "")
        return "gzip" in accept.lower()

    def _reply(self, status: int, payload: Any,
               retry_after: Optional[float] = None) -> None:
        """Send one buffered JSON reply, head and body in one write.

        ``payload`` is a JSON value or its encoded bytes (a result
        cache hit), sent as they are.
        """
        server = self.server
        if retry_after is None and status in (429, 503):
            # Every shedding-class reply carries the Retry-After
            # hint, whatever code path produced it (admission,
            # injected faults, disabled subsystems) — clients size
            # their backoff from it.
            retry_after = server.limits.retry_after
        # Tally before the body goes out: a client that sees this
        # response and immediately asks /stats must find the request
        # already counted.
        server.counters.count_request(urlsplit(self.path).path, status)
        blob = payload if isinstance(payload, bytes) else _encode(payload)
        gzipped = len(blob) >= GZIP_MIN_BYTES and self._accepts_gzip()
        if gzipped:
            # mtime=0 keeps the compressed bytes deterministic, so
            # equal answers from different workers stay bit-identical.
            blob = gzip_module.compress(blob, mtime=0)
            server.counters.count("gzipped")
        headers = {"Content-Type": "application/json",
                   "Content-Length": str(len(blob))}
        if gzipped:
            headers["Content-Encoding"] = "gzip"
            headers["Vary"] = "Accept-Encoding"
        if retry_after is not None:
            # RFC 7231 wants integral delay-seconds; round up so the
            # hint never understates the wait.
            headers["Retry-After"] = str(max(0, int(retry_after + 0.999)))
        if status >= 400 and self.command == "POST":
            # The request body may not have been consumed (shed, 401,
            # oversized post): reusing this connection would read the
            # leftover body as the next request line.
            self.close_connection = True
        try:
            self.wfile.write(self._head(status, headers) + blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing left to tell it

    def _head(self, status: int, headers: Dict[str, str]) -> bytes:
        """The reply head: the status line, ``Server`` and ``Date``,
        ``headers``, the worker id and, when this reply ends the
        connection, ``Connection: close``.  An HTTP/0.9 reply has no
        head."""
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            return b""
        fields = {"Server": self.version_string(),
                  "Date": self.date_time_string()}
        fields.update(headers)
        fields[WORKER_HEADER] = str(self.server.worker_id)
        if self.close_connection:
            fields["Connection"] = "close"
        reason = self.responses.get(status, ("",))[0]
        return wire.write_head(
            f"{self.protocol_version} {status} {reason}", fields)

    def _stream_reply(self, path: str, records: Any) -> None:
        """Send NDJSON records as they arrive, chunk-framed.

        Each record is one chunk, flushed immediately, so the client
        sees the first result while the rest of the batch is still
        evaluating.  A client that disconnects mid-stream just ends
        the stream (tallied in ``stream_aborts``).
        """
        server = self.server
        server.counters.count("streams")
        server.counters.count_request(path, 200)
        head = self._head(200, {"Content-Type": STREAM_CONTENT_TYPE,
                                "Transfer-Encoding": "chunked"})
        try:
            self.wfile.write(head)
            for record in records:
                self.wfile.write(wire.chunk(_encode(record) + b"\n"))
            self.wfile.write(wire.chunk(b""))  # the last chunk
        except (BrokenPipeError, ConnectionResetError, OSError):
            server.counters.count("stream_aborts")
            self.close_connection = True

    def _abort_connection(self) -> None:
        """Drop the connection without a response (injected reset)."""
        self.close_connection = True
        try:
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0))
        except OSError:  # pragma: no cover - platform-dependent
            pass
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs to ``logging`` instead of stderr."""
        _LOG.debug("%s %s", self.address_string(), format % args)


class EvaluationService(ThreadingHTTPServer):
    """A long-lived evaluation daemon holding one warm session."""

    #: Handler threads are joined on close so in-flight requests
    #: drain before the process exits (graceful SIGTERM semantics).
    daemon_threads = False
    block_on_close = True

    def __init__(self, address: Tuple[str, int] = ("127.0.0.1", 8080),
                 capacity: int = DEFAULT_CAPACITY,
                 limits: Optional[ServiceLimits] = None,
                 auth: Optional[ApiKeyAuth] = None,
                 worker_id: int = 0,
                 registry: Optional[WorkerRegistry] = None,
                 listen_socket: Optional[socket.socket] = None,
                 shared_with: Optional["EvaluationService"] = None,
                 jobs_dir: Optional[str] = None,
                 job_ttl: float = 3600.0):
        if listen_socket is None:
            super().__init__(address, ServiceHandler)
        else:
            # A pre-bound socket (SO_REUSEPORT sibling or inherited
            # from the pre-fork supervisor) replaces the usual bind.
            super().__init__(address, ServiceHandler,
                             bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
            self.server_name = socket.getfqdn(self.server_address[0])
            self.server_port = self.server_address[1]
            self.server_activate()
        self.auth = auth
        self.worker_id = worker_id
        self.registry = registry
        self.draining = False
        self._handlers_lock = threading.Lock()
        self._handlers: set = set()
        if shared_with is not None:
            # The direct twin of a pre-fork worker: same warm state,
            # same counters, different socket.
            self.session = shared_with.session
            self.limits = shared_with.limits
            self.admission = shared_with.admission
            self.result_cache = shared_with.result_cache
            self.faults = shared_with.faults
            self.counters = shared_with.counters
            self.started_monotonic = shared_with.started_monotonic
            self.started_unix = shared_with.started_unix
            self.jobs = shared_with.jobs
            self._owns_jobs = False
            return
        self.session = EvaluationSession(capacity=capacity)
        self.limits = limits if limits is not None else ServiceLimits()
        self.admission = AdmissionController(
            capacity=self.limits.max_inflight,
            queue_limit=self.limits.max_queue,
            queue_timeout=self.limits.queue_timeout)
        self.result_cache = ResultCache(self.limits.result_cache)
        self.faults = FaultInjector.from_env()
        self.counters = ServiceCounters()
        self.started_monotonic = time.monotonic()
        self.started_unix = time.time()
        # Durable jobs need a durable directory: enabled when the
        # caller names one, otherwise /jobs answers 503 rather than
        # journaling into a directory that vanishes with the process.
        self.jobs = None
        self._owns_jobs = False
        if jobs_dir is not None:
            # Imported lazily: repro.jobs itself imports service
            # submodules for payload formatting.
            from ..jobs.manager import JobManager
            self.jobs = JobManager(jobs_dir, session=self.session,
                                   worker_id=worker_id,
                                   faults=self.faults, ttl=job_ttl)
            self._owns_jobs = True
            self.jobs.start()

    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_monotonic

    def health_payload(self) -> Dict[str, Any]:
        return {"status": "ok",
                "uptime_seconds": self.uptime_seconds,
                "worker": self.worker_id}

    # ------------------------------------------------------------------
    # Durable jobs (POST/GET/DELETE /jobs — see docs/JOBS.md).
    # ------------------------------------------------------------------
    def _require_jobs(self):
        if self.jobs is None:
            raise ServiceError(
                "job subsystem disabled: start the service with "
                "--jobs-dir", status=503)
        return self.jobs

    def submit_job(self, payload: Any) -> Dict[str, Any]:
        """``POST /jobs``: validate, persist, kick the manager."""
        return self._require_jobs().submit(payload)

    def job_payload(self, path: str) -> Dict[str, Any]:
        """``GET /jobs`` (listing), ``/jobs/<id>`` (status and chunk
        progress), ``/jobs/<id>/result`` (the final result)."""
        jobs = self._require_jobs()
        parts = path.rstrip("/").split("/")
        if len(parts) == 2:
            listing = jobs.list_jobs()
            return {"count": len(listing), "jobs": listing}
        if len(parts) == 3:
            return jobs.status(parts[2])
        if len(parts) == 4 and parts[3] == "result":
            result = jobs.result(parts[2])
            if result is None:
                status = jobs.status(parts[2])
                raise ServiceError(
                    f"job {parts[2]!r} has no result (state "
                    f"{status.get('state')!r})", status=409)
            return {"job": parts[2], "result": result}
        raise ServiceError(f"unknown path {path!r}", status=404)

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /jobs/<id>``: cooperative cancellation."""
        return self._require_jobs().cancel(job_id)

    def stats_payload(self) -> Dict[str, Any]:
        """``GET /stats``: engine counters + service bookkeeping."""
        body = engine_stats_payload(self.session)
        tallies = self.counters.snapshot()
        body.update({
            "status": "ok",
            "scope": "local",
            "worker": self.worker_id,
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self.started_unix,
            "requests": tallies["requests"],
            "requests_total": sum(tallies.pop("requests").values()),
        })
        body.update(tallies)
        body.update({"admission": self.admission.snapshot(),
                     "result_cache": self.result_cache.snapshot()})
        if self.jobs is not None:
            body["jobs"] = self.jobs.counters()
        if self.faults.active:
            body["faults"] = self.faults.snapshot()
        return body

    def cluster_stats_payload(self) -> Dict[str, Any]:
        """``GET /stats?scope=cluster``: every live worker, merged.

        The answering worker fetches each registered sibling's local
        ``/stats`` over its direct port and sums what sums: engine
        counters merge through
        :func:`~repro.engine.cache.merge_stats` (fleet capacity is
        the sum of per-worker capacities), admission and result-cache
        counters add key-wise, per-path request counts add path-wise.
        Unreachable siblings are reported, not fatal.
        """
        local = self.stats_payload()
        if self.registry is None:
            body = dict(local)
            body["scope"] = "cluster"
            body["workers"] = [self.worker_id]
            body["workers_unreachable"] = []
            return body
        payloads: Dict[int, Dict[str, Any]] = {self.worker_id: local}
        unreachable: List[int] = []
        key = self.auth.any_key() if self.auth is not None else None
        for wid, entry in sorted(
                self.registry.entries().items()):
            if wid == self.worker_id:
                continue
            host = entry.get("direct_host", "127.0.0.1")
            sibling = ServiceClient(
                f"http://{host}:{entry['direct_port']}", timeout=2.0,
                retry=NO_RETRY, breaker=None, api_key=key)
            try:
                payloads[wid] = sibling.stats()
            except ServiceError:
                unreachable.append(wid)
            finally:
                sibling.close()
        ordered = [payloads[wid] for wid in sorted(payloads)]
        stats_list = [EngineStats.from_dict(body.get("engine", {}))
                      for body in ordered]
        merged = stats_list[0]
        for extra in stats_list[1:]:
            merged = merge_stats(merged, extra)
        merged = dataclasses.replace(
            merged,
            capacity=sum(stats.capacity for stats in stats_list))
        body = {
            "status": "ok",
            "scope": "cluster",
            "worker": self.worker_id,
            "workers": sorted(payloads),
            "workers_unreachable": unreachable,
            "uptime_seconds": self.uptime_seconds,
            "engine": engine_payload(merged),
            "requests": merge_request_counts(
                [b.get("requests", {}) for b in ordered]),
            "admission": merge_admission(
                [b.get("admission", {}) for b in ordered]),
            "result_cache": sum_counter_dicts(
                [b.get("result_cache", {}) for b in ordered],
                RESULT_CACHE_SUM_KEYS),
        }
        body.update(sum_counter_dicts(ordered, SERVICE_SUM_KEYS))
        return body

    # ------------------------------------------------------------------
    # Handler tracking: lets a drain close idle keep-alive
    # connections instead of waiting out their socket timeout.
    # ------------------------------------------------------------------
    def track_handler(self, handler: ServiceHandler) -> None:
        with self._handlers_lock:
            self._handlers.add(handler)

    def forget_handler(self, handler: ServiceHandler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def _close_idle_connections(self) -> None:
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            if getattr(handler, "busy", False):
                continue  # mid-request: let it finish and drain
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop serving: reject queued work, let admitted work finish.

        Draining *before* the serve loop stops means requests waiting
        for an in-flight slot get an orderly 503 + ``Retry-After``
        instead of a dead socket.  Idle persistent connections are
        then unblocked so the non-daemon handler join in
        ``server_close`` cannot hang on a silent keep-alive peer.
        """
        self.admission.begin_drain()
        self.draining = True
        super().shutdown()
        self._close_idle_connections()

    def server_close(self) -> None:
        """Close the socket and stop the owned job manager (if any).

        Runners finish (or suspend back to ``pending``) before the
        process exits, so a graceful stop never strands a claimed
        job in the ``running`` state.
        """
        if getattr(self, "_owns_jobs", False) and self.jobs is not None:
            self.jobs.stop()
            self._owns_jobs = False
        super().server_close()

    def request_shutdown(self) -> None:
        """Stop the serve loop; safe to call from any thread.

        ``shutdown()`` blocks until the loop exits, so calling it on
        the thread *running* ``serve_forever`` (e.g. a signal handler
        interrupting the main thread) would deadlock — it is
        dispatched to a helper thread instead.
        """
        threading.Thread(target=self.shutdown,
                         name="repro-service-shutdown",
                         daemon=True).start()

    def _handle_signal(self, signum: int, frame: Any) -> None:
        _LOG.info("signal %d received: draining and shutting down",
                  signum)
        self.request_shutdown()

    def run(self, install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT; drain, close, return.

        Installing signal handlers requires the main thread; pass
        ``install_signals=False`` when serving from a worker thread
        (tests) and use :meth:`shutdown` directly instead.
        """
        previous = {}
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum,
                                                 self._handle_signal)
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.server_close()
            for signum, handler in previous.items():
                signal.signal(signum, handler)


def create_service(host: str = "127.0.0.1", port: int = 8080,
                   capacity: int = DEFAULT_CAPACITY,
                   limits: Optional[ServiceLimits] = None,
                   auth: Optional[ApiKeyAuth] = None,
                   worker_id: int = 0,
                   registry: Optional[WorkerRegistry] = None,
                   listen_socket: Optional[socket.socket] = None,
                   jobs_dir: Optional[str] = None,
                   job_ttl: float = 3600.0
                   ) -> EvaluationService:
    """A bound, not-yet-serving service (``port=0`` = ephemeral).

    The caller decides how to serve: ``service.run()`` for the CLI
    (signals + drain), ``service.serve_forever()`` on a thread for
    tests and embedders.  ``service.server_port`` holds the bound
    port either way.  ``limits`` bounds concurrency, queueing and
    per-request time (:class:`~repro.service.admission.ServiceLimits`).
    The scale-out parameters (``worker_id``, ``registry``,
    ``listen_socket``) are wired by :mod:`repro.service.prefork`;
    single-process embedders can ignore them.
    """
    return EvaluationService((host, port), capacity=capacity,
                             limits=limits, auth=auth,
                             worker_id=worker_id, registry=registry,
                             listen_socket=listen_socket,
                             jobs_dir=jobs_dir, job_ttl=job_ttl)
