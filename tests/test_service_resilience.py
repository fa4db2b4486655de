"""Resilience layer of the service: shedding, deadlines, faults."""

import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.client import NO_RETRY, RetryPolicy, ServiceClient
from repro.errors import ServiceError
from repro.service import (AdmissionController, AdmissionShed, Deadline,
                           DeadlineExceeded, FaultInjector, FaultRule,
                           InjectedFault, ResultCache, ServiceLimits,
                           create_service)


def _start_service(limits):
    svc = create_service(host="127.0.0.1", port=0, limits=limits)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    return svc, thread


def _stop_service(svc, thread):
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _probe_client(svc, **kwargs):
    """A client that observes raw statuses: no retry, no breaker."""
    kwargs.setdefault("retry", NO_RETRY)
    kwargs.setdefault("breaker", None)
    return ServiceClient(f"http://127.0.0.1:{svc.server_port}",
                         **kwargs)


@pytest.fixture()
def tight_service():
    """capacity=1 slot, queue=1: the smallest sheddable server."""
    limits = ServiceLimits(max_inflight=1, max_queue=1,
                           queue_timeout=5.0, request_timeout=0.0,
                           retry_after=0.0)
    svc, thread = _start_service(limits)
    yield svc
    _stop_service(svc, thread)


def _spin_until(predicate, timeout=5.0):
    deadline = threading.Event()
    poll = 0.002
    waited = 0.0
    while not predicate():
        deadline.wait(poll)
        waited += poll
        assert waited < timeout, "condition never became true"


class TestLoadShedding:
    def test_exact_shed_mix_and_inflight_bound(self, tight_service):
        svc = tight_service
        gate = threading.Event()
        svc.faults = FaultInjector(hook=lambda path: gate.wait(10))
        outcomes = []
        lock = threading.Lock()

        def post():
            client = _probe_client(svc)
            try:
                client.evaluate(device={"node": 55})
                status, hint = 200, None
            except ServiceError as error:
                status, hint = error.status, error.retry_after
            with lock:
                outcomes.append((status, hint))

        threads = [threading.Thread(target=post) for _ in range(6)]
        for thread in threads:
            thread.start()
        # One admitted (blocked in the hook), one queued, four shed
        # with 429 — wait until the sheds have all been tallied, then
        # open the gate.
        _spin_until(lambda:
                    svc.admission.snapshot()["shed_busy"] == 4)
        snap = svc.admission.snapshot()
        assert snap["in_flight"] == 1
        assert snap["queued"] == 1
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        statuses = sorted(status for status, _ in outcomes)
        assert statuses == [200, 200, 429, 429, 429, 429]
        # The bound held: never more than one request evaluating.
        assert svc.admission.snapshot()["max_in_flight"] == 1
        # Shed replies carried the Retry-After hint (0 rounds to 0).
        for status, hint in outcomes:
            if status == 429:
                assert hint == 0.0

    def test_queue_wait_timeout_is_503(self):
        limits = ServiceLimits(max_inflight=1, max_queue=4,
                               queue_timeout=0.05,
                               request_timeout=0.0, retry_after=0.0)
        svc, thread = _start_service(limits)
        try:
            gate = threading.Event()
            svc.faults = FaultInjector(
                hook=lambda path: gate.wait(10))
            holder = threading.Thread(
                target=lambda: _probe_client(svc).evaluate(
                    device={"node": 55}))
            holder.start()
            _spin_until(lambda:
                        svc.admission.snapshot()["in_flight"] == 1)
            with pytest.raises(ServiceError) as failure:
                _probe_client(svc).evaluate(device={"node": 55})
            assert failure.value.status == 503
            assert "queue wait" in str(failure.value)
            gate.set()
            holder.join(timeout=10)
            assert svc.admission.snapshot()["shed_timeout"] == 1
        finally:
            gate.set()
            _stop_service(svc, thread)

    def test_drain_rejects_queued_completes_admitted(self):
        limits = ServiceLimits(max_inflight=1, max_queue=4,
                               queue_timeout=10.0,
                               request_timeout=0.0, retry_after=0.0)
        svc, thread = _start_service(limits)
        gate = threading.Event()
        svc.faults = FaultInjector(hook=lambda path: gate.wait(10))
        outcomes = {}

        def post(name):
            try:
                _probe_client(svc).evaluate(device={"node": 55})
                outcomes[name] = 200
            except ServiceError as error:
                outcomes[name] = error.status

        admitted = threading.Thread(target=post, args=("admitted",))
        admitted.start()
        _spin_until(lambda:
                    svc.admission.snapshot()["in_flight"] == 1)
        queued = threading.Thread(target=post, args=("queued",))
        queued.start()
        _spin_until(lambda:
                    svc.admission.snapshot()["queued"] == 1)
        # Drain: the queued request gets an orderly 503; the admitted
        # one (still blocked in the hook) must run to completion.
        stopper = threading.Thread(target=svc.shutdown)
        stopper.start()
        queued.join(timeout=10)
        assert outcomes["queued"] == 503
        gate.set()
        admitted.join(timeout=10)
        assert outcomes["admitted"] == 200
        stopper.join(timeout=10)
        svc.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert svc.admission.snapshot()["shed_draining"] >= 1


class TestDeadlines:
    def _slow_service(self, request_timeout, seconds=0.2,
                      path="/evaluate"):
        limits = ServiceLimits(request_timeout=request_timeout,
                               retry_after=0.0)
        svc, thread = _start_service(limits)
        svc.faults = FaultInjector(rules=[
            FaultRule(kind="latency", path=path, seconds=seconds)])
        return svc, thread

    def test_server_default_timeout_aborts_with_504(self):
        svc, thread = self._slow_service(request_timeout=0.05)
        try:
            client = _probe_client(svc)
            with pytest.raises(ServiceError) as failure:
                client.evaluate(device={"node": 55})
            assert failure.value.status == 504
            assert "budget" in str(failure.value)
            assert client.stats()["timeouts"] == 1
            # The shared session stayed consistent: the same request
            # succeeds once the fault stops firing.
            svc.faults = FaultInjector()
            assert client.evaluate(
                device={"node": 55})["count"] == 1
        finally:
            _stop_service(svc, thread)

    def test_header_extends_the_server_default(self):
        svc, thread = self._slow_service(request_timeout=0.05,
                                         seconds=0.1)
        try:
            reply = _probe_client(svc).evaluate(
                device={"node": 55}, request_timeout=10.0)
            assert reply["count"] == 1
        finally:
            _stop_service(svc, thread)

    def test_header_tightens_a_lenient_server(self):
        svc, thread = self._slow_service(request_timeout=30.0)
        try:
            with pytest.raises(ServiceError) as failure:
                _probe_client(svc).evaluate(device={"node": 55},
                                            request_timeout=0.05)
            assert failure.value.status == 504
        finally:
            _stop_service(svc, thread)

    def test_sweep_honours_the_deadline(self):
        svc, thread = self._slow_service(request_timeout=0.0,
                                         path="/sweep")
        try:
            with pytest.raises(ServiceError) as failure:
                _probe_client(svc).sweep("sensitivity",
                                         request_timeout=0.05)
            assert failure.value.status == 504
        finally:
            _stop_service(svc, thread)

    @pytest.mark.parametrize("header", ["abc", "-1", "0"])
    def test_invalid_timeout_header_is_400(self, header):
        limits = ServiceLimits(retry_after=0.0)
        svc, thread = _start_service(limits)
        try:
            url = (f"http://127.0.0.1:{svc.server_port}/evaluate")
            request = urllib.request.Request(
                url, data=b"{}", method="POST",
                headers={"Content-Type": "application/json",
                         "X-Request-Timeout": header})
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            assert failure.value.code == 400
        finally:
            _stop_service(svc, thread)


class TestBodyFraming:
    """Malformed HTTP framing is a client error, never a crash."""

    def _raw_post(self, svc, headers, body=b"", shut=False):
        with socket.create_connection(
                ("127.0.0.1", svc.server_port), timeout=10) as conn:
            lines = ["POST /evaluate HTTP/1.1",
                     "Host: 127.0.0.1",
                     "Content-Type: application/json"]
            lines += headers
            raw = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
            conn.sendall(raw + body)
            if shut:
                conn.shutdown(socket.SHUT_WR)
            reply = conn.recv(4096)
        return reply.split(b"\r\n", 1)[0]

    def test_truncated_body_is_400(self, tight_service):
        status = self._raw_post(tight_service,
                                ["Content-Length: 100"],
                                body=b'{"device":', shut=True)
        assert b"400" in status

    def test_negative_content_length_is_400(self, tight_service):
        status = self._raw_post(tight_service,
                                ["Content-Length: -5"])
        assert b"400" in status

    def test_non_numeric_content_length_is_400(self, tight_service):
        status = self._raw_post(tight_service,
                                ["Content-Length: ten"])
        assert b"400" in status

    def test_missing_body_is_400(self, tight_service):
        status = self._raw_post(tight_service, [])
        assert b"400" in status


class TestFaultInjector:
    def test_from_env_parses_rules(self):
        injector = FaultInjector.from_env(
            {"REPRO_FAULTS": '[{"kind": "latency", "seconds": 0.5,'
                             ' "path": "/evaluate", "times": 3}]'})
        assert injector.active
        rule = injector.rules[0]
        assert (rule.kind, rule.path, rule.times, rule.seconds) == \
            ("latency", "/evaluate", 3, 0.5)

    def test_from_env_unset_is_inert(self):
        assert not FaultInjector.from_env({}).active

    def test_malformed_env_is_inert_not_fatal(self):
        for bad in ("not json", '{"kind": "latency"}',
                    '[{"kind": "meteor"}]'):
            assert not FaultInjector.from_env(
                {"REPRO_FAULTS": bad}).active

    def test_times_counts_down_then_stops(self):
        slept = []
        injector = FaultInjector(
            rules=[FaultRule(kind="latency", times=2, seconds=0.1)],
            sleep=slept.append)
        for _ in range(4):
            injector.before_request("/evaluate")
        assert slept == [0.1, 0.1]
        assert injector.snapshot()["latency"] == 2

    def test_error_rule_raises_with_status(self):
        injector = FaultInjector(
            rules=[FaultRule(kind="error", status=502)])
        with pytest.raises(InjectedFault) as failure:
            injector.before_request("/evaluate")
        assert failure.value.status == 502

    def test_reset_rule_returns_verdict(self):
        injector = FaultInjector(rules=[FaultRule(kind="reset")])
        assert injector.before_request("/sweep") == "reset"

    def test_path_scoping(self):
        injector = FaultInjector(
            rules=[FaultRule(kind="error", path="/sweep")])
        assert injector.before_request("/evaluate") is None
        with pytest.raises(InjectedFault):
            injector.before_request("/sweep")


class TestResultCache:
    def test_lru_eviction_keeps_recent(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), {"n": 1})
        cache.put(("b",), {"n": 2})
        assert cache.get(("a",)) == {"n": 1}  # refresh "a"
        cache.put(("c",), {"n": 3})  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == {"n": 1}
        assert cache.get(("c",)) == {"n": 3}
        snap = cache.snapshot()
        assert snap["size"] == 2
        assert snap["hits"] == 3
        assert snap["misses"] == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(("a",), {"n": 1})
        assert cache.get(("a",)) is None
        assert not cache.enabled
        assert cache.snapshot()["misses"] == 0


class TestAdmissionControllerUnits:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)

    def test_admit_release_counters(self):
        controller = AdmissionController(capacity=2)
        controller.acquire()
        controller.acquire()
        snap = controller.snapshot()
        assert snap["in_flight"] == 2
        assert snap["admitted"] == 2
        assert snap["max_in_flight"] == 2
        controller.release()
        assert controller.snapshot()["in_flight"] == 1

    def test_queue_full_sheds_429(self):
        controller = AdmissionController(capacity=1, queue_limit=0)
        controller.acquire()
        with pytest.raises(AdmissionShed) as failure:
            controller.acquire()
        assert failure.value.status == 429
        assert controller.snapshot()["shed_busy"] == 1

    def test_queue_timeout_sheds_503(self):
        controller = AdmissionController(capacity=1, queue_limit=2,
                                         queue_timeout=0.02)
        controller.acquire()
        with pytest.raises(AdmissionShed) as failure:
            controller.acquire()
        assert failure.value.status == 503
        snap = controller.snapshot()
        assert snap["shed_timeout"] == 1
        assert snap["queued"] == 0

    def test_expired_deadline_beats_queue_timeout(self):
        controller = AdmissionController(capacity=1, queue_limit=2,
                                         queue_timeout=10.0)
        controller.acquire()
        with pytest.raises(DeadlineExceeded):
            controller.acquire(Deadline(-1.0))

    def test_drain_sheds_503_and_keeps_admitted(self):
        controller = AdmissionController(capacity=1)
        controller.acquire()
        controller.begin_drain()
        with pytest.raises(AdmissionShed) as failure:
            controller.acquire()
        assert failure.value.status == 503
        assert controller.snapshot()["draining"]
        controller.release()  # admitted work still finishes cleanly


class TestSaturationRecovery:
    def test_retrying_clients_all_succeed_within_bound(self):
        limits = ServiceLimits(max_inflight=2, max_queue=2,
                               queue_timeout=10.0,
                               request_timeout=0.0, retry_after=0.0)
        svc, thread = _start_service(limits)
        svc.faults = FaultInjector(rules=[
            FaultRule(kind="latency", path="/evaluate",
                      seconds=0.02)])
        try:
            policy = RetryPolicy(max_attempts=12, base_delay=0.01,
                                 max_delay=0.05)
            failures = []

            def hammer():
                client = ServiceClient(
                    f"http://127.0.0.1:{svc.server_port}",
                    retry=policy, breaker=None)
                try:
                    client.evaluate(device={"node": 55})
                except ServiceError as error:
                    failures.append(error)

            threads = [threading.Thread(target=hammer)
                       for _ in range(16)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=60)
            assert failures == []
            snap = svc.admission.snapshot()
            # The configured bound held through the whole storm...
            assert snap["max_in_flight"] <= 2
            # ...and the storm was real: load actually got shed and
            # retried its way through.
            assert snap["shed_busy"] > 0
            assert snap["admitted"] >= 16
        finally:
            _stop_service(svc, thread)


# ----------------------------------------------------------------------
# Retry-After coverage: every shed-class reply carries the hint.
# ----------------------------------------------------------------------
class TestRetryAfterEverywhere:
    """Every 429/503 — buffered or streamed, from any endpoint —
    tells the client when to come back.

    Buffered replies (and streamed requests rejected *before* the
    first record) carry the ``Retry-After`` header even when the
    error site supplied no explicit hint: the reply path defaults it
    from ``ServiceLimits.retry_after``.  Errors after a stream has
    started cannot grow a header, so the hint rides in-band in the
    error record.
    """

    TRACE_TEXT = "0x0 READ 0\n0x40 WRITE 10\n"

    def test_injected_sheds_carry_the_header(self):
        limits = ServiceLimits(retry_after=2.0)
        svc, thread = _start_service(limits)
        requests = [
            ("/evaluate", {"device": {"node": 55}}),
            ("/sweep", {"kind": "schemes"}),
            ("/trace", {"device": {"node": 55},
                        "text": self.TRACE_TEXT}),
        ]
        try:
            for path, payload in requests:
                for status in (429, 503):
                    svc.faults.rules.append(FaultRule(
                        kind="error", path=path, times=1,
                        status=status))
                    client = _probe_client(svc)
                    with pytest.raises(ServiceError) as caught:
                        client.request("POST", path, payload)
                    assert caught.value.status == status, path
                    assert caught.value.retry_after == 2.0, path
                    client.close()
        finally:
            _stop_service(svc, thread)

    def test_streamed_request_shed_before_start_has_header(self):
        limits = ServiceLimits(retry_after=1.0)
        svc, thread = _start_service(limits)
        try:
            for path, payload in (
                    ("/evaluate", {"device": {"node": 55},
                                   "stream": True}),
                    ("/sweep", {"kind": "schemes", "stream": True})):
                svc.faults.rules.append(FaultRule(
                    kind="error", path=path, times=1, status=503))
                client = _probe_client(svc)
                with pytest.raises(ServiceError) as caught:
                    client._stream(path, payload, None)
                assert caught.value.status == 503, path
                assert caught.value.retry_after == 1.0, path
                client.close()
        finally:
            _stop_service(svc, thread)

    def test_mid_stream_errors_carry_the_hint_in_band(self):
        # One error record serves every stream, /trace snapshots too.
        from repro.service.streaming import _error_record, frame

        shed = ServiceError("busy", status=503, retry_after=2.0)
        assert _error_record(3, shed)["retry_after"] == 2.0
        # Non-shed errors carry no hint: nothing to wait for.
        plain = ServiceError("bad device", status=400)
        assert "retry_after" not in _error_record(0, plain)

        def items():
            yield "snapshot", {}
            raise shed

        assert list(frame(items()))[-1] == {
            "index": 1, "error": "busy", "status": 503,
            "retry_after": 2.0}
