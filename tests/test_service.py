"""The warm evaluation service: endpoints, reuse, shutdown, client."""

import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.client import NO_RETRY, ServiceClient
from repro.description.jsonio import to_dict
from repro.devices import build_device
from repro.dsl import dumps
from repro.engine import EvaluationSession
from repro.errors import ServiceError
from repro.analysis.sensitivity import sensitivity
from repro.schemes import compare_schemes
from repro.service import create_service, jsonapi
from repro.service.faults import FaultInjector, FaultRule
from repro.service.jsonapi import (device_from_payload,
                                   evaluate_payload, sweep_kinds)


def _nested(depth):
    """A JSON body nested ``depth`` levels: two objects, then lists."""
    inner = "[" * (depth - 2) + "]" * (depth - 2)
    return ('{"device": {"x": ' + inner + "}}").encode()


@pytest.fixture()
def service():
    svc = create_service(host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.server_port}")


class TestHealthAndStats:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0.0

    def test_stats_shape(self, client):
        client.evaluate(device={"node": 55})
        body = client.stats()
        engine = body["engine"]
        for key in ("hits", "misses", "size", "capacity",
                    "build_seconds", "hit_rate", "lookups",
                    "vector_seconds"):
            assert key in engine, key
        assert not [key for key in engine if key.startswith("disk_")]
        assert "cache_dir" not in body
        assert body["requests"]["/evaluate"] == 1
        assert body["requests_total"] >= 1
        assert body["uptime_seconds"] > 0.0
        admission = body["admission"]
        for key in ("in_flight", "queued", "admitted", "shed_busy",
                    "shed_timeout", "shed_total", "max_in_flight",
                    "max_queued", "draining"):
            assert key in admission, key
        assert admission["admitted"] >= 1
        result_cache = body["result_cache"]
        for key in ("hits", "misses", "size", "capacity"):
            assert key in result_cache, key
        assert body["timeouts"] == 0

    def test_error_requests_are_counted(self, client):
        with pytest.raises(ServiceError):
            client.sweep("bogus")
        assert client.stats()["errors"] == 1


class TestEvaluate:
    def test_single_device_matches_library(self, client):
        result = client.evaluate(device={"node": 55})["results"][0]
        expected = EvaluationSession().evaluate(build_device(55))
        assert result["power_w"] == expected.power
        assert result["current_a"] == expected.current
        assert result["energy_per_bit_pj"] == \
            expected.energy_per_bit_pj
        assert result["operation_energy_pj"]["act"] > 0

    def test_batch_keeps_request_order(self, client):
        reply = client.evaluate(devices=[{"node": 55},
                                         {"node": 90}])
        assert reply["count"] == 2
        names = [entry["device"] for entry in reply["results"]]
        assert names == [build_device(55).name,
                         build_device(90).name]

    def test_pattern_override(self, client):
        result = client.evaluate(device={"node": 55},
                                 pattern="rd nop nop nop")
        assert "rd nop nop nop" in result["results"][0]["pattern"]

    def test_dsl_payload(self, client, ddr3_device):
        reply = client.evaluate(device={"dsl": dumps(ddr3_device)})
        assert reply["results"][0]["device"] == ddr3_device.name

    def test_json_payload(self, client, ddr3_device):
        reply = client.evaluate(
            device={"json": to_dict(ddr3_device)})
        assert reply["results"][0]["device"] == ddr3_device.name

    def test_second_identical_request_hits_warm_cache(self, client):
        first = client.evaluate(device={"node": 55})
        cold = client.stats()
        second = client.evaluate(device={"node": 55})
        warm = client.stats()
        # Answered from the memoized response: one more result-cache
        # hit, and the engine never even sees the repeat (no new
        # lookup, no cold build).
        assert second == first
        assert warm["result_cache"]["hits"] == \
            cold["result_cache"]["hits"] + 1
        assert warm["engine"]["misses"] == cold["engine"]["misses"]
        assert warm["engine"]["lookups"] == cold["engine"]["lookups"]

    def test_cache_hit_parses_nothing(self, client, monkeypatch):
        body = {"device": {"node": 65}, "pattern": "act nop rd pre"}
        first = client.request("POST", "/evaluate", body)

        def refuse(payload):
            raise AssertionError("a cache hit must not parse the body")

        monkeypatch.setattr(jsonapi, "parse_evaluate_request", refuse)
        assert client.request("POST", "/evaluate", body) == first

    def test_key_order_does_not_matter(self, client):
        pattern = "act nop rd nop pre"
        first = client.request("POST", "/evaluate", {
            "device": {"node": 55, "io_width": 16},
            "pattern": pattern})
        before = client.stats()["result_cache"]
        again = client.request("POST", "/evaluate", {
            "pattern": pattern,
            "device": {"io_width": 16, "node": 55}})
        after = client.stats()["result_cache"]
        assert again == first
        assert after["hits"] == before["hits"] + 1
        assert after["size"] == before["size"]

    def test_each_spelling_of_a_device_is_its_own_entry(self, client):
        # One device, three request bodies: equal answers, but the key
        # is the body, so each spelling takes its own entry.
        replies = [client.request("POST", "/evaluate", body)
                   for body in ({"device": {}},
                                {"device": {"node": 55}},
                                {"devices": [{"node": 55}]})]
        assert replies[0] == replies[1] == replies[2]
        cache = client.stats()["result_cache"]
        assert cache["size"] == 3
        assert cache["hits"] == 0

    def test_failed_request_is_never_stored(self, client):
        before = client.stats()["result_cache"]
        for _ in range(2):
            with pytest.raises(ServiceError) as failure:
                client.evaluate(device={"nodes": 55})
            assert failure.value.status == 400
        after = client.stats()["result_cache"]
        assert after["size"] == before["size"]
        assert after["misses"] == before["misses"] + 2

    def test_spent_budget_is_504_even_when_cached(self, service,
                                                  client):
        client.evaluate(device={"node": 55})
        before = client.stats()
        service.faults = FaultInjector(rules=[
            FaultRule(kind="latency", path="/evaluate",
                      seconds=0.05)])
        with pytest.raises(ServiceError) as failure:
            client.request("POST", "/evaluate", {"device": {"node": 55}},
                           request_timeout=0.01, retry=NO_RETRY)
        assert failure.value.status == 504
        after = client.stats()
        assert after["timeouts"] == before["timeouts"] + 1
        assert after["result_cache"]["hits"] == \
            before["result_cache"]["hits"]

    def test_keys_stay_32_bytes(self, service, client, ddr3_device):
        padding = "# " + "x" * (1 << 20) + "\n"
        client.evaluate(device={"dsl": padding + dumps(ddr3_device)})
        keys = list(service.result_cache._entries)
        assert len(keys) == 1
        assert isinstance(keys[0], bytes) and len(keys[0]) == 32

    def test_non_object_json_device_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.evaluate(device={"json": 5})
        assert failure.value.status == 400

    def test_missing_device_key_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.request("POST", "/evaluate", {"pattern": "rd nop"})
        assert failure.value.status == 400

    def test_unknown_builder_key_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.evaluate(device={"nodes": 55})
        assert failure.value.status == 400
        assert "unknown device keys" in str(failure.value)

    def test_bad_dsl_is_400_and_service_survives(self, client):
        with pytest.raises(ServiceError) as failure:
            client.evaluate(device={"dsl": "Garbage ="})
        assert failure.value.status == 400
        assert client.healthz()["status"] == "ok"


class TestSweep:
    def test_sensitivity_matches_library(self, client, ddr3_device):
        reply = client.sweep("sensitivity",
                             device={"json": to_dict(ddr3_device)},
                             variation=0.1)
        expected = sensitivity(ddr3_device, variation=0.1)
        assert [row["name"] for row in reply["rows"]] == \
            [result.name for result in expected]
        assert reply["rows"][0]["impact"] == \
            pytest.approx(expected[0].impact)
        assert reply["backend_requested"] == "auto"

    def test_corners_rows(self, client):
        reply = client.sweep("corners")
        assert len(reply["rows"]) == 4
        for row in reply["rows"]:
            assert row["min_ma"] <= row["typ_ma"] <= row["max_ma"]

    def test_trends_subset(self, client):
        reply = client.sweep("trends", nodes=[170, 90, 55])
        assert [row["node_nm"] for row in reply["rows"]] == \
            [170, 90, 55]

    def test_schemes_sorted_by_saving(self, client, ddr3_device):
        reply = client.sweep("schemes",
                             device={"json": to_dict(ddr3_device)})
        expected = compare_schemes(ddr3_device)
        assert [row["scheme"] for row in reply["rows"]] == \
            [result.scheme for result in expected]

    def test_unknown_kind_is_400(self, client):
        with pytest.raises(ServiceError) as failure:
            client.sweep("montecarlo")
        assert failure.value.status == 400
        for kind in sweep_kinds():
            assert kind in str(failure.value)

    def test_sweeps_share_the_session_cache(self, client):
        client.sweep("sensitivity", variation=0.1)
        before = client.stats()["engine"]
        client.sweep("sensitivity", variation=0.1)
        after = client.stats()["engine"]
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]


class TestTransport:
    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as failure:
            client.request("GET", "/models")
        assert failure.value.status == 404

    def test_post_to_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as failure:
            client.request("POST", "/evaluate/extra", {"device": {}})
        assert failure.value.status == 404

    @pytest.mark.parametrize(
        "body", [b"not json", _nested(5000)]
        + [_nested(depth) for depth in range(970, 1001)],
        ids=["not-json", "depth-5000"]
        + [f"depth-{depth}" for depth in range(970, 1001)])
    def test_invalid_json_body_is_400(self, client, service, body):
        # Too deep for the stack is a 400 whether the decoder or the
        # result-cache key runs out of it; a parsed body is a 400 for
        # its unknown device key.  /evaluate twice covers the lookup.
        for path in ("/evaluate", "/evaluate", "/sweep"):
            url = f"http://127.0.0.1:{service.server_port}{path}"
            request = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(request, timeout=10)
            failure.value.close()
            assert failure.value.code == 400, path

    def test_unreachable_service_raises_status_zero(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError) as failure:
            client.healthz()
        assert failure.value.status == 0

    def test_client_rejects_ambiguous_evaluate(self):
        client = ServiceClient("http://127.0.0.1:9")
        with pytest.raises(ServiceError):
            client.evaluate()
        with pytest.raises(ServiceError):
            client.evaluate(device={}, devices=[{}])


class TestShutdown:
    def test_drains_and_joins_handler_threads(self, service, client):
        assert service.daemon_threads is False
        assert service.block_on_close is True
        assert client.healthz()["status"] == "ok"

    def test_signal_handler_stops_the_serve_loop(self):
        svc = create_service(host="127.0.0.1", port=0)
        thread = threading.Thread(target=svc.serve_forever,
                                  daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{svc.server_port}")
        assert client.wait_until_ready(5)
        svc._handle_signal(signal.SIGTERM, None)
        thread.join(timeout=5)
        assert not thread.is_alive()
        svc.server_close()


class TestJsonApiDirect:
    """The HTTP-free API surface used by other front ends."""

    def test_default_payload_is_mainstream_device(self):
        device = device_from_payload({})
        assert device.name == build_device(55).name

    def test_datarate_accepts_quantity_strings(self):
        device = device_from_payload({"node": 55,
                                      "datarate": "1.6Gbps"})
        assert device.spec.datarate == pytest.approx(1.6e9)

    @pytest.mark.parametrize("payload", [
        ["node", 55], {"json": 5}, {"json": []}, {"json": None},
        {"json": "device"}],
        ids=["list", "json-int", "json-list", "json-null",
             "json-string"])
    def test_non_object_payload_rejected(self, payload):
        with pytest.raises(ServiceError):
            device_from_payload(payload)

    def test_evaluate_requires_object_body(self):
        with pytest.raises(ServiceError):
            evaluate_payload(EvaluationSession(), [1, 2, 3])

    def test_empty_device_list_rejected(self):
        with pytest.raises(ServiceError):
            evaluate_payload(EvaluationSession(), {"devices": []})


class TestServeSubprocess:
    """`repro serve` end to end: start, query, SIGTERM, clean exit."""

    def test_sigterm_drains_and_exits_zero(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        root = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            assert client.wait_until_ready(timeout=30)
            reply = client.evaluate(device={"node": 55})
            assert reply["results"][0]["power_w"] > 0
            stats = client.stats()
            assert stats["engine"]["misses"] == 1
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10)
        assert process.returncode == 0
        assert "listening" in out
        assert "stopped" in out
