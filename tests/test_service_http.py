"""HTTP-layer semantics: keep-alive, gzip, auth, close-on-error."""

import gzip
import http.client
import json
import socket
import threading

import pytest

from repro.client import ServiceClient
from repro.errors import ServiceError
from repro.service import create_service
from repro.service.auth import (API_KEYS_ENV, ApiKeyAuth, parse_keys)
from repro.service.server import GZIP_MIN_BYTES


def _serve(svc):
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(svc, thread):
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def service():
    svc = create_service(host="127.0.0.1", port=0)
    thread = _serve(svc)
    yield svc
    _stop(svc, thread)


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.server_port}")


@pytest.fixture()
def auth_service():
    svc = create_service(host="127.0.0.1", port=0,
                         auth=ApiKeyAuth(["sekrit"]))
    thread = _serve(svc)
    yield svc
    _stop(svc, thread)


def _http(service, method, path, body=None, headers=None):
    """One exchange on a dedicated connection; returns the response
    with ``.body`` preloaded (so the connection can be closed)."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", service.server_port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        response.body = response.read()
        return response
    finally:
        conn.close()


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, client):
        client.healthz()
        client.stats()
        client.evaluate(device={})
        client.stats()
        assert client.connections_opened == 1

    def test_http10_request_still_served(self, service):
        with socket.create_connection(
                ("127.0.0.1", service.server_port),
                timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            sock.settimeout(30)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert b" 200 " in head.splitlines()[0]
        assert json.loads(body)["status"] == "ok"

    def test_http10_stream_request_rejected(self, service):
        blob = json.dumps({"device": {}, "stream": True}).encode()
        with socket.create_connection(
                ("127.0.0.1", service.server_port),
                timeout=30) as sock:
            sock.sendall(
                b"POST /evaluate HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(blob), blob))
            sock.settimeout(30)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b" 400 " in data.splitlines()[0]

    def test_post_error_closes_connection(self, service):
        response = _http(service, "POST", "/evaluate",
                         body=b"this is not json",
                         headers={"Content-Type": "text/plain"})
        assert response.status == 400
        assert response.getheader("Connection") == "close"

    def test_worker_header_present(self, service):
        response = _http(service, "GET", "/healthz")
        assert response.getheader("X-Repro-Worker") == "0"


class TestGzip:
    def test_large_reply_gzipped_on_request(self, service):
        payload = json.dumps(
            {"devices": [{}, {"node": 44}, {}]}).encode()
        plain = _http(
            service, "POST", "/evaluate", body=payload,
            headers={"Content-Type": "application/json"})
        assert plain.status == 200
        assert plain.getheader("Content-Encoding") is None
        assert len(plain.body) >= GZIP_MIN_BYTES
        packed = _http(
            service, "POST", "/evaluate", body=payload,
            headers={"Content-Type": "application/json",
                     "Accept-Encoding": "gzip"})
        assert packed.status == 200
        assert packed.getheader("Content-Encoding") == "gzip"
        assert "Accept-Encoding" in packed.getheader("Vary", "")
        assert gzip.decompress(packed.body) == plain.body
        assert service.counters.gzipped == 1

    def test_small_reply_not_gzipped(self, service):
        response = _http(service, "GET", "/healthz",
                         headers={"Accept-Encoding": "gzip"})
        assert response.status == 200
        assert response.getheader("Content-Encoding") is None
        assert service.counters.gzipped == 0

    def test_client_transparently_decompresses(self, client):
        result = client.evaluate(devices=[{}, {"node": 44}])
        assert len(result["results"]) == 2
        assert result["results"][0]["power_w"] > 0


class TestAuth:
    def test_parse_keys_splits_commas_and_whitespace(self):
        assert parse_keys("a, b  c,,") == ("a", "b", "c")
        assert parse_keys("") == ()

    def test_from_options_prefers_explicit_keys(self):
        auth = ApiKeyAuth.from_options(
            keys=["k1"], env={API_KEYS_ENV: "e1,e2"})
        assert auth is not None and auth.check("k1")
        assert not auth.check("e1")

    def test_from_options_falls_back_to_env_then_open(self):
        auth = ApiKeyAuth.from_options(env={API_KEYS_ENV: "e1 e2"})
        assert auth is not None and len(auth) == 2
        assert auth.check("e2")
        assert ApiKeyAuth.from_options(env={}) is None

    def test_check_rejects_missing_and_wrong(self):
        auth = ApiKeyAuth(["sekrit"])
        assert not auth.check(None)
        assert not auth.check("")
        assert not auth.check("sekri")
        assert auth.check("sekrit")

    def test_requests_refused_without_key(self, auth_service):
        url = f"http://127.0.0.1:{auth_service.server_port}"
        anonymous = ServiceClient(url)
        with pytest.raises(ServiceError) as err:
            anonymous.stats()
        assert err.value.status == 401
        wrong = ServiceClient(url, api_key="wrong")
        with pytest.raises(ServiceError) as err:
            wrong.evaluate(device={})
        assert err.value.status == 401
        assert auth_service.counters.auth_failures == 2

    def test_healthz_open_and_key_accepted(self, auth_service):
        url = f"http://127.0.0.1:{auth_service.server_port}"
        anonymous = ServiceClient(url)
        assert anonymous.healthz()["status"] == "ok"
        keyed = ServiceClient(url, api_key="sekrit")
        assert keyed.stats()["status"] == "ok"
        result = keyed.evaluate(device={})
        assert result["results"][0]["power_w"] > 0
        assert auth_service.counters.auth_failures == 0

    def test_streaming_requires_key_too(self, auth_service):
        url = f"http://127.0.0.1:{auth_service.server_port}"
        with pytest.raises(ServiceError) as err:
            ServiceClient(url).sweep_stream("corners")
        assert err.value.status == 401
        keyed = ServiceClient(url, api_key="sekrit")
        records = list(keyed.sweep_stream("corners"))
        assert records[-1]["done"] is True
