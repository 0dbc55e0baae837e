"""Tests for the advisor HTTP endpoint (stdlib http.server)."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.matrices.mmio import write_matrix_market
from repro.serve.server import create_server
from repro.serve.service import AdvisorService

from .conftest import keepalive_get_seconds, make_random_coo


@pytest.fixture()
def server(machine, shared_profile_cache, tmp_path):
    service = AdvisorService(
        machine, cache_dir=tmp_path, profile_cache=shared_profile_cache
    )
    srv = create_server(service, port=0)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, body, path="/advise"):
    port = server.server_address[1]
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _mtx_text(seed=21):
    import tempfile
    from pathlib import Path

    coo = make_random_coo(96, 96, 700, seed=seed, with_values=False)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        write_matrix_market(path, coo)
        return path.read_text()


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404
        status, _ = _post(server, {"suite": "dense"}, path="/nope")
        assert status == 404

    def test_stats_shape(self, server):
        status, stats = _get(server, "/stats")
        assert status == 200
        for key in (
            "requests", "cache_hits", "cache_misses", "errors",
            "mean_latency_s", "cache_entries", "machine",
        ):
            assert key in stats

    def test_stats_carries_worker_id(self, server):
        # Standalone servers report no worker id; fleet workers stamp
        # theirs so the balancer's fan-in can attribute each snapshot.
        _, stats = _get(server, "/stats")
        assert stats["worker_id"] is None


class TestReadyz:
    def test_ready_200(self, server):
        status, payload = _get(server, "/readyz")
        assert status == 200
        assert payload == {"status": "ready"}

    def test_draining_503(self, server):
        with server._state_lock:
            server._draining = True
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/readyz")
        assert err.value.code == 503
        assert json.loads(err.value.read())["status"] == "draining"
        # Liveness stays green while readiness is red.
        status, _ = _get(server, "/healthz")
        assert status == 200

    def test_warming_503_until_warmup_completes(self, server):
        server.service._warmup_done.clear()
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/readyz")
        assert err.value.code == 503
        assert json.loads(err.value.read())["status"] == "warming"
        server.service._warmup_done.set()
        status, _ = _get(server, "/readyz")
        assert status == 200

    def test_warmup_pass_flips_readiness(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = AdvisorService(
            machine, cache_dir=tmp_path, profile_cache=shared_profile_cache
        )
        assert service.warmed_up  # born ready with no warmup requested
        service.warmup()  # profile already cached: completes immediately
        assert service.warmed_up

    def test_worker_id_in_service_stats(
        self, machine, shared_profile_cache, tmp_path
    ):
        service = AdvisorService(
            machine,
            cache_dir=tmp_path,
            profile_cache=shared_profile_cache,
            worker_id=3,
        )
        assert service.stats()["worker_id"] == 3


class TestAdviseEndpoint:
    def test_concurrent_posts_then_cache_hit(self, server):
        """Acceptance: two concurrent POST /advise threads both get valid
        JSON; an identical repeat is a cache hit, visible in /stats."""
        body = {"matrix_market": _mtx_text(), "top": 2}
        results = [None, None]

        def worker(i):
            results[i] = _post(server, body)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        for status, payload in results:
            assert status == 200
            assert payload["best"]["label"]
            assert len(payload["ranking"]) <= 2
            assert payload["nnz"] > 0

        status, payload = _post(server, body)
        assert status == 200
        assert payload["cache_hit"]

        _, stats = _get(server, "/stats")
        assert stats["requests"] == 3
        assert stats["cache_hits"] >= 1
        assert stats["cache_hits"] + stats["cache_misses"] == 3

    def test_suite_entry_by_name(self, server):
        status, payload = _post(server, {"suite": "pwtk", "top": 1})
        assert status == 200
        assert payload["best"]["label"] == "BCSR 6x1 simd"
        assert len(payload["ranking"]) == 1

    def test_model_option_respected(self, server):
        status, payload = _post(
            server, {"suite": "pwtk", "model": "mem", "top": 1}
        )
        assert status == 200
        assert payload["options"]["model"] == "mem"
        assert payload["best"]["impl"] == "scalar"

    def test_unknown_suite_400(self, server):
        status, payload = _post(server, {"suite": "no-such-matrix"})
        assert status == 400
        assert "no-such-matrix" in payload["error"]

    def test_missing_matrix_key_400(self, server):
        status, payload = _post(server, {"top": 3})
        assert status == 400
        assert "suite" in payload["error"]

    def test_invalid_json_400(self, server):
        status, payload = _post(server, b"{not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_malformed_matrix_market_400(self, server):
        status, payload = _post(server, {"matrix_market": "not a header\n"})
        assert status == 400
        assert "error" in payload

    def test_empty_body_400(self, server):
        status, payload = _post(server, b"")
        assert status == 400

    def test_short_data_line_400(self, server):
        status, payload = _post(server, {"matrix_market": (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n1 2\n3\n"
        )})
        assert status == 400
        assert "'3'" in payload["error"]

    def test_index_beyond_int64_400(self, server):
        status, payload = _post(server, {"matrix_market": (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 1\n99999999999999999999 1\n"
        )})
        assert status == 400
        assert "99999999999999999999" in payload["error"]

    def test_huge_declared_count_400(self, server):
        status, payload = _post(server, {"matrix_market": (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 1000000000000\n1 1\n"
        )})
        assert status == 400
        assert "1000000000000" in payload["error"]


class TestKeepAlive:
    """A keep-alive answer leaves without waiting for a delayed ACK.

    The handler writes the headers and the body as two segments.  With
    Nagle on, the body waits for the client's ACK of the headers, which a
    keep-alive client delays by ~40 ms; TCP_NODELAY on the accepted
    socket (``disable_nagle_algorithm``) sends it at once.
    """

    def test_40_healthz_under_half_a_second(self, server):
        host, port = server.server_address[:2]
        assert keepalive_get_seconds(host, port, "/healthz") < 0.5

    def test_advise_transport_overhead_under_20ms(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        body = json.dumps({"suite": "dense"})

        def overhead_s():
            t0 = time.perf_counter()
            conn.request(
                "POST", "/advise", body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            latency = time.perf_counter() - t0
            assert resp.status == 200
            return latency - payload["elapsed_s"]

        try:
            overhead_s()  # warming: evaluates and caches the answer
            overheads = [overhead_s() for _ in range(10)]
        finally:
            conn.close()
        assert statistics.median(overheads) < 0.020


def _raw_request(server, request_bytes):
    """Send raw bytes and return the full response (for broken framing)."""
    port = server.server_address[1]
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request_bytes)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestErrorMatrix:
    """The full error-path contract: every malformed request gets a JSON
    error with the right status, and the connection survives to serve the
    next client (see also TestServerChaos in test_resilience.py for the
    503/504/500 injected-failure statuses)."""

    def test_non_dict_body_400(self, server):
        status, payload = _post(server, b"[1, 2, 3]")
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_unparseable_content_length_400(self, server):
        response = _raw_request(
            server,
            b"POST /advise HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Length: banana\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert response.split(b"\r\n", 1)[0].endswith(b"400 Bad Request")
        assert b"bad Content-Length" in response

    def test_oversized_declared_body_413_without_reading_it(self, server):
        # The length check runs before any body read: a 10 GiB claim is
        # rejected from the header alone.
        response = _raw_request(
            server,
            b"POST /advise HTTP/1.1\r\n"
            b"Host: t\r\n"
            b"Content-Length: 10737418240\r\n"
            b"Connection: close\r\n\r\n",
        )
        first_line = response.split(b"\r\n", 1)[0]
        assert b"413" in first_line
        assert b"exceeds" in response

    def test_default_body_limit_is_8mib(self):
        from repro.serve.server import DEFAULT_MAX_BODY_BYTES

        assert DEFAULT_MAX_BODY_BYTES == 8 * 1024 * 1024

    def test_server_survives_the_whole_matrix(self, server):
        for body in (b"", b"{not json", b"[1]", json.dumps({"top": 1}).encode()):
            status, _ = _post(server, body)
            assert status == 400
        status, _ = _post(server, {"suite": "no-such-matrix"})
        assert status == 400
        status, payload = _post(server, {"suite": "dense", "top": 1})
        assert status == 200
        assert payload["best"]["label"]
