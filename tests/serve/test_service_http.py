"""End-to-end tests for the asyncio HTTP front end over a live service.

Each test boots a real listener on an ephemeral port inside its own event
loop and speaks actual HTTP/1.1 over a socket — no mocked transport, so
the parser, router, and Connection: close discipline are all exercised.
"""

import asyncio
import json
import multiprocessing

import pytest

from repro.bench import harness
from repro.bench.runner import run_experiments
from repro.serve import HttpFrontend, ServeConfig, SimulationService
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES


@pytest.fixture
def toy_experiment():
    exp_id = "_t_http_toy"

    def run(quick):
        """Deterministic toy runner used by the HTTP tests."""
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="http-test experiment",
            rendered="served",
            comparisons=[("metric", 5.0, 5.0, "units")],
        )

    harness.register(exp_id, "http-test experiment", "—")(run)
    try:
        yield exp_id
    finally:
        harness._REGISTRY.pop(exp_id, None)


@pytest.fixture
def gated_experiment():
    """A toy experiment whose run waits for the test to open its gate, so
    submissions made before that are certainly concurrent with it."""
    exp_id = "_t_http_gated"
    gate = multiprocessing.Event()  # the forked worker inherits it

    def run(quick):
        """Toy runner that stays in flight until the gate opens."""
        gate.wait(timeout=30)
        return harness.ExperimentResult(
            experiment_id=exp_id,
            title="gated http-test experiment",
            rendered="served",
            comparisons=[("metric", 5.0, 5.0, "units")],
        )

    harness.register(exp_id, "gated http-test experiment", "—")(run)
    try:
        yield exp_id, gate
    finally:
        gate.set()
        harness._REGISTRY.pop(exp_id, None)


async def _request(port, method, path, body=None):
    """One HTTP exchange; returns (status, headers, parsed-or-raw body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {path} HTTP/1.1", "Host: t"]
    if payload:
        head += ["Content-Type: application/json", f"Content-Length: {len(payload)}"]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = head_blob.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("content-type", "").startswith("application/json"):
        return status, headers, json.loads(body_blob)
    return status, headers, body_blob.decode()


def serve_test(coro_factory, **config_kw):
    """Boot service + frontend on an ephemeral port, run the test coro."""
    config_kw.setdefault("use_cache", False)
    config_kw.setdefault("backoff_base_s", 0.01)

    async def main():
        service = SimulationService(ServeConfig(**config_kw))
        frontend = HttpFrontend(service)
        _, port = await frontend.start("127.0.0.1", 0)
        try:
            await coro_factory(service, port)
        finally:
            await frontend.stop()

    asyncio.run(main())


async def _raw_exchange(port, blob):
    """Send *blob* as the whole request; returns (status, JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=5)
    writer.close()
    await writer.wait_closed()
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    assert head_blob, "the server closed the connection without an answer"
    assert b"application/json" in head_blob
    return int(head_blob.split(b" ")[1]), json.loads(body_blob)


async def _poll_terminal(port, request_id, timeout_s=30.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        status, _, doc = await _request(port, "GET", f"/status/{request_id}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"request {request_id} never terminal: {doc}")
        await asyncio.sleep(0.02)


def test_health_metrics_and_404_routes():
    async def body(service, port):
        status, _, doc = await _request(port, "GET", "/healthz")
        assert (status, doc) == (200, {"status": "ok"})
        status, _, doc = await _request(port, "GET", "/readyz")
        assert (status, doc) == (200, {"status": "ready"})
        status, headers, text = await _request(port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert "repro_serve_up 1" in text
        status, _, _ = await _request(port, "GET", "/nope")
        assert status == 404
        status, _, _ = await _request(port, "GET", "/status/req-999999")
        assert status == 404
        status, _, _ = await _request(port, "POST", "/healthz")
        assert status == 405
        status, _, _ = await _request(port, "GET", "/submit")
        assert status == 405
        # The HTTP counter saw every exchange above.
        assert service.m_http.value(route="healthz", code="200") == 1
        assert service.m_http.value(route="metrics", code="200") == 1

    serve_test(body)


def test_submit_poll_result_lifecycle(toy_experiment):
    async def body(service, port):
        status, _, doc = await _request(
            port, "POST", "/submit", {"experiment": toy_experiment}
        )
        assert status == 202
        assert doc["state"] == "queued" and doc["request_id"] == "req-000001"
        final = await _poll_terminal(port, doc["request_id"])
        assert final["state"] == "done" and final["outcome"] == "done"
        assert final["telemetry"]["attempts"] == 1
        status, _, res = await _request(port, "GET", f"/result/{doc['request_id']}")
        assert status == 200
        assert res["result"]["rendered"] == "served"
        assert res["result"]["comparisons"] == [["metric", 5.0, 5.0, "units"]]
        assert set(res["result"]) <= {
            "experiment_id", "title", "rendered", "comparisons", "data",
        }
        span_names = [s["name"] for s in final["telemetry"]["spans"]]
        assert span_names == ["admission", "queue", "execute", "land"]

    serve_test(body)


def test_submit_validation_errors(toy_experiment):
    async def body(service, port):
        for bad, needle in [
            ({}, "experiment"),
            ({"experiment": "no-such-experiment"}, "no-such-experiment"),
            ({"experiment": toy_experiment, "quick": "yes"}, "quick"),
            ({"experiment": toy_experiment, "deadline_s": -1}, "deadline_s"),
        ]:
            status, _, doc = await _request(port, "POST", "/submit", bad)
            assert status == 400, bad
            assert needle in doc["error"]
        # Protocol-level garbage is a 400 too.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"BLARGH\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        assert b"400" in raw.split(b"\r\n", 1)[0]

    serve_test(body)


def _post_submit(body_bytes, length=None):
    """A POST /submit carrying *body_bytes*, declaring *length* if given."""
    length = str(len(body_bytes)).encode() if length is None else length
    head = b"POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: " + length
    return head + b"\r\n\r\n" + body_bytes


@pytest.mark.parametrize(
    "blob, status, error",
    [
        (_post_submit(b"", length=b"-1"), 400, "malformed Content-Length"),
        (_post_submit(b'{"x": 123}', length=b"1_0"), 400, "malformed Content-Length"),
        (
            b"GET /healthz HTTP/1.1\r\nX-Filler: " + b"x" * MAX_HEADER_BYTES + b"\r\n\r\n",
            400,
            "headers too large",
        ),
        (_post_submit(b"[" * 100_000), 400, "body is not valid JSON"),
        (
            _post_submit(b"", length=str(MAX_BODY_BYTES + 1).encode()),
            413,
            f"body exceeds {MAX_BODY_BYTES} bytes",
        ),
    ],
    ids=[
        "negative-length",
        "underscore-length",
        "header-too-large",
        "nested-json",
        "body-too-large",
    ],
)
def test_malformed_request_gets_a_structured_answer(blob, status, error):
    async def body(service, port):
        assert await _raw_exchange(port, blob) == (status, {"error": error})
        assert service.m_http.value(route="bad", code=str(status)) == 1

    serve_test(body)


def test_cache_hit_answers_200_without_execution(tmp_path, toy_experiment):
    async def body(service, port):
        status, _, first = await _request(
            port, "POST", "/submit", {"experiment": toy_experiment}
        )
        assert status == 202
        await _poll_terminal(port, first["request_id"])
        status, _, doc = await _request(
            port, "POST", "/submit", {"experiment": toy_experiment}
        )
        assert status == 200  # terminal immediately: no queue, no worker
        assert doc["cached"] and doc["state"] == "done"
        assert doc["result"]["rendered"] == "served"
        assert service.m_cache_hits.value() == 1
        assert service.m_completed.value(outcome="done") == 2

    serve_test(body, use_cache=True, cache_dir=str(tmp_path))


def test_sanitized_service_executes_over_an_unsanitized_cache(
    tmp_path, toy_experiment, monkeypatch
):
    """A cache an unsanitized run warmed answers no sanitized request: the
    service keys the sanitizer mode, runs the request and caches it apart."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    (warm,) = run_experiments([toy_experiment], cache_dir=tmp_path)
    assert warm.status == "ok"
    monkeypatch.setenv("REPRO_SANITIZE", "1")

    async def body(service, port):
        for expected_status, cached in ((202, False), (200, True)):
            status, _, doc = await _request(
                port, "POST", "/submit", {"experiment": toy_experiment}
            )
            assert status == expected_status
            doc = await _poll_terminal(port, doc["request_id"])
            assert doc["state"] == "done" and doc["cached"] is cached
        assert service.m_cache_misses.value() == 1
        assert service.m_cache_hits.value() == 1

    serve_test(body, use_cache=True, cache_dir=str(tmp_path))


def test_concurrent_identical_submissions_coalesce(gated_experiment):
    exp_id, gate = gated_experiment

    async def body(service, port):
        docs = []
        for _ in range(3):
            status, _, doc = await _request(
                port, "POST", "/submit", {"experiment": exp_id}
            )
            assert status == 202
            docs.append(doc)
        assert [d["coalesced"] for d in docs] == [False, True, True]
        gate.set()
        finals = [await _poll_terminal(port, d["request_id"]) for d in docs]
        assert all(f["state"] == "done" for f in finals)
        # One execution served all three: the followers dedup'ed onto it.
        assert service.m_dedup_hits.value() == 2
        assert service.m_completed.value(outcome="done") == 3

    serve_test(body)


def test_response_ends_while_a_forked_worker_runs(gated_experiment):
    """A worker forked while a client connection is open inherits that
    socket; the client must still see end-of-stream after its response."""
    exp_id, gate = gated_experiment

    async def body(service, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await asyncio.sleep(0.05)  # the server accepts it before the fork
        before = set(multiprocessing.active_children())
        status, _, doc = await _request(port, "POST", "/submit", {"experiment": exp_id})
        assert status == 202
        deadline = asyncio.get_running_loop().time() + 10
        while not set(multiprocessing.active_children()) - before:
            assert asyncio.get_running_loop().time() < deadline, "no worker forked"
            await asyncio.sleep(0.01)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5)
        assert raw.startswith(b"HTTP/1.1 200")
        writer.close()
        gate.set()
        assert (await _poll_terminal(port, doc["request_id"]))["state"] == "done"

    serve_test(body)


def test_readyz_flips_to_503_on_drain(toy_experiment):
    async def body(service, port):
        service.begin_drain()
        status, headers, doc = await _request(port, "GET", "/readyz")
        assert status == 503 and doc == {"status": "draining"}
        assert headers["retry-after"] == "2"
        status, _, _ = await _request(port, "GET", "/healthz")
        assert status == 200  # liveness stays green while draining
        status, _, doc = await _request(
            port, "POST", "/submit", {"experiment": toy_experiment}
        )
        assert status == 503 and "draining" in doc["error"]
        assert "repro_serve_up 0" in service.metrics_text()

    serve_test(body)
