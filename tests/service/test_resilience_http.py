"""Resilience over the wire: deadlines, shedding, idempotency, Retry-After."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.explore.scenario import demo_scenario
from repro.resilience import DEADLINE_HEADER
from repro.service.client import ServiceClient, _error_from_response
from repro.service.server import (
    ExplorationServer,
    ServiceConfig,
    ServiceError,
)

WAIT = 30.0


def _post_json(url, payload, headers=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    return urllib.request.urlopen(request, timeout=WAIT)


def _error_body(excinfo):
    return json.loads(excinfo.value.read().decode("utf-8"))["error"]


class TestDeadlineOverTheWire:
    def test_hopeless_deadline_maps_to_structured_504(self, service):
        server, _ = service
        scenario = demo_scenario(frequency_points=40)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(
                server.url + "/v1/explore",
                {"scenario": scenario.to_dict()},
                headers={DEADLINE_HEADER: "1"},
            )
        assert excinfo.value.code == 504
        error = _error_body(excinfo)
        assert error["type"] == "deadline-exceeded"
        assert error["details"]["budget_ms"] == 1
        assert error["details"]["site"]
        assert isinstance(error["details"]["progress"], dict)
        assert server.state.healthz_payload()["deadline_breaches"] >= 1

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
    def test_bad_deadline_header_is_a_400(self, service, value):
        server, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(
                server.url + "/v1/explore",
                {"scenario": demo_scenario(frequency_points=2).to_dict()},
                headers={DEADLINE_HEADER: value},
            )
        assert excinfo.value.code == 400
        assert _error_body(excinfo)["type"] == "bad-deadline"

    def test_generous_deadline_changes_nothing(self, service):
        server, client = service
        scenario = demo_scenario(frequency_points=3)
        with_deadline = client.explore(scenario)  # client always sends one
        request = urllib.request.Request(
            server.url + "/v1/explore",
            data=json.dumps({"scenario": scenario.to_dict()}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=WAIT) as response:
            bare = json.loads(response.read().decode("utf-8"))
        assert len(with_deadline) == len(bare["records"]) == scenario.size


class TestAdmissionOverTheWire:
    @pytest.fixture
    def tiny_service(self, tmp_path):
        """One worker, zero queue: the second concurrent request sheds."""
        server = ExplorationServer(
            ServiceConfig(
                port=0,
                workers=1,
                admission_queue=0,
                use_cache=False,
                retry_after_seconds=7.0,
            )
        )
        release = threading.Event()
        started = threading.Event()
        evaluate = server.state.evaluate

        def gated(scenario, solver, options):
            started.set()
            if not release.wait(timeout=WAIT):  # pragma: no cover
                raise TimeoutError("gate never released")
            return evaluate(scenario, solver, options)

        server.state.evaluate = gated
        server.start_background()
        try:
            yield server, started, release
        finally:
            release.set()
            server.shutdown()
            server.server_close()

    def test_second_request_sheds_429_with_retry_after(self, tiny_service):
        server, started, release = tiny_service
        first_done = threading.Event()

        def occupy():
            # Distinct scenario sizes → distinct coalescer keys, so the
            # second request cannot ride the first one's flight.
            _post_json(
                server.url + "/v1/explore",
                {"scenario": demo_scenario(frequency_points=3).to_dict()},
            ).read()
            first_done.set()

        thread = threading.Thread(target=occupy, daemon=True)
        thread.start()
        assert started.wait(timeout=WAIT)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(
                    server.url + "/v1/explore",
                    {"scenario": demo_scenario(frequency_points=2).to_dict()},
                )
        finally:
            release.set()
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "7"
        error = _error_body(excinfo)
        assert error["type"] == "admission-shed"
        assert error["retry_after"] == 7.0
        assert error["details"]["reason"] == "queue-full"
        assert first_done.wait(timeout=WAIT)
        thread.join(timeout=WAIT)
        snap = server.state.healthz_payload()["admission"]
        assert snap["shed"] >= 1
        assert snap["accepted"] >= 1

    def test_healthz_reports_admission_and_faults(self, service):
        server, client = service
        payload = client.healthz()
        assert payload["faults_armed"] is False
        assert payload["admission"]["limit"] == 4 + 16  # workers + queue
        assert payload["admission"]["depth"] == 0


class TestIdempotentSubmit:
    def test_same_key_returns_same_job(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=3)
        payload = {"scenario": scenario.to_dict(), "solver": "auto"}
        headers = {"Idempotency-Key": "retry-of-lost-response"}
        first = client._request(
            "POST", "/v1/jobs", payload, extra_headers=headers
        )
        second = client._request(
            "POST", "/v1/jobs", payload, extra_headers=headers
        )
        assert first["deduplicated"] is False
        assert second["deduplicated"] is True
        assert first["job"]["id"] == second["job"]["id"]
        client.wait(first["job"]["id"], timeout=WAIT, poll=0.05)

    def test_client_submits_mint_distinct_keys(self, service):
        _, client = service
        scenario = demo_scenario(frequency_points=3)
        first = client.submit(scenario)
        second = client.submit(scenario)
        assert first.id != second.id
        client.wait(first.id, timeout=WAIT, poll=0.05)
        client.wait(second.id, timeout=WAIT, poll=0.05)

    def test_oversize_key_rejected(self, service):
        server, client = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(
                server.url + "/v1/jobs",
                {"scenario": demo_scenario(frequency_points=2).to_dict()},
                headers={"Idempotency-Key": "k" * 129},
            )
        assert excinfo.value.code == 400
        assert _error_body(excinfo)["type"] == "bad-idempotency-key"


class TestClientRetryAfter:
    def make_client(self, errors):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=len(errors), backoff=0.25
        )
        sleeps: list[float] = []
        queue = list(errors)

        def fake_open_once(request):
            if queue:
                raise queue.pop(0)
            return _FakeResponse({"jobs": []})

        client._open_once = fake_open_once
        client._sleep = sleeps.append
        client._random = lambda: 0.0
        return client, sleeps

    def test_retry_after_overrides_backoff(self, service):
        client, sleeps = self.make_client(
            [ServiceError(429, "admission-shed", "busy", retry_after=5.0)]
        )
        assert client.jobs() == []
        assert sleeps == [5.0]

    def test_429_without_hint_uses_backoff(self, service):
        client, sleeps = self.make_client(
            [ServiceError(429, "admission-shed", "busy")]
        )
        assert client.jobs() == []
        assert sleeps == [0.25]

    def test_parses_retry_after_header(self):
        error = _error_from_response(
            429,
            json.dumps(
                {"error": {"status": 429, "type": "admission-shed",
                           "message": "busy"}}
            ).encode(),
            {"Retry-After": "3.5"},
        )
        assert error.retry_after == 3.5
        assert _error_from_response(503, b"down", {}).retry_after is None
        assert (
            _error_from_response(503, b"down", {"Retry-After": "soon"})
            .retry_after
            is None
        )


class _FakeResponse:
    def __init__(self, payload):
        self._body = json.dumps(payload).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self._body
