"""``GET /v1/metrics``, request ids and the telemetry-driven counters."""

import json
import urllib.request

import pytest

from repro.explore.scenario import demo_scenario
from repro.obs import PROMETHEUS_CONTENT_TYPE


def _get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=30.0)


def _counter_delta(before, after, key):
    return after["counters"].get(key, 0) - before["counters"].get(key, 0)


class TestMetricsEndpoint:
    def test_prometheus_text_default(self, service):
        server, client = service
        client.healthz()  # at least one counted request
        with _get_raw(server.url + "/v1/metrics") as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        assert "# TYPE http_requests_total counter" in text
        assert 'http_requests_total{route="/v1/healthz",status="200"}' in text
        assert "# TYPE http_latency_seconds histogram" in text
        assert "service_uptime_seconds" in text
        assert "cache_memory_entries" in text
        assert "coalescer_in_flight" in text

    def test_json_format(self, service):
        _, client = service
        snapshot = client.metrics()
        assert snapshot["enabled"] is True
        assert {"counters", "gauges", "histograms"} <= set(snapshot)

    def test_warm_vs_cold_request_pair(self, service):
        """Two identical explores: the second is a memory-tier hit."""
        _, client = service
        scenario = demo_scenario(frequency_points=2)
        before = client.metrics()
        cold = client.explore(scenario, solver="auto")
        after_cold = client.metrics()
        warm = client.explore(scenario, solver="auto")
        after_warm = client.metrics()

        assert not cold.cache_hit and warm.cache_hit
        assert (
            _counter_delta(before, after_cold, "cache.memory.misses") >= 1
        )
        assert _counter_delta(after_cold, after_warm, "cache.memory.hits") >= 1
        assert (
            _counter_delta(before, after_cold, "engine.points_evaluated")
            >= scenario.size
        )
        assert (
            _counter_delta(after_cold, after_warm, "engine.points_evaluated")
            == 0
        )

    def test_disabled_telemetry_serves_empty(self, tmp_path):
        from repro import obs
        from repro.service.client import ServiceClient
        from repro.service.server import ExplorationServer, ServiceConfig

        was_enabled = obs.is_enabled()
        registry = obs.get_registry()
        server = ExplorationServer(
            ServiceConfig(
                port=0, cache_dir=str(tmp_path / "cache"), telemetry=False
            )
        )
        server.start_background()
        try:
            obs.disable()
            client = ServiceClient(server.url, timeout=30.0)
            assert client.metrics()["enabled"] is False
            assert client.metrics_text() == ""
        finally:
            server.shutdown()
            server.server_close()
            if was_enabled:
                obs.enable(registry)


class TestRequestIds:
    def test_response_carries_a_minted_id(self, service):
        server, _ = service
        with _get_raw(server.url + "/v1/healthz") as response:
            request_id = response.headers["X-Request-Id"]
        assert request_id and len(request_id) == 16

    def test_client_supplied_id_is_propagated(self, service):
        server, _ = service
        with _get_raw(
            server.url + "/v1/healthz",
            headers={"X-Request-Id": "my-trace-123"},
        ) as response:
            assert response.headers["X-Request-Id"] == "my-trace-123"

    def test_hostile_id_is_replaced(self, service):
        server, _ = service
        with _get_raw(
            server.url + "/v1/healthz",
            headers={"X-Request-Id": "a" * 200 + "\x7f"},
        ) as response:
            assert len(response.headers["X-Request-Id"]) <= 64

    def test_error_body_carries_the_id(self, service):
        server, _ = service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(
                server.url + "/v1/nowhere",
                headers={"X-Request-Id": "err-trace"},
            ).read()
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["request_id"] == "err-trace"
        assert excinfo.value.headers["X-Request-Id"] == "err-trace"


class TestHealthzClocks:
    def test_uptime_and_start_are_consistent(self, service):
        import time

        _, client = service
        payload = client.healthz()
        assert payload["uptime_seconds"] >= 0
        # started_at is a wall-clock timestamp of roughly "now".
        assert abs(time.time() - payload["started_at"]) < 60
        assert payload["telemetry"] is True
