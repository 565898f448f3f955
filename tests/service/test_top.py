"""repro top: key parsing, quantile math, pure rendering, live refresh."""

import io

from repro.service.top import (
    Dashboard,
    parse_instrument_key,
    quantile_from_buckets,
    render_dashboard,
    run_top,
)


class TestParseInstrumentKey:
    def test_bare_name(self):
        assert parse_instrument_key("service.uptime_seconds") == (
            "service.uptime_seconds",
            {},
        )

    def test_labels(self):
        name, labels = parse_instrument_key(
            "http.requests{route=/v1/explore,status=200}"
        )
        assert name == "http.requests"
        assert labels == {"route": "/v1/explore", "status": "200"}

    def test_route_template_keeps_its_braces(self):
        # Only the outermost closing brace is key syntax.
        name, labels = parse_instrument_key(
            "http.latency_seconds{route=/v1/jobs/{id}}"
        )
        assert name == "http.latency_seconds"
        assert labels == {"route": "/v1/jobs/{id}"}


class TestQuantileFromBuckets:
    def test_empty_and_zero_are_none(self):
        assert quantile_from_buckets({}, 0.5) is None
        assert quantile_from_buckets({"0.1": 0, "+Inf": 0}, 0.5) is None

    def test_interpolates_inside_the_winning_bucket(self):
        # 100 samples all <= 0.1: p50 lands halfway into (0, 0.1].
        buckets = {"0.1": 100, "1": 100, "+Inf": 100}
        assert abs(quantile_from_buckets(buckets, 0.5) - 0.05) < 1e-12
        # p50 rank 5 of 10 sits at the top of the first bucket when the
        # first bucket holds exactly half the samples.
        buckets = {"0.1": 5, "1": 10, "+Inf": 10}
        assert abs(quantile_from_buckets(buckets, 0.5) - 0.1) < 1e-12

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        buckets = {"0.1": 0, "1": 0, "+Inf": 10}
        assert quantile_from_buckets(buckets, 0.95) == 1.0


def _snapshot(enabled=True):
    return {
        "enabled": enabled,
        "counters": {
            "http.requests{route=/v1/explore,status=200}": 18,
            "http.requests{route=/v1/explore,status=500}": 2,
            "http.requests{route=/v1/healthz,status=200}": 5,
            "cache.memory.hits": 17,
            "cache.memory.misses": 3,
        },
        "gauges": {"jobs.queue_depth": 2, "coalescer.in_flight": 1},
        "histograms": {
            "http.latency_seconds{route=/v1/explore}": {
                "count": 20,
                "sum": 1.0,
                "buckets": {"0.05": 10, "0.5": 20, "+Inf": 20},
            }
        },
    }


def _traces():
    return [
        {"trace_id": "a" * 32, "method": "POST", "route": "/v1/explore",
         "status": 200, "duration_ms": 12.0, "error": False},
        {"trace_id": "b" * 32, "method": "POST", "route": "/v1/explore",
         "status": 500, "duration_ms": 3.0, "error": True},
        {"trace_id": "c" * 32, "method": "GET", "route": "/v1/healthz",
         "status": 200, "duration_ms": 900.0, "error": False},
    ]


class TestRenderDashboard:
    def test_disabled_telemetry_short_circuits(self):
        text = render_dashboard(_snapshot(enabled=False), [])
        assert "telemetry is disabled" in text
        assert "/v1/explore" not in text

    def test_headline_routes_and_caches(self):
        text = render_dashboard(
            _snapshot(),
            _traces(),
            healthz={"version": "1.5.0", "uptime_seconds": 42.0,
                     "errors": 2},
            rps=3.5,
            base_url="http://localhost:8080",
        )
        assert "http://localhost:8080" in text
        assert "v1.5.0" in text and "up 42s" in text
        assert "requests 25" in text and "rps 3.5" in text
        assert "job-queue 2" in text and "coalescer-in-flight 1" in text
        assert "memory 85% (17/20)" in text and "disk -" in text
        [row] = [line for line in text.splitlines()
                 if line.startswith("/v1/explore")]
        assert " 20 " in row and " 2 " in row  # 20 requests, 2 errors
        # p50 of the fixture histogram: 10 of 20 samples <= 0.05 s.
        assert "50.0" in row

    def test_traces_section_lists_errors_first(self):
        text = render_dashboard(_snapshot(), _traces())
        lines = text.splitlines()
        b_index = next(
            i for i, line in enumerate(lines) if "b" * 32 in line
        )
        c_index = next(
            i for i, line in enumerate(lines) if "c" * 32 in line
        )
        assert b_index < c_index  # the error beats the merely-slow
        assert "!!" in lines[b_index]

    def test_response_bytes_per_route(self):
        snapshot = _snapshot()
        snapshot["counters"].update({
            "http.response_bytes{format=columns,route=/v1/explore}": 10_700_000,
            "http.response_bytes{format=json,route=/v1/explore}": 2_500,
            "http.response_bytes{format=json,route=/v1/healthz}": 500,
        })
        text = render_dashboard(snapshot, [])
        rows = {line.split()[0]: line for line in text.splitlines()
                if line.startswith("/v1/")}
        assert rows["/v1/explore"].endswith("10.7 MB")
        assert rows["/v1/healthz"].endswith("500 B")

    def test_empty_trace_store_renders_a_placeholder(self):
        assert "(none recorded yet)" in render_dashboard(_snapshot(), [])


class TestLiveDashboard:
    def test_refresh_against_a_running_service(self, service):
        _, client = service
        client.healthz()
        dashboard = Dashboard(client)
        first = dashboard.refresh()
        assert client.base_url in first
        assert "/v1/healthz" in first
        second = dashboard.refresh()
        assert "rps" in second  # only computable from the second refresh on

    def test_run_top_once_writes_one_screen(self, service):
        _, client = service
        stream = io.StringIO()
        code = run_top(client, iterations=1, stream=stream, clear=False)
        assert code == 0
        output = stream.getvalue()
        assert output.startswith("repro top")
        assert "recent slow / error traces" in output

    def test_top_once_via_the_cli(self, service, capsys):
        from repro.cli import main

        server, _ = service
        assert main(["top", "--once", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro top")

    def test_top_against_unreachable_service_exits_one(self, capsys):
        from repro.cli import main

        code = main(
            ["top", "--once", "--url", "http://127.0.0.1:1", "--retries", "0"]
        )
        assert code == 1
        assert "service error" in capsys.readouterr().err
