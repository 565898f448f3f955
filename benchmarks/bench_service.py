"""Benchmark SV1 — the serving layer: coalescing and the warm cache tier.

Two acceptance claims for ``repro serve``:

(a) **Coalescing** — k = 8 concurrent identical scenarios cause exactly
    one engine evaluation.  The server runs with caching disabled and a
    gated evaluation hook, so every request *would* evaluate were it not
    for the single-flight coalescer; the engine-run counter decides.

(b) **Warm cache** — once the in-memory tier holds a sweep, a request
    is served at least 10x faster than a cold engine run of the same
    sweep.  Cold is the first request (full exact-numerical evaluation),
    warm is the best of the following requests (memory-LRU lookup +
    serialization); both timed end to end through HTTP.

Both parts run entirely in-process against an ephemeral-port server —
stdlib HTTP on both sides, no external processes.
"""

from __future__ import annotations

import threading
import time

from repro.explore.scenario import demo_scenario
from repro.service.client import ServiceClient
from repro.service.server import ExplorationServer, ServiceConfig
from repro.study import Study

#: Concurrent identical requests in the coalescing demonstration.
CONCURRENT_REQUESTS = 8

#: Warm requests sampled (best one is compared against the cold run).
WARM_ROUNDS = 5

#: Acceptance: warm in-memory hits must be at least this much faster
#: than the cold engine run they replace.
MIN_WARM_SPEEDUP = 10.0


def _serve(config: ServiceConfig, evaluate=None) -> ExplorationServer:
    server = ExplorationServer(config, evaluate=evaluate)
    server.start_background()
    return server


def test_coalescing_k_concurrent_one_run(save_artifact):
    """(a) 8 concurrent identical sweeps → exactly 1 engine evaluation."""
    release = threading.Event()

    def gated_evaluate(scenario, solver, options):
        # Hold the leader until every follower has joined its flight, so
        # the demonstration is deterministic rather than a race we
        # usually win; the coalescer, cache policy and HTTP path are
        # exactly the production ones.
        release.wait(30.0)
        return Study.from_scenario(scenario).solver(solver, **options).run()

    server = _serve(
        ServiceConfig(port=0, workers=CONCURRENT_REQUESTS, use_cache=False),
        evaluate=gated_evaluate,
    )
    try:
        scenario = demo_scenario(frequency_points=2)
        results = []
        errors = []

        def post():
            try:
                client = ServiceClient(server.url, timeout=60.0)
                results.append(client.explore(scenario, solver="auto"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=post) for _ in range(CONCURRENT_REQUESTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while (
            server.state.coalescer.stats()["coalesced"]
            < CONCURRENT_REQUESTS - 1
        ):
            assert time.monotonic() < deadline, (
                f"followers never coalesced: {server.state.coalescer.stats()}"
            )
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(60.0)
        elapsed = time.perf_counter() - started

        assert not errors, errors
        stats = server.state.coalescer.stats()
        engine_runs = server.state.engine_runs

        lines = [
            "Benchmark SV1a — request coalescing",
            f"sweep: {scenario.describe()} (service cache disabled)",
            "",
            f"{'concurrent identical requests':<34} {CONCURRENT_REQUESTS:>9}",
            f"{'engine evaluations':<34} {engine_runs:>9}",
            f"{'coalesced (served by leader)':<34} {stats['coalesced']:>9}",
            f"{'wall clock [s]':<34} {elapsed:>9.3f}",
            "-" * 46,
            f"acceptance: {CONCURRENT_REQUESTS} requests == 1 engine run: "
            f"{'PASS' if engine_runs == 1 else 'FAIL'}",
        ]
        save_artifact("bench_service_coalescing", "\n".join(lines))

        assert engine_runs == 1, (
            f"{CONCURRENT_REQUESTS} identical concurrent requests caused "
            f"{engine_runs} engine runs; expected exactly 1"
        )
        assert stats["coalesced"] == CONCURRENT_REQUESTS - 1
        assert len(results) == CONCURRENT_REQUESTS
        reference = results[0]
        assert all(r.records == reference.records for r in results)
    finally:
        release.set()
        server.shutdown()
        server.server_close()


def test_warm_cache_throughput(save_artifact, tmp_path):
    """(b) warm in-memory-cache requests ≥ 10x faster than a cold run."""
    server = _serve(
        ServiceConfig(port=0, workers=4, cache_dir=str(tmp_path / "cache"))
    )
    try:
        client = ServiceClient(server.url, timeout=120.0)
        # The exact-numerical reference on a 240-candidate sweep: a real
        # engine workload (a few hundred ms of scipy) with a modest
        # payload, so the comparison measures evaluation vs cache lookup
        # rather than JSON serialization on both sides.
        scenario = demo_scenario(frequency_points=10)

        started = time.perf_counter()
        cold = client.explore(scenario, solver="numerical")
        cold_seconds = time.perf_counter() - started
        assert not cold.cache_hit

        warm_samples = []
        for _ in range(WARM_ROUNDS):
            started = time.perf_counter()
            warm = client.explore(scenario, solver="numerical")
            warm_samples.append(time.perf_counter() - started)
            assert warm.cache_hit
            assert warm.records == cold.records
        warm_seconds = min(warm_samples)
        speedup = cold_seconds / warm_seconds

        memory = client.cache_stats()["memory"]
        lines = [
            "Benchmark SV1b — warm-cache serving throughput",
            f"sweep: {scenario.describe()} (exact-numerical solver)",
            "",
            f"{'path':<34} {'seconds':>9} {'req/s':>10}",
            "-" * 56,
            f"{'cold (engine evaluation)':<34} {cold_seconds:>9.4f} "
            f"{1.0 / cold_seconds:>10.1f}",
            f"{'warm (memory LRU hit)':<34} {warm_seconds:>9.4f} "
            f"{1.0 / warm_seconds:>10.1f}",
            "-" * 56,
            f"speedup: {speedup:.1f}x "
            f"(acceptance: >= {MIN_WARM_SPEEDUP:.0f}x)",
            f"memory tier: {memory['hits']} hits / "
            f"{memory['misses']} misses / {memory['entries']} entries",
        ]
        save_artifact("bench_service_warm_cache", "\n".join(lines))

        assert memory["hits"] >= WARM_ROUNDS
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm requests only {speedup:.1f}x faster than a cold engine "
            f"run; acceptance requires {MIN_WARM_SPEEDUP:.0f}x"
        )
    finally:
        server.shutdown()
        server.server_close()
