"""Benchmark S1 — `Study` facade dispatch overhead vs the explore engine.

The unified API must be free: ``Study(...).run()`` compiles a builder to
a scenario, looks a solver up in the registry, and wraps outcomes into a
``ResultSet`` — none of which may cost meaningful time next to the
evaluation itself.  This benchmark runs the PR 1 demo sweep (1,008
candidates) through both doors with identical settings (auto method,
serial fallback, no cache) and asserts the facade stays within 5 % of
calling the explore engine (:func:`repro.explore.engine.explore`, the
PR 1 entry point that expands, evaluates and packages the same sweep)
directly.

Best-of-N timing on both sides so scheduler noise does not decide the
verdict.
"""

from __future__ import annotations

import time

from repro.explore.engine import explore
from repro.explore.scenario import demo_scenario
from repro.study import Study

#: Paired timing rounds; the best (smallest) per-round ratio is compared.
ROUNDS = 7

#: Evaluations batched into one timing sample.  A single sweep runs in
#: tens of milliseconds, so a 5 % budget on one run would be a few ms —
#: inside shared-CI-runner jitter; batching widens the absolute budget
#: ~LOOPS-fold without weakening the relative bound.
LOOPS = 5

#: Acceptance threshold: Study may cost at most this fraction extra.
MAX_OVERHEAD = 0.05


def _sample(fn) -> float:
    """Seconds per evaluation, averaged over one ``LOOPS`` batch."""
    started = time.perf_counter()
    for _ in range(LOOPS):
        fn()
    return (time.perf_counter() - started) / LOOPS


def _paired_overhead(rounds: int, baseline, candidate):
    """Overhead from each path's *fastest* round: best-of-N vs best-of-N.

    Scheduler noise and frequency drift only ever make a sample slower,
    so each minimum converges on that path's true runtime floor and the
    floor ratio is robust in both directions: one descheduled round
    cannot fail the build (that sample simply is not the minimum) and
    cannot mask real overhead either (a genuinely slower facade keeps
    its floor above the baseline's in every round).  Rounds alternate
    which path runs first because the second-timed path inherits warm
    caches and an already-boosted clock — a consistent position
    advantage worth several percent on its own.
    """
    pairs = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            b, c = _sample(baseline), _sample(candidate)
        else:
            c, b = _sample(candidate), _sample(baseline)
        pairs.append((b, c))
    best_baseline = min(b for b, _ in pairs)
    best_candidate = min(c for _, c in pairs)
    return best_candidate / best_baseline - 1.0, best_baseline, best_candidate


def test_study_dispatch_overhead(save_artifact):
    scenario = demo_scenario()
    points = scenario.expand()
    assert len(points) == 1008

    def run_engine():
        return explore(scenario, method="auto", use_cache=False)

    def run_study():
        return Study.from_scenario(scenario).solver("auto").run()

    # Warm both paths once (imports, numpy dispatch tables, scipy).
    engine_result = run_engine()
    study_result = run_study()

    overhead, engine_seconds, study_seconds = _paired_overhead(
        ROUNDS, run_engine, run_study
    )

    lines = [
        "Benchmark S1 — Study facade dispatch overhead",
        f"sweep: {scenario.describe()}",
        "",
        f"{'path':<34} {'seconds':>9} {'cand/s':>12}",
        "-" * 58,
        f"{'explore (engine direct)':<34} {engine_seconds:>9.4f} "
        f"{len(points) / engine_seconds:>12,.0f}",
        f"{'Study.run (facade)':<34} {study_seconds:>9.4f} "
        f"{len(points) / study_seconds:>12,.0f}",
        "-" * 58,
        f"facade overhead: {overhead * 100:+.2f} % "
        f"(acceptance: < {MAX_OVERHEAD * 100:.0f} %)",
    ]
    save_artifact("bench_study", "\n".join(lines))

    # Same problem, same answers: record-for-record identical results.
    assert len(study_result) == len(engine_result.points)
    assert study_result.records == engine_result.points
    best = study_result.best()
    assert best is not None and best.ptot is not None

    assert overhead < MAX_OVERHEAD, (
        f"Study dispatch overhead {overhead * 100:.2f} % exceeds the "
        f"{MAX_OVERHEAD * 100:.0f} % budget"
    )
