"""Benchmark R1 — deadline checkpoints must be free when idle.

ISSUE 10's acceptance bar: the cooperative deadline machinery (the
thread-local read in :func:`repro.resilience.checkpoint` and the
chunked kernel loop it enables) may cost **at most 2%** end to end on
the 100,800-point mixed sweep — measured here as best-of-N
``evaluate_table`` wall time with a generous active deadline versus
none — and the two runs must produce byte-identical columns.

The faults-off half of the contract rides along: with no plan
installed, ``faults.check``/``faults.mangle`` are one global load, and
this benchmark times a million of them to record the per-call cost.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep ~8x for CI.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import smoke_mode

from repro.explore.engine import evaluate_table
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.resilience import Deadline, active_deadline
from repro.resilience.faults import check as fault_check

#: Acceptance ceiling for the deadline-checkpoint overhead.
OVERHEAD_CEILING_PCT = 2.0

#: A deadline generous enough to never fire during the sweep: the
#: overhead measured is pure checkpoint cost, not early termination.
GENEROUS_SECONDS = 3600.0


def mixed_scenario() -> Scenario:
    """The demo space over a grid deep enough to mix trusted-vectorized,
    flagged-fallback and infeasible points."""
    base = demo_scenario()
    return Scenario(
        name="bench-resilience",
        architectures=base.architectures,
        technologies=base.technologies,
        frequencies=FrequencyGrid.logspace(
            2e6, 1.5e9, 500 if smoke_mode() else 4200
        ),
        transform_chains=base.transform_chains,
    )


def _best_of(runs: int, evaluate) -> tuple[float, object]:
    best = float("inf")
    table = None
    for _ in range(runs):
        started = time.perf_counter()
        candidate = evaluate()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best, table = elapsed, candidate
    return best, table


def _assert_identical(baseline, guarded) -> None:
    assert baseline.columns.keys() == guarded.columns.keys()
    for name, left in baseline.columns.items():
        # NaN marks the operating point of an infeasible row.
        assert np.array_equal(
            left, guarded.columns[name], equal_nan=left.dtype.kind == "f"
        ), f"column {name!r} differs under an active deadline"


def test_deadline_checkpoint_overhead(record_benchmark):
    scenario = mixed_scenario()
    n_points = scenario.size
    runs = 2 if smoke_mode() else 3

    # Untimed warm-up so the first timed run does not pay one-off costs
    # (imports, allocator growth, solver caches) that would skew the
    # baseline-vs-deadline comparison.
    evaluate_table(scenario, method="auto")

    baseline_seconds, baseline_table = _best_of(
        runs, lambda: evaluate_table(scenario, method="auto")
    )

    def guarded():
        with active_deadline(Deadline.after(GENEROUS_SECONDS)):
            return evaluate_table(scenario, method="auto")

    deadline_seconds, deadline_table = _best_of(runs, guarded)

    _assert_identical(baseline_table, deadline_table)
    overhead_pct = (deadline_seconds / baseline_seconds - 1.0) * 100.0

    # -- faults-off checkpoint cost (no plan installed) --------------------
    calls = 1_000_000
    started = time.perf_counter()
    for _ in range(calls):
        fault_check("cache.read")
    fault_check_ns = (time.perf_counter() - started) / calls * 1e9

    record_benchmark(
        "resilience",
        points=n_points,
        runs=runs,
        baseline_seconds=round(baseline_seconds, 4),
        deadline_seconds=round(deadline_seconds, 4),
        overhead_pct=round(overhead_pct, 3),
        gate_pct=OVERHEAD_CEILING_PCT,
        fault_check_off_ns=round(fault_check_ns, 1),
        smoke=smoke_mode(),
    )
    assert overhead_pct <= OVERHEAD_CEILING_PCT, (
        f"deadline checkpoints cost {overhead_pct:.2f}% on the "
        f"{n_points}-point sweep (ceiling {OVERHEAD_CEILING_PCT:g}%)"
    )
