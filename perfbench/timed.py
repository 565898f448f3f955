"""The timed run: every end-to-end metric of one workload, tracing off.

A run is a closed loop from one process and one client thread: each
operation waits for its reply before the next is sent.  It is a
sequence of rounds within ``--seconds``: there are always
``MIN_ROUNDS``, and a further round starts only if one as long as the
longest so far still ends in time.  A round is: a cold sweep of a never-seen 100,800-point
scenario, the same sweep again (memory tier), and the sweep once more
with the memory tier cold (disk tier); each repeat is taken
``Door.hit_repeats`` times.  A batch of single-point requests follows
each step, so the points sample the whole run.  Every operation gets
one correctness verdict, computed right after its timing was taken;
its result is then dropped (but for the in-process cold sweep's table,
which the repeats are compared with), so no operation runs beside the
heap of an earlier one.

Jobs are not timed here: in-process job times spread by 0.29-0.36
(quartile distance over median) over ten runs on the 2-vCPU tuning
box, beyond any bound a later change could be held to.  The traced run
measures the job layers (``perfbench/layers.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.explore.engine import evaluate_table
from repro.service.client import ServiceError

from perfbench import checks
from perfbench.doors import study_point
from perfbench.inputs import point_request, sample_rows, sweep_scenario

#: Sampled rows per in-process sweep that the scalar reference re-solves.
SPOT_CHECK_ROWS = 6

#: Rounds every run makes, however long they take.  A ``serve`` round
#: takes 19-30 s on a 2-vCPU box, so a 56-second run makes two, also
#: when the hypervisor slows the box; a run of one round would halve
#: its sweep and hit samples.
MIN_ROUNDS = 2

#: Operations every run must complete at least once.
SAMPLED = ("sweep", "mem_hit", "disk_hit", "point")

#: Every end-to-end metric, with its unit, in BENCHMARK.json order.
METRICS = {
    "setup_s": "s",
    "ok_frac": "frac",
    "sweep_s_p50": "s",
    "sweep_s_p90": "s",
    "mem_hit_s": "s",
    "disk_hit_s": "s",
    "point_ms_p50": "ms",
}


class Tally:
    """Operation samples, attempts and failures of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {reason}")

    def timed(self, what: str, call, *args):
        """Run and time one operation; (result, ok).

        An operation fails when it raises, including a shed (429), an
        unavailable (503) or a deadline (504) answer, or when it returns
        a partial result.  A failed operation leaves no sample.
        """
        self.attempt()
        started = time.perf_counter()
        try:
            result = call(*args)
        except ServiceError as error:
            self.fail(what, f"HTTP {error.status}: {error}")
            return None, False
        except Exception as error:  # noqa: BLE001 — counted, run continues
            self.fail(what, f"{type(error).__name__}: {error}")
            return None, False
        elapsed = time.perf_counter() - started
        if getattr(result, "partial", False):
            self.fail(what, "partial result")
            return result, False
        self.samples.setdefault(what, []).append(elapsed)
        return result, True

    def check(self, what: str, *reasons: str | None) -> None:
        """The one verdict of one operation: its first failing reason."""
        reason = next((r for r in reasons if r is not None), None)
        if reason is not None:
            self.fail(what, reason)


def settle() -> None:
    """Flush written data to disk before the next timed phase.

    Without it, the tens of MB a cold sweep leaves in the page cache are
    written back (journal commit or dirty expiry) during whatever
    operation runs next, and that one pays for it at random.
    """
    os.sync()


def hit_reason(hit: bool, want_hit: bool) -> str | None:
    """Why a result's cache-hit flag is wrong, or None."""
    if hit != want_hit:
        return f"cache_hit is {hit}, expected {want_hit}"
    return None


class Runner:
    def __init__(self, door, seed: int) -> None:
        self.door = door
        self.seed = seed
        self.tally = Tally()
        self.next_point = 0
        self.round_index = 0

    def sweep_op(self, what: str, call, scenario, reference):
        """Time one sweep-shaped operation, then give it its verdict.

        Returns the operation's table when it succeeded.  ``reference``
        is the table it must equal; an in-process cold sweep has none and
        is spot-checked against the scalar reference instead.
        """
        result, ok = self.tally.timed(what, call, scenario)
        if not ok:
            return None
        table = self.door.table(result)
        if reference is not None:
            reason = checks.tables_differ(table, reference)
        else:
            rows = sample_rows(
                self.seed, self.round_index, len(table), SPOT_CHECK_ROWS
            )
            reason = checks.spot_check(table, scenario, rows)
        hit = None
        if self.door.caches:
            hit = hit_reason(
                bool(getattr(result, "cache_hit", False)), what != "sweep"
            )
        self.tally.check(what, reason, hit)
        return table

    def round(self, index: int) -> None:
        door = self.door
        self.round_index = index
        scenario = sweep_scenario(self.seed, index)
        # The cached doors must reproduce the in-process table; the
        # in-process door's repeats must reproduce its own first sweep.
        reference = evaluate_table(scenario) if door.caches else None
        settle()
        cold = self.sweep_op("sweep", door.sweep, scenario, reference)
        if reference is None:
            reference = cold if cold is not None else evaluate_table(scenario)
        self.points()
        for _ in range(door.hit_repeats):
            self.sweep_op("mem_hit", door.mem_hit, scenario, reference)
        self.points()
        settle()
        for _ in range(door.hit_repeats):
            self.sweep_op("disk_hit", door.disk_hit, scenario, reference)
        self.points()

    def points(self) -> None:
        """One batch of single-point requests, then their verdicts.

        A batch follows each step of a round, so the points sample the
        whole run rather than one few-second window of it.
        """
        door, tally = self.door, self.tally
        settle()
        requests = [
            point_request(self.seed, self.next_point + k)
            for k in range(door.points_per_batch)
        ]
        self.next_point += len(requests)
        outcomes = [tally.timed("point", door.point, r) for r in requests]
        for request, (record, ok) in zip(requests, outcomes):
            if not ok:
                continue
            if door.caches:
                reason = checks.records_differ(record, study_point(request))
            else:
                scenario = request.scenario()
                reason = checks.row_differs_from_scalar(
                    record,
                    {a.name: a for a in scenario.derived_architectures()},
                    {t.name: t for t in scenario.technologies},
                )
            tally.check("point", reason)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def run(door, args, setup_s: float) -> tuple[dict, dict]:
    """Drive ``door`` for ``args.seconds``; (result line, details)."""
    runner = Runner(door, args.seed)
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    longest = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + longest <= deadline:
        started = time.perf_counter()
        runner.round(rounds)
        longest = max(longest, time.perf_counter() - started)
        rounds += 1
    tally = runner.tally
    samples = tally.samples
    missing = [m for m in SAMPLED if not samples.get(m)]
    if missing:
        raise RuntimeError(
            f"no successful {', '.join(missing)} operation; failures: "
            + "; ".join(tally.failures)
        )
    values = {
        "setup_s": setup_s,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "sweep_s_p50": _percentile(samples["sweep"], 50),
        "sweep_s_p90": _percentile(samples["sweep"], 90),
        "mem_hit_s": _percentile(samples["mem_hit"], 50),
        "disk_hit_s": _percentile(samples["disk_hit"], 50),
        "point_ms_p50": 1e3 * _percentile(samples["point"], 50),
    }
    # Reported, not gated: on serve this tail tracks the hypervisor's
    # steal time, not the program (see perfbench/README.md).
    point_ms_p90 = 1e3 * _percentile(samples["point"], 90)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in METRICS.items()
        },
    }
    details = {
        "rounds": rounds,
        "sample_counts": {name: len(v) for name, v in samples.items()},
        "samples": samples,
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "point_ms_p90": point_ms_p90,
    }
    print("samples " + " ".join(
        f"{name}={len(v)}" for name, v in sorted(samples.items())
    ))
    print(f"point_ms_p90 {point_ms_p90:.4f} (not gated)")
    for reason in tally.failures:
        print("FAILED " + reason)
    return result, details
