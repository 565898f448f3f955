"""Orchestration: expand a scenario, solve it column-wise, cache.

:func:`explore` is the one execution path.  It resolves the requested
solver from the :mod:`repro.solvers` registry, hashes the sweep with
:func:`cache_key`, returns the stored result on a hit, and on a miss
expands the scenario straight to column arrays
(:func:`~.columnar.expand_columns`) and hands them to
``solver.solve(columns, **options)``, which returns a
:class:`~.columnar.ResultTable`.  ``Study.run``, every job shard and
the HTTP service all go through it, whatever the solver.

The registry's batch entries (``auto``, ``vectorized``, ``numerical``)
share :func:`_evaluate_columns`: the vectorized Eq. 9–13 kernel per
technology group, then an exact numerical solve of every flagged row
(``numerical`` flags every row and skips the kernel).  The flagged set
goes to scalar :func:`~repro.core.numerical.numerical_optimum` when it
is small and to the lockstep batch port
(:mod:`repro.solvers.batch_numerical`) otherwise; the two agree bit for
bit, values and reason strings.  A parity check compares sampled kernel
rows against the scalar closed form on every run, so a drift between
the two implementations cannot pass silently.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Mapping, Sequence

import numpy as np

from .. import obs
from ..resilience import current_deadline, faults
from ..core.closed_form import closed_form_optimum
from ..core.numerical import DEFAULT_VDD_SPAN, numerical_optimum
from ..service.memcache import TieredCache, as_cache
from .cache import CACHE_SCHEMA_VERSION, ResultCache, content_hash
from .columnar import ExpandedColumns, ResultTable, expand_columns, str_column
from .scenario import Scenario
from .vectorized import batch_arrays_for_columns, closed_form_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..solvers.base import Solver

#: Method tag on vectorized operating points.
VECTORIZED_METHOD = "vectorized-closed-form"

#: Method tag on points the auto policy re-solved exactly.
FALLBACK_METHOD = "numerical-fallback"

#: Method tag on every row of the ``numerical`` reference solver.
NUMERICAL_METHOD = "numerical"

#: Relative tolerance of the engine's built-in vectorized-vs-scalar
#: parity check (the arithmetic is identical, so real agreement is at
#: machine precision; 1e-9 leaves room for operation-order noise only).
PARITY_RTOL = 1e-9

#: How many vectorized points each run spot-checks against the scalar
#: closed form.
PARITY_SAMPLES = 3

#: Flagged sets smaller than this go to scalar ``numerical_optimum``
#: (about 0.3 ms a row on a 2-core x86 box) instead of the batch solver
#: (about 1.4 ms whatever the size up to a few dozen rows), so a single
#: numerical point keeps the scalar cost.
SCALAR_FALLBACK_ROWS = 5

#: Kernel sub-chunk size used *only when a deadline is active*: small
#: enough that a breached budget is noticed within a fraction of a
#: second of kernel work, large enough that splitting a technology
#: group costs under the bench gate's 2% (smaller chunks lose batch
#: amortisation in the vectorized kernel, not just the check itself).
#: With no deadline the kernel runs each technology group in one shot,
#: exactly as before — byte-identical results, zero overhead.
DEADLINE_CHUNK_ROWS = 65536

#: The phase timer of the :func:`evaluate_table` call running on this
#: thread, so solvers can report phases through the plain
#: ``solve(columns, **options)`` contract (see :func:`phase`).
_ACTIVE_TIMER: ContextVar["obs.PhaseTimer | None"] = ContextVar(
    "engine_timer", default=None
)


def phase(name: str, **labels: Any):
    """Time a solver phase (``kernel``, ``fallback``, ``solve``, ...).

    The duration lands in the running :func:`evaluate_table` call's
    phase map (and so in ``stats.phases``); outside one it is dropped.
    """
    timer = _ACTIVE_TIMER.get() or obs.PhaseTimer("engine")
    return timer.phase(name, **labels)


@dataclass(frozen=True)
class PointResult:
    """Flat, JSON-serialisable record of one evaluated candidate.

    This is what the analysis helpers consume and what one row of the
    columnar :class:`~.columnar.ResultTable` materialises to: the
    architecture summary is inlined (names plus the Eq. 13 inputs and
    the area proxy) so a cached sweep is self-contained.
    """

    architecture: str
    technology: str
    frequency: float
    n_cells: float
    activity: float
    logical_depth: float
    capacitance: float
    area: float
    feasible: bool
    method: str
    vdd: float | None = None
    vth: float | None = None
    pdyn: float | None = None
    pstat: float | None = None
    ptot: float | None = None
    reason: str = ""

    @property
    def ptot_or_inf(self) -> float:
        """Total power, with +inf standing in for infeasible points."""
        return self.ptot if self.ptot is not None else float("inf")

    @property
    def area_proxy(self) -> float:
        """Layout area when known, otherwise the cell count.

        The paper's Table 1 reports area per architecture; parameter-only
        sweeps may not have it, and ``N`` tracks it closely (Table 1's
        area/cell spread across the thirteen multipliers is ~20 %).
        """
        return self.area if self.area > 0.0 else self.n_cells

    # Populated once after the class body: record (de)serialisation is
    # the serving layer's hot path (every response converts thousands of
    # records), and per-call dataclasses.asdict/fields introspection
    # costs more than the conversion itself.
    _FIELD_NAMES: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELD_NAMES}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PointResult":
        known = cls._FIELD_NAMES
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> str:
        if not self.feasible:
            return (
                f"{self.architecture} on {self.technology} "
                f"@ {self.frequency / 1e6:g} MHz: infeasible ({self.reason})"
            )
        return (
            f"{self.architecture} on {self.technology} "
            f"@ {self.frequency / 1e6:g} MHz: Ptot={self.ptot * 1e6:.2f} uW "
            f"(Vdd={self.vdd:.3f} V, Vth={self.vth:.3f} V)"
        )


PointResult._FIELD_NAMES = tuple(f.name for f in fields(PointResult))


@dataclass(frozen=True)
class EvaluationStats:
    """Where the work went in one sweep.

    ``phases`` maps engine phase names (``expand``, ``kernel``,
    ``fallback``, ``analysis``, ``cache_read``, ``cache_write``) to wall
    seconds — the per-sweep breakdown behind ``--profile``, the service
    ``stats`` payload and the benchmark snapshots.  It is empty for
    stats built by callers that did not time phases (old cache entries,
    hand-rolled tallies); consumers must treat missing keys as "not
    measured", not zero.
    """

    n_candidates: int
    n_feasible: int
    n_vectorized: int
    n_fallback: int
    elapsed_seconds: float
    phases: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_candidates": self.n_candidates,
            "n_feasible": self.n_feasible,
            "n_vectorized": self.n_vectorized,
            "n_fallback": self.n_fallback,
            "elapsed_seconds": self.elapsed_seconds,
            "phases": dict(self.phases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationStats":
        return cls(**payload)

    @classmethod
    def from_table(
        cls,
        table: ResultTable,
        elapsed_seconds: float,
        phases: Mapping[str, float] | None = None,
    ) -> "EvaluationStats":
        """Tally a columnar sweep without materialising any rows."""
        method = table.column("method")
        return cls(
            n_candidates=len(table),
            n_feasible=table.n_feasible,
            n_vectorized=int(np.count_nonzero(method == VECTORIZED_METHOD)),
            n_fallback=int(
                np.count_nonzero(
                    (method == FALLBACK_METHOD) | (method == NUMERICAL_METHOD)
                )
            ),
            elapsed_seconds=elapsed_seconds,
            phases=dict(phases or {}),
        )

    def describe(self) -> str:
        rate = self.n_candidates / self.elapsed_seconds if self.elapsed_seconds else float("inf")
        return (
            f"{self.n_candidates} candidates ({self.n_feasible} feasible) in "
            f"{self.elapsed_seconds:.3f} s ({rate:,.0f}/s; "
            f"{self.n_vectorized} vectorized, {self.n_fallback} exact-numerical)"
        )


@dataclass
class ExplorationResult:
    """A fully evaluated scenario plus provenance.

    ``points`` is a lazy, list-compatible view over the columnar
    ``table`` (one ``PointResult`` materialised per index access);
    ``table`` carries the structure-of-arrays representation the
    analysis, caching and serving layers operate on directly.
    """

    scenario: Scenario
    method: str
    points: Sequence[PointResult]
    stats: EvaluationStats
    cache_hit: bool = False
    cache_key: str = ""
    cache_path: Path | None = None
    parity_checked: bool = False
    table: ResultTable | None = field(default=None, repr=False, compare=False)

    @property
    def feasible_points(self) -> list[PointResult]:
        return [p for p in self.points if p.feasible]

    @property
    def best(self) -> PointResult | None:
        """Cheapest feasible candidate, or None when nothing closes timing."""
        if self.table is not None:
            index = self.table.best_index()
            return None if index is None else self.table.row(index)
        feasible = self.feasible_points
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.ptot_or_inf)

    def describe(self) -> str:
        source = "cache hit" if self.cache_hit else "evaluated"
        lines = [
            f"scenario {self.scenario.name!r} [{self.method}] — {source}",
            f"  {self.stats.describe()}",
        ]
        best = self.best
        if best is not None:
            lines.append(f"  best: {best.describe()}")
        return "\n".join(lines)




def _closed_form_reason(name: str, margin: float, log_argument: float) -> str:
    """Reason string mirroring the scalar chain's exception messages."""
    if margin <= 0.0:
        chi_a = 1.0 - margin
        return (
            f"{name}: chi*A = {chi_a:.3f} >= 1 — the architecture cannot "
            f"meet timing in this technology at this frequency"
        )
    return (
        f"{name}: ln argument {log_argument:.3e} <= 1 "
        f"implies a non-positive optimal threshold"
    )


def _check_parity(
    columns: ExpandedColumns, batch, positions, indices
) -> None:
    """Spot-check vectorized values against the scalar closed form.

    ``positions`` index into the batch arrays, ``indices`` into the
    expanded grid; both are aligned.  Raises ``RuntimeError`` on drift —
    this is an internal-consistency invariant, not user error.
    """
    if not len(positions):
        return
    picks = sorted({0, len(positions) // 2, len(positions) - 1})
    for pick in picks[:PARITY_SAMPLES]:
        position, index = positions[pick], indices[pick]
        point = columns.design_point(index)
        scalar = closed_form_optimum(
            point.architecture, point.technology, point.frequency
        )
        vector_ptot = float(batch.ptot[position])
        drift = abs(vector_ptot - scalar.ptot) / scalar.ptot
        if not np.isfinite(vector_ptot) or drift > PARITY_RTOL:
            raise RuntimeError(
                f"vectorized/scalar parity violation at {point.describe()}: "
                f"batch Ptot={vector_ptot!r} vs closed form {scalar.ptot!r} "
                f"(rel. drift {drift:.3e} > {PARITY_RTOL:g})"
            )


def _fallback_task(columns: ExpandedColumns, indices: np.ndarray):
    """Batch-numerical task for the flagged subset of a columnar grid.

    χ is recomputed with :func:`~repro.solvers.batch_numerical.
    exact_chi` rather than reused from the kernel: the kernel's array
    ``pow`` may differ from scalar libm by 1 ULP, and the fallback
    solver's contract is bit-parity with the scalar reference.
    """
    from ..solvers.batch_numerical import (
        BatchNumericalTask,
        chi_denominator,
        exact_chi,
    )

    technologies = columns.technologies
    tech_io = np.array([t.io for t in technologies], dtype=float)
    tech_zeta = np.array([t.zeta for t in technologies], dtype=float)
    tech_inv_alpha = np.array(
        [1.0 / t.alpha for t in technologies], dtype=float
    )
    tech_n_ut = np.array([t.n_ut for t in technologies], dtype=float)
    tech_nominal = np.array(
        [t.vdd_nominal for t in technologies], dtype=float
    )
    tech_denominator = np.array(
        [chi_denominator(t) for t in technologies], dtype=float
    )
    tech_index = columns.tech_index[indices]
    inv_alpha = tech_inv_alpha[tech_index]
    return BatchNumericalTask(
        name=columns.arch_name[indices],
        n_cells=columns.n_cells[indices],
        activity=columns.activity[indices],
        capacitance=columns.capacitance[indices],
        frequency=columns.frequency[indices],
        chi=exact_chi(
            columns.logical_depth[indices],
            columns.frequency[indices],
            tech_zeta[tech_index] * columns.zeta_factor[indices],
            tech_denominator[tech_index],
            inv_alpha,
        ),
        io_power=tech_io[tech_index] * columns.io_factor[indices],
        inv_alpha=inv_alpha,
        n_ut=tech_n_ut[tech_index],
        vdd_lo=DEFAULT_VDD_SPAN[0] * tech_nominal[tech_index],
        vdd_hi=DEFAULT_VDD_SPAN[1] * tech_nominal[tech_index],
    )


def _solve_flagged(columns: ExpandedColumns, indices: np.ndarray):
    """Exact numerical optimum of the flagged rows, scalar or batch by size."""
    from ..solvers.batch_numerical import solve_batch
    from ..solvers.scalar import solve_rows

    if indices.size < SCALAR_FALLBACK_ROWS:
        # scipy's search steps through NaN on infeasible rows; the batch
        # port stays silent there, and so does this path.
        with np.errstate(invalid="ignore"):
            return solve_rows(numerical_optimum, columns, indices)
    return solve_batch(_fallback_task(columns, indices))


def _evaluate_columns(columns: ExpandedColumns, method: str) -> ResultTable:
    """The columnar core of the ``auto``, ``vectorized`` and ``numerical`` solvers.

    One vectorized kernel call per technology group, one exact
    numerical solve for the whole flagged set, results assembled by
    mask assignment into the table's column arrays.  ``vectorized``
    keeps every kernel row it can evaluate and flags none; ``auto``
    flags the rows the kernel does not trust; ``numerical`` skips the
    kernel and flags every row.  The ``kernel`` and ``fallback`` phase
    durations go to the active :func:`evaluate_table` timer.
    """
    deadline = current_deadline()
    rows_done = 0
    n = columns.n
    vdd = np.full(n, np.nan)
    vth = np.full(n, np.nan)
    pdyn = np.full(n, np.nan)
    pstat = np.full(n, np.nan)
    ptot = np.full(n, np.nan)
    feasible = np.zeros(n, dtype=bool)
    method_column = str_column(n, VECTORIZED_METHOD)
    reason = str_column(n, "")
    flagged = np.full(n, method == "numerical")
    fallback_method = (
        NUMERICAL_METHOD if method == "numerical" else FALLBACK_METHOD
    )

    kernel_technologies = () if method == "numerical" else columns.technologies
    with phase("kernel"):
        for tech_position, tech in enumerate(kernel_technologies):
            indices = np.flatnonzero(columns.tech_index == tech_position)
            if not indices.size:
                continue
            if deadline is None:
                # No deadline: one shot per technology group, the exact
                # pre-resilience path (byte-identical, zero overhead).
                chunks = (indices,)
            else:
                chunks = tuple(
                    indices[start : start + DEADLINE_CHUNK_ROWS]
                    for start in range(0, indices.size, DEADLINE_CHUNK_ROWS)
                )
            for part in chunks:
                if deadline is not None:
                    deadline.check(
                        "engine.kernel", rows_done=rows_done, rows_total=n
                    )
                batch = closed_form_batch(
                    tech, **batch_arrays_for_columns(columns, part)
                )
                trusted = batch.feasible & ~batch.needs_fallback
                keep = batch.feasible if method == "vectorized" else trusted
                kept = part[keep]
                vdd[kept] = batch.vdd[keep]
                vth[kept] = batch.vth[keep]
                pdyn[kept] = batch.pdyn[keep]
                pstat[kept] = batch.pstat[keep]
                ptot[kept] = batch.ptot[keep]
                feasible[kept] = True
                if method == "vectorized":
                    for position, index in zip(
                        np.flatnonzero(~batch.feasible).tolist(),
                        part[~batch.feasible].tolist(),
                    ):
                        reason[index] = _closed_form_reason(
                            columns.arch_name[index],
                            float(batch.margin[position]),
                            float(batch.log_argument[position]),
                        )
                else:
                    flagged[part[~trusted]] = True
                _check_parity(
                    columns, batch, np.flatnonzero(trusted), part[trusted]
                )
                rows_done += int(part.size)

    if flagged.any():
        flagged_indices = np.flatnonzero(flagged)
        if deadline is not None:
            deadline.check(
                "engine.fallback",
                rows_done=rows_done,
                rows_total=n,
                fallback_points=int(flagged_indices.size),
            )
        with phase("fallback", points=int(flagged_indices.size)):
            solution = _solve_flagged(columns, flagged_indices)
        vdd[flagged_indices] = solution.vdd
        vth[flagged_indices] = solution.vth
        pdyn[flagged_indices] = solution.pdyn
        pstat[flagged_indices] = solution.pstat
        ptot[flagged_indices] = solution.ptot
        feasible[flagged_indices] = solution.feasible
        method_column[flagged_indices] = fallback_method
        reason[flagged_indices] = solution.reason

    return ResultTable.for_columns(
        columns,
        feasible=feasible,
        method=method_column,
        vdd=vdd,
        vth=vth,
        pdyn=pdyn,
        pstat=pstat,
        ptot=ptot,
        reason=reason,
    )


def evaluate_table(
    scenario: Scenario,
    method: "str | Solver" = "auto",
    options: Mapping[str, Any] | None = None,
    timer: "obs.PhaseTimer | None" = None,
) -> ResultTable:
    """Evaluate a scenario straight to a columnar :class:`ResultTable`.

    ``method`` is a solver registry name or a :class:`~repro.solvers.
    Solver`; ``options`` are its keywords.  Pass an
    :class:`~repro.obs.PhaseTimer` to collect the per-phase wall-time
    breakdown (``expand``, then ``kernel`` and ``fallback`` for the
    batch solvers, ``solve`` for the scalar ones).
    """
    from ..solvers import get_solver

    solver = get_solver(method)
    timer = timer if timer is not None else obs.PhaseTimer("engine")
    with timer.phase("expand"):
        columns = expand_columns(scenario)
    token = _ACTIVE_TIMER.set(timer)
    try:
        return solver.solve(columns, **dict(options or {}))
    finally:
        _ACTIVE_TIMER.reset(token)


def cache_key(
    scenario: Scenario,
    solver: "str | Solver",
    options: Mapping[str, Any] | None = None,
) -> str:
    """The one result-cache (and single-flight) key of a sweep.

    Covers everything a result depends on: the sweep itself, the solver
    (by registry name, so ``"closed-form"`` and ``"closed_form"`` share
    entries) and its options, the payload schema, the package version
    (a proxy for model-equation changes) and the kernel's fallback
    thresholds — a release that moves any of them misses the old
    entries instead of serving stale results.
    """
    from .. import __version__
    from ..solvers import get_solver
    from .vectorized import FALLBACK_MARGIN, FIT_RANGE_TOLERANCE, VTH_FLOOR_NUT

    return content_hash(
        {
            "scenario": scenario.to_dict(),
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "fallback": [FALLBACK_MARGIN, FIT_RANGE_TOLERANCE, VTH_FLOOR_NUT],
            "solver": get_solver(solver).name,
            "options": dict(options or {}),
        }
    )


def store_result(
    cache: TieredCache,
    key: str,
    scenario: Scenario,
    solver: str,
    stats: EvaluationStats,
    table: ResultTable,
) -> Path | None:
    """Write one evaluated sweep under ``key``; None when the write fails.

    A failed cache write must not fail the sweep: the result is already
    computed and correct.
    """
    try:
        return cache.put(
            key,
            {
                "schema": CACHE_SCHEMA_VERSION,
                "solver": solver,
                "scenario": scenario.to_dict(),
                "stats": stats.to_dict(),
                "parity_checked": stats.n_vectorized > 0,
                "columns": table.to_payload_columns(),
            },
        )
    except (OSError, faults.FaultError):
        obs.inc("cache.disk.write_errors")
        return None


def explore(
    scenario: Scenario,
    method: "str | Solver" = "auto",
    options: Mapping[str, Any] | None = None,
    cache: TieredCache | ResultCache | str | Path | None = None,
    use_cache: bool = True,
) -> ExplorationResult:
    """Evaluate a scenario end to end, through the tiered result cache.

    Parameters
    ----------
    scenario:
        The sweep definition.
    method:
        A solver registry name (``"auto"`` by default, ``"vectorized"``,
        ``"numerical"``, ``"closed_form"``, ...) or a
        :class:`~repro.solvers.Solver`.
    options:
        Solver keywords, e.g. ``{"vth_max": 0.45}`` for ``"bounded"``.
    cache:
        A :class:`~repro.service.memcache.TieredCache`, a bare
        :class:`ResultCache`, a directory for one, or None for the
        default location.  Everything but a ready-made tiered cache
        gains the process-global in-memory LRU tier, so repeated sweeps
        within one process (the CLI, a notebook, the service) skip even
        the disk read.
    use_cache:
        When False, neither reads nor writes the cache.
    """
    from ..solvers import get_solver

    solver = get_solver(method)
    options = dict(options or {})
    timer = obs.PhaseTimer("engine")
    with obs.span("engine.explore", method=solver.name):
        cache = as_cache(cache)
        key = cache_key(scenario, solver, options)

        if use_cache:
            with timer.phase("cache_read"):
                stored = cache.get(key)
            if stored is not None:
                try:
                    with timer.phase("decode"):
                        table = ResultTable.from_cache_payload(stored)
                        stats = EvaluationStats.from_dict(stored["stats"])
                except (KeyError, ValueError, TypeError):
                    # The entry decoded but is not a result we
                    # can trust: quarantine it and recompute, the same
                    # contract as a torn file.
                    quarantine = getattr(cache, "quarantine", None)
                    if quarantine is not None:
                        quarantine(key)
                    stored = None
                else:
                    obs.inc(
                        "engine.runs", method=solver.name, outcome="cache_hit"
                    )
                    # A hit reports its own cost; the cold run's phase
                    # breakdown stays in the stored entry.
                    return ExplorationResult(
                        scenario=scenario,
                        method=solver.name,
                        points=table.rows(),
                        stats=replace(stats, phases=dict(timer.phases)),
                        cache_hit=True,
                        cache_key=key,
                        cache_path=cache.path_for(key),
                        parity_checked=bool(
                            stored.get("parity_checked", False)
                        ),
                        table=table,
                    )

        started = time.perf_counter()
        table = evaluate_table(scenario, solver, options, timer=timer)
        elapsed = time.perf_counter() - started

        with timer.phase("analysis"):
            stats = EvaluationStats.from_table(
                table, elapsed, phases=timer.phases
            )
        cache_path = None
        if use_cache:
            with timer.phase("cache_write"):
                cache_path = store_result(
                    cache, key, scenario, solver.name, stats, table
                )
        # The returned stats carry the complete phase map (including
        # cache_write, which the stored payload necessarily cannot).
        stats = replace(stats, phases=dict(timer.phases))
        obs.inc("engine.runs", method=solver.name, outcome="computed")
        obs.inc("engine.points_evaluated", stats.n_candidates)
        obs.inc("engine.kernel_seconds", timer.phases.get("kernel", 0.0))
        if stats.n_fallback:
            obs.inc("engine.fallback_points", stats.n_fallback)
        return ExplorationResult(
            scenario=scenario,
            method=solver.name,
            points=table.rows(),
            stats=stats,
            cache_hit=False,
            cache_key=key,
            cache_path=cache_path,
            parity_checked=stats.n_vectorized > 0,
            table=table,
        )
