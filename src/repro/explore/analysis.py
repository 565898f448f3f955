"""Analysis of evaluated design spaces: ranking, Pareto front, report.

The paper's selection answer is a single argmin (cheapest feasible
candidate at the target frequency); a swept design space supports a
richer one.  :func:`pareto_frontier` keeps every candidate not dominated
on (optimal power ↓, frequency ↑, area-proxy ↓) — the set a designer
actually chooses from when the clock target or the floorplan is still
negotiable — and :func:`report` renders the ranking as the kind of
fixed-width table the rest of this repository uses for paper artefacts.

Every helper here operates on the columnar
:class:`~.columnar.ResultTable` matrix directly when given one (or a
:class:`~.columnar.ResultRows` view, or an ``ExplorationResult`` /
``ResultSet`` whose records are such a view): objective columns are
sliced out of the table, the domination test is a vectorized sweep
instead of the historical O(n²) Python loop, and rows materialise only
where the caller actually reads them (the report's top-k, a ranked
list).  Plain ``PointResult`` lists keep working through the same
functions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .columnar import ResultRows, ResultTable
from .engine import PointResult

#: Default objectives: (attribute, sense).  ``min`` is cheaper-is-better,
#: ``max`` is more-is-better.
DEFAULT_OBJECTIVES: tuple[tuple[str, str], ...] = (
    ("ptot_or_inf", "min"),
    ("frequency", "max"),
    ("area_proxy", "min"),
)


def _as_table(points) -> ResultTable | None:
    """The columnar table behind ``points``, if there is one."""
    if isinstance(points, ResultTable):
        return points
    if isinstance(points, ResultRows):
        return points.table
    records = getattr(points, "records", None)
    if isinstance(records, ResultRows):
        return records.table
    return None


def _objective_values(
    points, table: ResultTable | None, attribute: str
) -> np.ndarray:
    if table is not None:
        try:
            return np.asarray(table.column(attribute), dtype=float)
        except KeyError:
            # Custom objective attribute: fall back to per-row access.
            points = table.rows()
    return np.array(
        [float(getattr(p, attribute)) for p in points], dtype=float
    )


def _objective_matrix(
    points,
    objectives: Sequence[tuple[str, str]],
    table: ResultTable | None = None,
) -> np.ndarray:
    """(n_points × n_objectives) matrix with every column minimised."""
    columns = []
    for attribute, sense in objectives:
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be min/max, got {sense!r}")
        values = _objective_values(points, table, attribute)
        columns.append(values if sense == "min" else -values)
    return np.column_stack(columns)


def _nondominated_mask(costs: np.ndarray) -> np.ndarray:
    """Non-dominated mask over a minimised cost matrix, vectorized.

    A point is dominated when some other point is no worse on every
    column and strictly better on at least one; exact duplicates never
    dominate each other (both stay efficient, matching the historical
    pairwise test).  Duplicates are collapsed first, then the classic
    shrinking sweep runs on the unique rows: each surviving row removes
    everything it strictly dominates in one vectorized comparison, so
    the cost is O(front × n) instead of O(n²).
    """
    n = len(costs)
    if n == 0:
        return np.zeros(0, dtype=bool)
    unique, inverse = np.unique(costs, axis=0, return_inverse=True)
    # On unique rows, "all(<=) and any(<)" collapses to "all(<=) and
    # not identical", so the strict test below is exact.
    survivors = np.arange(len(unique))
    costs_left = unique
    cursor = 0
    while cursor < len(costs_left):
        keep = np.any(costs_left < costs_left[cursor], axis=1)
        keep[cursor] = True
        survivors = survivors[keep]
        costs_left = costs_left[keep]
        cursor = int(np.count_nonzero(keep[:cursor])) + 1
    efficient_unique = np.zeros(len(unique), dtype=bool)
    efficient_unique[survivors] = True
    return efficient_unique[inverse]


def _ranked_indices(
    points,
    table: ResultTable | None,
    key: Callable[[PointResult], float] | None,
) -> np.ndarray:
    """Indices of ``points`` sorted cheapest-first (stable, +inf last)."""
    if key is None and table is not None:
        return np.argsort(table.column("ptot_or_inf"), kind="stable")
    if key is None:
        key = lambda p: p.ptot_or_inf  # noqa: E731
    order = sorted(range(len(points)), key=lambda i: key(points[i]))
    return np.asarray(order, dtype=np.intp)


def rank_points(
    points: Sequence[PointResult],
    key: Callable[[PointResult], float] | None = None,
) -> list[PointResult]:
    """Candidates sorted cheapest-first; infeasible ones last.

    +inf power sorts infeasible candidates to the tail.  Table-backed
    inputs rank by column argsort (stable, so tie order matches the
    historical sort) and materialise rows in ranked order; plain lists
    sort as before.
    """
    table = _as_table(points)
    if table is not None and key is None:
        order = _ranked_indices(points, table, None)
        return [table.row(int(i)) for i in order]
    if key is None:
        key = lambda p: p.ptot_or_inf  # noqa: E731
    return sorted(points, key=key)


def pareto_mask(
    points: Sequence[PointResult],
    objectives: Sequence[tuple[str, str]] = DEFAULT_OBJECTIVES,
) -> np.ndarray:
    """Boolean mask of non-dominated feasible points, aligned with input.

    A point dominates another when it is no worse on every objective and
    strictly better on at least one.  Infeasible points never make the
    front (and never dominate anything).
    """
    table = _as_table(points)
    if table is not None:
        feasible = np.asarray(table.feasible, dtype=bool)
    else:
        feasible = np.array([p.feasible for p in points], dtype=bool)
    mask = np.zeros(len(feasible), dtype=bool)
    feasible_indices = np.flatnonzero(feasible)
    if not feasible_indices.size:
        return mask
    if table is not None:
        values = _objective_matrix(
            points, objectives, table=table
        )[feasible_indices]
    else:
        values = _objective_matrix(
            [points[i] for i in feasible_indices], objectives
        )
    mask[feasible_indices] = _nondominated_mask(values)
    return mask


def pareto_frontier(
    points: Sequence[PointResult],
    objectives: Sequence[tuple[str, str]] = DEFAULT_OBJECTIVES,
) -> list[PointResult]:
    """The non-dominated feasible candidates, cheapest-first."""
    mask = pareto_mask(points, objectives)
    table = _as_table(points)
    if table is not None:
        front = table.take(np.flatnonzero(mask))
        return rank_points(front.rows())
    return rank_points([p for p, keep in zip(points, mask) if keep])


def report(
    points: Sequence[PointResult],
    top: int = 15,
    objectives: Sequence[tuple[str, str]] = DEFAULT_OBJECTIVES,
) -> str:
    """Fixed-width ranking table with Pareto membership marks.

    Shows the ``top`` cheapest candidates plus a one-line summary of the
    frontier and of the infeasible tail.  Works index-wise, so a
    table-backed input materialises only the ``top`` printed rows.
    """
    table = _as_table(points)
    mask = pareto_mask(points, objectives)
    order = _ranked_indices(points, table, None)
    if table is not None:
        n_points = len(table)
        n_feasible = table.n_feasible
        row_at = table.row
    else:
        n_points = len(points)
        n_feasible = sum(1 for p in points if p.feasible)
        row_at = lambda i: points[i]  # noqa: E731

    header = (
        f"{'#':>3} {'P':1} {'architecture':<24} {'technology':<14} "
        f"{'f [MHz]':>8} {'Vdd [V]':>8} {'Vth [V]':>8} {'Ptot [uW]':>10} "
        f"{'method':<22}"
    )
    lines = [header, "-" * len(header)]
    for position, index in enumerate(order[:top].tolist(), start=1):
        point = row_at(index)
        marker = "*" if mask[index] else " "
        if point.feasible:
            lines.append(
                f"{position:>3} {marker:1} {point.architecture:<24.24} "
                f"{point.technology:<14.14} {point.frequency / 1e6:>8.2f} "
                f"{point.vdd:>8.3f} {point.vth:>8.3f} "
                f"{point.ptot * 1e6:>10.2f} {point.method:<22}"
            )
        else:
            lines.append(
                f"{position:>3} {marker:1} {point.architecture:<24.24} "
                f"{point.technology:<14.14} {point.frequency / 1e6:>8.2f} "
                f"{'—':>8} {'—':>8} {'inf':>10} infeasible"
            )
    lines.append("-" * len(header))
    lines.append(
        f"{n_points} candidates: {n_feasible} feasible, "
        f"{n_points - n_feasible} infeasible, "
        f"{int(np.count_nonzero(mask))} on the Pareto frontier "
        f"(P column, objectives: "
        + ", ".join(f"{attr} {sense}" for attr, sense in objectives)
        + ")"
    )
    return "\n".join(lines)
