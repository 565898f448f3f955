"""Correctness verdicts for every benchmarked operation.

Each check returns ``None`` when the output is right and a one-line
reason when it is not; the caller counts a reason as a failed
operation.  References are computed outside the timed window.

- :func:`tables_differ`: bit-for-bit equality of two result tables,
  NaN equal to NaN, row order included.
- :func:`records_differ`: the same for one single-point record.
- :func:`spot_check`: re-solve sampled rows with the scalar reference
  (closed form or exact numerical, as the row's method says) and check
  the timing constraint at each reported optimum.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from repro.core.closed_form import closed_form_optimum
from repro.core.constraint import (
    chi_for_architecture,
    default_fit,
    operating_point_consistency,
    vth_linearized,
)
from repro.core.numerical import numerical_optimum
from repro.explore.columnar import ResultTable
from repro.explore.scenario import Scenario

#: Relative tolerance of the scalar spot check: the vectorized kernel
#: and the scalar closed form do the same arithmetic in another order.
SCALAR_RTOL = 1e-9

#: Slack tolerance of the timing-constraint check.
SLACK_TOL = 1e-9

_CLOSED_FORM_METHOD = "vectorized-closed-form"
_OPERATING_POINT = ("vdd", "vth", "pdyn", "pstat", "ptot")


def _floats_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-element mask: bits differ, unless both values are NaN."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    differ = a.view(np.uint64) != b.view(np.uint64)
    return differ & ~(np.isnan(a) & np.isnan(b))


def tables_differ(got: ResultTable, want: ResultTable) -> str | None:
    """Why ``got`` is not bit-identical to ``want``, or None."""
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for name, expected in want.columns.items():
        actual = got.columns[name]
        if expected.dtype.kind == "f":
            bad = _floats_differ(actual, expected)
        else:
            bad = np.asarray(actual != expected, dtype=bool)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            return (
                f"column {name!r} differs in {int(bad.sum())} rows, "
                f"first at row {row}: {actual[row]!r} != {expected[row]!r}"
            )
    return None


def table_of(records: Iterable) -> ResultTable:
    """A result table from a ``ResultSet``'s records (lazy rows or a list)."""
    table = getattr(records, "table", None)
    if isinstance(table, ResultTable):
        return table
    return ResultTable.from_records(list(records))


def records_differ(got, want) -> str | None:
    """Why record ``got`` differs from ``want`` (same rules as tables)."""
    return tables_differ(table_of([got]), table_of([want]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCALAR_RTOL, abs_tol=0.0)


def row_differs_from_scalar(
    row, architectures: Mapping, technologies: Mapping
) -> str | None:
    """Scalar re-solve and timing check of one ``PointResult``.

    ``architectures`` and ``technologies`` map the row's names to the
    model objects the row was solved for.
    """
    arch = architectures[row.architecture]
    tech = technologies[row.technology]
    frequency = row.frequency
    label = f"{row.architecture}/{row.technology}@{frequency:.6g}Hz"
    if row.method == _CLOSED_FORM_METHOD:
        reference = closed_form_optimum(arch, tech, frequency)
    else:
        try:
            reference = numerical_optimum(arch, tech, frequency)
        except ValueError:
            reference = None
    if reference is None:
        if row.feasible:
            return f"{label}: feasible, scalar reference is infeasible"
        return None
    if not row.feasible:
        return f"{label}: infeasible, scalar reference is feasible"
    point = reference.point
    for name in _OPERATING_POINT:
        if not _close(getattr(row, name), getattr(point, name)):
            return (
                f"{label}: {name} {getattr(row, name)!r} != scalar "
                f"{getattr(point, name)!r}"
            )
    if row.method == _CLOSED_FORM_METHOD:
        # The closed form sits on the linearised constraint (Eq. 8).
        chi_value = chi_for_architecture(arch, tech, frequency)
        expected = float(vth_linearized(row.vdd, chi_value, default_fit(tech)))
        if not _close(row.vth, expected):
            return f"{label}: vth {row.vth!r} off the Eq. 8 constraint"
    else:
        slack = operating_point_consistency(
            arch, tech, frequency, row.vdd, row.vth
        )
        if slack < -SLACK_TOL:
            return f"{label}: timing violated (relative slack {slack:.3g})"
    return None


def spot_check(
    table: ResultTable, scenario: Scenario, rows: Iterable[int]
) -> str | None:
    """Scalar re-solve of the sampled ``rows``; first failure or None."""
    architectures = {a.name: a for a in scenario.derived_architectures()}
    technologies = {t.name: t for t in scenario.technologies}
    for index in rows:
        reason = row_differs_from_scalar(
            table.row(index), architectures, technologies
        )
        if reason is not None:
            return f"row {index}: {reason}"
    return None
