"""The :class:`Solver` protocol — one signature for every solve path.

Every way the repository answers "which (Vdd, Vth) minimises total
power at frequency f?" — the vectorized kernel, the exact numerical
reference, the scalar closed form, the bounded and linearised variants,
and any solver a user registers — honours one columnar contract:

    ``solve(columns, **options) -> ResultTable``

* ``columns`` is the scenario's candidate grid as an
  :class:`repro.explore.columnar.ExpandedColumns` (one array per model
  input, one row per candidate, ``columns.design_point(i)`` materialises
  row ``i`` when a solver needs the objects).
* The returned :class:`repro.explore.columnar.ResultTable` is aligned
  with ``columns``, row for row;
  :meth:`~repro.explore.columnar.ResultTable.for_columns` builds one
  from the solver's result arrays.
* Infeasibility is **data, not an exception**: an infeasible row has
  ``feasible`` False, NaN operating point and a human-readable
  ``reason``.
* ``options`` are solver-specific keywords (e.g. ``vth_max`` for the
  bounded solver); solvers must reject unknown options loudly.

:func:`repro.explore.engine.explore` is the one door every caller goes
through; it expands the scenario, caches by :func:`~repro.explore.
engine.cache_key` and calls ``solve``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..explore.columnar import ExpandedColumns, ResultTable

__all__ = ["Solver", "SolverError"]


class SolverError(ValueError):
    """Raised for solver-level misuse (unknown name, bad options)."""


@runtime_checkable
class Solver(Protocol):
    """Anything that evaluates a candidate grid under the uniform contract.

    Implementations carry a ``name`` (the registry key) and a one-line
    ``summary`` used by CLI/API listings.
    """

    name: str
    summary: str

    def solve(self, columns: ExpandedColumns, **options) -> ResultTable:
        """Evaluate every row; the table aligns with ``columns``."""
        ...


def check_options(solver_name: str, options, allowed: tuple[str, ...]) -> None:
    """Reject option typos instead of silently ignoring them."""
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        allowed_text = ", ".join(allowed) if allowed else "none"
        raise SolverError(
            f"solver {solver_name!r} got unknown option(s) "
            f"{', '.join(unknown)}; allowed: {allowed_text}"
        )
