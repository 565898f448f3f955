"""The engine's batch solvers behind the :class:`Solver` contract.

All three run :func:`repro.explore.engine._evaluate_columns` on the
expanded grid: the vectorized Eq. 9–13 kernel per technology group, the
built-in vectorized-vs-scalar parity check, and one exact numerical
solve of the flagged rows (scalar ``numerical_optimum`` for a handful
of rows, the lockstep batch port of :mod:`.batch_numerical` above
that; the two agree bit for bit).

``vectorized``
    The numpy closed-form kernel everywhere it is defined; no
    numerical solve at all.
``numerical``
    The exact reference solver for every row (no kernel).
``auto``
    The production policy: trust the vectorized kernel on the closed
    form's home turf and re-solve every flagged row — near the
    feasibility boundary ``1 − χA → 0``, near the Vth floor, outside the
    Eq. 7 fit range — with the exact numerical solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..explore.columnar import ExpandedColumns, ResultTable
from ..explore.engine import _evaluate_columns
from .base import check_options

__all__ = ["EngineSolver", "AUTO_SOLVER", "NUMERICAL_SOLVER", "VECTORIZED_SOLVER"]


@dataclass(frozen=True)
class EngineSolver:
    """One mode of the engine's columnar core exposed as a registry solver."""

    name: str
    summary: str
    engine_method: str

    def solve(self, columns: ExpandedColumns, **options) -> ResultTable:
        check_options(self.name, options, ())
        return _evaluate_columns(columns, self.engine_method)


VECTORIZED_SOLVER = EngineSolver(
    name="vectorized",
    summary="numpy Eq. 9-13 batch kernel wherever the closed form is defined",
    engine_method="vectorized",
)

NUMERICAL_SOLVER = EngineSolver(
    name="numerical",
    summary="exact numerical reference for every point",
    engine_method="numerical",
)

AUTO_SOLVER = EngineSolver(
    name="auto",
    summary="vectorized kernel + exact-numerical fallback near the boundary",
    engine_method="auto",
)
