"""Scalar solve paths wrapped into the uniform :class:`Solver` contract.

Each of these wraps one of the repository's one-point-at-a-time
entry points.  The wrapped function keeps its exact numerics — the
solver only normalises the *shape*: an expanded candidate grid in, an
aligned :class:`~repro.explore.columnar.ResultTable` out, filled row by
row, infeasibility carried as a reason string instead of an exception.

``closed_form``
    Eqs. 9/10/8 via :func:`repro.core.closed_form.closed_form_optimum`
    (the paper's Section 3 chain, scalar).
``linearized``
    Numerical optimum on the *linearised* constraint
    (:func:`repro.core.numerical.numerical_optimum_linearized`), the
    ablation-A4 path.
``bounded``
    Practical voltage caps (:func:`repro.core.bounded.bounded_optimum`);
    options ``vth_max`` and ``vdd_bounds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.bounded import bounded_optimum
from ..core.closed_form import closed_form_optimum
from ..core.numerical import numerical_optimum_linearized
from ..core.optimum import OptimizationResult
from ..explore.columnar import ExpandedColumns, ResultTable, str_column
from ..explore.engine import phase
from .base import check_options
from .batch_numerical import BatchNumericalSolution

__all__ = [
    "ScalarSolver",
    "BOUNDED_SOLVER",
    "CLOSED_FORM_SOLVER",
    "LINEARIZED_SOLVER",
    "solve_rows",
]


def solve_rows(
    fn: Callable[..., OptimizationResult],
    columns: ExpandedColumns,
    indices: np.ndarray,
    **options,
) -> BatchNumericalSolution:
    """Call ``fn`` on the selected rows, one at a time, into result arrays.

    ``fn(arch, tech, frequency, **options)`` returns an
    :class:`OptimizationResult` or raises ``ValueError`` (which
    ``InfeasibleConstraintError`` is) for an infeasible row; the
    message becomes the row's reason.
    """
    n = len(indices)
    vdd, vth, pdyn, pstat, ptot = (np.full(n, np.nan) for _ in range(5))
    feasible = np.zeros(n, dtype=bool)
    reason = str_column(n, "")
    for position, index in enumerate(np.asarray(indices).tolist()):
        point = columns.design_point(index)
        try:
            result = fn(
                point.architecture, point.technology, point.frequency, **options
            )
        except ValueError as error:
            reason[position] = str(error)
            continue
        op = result.point
        vdd[position], vth[position] = op.vdd, op.vth
        pdyn[position], pstat[position], ptot[position] = (
            op.pdyn,
            op.pstat,
            op.ptot,
        )
        feasible[position] = True
    return BatchNumericalSolution(
        vdd=vdd,
        vth=vth,
        pdyn=pdyn,
        pstat=pstat,
        ptot=ptot,
        feasible=feasible,
        reason=reason,
    )


@dataclass(frozen=True)
class ScalarSolver:
    """A per-point solve function lifted to the columnar solver contract.

    ``fn(arch, tech, frequency, **options)`` must return an
    :class:`OptimizationResult` or raise ``InfeasibleConstraintError`` /
    ``ValueError`` for infeasible problems (the contract every
    ``repro.core`` optimiser already honours).  Rows are tagged with the
    solver's name.
    """

    name: str
    summary: str
    fn: Callable[..., OptimizationResult]
    allowed_options: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)

    def solve(self, columns: ExpandedColumns, **options) -> ResultTable:
        check_options(self.name, options, self.allowed_options)
        with phase("solve", solver=self.name):
            solution = solve_rows(
                self.fn,
                columns,
                np.arange(columns.n),
                **{**self.defaults, **options},
            )
        return ResultTable.for_columns(
            columns,
            feasible=solution.feasible,
            method=str_column(columns.n, self.name),
            vdd=solution.vdd,
            vth=solution.vth,
            pdyn=solution.pdyn,
            pstat=solution.pstat,
            ptot=solution.ptot,
            reason=solution.reason,
        )


CLOSED_FORM_SOLVER = ScalarSolver(
    name="closed_form",
    summary="paper Eqs. 9/10/8 closed-form chain, one point at a time",
    fn=closed_form_optimum,
    allowed_options=("chi_value", "fit"),
)

LINEARIZED_SOLVER = ScalarSolver(
    name="linearized",
    summary="numerical optimum on the linearised Eq. 8 constraint (ablation A4)",
    fn=numerical_optimum_linearized,
    allowed_options=("chi_value", "fit", "vdd_span"),
)

BOUNDED_SOLVER = ScalarSolver(
    name="bounded",
    summary="exact optimum under practical Vth/Vdd caps (vth_max, vdd_bounds)",
    fn=bounded_optimum,
    allowed_options=("vth_max", "vdd_bounds", "chi_value"),
)
