"""Scalar solve paths wrapped into the uniform :class:`Solver` contract.

Each of these wraps one of the repository's historical one-point-at-a-
time entry points.  The wrapped function keeps its exact numerics — the
solver only normalises the *shape*: a sequence of design points in, an
aligned list of :class:`PointOutcome` out, infeasibility carried as a
reason string instead of an exception.

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
from typing import Callable, Sequence

from ..core.bounded import bounded_optimum
from ..core.closed_form import InfeasibleConstraintError, closed_form_optimum
from ..core.numerical import numerical_optimum_linearized
from ..core.optimum import OptimizationResult
from ..explore.engine import PointOutcome
from ..explore.scenario import DesignPoint
from .base import check_options

__all__ = [
    "ScalarSolver",
    "BOUNDED_SOLVER",
    "CLOSED_FORM_SOLVER",
    "LINEARIZED_SOLVER",
]


@dataclass(frozen=True)
class ScalarSolver:
    """A per-point solve function lifted to the batch solver contract.

    ``fn(arch, tech, frequency, **options)`` must return an
    :class:`OptimizationResult` or raise ``InfeasibleConstraintError`` /
    ``ValueError`` for infeasible problems (the contract every
    ``repro.core`` optimiser already honours).  ``jobs`` is accepted for
    signature uniformity and ignored — these paths are scalar by nature;
    use the ``numerical`` or ``auto`` registry entries for parallel and
    vectorized evaluation.
    """

    name: str
    summary: str
    fn: Callable[..., OptimizationResult]
    allowed_options: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)

    def solve(
        self,
        points: Sequence[DesignPoint],
        jobs: int | None = None,
        **options,
    ) -> list[PointOutcome]:
        check_options(self.name, options, self.allowed_options)
        merged = {**self.defaults, **options}
        outcomes = []
        for point in points:
            try:
                result = self.fn(
                    point.architecture, point.technology, point.frequency, **merged
                )
            except (InfeasibleConstraintError, ValueError) as error:
                outcomes.append(
                    PointOutcome(
                        point=point, result=None, reason=str(error), method=self.name
                    )
                )
            else:
                outcomes.append(
                    PointOutcome(point=point, result=result, method=self.name)
                )
        return outcomes


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
