"""Seeded workload inputs: sweep scenarios and single-point requests.

Everything the benchmark feeds the program is a pure function of the
run seed and an index, so the same seed replays the same scenarios and
the same request sequence, and two seeds give different ones.  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import dataclasses
import math
import random
from functools import lru_cache
from typing import NamedTuple

from repro.core.architecture import ArchitectureParameters
from repro.core.technology import flavour
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario

#: 2 architectures x 4 transform chains x 3 flavours x 4200 frequencies.
FREQUENCY_POINTS = 4200
SWEEP_ROWS = 100_800

#: Solvers a single-point request may name.  ``surrogate`` is left out
#: on purpose: it is approximate and may be removed from the catalog.
POINT_SOLVERS = ("auto", "numerical")

#: Log-uniform ranges of the sweep's frequency grid ends [Hz].  They
#: move the exact-fallback share (a few percent up to ~10%).
SWEEP_LOW = (1.5e6, 3.0e6)
SWEEP_HIGH = (45e6, 90e6)

#: Log-uniform range of single-point frequencies [Hz].
POINT_RANGE = (2e6, 64e6)


class PointRequest(NamedTuple):
    architecture: ArchitectureParameters
    technology: str
    frequency: float
    solver: str

    def scenario(self, name: str = "perfbench-point") -> Scenario:
        """The one-candidate scenario a single-point ``Study`` runs."""
        return Scenario(
            name=name,
            architectures=(self.architecture,),
            technologies=(flavour(self.technology),),
            frequencies=FrequencyGrid.single(self.frequency),
        )


@lru_cache(maxsize=1)
def _base() -> Scenario:
    return demo_scenario(frequency_points=FREQUENCY_POINTS)


@lru_cache(maxsize=1)
def point_architectures() -> tuple[ArchitectureParameters, ...]:
    """The demo space's derived architectures, the pool points draw from."""
    return tuple(_base().derived_architectures())


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def sweep_scenario(seed: int, index: int) -> Scenario:
    """The ``index``-th never-seen 100,800-point sweep of run ``seed``."""
    rng = random.Random(f"perfbench:sweep:{seed}:{index}")
    low = _log_uniform(rng, *SWEEP_LOW)
    high = _log_uniform(rng, *SWEEP_HIGH)
    return dataclasses.replace(
        _base(),
        name=f"perfbench-{seed}-{index}",
        frequencies=FrequencyGrid.logspace(low, high, FREQUENCY_POINTS),
    )


def point_request(seed: int, index: int) -> PointRequest:
    """The ``index``-th single-point request of run ``seed``."""
    rng = random.Random(f"perfbench:point:{seed}:{index}")
    return PointRequest(
        architecture=rng.choice(point_architectures()),
        technology=rng.choice(("ULL", "LL", "HS")),
        frequency=_log_uniform(rng, *POINT_RANGE),
        solver=rng.choice(POINT_SOLVERS),
    )


def sample_rows(seed: int, index: int, n_rows: int, count: int) -> list[int]:
    """Rows of sweep ``index`` that the scalar spot check re-solves."""
    rng = random.Random(f"perfbench:rows:{seed}:{index}")
    return sorted(rng.sample(range(n_rows), count))
