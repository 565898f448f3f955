"""One execution path: every solver through explore, jobs and the cache.

``Study.run``, a sharded job and a cache hit all go through
:func:`repro.explore.engine.explore` with the same solver and the same
:func:`~repro.explore.engine.cache_key`, so whatever the solver their
tables must be identical to the last bit.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.numerical import numerical_optimum
from repro.core.technology import flavour
from repro.explore.cache import ResultCache, read_entry
from repro.explore.columnar import ResultTable
from repro.explore.engine import SCALAR_FALLBACK_ROWS, evaluate_table, explore
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario
from repro.jobs import JobManager
from repro.service.memcache import MemoryCache, TieredCache
from repro.solvers import scalar as scalar_module
from repro.solvers.batch_numerical import solve_points
from repro.study import Study

WAIT = 60.0

#: Every built-in registry entry, with the options it needs.
SOLVERS = [
    ("auto", {}),
    ("vectorized", {}),
    ("numerical", {}),
    ("closed_form", {}),
    ("linearized", {}),
    ("bounded", {"vth_max": 0.45}),
]


def assert_tables_identical(got: ResultTable, want: ResultTable) -> None:
    """Column for column, bit for bit, NaN equal to NaN."""
    assert len(got) == len(want)
    for name, expected in want.columns.items():
        actual = got.columns[name]
        if expected.dtype.kind == "f":
            assert np.array_equal(actual, expected, equal_nan=True), name
        else:
            assert actual.tolist() == expected.tolist(), name


@pytest.mark.parametrize(
    "name,options", SOLVERS, ids=[name for name, _ in SOLVERS]
)
def test_run_job_and_cache_hit_are_bit_identical(name, options, tmp_path):
    scenario = demo_scenario(frequency_points=2)
    study = Study.from_scenario(scenario).solver(name, **options)
    ran = study.run()

    manager = JobManager(store=tmp_path / "jobs", cache=tmp_path / "cache")
    try:
        job = study.submit(shards=3, manager=manager).result(timeout=WAIT)
    finally:
        manager.close()
    # The job wrote its merged table under the shared key; a fresh memory
    # tier over the same directory must serve it from disk.
    fresh = TieredCache(ResultCache(tmp_path / "cache"), memory=MemoryCache())
    hit = (
        Study.from_scenario(scenario)
        .solver(name, **options)
        .cached(fresh)
        .run()
    )

    assert not ran.cache_hit and hit.cache_hit
    assert job.cache_key == hit.cache_key
    assert ran.solver == job.solver == hit.solver
    assert_tables_identical(job._table, ran._table)
    assert_tables_identical(hit._table, ran._table)


def test_numerical_equals_the_scalar_reference_row_for_row():
    scenario = demo_scenario(frequency_points=60)
    table = evaluate_table(scenario, method="numerical")
    infeasible = 0
    for point, row in zip(scenario.expand(), table.rows()):
        assert row.method == "numerical"
        try:
            reference = numerical_optimum(
                point.architecture, point.technology, point.frequency
            )
        except ValueError as error:
            infeasible += 1
            assert not row.feasible
            assert row.reason == str(error)
            assert row.ptot is None
        else:
            op = reference.point
            assert row.feasible and row.reason == ""
            assert (row.vdd, row.vth, row.pdyn, row.pstat, row.ptot) == (
                op.vdd,
                op.vth,
                op.pdyn,
                op.pstat,
                op.ptot,
            )
    assert infeasible > 0


@pytest.mark.parametrize(
    "n_flagged",
    [SCALAR_FALLBACK_ROWS - 1, SCALAR_FALLBACK_ROWS, SCALAR_FALLBACK_ROWS + 1],
)
def test_fallback_either_side_of_the_threshold_matches_solve_batch(
    n_flagged, wallace_arch, monkeypatch
):
    scalar_calls = []
    solve_rows = scalar_module.solve_rows

    def counting(*args, **kwargs):
        scalar_calls.append(args)
        return solve_rows(*args, **kwargs)

    monkeypatch.setattr(scalar_module, "solve_rows", counting)
    # The numerical solver flags every row; the grid reaches past the
    # feasibility boundary, so reasons are compared too.
    scenario = Scenario(
        name="threshold",
        architectures=(wallace_arch,),
        technologies=(flavour("LL"),),
        frequencies=FrequencyGrid.logspace(4e6, 4e9, n_flagged),
    )
    table = evaluate_table(scenario, method="numerical")
    batch = solve_points(scenario.expand())

    assert len(scalar_calls) == (n_flagged < SCALAR_FALLBACK_ROWS)
    for name in ("vdd", "vth", "pdyn", "pstat", "ptot"):
        assert np.array_equal(
            table.column(name), getattr(batch, name), equal_nan=True
        )
    assert table.feasible.tolist() == batch.feasible.tolist()
    assert table.column("reason").tolist() == batch.reason.tolist()
    assert not table.feasible.all()


def test_vectorized_is_one_name_on_every_door(tmp_path):
    """``Study``, ``explore`` and ``repro explore --method closed-form``
    reach the same kernel; ``closed-form`` on the registry is the scalar
    solver."""
    scenario = demo_scenario(frequency_points=3)
    studied = Study.from_scenario(scenario).solver("vectorized").run()._table
    explored = explore(scenario, method="vectorized", use_cache=False).table
    target = tmp_path / "sweep.npz"
    assert main([
        "explore", "--method", "closed-form", "--frequency-points", "3",
        "--no-cache", "--top", "1", "--export", str(target),
    ]) == 0
    exported = ResultTable.from_cache_payload(read_entry(target))

    assert set(studied.column("method")) == {"vectorized-closed-form"}
    assert_tables_identical(explored, studied)
    assert_tables_identical(exported, studied)
    scalar = explore(scenario, method="closed-form", use_cache=False).table
    assert set(scalar.column("method")) == {"closed_form"}
