"""Tests of the benchmark itself: inputs, verdicts, metric names, spans."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.explore.columnar import ResultTable
from repro.explore.engine import evaluate_table
from repro.explore.scenario import demo_scenario

from perfbench import checks, layers, timed
from perfbench.run import WORKLOADS
from perfbench.inputs import SWEEP_ROWS, point_request, sweep_scenario
from perfbench.spans import SpanRecorder, covered

ROOT = Path(__file__).resolve().parent.parent


def _requests(seed: int) -> list:
    return [point_request(seed, index) for index in range(50)]


def test_same_seed_same_inputs():
    assert sweep_scenario(7, 3) == sweep_scenario(7, 3)
    assert sweep_scenario(7, 3).to_dict() == sweep_scenario(7, 3).to_dict()
    assert _requests(7) == _requests(7)


def test_other_seed_other_inputs():
    assert sweep_scenario(7, 3).frequencies != sweep_scenario(8, 3).frequencies
    assert sweep_scenario(7, 3).frequencies != sweep_scenario(7, 4).frequencies
    assert _requests(7) != _requests(8)


def test_sweeps_are_full_size_and_points_use_exact_solvers():
    assert sweep_scenario(1, 0).size == SWEEP_ROWS
    assert {r.solver for r in _requests(1)} == {"auto", "numerical"}


@pytest.fixture(scope="module")
def table() -> ResultTable:
    return evaluate_table(demo_scenario(frequency_points=4))


def _copy(table: ResultTable) -> ResultTable:
    return ResultTable({k: v.copy() for k, v in table.columns.items()})


def test_identical_tables_pass(table):
    assert checks.tables_differ(_copy(table), table) is None


def test_nan_equals_nan(table):
    other = _copy(table)
    ptot = other.columns["ptot"]
    nan = np.flatnonzero(np.isnan(ptot))
    assert nan.size
    # Other NaN bits (sign flipped): still NaN, so still equal.
    ptot.view(np.uint64)[nan] ^= np.uint64(1 << 63)
    assert np.isnan(ptot[nan]).all()
    assert (ptot.view(np.uint64) != table.columns["ptot"].view(np.uint64)).any()
    assert checks.tables_differ(other, table) is None


def test_one_flipped_float_bit_fails(table):
    bad = _copy(table)
    row = int(np.flatnonzero(bad.feasible)[0])
    bits = bad.columns["vdd"].view(np.uint64)
    bits[row] ^= np.uint64(1)
    assert checks.tables_differ(bad, table) is not None


def test_dropped_row_fails(table):
    assert checks.tables_differ(table.take(np.arange(1, len(table))), table)


def test_reordered_rows_fail(table):
    order = np.arange(len(table))
    order[[0, 1]] = order[[1, 0]]
    assert checks.tables_differ(table.take(order), table) is not None


def test_spot_check_accepts_engine_rows_and_rejects_a_bad_optimum(table):
    scenario = demo_scenario(frequency_points=4)
    rows = range(len(table))
    assert checks.spot_check(table, scenario, rows) is None
    bad = _copy(table)
    row = int(np.flatnonzero(bad.feasible)[0])
    bad.columns["ptot"][row] *= 1.001
    assert checks.spot_check(bad, scenario, rows) is not None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == timed.METRICS
    assert per_layer == layers.METRICS
    assert list(end_to_end) == list(timed.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_one_verdict_per_operation():
    tally = timed.Tally()
    tally.attempt()
    tally.check("sweep", None, "rows differ", "not a hit")
    tally.check("sweep", None, None)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures == ["sweep: rows differ"]


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    with recorder.span("op") as root:
        with recorder.span("layer"):
            sum(range(20_000))
    child = recorder.children(root)[0]
    assert child.run_id == root.run_id
    assert recorder.self_time(root) == pytest.approx(
        root.duration - child.duration
    )
    assert 0.0 < recorder.coverage(root) <= 1.0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inproc",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
