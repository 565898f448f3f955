"""Removed names fail cleanly on every door.

A removed solver name is an unknown solver: the fluent builder rejects
it when the study is built, the HTTP service answers 400
``unknown-solver``, and a job persisted under it before the upgrade
fails on recovery without stalling the dispatcher.  The removed object
pipeline, the process pool and the old result codecs are gone from the
import surface.
"""

import pytest

from repro.explore.scenario import demo_scenario
from repro.jobs import JobManager, JobStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ExplorationServer, ServiceConfig
from repro.solvers import SolverError
from repro.study import Study

#: Registry names that earlier releases accepted and this one does not.
REMOVED_SOLVERS = ("surrogate", "numerical_scalar")

ARCH = {
    "name": "wallace16",
    "n_cells": 729,
    "activity": 0.2976,
    "logical_depth": 17,
    "capacitance": 70e-15,
}

WAIT = 30.0


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("removed-solvers-cache")
    server = ExplorationServer(
        ServiceConfig(port=0, workers=2, cache_dir=str(cache_dir))
    )
    server.start_background()
    try:
        yield ServiceClient(server.url, timeout=60.0)
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("name", REMOVED_SOLVERS)
def test_study_rejects_removed_solver_at_build_time(name):
    with pytest.raises(SolverError):
        Study().solver(name)


@pytest.mark.parametrize("name", REMOVED_SOLVERS)
def test_optimize_with_removed_solver_is_400(client, name):
    with pytest.raises(ServiceError) as excinfo:
        client.optimize(ARCH, "LL", 31.25e6, solver=name)
    assert excinfo.value.status == 400
    assert excinfo.value.kind == "unknown-solver"


@pytest.mark.parametrize("name", REMOVED_SOLVERS)
def test_recovered_job_with_removed_solver_fails_and_queue_moves_on(
    tmp_path, name
):
    store = JobStore(tmp_path / "jobs")
    scenario = demo_scenario(frequency_points=2).to_dict()
    stale = store.create(scenario, solver=name, shards=2)
    store.transition(stale.id, "running")
    after = store.create(scenario, solver="auto")

    manager = JobManager(store=store, cache=tmp_path / "cache", recover=True)
    try:
        failed = manager.wait(stale.id, timeout=WAIT)
        assert failed["state"] == "failed"
        assert failed["error"].startswith("SolverError:")
        assert name in failed["error"]
        assert manager.wait(after.id, timeout=WAIT)["state"] == "done"
    finally:
        manager.close()


def test_the_object_pipeline_and_process_pool_are_gone():
    """The columnar ``explore`` path is the only one left."""
    import importlib

    import repro.explore
    import repro.explore.engine

    with pytest.raises(ImportError):
        importlib.import_module("repro.explore.executor")
    for module in (repro.explore, repro.explore.engine):
        assert not hasattr(module, "evaluate_points")
        assert not hasattr(module, "PointOutcome")
    assert not hasattr(Study, "jobs")


def test_the_json_list_and_compressed_result_codecs_are_gone():
    """``write_entry``/``read_entry`` are the one result-file codec."""
    import repro.explore.columnar as columnar
    from repro.explore.columnar import ResultTable

    for name in ("save_npz", "load_npz", "from_payload_columns"):
        assert not hasattr(ResultTable, name)
    assert not hasattr(columnar, "NPZ_SCHEMA_VERSION")


def test_the_client_stream_knob_is_gone():
    """Results travel as one binary archive; NDJSON is for curl."""
    import inspect

    import repro.service.client as client_module

    for method in (ServiceClient.explore, ServiceClient.job_result):
        assert "stream" not in inspect.signature(method).parameters
    for name in ("STREAM_THRESHOLD", "_split_ndjson", "_resultset_from_payload"):
        assert not hasattr(client_module, name)
