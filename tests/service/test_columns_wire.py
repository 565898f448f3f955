"""The binary result wire: ``Accept: application/x-repro-columns``.

``ServiceClient.explore`` and ``job_result`` fetch one result archive
and decode it into a ``ResultTable`` without building rows.  Every such
result is bit-identical to a fresh in-process ``evaluate_table``, and
so are the JSON and NDJSON answers to the same request; errors stay
structured JSON; and a body that is not a readable archive is a
``ServiceError(502)``, never a bare ``ValueError`` and never unpickled.
"""

import io
import json
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.architecture import ArchitectureParameters
from repro.core.technology import flavour
from repro.explore.cache import encode_entry, read_entry
from repro.explore.columnar import ResultTable
from repro.explore.engine import evaluate_table
from repro.explore.scenario import (
    FrequencyGrid,
    Scenario,
    demo_scenario,
    parallelize_step,
    pipeline_step,
    sequentialize_step,
)
from repro.resilience import DEADLINE_HEADER
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    COLUMNS_CONTENT_TYPE,
    ExplorationServer,
    ServiceConfig,
)

from . import wire

WAIT = 30.0
SEED = 7


def assert_bit_identical(got: ResultTable, want: ResultTable) -> None:
    """Same rows; float and bool bytes equal; strings equal exactly."""
    assert len(got) == len(want)
    for name, column in want.columns.items():
        actual = got.columns[name]
        assert actual.dtype == column.dtype, name
        if column.dtype == object:
            assert actual.tolist() == column.tolist(), name
        else:
            assert actual.tobytes() == column.tobytes(), name


def assert_same_values(got: ResultTable, want: ResultTable) -> None:
    """Bit-identical, except that any NaN equals any NaN (text formats)."""
    assert len(got) == len(want)
    for name, column in want.columns.items():
        actual = got.columns[name]
        if column.dtype.kind == "f":
            both_nan = np.isnan(actual) & np.isnan(column)
            same = actual.view(np.uint64) == column.view(np.uint64)
            assert (same | both_nan).all(), name
        else:
            assert actual.tolist() == column.tolist(), name


def start(**config) -> ExplorationServer:
    server = ExplorationServer(ServiceConfig(**{"port": 0, "workers": 2, **config}))
    server.start_background()
    return server


def stop(server: ExplorationServer) -> None:
    server.shutdown()
    server.server_close()


@pytest.fixture
def serving():
    """Start servers on demand; every one is stopped at teardown."""
    servers = []

    def serve(**config):
        servers.append(start(**config))
        return servers[-1], ServiceClient(servers[-1].url, timeout=WAIT)

    yield serve
    for server in servers:
        stop(server)


@pytest.fixture(scope="module")
def jobs_server():
    """One cache-less server: every job shards and merges for real."""
    with tempfile.TemporaryDirectory() as root:
        server = start(use_cache=False, jobs_dir=f"{root}/jobs")
        try:
            yield server
        finally:
            stop(server)


# ---------------------------------------------------------------------------
# Bit-identical parity over generated scenarios.
# ---------------------------------------------------------------------------

architectures = st.builds(
    ArchitectureParameters,
    name=st.text(min_size=1, max_size=6),
    n_cells=st.floats(50, 10_000),
    activity=st.floats(0.02, 4.0),
    logical_depth=st.floats(3.0, 300.0),
    capacitance=st.floats(5e-15, 3e-13),
    area=st.floats(0.0, 2e4),
    io_factor=st.floats(5.0, 40.0),
    zeta_factor=st.floats(0.05, 0.6),
)

CHAINS = ((), (pipeline_step(2),), (parallelize_step(2),), (sequentialize_step(4),))


@st.composite
def scenarios(draw) -> Scenario:
    # Up to 1 GHz: deep or slow designs fail timing, so NaN columns and
    # infeasibility reasons cross the wire too.
    frequencies = draw(
        st.lists(st.floats(1e5, 1e9), min_size=1, max_size=4, unique=True)
    )
    return Scenario(
        name=draw(st.text(max_size=8)),
        architectures=tuple(
            draw(
                st.lists(
                    architectures,
                    min_size=1,
                    max_size=2,
                    unique_by=lambda a: a.name,
                )
            )
        ),
        technologies=tuple(
            flavour(name)
            for name in draw(
                st.lists(
                    st.sampled_from(["ULL", "LL", "HS"]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        ),
        frequencies=FrequencyGrid(tuple(frequencies)),
        transform_chains=tuple(
            draw(
                st.lists(
                    st.sampled_from(CHAINS), min_size=1, max_size=2, unique=True
                )
            )
        ),
    )


def _job_table(client: ServiceClient, scenario: Scenario, shards: int):
    handle = client.submit(scenario, shards=shards)
    status = client.wait(handle.id, timeout=WAIT, poll=0.02)
    assert status["state"] == "done"
    result = client.job_result(handle.id)
    assert not result.partial and not result.cache_hit
    assert result.scenario == scenario
    return handle.id, result.records.table


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios())
def test_every_binary_result_is_bit_identical(jobs_server, scenario):
    reference = evaluate_table(scenario)
    with tempfile.TemporaryDirectory() as cache_dir:
        server = start(cache_dir=cache_dir)
        try:
            client = ServiceClient(server.url, timeout=WAIT)
            cold = client.explore(scenario)
            assert not cold.cache_hit
            hit = client.explore(scenario)
            assert hit.cache_hit
            assert server.state.cache.memory.stats()["hits"] == 1
            request = {"scenario": scenario.to_dict()}
            (_, plain), (header, streamed) = wire.text_results(
                server.url + "/v1/explore", request
            )
        finally:
            stop(server)
        restarted = start(cache_dir=cache_dir)
        try:
            disk = ServiceClient(restarted.url, timeout=WAIT).explore(scenario)
            assert disk.cache_hit
            assert restarted.state.cache.memory.stats()["hits"] == 0
        finally:
            stop(restarted)
    for result in (cold, hit, disk):
        assert result.scenario == scenario
        assert result.solver == "auto"
        assert_bit_identical(result.records.table, reference)
    assert header["n_records"] == len(reference)
    assert_same_values(plain, reference)
    assert_same_values(streamed, reference)

    jobs = ServiceClient(jobs_server.url, timeout=WAIT)
    for shards in (1, 3):
        job_id, table = _job_table(jobs, scenario, shards)
        assert_bit_identical(table, reference)
        (_, plain), (_, streamed) = wire.text_results(
            f"{jobs_server.url}/v1/jobs/{job_id}/result"
        )
        assert_same_values(plain, reference)
        assert_same_values(streamed, reference)


def test_all_three_formats_carry_one_header(serving):
    server, client = serving()
    scenario = demo_scenario(frequency_points=2)
    client.explore(scenario)
    request = {"scenario": scenario.to_dict()}
    url = server.url + "/v1/explore"
    content_type, body = wire.fetch(url, request, accept=COLUMNS_CONTENT_TYPE)
    assert content_type == COLUMNS_CONTENT_TYPE
    archive = read_entry(io.BytesIO(body))
    (plain, _), (streamed, _) = wire.text_results(url, request)
    columns = archive.pop("columns")
    assert len(columns["ptot"]) == archive["n_records"] == scenario.size
    # Each hit times its own phases; every other key and value is shared.
    for header in (archive, plain, streamed):
        header["stats"]["phases"] = {}
    assert archive == plain == streamed


def test_binary_response_keeps_the_connection_open(serving):
    import http.client

    server, _ = serving()
    body = json.dumps(
        {"scenario": demo_scenario(frequency_points=2).to_dict()}
    )
    headers = {
        "Accept": COLUMNS_CONTENT_TYPE,
        "Content-Type": "application/json",
    }
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=WAIT)
    try:
        for _ in range(2):
            connection.request("POST", "/v1/explore", body, headers)
            response = connection.getresponse()
            data = response.read()
            assert response.status == 200
            assert int(response.headers["Content-Length"]) == len(data)
            assert response.headers.get("Connection") != "close"
    finally:
        connection.close()


def test_stream_query_still_means_ndjson(serving):
    server, _ = serving()
    scenario = demo_scenario(frequency_points=2)
    content_type, body = wire.fetch(
        server.url + "/v1/explore?stream=ndjson",
        {"scenario": scenario.to_dict()},
        accept=COLUMNS_CONTENT_TYPE,
    )
    assert content_type == "application/x-ndjson"
    header, table = wire.ndjson_result(body)
    assert len(table) == header["n_records"] == scenario.size


def test_encode_and_bytes_are_observable(serving):
    server, client = serving()
    scenario = demo_scenario(frequency_points=2)
    client.explore(scenario)
    request = {"scenario": scenario.to_dict()}
    wire.text_results(server.url + "/v1/explore", request)
    counters = client.metrics()["counters"]
    for fmt in ("columns", "json", "ndjson"):
        key = f"http.response_bytes{{format={fmt},route=/v1/explore}}"
        assert counters[key] > 0
    formats = set()
    for summary in client.traces(route="/v1/explore"):
        stack = list(client.trace(summary["trace_id"])["tree"])
        while stack:
            span = stack.pop()
            if span["name"] == "server.encode":
                formats.add(span["labels"]["format"])
            stack.extend(span.get("children", []))
    assert formats == {"columns", "json", "ndjson"}


# ---------------------------------------------------------------------------
# Degradations stay structured.
# ---------------------------------------------------------------------------


def test_poisoned_shard_comes_back_partial(serving):
    server, client = serving(
        use_cache=False,
        shard_retries=0,
        faults=f"seed={SEED}; shard.run:n=1",
    )
    scenario = demo_scenario(frequency_points=8)
    handle = client.submit(scenario, shards=4)
    assert client.wait(handle.id, timeout=WAIT, poll=0.02)["partial"]
    result = client.job_result(handle.id)
    assert result.partial
    assert 0 < len(result) < scenario.size
    # Never wrong: every surviving row equals the fault-free one.
    reference = evaluate_table(scenario)
    index = {
        key: row
        for row, key in enumerate(
            zip(*(reference.columns[n].tolist() for n in ("architecture", "technology", "frequency")))
        )
    }
    table = result.records.table
    rows = [
        index[key]
        for key in zip(*(table.columns[n].tolist() for n in ("architecture", "technology", "frequency")))
    ]
    assert_bit_identical(table, reference.take(rows))


def test_armed_response_fault_is_a_structured_500(serving):
    _, client = serving(faults=f"seed={SEED}; http.response:n=1")
    scenario = demo_scenario(frequency_points=2)
    with pytest.raises(ServiceError) as excinfo:
        client.explore(scenario)
    assert excinfo.value.status == 500
    assert excinfo.value.kind == "internal"
    assert "http.response" in str(excinfo.value)
    assert_bit_identical(
        client.explore(scenario).records.table, evaluate_table(scenario)
    )


def test_deadline_breach_is_a_structured_504(serving):
    _, client = serving()
    client._deadline_header = lambda: {DEADLINE_HEADER: "1"}
    with pytest.raises(ServiceError) as excinfo:
        client.explore(demo_scenario(frequency_points=40))
    assert excinfo.value.status == 504
    assert excinfo.value.kind == "deadline-exceeded"
    assert excinfo.value.details["budget_ms"] == 1
    assert excinfo.value.details["site"]


def test_shed_request_is_a_structured_429(serving):
    server, client = serving(
        workers=1, admission_queue=0, use_cache=False, retry_after_seconds=7.0
    )
    release, started = threading.Event(), threading.Event()
    evaluate = server.state.evaluate

    def gated(scenario, solver, options):
        started.set()
        release.wait(timeout=WAIT)
        return evaluate(scenario, solver, options)

    server.state.evaluate = gated
    first = threading.Thread(
        target=client.explore, args=(demo_scenario(frequency_points=3),)
    )
    first.start()
    try:
        assert started.wait(timeout=WAIT)
        with pytest.raises(ServiceError) as excinfo:
            client.explore(demo_scenario(frequency_points=2))
    finally:
        release.set()
        first.join(timeout=WAIT)
    assert not first.is_alive()
    assert excinfo.value.status == 429
    assert excinfo.value.kind == "admission-shed"
    assert excinfo.value.retry_after == 7.0
    assert excinfo.value.details["reason"] == "queue-full"


# ---------------------------------------------------------------------------
# Hostile bodies: always ServiceError(502), nothing unpickled.
# ---------------------------------------------------------------------------

UNPICKLED = []


class _Probe:
    def __reduce__(self):
        return (UNPICKLED.append, ("unpickled",))


def _archive(members: dict, allow_pickle: bool = False) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, allow_pickle=allow_pickle, **members)
    return buffer.getvalue()


def _good_archive() -> bytes:
    table = evaluate_table(demo_scenario(frequency_points=2))
    return encode_entry({"solver": "auto", "columns": table.to_payload_columns()})


def _header_archive(header: dict) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return _archive({"header": np.frombuffer(text, dtype=np.uint8)})


def _hostile_bodies():
    good = _good_archive()
    probe = np.empty(1, dtype=object)
    probe[0] = _Probe()
    return {
        "json": ("application/json", b'{"solver": "auto", "records": []}'),
        "no-content-type": ("", good),
        "garbage": (COLUMNS_CONTENT_TYPE, b"{not an archive"),
        "empty": (COLUMNS_CONTENT_TYPE, b""),
        "cut-in-half": (COLUMNS_CONTENT_TYPE, good[: len(good) // 2]),
        "cut-by-one": (COLUMNS_CONTENT_TYPE, good[:-1]),
        "foreign-npz": (COLUMNS_CONTENT_TYPE, _archive({"x": np.arange(3)})),
        "no-columns": (COLUMNS_CONTENT_TYPE, encode_entry({"solver": "auto"})),
        "bad-cache-header": (
            COLUMNS_CONTENT_TYPE,
            _header_archive({"format": 3, "payload": {"cache": [1]}}),
        ),
        "other-format": (
            COLUMNS_CONTENT_TYPE,
            _header_archive({"format": 99, "payload": {}}),
        ),
        "pickled-member": (
            COLUMNS_CONTENT_TYPE,
            _archive({"header": probe, "floats": probe}, allow_pickle=True),
        ),
    }


class _Canned(BaseHTTPRequestHandler):
    """Answers every request 200 with the server's canned body."""

    protocol_version = "HTTP/1.1"

    def _answer(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        content_type, body, claimed = self.server.canned
        self.send_response(200)
        if content_type:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(claimed))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    do_GET = do_POST = _answer

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture(scope="module")
def canned():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Canned)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def answer(content_type: str, body: bytes, claimed: int | None = None):
        server.canned = (
            content_type, body, len(body) if claimed is None else claimed
        )
        host, port = server.server_address[:2]
        return ServiceClient(f"http://{host}:{port}", timeout=WAIT)

    yield answer
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("case", sorted(_hostile_bodies()))
def test_a_body_that_is_not_an_archive_is_a_502(canned, case):
    content_type, body = _hostile_bodies()[case]
    client = canned(content_type, body)
    for call in (
        lambda: client.explore(demo_scenario(frequency_points=2)),
        lambda: client.job_result("some-job"),
    ):
        with pytest.raises(ServiceError) as excinfo:
            call()
        assert excinfo.value.status == 502
        assert excinfo.value.kind == "bad-response"
    assert not UNPICKLED


def test_an_older_server_is_named_in_the_502(canned):
    client = canned("application/json", b'{"records": []}')
    with pytest.raises(ServiceError, match="application/json"):
        client.explore(demo_scenario(frequency_points=2))


def test_a_connection_cut_mid_body_is_a_502(canned):
    good = _good_archive()
    client = canned(COLUMNS_CONTENT_TYPE, good[:100], claimed=len(good))
    with pytest.raises(ServiceError) as excinfo:
        client.explore(demo_scenario(frequency_points=2))
    assert excinfo.value.status == 502
    assert excinfo.value.kind == "bad-response"
