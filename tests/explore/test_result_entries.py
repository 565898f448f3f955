"""The one result-file codec: ``write_entry`` / ``read_entry``.

Cache entries, job results and ``repro explore --export *.npz`` share
it.  Round trips are bit-identical; every malformed file is one
``ValueError`` that the cache quarantines on and the job store reports
as a missing result; nothing is ever unpickled; and tables served from
a cache tier are read-only.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.explore.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    read_entry,
    write_entry,
)
from repro.explore.columnar import (
    FLOAT_COLUMNS,
    OPTIONAL_FLOAT_COLUMNS,
    STRING_COLUMNS,
    ResultTable,
)
from repro.explore.engine import evaluate_table, explore
from repro.explore.scenario import demo_scenario
from repro.jobs import JobStore
from repro.service.memcache import MemoryCache, TieredCache

KEY = "entry"

#: Float values the codec must carry bit for bit.
SPECIAL_FLOATS = (
    math.nan,
    -math.nan,
    float(np.array([0x7FF8_0000_0000_0001], np.uint64).view(np.float64)[0]),
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    5e-324,
    -2.2250738585072e-308,
)


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


def table_payload(table: ResultTable) -> dict:
    return {"solver": "auto", "stats": {"n": len(table)},
            "columns": table.to_payload_columns()}


@st.composite
def tables(draw) -> ResultTable:
    n = draw(st.integers(0, 40))
    floats = st.one_of(
        st.sampled_from(SPECIAL_FLOATS),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    columns = {
        name: np.array(draw(st.lists(floats, min_size=n, max_size=n)))
        for name in FLOAT_COLUMNS + OPTIONAL_FLOAT_COLUMNS
    }
    for name in STRING_COLUMNS:
        pool = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
        column = np.empty(n, dtype=object)
        column[:] = draw(
            st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        )
        columns[name] = column
    columns["feasible"] = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return ResultTable(columns)


def _copy(table: ResultTable) -> ResultTable:
    return ResultTable({k: v.copy() for k, v in table.columns.items()})


@settings(max_examples=60, deadline=None)
@given(reference=tables())
def test_every_path_round_trips_bit_identical(reference):
    # The codec freezes what it is handed; keep the reference apart.
    table = _copy(reference)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        path = write_entry(root / "direct.npz", table_payload(table))
        stored = read_entry(path)
        assert stored["solver"] == "auto"
        assert stored["stats"] == {"n": len(table)}
        assert_bit_identical(ResultTable.from_cache_payload(stored), reference)

        ResultCache(root / "cache").put(KEY, table_payload(table))
        stored = ResultCache(root / "cache").get(KEY)
        assert_bit_identical(ResultTable.from_cache_payload(stored), reference)

        store = JobStore(root / "jobs")
        store.write_result("job", table_payload(table))
        stored = store.read_result("job")
        assert_bit_identical(ResultTable.from_cache_payload(stored), reference)

        tier = TieredCache(ResultCache(root / "tier"), memory=MemoryCache(4))
        tier.put(KEY, table_payload(table))
        hit = ResultTable.from_cache_payload(tier.get(KEY))
        for name in ("ptot", "feasible", "reason"):
            with pytest.raises(ValueError, match="read-only"):
                hit.columns[name][...] = hit.columns[name][::-1]
        with pytest.raises(ValueError, match="read-only"):
            table.columns["vdd"][...] = 1.0
        again = ResultTable.from_cache_payload(tier.get(KEY))
        assert tier.memory.stats()["hits"] == 2
        assert_bit_identical(again, reference)


def test_cli_export_is_bit_identical(tmp_path, capsys):
    scenario = demo_scenario(frequency_points=3)
    target = tmp_path / "sweep.npz"
    assert main([
        "explore", "--frequency-points", "3", "--no-cache",
        "--export", str(target),
    ]) == 0
    capsys.readouterr()
    stored = read_entry(target)
    assert stored["solver"] == "auto"
    assert_bit_identical(
        ResultTable.from_cache_payload(stored), evaluate_table(scenario)
    )


def test_engine_cache_hits_are_read_only(tmp_path):
    scenario = demo_scenario(frequency_points=2)
    tier = TieredCache(ResultCache(tmp_path), memory=MemoryCache(4))
    cold = explore(scenario, cache=tier)
    fresh_tier = TieredCache(ResultCache(tmp_path), memory=MemoryCache(4))
    for cache in (tier, fresh_tier):  # memory hit, then disk hit
        hit = explore(scenario, cache=cache)
        assert hit.cache_hit
        with pytest.raises(ValueError, match="read-only"):
            hit.table.columns["ptot"][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        cold.table.columns["ptot"][0] = 0.0
    assert_bit_identical(
        explore(scenario, cache=tier).table, evaluate_table(scenario)
    )


def test_payload_without_columns_is_header_only(tmp_path):
    path = write_entry(tmp_path / "plain.npz", {"points": [1, 2], "v": None})
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == ["header"]
    assert read_entry(path) == {"points": [1, 2], "v": None}


# -- hostile and corrupt entries ----------------------------------------------

UNPICKLED: list = []


def _detonate():
    UNPICKLED.append("unpickled")
    return np.zeros(1)


class Bomb:
    """Records its own unpickling."""

    def __reduce__(self):
        return (_detonate, ())


@pytest.fixture(scope="module")
def good_entry() -> bytes:
    table = evaluate_table(demo_scenario(frequency_points=2))
    with tempfile.TemporaryDirectory() as scratch:
        path = write_entry(Path(scratch) / "good.npz", table_payload(table))
        return path.read_bytes()


def _members(data: bytes) -> dict:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _archive(**members) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


def _with_header(data: bytes, edit) -> bytes:
    members = _members(data)
    header = json.loads(members["header"].tobytes())
    edit(header)
    members["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    return _archive(**members)


def _unknown_format(data: bytes) -> bytes:
    return _with_header(
        data, lambda h: h.update(format=CACHE_SCHEMA_VERSION + 1)
    )


def _code_outside_vocabulary(data: bytes) -> bytes:
    members = _members(data)
    header = json.loads(members["header"].tobytes())
    codes = members["codes"].copy()
    codes[STRING_COLUMNS.index("reason"), -1] = len(header["vocab"]["reason"])
    members["codes"] = codes
    return _archive(**members)


def _negative_code(data: bytes) -> bytes:
    members = _members(data)
    codes = members["codes"].copy()
    codes[0, 0] = -1
    members["codes"] = codes
    return _archive(**members)


def _missing_member(data: bytes) -> bytes:
    members = _members(data)
    del members["codes"]
    return _archive(**members)


def _object_member(name: str):
    def build(data: bytes) -> bytes:
        members = _members(data)
        rows = len(members["feasible"])
        members[name] = np.array([Bomb()] * rows, dtype=object)
        return _archive(**members)

    return build


HOSTILE = {
    "cut-at-0": lambda data: data[:0],
    "cut-at-10": lambda data: data[:10],
    "cut-at-half": lambda data: data[: len(data) // 2],
    "cut-at-size-1": lambda data: data[:-1],
    "not-json-text": lambda data: b"{not json",
    "foreign-npz-no-header": lambda data: _archive(stuff=np.arange(3)),
    "unknown-format-version": _unknown_format,
    "header-not-an-object": lambda data: _archive(
        header=np.frombuffer(b"[1, 2]", dtype=np.uint8)
    ),
    "header-bad-json": lambda data: _archive(
        header=np.frombuffer(b"{torn", dtype=np.uint8)
    ),
    "code-outside-vocabulary": _code_outside_vocabulary,
    "negative-code": _negative_code,
    "missing-member": _missing_member,
    "wrong-shape": lambda data: _archive(
        **{**_members(data), "feasible": np.zeros(1, dtype=bool)}
    ),
    **{
        f"object-array-{name}": _object_member(name)
        for name in ("header", "floats", "codes", "feasible")
    },
}


@pytest.fixture(params=sorted(HOSTILE))
def hostile(request, good_entry) -> bytes:
    return HOSTILE[request.param](good_entry)


def test_good_entry_reads(good_entry):
    assert read_entry(io.BytesIO(good_entry))["solver"] == "auto"


def test_read_entry_raises_value_error_and_unpickles_nothing(hostile):
    UNPICKLED.clear()
    with pytest.raises(ValueError):
        read_entry(io.BytesIO(hostile))
    assert UNPICKLED == []


@pytest.fixture
def registry():
    previous = obs.get_registry()
    yield obs.enable(obs.MetricsRegistry())
    if previous is not None:
        obs.enable(previous)
    else:
        obs.disable()


def test_cache_quarantines_hostile_entries(hostile, tmp_path, registry):
    UNPICKLED.clear()
    cache = ResultCache(tmp_path)
    cache.path_for(KEY).write_bytes(hostile)
    assert cache.get(KEY) is None
    assert not cache.path_for(KEY).exists()
    assert cache.quarantine_path_for(KEY).read_bytes() == hostile
    assert obs.counter_total("cache.disk.quarantined") == 1
    assert UNPICKLED == []


def test_job_store_reports_hostile_results_as_missing(hostile, tmp_path):
    UNPICKLED.clear()
    store = JobStore(tmp_path)
    store.result_path_for("job").write_bytes(hostile)
    assert store.read_result("job") is None
    assert UNPICKLED == []


def test_read_entry_of_a_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_entry(tmp_path / "absent.npz")
