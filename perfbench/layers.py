"""The traced run: the per-layer ledger.

Separate from the timed runs, which keep tracing off.  Every operation
here is built from the public call each layer exposes, each call in its
own span (``perfbench/spans.py``), so the spans' self times split an
operation's wall time by layer.  A layer is named by its module:
``columnar`` and ``vectorized`` are ``repro.explore.*``,
``batch_numerical`` is ``repro.solvers.batch_numerical``, ``store``,
``sharder`` and ``manager`` are ``repro.jobs.*``, ``memcache``,
``server`` and ``client`` are ``repro.service.*``.

The ledger is the same on every workload: compute layers on an
in-process sweep, persistence layers on a temp cache and job store,
wire layers against a ``repro serve`` process (the workload's own on
``serve``).  What differs per workload is ``trace.overhead_frac``: the
traced form of the workload's characteristic operation (in-process
sweep, HTTP hit) against the untraced door operation on the same
input.
"""

from __future__ import annotations

import json
import statistics
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.explore.cache import ResultCache
from repro.service.memcache import MemoryCache, TieredCache
from repro.explore.columnar import ResultTable, expand_columns
from repro.explore.engine import (
    EvaluationStats,
    evaluate_table,
    explore,
)
from repro.explore.vectorized import batch_arrays_for_columns, closed_form_batch
from repro.jobs.sharder import merge_tables, shard_scenario
from repro.jobs.store import JobStore
from repro.service.server import ndjson_lines
from repro.solvers import get_solver
from repro.solvers.batch_numerical import solve_batch, solve_points, task_for_points
from repro.study import Record, ResultSet, Study

from perfbench import checks, doors
from perfbench.inputs import point_request, sweep_scenario
from perfbench.spans import SpanRecorder
from perfbench.timed import Tally, hit_reason

#: Every per-layer metric, with its unit, in BENCHMARK.json order.
METRICS = {
    "columnar.expand_s": "s",
    "columnar.expand_rows": "count",
    "vectorized.kernel_s": "s",
    "vectorized.kernel_ns_per_row": "ns/row",
    "vectorized.flagged_share": "frac",
    "batch_numerical.fallback_s": "s",
    "batch_numerical.fallback_rows": "count",
    "batch_numerical.point_ms": "ms",
    "engine.evaluate_s": "s",
    "engine.overhead_s": "s",
    "engine.hit_overhead_s": "s",
    "analysis.stats_s": "s",
    "study.dispatch_s": "s",
    "study.point_overhead_ms": "ms",
    "catalog.lookup_us": "us",
    "columnar.encode_s": "s",
    "columnar.decode_s": "s",
    "cache.put_s": "s",
    "cache.get_s": "s",
    "cache.entry_bytes": "bytes",
    "memcache.get_s": "s",
    "memcache.hit_share": "frac",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.result_bytes": "bytes",
    "sharder.plan_s": "s",
    "sharder.merge_s": "s",
    "manager.queue_wait_s": "s",
    "manager.shard_s_max": "s",
    "manager.parallel_eff": "frac",
    "server.encode_s": "s",
    "server.response_bytes": "bytes",
    "server.optimize_overhead_ms": "ms",
    "client.fetch_s": "s",
    "client.decode_s": "s",
    "http.rtt_ms": "ms",
    "server.engine_points": "count",
    "server.memory_hits": "count",
    "server.coalesced": "count",
    "server.shed": "count",
    "obs.reported_gap_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_min": "frac",
}

#: Input indices of the ledger's scenarios (apart from the timed runs').
SWEEP = 2_000_000
PERSIST = SWEEP + 1
JOB = SWEEP + 2
MANAGER_JOB = SWEEP + 3
WIRE = SWEEP + 4

#: Single-point requests timed per layer, catalog lookups, and
#: (Study.run, explore) pairs timed for the dispatch cost.
POINTS = 40
LOOKUPS = 2000
DISPATCH_PAIRS = 5

#: Shards of the composed and the real ledger job.
SHARDS = 4

#: Server counters read as deltas of ``/v1/metrics?format=json``.
SERVER_COUNTERS = {
    "server.engine_points": "engine.points_evaluated",
    "server.memory_hits": "cache.memory.hits",
    "server.coalesced": "coalescer.merged",
    "server.shed": "admission.shed",
}


def _wall(call, *args):
    started = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - started


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def _explore_reasons(result, reference: ResultTable) -> tuple:
    return (
        checks.tables_differ(checks.table_of(result.records), reference),
        hit_reason(result.cache_hit, want_hit=True),
    )


def _ndjson_table(raw: bytes) -> tuple[dict, ResultTable]:
    """The header and the table of a raw ``/v1/explore`` NDJSON body."""
    lines = [json.loads(line) for line in raw.splitlines() if line]
    records = [
        Record.from_dict({k: v for k, v in line.items() if k != "kind"})
        for line in lines[1:]
        if line.get("kind") == "record"
    ]
    return lines[0], checks.table_of(records)


class Ledger:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rec = SpanRecorder()
        self.tally = Tally()
        self.m: dict[str, float] = {}
        #: Root spans whose layer coverage counts toward trace.coverage_min.
        self.ops = []

    def check(self, what: str, *reasons) -> None:
        """Count one operation and its one verdict."""
        self.tally.attempt()
        self.tally.check(what, *reasons)

    # -- compute: explore.columnar / vectorized / batch_numerical / engine --
    def compute(self) -> None:
        rec, m = self.rec, self.m
        scenario = sweep_scenario(self.seed, SWEEP)
        reference = evaluate_table(scenario)

        with rec.span("op.inproc.sweep") as root:
            with rec.span("catalog.lookup"):
                get_solver("auto")
            with rec.span("engine.evaluate") as evaluate:
                table = evaluate_table(scenario)
            with rec.span("analysis.stats") as stats_span:
                EvaluationStats.from_table(table, evaluate.duration)
        self.ops.append(root)
        traced_sweep = root
        self.check("inproc.sweep", checks.tables_differ(table, reference))
        m["engine.evaluate_s"] = evaluate.duration
        m["analysis.stats_s"] = stats_span.duration

        with rec.span("probe.compute"):
            with rec.span("columnar.expand") as expand:
                columns = expand_columns(scenario)
            flagged = np.zeros(columns.n, dtype=bool)
            with rec.span("vectorized.kernel") as kernel:
                for position, tech in enumerate(columns.technologies):
                    rows = np.flatnonzero(columns.tech_index == position)
                    batch = closed_form_batch(
                        tech, **batch_arrays_for_columns(columns, rows)
                    )
                    flagged[rows] = ~(batch.feasible & ~batch.needs_fallback)
            indices = np.flatnonzero(flagged)
            points = [columns.design_point(int(i)) for i in indices]
            with rec.span("batch_numerical.task"):
                task = task_for_points(points)
            with rec.span("batch_numerical.fallback") as fallback:
                solution = solve_batch(task)
        want = reference.take(indices)
        self.check(
            "fallback",
            None
            if np.array_equal(solution.ptot, want.column("ptot"), equal_nan=True)
            else "fallback solve differs from the engine's rows",
        )
        m["columnar.expand_s"] = expand.duration
        m["columnar.expand_rows"] = float(columns.n)
        m["vectorized.kernel_s"] = kernel.duration
        m["vectorized.kernel_ns_per_row"] = 1e9 * kernel.duration / columns.n
        m["vectorized.flagged_share"] = indices.size / columns.n
        m["batch_numerical.fallback_s"] = fallback.duration
        m["batch_numerical.fallback_rows"] = float(indices.size)
        m["engine.overhead_s"] = evaluate.duration - (
            expand.duration + kernel.duration + fallback.duration
        )
        self.kernel_s = kernel.duration

        study_runs, explore_runs = [], []
        for _ in range(DISPATCH_PAIRS):
            study_runs.append(_wall(Study.from_scenario(scenario).run)[1])
            explore_runs.append(
                _wall(lambda: explore(scenario, use_cache=False))[1]
            )
        m["study.dispatch_s"] = statistics.median(
            a - b for a, b in zip(study_runs, explore_runs)
        )
        # Untraced twin of the traced sweep above: Study.run, same input.
        self.overhead_pairs = {
            "inproc": (statistics.median(study_runs), traced_sweep.duration)
        }

        lookups = []
        for _ in range(LOOKUPS):
            started = time.perf_counter()
            get_solver("auto")
            lookups.append(time.perf_counter() - started)
        m["catalog.lookup_us"] = 1e6 * statistics.median(lookups)

        solve_ms, overhead_ms = [], []
        for index in range(POINTS):
            request = point_request(self.seed, SWEEP + index)
            with rec.span("op.inproc.point") as root:
                with rec.span("catalog.lookup"):
                    get_solver(request.solver)
                with rec.span("study.run") as study:
                    record = doors.study_point(request)
            self.ops.append(root)
            # Study.run hands a point to explore() with its solver's
            # engine method (closed form or scipy, rarely solve_points),
            # so that call, not solve_points, is what Study.run adds to.
            method = get_solver(request.solver).engine_method
            _, engine_s = _wall(
                lambda: explore(request.scenario(), method=method,
                                use_cache=False)
            )
            overhead_ms.append(study.duration - engine_s)
            point = request.scenario().expand()
            with rec.span("batch_numerical.point") as solve:
                solve_points(point)
            solve_ms.append(solve.duration)
            self.check(
                "point",
                checks.row_differs_from_scalar(
                    record,
                    {request.architecture.name: request.architecture},
                    {point[0].technology.name: point[0].technology},
                ),
            )
        m["batch_numerical.point_ms"] = _median_ms(solve_ms)
        m["study.point_overhead_ms"] = _median_ms(overhead_ms)

    # -- persistence: columnar codec / cache / memcache / store / sharder / manager
    def persist(self, door: doors.Persist) -> None:
        rec, m = self.rec, self.m
        scenario = sweep_scenario(self.seed, PERSIST)
        reference = evaluate_table(scenario)
        key = scenario.content_hash()
        disk = ResultCache(door.directory / "ledger")
        tier = TieredCache(disk, memory=MemoryCache(doors.MEMORY_ENTRIES))

        with rec.span("op.persist.cold") as root:
            with rec.span("engine.evaluate") as evaluate:
                table = evaluate_table(scenario)
            with rec.span("analysis.stats"):
                stats = EvaluationStats.from_table(table, evaluate.duration)
            with rec.span("columnar.encode") as encode:
                payload = {
                    "scenario": scenario.to_dict(),
                    "stats": stats.to_dict(),
                    "columns": table.to_payload_columns(),
                }
            with rec.span("cache.put") as put:
                path = tier.put(key, payload)
        self.ops.append(root)
        m["columnar.encode_s"] = encode.duration
        m["cache.put_s"] = put.duration
        m["cache.entry_bytes"] = float(path.stat().st_size)

        with rec.span("op.persist.disk_hit") as root:
            with rec.span("cache.get") as get:
                stored = disk.get(key)
            with rec.span("columnar.decode") as decode:
                loaded = ResultTable.from_cache_payload(stored)
        self.ops.append(root)
        self.check("disk_hit", checks.tables_differ(loaded, reference))
        m["cache.get_s"] = get.duration
        m["columnar.decode_s"] = decode.duration

        with rec.span("op.persist.mem_hit") as root:
            with rec.span("memcache.get") as memget:
                stored = tier.get(key)
            with rec.span("columnar.decode"):
                loaded = ResultTable.from_cache_payload(stored)
        self.ops.append(root)
        self.check("mem_hit", checks.tables_differ(loaded, reference))
        m["memcache.get_s"] = memget.duration
        memory = tier.memory.stats()
        m["memcache.hit_share"] = memory["hits"] / max(
            1, memory["hits"] + memory["misses"]
        )
        del stored, loaded, payload

        # The engine's own hit path on the same entry shape: a fresh
        # memory tier over the door's dir, after a cold explore wrote it.
        door.sweep(scenario)
        hit, hit_wall = _wall(door.disk_hit, scenario)
        m["engine.hit_overhead_s"] = hit_wall - (
            m["cache.get_s"] + m["columnar.decode_s"]
        )
        phases = hit.stats.phases if hit.stats is not None else {}
        m["obs.reported_gap_s"] = sum(phases.values()) - hit_wall
        self.check("engine.disk_hit", checks.tables_differ(hit.table, reference))
        del hit

        self.composed_job(door)
        self.manager_job(door)

    def composed_job(self, door: doors.Persist) -> None:
        """A 4-shard job as the manager runs it, one span per layer call."""
        rec, m = self.rec, self.m
        scenario = sweep_scenario(self.seed, JOB)
        reference = evaluate_table(scenario)
        store = JobStore(door.directory.parent / "ledger-jobs")
        tier = door.new_tier()
        with rec.span("op.persist.job") as root:
            with rec.span("sharder.plan") as plan:
                shards = shard_scenario(scenario, SHARDS)

            def run_shard(shard):
                with rec.span("engine.explore", parent=root, shard=shard.index):
                    return shard, explore(shard.scenario, cache=tier).table

            with ThreadPoolExecutor(doors.NPROC) as pool:
                pairs = list(pool.map(run_shard, shards))
            with rec.span("sharder.merge") as merge:
                table = merge_tables(pairs)
            with rec.span("analysis.stats"):
                stats = EvaluationStats.from_table(
                    table, time.perf_counter() - root.start
                )
            with rec.span("columnar.encode"):
                payload = {
                    "scenario": scenario.to_dict(),
                    "stats": stats.to_dict(),
                    "columns": table.to_payload_columns(),
                }
            with rec.span("cache.put"):
                tier.put(scenario.content_hash(), payload)
            with rec.span("store.write") as write:
                path = store.write_result("ledger", payload)
        self.ops.append(root)
        self.check("job", checks.tables_differ(table, reference))
        m["sharder.plan_s"] = plan.duration
        m["sharder.merge_s"] = merge.duration
        m["store.write_s"] = write.duration
        m["store.result_bytes"] = float(path.stat().st_size)
        del payload

        with rec.span("op.persist.job_result") as root:
            with rec.span("store.read") as read:
                stored = store.read_result("ledger")
            with rec.span("columnar.decode"):
                loaded = ResultTable.from_cache_payload(stored)
        self.ops.append(root)
        self.check("job_result", checks.tables_differ(loaded, reference))
        m["store.read_s"] = read.duration

    def manager_job(self, door: doors.Persist) -> None:
        """A real 4-shard ``JobManager`` job, read through its shard events."""
        m = self.m
        scenario = sweep_scenario(self.seed, MANAGER_JOB)
        job_id = door.job(scenario, SHARDS)
        record = door.manager.store.get(job_id)
        events = record.events
        running = next(
            e["ts"] for e in events
            if e.get("event") == "state" and e.get("state") == "running"
        )
        shard_events = [e for e in events if e.get("event") == "shard"]
        seconds = [float(e["seconds"]) for e in shard_events]
        phase = max(e["ts"] for e in shard_events) - running
        m["manager.queue_wait_s"] = running - record.created_at
        m["manager.shard_s_max"] = max(seconds)
        m["manager.parallel_eff"] = sum(seconds) / (
            door.manager.pool.max_workers * max(phase, 1e-3)
        )
        self.check(
            "manager.job",
            None if record.state == "done" and len(seconds) == SHARDS
            else f"job ended {record.state}",
            checks.tables_differ(
                doors.Door.table(door.job_result(job_id)),
                evaluate_table(scenario),
            ),
        )

    # -- wire: service.server / service.client ---------------------------------
    def wire(self, server: doors.Serve) -> None:
        rec, m = self.rec, self.m
        client = server.client
        before = client.metrics()["counters"]
        scenario = sweep_scenario(self.seed, WIRE)
        reference = evaluate_table(scenario)
        cold = client.explore(scenario)
        self.check("http.cold", checks.tables_differ(
            checks.table_of(cold.records), reference))
        del cold

        body = json.dumps({"scenario": scenario.to_dict(), "solver": "auto"})
        request = urllib.request.Request(
            server.url + "/v1/explore",
            data=body.encode("utf-8"),
            method="POST",
            headers={
                "Accept": "application/x-ndjson",
                "Content-Type": "application/json",
            },
        )
        with rec.span("op.serve.fetch") as root:
            with rec.span("client.fetch") as fetch:
                with urllib.request.urlopen(request, timeout=300) as response:
                    raw = response.read()
        self.ops.append(root)
        header, table = _ndjson_table(raw)
        self.check(
            "http.fetch",
            checks.tables_differ(table, reference),
            hit_reason(
                bool(header.get("cache", {}).get("hit", False)), want_hit=True
            ),
        )
        m["server.response_bytes"] = float(len(raw))
        del raw, table

        # The client decodes while the stream arrives, so its decode cost
        # is what ServiceClient.explore adds to the raw fetch of the
        # same hit.
        with rec.span("op.serve.explore") as root:
            with rec.span("client.explore") as explore_span:
                hit = client.explore(scenario)
        self.ops.append(root)
        self.check("http.hit", *_explore_reasons(hit, reference))
        del hit
        hit, explore_s = _wall(client.explore, scenario)
        self.check("http.hit", *_explore_reasons(hit, reference))
        del hit
        m["client.fetch_s"] = fetch.duration
        m["client.decode_s"] = explore_span.duration - fetch.duration
        self.overhead_pairs["serve"] = (explore_s, root.duration)

        result = ResultSet(
            records=reference.rows(),
            solver="auto",
            scenario=scenario,
            stats=EvaluationStats.from_table(reference, 0.0),
        )
        with rec.span("server.encode") as encode:
            encoded = "\n".join(ndjson_lines(result, coalesced=False))
            encoded.encode("utf-8")
        m["server.encode_s"] = encode.duration
        del encoded, result

        remote_ms, local_ms = [], []
        for index in range(POINTS):
            point = point_request(self.seed, WIRE + index)
            record, wall = _wall(server.point, point)
            remote_ms.append(wall)
            local, wall = _wall(doors.study_point, point)
            local_ms.append(wall)
            self.check("optimize", checks.records_differ(record, local))
        m["server.optimize_overhead_ms"] = (
            _median_ms(remote_ms) - _median_ms(local_ms)
        )
        rtts = [_wall(client.healthz)[1] for _ in range(50)]
        m["http.rtt_ms"] = _median_ms(rtts)

        after = client.metrics()["counters"]
        for metric, prefix in SERVER_COUNTERS.items():
            m[metric] = sum(
                value - before.get(name, 0.0)
                for name, value in after.items()
                if name == prefix or name.startswith(prefix + "{")
            )

    # -- summary -------------------------------------------------------------
    def ledger_rows(self) -> list[dict]:
        """One row per layer: wall, rows, bytes and x the kernel time."""
        m = self.m
        layers = [
            ("columnar.expand", m["columnar.expand_s"], m["columnar.expand_rows"], None),
            ("vectorized.kernel", m["vectorized.kernel_s"], m["columnar.expand_rows"], None),
            ("batch_numerical.fallback", m["batch_numerical.fallback_s"],
             m["batch_numerical.fallback_rows"], None),
            ("engine (overhead)", m["engine.overhead_s"], None, None),
            ("analysis.stats", m["analysis.stats_s"], None, None),
            ("columnar.encode", m["columnar.encode_s"], m["columnar.expand_rows"], None),
            ("cache.put", m["cache.put_s"], None, m["cache.entry_bytes"]),
            ("cache.get", m["cache.get_s"], None, m["cache.entry_bytes"]),
            ("columnar.decode", m["columnar.decode_s"], m["columnar.expand_rows"], None),
            ("memcache.get", m["memcache.get_s"], None, None),
            ("sharder.plan", m["sharder.plan_s"], None, None),
            ("sharder.merge", m["sharder.merge_s"], m["columnar.expand_rows"], None),
            ("store.write", m["store.write_s"], None, m["store.result_bytes"]),
            ("store.read", m["store.read_s"], None, m["store.result_bytes"]),
            ("server.encode", m["server.encode_s"], m["columnar.expand_rows"],
             m["server.response_bytes"]),
            ("client.fetch", m["client.fetch_s"], None, m["server.response_bytes"]),
            ("client.decode", m["client.decode_s"], m["columnar.expand_rows"],
             m["server.response_bytes"]),
        ]
        return [
            {
                "layer": layer,
                "wall_s": wall,
                "rows": rows,
                "bytes": size,
                "x_kernel": wall / self.kernel_s,
            }
            for layer, wall, rows, size in layers
        ]


def _print_ledger(rows: list[dict]) -> None:
    print(f"{'layer':<26}{'wall s':>10}{'rows':>10}{'bytes':>12}{'x kernel':>10}")
    for row in rows:
        rows_ = "" if row["rows"] is None else f"{row['rows']:.0f}"
        size = "" if row["bytes"] is None else f"{row['bytes']:.0f}"
        print(
            f"{row['layer']:<26}{row['wall_s']:>10.4f}{rows_:>10}{size:>12}"
            f"{row['x_kernel']:>10.1f}"
        )


def run(
    door, args, workdir: Path, out: Path, run_name: str
) -> tuple[dict, dict]:
    """The traced run for ``args.workload``; (result line, details).

    Spans and the ledger table are written to ``out``.
    """
    ledger = Ledger(args.seed)
    ledger.compute()

    persist = doors.Persist(workdir / "ledger-persist")
    server = door if isinstance(door, doors.Serve) else None
    try:
        ledger.persist(persist)
        if server is None:
            process, url = doors.spawn_server(
                workdir / "ledger-serve", workdir / "server.log"
            )
            server = doors.Serve(process, url)
        ledger.wire(server)
    finally:
        persist.close()
        if server is not None and server is not door:
            server.close()

    m = ledger.m
    untraced, traced = ledger.overhead_pairs[args.workload]
    m["trace.overhead_frac"] = traced / untraced - 1.0
    coverage = {root.name: ledger.rec.coverage(root) for root in ledger.ops}
    m["trace.coverage_min"] = min(coverage.values())

    out.mkdir(parents=True, exist_ok=True)
    ledger.rec.write(out / f"spans-{run_name}.json")
    rows = ledger.ledger_rows()
    (out / f"ledger-{run_name}.json").write_text(json.dumps(rows, indent=1))
    _print_ledger(rows)
    tally = ledger.tally
    for reason in tally.failures:
        print("FAILED " + reason)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(m[name]), "unit": unit}
            for name, unit in METRICS.items()
        },
    }
    details = {
        "coverage": coverage,
        "failures": tally.failures,
        "ledger": rows,
    }
    return result, details
