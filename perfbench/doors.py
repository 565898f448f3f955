"""The ways into the model that the workloads drive.

Each door answers the same user operations, each through its own public
entry points, so one metric name means the same user-visible operation
on every workload:

==============  ==========================  ==============================
operation       ``inproc``                  ``serve``
==============  ==========================  ==============================
``sweep``       ``Study.run()``, no cache   ``ServiceClient.explore``,
                                            cold: the server computes,
                                            caches and streams NDJSON
``mem_hit``     ``Study.run()`` again       same request again: memory hit
                (recomputes)
``disk_hit``    ``Study.run()`` again       same request after the
                (recomputes)                server's 1-entry memory tier
                                            moved on: disk hit
``point``       single-point                ``ServiceClient.optimize``
                ``Study.run()``
==============  ==========================  ==============================

:class:`Persist` is not a door: it holds the in-process cache and job
manager that the traced ledger times the persistence layers on.

Every operation returns what the program returned; turning it into a
``ResultTable`` for the correctness check (:meth:`Door.table`) happens
outside the timed window.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.explore.cache import ResultCache
from repro.explore.columnar import ResultTable
from repro.explore.engine import explore
from repro.jobs.manager import JobManager, WorkerPool
from repro.service.client import ServiceClient
from repro.service.memcache import MemoryCache, TieredCache
from repro.study import Study

from perfbench.checks import table_of

#: Job-pool threads: one per CPU.
NPROC = os.cpu_count() or 1

#: Memory-tier entries of the in-process caches.  A 100,800-row payload
#: held as Python lists is tens of MB, so the tiers stay small.
MEMORY_ENTRIES = 2

#: Server start-up and shutdown limits [s].
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 10.0


class Door:
    """One way into the model; subclasses bind the operations."""

    #: Single-point requests per batch (three batches per round), sized
    #: so a run has several hundred of them.
    points_per_batch = 10
    #: Whether a repeat of a sweep is answered from a cache.
    caches = False
    #: Samples per round of each repeat, and reads per finished job: as
    #: many as the door's cost allows, for steadier medians.
    hit_repeats = 3

    def sweep(self, scenario):
        raise NotImplementedError

    def mem_hit(self, scenario):
        return self.sweep(scenario)

    def disk_hit(self, scenario):
        return self.sweep(scenario)

    def point(self, request):
        raise NotImplementedError

    @staticmethod
    def table(result) -> ResultTable:
        # An engine ExplorationResult carries its table; a ResultSet's
        # records are lazy rows over one, or plain records off the wire.
        table = getattr(result, "table", None)
        if isinstance(table, ResultTable):
            return table
        return table_of(result.records)

    def close(self) -> None:
        pass


def study_point(request):
    """The in-process single-point record (the reference for every door)."""
    return (
        Study.from_scenario(request.scenario())
        .solver(request.solver)
        .run()[0]
    )


class Inproc(Door):
    points_per_batch = 4

    def __init__(self, workdir: Path) -> None:
        """Nothing to set up: sweeps and points run in this process."""

    def sweep(self, scenario):
        return Study.from_scenario(scenario).run()

    def point(self, request):
        return study_point(request)


class Persist:
    """``explore()`` through a ``TieredCache`` on a temp dir, and 4-shard
    jobs on an in-process ``JobManager`` with the cache on."""

    def __init__(self, workdir: Path) -> None:
        self.directory = workdir / "cache"
        self.tier = self.new_tier()
        self.manager = JobManager(
            store=workdir / "jobs",
            cache=self.new_tier(),
            pool=WorkerPool(NPROC),
            recover=False,
        )

    def new_tier(self) -> TieredCache:
        """A tier over the shared dir with its own, empty memory LRU."""
        return TieredCache(
            ResultCache(self.directory), memory=MemoryCache(MEMORY_ENTRIES)
        )

    def sweep(self, scenario):
        return explore(scenario, cache=self.tier)

    def disk_hit(self, scenario):
        return explore(scenario, cache=self.new_tier())

    def job(self, scenario, shards: int) -> str:
        """Submit a job and wait until it is done; returns its id."""
        record = self.manager.submit(scenario, shards=shards)
        self.manager.wait(record.id)
        return record.id

    def job_result(self, job_id: str):
        return self.manager.job_result(job_id)

    def close(self) -> None:
        self.manager.close()


def spawn_server(workdir: Path, log_path: Path) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on an ephemeral port; returns (process, url).

    Returns once ``/v1/healthz`` answers 200.  The server's request log
    goes to ``log_path``.
    """
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--workers", "2",
        "--cache-dir", str(workdir / "server-cache"),
        # One memory entry: a sweep leaves the memory tier as soon as
        # another result is cached, so a later repeat is a disk hit.
        "--cache-size", "1",
    ]
    with log_path.open("ab") as log:
        process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    try:
        line = process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split()[-1]
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while True:
            try:
                with urllib.request.urlopen(url + "/v1/healthz", timeout=5):
                    break
            except OSError:
                if time.monotonic() > deadline or process.poll() is not None:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
    except BaseException:
        stop_server(process)
        raise
    return process, url


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=SERVER_STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


class Serve(Door):
    points_per_batch = 100
    caches = True
    hit_repeats = 1

    def __init__(self, process: subprocess.Popen, url: str) -> None:
        self.process = process
        self.url = url
        self.client = ServiceClient(url)

    def sweep(self, scenario):
        return self.client.explore(scenario)

    mem_hit = sweep
    disk_hit = sweep

    def point(self, request):
        return self.client.optimize(
            request.architecture,
            request.technology,
            request.frequency,
            solver=request.solver,
        )

    def close(self) -> None:
        stop_server(self.process)
