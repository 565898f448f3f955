"""The repository benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inproc --seed 1 --seconds 56 --trace 0

``--trace 0`` runs the timed workload and prints every end-to-end
metric; ``--trace 1`` runs the traced per-layer ledger instead (see
``perfbench/layers.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details
(sample counts, environment, failures, spans) go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("inproc", "serve")


def bootstrap() -> None:
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/repro; nothing to run")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed CPU loop (pure Python plus numpy)."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    values = np.arange(200_000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - started


def cpu_times() -> list[int] | None:
    """The host's aggregate CPU tick counters, or None where unreadable."""
    try:
        with open("/proc/stat") as stat:
            return [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, calibration: list[float], steal: float | None) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "calibration_s": calibration,
        "cpu_steal_frac": steal,
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(workload: str, workdir: Path, repeats: int = 5):
    """Set the workload up ``repeats`` times from a fresh process.

    Returns (seconds per set-up, the door the main process drives).  For
    ``serve`` a set-up is a server spawn until the first ``/v1/healthz``
    200, and the last server spawned is kept; for ``inproc`` it is a
    child interpreter that imports the program and runs the warm-up
    operations (``perfbench/warm.py``), timed until it reports ready.
    """
    from perfbench import doors

    times = []
    if workload == "serve":
        process = None
        for attempt in range(repeats):
            if process is not None:
                doors.stop_server(process)
            spawn_dir = workdir / f"spawn{attempt}"
            spawn_dir.mkdir()
            started = time.perf_counter()
            process, url = doors.spawn_server(spawn_dir, workdir / "server.log")
            times.append(time.perf_counter() - started)
        return times, doors.Serve(process, url)

    for attempt in range(repeats):
        child_dir = workdir / f"setup{attempt}"
        child_dir.mkdir()
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "warm.py"),
             str(child_dir)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            if line.strip() != "ready":
                raise RuntimeError(f"warm-up child failed: {line!r}")
        finally:
            child.stdout.close()
            if child.wait(timeout=60) != 0:
                raise RuntimeError("warm-up child exited non-zero")
    return times, doors.Inproc(workdir / "main")


def emit(result: dict, details: dict, name: str) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(
        json.dumps({**details, "result": result}, indent=1, sort_keys=True)
    )
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from perfbench import timed, warm

    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Nothing the program writes by default may land outside the checkout.
    os.environ["REPRO_EXPLORE_CACHE"] = str(workdir / "default-cache")
    os.environ["REPRO_JOBS_DIR"] = str(workdir / "default-jobs")
    calibration = [calibrate()]
    ticks = cpu_times()
    door = None
    try:
        setups, door = measure_setup(args.workload, workdir)
        setup_s = statistics.median(setups)
        warm.warm_up(door)
        if args.trace:
            from perfbench import layers

            result, details = layers.run(door, args, workdir, OUT, run_name)
        else:
            result, details = timed.run(door, args, setup_s)
        details["setup_samples_s"] = setups
    finally:
        if door is not None:
            door.close()
        shutil.rmtree(workdir, ignore_errors=True)
    steal = steal_share(ticks, cpu_times())
    calibration.append(calibrate())
    details["environment"] = environment(args, calibration, steal)
    print("environment " + json.dumps(details["environment"]))
    emit(result, details, run_name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
