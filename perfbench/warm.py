"""Warm-up operations, and the child process that times a fresh set-up.

``python3 perfbench/warm.py <workdir>`` imports the program, builds
the ``inproc`` door, runs the warm-up operations and prints ``ready``: the parent times it from spawn to that
line, which is what a fresh process pays before its first real request.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Frequencies of the small warm-up sweep (1,008 points).
WARM_FREQUENCY_POINTS = 42


def warm_up(door) -> None:
    """One small instance of every operation the workload times."""
    from repro.explore.scenario import demo_scenario

    from perfbench.inputs import point_request

    scenario = demo_scenario(frequency_points=WARM_FREQUENCY_POINTS)
    door.sweep(scenario)
    door.mem_hit(scenario)
    door.disk_hit(scenario)
    for index in range(4):
        door.point(point_request(-1, index))


def main(workdir: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import doors

    door = doors.Inproc(Path(workdir))
    try:
        warm_up(door)
        print("ready", flush=True)
    finally:
        door.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
