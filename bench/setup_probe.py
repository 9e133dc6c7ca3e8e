"""One set-up of a workload, timed in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds spent importing disclab (with the harness the command
line uses) plus sampling the workload's instances and passing them
through the JSON instance format.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> None:
    work = wl.WORKLOADS[sys.argv[1]]
    shapes = work.shapes(int(sys.argv[2]))
    start = time.perf_counter()
    dl = wl.locate_disclab(HERE.parent)
    wl.build(dl, shapes)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
