"""One cold set-up of a workload in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD

Imports the program, generates the workload's instances and runs its
warm-up solves, then prints ``{"setup_s": ...}``.  bench.py starts it a
few times per run and reports the median with the run's own set-up.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from run import use_checkout_sources  # noqa: E402


def main() -> int:
    if len(sys.argv) != 2 or not use_checkout_sources():
        return 2
    import bench
    bench.setup(bench.WORKLOADS[sys.argv[1]])
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
