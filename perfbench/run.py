"""Solve benchmark for the discsp solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a details line (environment,
transcript digest, failures) and then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--seconds`` bounds the timed rounds of an untraced run; a
traced run always makes two untraced and two traced rounds.  Workloads are
defined in workloads.py, the method in README.md.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from before the import

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def use_checkout_sources() -> bool:
    """Put this checkout's discsp sources first on the import path."""
    if not (SRC / "discsp" / "__init__.py").is_file():
        print(f"perfbench: no discsp sources at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(bench.WORKLOADS)}")
    details, result = bench.run(bench.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), STARTED)
    print(json.dumps(details), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
