"""Command-line interface: benchmark driver, single-instance solve, and
instance generation."""

from __future__ import annotations

import argparse
import sys

from . import problemio
from .experiments import (ExperimentConfig, SUMMARY_FIELDS, run_experiment,
                          summarize, trend_check, write_csv)
from .generators import FAMILIES
from .model import ModelError, evaluate
from .runtime import RunConfig, SimTimeout
from .solvers import SOLVERS, run_solver


def _size(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return n


def _csv_strs(text: str) -> tuple[str, ...]:
    items = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"must name at least one, got {text!r}")
    return items


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(_size(tok) for tok in _csv_strs(text))


def _positive_secs(text: str) -> float:
    secs = float(text)
    if not secs > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return secs


def _key_bits(text: str) -> int:
    bits = int(text)
    if bits < 5:  # the smallest safe-prime group, p = 23
        raise argparse.ArgumentTypeError(f"must be at least 5, got {text}")
    return bits


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return n


def _solvers(text: str) -> tuple[str, ...]:
    names = _csv_strs(text)
    unknown = [name for name in names if name not in SOLVERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown solvers {unknown}; known: {sorted(SOLVERS)}")
    return names


def _add_run_options(parser: argparse.ArgumentParser, defaults: RunConfig):
    """The RunConfig options, defaulting to the fields of `defaults`.
    (Not a parent parser: its subparsers would share one set of defaults.)"""
    parser.add_argument("--key-bits", type=_key_bits, default=defaults.key_bits)
    parser.add_argument("--b-bits", type=_non_negative, default=defaults.b_bits)
    parser.add_argument("--incr-min", type=_non_negative,
                        default=defaults.incr_min)
    parser.add_argument("--timeout-secs", type=_positive_secs,
                        default=defaults.timeout_secs)


def _run_config(args) -> RunConfig:
    return RunConfig(key_bits=args.key_bits, b_bits=args.b_bits,
                     incr_min=args.incr_min, timeout_secs=args.timeout_secs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discsp",
        description="Privacy-graded distributed constraint satisfaction "
                    "solvers, simulator and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    grid = ExperimentConfig()
    bench = sub.add_parser("bench", help="run a benchmark experiment grid")
    bench.add_argument("--family", choices=sorted(FAMILIES), default=grid.family)
    bench.add_argument("--sizes", type=_sizes, default=grid.sizes,
                       help="comma-separated instance sizes")
    bench.add_argument("--instances", type=_size, default=grid.instances)
    bench.add_argument("--seed", type=int, default=grid.seed)
    bench.add_argument("--solvers", type=_solvers, default=grid.solvers,
                       help=f"comma-separated; known: {sorted(SOLVERS)}")
    _add_run_options(bench, grid.run)
    bench.add_argument("--workers", type=_size, default=grid.workers)
    bench.add_argument("--out", default="bench",
                       help="output prefix: writes <out>_runs.csv and "
                            "<out>_summary.csv")

    solve = sub.add_parser("solve", help="solve one problem file")
    solve.add_argument("problem", help="path to a problem file")
    solve.add_argument("--solver", choices=sorted(SOLVERS), default="dpop")
    solve.add_argument("--seed", type=int, default=0)
    _add_run_options(solve, RunConfig())

    gen = sub.add_parser("gen", help="generate a benchmark instance file")
    gen.add_argument("--family", choices=sorted(FAMILIES), default="coloring")
    gen.add_argument("--size", type=_size, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    return parser


def _error(err) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 2


def cmd_bench(args) -> int:
    cfg = ExperimentConfig(
        family=args.family, sizes=args.sizes, instances=args.instances,
        seed=args.seed, solvers=args.solvers, run=_run_config(args),
        workers=args.workers)
    runs_path = f"{args.out}_runs.csv"
    summary_path = f"{args.out}_summary.csv"
    try:  # fail before the grid runs, not after
        for path in (runs_path, summary_path):
            open(path, "w").close()
    except OSError as err:
        return _error(err)
    rows = run_experiment(cfg)
    summary = summarize(rows)
    write_csv(rows, runs_path)
    write_csv(summary, summary_path, SUMMARY_FIELDS)
    mismatches = [r for r in rows if r["oracle_ok"] is False]
    timeouts = [r for r in rows if r["status"] == "timeout"]
    out_of_memory = [r for r in rows if r["status"] == "out_of_memory"]
    print(f"wrote {len(rows)} runs to {runs_path}")
    print(f"wrote {len(summary)} summary rows to {summary_path}")
    print(f"oracle mismatches: {len(mismatches)}; timeouts: {len(timeouts)}; "
          f"out of memory: {len(out_of_memory)}")
    for line in trend_check(summary):
        print(line)
    return 0


def cmd_solve(args) -> int:
    try:
        problem = problemio.load(args.problem)
    except (OSError, UnicodeError, ModelError) as err:
        return _error(err)
    try:
        result = run_solver(args.solver, problem, args.seed, _run_config(args))
    except ModelError as err:  # not one connected constraint graph
        return _error(err)
    except SimTimeout as err:
        print(f"timeout: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"out of memory: {args.solver} on {args.problem}",
              file=sys.stderr)
        return 1
    print(f"solver: {args.solver}")
    print(f"feasible: {result.feasible}")
    print(f"iterations: {result.iterations}")
    print(f"messages: {result.metrics.message_count} "
          f"({result.metrics.info_bytes} bytes), "
          f"simulated time {result.metrics.simulated_time}")
    for agent in sorted(result.per_agent):
        for var, value in sorted(result.per_agent[agent].items()):
            print(f"  {agent}: {var} = {value}")
    if result.feasible:
        joint = result.joint_assignment()
        if set(joint) == set(problem.variables):
            print(f"violations (harness check): {evaluate(problem, joint)}")
    return 0


def cmd_gen(args) -> int:
    problem = FAMILIES[args.family](args.size, args.seed)
    try:
        problemio.dump(problem, args.out)
    except OSError as err:
        return _error(err)
    print(f"wrote {args.family} instance (n={len(problem.variables)} "
          f"variables, {len(problem.constraints)} constraints) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "gen":
        return cmd_gen(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
