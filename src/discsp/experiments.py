"""Experiment driver: run solver/instance grids, collect metrics, summarize.

Emits one CSV row per (family, size, instance, solver) run plus a summary
CSV of medians with 95% order-statistic confidence intervals.  Instances
may run in parallel across a process pool; each simulation stays internally
deterministic.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, field

from .generators import FAMILIES
from .model import evaluate
from .oracle import OracleCapExceeded, brute_force
from .runtime import RunConfig, SimTimeout
from .solvers import SOLVERS, run_solver

# Runs on instances with more joint assignments skip the oracle check.
ORACLE_CAP = 10 ** 6

RUN_FIELDS = [
    "family", "size", "instance", "seed", "solver", "status", "feasible",
    "oracle_feasible", "oracle_ok", "solution_valid", "simulated_time",
    "message_count", "info_bytes", "sep_max", "iterations", "wall_ms",
]

SUMMARY_FIELDS = [
    "family", "size", "solver", "metric", "count", "median", "ci_lo", "ci_hi",
]

SUMMARY_METRICS = ["simulated_time", "message_count", "info_bytes", "sep_max"]


@dataclass
class ExperimentConfig:
    family: str = "coloring"
    sizes: tuple[int, ...] = (3, 4, 5)
    instances: int = 5
    seed: int = 0
    solvers: tuple[str, ...] = ("dpop", "pdpop_plus")
    run: RunConfig = field(
        default_factory=lambda: RunConfig(timeout_secs=600.0))
    workers: int = 1


def instance_seed(base: int, family: str, size: int, index: int) -> int:
    return (base * 1000003 + hashs(family) * 9176 + size * 131 + index) % (1 << 62)


def hashs(s: str) -> int:
    out = 0
    for ch in s:
        out = (out * 33 + ord(ch)) % (1 << 32)
    return out


def _run_one(task: dict) -> dict:
    family, size, index = task["family"], task["size"], task["index"]
    solver = task["solver"]
    seed = task["seed"]
    problem = FAMILIES[family](size, seed)
    row = dict.fromkeys(RUN_FIELDS, "")
    row.update(family=family, size=size, instance=index, seed=seed,
               solver=solver, status="ok")
    t0 = time.perf_counter()
    try:
        result = run_solver(solver, problem, seed, task["run"])
    except (SimTimeout, MemoryError) as exc:
        # One instance too large for the host must not cost the whole grid
        # its rows (under --workers, pool.map would re-raise it).
        row["status"] = ("timeout" if isinstance(exc, SimTimeout)
                         else "out_of_memory")
        row["wall_ms"] = round(1000 * (time.perf_counter() - t0), 1)
        return row
    row["wall_ms"] = round(1000 * (time.perf_counter() - t0), 1)
    row["feasible"] = result.feasible
    row["simulated_time"] = result.metrics.simulated_time
    row["message_count"] = result.metrics.message_count
    row["info_bytes"] = result.metrics.info_bytes
    row["sep_max"] = result.metrics.sep_max
    row["iterations"] = result.iterations
    try:
        o = brute_force(problem, cap=ORACLE_CAP)
    except OracleCapExceeded:
        return row
    row["oracle_feasible"] = o.feasible
    ok = result.feasible == o.feasible
    if result.feasible:
        joint = result.joint_assignment()
        valid = (set(joint) == set(problem.variables)
                 and evaluate(problem, joint) == 0)
        row["solution_valid"] = valid
        ok = ok and valid
    row["oracle_ok"] = ok
    return row


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    tasks = []
    for size in cfg.sizes:
        for index in range(cfg.instances):
            seed = instance_seed(cfg.seed, cfg.family, size, index)
            for solver in cfg.solvers:
                tasks.append({
                    "family": cfg.family, "size": size, "index": index,
                    "seed": seed, "solver": solver,
                    "run": cfg.run,
                })
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_run_one, tasks))
    return [_run_one(t) for t in tasks]


def median_ci(values):
    """Median with a distribution-free 95% order-statistic confidence
    interval (binomial ranks)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None, None, None
    med = statistics.median(xs)
    alpha = 0.025
    r, cdf = 0, 0.0
    for k in range(n):
        nxt = cdf + math.comb(n, k) * 0.5 ** n
        if nxt <= alpha:
            cdf, r = nxt, k + 1
        else:
            break
    lo = xs[max(r - 1, 0)]
    hi = xs[min(n - r, n - 1)]
    return med, lo, hi


def summarize(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        groups.setdefault((row["family"], row["size"], row["solver"]),
                          []).append(row)
    out = []
    for (family, size, solver), members in sorted(groups.items()):
        for metric in SUMMARY_METRICS:
            values = [m[metric] for m in members if m[metric] != ""]
            med, lo, hi = median_ci(values)
            out.append({
                "family": family, "size": size, "solver": solver,
                "metric": metric, "count": len(values), "median": med,
                "ci_lo": lo, "ci_hi": hi,
            })
    return out


def trend_check(summary: list[dict]) -> list[str]:
    """Soft consistency check: more privacy should not be cheaper.

    Compares medians of simulated time and info bytes up the ladder of
    privacy grades in SOLVERS, DPOP < P-DPOP < P^3/2 < P^2, per (family,
    size); reports log lines, never raises."""
    lines = []
    table: dict[tuple, dict[str, float]] = {}
    for row in summary:
        if row["metric"] in ("simulated_time", "info_bytes") and row["median"] is not None:
            table.setdefault((row["family"], row["size"], row["metric"]),
                             {})[row["solver"]] = row["median"]
    for (family, size, metric), per_solver in sorted(table.items()):
        ranked = sorted(per_solver.items(),
                        key=lambda kv: SOLVERS[kv[0]].privacy)
        for (s1, v1), (s2, v2) in zip(ranked, ranked[1:]):
            if SOLVERS[s1].privacy >= SOLVERS[s2].privacy:
                continue
            status = "OK" if v1 <= v2 else "VIOLATION"
            lines.append(
                f"TREND {status} {family} n={size} {metric}: "
                f"{s1}={v1} <= {s2}={v2}")
    return lines


def write_csv(rows: list[dict], path, fields=None):
    fields = fields or RUN_FIELDS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
