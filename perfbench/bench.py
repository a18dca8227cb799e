"""Run one workload: set-up, timed rounds, correctness gate, metrics.

Load shape: one process and one caller.  Solves run back to back through
``discsp.run_solver`` (a closed loop with one client); a round solves every
case of the workload once.  The first round runs in case order and is
gated; later rounds run in an order drawn from the run seed.  Whole rounds
repeat while the next one still fits in the time budget, with at least
one.  Only the ``run_solver`` calls are timed, each bracketed by two timings
of the workload's reference computation; calls and references count against
the time budget, and gating, hashing and garbage collection happen between
them.  Reported times are rescaled by the reference (see reference.py); raw
times are in the details line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from discsp import run_solver

import gate
import micro
from reference import REFERENCE_S, reference_s
from tracer import Tracer, tracing
from workloads import WORKLOADS, Case, Workload, build_cases, round_order, warm_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_SETUPS = 8  # fresh-interpreter set-ups, besides the run's own
COLD_SETUP_TIMEOUT_S = 150
TRACE_PAIRS = 2  # untraced and traced rounds per traced run

def setup(w: Workload) -> list[Case]:
    """Instance generation plus one warm-up solve."""
    cases = build_cases(w)
    warm = warm_case(w)
    run_solver(warm.solver, warm.problem, warm.seed, w.run_config())
    return cases


def timed_solve(case: Case, config, reference: str):
    """(seconds, reference seconds, result or None, error or None) for one
    run_solver call.  The reference seconds are the mean of one timing of
    the named reference right before the call and one right after it."""
    gc.collect()
    before = reference_s(reference)
    start = time.perf_counter()
    try:
        result = run_solver(case.solver, case.problem, case.seed, config)
        error = None
    except Exception:  # a failed solve is counted and the run goes on
        result, error = None, traceback.format_exc(limit=3)
    dt = time.perf_counter() - start
    return dt, (before + reference_s(reference)) / 2, result, error


def rescaled(seconds: float, ref_s: float) -> float:
    """`seconds` on a host where the reference takes REFERENCE_S."""
    return seconds * REFERENCE_S / ref_s


def _signature(result) -> tuple:
    m = result.metrics
    return (result.feasible, sorted(result.joint_assignment().items(), key=repr),
            m.message_count, m.info_bytes, m.simulated_time, result.iterations)


class Checker:
    """Gates the first solve of each case; a later solve of the same case
    must reproduce its outcome exactly.  Cases are keyed by their position
    in the workload's case list."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unverified = 0
        self.failures: list[str] = []
        self._oracle: dict = {}
        self._first: dict[int, tuple] = {}
        self._digests: dict[int, str] = {}
        self._totals: dict[int, tuple[int, int, int]] = {}

    def record(self, pos: int, case: Case, result, error: str | None):
        self.attempted += 1
        if error is not None:
            self._fail(case, error)
            return
        sig = _signature(result)
        if pos in self._first:
            if sig != self._first[pos]:
                self._fail(case, "outcome differs from the case's first solve")
            return
        verdict = gate.check(case.solver, case.problem, result, self._oracle)
        if not verdict.verified:
            self.unverified += 1
        if not verdict.ok:
            self._fail(case, "; ".join(verdict.problems))
            return
        self._first[pos] = sig
        self._digests[pos] = hashlib.sha256(
            result.transcript.to_jsonl().encode("utf-8")).hexdigest()
        m = result.metrics
        self._totals[pos] = (m.message_count, m.info_bytes, m.simulated_time)

    def _fail(self, case: Case, reason: str):
        self.failed += 1
        self.failures.append(f"{case.solver} instance {case.instance}: {reason}")

    def transcript_sha256(self) -> str:
        """SHA-256 over the per-case transcript digests, in case order."""
        h = hashlib.sha256()
        for pos in sorted(self._digests):
            h.update(self._digests[pos].encode("ascii"))
        return h.hexdigest()

    def round_totals(self) -> tuple[int, int, int]:
        """Messages, information bytes and simulated time of one round."""
        return tuple(sum(t[k] for t in self._totals.values()) for k in range(3))


def solve_round(order, config, reference: str,
                checker: Checker) -> list[tuple[int, float, float]]:
    """Solve each (position, case) once, gating each result after its solve;
    returns (position, seconds, reference seconds) per solve."""
    times = []
    for pos, case in order:
        dt, ref, result, error = timed_solve(case, config, reference)
        times.append((pos, dt, ref))
        checker.record(pos, case, result, error)
        del result
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setup_s(w: Workload) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of each fresh-interpreter set-up, the
    reference timed right before and right after it."""
    out = []
    for _ in range(COLD_SETUPS):
        before = reference_s(w.reference)
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold_setup.py"), w.name], cwd=ROOT,
            capture_output=True, text=True, timeout=COLD_SETUP_TIMEOUT_S,
            check=True)
        ref = (before + reference_s(w.reference)) / 2
        out.append((json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"],
                    ref))
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the program's sources; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "discsp").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_untraced(w: Workload, seed: int, seconds: float, started: float):
    cases = setup(w)
    setup_samples = [(time.perf_counter() - started, reference_s(w.reference))]
    config = w.run_config()
    rng = random.Random(seed)
    checker = Checker()
    case_times: list[list[tuple[float, float]]] = [[] for _ in cases]
    busy = 0.0
    rounds = 0
    order = list(enumerate(cases))  # the gated first round runs in case order
    while True:
        round_s = 0.0
        for pos, dt, ref in solve_round(order, config, w.reference, checker):
            round_s += dt + 2 * ref
            case_times[pos].append((dt, ref))
        busy += round_s
        rounds += 1
        if rounds == 1:
            # Measured before later rounds: their heap fragmentation would
            # make the peak depend on how many rounds fit.
            peak_mb = peak_rss_mb()
        if busy + round_s > seconds:
            break
        order = round_order(order, rng)
    setup_samples += cold_setup_s(w)
    case_p50 = [statistics.median(rescaled(dt, ref) for dt, ref in ts)
                for ts in case_times]
    messages, info_bytes, sim_time = checker.round_totals()
    metrics = {
        "solves_per_s": (1 - checker.failed / checker.attempted)
        * len(case_p50) / sum(case_p50),
        "solve_s_p50": statistics.median(case_p50),
        "setup_s": statistics.median(rescaled(s, ref)
                                     for s, ref in setup_samples),
        "peak_rss_mb": peak_mb,
        "messages": messages,
        "info_bytes": info_bytes,
        "sim_time": sim_time,
    }
    raw_p50 = [statistics.median(dt for dt, _ in ts) for ts in case_times]
    details = {"rounds": rounds, "solves": checker.attempted,
               "raw_solve_s_p50": statistics.median(raw_p50),
               "raw_setup_s": statistics.median(s for s, _ in setup_samples),
               "reference_s_p50": statistics.median(
                   ref for ts in case_times for _, ref in ts),
               "setup_samples_s": setup_samples, "case_times_s": case_times}
    return metrics, checker, details


def transcript_counts(results) -> dict[str, int]:
    c = dict.fromkeys(
        ("deliveries", "info_bytes", "kernel_msgs", "score_msgs", "ring_hops",
         "reroots", "feas_bytes", "vect_bytes", "decr_msgs", "sep_max",
         "p32_shuffle_enc", "decrypt_partials", "p2_enc"), 0)
    for r in results:
        m = r.metrics
        pc = m.physical_counts
        c["deliveries"] += m.message_count
        c["info_bytes"] += m.info_bytes
        c["kernel_msgs"] += sum(pc.get(t, 0) for t in ("SCORE", "TOKEN", "IDS"))
        c["score_msgs"] += pc.get("SCORE", 0)
        c["ring_hops"] += pc.get("PREV", 0) + pc.get("LAST", 0)
        c["reroots"] += r.iterations
        c["sep_max"] = max(c["sep_max"], m.sep_max)
        for key in ("p32_shuffle_enc", "decrypt_partials", "p2_enc"):
            c[key] += m.stats.get(key, 0)
        for rec in r.transcript:
            inner = (rec.payload.get("inner_type")
                     if rec.type in ("PREV", "LAST") else rec.type)
            if inner == "FEAS":
                c["feas_bytes"] += rec.size
            elif inner == "VECT":
                c["vect_bytes"] += rec.size
            elif inner == "DECR":
                c["decr_msgs"] += 1
    return c


def layer_metrics(tracer: Tracer, c: dict[str, int], traced_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer figures of one round.  `c` holds its transcript counts."""
    t = tracer
    tables_s = t.layer_self_s("tables")
    crypto_s = t.layer_self_s("crypto")
    encode_s = t.layer_self_s("runtime")

    def self_s(*names):
        return sum(t.self_s.get(f"tables.{n}", 0.0) for n in names)

    return {
        "tables.calls": t.layer_calls["tables"],
        "tables.self_s": tables_s,
        "tables.cells_out": t.cells_out,
        "tables.cells_per_s": t.cells_out / tables_s if tables_s else 0.0,
        "tables.join.self_s": self_s("join"),
        "tables.project_min.self_s": self_s("project_min"),
        "tables.project.self_s": self_s("project"),
        "tables.reorder.self_s": self_s("reorder_axis_values", "align_to"),
        "tables.resolve.self_s": self_s("resolve_codename", "diagonal_merge"),
        "crypto.calls": t.layer_calls["crypto"],
        "crypto.self_s": crypto_s,
        # encrypt and encrypt_small both encrypt through encrypt_element.
        "crypto.encrypt.us": t.mean_us("crypto.encrypt_element"),
        "crypto.rerandomize.us": t.mean_us("crypto.rerandomize"),
        "crypto.strip_share.us": t.mean_us("crypto.strip_share"),
        "crypto.and_cleartext.us": t.mean_us("crypto.and_cleartext"),
        "crypto.or_cipher.us": t.mean_us("crypto.or_cipher"),
        "crypto.decode.us": t.mean_us("crypto.decode"),
        "crypto.shuffle_enc": c["p32_shuffle_enc"],
        "crypto.decrypt_partials": c["decrypt_partials"],
        "crypto.p2_enc": c["p2_enc"],
        "runtime.deliveries": c["deliveries"],
        "runtime.deliveries_per_s": c["deliveries"] / untraced_s,
        "runtime.encode_s": encode_s,
        "runtime.encode_mb_per_s": c["info_bytes"] / encode_s / 1e6 if encode_s else 0.0,
        "runtime.ring_hops": c["ring_hops"],
        "kernel.msgs": c["kernel_msgs"],
        "kernel.score_msgs": c["score_msgs"],
        "kernel.reroots": c["reroots"],
        "proto.feas_bytes": c["feas_bytes"],
        "proto.vect_bytes": c["vect_bytes"],
        "proto.decr_msgs": c["decr_msgs"],
        "proto.sep_max": c["sep_max"],
        "residual.self_s": traced_s - tables_s - crypto_s - encode_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def run_traced(w: Workload, seed: int):
    """Untraced and traced rounds in turn; the per-layer figures come from
    the fastest traced round, the overhead from the fastest of each kind.
    Then the micro-probes."""
    cases = setup(w)
    config = w.run_config()
    order = list(enumerate(cases))
    checker = Checker()
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(sum(dt for _, dt, _ in solve_round(
            order, config, w.reference, checker)))
        tracer = Tracer()
        with tracing(tracer):
            solves = [(pos, case) + timed_solve(case, config, w.reference)
                      for pos, case in order]
        for pos, case, _dt, _ref, result, error in solves:
            checker.record(pos, case, result, error)
        counts = transcript_counts(s[4] for s in solves if s[4] is not None)
        traced.append((sum(s[2] for s in solves), tracer, counts))
        del solves
    traced_s, tracer, counts = min(traced, key=lambda t: t[0])
    metrics = layer_metrics(tracer, counts, traced_s, min(untraced))
    metrics.update(micro.probe(seed))
    details = {"rounds": 2 * TRACE_PAIRS, "solves": checker.attempted,
               "untraced_s": untraced, "traced_s": [t[0] for t in traced]}
    return metrics, checker, details


def environment(seed: int, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(w: Workload, seed: int, seconds: float, trace: bool, started: float):
    """(details line, result line) for one run of a workload."""
    load_start = os.getloadavg()
    if trace:
        metrics, checker, details = run_traced(w, seed)
    else:
        metrics, checker, details = run_untraced(w, seed, seconds, started)
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    details.update({
        "workload": w.name, "trace": int(trace),
        "environment": environment(seed, load_start),
        "transcript_sha256": checker.transcript_sha256(),
        "fail_frac": checker.failed / checker.attempted,
        "unverified": checker.unverified,
        "failures": checker.failures[:5],
    })
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return details, result
