"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here; everything is exact unless stated.
"""

import math
import random
import time

from conftest import (feas_sends, run_gen, simulate, solve_dpop,
                      solver_process, tables_equal)
from discsp import crypto
from discsp.audit import SPEC_BY_SOLVER, audit, summarize
from discsp.experiments import (ExperimentConfig, run_experiment, summarize
                                as summarize_rows, trend_check)
from discsp.generators import FAMILIES, gen_graph_coloring
from discsp.model import evaluate
from discsp.oracle import brute_force
from discsp.p2 import feasible_value, shadow_linear_tables
from discsp.runtime import RunConfig
from discsp.solvers import SOLVERS, run_solver
from discsp.tables import Axis, FeasTable

RGB = ("R", "B", "G")


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def expected(scope, entries):
    return FeasTable([Axis(lbl, vals) for lbl, vals in scope], list(entries))


def test_criterion_1_figure2_regression(fig1, fig2_views):
    t0 = time.perf_counter()
    _assignment, min_count, _metrics, transcript = solve_dpop(
        fig1, fig2_views, seed=0)
    elapsed = time.perf_counter() - t0
    want = {
        ("x5", "x3"): expected([("x3", RGB)], [0, 0, 1]),
        ("x1", "x4"): expected([("x4", RGB), ("x2", RGB)],
                               [0, 0, 0, 0, 0, 1, 0, 1, 0]),
        ("x4", "x3"): expected([("x3", RGB), ("x2", RGB)],
                               [0, 1, 0, 0, 0, 0, 0, 0, 0]),
        ("x3", "x2"): expected([("x2", RGB)], [0, 1, 0]),
    }
    got = {}
    for rec in transcript:
        if rec.type != "FEAS":
            continue
        struct = rec.payload["table"]
        axes = [Axis(ax["label"], tuple(ax["values"]))
                for ax in struct["scope"]]
        got[(rec.sender_var, rec.receiver_var)] = FeasTable(
            axes, list(struct["entries"]))
    ok = set(got) == set(want) and all(
        tables_equal(want[e], got[e]) for e in want)
    ok = ok and min_count == 0 and elapsed < 1.0
    report("criterion 1: Figure-2 FEAS tables exact", ok,
           f"{elapsed * 1000:.0f} ms")


def test_criterion_2_figure7_shadow_regression(fig1, fig2_views):
    sent, final = shadow_linear_tables(fig1, fig2_views)
    T, F = True, False
    want = {
        "x1": expected([("x4", RGB), ("x2", RGB)],
                       [T, T, T, T, T, F, T, F, T]),
        "x4": expected([("x3", RGB), ("x2", RGB)],
                       [T, F, T, T, T, T, T, T, T]),
        "x5": expected([("x3", RGB), ("x2", RGB)],
                       [T, F, T, T, T, T, F, F, F]),
        "x3": expected([("x2", RGB)], [T, F, T]),
    }
    ok = all(tables_equal(want[s], sent[s]) for s in want)
    ok = ok and final.labels() == ["x2"] and final.entries == [T, F, T]
    report("criterion 2: Figure-7 shadow tables exact", ok)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []

    def check(solver, problem, seed, cfg, oracle):
        r = run_solver(solver, problem, seed=seed, config=cfg)
        if r.feasible != oracle.feasible:
            mismatches.append((solver, seed, "verdict"))
            return r
        if oracle.feasible:
            joint = r.joint_assignment()
            if set(joint) != set(problem.variables) or \
                    evaluate(problem, joint) != 0:
                mismatches.append((solver, seed, "validity"))
        return r

    cfg = RunConfig(b_bits=128)
    runs_tree = 0
    for i in range(200):
        n = 3 + i % 6  # sizes 3..8
        p = gen_graph_coloring(n, seed=10_000 + i)
        o = brute_force(p)
        for solver in ("dpop", "pdpop", "pdpop_plus"):
            check(solver, p, 10_000 + i, cfg, o)
            runs_tree += 1

    cfg_crypto = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    runs_p32 = 0
    for i in range(100):
        n = 3 + i % 4  # sizes 3..6
        p = gen_graph_coloring(n, seed=20_000 + i)
        o = brute_force(p)
        for solver in ("p32", "p32_plus"):
            check(solver, p, 20_000 + i, cfg_crypto, o)
            runs_p32 += 1

    runs_p2 = 0
    for i in range(100):
        n = 3 + i % 3  # sizes 3..5
        p = gen_graph_coloring(n, seed=30_000 + i)
        o = brute_force(p)
        for solver in ("p2", "p2_plus"):
            check(solver, p, 30_000 + i, cfg_crypto, o)
            runs_p2 += 1

    elapsed = time.perf_counter() - t0
    ok = not mismatches and runs_tree == 600 and runs_p32 == 200 \
        and runs_p2 == 200 and elapsed < 600
    report("criterion 3: oracle equivalence (600+200+200 runs)", ok,
           f"{elapsed:.1f} s, mismatches={mismatches[:5]}")


def test_criterion_4_message_count_laws():
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    failures = []
    # (a) exactly n-1 FEAS per feasibility propagation, read off the
    # records; P3/2 and P2 propagate once per root and send no DECISION
    instances = [gen_graph_coloring(3 + i, seed=40_000 + i) for i in range(6)]
    instances += [FAMILIES[family](size, 40_100) for family, size in
                  (("party", 3), ("meetings", 2), ("auction", 2))]
    for i, p in enumerate(instances):
        n = len(p.variables)
        feasible = brute_force(p).feasible
        for solver, spec in SOLVERS.items():
            r = run_solver(solver, p, seed=i, config=cfg)
            iters = n if spec.privacy >= 2 and feasible else 1
            if r.iterations != iters:
                failures.append((solver, i, "iterations"))
            if feas_sends(r.transcript) != iters * (n - 1):
                failures.append((solver, i, "feas-count"))
            decisions = n - 1 if spec.privacy < 2 else 0
            if r.metrics.physical_counts.get("DECISION", 0) != decisions:
                failures.append((solver, i, "decision-count"))
    # (b) dichotomy decryption bounds for |D| in 1..8 (exhaustive patterns)
    for size in range(1, 9):
        lo = math.ceil(math.log2(size)) if size > 1 else 0
        hi = math.ceil(math.log2(size) + 1) if size > 1 else 1
        for bits in range(2 ** size):
            pattern = [(bits >> k) & 1 == 1 for k in range(size)]
            count = [0]

            def decrypt(cell):
                count[0] += 1
                if False:
                    yield
                return any(pattern[i] for i in cell)

            value = run_gen(feasible_value(
                tuple(range(size)), [frozenset([i]) for i in range(size)],
                decrypt, lambda a, b: a | b))
            if not (lo <= count[0] <= hi):
                failures.append(("dichotomy", size, bits))
            if any(pattern) != (value is not None):
                failures.append(("dichotomy-verdict", size, bits))
    report("criterion 4: message-count and decryption-count laws",
           not failures, str(failures[:5]))


def test_criterion_5_crypto_suite():
    failures = []
    rng = random.Random(77)
    for params in (crypto.TOY_GROUP, crypto.TOY64_GROUP, crypto.GROUP_512):
        share = crypto.generate_share(params, rng)
        key = crypto.combine_public(params, [share.public])

        def dec(c, shares=(share,)):
            decs = [crypto.partial_decrypt(params, c, s) for s in shares]
            return params.decode(crypto.recover_element(params, c, decs)) > 0

        def kernel(c):
            return crypto.rerandomize_entries(params, key, [c], rng)[0]

        for a in (False, True):
            for b in (False, True):
                c_or = crypto.or_cipher(params,
                                        crypto.encrypt(params, key, a, rng),
                                        crypto.encrypt(params, key, b, rng))
                if dec(c_or) is not (a or b):
                    failures.append((params.p.bit_length(), "or", a, b))
                # P2's AND: the kernel on c for true, on (1, 1) for false.
                c_and = crypto.encrypt(params, key, a, rng)
                c_and = kernel(c_and if b else {"alpha": 1, "beta": 1})
                if dec(c_and) is not (a and b):
                    failures.append((params.p.bit_length(), "and", a, b))
        # rerandomization invariance
        c = crypto.encrypt(params, key, True, rng)
        c2 = kernel(c)
        if dec(c2) is not True or c2 == c:
            failures.append((params.p.bit_length(), "rerandomize"))
        # compound keys, 1..5 shares
        for k in range(1, 6):
            shares = [crypto.generate_share(params, rng) for _ in range(k)]
            ckey = crypto.combine_public(params, [s.public for s in shares])
            for bit in (False, True):
                c = crypto.encrypt(params, ckey, bit, rng)
                if dec(c, shares) is not bit:
                    failures.append((params.p.bit_length(), "compound", k, bit))
    # 512-bit timing
    share = crypto.generate_share(crypto.GROUP_512, rng)
    key = crypto.combine_public(crypto.GROUP_512, [share.public])
    t0 = time.perf_counter()
    c = crypto.encrypt(crypto.GROUP_512, key, True, rng)
    out = crypto.GROUP_512.decode(crypto.recover_element(
        crypto.GROUP_512, c,
        [crypto.partial_decrypt(crypto.GROUP_512, c, share)])) > 0
    ms = (time.perf_counter() - t0) * 1000
    if out is not True or ms >= 50:
        failures.append(("timing", ms))
    report("criterion 5: crypto homomorphism/compound/rerandomize + <50ms",
           not failures, f"512-bit encrypt+decrypt {ms:.1f} ms")


def test_criterion_6_privacy_audit_suite():
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    failures = []
    decision_findings_dpop = 0
    for solver in ("dpop", "pdpop", "pdpop_plus", "p32", "p32_plus",
                   "p2", "p2_plus"):
        for i in range(50):
            n = 3 + i % 3
            p = gen_graph_coloring(n, seed=50_000 + i)
            r = run_solver(solver, p, seed=i, config=cfg)
            counts = summarize(audit(r.transcript, p, SPEC_BY_SOLVER[solver]))
            if counts.get("non-neighbor-delivery", 0):
                failures.append((solver, i, "non-neighbor"))
            if solver != "dpop" and counts.get("agent-privacy", 0):
                failures.append((solver, i, "agent"))
            if solver.startswith("p2") and counts.get("constraint-privacy", 0):
                failures.append((solver, i, "constraint"))
            if solver.startswith(("p32", "p2")):
                if counts.get("decision-privacy", 0):
                    failures.append((solver, i, "decision"))
                if any(rec.type == "DECISION" for rec in r.transcript):
                    failures.append((solver, i, "decision-msg"))
            if solver == "dpop":
                decision_findings_dpop += counts.get("decision-privacy", 0)
    ok = not failures and decision_findings_dpop > 0
    report("criterion 6: privacy audits (50 instances x 7 solvers)", ok,
           f"dpop control decision findings={decision_findings_dpop}, "
           f"failures={failures[:5]}")


def test_criterion_7_elgamal_operation_counters(fig1):
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=10)
    failures = []
    for solver in ("p32", "p32_plus"):
        for seed in (3, 11):
            # fig1's domains are uniform: run_solver would pad nothing.
            sim = simulate(fig1, solver_process(solver), seed, cfg)
            stats = sim.metrics.stats
            n = len(fig1.variables)
            n_plus = sim.processes["x1"].ids.total_bound
            want_enc = n * (3 * n - 1) * n_plus
            want_dec = n * n * n_plus
            if stats.get("p32_shuffle_enc") != want_enc:
                failures.append((solver, seed, "enc",
                                 stats.get("p32_shuffle_enc"), want_enc))
            if stats.get("decrypt_partials") != want_dec:
                failures.append((solver, seed, "dec",
                                 stats.get("decrypt_partials"), want_dec))
    report("criterion 7: shuffle n(3n-1)n+ encryptions, reroot n^2 n+ "
           "decryptions", not failures, str(failures[:4]))


def test_criterion_8_each_variable_roots_once(fig1):
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    failures = []
    for seed in range(5):
        r = run_solver("p32", fig1, seed=60_000 + seed, config=cfg)
        roots = r.metrics.notes.get("roots", [])
        if sorted(roots) != sorted(fig1.variables):
            failures.append((seed, roots))
    report("criterion 8: each variable is root exactly once (5 seeds, n=5)",
           not failures, str(failures))


def test_soft_trend_check_logged_not_fatal():
    cfg = ExperimentConfig(
        family="coloring", sizes=(3, 4, 5), instances=4, seed=70_000,
        solvers=("pdpop_plus", "p32_plus", "p2_plus"),
        run=RunConfig(key_bits=64, incr_min=2))
    rows = run_experiment(cfg)
    lines = trend_check(summarize_rows(rows))
    for line in lines:
        print(line)
    violations = [ln for ln in lines if "VIOLATION" in ln]
    print(f"[INFO] soft trend check: {len(lines) - len(violations)} ok, "
          f"{len(violations)} violations (non-fatal)")
    assert lines, "trend check produced no comparisons"
