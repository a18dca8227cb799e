"""Tests for the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from discsp import crypto, dpop, p2, pdpop, problemio, runtime, tables

import bench
import gate
from reference import REFERENCE_S
from tracer import Tracer, patch_targets, tracing
from workloads import WORKLOADS, build_cases, round_order

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def smoke(w):
    """The workload at its warm-up size, one instance."""
    return dataclasses.replace(w, size=w.warm_size, instances=(0,))


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children():
    # join [0, 10] > and_cleartext [2, 6] > encrypt_element [3, 5]
    t = Tracer(clock=FakeClock(0, 2, 3, 5, 6, 10))
    t.enter("tables.join")
    t.enter("crypto.and_cleartext")
    t.enter("crypto.encrypt_element")
    t.exit()
    t.exit()
    t.exit()
    assert t.inclusive_s == {"tables.join": 10, "crypto.and_cleartext": 4,
                             "crypto.encrypt_element": 2}
    assert t.self_s == {"tables.join": 6, "crypto.and_cleartext": 2,
                        "crypto.encrypt_element": 2}
    assert t.layer_self_s("tables") == 6
    assert t.layer_self_s("crypto") == 4
    # encrypt_element is entered from inside crypto: one call into the layer.
    assert t.layer_calls == {"tables": 1, "crypto": 1, "runtime": 0}
    assert t.mean_us("crypto.and_cleartext") == 4e6


def test_crypto_in_join_combine_is_not_table_time():
    params = crypto.TOY64_GROUP
    rng = random.Random(3)
    share = crypto.generate_share(params, rng)
    key = crypto.combine_public(params, [share.public])

    def table(labels):
        scope = [tables.Axis(label, (0, 1)) for label in labels]
        return tables.FeasTable(
            scope, [crypto.encrypt(params, key, bool(i % 2), rng)
                    for i in range(2 ** len(labels))])

    t1, t2 = table("ab"), table("bc")
    tracer = Tracer()
    with tracing(tracer):
        out = tables.join(t1, t2, lambda a, b: crypto.or_cipher(params, a, b))
    assert tracer.calls["tables.join"] == 1
    assert tracer.calls["crypto.or_cipher"] == len(out.entries) == 8
    assert tracer.layer_calls["crypto"] == 8
    assert tracer.cells_out == 8
    assert tracer.self_s["tables.join"] == pytest.approx(
        tracer.inclusive_s["tables.join"]
        - tracer.inclusive_s["crypto.or_cipher"])
    assert tracer.layer_self_s("tables") == pytest.approx(
        tracer.self_s["tables.join"])


def test_recursive_encoding_is_one_span_per_outermost_call():
    tracer = Tracer()
    payload = {"type": "X", "payload": {"a": [1, 2, {"b": "c"}]}}
    with tracing(tracer):
        size = runtime.wire_size(runtime.canonical(payload))
    assert size == runtime.wire_size(runtime.canonical(payload))
    assert tracer.calls == {"runtime.canonical": 1, "runtime.wire_size": 1}


def test_tracing_patches_from_imports_and_restores_on_error():
    targets = patch_targets()
    owners = {(owner, attr) for owner, attr, _fn, _name in targets}
    for owner, attr in ((dpop, "join"), (pdpop, "resolve_codename"),
                        (p2, "project"), (tables, "join"),
                        (crypto, "encrypt"), (crypto.GroupParams, "decode"),
                        (runtime, "wire_size")):
        assert (owner, attr) in owners
    with pytest.raises(RuntimeError):
        with tracing(Tracer()):
            for owner, attr, fn, _name in targets:
                assert getattr(owner, attr) is not fn
            raise RuntimeError("boom")
    for owner, attr, fn, _name in targets:
        assert getattr(owner, attr) is fn


def test_traced_run_restores_every_wrapped_attribute():
    before = [(owner, attr, fn) for owner, attr, fn, _ in patch_targets()]
    metrics, checker, _ = bench.run_traced(smoke(WORKLOADS["ring64"]), seed=1)
    assert checker.failed == 0
    for owner, attr, fn in before:
        assert getattr(owner, attr) is fn, (owner, attr)
    assert metrics["crypto.calls"] > 0
    assert metrics["runtime.encode_s"] > 0


def test_instances_are_a_pure_function_of_the_seed():
    for w in WORKLOADS.values():
        a, b = build_cases(w), build_cases(w)
        assert [(c.instance, c.solver, c.seed, problemio.dumps(c.problem))
                for c in a] == [(c.instance, c.solver, c.seed,
                                 problemio.dumps(c.problem)) for c in b]
        order_a = round_order(range(len(a)), random.Random(7))
        assert order_a == round_order(range(len(a)), random.Random(7))
        assert sorted(order_a) == list(range(len(a)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name):
    w = smoke(WORKLOADS[name])
    details, result = bench.run(w, seed=1, seconds=0, trace=False,
                                started=time.perf_counter())
    assert result["correct"], details["failures"]
    assert result["attempted"] == len(w.solvers)
    assert details["unverified"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_solve_times_are_rescaled_by_their_own_reference():
    w = smoke(WORKLOADS["flood"])
    metrics, _checker, details = bench.run_untraced(
        w, seed=1, seconds=0, started=time.perf_counter())
    [[(dt, ref)]] = details["case_times_s"]
    assert dt > 0 and ref > 0
    assert metrics["solve_s_p50"] == pytest.approx(dt * REFERENCE_S / ref)
    assert metrics["solves_per_s"] == pytest.approx(ref / (dt * REFERENCE_S))
    assert bench.rescaled(2.0, 2 * REFERENCE_S) == pytest.approx(1.0)


def test_traced_smoke_run_reports_every_per_layer_metric():
    w = smoke(WORKLOADS["wide_tables"])
    details, result = bench.run(w, seed=1, seconds=0, trace=True,
                                started=time.perf_counter())
    assert result["correct"], details["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["crypto.calls"]["value"] == 0


def test_gate_rejects_wrong_verdicts():
    w = smoke(WORKLOADS["wide_tables"])
    case = build_cases(w)[0]
    result = bench.run_solver(case.solver, case.problem, case.seed,
                              w.run_config())
    assert result.feasible and gate.check(case.solver, case.problem, result).ok
    flipped = dataclasses.replace(result, feasible=False)
    assert not gate.check(case.solver, case.problem, flipped).ok
    # A joint assignment that breaks one constraint.
    c = next(c for c in case.problem.constraints if len(c.scope) == 2)
    bad = next(vals for vals in itertools.product(
        *(case.problem.domains[x] for x in c.scope)) if c.cost(vals))
    broken = dataclasses.replace(result, per_agent={
        a: {x: dict(zip(c.scope, bad)).get(x, v) for x, v in local.items()}
        for a, local in result.per_agent.items()})
    assert not gate.check(case.solver, case.problem, broken).ok
    missing = dataclasses.replace(result, per_agent={})
    assert not gate.check(case.solver, case.problem, missing).ok


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
