import hashlib

import pytest

from conftest import infeasible_triangle, outcome, simulate, solver_process
from discsp import crypto
from discsp.audit import SPEC_BY_SOLVER, audit, summarize
from discsp.generators import FAMILIES, gen_graph_coloring
from discsp.model import Constraint, Problem, evaluate
from discsp.oracle import brute_force
from discsp.p32 import P32Process
from discsp.runtime import DeadlockError, RunConfig
from discsp.solvers import run_solver

CFG = RunConfig(key_bits=64, b_bits=128, incr_min=2)


def run_fig1(fig1, solver="p32", seed=7, cfg=CFG):
    return run_solver(solver, fig1, seed=seed, config=cfg)


def simulate_fig1(fig1, solver="p32", seed=7):
    """The same run as run_fig1, with its processes to inspect (figure 1's
    domains are uniform, so run_solver pads nothing)."""
    return simulate(fig1, solver_process(solver), seed, CFG)


def decrypt_entry(params, c, shares):
    decs = [crypto.partial_decrypt(params, c, s) for s in shares]
    return crypto.decode_small(params, crypto.recover_element(params, c, decs))


def test_compound_keys_identical_and_counted(fig1):
    procs = simulate_fig1(fig1).processes.values()
    params = next(iter(procs)).params
    product = 1
    for proc in procs:
        product = product * proc.key_share.public % params.p
    assert {proc.compound for proc in procs} == {product}
    n_plus = next(proc.ids.total_bound for proc in procs)
    # share ranges partition [0, n+): everyone circulated id+ - id + 1 shares
    total = sum(proc.ids.next_bound - proc.ids.id + 1 for proc in procs)
    assert total == n_plus


def test_single_variable_compound_is_own_product():
    dom = ("R", "B")
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom},
                (Constraint.from_predicate(("x1",), (dom,),
                                           lambda v: v == "B", name="u"),))
    sim = simulate(p, solver_process("p32"), 3, CFG)
    assert outcome(sim) == (True, {"x1": "B"})
    assert sim.metrics.notes["roots"] == ["x1"]
    proc = sim.processes["x1"]
    assert proc.compound == proc.key_share.public


class SnapshotP32(P32Process):
    """P32Process that keeps a copy of its shuffled root vector."""

    def shuffle_vectors(self):
        vector = yield from super().shuffle_vectors()
        self.shuffled_snapshot = list(vector)
        return vector


def test_shuffled_vectors_instrumented(fig1):
    """Decrypting every shuffled vector (test-only omniscience): one 0 per
    vector at distinct positions, identical -1 positions everywhere, and a
    single composed permutation consistent with all vectors."""
    procs = simulate(fig1, lambda var, sim: SnapshotP32(var, sim, "minus"),
                     7, CFG).processes
    params = crypto.group_for_bits(CFG.key_bits)
    shares = [proc.key_share for proc in procs.values()]
    ids = {x: proc.ids for x, proc in procs.items()}
    n_plus = next(iter(ids.values())).total_bound
    patterns = {}
    for x, proc in procs.items():
        vect = proc.shuffled_snapshot
        assert len(vect) == n_plus
        patterns[x] = [decrypt_entry(params, c, shares) for c in vect]
    minus_positions = {x: tuple(i for i, v in enumerate(pat) if v == -1)
                       for x, pat in patterns.items()}
    assert len(set(minus_positions.values())) == 1
    zero_positions = {x: [i for i, v in enumerate(pat) if v == 0]
                      for x, pat in patterns.items()}
    assert all(len(z) == 1 for z in zero_positions.values())
    assert len({z[0] for z in zero_positions.values()}) == len(patterns)
    # One permutation explains every vector: position of x's 0 after the
    # shuffle is pi(id_x) for a global pi.
    pi = {}
    for x, z in zero_positions.items():
        pi[ids[x].id] = z[0]
    assert len(set(pi.values())) == len(pi)


def test_each_variable_root_exactly_once(fig1):
    for seed in (1, 2, 3):
        r = run_fig1(fig1, seed=seed)
        roots = r.metrics.notes["roots"]
        assert sorted(roots) == sorted(fig1.variables)
        assert r.iterations == len(fig1.variables)


def test_elgamal_operation_counters_exact(fig1):
    sim = simulate_fig1(fig1)
    n = len(fig1.variables)
    n_plus = sim.processes["x1"].ids.total_bound
    assert sim.metrics.stats["p32_shuffle_enc"] == n * (3 * n - 1) * n_plus
    assert sim.metrics.stats["decrypt_partials"] == n * n * n_plus


def test_every_view_carries_its_epoch(fig1):
    sim = simulate_fig1(fig1, "p32_plus")
    for proc in sim.processes.values():
        assert sorted(proc.views) == list(range(len(fig1.variables) + 1))
        assert all(view.epoch == e for e, view in proc.views.items())


def test_feasible_run_produces_valid_joint_solution(fig1):
    r = run_fig1(fig1)
    assert r.feasible
    joint = r.joint_assignment()
    assert set(joint) == set(fig1.variables)
    assert evaluate(fig1, joint) == 0


def test_infeasible_terminates_after_one_iteration():
    r = run_solver("p32", infeasible_triangle(), seed=2, config=CFG)
    assert r.feasible is False
    assert r.iterations == 1
    assert r.per_agent == {}
    assert any(rec.type == "ABORT" for rec in r.transcript)


def test_infeasible_transcript_is_pinned():
    # The ABORT path (the root's ABORT down its tree, the children's
    # intercept forwarding it), recorded before the scheduler handed
    # deliveries straight to the blocked receiver.
    r = run_solver("p32_plus", infeasible_triangle(), seed=2, config=CFG)
    assert r.feasible is False
    assert any(rec.type == "ABORT" for rec in r.transcript)
    digest = hashlib.sha256(r.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == (
        "7011019779590f16f00aa90bfab92d3220be3d0435cfcd1270fb7ab5f43f67da")


def test_no_decision_messages_and_audit_clean(fig1):
    for solver in ("p32", "p32_plus"):
        r = run_fig1(fig1, solver=solver)
        assert all(rec.type != "DECISION" for rec in r.transcript)
        inner = [rec.payload.get("inner_type") for rec in r.transcript
                 if rec.type in ("PREV", "LAST")]
        assert "DECISION" not in inner
        counts = summarize(audit(r.transcript, fig1, SPEC_BY_SOLVER[solver]))
        assert counts.get("agent-privacy", 0) == 0
        assert counts.get("non-neighbor-delivery", 0) == 0
        assert counts.get("decision-privacy", 0) == 0


def test_oracle_equivalence_sample():
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for seed in range(10):
        p = gen_graph_coloring(3 + seed % 4, seed=seed + 700)
        o = brute_force(p)
        for solver in ("p32", "p32_plus"):
            r = run_solver(solver, p, seed=seed, config=cfg)
            assert r.feasible == o.feasible, (solver, seed)
            if o.feasible:
                assert evaluate(p, r.joint_assignment()) == 0
                assert r.iterations == len(p.variables)
            else:
                assert r.iterations == 1


@pytest.mark.parametrize("solver", ["p32", "p2"])
def test_equal_key_sub_shares_in_a_small_group(solver):
    # discsp gen --family coloring --size 4 --seed 2, solved with --key-bits
    # 5: two variables draw equal key sub-shares, which a variable that told
    # its own shares by value took for its own and did not forward.
    problem = FAMILIES["coloring"](4, 2)
    result = run_solver(solver, problem, 0, RunConfig(key_bits=5))
    assert result.feasible == brute_force(problem).feasible


@pytest.mark.parametrize("key_bits", [5, 8])
def test_small_groups_never_stop_the_share_ring(key_bits):
    # Told by value, own shares deadlocked 32 of these 48 runs at 5 bits and
    # 16 at 8 bits.
    cfg = RunConfig(key_bits=key_bits, b_bits=8, incr_min=2)
    for solver in ("p2", "p2_plus", "p32", "p32_plus"):
        for n in (3, 4, 5):
            for instance in range(4):
                problem = FAMILIES["coloring"](n, instance)
                try:
                    result = run_solver(solver, problem, 0, cfg)
                except DeadlockError as e:
                    pytest.fail(f"{solver} on coloring n={n} seed {instance}: {e}")
                assert result.feasible == brute_force(problem).feasible, (
                    solver, n, instance)
