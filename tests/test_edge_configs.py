"""Edge configurations: non-uniform domains, padding on/off, zero-width
obfuscation, dense IDs."""

import pytest

from conftest import outcome, simulate, solver_process
from discsp.model import Constraint, Problem, evaluate, pad_domains
from discsp.generators import gen_resource_allocation
from discsp.oracle import brute_force
from discsp.runtime import RunConfig
from discsp.solvers import SOLVERS, run_solver


def mixed_domain_problem():
    doms = {"x1": ("R", "B"), "x2": ("R", "B", "G"), "x3": ("R", "B", "G")}
    owner = {"x1": "a1", "x2": "a2", "x3": "a3"}
    cons = [
        Constraint.from_predicate((a, b), (doms[a], doms[b]),
                                  lambda u, v: u != v,
                                  name=f"ne_{a}_{b}")
        for a, b in (("x1", "x2"), ("x2", "x3"), ("x1", "x3"))
    ]
    return doms, Problem(("a1", "a2", "a3"), ("x1", "x2", "x3"), owner, doms,
                         cons)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("pad", [None, False])
def test_non_uniform_domains(solver, pad):
    # pad=None runs run_solver, which pads as the solver does by default;
    # pad=False runs the unpadded problem through the test driver.
    doms, p = mixed_domain_problem()
    o = brute_force(p)
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=1)
    if pad is None:
        r = run_solver(solver, p, seed=3, config=cfg)
        feasible, joint = r.feasible, r.joint_assignment()
    else:
        feasible, joint = outcome(simulate(p, solver_process(solver), 3, cfg))
    assert feasible == o.feasible
    assert evaluate(p, joint) == 0
    # padded fake values never surface in the reported assignments
    assert all(v in doms[x] for x, v in joint.items())


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_run_solver_pads_every_solver_but_dpop(solver):
    _doms, p = mixed_domain_problem()
    cfg = RunConfig(key_bits=64)
    ran = run_solver(solver, p, seed=3, config=cfg).transcript.to_jsonl()
    padded, unpadded = (
        simulate(q, solver_process(solver), 3, cfg).transcript.to_jsonl()
        for q in (pad_domains(p), p))
    assert padded != unpadded
    assert ran == (unpadded if solver == "dpop" else padded)


def pad_prefixed_problem():
    """x in (!pad0, a), y in (!pad0, a, b), one constraint x == y == !pad0:
    the only solution uses a real value that starts with the pad prefix."""
    doms = {"x": ("!pad0", "a"), "y": ("!pad0", "a", "b")}
    owner = {"x": "a1", "y": "a2"}
    c = Constraint.from_predicate(("x", "y"), (doms["x"], doms["y"]),
                                  lambda u, v: u == v == "!pad0",
                                  name="both_pad0")
    return Problem(("a1", "a2"), ("x", "y"), owner, doms, (c,))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_real_value_with_the_pad_prefix_is_not_padding(solver):
    p = pad_prefixed_problem()
    o = brute_force(p)
    assert o.feasible
    r = run_solver(solver, p, seed=1, config=RunConfig(key_bits=64))
    assert r.feasible == o.feasible
    assert r.joint_assignment() == {"x": "!pad0", "y": "!pad0"}


def test_zero_width_obfuscation_on_wide_scopes():
    p = gen_resource_allocation(slots=4, bids=2, seed=0)
    o = brute_force(p)
    r = run_solver("pdpop_plus", p, seed=1, config=RunConfig(b_bits=0))
    assert r.feasible == o.feasible


def test_dense_ids_keep_counters_exact():
    _doms, p = mixed_domain_problem()
    # Padded as run_solver pads it for p32.
    sim = simulate(pad_domains(p), solver_process("p32"), 2,
                   RunConfig(key_bits=64, incr_min=0))
    stats = sim.metrics.stats
    n = len(p.variables)
    n_plus = sim.processes["x1"].ids.total_bound
    assert n_plus == n  # incr_min=0 forces ids 0..n-1
    assert sorted(sim.metrics.notes["roots"]) == sorted(p.variables)
    assert stats["decrypt_partials"] == n * n * n_plus
    assert stats["p32_shuffle_enc"] == n * (3 * n - 1) * n_plus
