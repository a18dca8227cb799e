"""Cross-family solver coverage: every solver on every benchmark family.

Exercises multi-variable agents (meetings, auction, party) and constraints
of arity >= 3, where a back-edge constraint can join deeper in the subtree
than the back-edge leaf itself."""

import dataclasses

import pytest

from discsp import dpop, pdpop
from discsp.experiments import instance_seed
from discsp.generators import FAMILIES
from discsp.model import Constraint, evaluate
from discsp.oracle import brute_force
from discsp.runtime import RunConfig
from discsp.solvers import SOLVERS, run_solver
from discsp.tables import FeasTable

CFG = RunConfig(key_bits=64, b_bits=128, incr_min=2)

CASES = [
    ("meetings", 2, 0), ("meetings", 2, 3),
    ("party", 3, 1), ("party", 4, 2),
    ("auction", 2, 0),  # regression: exactly-one scope spans several copies
    ("auction", 2, 1),
]


@pytest.mark.parametrize("family,size,seed", CASES)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solver_matches_oracle(family, size, seed, solver):
    problem = FAMILIES[family](size, seed)
    oracle = brute_force(problem)
    result = run_solver(solver, problem, seed=seed, config=CFG)
    assert result.feasible == oracle.feasible
    if oracle.feasible:
        joint = result.joint_assignment()
        assert set(joint) == set(problem.variables)
        assert evaluate(problem, joint) == 0


# Seeded instances of every family within the oracle cap; the coloring and
# auction ones are infeasible, so their minimum count is 1, not 0.
COUNT_CASES = [("coloring", 5, 1), ("coloring", 5, 3), ("meetings", 2, 0),
               ("auction", 4, 12), ("party", 4, 0)]


@pytest.mark.parametrize("family,size,index", COUNT_CASES)
def test_only_dpop_reports_min_violations(family, size, index):
    """dpop reports the oracle's minimum violation count.  The private
    solvers report None: P-DPOP's root minimum is obfuscated, and the
    others never compute a count."""
    seed = instance_seed(0, family, size, index)
    problem = FAMILIES[family](size, seed)
    oracle = brute_force(problem)
    cfg = RunConfig(key_bits=64, b_bits=16, incr_min=2)
    for solver in sorted(SOLVERS):
        result = run_solver(solver, problem, seed=seed, config=cfg)
        assert result.feasible == oracle.feasible
        expected = oracle.min_violations if solver == "dpop" else None
        assert result.min_violations == expected, solver


def forbid_all(problem, agents):
    """`problem` plus one unary constraint forbidding every value of the
    first variable of each of the first `agents` agents in variable order.
    Each such constraint costs one violation."""
    firsts = {}
    for x in problem.variables:
        firsts.setdefault(problem.owner[x], x)
    extra = tuple(
        Constraint.from_predicate((x,), (problem.domains[x],),
                                  lambda _v: False, name=f"forbid_{x}")
        for x in list(firsts.values())[:agents])
    return dataclasses.replace(problem,
                               constraints=problem.constraints + extra)


# The generators give no infeasible party or meetings instance at oracle
# sizes, so these two are made infeasible by hand.
INFEASIBLE_CASES = [("party", 4), ("meetings", 2)]


@pytest.mark.parametrize("agents", [1, 2])
@pytest.mark.parametrize("family,size", INFEASIBLE_CASES)
def test_infeasible_instances_of_every_family(family, size, agents):
    """Every solver says infeasible, and dpop counts the oracle's minimum:
    one violation per unsatisfiable unary constraint."""
    seed = instance_seed(0, family, size, 0)
    problem = forbid_all(FAMILIES[family](size, seed), agents)
    oracle = brute_force(problem)
    assert (oracle.feasible, oracle.min_violations) == (False, agents)
    cfg = RunConfig(key_bits=64, b_bits=16, incr_min=2)
    for solver in sorted(SOLVERS):
        result = run_solver(solver, problem, seed=seed, config=cfg)
        assert result.feasible is False, solver
        if solver == "dpop":
            assert result.min_violations == oracle.min_violations


LOOKUP_CASES = [("coloring", 4, 0), ("meetings", 2, 0), ("auction", 2, 0),
                ("party", 3, 1)]


@pytest.mark.parametrize("family,size,seed", LOOKUP_CASES)
def test_only_the_value_read_is_computed(family, size, seed, monkeypatch):
    """A variable reads its value with one `FeasTable.argmin` lookup, at the
    cell its DECISION names (the root at the empty cell): one lookup per
    variable in dpop and pdpop(+), one per iteration, by its root, in
    p32(+), and none in p2(+), which never projects a minimum.
    `project_min` builds the table of minima only."""
    lookups, projections = [], []
    argmin = FeasTable.argmin

    def counting_argmin(self, label, assignment):
        lookups.append(label)
        return argmin(self, label, assignment)

    def checked(project_min):
        def spy(t, label):
            out = project_min(t, label)
            projections.append(type(out))
            return out
        return spy

    monkeypatch.setattr(FeasTable, "argmin", counting_argmin)
    for module in (dpop, pdpop):
        monkeypatch.setattr(module, "project_min", checked(module.project_min))
    problem = FAMILIES[family](size, seed)
    cfg = RunConfig(key_bits=64, b_bits=16, incr_min=2)
    for solver, spec in sorted(SOLVERS.items()):
        lookups.clear()
        result = run_solver(solver, problem, seed=seed, config=cfg)
        expected = {0: len(problem.variables), 1: len(problem.variables),
                    2: result.iterations, 3: 0}[spec.privacy]
        assert len(lookups) == expected, solver
        if spec.privacy < 2:
            assert sorted(lookups) == sorted(problem.variables), solver
    assert projections and set(projections) == {FeasTable}
