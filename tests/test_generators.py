import hashlib
import itertools
import math
import random

import pytest

from conftest import evaluating_brute_force
from discsp import problemio
from discsp.experiments import instance_seed
from discsp.generators import (FAMILIES, figure1_instance, gen_graph_coloring,
                               gen_meeting_scheduling, gen_party_game,
                               gen_resource_allocation, party_game_from_graph,
                               resource_allocation_from_bids)
from discsp.model import Constraint, Problem, evaluate
from discsp.oracle import OracleCapExceeded, brute_force


# -- oracle ----------------------------------------------------------------------

def test_oracle_fig1_enumerates_243(fig1):
    o = brute_force(fig1)
    assert o.min_violations == 0
    assert o.solution_count == 6
    assert evaluate(fig1, o.witness) == 0
    assert fig1.state_space_size() == 243


def test_oracle_empty_problem():
    from discsp.model import Problem
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": ("R",)}, ())
    o = brute_force(p)
    assert o.min_violations == 0 and o.witness == {"x1": "R"}


def test_oracle_all_forbidden_unary():
    from discsp.model import Constraint, Problem
    dom = ("R", "B")
    c = Constraint.from_predicate(("x1",), (dom,), lambda v: False, name="u")
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom}, (c,))
    assert brute_force(p).min_violations >= 1


def test_oracle_cap(fig1):
    with pytest.raises(OracleCapExceeded):
        brute_force(fig1, cap=10)


ORACLE_SIZES = {"coloring": (1, 4, 7), "meetings": (1, 2), "auction": (2, 3),
                "party": (2, 4)}


@pytest.mark.parametrize("family", sorted(ORACLE_SIZES))
def test_oracle_equals_the_evaluating_reference(family):
    # Same minimum, same first witness in product order, same solution
    # count; also with one variable's every value forbidden.
    for size in ORACLE_SIZES[family]:
        for index in range(3):
            p = FAMILIES[family](size, instance_seed(0, family, size, index))
            x = p.variables[-1]
            forbid = Constraint.from_predicate((x,), (p.domains[x],),
                                               lambda _v: False)
            for q in (p, Problem(p.agents, p.variables, p.owner, p.domains,
                                 p.constraints + (forbid,))):
                assert brute_force(q) == evaluating_brute_force(q)


def test_oracle_equals_the_evaluating_reference_on_mixed_scopes():
    # Domains of 1-4 values and constraints of arity 1-3 over any variables
    # in any order, so strides differ per constraint and minima reach 2+.
    rng = random.Random(7)
    for _ in range(40):
        variables = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        domains = {x: tuple(range(rng.randint(1, 4))) for x in variables}
        constraints = []
        for _ in range(rng.randint(0, 6)):
            scope = rng.sample(variables, rng.randint(1, min(3, len(variables))))
            doms = [domains[x] for x in scope]
            n = math.prod(len(d) for d in doms)
            constraints.append(Constraint(
                tuple(scope), tuple(doms),
                tuple(int(rng.random() < 0.6) for _ in range(n))))
        p = Problem(("a",), variables, {x: "a" for x in variables}, domains,
                    tuple(constraints))
        assert brute_force(p) == evaluating_brute_force(p)


# -- graph coloring -----------------------------------------------------------------

def test_coloring_single_node_feasible():
    p = gen_graph_coloring(1, seed=0)
    assert brute_force(p).feasible


def test_coloring_odd_clique_two_colors_infeasible():
    p = gen_graph_coloring(3, density=1.0, colors=2, seed=1, unary_p=0.0)
    assert not brute_force(p).feasible


def test_coloring_connected_and_deterministic():
    for seed in range(10):
        p = gen_graph_coloring(7, seed=seed)
        assert p.is_connected()
        q = gen_graph_coloring(7, seed=seed)
        assert p == q
    assert gen_graph_coloring(7, seed=0) != gen_graph_coloring(7, seed=1)


def test_figure1_is_fixed(fig1):
    assert fig1 == figure1_instance()
    assert len(fig1.constraints) == 8


# -- meeting scheduling ----------------------------------------------------------------

def test_meetings_single_always_feasible():
    p = gen_meeting_scheduling(1, seed=5)
    assert brute_force(p).feasible


def test_meetings_pigeonhole_infeasible():
    # 3 meetings between the same pair, only 2 slots: the per-agent
    # allDifferent cannot be satisfied.
    p = gen_meeting_scheduling(3, pool=2, per_meeting=2, slots=2, seed=1)
    assert not brute_force(p).feasible


def test_meetings_structure():
    p = gen_meeting_scheduling(2, seed=3)
    eqs = [c for c in p.constraints if c.name.startswith("eq_")]
    assert len(eqs) == 2  # one equality per meeting (2 participants each)
    alldiffs = [c for c in p.constraints if c.name.startswith("alldiff")]
    for c in alldiffs:
        owners = {p.owner[x] for x in c.scope}
        assert len(owners) == 1


def test_meetings_feasibility_matches_oracle_samples():
    from discsp.solvers import run_solver
    for seed in range(4):
        p = gen_meeting_scheduling(2, slots=3, seed=seed)
        if not p.is_connected():
            continue
        o = brute_force(p)
        r = run_solver("dpop", p, seed=seed)
        assert r.feasible == o.feasible


# -- resource allocation ------------------------------------------------------------------

def test_auction_single_bid_feasible():
    p = gen_resource_allocation(slots=3, bids=1, seed=2)
    assert brute_force(p).feasible


def test_auction_conflicting_identical_bundles_infeasible():
    p = resource_allocation_from_bids(
        ["r0", "r1"], [("bA", ("r0", "r1")), ("bB", ("r0", "r1"))])
    assert not brute_force(p).feasible


def test_auction_samples_match_oracle():
    from discsp.solvers import run_solver
    for seed in range(4):
        p = gen_resource_allocation(slots=4, bids=2, seed=seed)
        if not p.is_connected():
            continue
        o = brute_force(p)
        r = run_solver("dpop", p, seed=seed)
        assert r.feasible == o.feasible


# -- party game -------------------------------------------------------------------------

def test_party_single_player_cost_half():
    p = party_game_from_graph(["p0"], [], {}, {"p0": 0.5})
    o = brute_force(p)
    assert o.solution_count == 1
    assert o.witness == {"s_p0": 0}  # staying home is the unique equilibrium


def test_party_two_mutual_likers():
    likes = {("p0", "p1"): 1, ("p1", "p0"): 1}
    p = party_game_from_graph(["p0", "p1"], [("p0", "p1")], likes,
                              {"p0": 0.5, "p1": 0.5})
    solutions = set()
    doms = [p.domains[x] for x in p.variables]
    for values in itertools.product(*doms):
        a = dict(zip(p.variables, values))
        if evaluate(p, a) == 0:
            solutions.add((a["s_p0"], a["s_p1"]))
    assert solutions == {(0, 0), (1, 1)}


def test_party_isolated_zero_cost_both_allowed():
    p = party_game_from_graph(["p0"], [], {}, {"p0": 0.0})
    assert brute_force(p).solution_count == 2


def test_party_solutions_are_nash_equilibria():
    for seed in range(4):
        p = gen_party_game(4, seed=seed)
        o = brute_force(p)
        assert o.feasible  # finite games on trees always admit a pure NE here
        # at an equilibrium, flipping any single strategy cannot profit;
        # verified implicitly by the best-response constraints all holding
        assert evaluate(p, o.witness) == 0


def test_party_degree_constraint():
    p = gen_party_game(8, seed=2)
    strategy_vars = [x for x in p.variables if x.startswith("s_")]
    for s in strategy_vars:
        copies = [x for x in p.variables
                  if x.startswith("c_") and x.endswith("_" + s[2:])]
        assert len(copies) <= 3  # tree with at most two children + parent


def test_family_registry_smoke():
    for family, gen in FAMILIES.items():
        p = gen(2 if family != "coloring" else 4, 3)
        assert p.is_connected() or len(p.variables) == 1


@pytest.mark.parametrize("family,size,digest", [
    ("coloring", 8,
     "3a5e493e14f2e4aa55bb92d899cbe3c932e319e01c18c2bc677c302a4f5d7a1a"),
    ("meetings", 4,
     "6cf247309125e3053bd9ef68abe42fcb2068c91e2dfad00a677b59c4886253fb"),
    ("auction", 4,
     "52a032eee4b14c13909e9c3e3d2cb2519bd8a550aa6f2c43140f99ed0e37113b"),
    ("party", 8,
     "88c1548fa779e45e26569b9f1f52aa9b4b546e4c114eb34b03d1c982ea69e521"),
])
def test_generator_output_is_pinned(family, size, digest):
    """Each family's first grid instance, written in the file format, keeps
    its SHA-256: agents, variables, domains, scopes, tables and names."""
    p = FAMILIES[family](size, instance_seed(0, family, size, 0))
    assert hashlib.sha256(problemio.dumps(p).encode()).hexdigest() == digest
