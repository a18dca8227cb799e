import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ReferenceElection, _PhaseProcess, _run_phases,
                      assign_unique_ids, build_dfs_tree, elect_root, simulate,
                      tree_from_parents)
from discsp.generators import (FAMILIES, figure2_tree_hints,
                               gen_graph_coloring, gen_party_game)
from discsp.kernel import (IdAssignment, KernelError, circular_order,
                           route_hop, to_previous_hop)
from discsp.model import Constraint, Problem
from discsp.runtime import derive_rng


def single_var_problem():
    return Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": ("R", "B")},
                   (Constraint.from_predicate(("x1",), (("R", "B"),),
                                              lambda v: v == "R", name="u"),))


def path_problem(names=("a", "b", "c")):
    dom = ("0", "1")
    owner = {x: f"ag_{x}" for x in names}
    cons = tuple(
        Constraint.from_predicate((u, v), (dom, dom), lambda a, b: a != b,
                                  name=f"ne_{u}{v}")
        for u, v in zip(names, names[1:]))
    return Problem(tuple(owner.values()), tuple(names), owner,
                   {x: dom for x in names}, cons)


def triangle_problem():
    dom = ("0", "1")
    names = ("u", "v", "w")
    owner = {x: f"ag_{x}" for x in names}
    cons = tuple(
        Constraint.from_predicate((a, b), (dom, dom), lambda s, t: s != t,
                                  name=f"ne_{a}{b}")
        for a, b in itertools.combinations(names, 2))
    return Problem(tuple(owner.values()), names, owner,
                   {x: dom for x in names}, cons)


# -- election -------------------------------------------------------------------

def test_election_single_variable():
    assert elect_root(single_var_problem(), seed=1) == {"x1": True}


def test_election_unique_root_fig1(fig1):
    roots = elect_root(fig1, seed=3)
    assert sum(roots.values()) == 1


def test_election_seed_dependence(fig1):
    winners = {next(x for x, w in elect_root(fig1, seed=s).items() if w)
               for s in range(8)}
    assert len(winners) >= 2  # different seeds can elect different roots


def test_election_disconnected_one_root_per_component():
    dom = ("0", "1")
    owner = {"x1": "a1", "x2": "a2", "x3": "a3", "x4": "a4"}
    cons = (
        Constraint.from_predicate(("x1", "x2"), (dom, dom),
                                  lambda a, b: a != b, name="c1"),
        Constraint.from_predicate(("x3", "x4"), (dom, dom),
                                  lambda a, b: a != b, name="c2"),
    )
    p = Problem(("a1", "a2", "a3", "a4"), ("x1", "x2", "x3", "x4"), owner,
                {x: dom for x in owner}, cons)
    roots = elect_root(p, seed=5)
    assert sum(roots[x] for x in ("x1", "x2")) == 1
    assert sum(roots[x] for x in ("x3", "x4")) == 1


small_connected = st.one_of(
    st.builds(gen_graph_coloring, st.integers(1, 8),
              seed=st.integers(0, 2 ** 16)),
    st.builds(gen_party_game, st.integers(1, 5),
              seed=st.integers(0, 2 ** 16)),
)


@settings(max_examples=40, deadline=None)
@given(problem=small_connected, seed=st.integers(0, 2 ** 32))
def test_election_elects_the_top_score_in_n_rounds_of_flooding(problem, seed):
    # Oracle: the winner is the variable with the largest election draw, and
    # every variable sends one SCORE per neighbour in each of n rounds.
    assert problem.is_connected()
    roots = elect_root(problem, seed=seed)
    top = max(problem.variables, key=lambda x: derive_rng(
        seed, x, "election").getrandbits(128))
    assert [x for x, won in roots.items() if won] == [top]
    _results, sim = _run_phases(problem, seed, ["elect"])
    degrees = sum(len(problem.neighbor_vars(x)) for x in problem.variables)
    assert (sim.metrics.physical_counts.get("SCORE", 0)
            == len(problem.variables) * degrees)


def early_scores(sim) -> int:
    """How many times a variable is delivered its first SCORE of round r + 1
    before its last SCORE of round r."""
    first, last = {}, {}
    for tick, rec in enumerate(sim.transcript):
        if rec.type == "SCORE":
            key = (rec.receiver_var, rec.payload["round"])
            first.setdefault(key, tick)
            last[key] = tick
    return sum(1 for (x, r), tick in first.items()
               if (x, r - 1) in last and tick < last[(x, r - 1)])


@pytest.mark.parametrize("family,size", [("coloring", 8), ("meetings", 4),
                                         ("auction", 3), ("party", 8)])
@pytest.mark.parametrize("phases", [["elect"], ["dfs", "elect"]],
                         ids=["elect", "dfs-then-elect"])
def test_counted_election_matches_one_wait_per_neighbour(family, size, phases):
    # A plain election never overlaps its rounds: every round-r SCORE is
    # queued before any of round r + 1.  Electing after a DFS starts the
    # variables at different times, so early scores take the stash path.
    problem = FAMILIES[family](size, 1)
    root = problem.variables[0]
    runs = [simulate(problem, lambda x, sim: cls(x, sim, phases, root=root),
                     seed=2)
            for cls in (_PhaseProcess, ReferenceElection)]
    counted, reference = runs
    assert counted.transcript.to_jsonl() == reference.transcript.to_jsonl()
    assert counted.clocks == reference.clocks
    assert ({x: p.result["is_root"] for x, p in counted.processes.items()}
            == {x: p.result["is_root"]
                for x, p in reference.processes.items()})
    assert (early_scores(counted) > 0) == (phases != ["elect"])
    for sim in runs:
        assert all(p.stash == [] for p in sim.processes.values())


# -- DFS --------------------------------------------------------------------------

def test_dfs_reproduces_reference_tree(fig1, fig2_views):
    v = fig2_views
    assert v["x2"].is_root and v["x2"].children == ("x3",)
    assert v["x3"].parent == "x2" and v["x3"].children == ("x5", "x4")
    assert v["x4"].parent == "x3" and v["x4"].children == ("x1",)
    assert v["x1"].parent == "x4" and v["x1"].children == ()
    assert v["x1"].pseudo_parents == ("x2",)
    assert v["x2"].pseudo_children == ("x1",)
    assert v["x5"].parent == "x3" and not v["x5"].pseudo_parents
    for view in v.values():
        view.validate(fig1)


def test_dfs_path_graph_no_backedges():
    p = path_problem()
    views = build_dfs_tree(p, "a", seed=2)
    assert views["a"].children == ("b",)
    assert views["b"].children == ("c",)
    assert all(not v.pseudo_parents and not v.pseudo_children
               for v in views.values())


def test_dfs_triangle_one_backedge():
    p = triangle_problem()
    views = build_dfs_tree(p, "u", seed=4)
    backs = sum(len(v.pseudo_parents) for v in views.values())
    assert backs == 1
    chain = circular_order(views)
    assert len(chain) == 3


def test_dfs_property_backedges_connect_ancestors():
    for seed in range(6):
        p = gen_graph_coloring(7, seed=seed)
        roots = elect_root(p, seed=seed)
        root = next(x for x, w in roots.items() if w)
        views = build_dfs_tree(p, root, seed=seed)
        parents = {x: views[x].parent for x in p.variables}

        def ancestors(x):
            out = set()
            while parents[x] is not None:
                x = parents[x]
                out.add(x)
            return out

        tree_edges = {(x, parents[x]) for x in p.variables if parents[x]}
        for x, view in views.items():
            for pp in view.pseudo_parents:
                assert pp in ancestors(x)
            for pc in view.pseudo_children:
                assert x in ancestors(pc)
        # every constraint-graph edge is a tree edge or a back-edge
        for a, b in p.edges():
            covered = ((a, b) in tree_edges or (b, a) in tree_edges
                       or b in views[a].pseudo_parents
                       or a in views[b].pseudo_parents)
            assert covered, (a, b)


def test_tree_from_parents_matches_distributed(fig1, fig2_views):
    manual = tree_from_parents(
        fig1,
        {"x2": None, "x3": "x2", "x5": "x3", "x4": "x3", "x1": "x4"},
        {"x3": ["x5", "x4"]})
    assert manual == fig2_views


def test_tree_from_parents_rejects_cross_edges(fig1):
    with pytest.raises(KernelError):
        tree_from_parents(fig1, {"x2": None, "x1": "x2", "x3": "x2",
                                 "x4": "x1", "x5": "x3"})


# -- unique IDs --------------------------------------------------------------------

def test_ids_bounds_incr10(fig1):
    ids, _views = assign_unique_ids(fig1, "x2", seed=1, incr_min=10)
    n = 5
    n_plus = next(iter(ids.values())).total_bound
    assert all(i.total_bound == n_plus for i in ids.values())
    assert n_plus <= n + n * 2 * 10
    values = sorted(i.id for i in ids.values())
    assert len(set(values)) == n and values[-1] < n_plus


def test_ids_degenerate_incr0(fig1):
    ids, _ = assign_unique_ids(fig1, "x2", seed=1, incr_min=0)
    assert sorted(i.id for i in ids.values()) == [0, 1, 2, 3, 4]
    assert all(i.next_bound == i.id for i in ids.values())
    assert all(i.total_bound == 5 for i in ids.values())


def test_ids_property_100_seeds(fig1):
    for seed in range(100):
        ids, _ = assign_unique_ids(fig1, "x2", seed=seed, incr_min=3)
        seen = [i.id for i in ids.values()]
        n_plus = next(iter(ids.values())).total_bound
        assert len(set(seen)) == 5
        assert all(0 <= i < n_plus for i in seen)
        for i in ids.values():
            i.validate()


def test_ids_follow_dfs_preorder(fig1, fig2_views):
    ids, views = assign_unique_ids(fig1, "x2", seed=2, incr_min=2,
                                   order_hint=figure2_tree_hints())
    order = circular_order(views)
    ranks = [ids[x].id for x in order]
    assert ranks == sorted(ranks)
    # next assigned id equals id_x+ + 1
    for a, b in zip(order, order[1:]):
        assert ids[b].id == ids[a].next_bound + 1


def test_id_assignment_invariant_validation():
    with pytest.raises(KernelError):
        IdAssignment(id=5, next_bound=4, total_bound=10).validate()


# -- circular routing -----------------------------------------------------------------

def walk_previous(views, start):
    """Pure simulation of one ToPrevious delivery; returns (dest, hops)."""
    kind, dst = to_previous_hop(views[start])
    hops = 1
    sender = start
    while True:
        nxt = route_hop(views[dst], kind, sender)
        if nxt is None:
            return dst, hops
        kind, sender, dst = "LAST", dst, nxt
        hops += 1


def test_routing_fig6_examples(fig2_views):
    # x1 -> delivered at x4 via a single PREV hop
    assert walk_previous(fig2_views, "x1") == ("x4", 1)
    # x4 -> PREV to x3, then LAST to x5
    assert walk_previous(fig2_views, "x4") == ("x5", 2)
    # root x2 -> LAST messages descend to the last leaf x1
    dest, hops = walk_previous(fig2_views, "x2")
    assert dest == "x1" and hops == 3


def test_routing_cycles_entire_ring(fig2_views):
    order = circular_order(fig2_views)
    seen = []
    cur = order[0]
    for _ in order:
        cur, _ = walk_previous(fig2_views, cur)
        seen.append(cur)
    assert set(seen) == set(order) and seen[-1] == order[0]
    # composing to_previous follows the reversed circular order
    assert seen == list(reversed(order))


def test_routing_random_trees_visit_all_exactly_once():
    for seed in range(8):
        n = 4 + seed % 5
        p = gen_graph_coloring(n, seed=seed + 50)
        roots = elect_root(p, seed=seed)
        root = next(x for x, w in roots.items() if w)
        views = build_dfs_tree(p, root, seed=seed)
        order = circular_order(views)
        cur = root
        seen = []
        for _ in order:
            cur, _ = walk_previous(views, cur)
            seen.append(cur)
        assert sorted(seen) == sorted(order)
        assert seen[-1] == root


def test_routing_single_variable():
    p = single_var_problem()
    views = build_dfs_tree(p, "x1", seed=0)
    assert to_previous_hop(views["x1"]) == ("LAST", "x1")
    assert route_hop(views["x1"], "LAST", "x1") is None
