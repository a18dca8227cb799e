import itertools

from conftest import (build_dfs_tree, elect_root, iter_cells, solve_dpop,
                      tables_equal)
from discsp import dpop
from discsp.generators import gen_graph_coloring
from discsp.model import Constraint, Problem, evaluate
from discsp.oracle import brute_force, subtree_min_table
from discsp.solvers import run_solver
from discsp.tables import Axis, FeasTable

RGB = ("R", "B", "G")


def expected_table(scope, entries):
    return FeasTable([Axis(lbl, vals) for lbl, vals in scope], list(entries))


# The four reference FEAS tables (row-major over the listed scopes).
FIG2_TABLES = {
    ("x5", "x3"): expected_table([("x3", RGB)], [0, 0, 1]),
    ("x1", "x4"): expected_table(
        [("x4", RGB), ("x2", RGB)], [0, 0, 0, 0, 0, 1, 0, 1, 0]),
    ("x4", "x3"): expected_table(
        [("x3", RGB), ("x2", RGB)], [0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ("x3", "x2"): expected_table([("x2", RGB)], [0, 1, 0]),
}


def feas_tables_from_transcript(transcript):
    out = {}
    for rec in transcript:
        if rec.type != "FEAS":
            continue
        struct = rec.payload["table"]
        axes = [Axis(ax["label"], tuple(ax["values"])) for ax in struct["scope"]]
        out[(rec.sender_var, rec.receiver_var)] = FeasTable(
            axes, list(struct["entries"]))
    return out


def test_figure2_feas_tables_exact(fig1, fig2_views):
    assignment, min_count, metrics, transcript = solve_dpop(fig1, fig2_views,
                                                             seed=0)
    got = feas_tables_from_transcript(transcript)
    assert set(got) == set(FIG2_TABLES)
    for edge, want in FIG2_TABLES.items():
        assert tables_equal(want, got[edge]), edge
    assert min_count == 0
    assert evaluate(fig1, assignment) == 0
    assert assignment["x2"] == "R"  # argmin tie toward lowest domain index


def test_local_join_examples(fig1, fig2_views):
    t5 = dpop.local_join(fig1, fig2_views["x5"])
    assert sorted(map(str, t5.labels())) == ["x3", "x5"]
    t1 = dpop.local_join(fig1, fig2_views["x1"])
    assert sorted(map(str, t1.labels())) == ["x1", "x2", "x4"]
    # variable with no eligible constraints: all-zero over itself
    t2 = dpop.local_join(fig1, fig2_views["x2"])
    assert t2.labels() == ["x2"] and t2.entries == [0, 0, 0]


def test_message_count_law(fig1, fig2_views):
    _a, _m, metrics, transcript = solve_dpop(fig1, fig2_views, seed=0)
    # One FEAS up and one DECISION down each tree edge.
    edges = sorted((x, v.parent) for x, v in fig2_views.items()
                   if v.parent is not None)
    assert sorted((r.sender_var, r.receiver_var) for r in transcript
                  if r.type == "FEAS") == edges
    assert sorted((r.receiver_var, r.sender_var) for r in transcript
                  if r.type == "DECISION") == edges
    assert metrics.physical_counts["FEAS"] == 4
    assert metrics.physical_counts["DECISION"] == 4


def test_triangle_two_colors_infeasible():
    dom = ("R", "B")
    owner = {x: f"ag_{x}" for x in ("u", "v", "w")}
    cons = tuple(
        Constraint.from_predicate((a, b), (dom, dom), lambda s, t: s != t,
                                  name=f"ne_{a}{b}")
        for a, b in itertools.combinations(("u", "v", "w"), 2))
    p = Problem(tuple(owner.values()), ("u", "v", "w"), owner,
                {x: dom for x in owner}, cons)
    r = run_solver("dpop", p, seed=1)
    assert r.feasible is False
    assert r.min_violations == 1 == brute_force(p).min_violations


def test_single_variable_unary():
    dom = RGB
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom},
                (Constraint.from_predicate(("x1",), (dom,),
                                           lambda v: v != "R", name="u"),))
    r = run_solver("dpop", p, seed=0)
    assert r.feasible and r.joint_assignment()["x1"] != "R"


def test_oracle_equivalence_sample():
    for seed in range(25):
        p = gen_graph_coloring(4 + seed % 5, seed=seed)
        o = brute_force(p)
        r = run_solver("dpop", p, seed=seed)
        assert r.feasible == o.feasible
        assert r.min_violations == o.min_violations
        joint = r.joint_assignment()
        assert evaluate(p, joint) == o.min_violations


def test_feas_semantics_against_subtree_oracle():
    """Each FEAS table equals the brute-force minimal violation count of the
    sender's subtree as a function of its separator."""
    for seed in range(6):
        p = gen_graph_coloring(6, seed=seed + 200)
        roots = elect_root(p, seed=seed)
        root = next(x for x, w in roots.items() if w)
        views = build_dfs_tree(p, root, seed=seed)
        _a, _m, _metrics, transcript = solve_dpop(p, views, seed=seed)
        children = {x: views[x].children for x in p.variables}

        def subtree(x):
            out = [x]
            for c in children[x]:
                out.extend(subtree(c))
            return out

        for (sender, _recv), t in feas_tables_from_transcript(transcript).items():
            free = subtree(sender)
            for pos, entry in iter_cells(t):
                fixed = {a.label: a.values[j]
                         for a, j in zip(t.scope, pos)}
                assert entry == subtree_min_table(p, fixed, free)


def test_largest_table_bounded_by_domain_power_sep(fig1, fig2_views):
    _a, _m, metrics, transcript = solve_dpop(fig1, fig2_views, seed=0)
    d_max = 3
    for t in feas_tables_from_transcript(transcript).values():
        assert t.size() <= d_max ** metrics.sep_max
