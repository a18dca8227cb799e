import hashlib
import itertools

import pytest

from conftest import (build_dfs_tree, elect_root, infeasible_triangle,
                      feas_sends, iter_cells, run_gen, simulate,
                      solver_process, tables_equal)
from discsp import crypto, p2
from discsp.audit import SPEC_BY_SOLVER, audit, summarize
from discsp.generators import gen_graph_coloring
from discsp.kernel import circular_order
from discsp.model import Constraint, Problem, evaluate
from discsp.oracle import brute_force
from discsp.p2 import boolean_local_join, feasible_value, shadow_linear_tables
from discsp.runtime import RunConfig
from discsp.solvers import run_solver
from discsp.tables import Axis, FeasTable

RGB = ("R", "B", "G")
CFG = RunConfig(key_bits=64, b_bits=128, incr_min=2)

T, F = True, False


def expected(scope, entries):
    return FeasTable([Axis(lbl, vals) for lbl, vals in scope], list(entries))


FIG7_TABLES = {
    "x1": expected([("x4", RGB), ("x2", RGB)],
                   [T, T, T, T, T, F, T, F, T]),
    "x4": expected([("x3", RGB), ("x2", RGB)],
                   [T, F, T, T, T, T, T, T, T]),
    "x5": expected([("x3", RGB), ("x2", RGB)],
                   [T, F, T, T, T, T, F, F, F]),
    "x3": expected([("x2", RGB)], [T, F, T]),
}


def test_boolean_local_join_examples(fig1, fig2_views):
    t1 = boolean_local_join(fig1, fig2_views["x1"])
    assert set(map(str, t1.labels())) == {"x1", "x2", "x4"}
    got = p2.project_or(t1, "x1")
    assert tables_equal(FIG7_TABLES["x1"], got)
    # a variable with no eligible constraints contributes all-true
    t2 = boolean_local_join(fig1, fig2_views["x2"])
    assert t2.entries == [True, True, True]


def test_shadow_reproduces_figure7(fig1, fig2_views):
    sent, final = shadow_linear_tables(fig1, fig2_views)
    assert set(sent) == {"x1", "x4", "x5", "x3"}
    for sender, want in FIG7_TABLES.items():
        assert tables_equal(want, sent[sender]), sender
    assert final.labels() == ["x2"]
    assert final.entries == [True, False, True]


def test_shadow_equals_boolean_dp_per_step():
    """Every shadow chain table matches brute-force extendability of the
    already-processed suffix of the linear order."""
    for seed in range(5):
        p = gen_graph_coloring(5, seed=seed + 40)
        roots = elect_root(p, seed=seed)
        root = next(x for x, w in roots.items() if w)
        views = build_dfs_tree(p, root, seed=seed)
        order = circular_order(views)
        sent, final = shadow_linear_tables(p, views)
        for i, sender in enumerate(reversed(order[1:])):
            suffix = [x for x in order if order.index(x) >= len(order) - 1 - i]
            t = sent[sender]
            covered = [c for c in p.constraints
                       if set(c.scope) & set(suffix)
                       and set(c.scope) <= set(suffix) | set(map(str, t.labels()))]
            for pos, entry in iter_cells(t):
                fixed = {a.label: a.values[j] for a, j in zip(t.scope, pos)}
                exists = False
                for values in itertools.product(
                        *(p.domains[x] for x in suffix)):
                    a = dict(fixed)
                    a.update(zip(suffix, values))
                    if all(c.cost(tuple(a[x] for x in c.scope)) == 0
                           for c in covered):
                        exists = True
                        break
                assert entry == exists, (sender, fixed)


# -- dichotomy ------------------------------------------------------------------

def fake_decrypt(plain, counter):
    def dec(idx_set):
        def gen(_c=None):
            counter[0] += 1
            return any(plain[i] for i in idx_set)
            yield  # pragma: no cover
        return gen
    return dec


def run_dichotomy(pattern):
    """Run the dichotomy over a plain boolean pattern, counting decrypts."""
    counter = [0]
    entries = [frozenset([i]) for i in range(len(pattern))]

    def decrypt(cell):
        def gen():
            counter[0] += 1
            if False:
                yield
            return any(pattern[i] for i in cell)
        return gen()

    def combine(a, b):
        return a | b

    value = run_gen(feasible_value(tuple(range(len(pattern))), entries,
                                   lambda c: decrypt(c), combine))
    return value, counter[0]


def test_dichotomy_tft_pattern():
    value, count = run_dichotomy([True, False, True])
    assert value == 0 and count == 3


def test_dichotomy_all_false():
    value, count = run_dichotomy([False, False, False])
    assert value is None and count == 2


def test_dichotomy_singleton():
    value, count = run_dichotomy([True])
    assert value == 0 and count == 1


@pytest.mark.parametrize("size", range(1, 9))
def test_dichotomy_bounds_exhaustive(size):
    import math
    lo = math.ceil(math.log2(size)) if size > 1 else 0
    hi = math.ceil(math.log2(size) + 1) if size > 1 else 1
    for bits in range(2 ** size):
        pattern = [(bits >> i) & 1 == 1 for i in range(size)]
        value, count = run_dichotomy(pattern)
        assert lo <= count <= hi, (pattern, count)
        if any(pattern):
            assert value is not None and pattern[value]
        else:
            assert value is None


# -- protocol ----------------------------------------------------------------------

def test_encrypted_join_rejects_two_cyphertexts(fig1):
    proc_cfg = RunConfig(key_bits=64)
    from discsp.p2 import P2Process
    from discsp.runtime import Sim
    sim = Sim(fig1, seed=0, config=proc_cfg)
    proc = P2Process("x1", sim)
    rng = sim.rng("t", "k")
    share = crypto.generate_share(proc.params, rng)
    proc.compound = crypto.combine_public(proc.params, [share.public])
    c = crypto.encrypt(proc.params, proc.compound, True, rng)
    enc = FeasTable([Axis("x1", RGB)], [c, c, c])
    with pytest.raises(p2.P2Error):
        proc.encrypted_join(enc, enc)


def test_end_to_end_feasible(fig1):
    for solver in ("p2", "p2_plus"):
        r = run_solver(solver, fig1, seed=7, config=CFG)
        assert r.feasible
        joint = r.joint_assignment()
        assert evaluate(fig1, joint) == 0
        assert r.iterations == 5
        counts = r.metrics.notes["p2_decrypt_counts"]
        assert len(counts) == 5 and all(2 <= c <= 3 for c in counts)
        assert feas_sends(r.transcript) == 5 * 4


def test_received_codenames_are_held_for_the_last_epoch_only(fig1):
    """After a run that rerooted once per variable, each process holds the
    codename packages of its last pseudo-tree's ancestors, and no others."""
    sim = simulate(fig1, solver_process("p2_plus"), 7, CFG)
    assert sorted(sim.metrics.notes["roots"]) == sorted(fig1.variables)
    for proc in sim.processes.values():
        last = proc.views[max(proc.views)]
        assert tuple(proc.recv_packages) == last.ancestors_here()


@pytest.mark.parametrize("solver", ["p2", "p2_plus"])
def test_more_feasible_completions_than_decode_reads(solver):
    """A chain of 10 variables with 5 values and "!=" between neighbours:
    an OR-product at the root multiplies one true per feasible completion,
    far more than crypto.TRUE_POWER_BOUND, and still decrypts as true."""
    names = tuple(f"x{i}" for i in range(10))
    dom = tuple(range(5))
    owner = {x: f"ag_{x}" for x in names}
    cons = tuple(
        Constraint.from_predicate((u, v), (dom, dom), lambda a, b: a != b,
                                  name=f"ne_{u}{v}")
        for u, v in zip(names, names[1:]))
    p = Problem(tuple(owner.values()), names, owner,
                {x: dom for x in names}, cons)
    r = run_solver(solver, p, seed=1, config=RunConfig(key_bits=64))
    assert r.feasible
    assert evaluate(p, r.joint_assignment()) == 0


def test_infeasible_detected_first_iteration():
    r = run_solver("p2", infeasible_triangle(), seed=4, config=CFG)
    assert r.feasible is False and r.iterations == 1 and r.per_agent == {}


def test_infeasible_transcript_is_pinned():
    # The ABORT path of the linear-order pipeline, recorded before the
    # scheduler handed deliveries straight to the blocked receiver.
    r = run_solver("p2_plus", infeasible_triangle(), seed=4, config=CFG)
    assert r.feasible is False
    assert any(rec.type == "ABORT" for rec in r.transcript)
    digest = hashlib.sha256(r.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == (
        "880cbcd6e81892dc30b303193f79b64fd0a4c19f148e082e6f28af6c296fb819")


def test_feas_payloads_fully_encrypted(fig1):
    r = run_solver("p2_plus", fig1, seed=7, config=CFG)
    found = 0
    for rec in r.transcript:
        payload = rec.payload
        if rec.type in ("PREV", "LAST") and payload.get("inner_type") == "FEAS":
            table = payload["inner"]["table"]
            found += 1
            for e in table["entries"]:
                assert isinstance(e, dict) and {"alpha", "beta"} <= set(e)
            for ax in table["scope"]:
                assert isinstance(ax["label"], int)  # codenames only
    assert found > 0
    counts = summarize(audit(r.transcript, fig1, SPEC_BY_SOLVER["p2_plus"]))
    assert counts.get("constraint-privacy", 0) == 0
    assert counts.get("decision-privacy", 0) == 0
    assert counts.get("agent-privacy", 0) == 0


def test_oracle_equivalence_sample():
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for seed in range(8):
        p = gen_graph_coloring(3 + seed % 3, seed=seed + 800)
        o = brute_force(p)
        for solver in ("p2", "p2_plus"):
            r = run_solver(solver, p, seed=seed, config=cfg)
            assert r.feasible == o.feasible, (solver, seed)
            if o.feasible:
                assert evaluate(p, r.joint_assignment()) == 0


def test_single_variable():
    dom = RGB
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom},
                (Constraint.from_predicate(("x1",), (dom,),
                                           lambda v: v != "R", name="u"),))
    r = run_solver("p2", p, seed=0, config=CFG)
    assert r.feasible and r.joint_assignment()["x1"] != "R"
    assert r.iterations == 1


# -- separators -----------------------------------------------------------------------

def tree_separators(problem, views):
    """Pure bottom-up scope computation for the pseudo-tree pipeline."""
    order = circular_order(views)
    scopes = {}
    for x in reversed(order):
        local = set()
        for c in problem.constraints:
            if x in c.scope and not (set(c.scope)
                                     & (set(views[x].children)
                                        | set(views[x].pseudo_children))):
                local |= set(c.scope)
        for ch in views[x].children:
            local |= scopes[ch]
        local.discard(x)
        scopes[x] = local
    return {x: len(s) for x, s in scopes.items() if not views[x].is_root}


def linear_separators(problem, views):
    order = circular_order(views)
    scopes = {}
    carried = set()
    for x in reversed(order[1:]):
        local = set()
        for c in problem.constraints:
            if x in c.scope and not (set(c.scope)
                                     & (set(views[x].children)
                                        | set(views[x].pseudo_children))):
                local |= set(c.scope)
        carried |= local
        carried.discard(x)
        scopes[x] = set(carried)
    return {x: len(s) for x, s in scopes.items()}


def test_linear_separators_dominate_tree_separators():
    for seed in range(10):
        p = gen_graph_coloring(6, seed=seed + 60)
        roots = elect_root(p, seed=seed)
        root = next(x for x, w in roots.items() if w)
        views = build_dfs_tree(p, root, seed=seed)
        tree_sep = tree_separators(p, views)
        lin_sep = linear_separators(p, views)
        assert max(lin_sep.values()) >= max(tree_sep.values())


def test_measured_separators_dominate_pdpop_per_instance():
    cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for seed in range(6):
        p = gen_graph_coloring(5, seed=seed + 3000)
        for variant in ("", "_plus"):
            tree_run = run_solver("pdpop" + variant, p, seed=seed, config=cfg)
            chain_run = run_solver("p2" + variant, p, seed=seed, config=cfg)
            assert chain_run.metrics.sep_max >= tree_run.metrics.sep_max
