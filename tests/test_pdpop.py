import hashlib

import pytest

from conftest import on_tree, simulate, solver_process
from discsp import dpop, pdpop, tables
from discsp.audit import SPEC_BY_SOLVER, audit, summarize
from discsp.generators import gen_graph_coloring, gen_party_game
from discsp.model import evaluate
from discsp.oracle import brute_force
from discsp.pdpop import (PdpopProcess, make_codename_package,
                          obfuscate_infeasible)
from discsp.runtime import RunConfig, derive_rng
from discsp.solvers import run_solver
from discsp.tables import Axis, FeasTable, join, resolve_codename

RGB = ("R", "B", "G")


def table(scope, entries):
    return FeasTable([Axis(lbl, vals) for lbl, vals in scope], list(entries))


# -- pure ops ---------------------------------------------------------------------

def test_codename_package_shapes():
    pkg = make_codename_package(derive_rng(1, "t"), 3)
    assert len(set(pkg.domain_codes)) == 3
    assert sorted(pkg.sigma) == [0, 1, 2]
    assert set(pkg.coded_axis_values()) == set(pkg.domain_codes)
    assert pkg.code_to_value(RGB)[pkg.code_of("B", RGB)] == "B"


def test_obfuscate_infeasible_preserves_zero_pattern():
    t = table([("x", RGB)], [0, 0, 1])
    out = obfuscate_infeasible(t, 730956)
    assert out.entries == [0, 0, 730957]
    assert [e == 0 for e in out.entries] == [e == 0 for e in t.entries]


def test_obfuscate_all_zero_unchanged():
    t = table([("x", RGB)], [0, 0, 0])
    assert obfuscate_infeasible(t, 12345).entries == [0, 0, 0]


def test_apply_keys_figure4c_columns():
    # Reference table rows x4, columns coded x2; the key is a one-axis
    # table over the coded variable's values, listed in another order.
    cols = ("alpha", "beta", "gamma")
    t = table([("x4", RGB), (928372, cols)],
              [0, 0, 0,
               0, 0, 1,
               0, 1, 0])
    key = {"gamma": 534687, "alpha": 620961, "beta": 983655}
    out = join(t, table([(928372, tuple(key))], key.values()))
    assert out.entries == [620961, 983655, 534687,
                           620961, 983655, 534688,
                           620961, 983656, 534687]
    back = join(out, table([(928372, tuple(key))], [-k for k in key.values()]))
    assert back.entries == t.entries


# -- protocol ---------------------------------------------------------------------

def feas_records(transcript):
    return [rec for rec in transcript if rec.type == "FEAS"]


def run_fig1(fig1, variant, b_bits, seed=11):
    cfg = RunConfig(b_bits=b_bits)
    return run_solver(variant, fig1, seed=seed, config=cfg)


def simulate_fig1(fig1, variant, b_bits, seed=11):
    """The same run as run_fig1, with its processes to inspect (figure 1's
    domains are uniform, so run_solver pads nothing)."""
    return simulate(fig1, solver_process(variant), seed,
                    RunConfig(b_bits=b_bits))


def test_root_table_exact_when_unobfuscated(fig1, fig2_views):
    """On the reference tree with zero-width obfuscation, the root's
    de-obfuscated table is exactly [0, 1, 0] over (R, B, G)."""
    sim = simulate(fig1, on_tree(PdpopProcess, fig2_views), 5,
                   RunConfig(b_bits=0))
    procs = sim.processes
    assert procs["x2"].result["feasible"] is True
    # Decode the final FEAS message (x3 -> x2) with the codename packages
    # the test can read off the process objects (shadow-auditor knowledge).
    final = [rec for rec in sim.transcript if rec.type == "FEAS"
             and rec.receiver_var == "x2"][-1]
    got = table_from_record(final)
    for code, pkg in procs["x2"].own_codes.items():
        if code in got.labels():
            got = resolve_codename(got, code, "x2", pkg.code_to_value(RGB), RGB)
    assert got.labels() == ["x2"]
    assert got.entries == [0, 1, 0]


def table_from_record(rec):
    struct = rec.payload["table"]
    return FeasTable([Axis(ax["label"], tuple(ax["values"]))
                      for ax in struct["scope"]], list(struct["entries"]))


def test_decision_chain_of_equalities(fig1):
    """A chain of equality constraints assigns every variable the root's
    value."""
    from discsp.model import Constraint, Problem
    names = ("v1", "v2", "v3", "v4")
    owner = {x: f"ag_{x}" for x in names}
    cons = tuple(
        Constraint.from_predicate((a, b), (RGB, RGB), lambda u, v: u == v,
                                  name=f"eq_{a}{b}")
        for a, b in zip(names, names[1:]))
    p = Problem(tuple(owner.values()), names, owner,
                {x: RGB for x in names}, cons)
    for solver in ("pdpop", "pdpop_plus"):
        r = run_solver(solver, p, seed=4, config=RunConfig(b_bits=128))
        joint = r.joint_assignment()
        assert len(set(joint.values())) == 1


def test_root_zero_pattern_with_obfuscation(fig1):
    a = run_fig1(fig1, "pdpop_plus", b_bits=0)
    b = run_fig1(fig1, "pdpop_plus", b_bits=128)
    assert a.feasible is b.feasible is True
    joint = b.joint_assignment()
    assert evaluate(fig1, joint) == 0


def sent_var_codes(transcript) -> dict:
    """{(epoch, sender): [var_code, ...]} of the CODES records."""
    out: dict = {}
    for rec in transcript:
        if rec.type == "CODES":
            out.setdefault((rec.payload["epoch"], rec.sender_var),
                           []).append(rec.payload["var_code"])
    return out


def test_variant_codename_multiplicity(fig1):
    """Within each epoch the plus variant sends pairwise distinct var codes,
    the minus variant one per sender; p32 reroots, so every one of its
    epochs is checked."""
    for solver, distinct in (("pdpop_plus", True), ("pdpop", False),
                             ("p32_plus", True), ("p32", False)):
        r = run_solver(solver, fig1, seed=11,
                       config=RunConfig(key_bits=64, b_bits=128))
        sent = sent_var_codes(r.transcript)
        epochs = {ep for ep, _x in sent}
        assert epochs == ({0} if solver.startswith("pdpop")
                          else set(range(1, r.iterations + 1)))
        multi = {key: codes for key, codes in sent.items() if len(codes) >= 2}
        # Some variable has two (pseudo-)children in every tree.
        assert {ep for ep, _x in multi} == epochs
        for codes in multi.values():
            assert len(set(codes)) == (len(codes) if distinct else 1)


def test_feas_payload_labels_are_codes(fig1):
    r = run_fig1(fig1, "pdpop_plus", b_bits=128)
    for rec in feas_records(r.transcript):
        for ax in rec.payload["table"]["scope"]:
            assert isinstance(ax["label"], int)
            assert all(isinstance(v, int) for v in ax["values"])


def test_decision_payloads_fully_coded(fig1):
    r = run_fig1(fig1, "pdpop_plus", b_bits=128)
    decisions = [rec for rec in r.transcript if rec.type == "DECISION"]
    assert decisions
    for rec in decisions:
        for label, value in rec.payload["assignment"]:
            assert isinstance(label, int)
            assert isinstance(value, int) and value not in (0, 1, 2)


def test_end_to_end_oracle_equivalence_both_variants():
    for seed in range(20):
        p = gen_graph_coloring(4 + seed % 4, seed=seed + 500)
        o = brute_force(p)
        for solver in ("pdpop", "pdpop_plus"):
            r = run_solver(solver, p, seed=seed, config=RunConfig(b_bits=128))
            assert r.feasible == o.feasible, (solver, seed)
            if r.feasible:
                assert evaluate(p, r.joint_assignment()) == 0


def test_agent_privacy_audit_clean(fig1):
    for solver in ("pdpop", "pdpop_plus"):
        r = run_solver(solver, fig1, seed=3, config=RunConfig(b_bits=128))
        findings = audit(r.transcript, fig1, SPEC_BY_SOLVER[solver])
        counts = summarize(findings)
        assert counts.get("agent-privacy", 0) == 0
        assert counts.get("non-neighbor-delivery", 0) == 0


def test_obfuscation_soundness_instrumented(fig1):
    """Fixing the coded non-parent values of a multi-variable FEAS table,
    the obfuscated entries sit a constant (the unknown key sum) above the
    true counts on feasible cells, and strictly above it on infeasible
    cells.  Compared against a same-seed shadow run with zero-width
    obfuscation, which shares codenames and tree."""
    import itertools
    seed = 17
    clear = run_fig1(fig1, "pdpop_plus", b_bits=0, seed=seed)
    obf = simulate_fig1(fig1, "pdpop_plus", b_bits=128, seed=seed)
    clear_tables = {(r.sender_var, r.receiver_var): r.payload["table"]
                    for r in feas_records(clear.transcript)}
    obf_tables = {(r.sender_var, r.receiver_var): r.payload["table"]
                  for r in feas_records(obf.transcript)}
    assert set(clear_tables) == set(obf_tables)
    multi = 0
    for (sender, recv), shadow in clear_tables.items():
        table_obf = obf_tables[(sender, recv)]
        labels = [ax["label"] for ax in shadow["scope"]]
        assert labels == [ax["label"] for ax in table_obf["scope"]]
        if len(labels) < 2:
            continue
        multi += 1
        # The parent's codename axis is the one the sender received from
        # its tree parent; every other axis is "non-parent".
        proc = obf.processes[sender]
        parent_pkg = proc.recv_packages[proc.views[0].parent]
        vary_axis = labels.index(parent_pkg.var_code)
        shapes = [len(ax["values"]) for ax in shadow["scope"]]
        fixed_axes = [i for i in range(len(labels)) if i != vary_axis]
        for fixed_pos in itertools.product(*(range(shapes[i])
                                             for i in fixed_axes)):
            feas_deltas = set()
            cells = []
            for vary_pos in range(shapes[vary_axis]):
                pos = [0] * len(labels)
                for i, pval in zip(fixed_axes, fixed_pos):
                    pos[i] = pval
                pos[vary_axis] = vary_pos
                idx = 0
                for s, pval in zip(shapes, pos):
                    idx = idx * s + pval
                cells.append((shadow["entries"][idx],
                              table_obf["entries"][idx]))
            for true_v, obf_v in cells:
                if true_v == 0:
                    feas_deltas.add(obf_v)
            assert len(feas_deltas) <= 1, (sender, recv)
            if feas_deltas:
                key_sum = feas_deltas.pop()
                for true_v, obf_v in cells:
                    if true_v > 0:
                        assert obf_v > key_sum, (sender, recv)
    assert multi >= 1  # the reference instance has multi-variable messages


def test_separator_growth_bounded_by_degree():
    for seed in range(8):
        p = gen_graph_coloring(6, seed=seed + 900)
        cfg = RunConfig(b_bits=128)
        plus = run_solver("pdpop_plus", p, seed=seed, config=cfg)
        minus = run_solver("pdpop", p, seed=seed, config=cfg)
        degree = max(len(p.neighbor_vars(x)) for x in p.variables)
        assert plus.metrics.sep_max <= max(1, minus.metrics.sep_max) * degree


# SHA-256 of Transcript.to_jsonl() for one table-heavy run per solver,
# recorded before the table algebra moved onto index-map gathers.  Coloring
# n=7 (instance seed 1) gives pdpop_plus separators of 5 axes and dpop of 3,
# so coded-axis reorders, codename resolution and diagonal merges all run;
# a table speed-up must leave every FEAS/DECISION payload as it was.  Plain
# pdpop (separators of 3 axes, one codename package per variable) was pinned
# before the solver registry moved to process classes.
TRANSCRIPT_SHA256 = {
    "pdpop_plus": "6de45ccbe948fd1d241bd1c4770e2f5d5f010fe62fde9a3377a44bbce2a95fff",
    "pdpop": "8f27dd4e9b207a8db2724d7798b9482a6774393ffca5d9d5dfeff762f4af127c",
    "dpop": "c3d7d08b4414e88d4824f33f3f28e35f8a5da7f9af55ba1bc3854d1b56cb257b",
}


@pytest.mark.parametrize("solver", sorted(TRANSCRIPT_SHA256))
def test_table_heavy_transcript_is_pinned(solver):
    result = run_solver(solver, gen_graph_coloring(7, seed=1), seed=7,
                        config=RunConfig(key_bits=64))
    assert result.metrics.sep_max >= 3
    digest = hashlib.sha256(result.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == TRANSCRIPT_SHA256[solver]


# SHA-256 of Transcript.to_jsonl() for one run where agents own several
# variables (party n=6, instance seed 1: 16 variables over 6 agents, 800
# election SCORE deliveries).  Every pin above gives each agent one variable;
# these fix the election and the intra-agent traffic of a multi-variable run.
MULTI_VARIABLE_SHA256 = {
    "dpop": "78e493e6f7db634f21d4b985d5b602110af8a99b0be4e8bc80b97c50aabaaadf",
    "pdpop_plus": "675af6a9117196037f76e291dce081fab7a8869426d4a1020857e519cc3cbc96",
}


@pytest.mark.parametrize("solver", sorted(MULTI_VARIABLE_SHA256))
def test_multi_variable_agent_transcript_is_pinned(solver):
    problem = gen_party_game(6, seed=1)
    assert len(problem.variables) > len(problem.agents)
    result = run_solver(solver, problem, seed=7, config=RunConfig(key_bits=64))
    digest = hashlib.sha256(result.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == MULTI_VARIABLE_SHA256[solver]


def spy_key_joins(monkeypatch):
    """Record every obfuscation-key join of the P-DPOP processes run under
    `monkeypatch`: (owner variable, key table, size of the table it joins
    onto, whether the owner had projected yet).  Also returns the size of
    each variable's local join and every key table handed out."""
    keys, local, projected, joins = {}, {}, set(), []
    exchange_keys = pdpop.PdpopProcess.exchange_keys

    def spy_exchange_keys(self, view):
        yield from exchange_keys(self, view)
        for key in self.keys:
            keys[id(key)] = (self.var, key)

    def spy_local_join(problem, view, extra=()):
        t = dpop.local_join(problem, view, extra)
        local[view.variable] = t.size()
        return t

    def spy_project_min(t, label):
        projected.add(label)
        return tables.project_min(t, label)

    def spy_join(t1, t2, combine=None):
        if id(t2) in keys:
            var, key = keys[id(t2)]
            joins.append((var, key, t1.size(), var in projected))
        return tables.join(t1, t2, combine)

    monkeypatch.setattr(pdpop.PdpopProcess, "exchange_keys", spy_exchange_keys)
    monkeypatch.setattr(pdpop, "local_join", spy_local_join)
    monkeypatch.setattr(pdpop, "project_min", spy_project_min)
    monkeypatch.setattr(pdpop, "join", spy_join)
    return keys, local, joins


# The two pinned runs above: their SHA-256 pins guard both key placements.
PINNED_PROBLEMS = {
    "coloring": lambda: gen_graph_coloring(7, seed=1),
    "party": lambda: gen_party_game(6, seed=1),
}


@pytest.mark.parametrize("solver", ["pdpop", "pdpop_plus"])
@pytest.mark.parametrize("family", sorted(PINNED_PROBLEMS))
def test_keys_join_onto_the_local_join_when_they_can(monkeypatch, family,
                                                     solver):
    keys, local, joins = spy_key_joins(monkeypatch)
    run_solver(solver, PINNED_PROBLEMS[family](), seed=7,
               config=RunConfig(key_bits=64))
    assert sorted(id(key) for _, key, _, _ in joins) == sorted(keys)
    early = late = 0
    for var, key, size, after_projection in joins:
        received = key.labels() != [var]
        if after_projection:
            assert received
            late += 1
        else:
            assert size <= local[var], (var, key.labels())
            early += received
    assert early >= 1
    if family == "party":
        assert late >= 1
