import itertools

import pytest

from discsp.model import Constraint, ModelError, Problem, evaluate, pad_domains
from discsp.oracle import brute_force

RGB = ("R", "B", "G")


def tiny_problem(constraints, domains=None, n=2):
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    owner = {f"x{i}": f"a{i}" for i in range(1, n + 1)}
    domains = domains or {x: RGB for x in variables}
    return Problem(agents, variables, owner, domains, constraints)


def test_evaluate_figure1_solution(fig1):
    assert evaluate(fig1, {"x1": "B", "x2": "R", "x3": "B", "x4": "G",
                           "x5": "G"}) == 0


def test_evaluate_figure1_all_red(fig1):
    assert evaluate(fig1, {x: "R" for x in fig1.variables}) == 7


def test_evaluate_empty_conjunction():
    p = tiny_problem(())
    assert evaluate(p, {"x1": "R", "x2": "G"}) == 0


def test_evaluate_incomplete_assignment(fig1):
    with pytest.raises(ModelError):
        evaluate(fig1, {"x1": "R"})


def test_evaluate_out_of_domain(fig1):
    bad = {x: "R" for x in fig1.variables}
    bad["x3"] = "PURPLE"
    with pytest.raises(ModelError):
        evaluate(fig1, bad)


def test_max_discsp_unary_recast(fig1):
    u5 = next(c for c in fig1.constraints if c.name == "u_x5")
    assert u5.cost(("B",)) == 1
    assert u5.cost(("G",)) == 0


def test_max_discsp_binary_recast():
    c = Constraint.from_predicate(("x1", "x2"), (RGB, RGB),
                                  lambda a, b: a != b)
    assert c.cost(("R", "R")) == 1
    assert c.cost(("R", "G")) == 0


def test_evaluate_equals_cost_sum_exhaustive(fig1):
    small = [c for c in fig1.constraints]
    for values in itertools.product(RGB, repeat=5):
        a = dict(zip(fig1.variables, values))
        total = sum(c.cost(tuple(a[x] for x in c.scope)) for c in fig1.constraints)
        assert evaluate(fig1, a) == total
    assert len(small) == 8


def test_duplicate_agent_names_rejected():
    with pytest.raises(ModelError, match="duplicate agent"):
        Problem(("a1", "a1"), ("x1",), {"x1": "a1"}, {"x1": RGB})


@pytest.mark.parametrize("forbidden", [[("R", "PURPLE")], [("R",)]],
                         ids=["value-outside-domain", "short-tuple"])
def test_forbidden_tuple_must_fit_the_scope(forbidden):
    with pytest.raises(ModelError):
        Constraint.from_forbidden(("x1", "x2"), (RGB, RGB), forbidden)


def test_constraint_name_is_keyword_only():
    for make, last in ((Constraint.from_predicate, lambda v: True),
                       (Constraint.from_forbidden, [])):
        with pytest.raises(TypeError):
            make(("x1",), (RGB,), last, "u")
        assert make(("x1",), (RGB,), last, name="u").name == "u"


def test_constraint_graph_edges(fig1):
    assert ("x1", "x2") in fig1.edges()
    assert ("x2", "x5") not in fig1.edges()
    assert fig1.is_connected()


# -- padding --------------------------------------------------------------------

def test_pad_domains_sizes():
    domains = {"x1": ("R", "B"), "x2": RGB, "x3": RGB}
    variables = ("x1", "x2", "x3")
    agents = ("a1", "a2", "a3")
    owner = {"x1": "a1", "x2": "a2", "x3": "a3"}
    c = Constraint.from_predicate(("x1", "x2"), (domains["x1"], RGB),
                                  lambda a, b: a != b)
    p = Problem(agents, variables, owner, domains, (c,))
    padded = pad_domains(p)
    assert all(len(padded.domains[x]) == 3 for x in variables)
    pads = [c for c in padded.constraints if c.name.startswith("pad_")]
    assert len(pads) == 1  # only x1 needed a fake value


def test_pad_domains_keeps_real_values_with_the_pad_prefix():
    doms = {"x": ("!pad0", "a"), "y": ("!pad0", "a", "b")}
    c = Constraint.from_predicate(("x", "y"), (doms["x"], doms["y"]),
                                  lambda u, v: u == v)
    p = Problem(("a1", "a2"), ("x", "y"), {"x": "a1", "y": "a2"}, doms, (c,))
    padded = pad_domains(p)
    assert padded.domains["x"] == ("!pad0", "a", "!pad1")
    assert evaluate(padded, {"x": "!pad0", "y": "!pad0"}) == 0
    assert evaluate(padded, {"x": "!pad1", "y": "!pad0"}) > 0


def test_pad_domains_uniform_noop(fig1):
    assert pad_domains(fig1) is fig1


def test_pad_preserves_solution_set():
    domains = {"x1": ("R", "B"), "x2": RGB}
    owner = {"x1": "a1", "x2": "a2"}
    c = Constraint.from_predicate(("x1", "x2"), (domains["x1"], RGB),
                                  lambda a, b: a != b)
    p = Problem(("a1", "a2"), ("x1", "x2"), owner, domains, (c,))
    padded = pad_domains(p)
    base = brute_force(p)
    solutions = set()
    for values in itertools.product(*(padded.domains[x] for x in padded.variables)):
        a = dict(zip(padded.variables, values))
        if evaluate(padded, a) == 0:
            solutions.add(values)
    real = {v for v in solutions
            if all(not (isinstance(t, str) and t.startswith("!pad")) for t in v)}
    assert real == solutions  # padded values never appear in solutions
    assert len(real) == base.solution_count
