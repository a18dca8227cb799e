import pytest

from discsp import problemio
from discsp.generators import (gen_graph_coloring, gen_meeting_scheduling,
                               gen_party_game, gen_resource_allocation)
from discsp.model import Constraint, ModelError, Problem, evaluate
from discsp.oracle import brute_force


def roundtrip(problem):
    text = problemio.dumps(problem)
    back = problemio.loads(text)
    assert back.agents == problem.agents
    assert back.variables == problem.variables
    assert back.owner == problem.owner
    assert back.domains == problem.domains
    assert back.constraints == problem.constraints
    return back


def test_roundtrip_fig1(fig1):
    back = roundtrip(fig1)
    assert brute_force(back).solution_count == brute_force(fig1).solution_count


def test_roundtrip_every_family():
    for problem in (gen_graph_coloring(5, seed=1),
                    gen_meeting_scheduling(2, seed=2),
                    gen_resource_allocation(slots=4, bids=2, seed=3),
                    gen_party_game(3, seed=4)):
        back = roundtrip(problem)
        o1, o2 = brute_force(problem), brute_force(back)
        assert o1.min_violations == o2.min_violations
        assert o1.solution_count == o2.solution_count


def test_file_roundtrip(tmp_path, fig1):
    path = tmp_path / "p.discsp"
    problemio.dump(fig1, path)
    back = problemio.load(path)
    assert back.variables == fig1.variables


def test_int_and_str_values_are_tagged():
    p = gen_meeting_scheduling(1, seed=0)  # integer slot domains
    text = problemio.dumps(p)
    assert "i:0" in text
    back = problemio.loads(text)
    assert all(isinstance(v, int) for v in next(iter(back.domains.values())))


def test_malformed_header_rejected():
    with pytest.raises(ModelError):
        problemio.loads("discsp 2\nagents 0\n")


HEAD = "discsp 1\nagents 1\na1\nvariables 2\nx a1 i:0 i:1\ny a1 i:0 i:1\n"


@pytest.mark.parametrize("text", [
    "discsp 1\nagents\n",
    "discsp 1\nagents two\na1\na2\n",
    "discsp 1\nagents -1\nvariables 0\nconstraints 0\n",
    "discsp 1\nagents 1\na1\nvariables 1\nx\n",
    HEAD + "constraints 1\nconstraint c\n",
    HEAD + "constraints 1\nconstraint c scope 2 x z forbidden 0\n",
    HEAD + "constraints 1\nconstraint c scope 4 x y forbidden 0\n",
    HEAD + "constraints 1\nconstraint c scope 1 x forbidden 1\ni:5\n",
    "discsp 1\nagents 2\na1\na1\nvariables 1\nx a1 i:0\nconstraints 0\n",
    HEAD + "constraints 1\nconstraint c scope 1 x forbidden -1\n",
    "discsp 1\nagents 2\na 1\nb\nvariables 2\nx b i:0 i:1\ny b i:0 i:1\n"
    "constraints 1\nconstraint c scope 2 x y forbidden 0\n",
], ids=["agents-no-count", "agents-two", "agents-negative",
        "variable-no-owner", "constraint-header-cut",
        "undeclared-scope-variable", "arity-past-line-end",
        "forbidden-value-outside-domain", "duplicate-agent",
        "forbidden-count-negative", "agent-name-with-whitespace"])
def test_malformed_file_raises_model_error(text):
    with pytest.raises(ModelError):
        problemio.loads(text)


@pytest.mark.parametrize("agent,var", [("a 1", "x"), ("a1", "x y"),
                                       ("", "x"), ("a1", "")])
def test_dumps_rejects_names_loads_cannot_read(agent, var):
    dom = (0, 1)
    c = Constraint.from_predicate((var,), (dom,), lambda v: v == 0)
    p = Problem((agent,), (var,), {var: agent}, {var: dom}, (c,))
    with pytest.raises(ModelError, match="is empty or contains whitespace"):
        problemio.dumps(p)


def test_truncated_file_rejected(fig1):
    text = problemio.dumps(fig1)
    with pytest.raises(ModelError):
        problemio.loads("\n".join(text.splitlines()[:-2]))


def test_trailing_garbage_rejected(fig1):
    text = problemio.dumps(fig1) + "unexpected\n"
    with pytest.raises(ModelError):
        problemio.loads(text)


def test_evaluate_agrees_after_roundtrip(fig1):
    back = problemio.loads(problemio.dumps(fig1))
    a = {"x1": "B", "x2": "R", "x3": "B", "x4": "G", "x5": "G"}
    assert evaluate(back, a) == evaluate(fig1, a) == 0
