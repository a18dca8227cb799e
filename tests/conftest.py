import pytest

from discsp.generators import figure1_instance, figure2_tree_hints
from discsp.kernel import build_dfs_tree
from discsp.model import Constraint, Problem


@pytest.fixture(scope="session")
def fig1():
    return figure1_instance()


@pytest.fixture(scope="session")
def fig2_views(fig1):
    """The reference pseudo-tree: x2 root, x3 children [x5, x4], x4 -> x1,
    back-edge x1 -> x2."""
    return build_dfs_tree(fig1, "x2", seed=1, order_hint=figure2_tree_hints())


def infeasible_triangle():
    """Three agents with one variable each and two colours under pairwise
    "!=": no solution, so the rerooted solvers abort after one iteration."""
    dom = ("R", "B")
    owner = {x: f"ag_{x}" for x in ("u", "v", "w")}
    cons = tuple(
        Constraint.from_predicate((a, b), (dom, dom), lambda s, t: s != t,
                                  {owner[a], owner[b]}, name=f"ne_{a}{b}")
        for a, b in (("u", "v"), ("v", "w"), ("u", "w")))
    return Problem(tuple(owner.values()), ("u", "v", "w"), owner,
                   {x: dom for x in owner}, cons)


def run_gen(gen):
    """Drive a message-free generator to completion (test trampoline)."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value
