import pytest

from discsp.dpop import DpopProcess
from discsp.generators import figure1_instance, figure2_tree_hints
from discsp.kernel import KernelProcess, PseudoTreeView
from discsp.model import Constraint, Problem
from discsp.runtime import RunConfig, Sim


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


# ------------------------------------------------ standalone kernel drivers

class _PhaseProcess(KernelProcess):
    """Runs a configurable sequence of kernel phases."""

    def __init__(self, var, sim, phases, order_hint=None, root=None):
        super().__init__(var, sim)
        self.phases = phases
        self.preset_root = root
        self.order_hint = order_hint or {}

    def _probe_order(self, epoch):
        """Probe in the hinted neighbour order, if this variable has one."""
        hint = self.order_hint.get(self.var)
        if hint:
            return [u for u in hint if u in self.neighbors]
        return super()._probe_order(epoch)

    def main(self):
        out = {}
        is_root = False
        for phase in self.phases:
            if phase == "elect":
                is_root = yield from self.elect_root(
                    len(self.sim.problem.variables))
                out["is_root"] = is_root
            elif phase == "dfs":
                if self.preset_root is not None:
                    is_root = self.var == self.preset_root
                view = yield from self.build_tree(0, is_root)
                out["view"] = view
            elif phase == "ids":
                ids = yield from self.assign_ids(0, self.sim.config.incr_min)
                out["ids"] = ids
        return out


def _run_phases(problem: Problem, seed: int, phases, order_hint=None,
                root=None, config: RunConfig | None = None):
    sim = Sim(problem, seed, config or RunConfig())
    for x in problem.variables:
        sim.add_process(_PhaseProcess(x, sim, phases, order_hint, root))
    results = sim.run()
    return results, sim


def elect_root(problem: Problem, seed: int):
    """Distributed election; returns {var: is_root}."""
    results, _ = _run_phases(problem, seed, ["elect"])
    return {x: r["is_root"] for x, r in results.items()}


def build_dfs_tree(problem: Problem, root: str, seed: int,
                   order_hint: dict | None = None) -> dict[str, PseudoTreeView]:
    """Distributed DFS from a given root; returns all local views."""
    results, _ = _run_phases(problem, seed, ["dfs"], order_hint, root)
    return {x: r["view"] for x, r in results.items()}


def assign_unique_ids(problem: Problem, root: str, seed: int,
                      incr_min: int = 10, order_hint: dict | None = None):
    """DFS + ID assignment; returns ({var: IdAssignment}, {var: view})."""
    results, _ = _run_phases(problem, seed, ["dfs", "ids"], order_hint, root,
                             RunConfig(incr_min=incr_min))
    return ({x: r["ids"] for x, r in results.items()},
            {x: r["view"] for x, r in results.items()})


def solve_dpop(problem: Problem, views: dict[str, PseudoTreeView], seed: int = 0,
               config: RunConfig | None = None):
    """Run DPOP on a pre-built pseudo-tree.

    Returns (assignment, min_violations, metrics, transcript).
    """
    config = config or RunConfig()
    sim = Sim(problem, seed, config)
    for x in problem.variables:
        sim.add_process(DpopProcess(x, sim, preset_views=views))
    results = sim.run(config.timeout_secs)
    assignment = {x: r["value"] for x, r in results.items()}
    min_count = next(r["min_violations"] for r in results.values()
                     if r.get("root"))
    return assignment, min_count, sim.metrics, sim.transcript
