import itertools
import json

import pytest

from discsp.dpop import DpopProcess
from discsp.generators import figure1_instance, figure2_tree_hints
from discsp.kernel import KernelError, KernelProcess, PseudoTreeView
from discsp.model import Constraint, Problem, evaluate
from discsp.oracle import OracleResult
from discsp.runtime import Msg, RunConfig, Sim
from discsp.solvers import SOLVERS
from discsp.tables import FeasTable, TableError, _gather


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
                                  name=f"ne_{a}{b}")
        for a, b in (("u", "v"), ("v", "w"), ("u", "w")))
    return Problem(tuple(owner.values()), ("u", "v", "w"), owner,
                   {x: dom for x in owner}, cons)


def align_to(t: FeasTable, ref: FeasTable) -> FeasTable:
    """Reorder t's axes (and value orders) to match ref's scope."""
    if set(t.labels()) != set(ref.labels()):
        raise TableError(f"cannot align scope {t.labels()} to {ref.labels()}")
    return FeasTable(list(ref.scope), _gather(t, ref.scope))


def iter_cells(t: FeasTable):
    """Yield (positions tuple, entry) for every cell of t, row-major."""
    ranges = [range(len(a.values)) for a in t.scope]
    yield from zip(itertools.product(*ranges), t.entries)


def tables_equal(t1: FeasTable, t2: FeasTable) -> bool:
    """Equality up to axis order (value orders must agree per label)."""
    if set(t1.labels()) != set(t2.labels()):
        return False
    try:
        aligned = align_to(t2, t1)
    except TableError:
        return False
    return aligned.entries == t1.entries


def run_gen(gen):
    """Drive a message-free generator to completion (test trampoline)."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ------------------------------------------------------------ the test driver

def simulate(problem: Problem, process, seed: int = 0,
             config: RunConfig | None = None, sim_class=Sim) -> Sim:
    """Run one process per variable, built as ``process(var, sim)``, and
    return the finished Sim: its ``processes`` hold each variable's result
    and internal state, its ``metrics`` and ``transcript`` the run's.

    Unlike ``run_solver`` it runs `problem` as given, never padded."""
    config = config or RunConfig()
    sim = sim_class(problem, seed, config)
    for x in problem.variables:
        sim.add_process(process(x, sim))
    sim.run()
    return sim


class PostingSnapshots(Sim):
    """A Sim that keeps each posted message as it was at posting time:
    (sender, receiver, type, payload as sorted-key JSON), in posting order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.posted: list[tuple] = []

    def post(self, dst, msg):
        self.posted.append((msg.sender, dst, msg.type,
                            json.dumps(msg.payload, sort_keys=True)))
        super().post(dst, msg)

    def changed_payloads(self) -> list[int]:
        """Ticks whose record no longer matches its message as posted.
        Delivery order is posting order, so tick i is the i-th post."""
        assert len(self.posted) == len(self.transcript)
        return [tick for tick, (rec, posted) in
                enumerate(zip(self.transcript, self.posted))
                if (rec.sender_var, rec.receiver_var, rec.type,
                    json.dumps(rec.payload, sort_keys=True)) != posted]


def solver_process(name: str):
    """The process factory of a registered solver, for ``simulate``."""
    spec = SOLVERS[name]
    return lambda var, sim: spec.process(var, sim, *spec.variant)


def on_tree(process_cls, views: dict[str, PseudoTreeView]):
    """`process_cls` with its epoch-0 pseudo-tree fixed to `views` instead
    of an election and a DFS."""

    class OnTree(process_cls):
        def first_tree(self):
            self.views[0] = views[self.var]
            yield from ()  # a wait-free generator, like the one it replaces
            return self.views[0]

    return OnTree


def outcome(sim: Sim) -> tuple:
    """(feasible, joint assignment) of a finished run, as ``run_solver``
    reports them."""
    results = {x: p.result for x, p in sim.processes.items()}
    feasible = next((r["feasible"] for r in results.values()
                     if "feasible" in r), None)
    return feasible, {x: r["value"] for x, r in results.items() if "value" in r}


def feas_sends(transcript) -> int:
    """The FEAS tables sent in a run: a direct FEAS is one record, and a
    FEAS that P2 routes starts with one PREV record (its forwards are LAST)."""
    return sum(r.type == "FEAS" or (r.type == "PREV"
                                    and r.payload["inner_type"] == "FEAS")
               for r in transcript)


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
                is_root = yield from self.elect_root()
                out["is_root"] = is_root
            elif phase == "dfs":
                if self.preset_root is not None:
                    is_root = self.var == self.preset_root
                view = yield from self.build_tree(0, is_root)
                out["view"] = view
            elif phase == "ids":
                ids = yield from self.assign_ids()
                out["ids"] = ids
        return out


class ReferenceElection(_PhaseProcess):
    """``elect_root`` with one one-message wait per neighbour and round: the
    reference for the kernel's counted wait."""

    def elect_root(self):
        rng = self.sim.rng(self.var, "election")
        my_score = rng.getrandbits(128)
        best = my_score
        for r in range(1, len(self.sim.problem.variables) + 1):
            msg = Msg("SCORE", {"round": r, "score": best}, sender=self.var)
            for u in self.neighbors:
                self.sim.post(u, msg)
            for _ in self.neighbors:
                m = yield from self.get("SCORE", round=r)
                best = max(best, m.payload["score"])
            self.charge(1)
        return best == my_score


def _run_phases(problem: Problem, seed: int, phases, order_hint=None,
                root=None, config: RunConfig | None = None):
    sim = simulate(problem, lambda x, sim: _PhaseProcess(
        x, sim, phases, order_hint, root), seed, config)
    return {x: p.result for x, p in sim.processes.items()}, sim


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
    sim = simulate(problem, on_tree(DpopProcess, views), seed, config)
    results = [p.result for p in sim.processes.values()]
    min_count = next(r["min_violations"] for r in results
                     if "min_violations" in r)
    return outcome(sim)[1], min_count, sim.metrics, sim.transcript


def tree_from_parents(problem: Problem, parents: dict,
                      children_order: dict | None = None
                      ) -> dict[str, PseudoTreeView]:
    """Build views from an explicit tree.

    `parents` maps each variable to its parent (None for the root); children
    lists follow `children_order` when given, else sorted order.  Non-tree
    constraint edges must connect ancestors to descendants (DFS property).
    """
    roots = [x for x, p in parents.items() if p is None]
    if len(roots) != 1:
        raise KernelError(f"need exactly one root, got {roots}")
    children: dict[str, list] = {x: [] for x in parents}
    for x, p in parents.items():
        if p is not None:
            children[p].append(x)
    if children_order:
        for x, order in children_order.items():
            if sorted(order) != sorted(children[x]):
                raise KernelError(f"children order for {x} does not match tree")
            children[x] = list(order)
    else:
        for x in children:
            children[x].sort()

    def ancestors(x):
        out = []
        while parents[x] is not None:
            x = parents[x]
            out.append(x)
        return out

    pseudo_parents: dict[str, list] = {x: [] for x in parents}
    pseudo_children: dict[str, list] = {x: [] for x in parents}
    for a, b in sorted(problem.edges()):
        if parents.get(a) == b or parents.get(b) == a:
            continue
        if b in ancestors(a):
            lo, hi = a, b
        elif a in ancestors(b):
            lo, hi = b, a
        else:
            raise KernelError(f"edge {a}-{b} is not ancestor-descendant")
        pseudo_parents[lo].append(hi)
        pseudo_children[hi].append(lo)
    views = {}
    for x in parents:
        views[x] = PseudoTreeView(
            variable=x, epoch=0, parent=parents[x],
            pseudo_parents=tuple(sorted(pseudo_parents[x])),
            children=tuple(children[x]),
            pseudo_children=tuple(sorted(pseudo_children[x])),
        )
        views[x].validate(problem)
    return views


def evaluating_brute_force(problem: Problem) -> OracleResult:
    """The oracle by `evaluate` on every assignment, in product order: the
    reference `oracle.brute_force` is checked against."""
    best = witness = None
    solutions = 0
    for values in itertools.product(*(problem.domains[x]
                                      for x in problem.variables)):
        assignment = dict(zip(problem.variables, values))
        count = evaluate(problem, assignment)
        if best is None or count < best:
            best, witness = count, assignment
        if count == 0:
            solutions += 1
    return OracleResult(min_violations=best, witness=witness,
                        solution_count=solutions)


def reference_to_jsonl(transcript) -> str:
    """`Transcript.to_jsonl` as one join of every line plus the final
    newline: the reference the chunked writer is checked against."""
    owner = transcript.owner
    return "\n".join(
        json.dumps({
            "tick": tick, "sender_var": r.sender_var,
            "sender_agent": owner[r.sender_var],
            "receiver_var": r.receiver_var,
            "receiver_agent": owner[r.receiver_var], "type": r.type,
            "size": r.size, "sent_clock": r.sent_clock,
            "payload": r.payload,
        }, sort_keys=True)
        for tick, r in enumerate(transcript.records)
    ) + ("\n" if transcript.records else "")
