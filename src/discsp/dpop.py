"""Baseline DPOP over a pseudo-tree.

Bottom-up FEAS propagation of violation counts (min-sum dynamic
programming) followed by top-down DECISION propagation.  Payloads travel in
cleartext; this is the non-private control the privacy-aware solvers are
measured against.
"""

from __future__ import annotations

from .kernel import KernelProcess, PseudoTreeView
from .model import Constraint, Problem
from .tables import Axis, FeasTable, join, project_min, zero_table


def constraint_table(c: Constraint) -> FeasTable:
    """The constraint's cost table as a FeasTable over its scope."""
    axes = [Axis(x, dom) for x, dom in zip(c.scope, c.domains)]
    return FeasTable(axes, list(c.table))


def eligible_constraints(constraints, view: PseudoTreeView):
    """Constraints joined locally at this variable: those involving it and
    no (pseudo-)children, so each constraint enters the propagation exactly
    once, at its deepest scope variable."""
    below = set(view.children) | set(view.pseudo_children)
    return [c for c in constraints
            if view.variable in c.scope and not (set(c.scope) & below)]


def local_join(problem: Problem, view: PseudoTreeView,
               extra: tuple[Constraint, ...] = ()) -> FeasTable:
    x = view.variable
    t = zero_table(x, problem.domains[x])
    for c in eligible_constraints(list(problem.constraints) + list(extra), view):
        t = join(t, constraint_table(c))
    return t


class DpopProcess(KernelProcess):
    """DPOP state machine for one variable."""

    def main(self):
        view = yield from self.first_tree()
        return (yield from self.propagate(view))

    def propagate(self, view: PseudoTreeView):
        x = self.var
        problem = self.sim.problem
        m = local_join(problem, view)
        self.charge(m.size())
        seps: dict[str, list] = {}
        for c in view.children:
            msg = yield from self.get("FEAS", sender=c)
            t = FeasTable.from_canonical(msg.payload["table"])
            seps[c] = t.labels()
            m = join(m, t)
            self.charge(m.size())

        mins = project_min(m, x)
        self.charge(m.size())
        decided: dict = {}
        if not view.is_root:
            self.sim.note("sep", len(mins.scope))
            self.send(view.parent, "FEAS", {"table": mins.canonical()})
            dm = yield from self.get("DECISION", sender=view.parent)
            decided = dict(dm.payload["assignment"])
            feasible = None
            min_count = None
        else:
            min_count = mins.entries[0]
            feasible = min_count == 0
        decided[x] = m.argmin(x, decided)

        for c in view.children:
            self.send(c, "DECISION",
                      {"assignment": [[v, decided[v]] for v in seps[c]]})
        out = {"value": decided[x]}
        if feasible is not None:
            out.update({"feasible": feasible, "min_violations": min_count})
        return out
