"""Distributed structural protocols shared by every solver.

Four pieces: root election by score flooding, token-passing DFS pseudo-tree
construction, unique variable-ID assignment with secret random increments,
and circular message routing over the pseudo-tree (PREV/LAST envelopes).

Each routed envelope carries the epoch (index) of the pseudo-tree it rides,
so ring traffic from an earlier tree can keep flowing while a later tree is
still under construction; every variable retains its view of each epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Problem
from .runtime import Msg, Process, Sim


class KernelError(RuntimeError):
    pass


@dataclass(frozen=True)
class PseudoTreeView:
    """One variable's local view of the pseudo-tree of one epoch."""

    variable: str
    epoch: int
    parent: "str | None"
    pseudo_parents: tuple[str, ...]
    children: tuple[str, ...]
    pseudo_children: tuple[str, ...]

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ancestors_here(self) -> tuple[str, ...]:
        out = () if self.parent is None else (self.parent,)
        return out + self.pseudo_parents

    def validate(self, problem: Problem):
        neighbors = set(problem.neighbor_vars(self.variable))
        for y in self.ancestors_here() + self.children + self.pseudo_children:
            if y not in neighbors:
                raise KernelError(f"{self.variable}: {y} is not a constraint-graph neighbor")
        if set(self.children) & set(self.pseudo_children):
            raise KernelError(f"{self.variable}: child and pseudo-child overlap")


@dataclass(frozen=True)
class IdAssignment:
    id: int
    next_bound: int   # tight strict lower bound on the next unique ID
    total_bound: int  # upper bound on the variable count

    def validate(self):
        if not (self.id <= self.next_bound < self.total_bound):
            raise KernelError("id bounds violated")


# ------------------------------------------------------- pure routing rules

def to_previous_hop(view: PseudoTreeView) -> tuple[str, str]:
    """First hop for a message addressed to the previous variable.

    Returns (kind, destination).  A root without children is alone in the
    ring and addresses itself.
    """
    if view.is_root:
        if not view.children:
            return ("LAST", view.variable)
        return ("LAST", view.children[-1])
    return ("PREV", view.parent)


def route_hop(view: PseudoTreeView, kind: str, sender: "str | None"):
    """Routing decision on receipt: None to deliver here, else the variable
    to forward the envelope to, always as LAST."""
    if kind == "LAST":
        if not view.children:
            return None
        return view.children[-1]
    if kind == "PREV":
        if not view.children or sender not in view.children:
            raise KernelError(
                f"{view.variable}: PREV from {sender} which is not a child")
        i = view.children.index(sender)
        if i == 0:
            return None
        return view.children[i - 1]
    raise KernelError(f"unknown envelope kind {kind}")


def circular_order(views: dict[str, PseudoTreeView]) -> list[str]:
    """DFS preorder (the counter-clock-wise circular order)."""
    roots = [v for v, w in views.items() if w.is_root]
    if len(roots) != 1:
        raise KernelError(f"expected one root, found {roots}")
    order = []

    def visit(x):
        order.append(x)
        for c in views[x].children:
            visit(c)

    visit(roots[0])
    return order


# --------------------------------------------------------- kernel processes

class KernelProcess(Process):
    """Process base with the structural phases and routing intercepts."""

    INTERCEPTS = frozenset({"PREV", "LAST", "TOKEN"})

    def __init__(self, var: str, sim: Sim):
        super().__init__(var, sim)
        self.neighbors = sorted(sim.neighbor_vars[var])
        self.views: dict[int, PseudoTreeView] = {}
        # (epoch, pseudo-children) of the last DFS that visited this variable
        self._visited: "tuple[int, set[str]] | None" = None
        self.ids: IdAssignment | None = None

    # -- routing -------------------------------------------------------------

    def route_to_previous(self, epoch: int, inner_type: str, inner_payload: dict):
        """Send a logical message to the previous variable in the circular
        order of the given tree epoch."""
        kind, dst = to_previous_hop(self.views[epoch])
        self.send(dst, kind, {
            "epoch": epoch, "inner_type": inner_type, "inner": inner_payload,
        })

    def intercept(self, msg: Msg):
        if msg.type in ("PREV", "LAST"):
            epoch = msg.payload["epoch"]
            view = self.views.get(epoch)
            if view is None:
                raise KernelError(
                    f"{self.var}: routed envelope for unknown epoch {epoch}")
            dst = route_hop(view, msg.type, msg.sender)
            if dst is None:
                inner = Msg(msg.payload["inner_type"], msg.payload["inner"])
                if inner.type in self.INTERCEPTS:
                    return self.intercept(inner)
                return inner
            # The same envelope with the size it was delivered with.
            self.sim.post(dst, Msg("LAST", msg.payload, sender=self.var,
                                   size=msg.size))
            return None
        if (msg.type == "TOKEN" and msg.payload.get("kind") == "visit"
                and self._visited and msg.payload["epoch"] == self._visited[0]):
            epoch, pc = self._visited
            if epoch in self.views:
                # A completed variable can never be probed again (all its
                # incident edges were classified before it returned).
                raise KernelError(
                    f"{self.var}: probe after DFS completion (epoch {epoch})")
            pc.add(msg.sender)
            self.send(msg.sender, "TOKEN", {"kind": "bounce", "epoch": epoch})
            return None
        return msg

    # -- root election ---------------------------------------------------------

    def elect_root(self):
        """Synchronous max-score flooding over as many rounds as there are
        variables; returns True iff this variable wins.

        Each round sends one SCORE message object to every neighbour, so it
        is sized once, and takes the round's scores with one counted wait:
        each neighbour sends exactly one per round.  A score of the next
        round that arrives early is stashed for that round's wait.
        """
        rng = self.sim.rng(self.var, "election")
        my_score = rng.getrandbits(128)
        best = my_score
        neighbors = self.neighbors
        for r in range(1, len(self.sim.problem.variables) + 1):
            msg = Msg("SCORE", {"round": r, "score": best}, sender=self.var)
            for u in neighbors:
                self.sim.post(u, msg)
            for m in (yield from self.get("SCORE", round=r,
                                          count=len(neighbors))):
                best = max(best, m.payload["score"])
            self.charge(1)
        return best == my_score

    # -- DFS construction -------------------------------------------------------

    def _probe_order(self, epoch: int) -> list[str]:
        order = list(self.neighbors)
        self.sim.rng(self.var, "dfs", epoch).shuffle(order)
        return order

    def build_tree(self, epoch: int, is_root: bool):
        """Token-passing DFS; fills self.views[epoch] with this variable's view.

        Revisits are discovered by probing: a probe to an already-visited
        neighbor bounces, classifying the edge as a back-edge whose root is
        the bouncing (ancestor) side.
        """
        parent = None
        if not is_root:
            m = yield from self.get("TOKEN", kind="visit", epoch=epoch)
            parent = m.sender
        children: list[str] = []
        pp: set[str] = set()
        pc: set[str] = set()
        self._visited = (epoch, pc)
        for u in self._probe_order(epoch):
            if u == parent or u in children or u in pp or u in pc:
                continue
            self.send(u, "TOKEN", {"kind": "visit", "epoch": epoch})
            # Once visited, the intercept bounces every visit of this epoch,
            # so u's return or bounce is the only TOKEN this wait can see.
            m = yield from self.get("TOKEN", sender=u, epoch=epoch)
            if m.payload["kind"] == "bounce":
                pp.add(u)
            else:
                children.append(u)
        if not is_root:
            self.send(parent, "TOKEN", {"kind": "return", "epoch": epoch})
        self.views[epoch] = PseudoTreeView(
            variable=self.var, epoch=epoch, parent=parent,
            pseudo_parents=tuple(sorted(pp)), children=tuple(children),
            pseudo_children=tuple(sorted(pc)),
        )
        return self.views[epoch]

    def first_tree(self):
        """The epoch-0 pseudo-tree: a root election, then a DFS from the
        winner."""
        is_root = yield from self.elect_root()
        return (yield from self.build_tree(0, is_root))

    # -- unique IDs ---------------------------------------------------------------

    def assign_ids(self):
        """DFS-order counter over the epoch-0 tree with secret random
        increments of 1 to 1 + 2 * incr_min; root broadcasts the final counter
        as the bound n+."""
        view = self.views[0]
        rng = self.sim.rng(self.var, "ids")
        if view.is_root:
            counter = 0
        else:
            m = yield from self.get("IDS", sender=view.parent, kind="assign")
            counter = m.payload["counter"]
        my_id = counter
        counter += 1 + rng.randint(0, 2 * self.sim.config.incr_min)
        next_bound = counter - 1
        for c in view.children:
            self.send(c, "IDS", {"kind": "assign", "counter": counter})
            m = yield from self.get("IDS", sender=c, kind="return")
            counter = m.payload["counter"]
        if view.is_root:
            total = counter
        else:
            self.send(view.parent, "IDS", {"kind": "return", "counter": counter})
            m = yield from self.get("IDS", sender=view.parent, kind="total")
            total = m.payload["total"]
        for c in view.children:
            self.send(c, "IDS", {"kind": "total", "total": total})
        self.ids = IdAssignment(id=my_id, next_bound=next_bound,
                                total_bound=total)
        self.ids.validate()
        return self.ids
