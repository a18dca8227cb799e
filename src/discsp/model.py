"""Problem model: agents, variables, finite domains, and extensional constraints.

Constraints are stored extensionally as dense cost tables over the scope's
Cartesian product, with costs in {0, 1} (0 = feasible, 1 = infeasible).
Intensional predicates are tabulated at construction time, which is what the
dynamic-programming solvers need anyway.  Values are opaque tokens (str or
int) with a stable total order given by their position in the domain list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

Value = "str | int"


class ModelError(ValueError):
    """Raised for malformed problems, constraints or assignments."""


@dataclass(frozen=True)
class Constraint:
    """An extensional constraint over an ordered scope of variables.

    `table` holds one cost per tuple of the scope's Cartesian product in
    row-major order (last scope variable varies fastest).  Costs are 0 for
    feasible tuples and 1 for infeasible ones.  A constraint is known
    exactly to the owners of its scope variables.
    """

    scope: tuple[str, ...]
    domains: tuple[tuple, ...]  # domain (value tuple) per scope variable
    table: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if not self.scope:
            raise ModelError("constraint scope must be non-empty")
        if len(set(self.scope)) != len(self.scope):
            raise ModelError(f"duplicate variable in scope {self.scope}")
        if len(self.domains) != len(self.scope):
            raise ModelError("one domain required per scope variable")
        if len(self.table) != math.prod(len(d) for d in self.domains):
            raise ModelError("table size does not match scope product")
        if any(c not in (0, 1) for c in self.table):
            raise ModelError("constraint costs must be 0 or 1")

    @classmethod
    def from_predicate(cls, scope, domains, predicate, *, name=""):
        """Tabulate `predicate(*values) -> bool` (True = feasible)."""
        domains = tuple(tuple(d) for d in domains)
        table = tuple(
            0 if predicate(*values) else 1
            for values in itertools.product(*domains)
        )
        return cls(tuple(scope), domains, table, name)

    @classmethod
    def from_forbidden(cls, scope, domains, forbidden, *, name=""):
        forbidden = {tuple(t) for t in forbidden}
        for t in forbidden:
            if len(t) != len(scope):
                raise ModelError(f"forbidden tuple {t} does not match scope {tuple(scope)}")
            for x, dom, v in zip(scope, domains, t):
                if v not in dom:
                    raise ModelError(f"forbidden value {v!r} outside the domain of {x}")
        return cls.from_predicate(
            scope, domains, lambda *v: v not in forbidden, name=name
        )

    def index_of(self, values):
        idx = 0
        for dom, v in zip(self.domains, values):
            try:
                pos = dom.index(v)
            except ValueError:
                raise ModelError(f"value {v!r} outside domain {dom}") from None
            idx = idx * len(dom) + pos
        return idx

    def cost(self, values) -> int:
        """0 if the tuple is feasible, 1 otherwise."""
        return self.table[self.index_of(values)]


@dataclass(frozen=True)
class Problem:
    """A DisCSP: agents, owned variables, finite domains, constraints."""

    agents: tuple[str, ...]
    variables: tuple[str, ...]
    owner: dict[str, str] = field(default_factory=dict)
    domains: dict[str, tuple] = field(default_factory=dict)
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "domains", {v: tuple(d) for v, d in self.domains.items()})
        object.__setattr__(self, "constraints", tuple(self.constraints))
        self.validate()

    def validate(self):
        agents = set(self.agents)
        if len(agents) != len(self.agents):
            raise ModelError("duplicate agent names")
        variables = set(self.variables)
        if len(variables) != len(self.variables):
            raise ModelError("duplicate variable names")
        for x in self.variables:
            if x not in self.owner:
                raise ModelError(f"variable {x} has no owner")
            if self.owner[x] not in agents:
                raise ModelError(f"owner of {x} is not a declared agent")
            if not self.domains.get(x):
                raise ModelError(f"variable {x} has an empty or missing domain")
            if len(set(self.domains[x])) != len(self.domains[x]):
                raise ModelError(f"domain of {x} has duplicate values")
        for c in self.constraints:
            for x, dom in zip(c.scope, c.domains):
                if x not in variables:
                    raise ModelError(f"constraint scope variable {x} unknown")
                if tuple(dom) != self.domains[x]:
                    raise ModelError(f"constraint domain for {x} disagrees with problem")

    def neighbor_vars(self, x: str) -> tuple[str, ...]:
        """Variables sharing a constraint scope with x, sorted."""
        out = set()
        for c in self.constraints:
            if x in c.scope:
                out.update(c.scope)
        out.discard(x)
        return tuple(sorted(out))

    def edges(self) -> set[tuple[str, str]]:
        """Constraint-graph edges: pairs co-occurring in some scope."""
        out = set()
        for c in self.constraints:
            for a, b in itertools.combinations(sorted(c.scope), 2):
                out.add((a, b))
        return out

    def agent_neighbors(self, agent: str) -> set[str]:
        """Agents sharing at least one constraint with `agent`."""
        out = set()
        for c in self.constraints:
            owners = {self.owner[x] for x in c.scope}
            if agent in owners:
                out.update(owners)
        out.discard(agent)
        return out

    def components(self) -> list[set[str]]:
        adj = {x: set() for x in self.variables}
        for a, b in self.edges():
            adj[a].add(b)
            adj[b].add(a)
        seen, comps = set(), []
        for x in self.variables:
            if x in seen:
                continue
            comp, stack = set(), [x]
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def state_space_size(self) -> int:
        return math.prod(len(self.domains[x]) for x in self.variables)


# Assignments are plain dicts {variable: value}.

def check_assignment(problem: Problem, assignment: dict) -> None:
    for x in problem.variables:
        if x not in assignment:
            raise ModelError(f"assignment incomplete: {x} unbound")
        if assignment[x] not in problem.domains[x]:
            raise ModelError(f"value {assignment[x]!r} outside domain of {x}")


def evaluate(problem: Problem, assignment: dict) -> int:
    """Number of violated constraints under a complete assignment.

    0 iff the assignment is a solution.
    """
    check_assignment(problem, assignment)
    return sum(
        c.cost(tuple(assignment[x] for x in c.scope)) for c in problem.constraints
    )


PAD_PREFIX = "!pad"


def pad_domains(problem: Problem) -> Problem:
    """Pad every domain to the largest domain's size with fake,
    always-infeasible tokens.

    Each padded variable gains a private unary constraint forbidding its fake
    values, so the solution set projected onto real values is unchanged.
    Domains already at that size are left untouched.  A fake token is
    `PAD_PREFIX` plus a number and never equals a real value of its own
    variable; a real value that merely starts with `PAD_PREFIX` stays real.
    """
    size = max(len(problem.domains[x]) for x in problem.variables)
    domains = dict(problem.domains)
    fakes: dict[str, frozenset] = {}
    extra: list[Constraint] = []
    for x in problem.variables:
        dom = list(domains[x])
        missing = size - len(dom)
        if missing == 0:
            continue
        pads = []
        i = 0
        while len(pads) < missing:
            token = f"{PAD_PREFIX}{i}"
            if token not in dom:
                pads.append(token)
            i += 1
        dom = dom + pads
        domains[x] = tuple(dom)
        fakes[x] = frozenset(pads)
        extra.append(Constraint.from_predicate(
            (x,), (dom,), lambda v, _f=fakes[x]: v not in _f, name=f"pad_{x}",
        ))
    if not extra:
        return problem
    # Re-tabulate existing constraints over the padded domains: fake values
    # are infeasible in every constraint they appear in via the unary above,
    # so existing tables only need extending with "don't care" rows.  Keeping
    # them infeasible is simplest and preserves the real-value solution set.
    new_constraints = []
    for c in problem.constraints:
        doms = tuple(domains[x] for x in c.scope)
        if doms == c.domains:
            new_constraints.append(c)
            continue

        def padded_cost(*values, _c=c):
            if any(v in fakes.get(x, ()) for x, v in zip(_c.scope, values)):
                return False
            return _c.cost(values) == 0

        new_constraints.append(Constraint.from_predicate(
            c.scope, doms, padded_cost, name=c.name
        ))
    return Problem(problem.agents, problem.variables, dict(problem.owner),
                   domains, tuple(new_constraints) + tuple(extra))
