"""Brute-force oracle: exhaustive ground truth for equivalence tests."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import Problem


class OracleCapExceeded(RuntimeError):
    pass


DEFAULT_CAP = 10 ** 7


@dataclass(frozen=True)
class OracleResult:
    min_violations: int
    witness: dict
    solution_count: int

    @property
    def feasible(self) -> bool:
        return self.min_violations == 0


def brute_force(problem: Problem, cap: int = DEFAULT_CAP) -> OracleResult:
    """Enumerate the full state space; minimal violation count, one witness
    achieving it (the first in product order), and the number of exact
    solutions.

    Assignments are walked as tuples of domain positions.  A constraint's
    domains are its variables' domains, so its cost is read in its
    row-major table at the sum of its variables' positions times strides."""
    size = problem.state_space_size()
    if size > cap:
        raise OracleCapExceeded(f"state space {size} exceeds cap {cap}")
    variables = problem.variables
    where = {x: i for i, x in enumerate(variables)}
    checks = [(c.table, [(where[x], math.prod(map(len, c.domains[j + 1:])))
                         for j, x in enumerate(c.scope)])
              for c in problem.constraints]
    best = None
    witness = None
    solutions = 0
    for pos in itertools.product(
            *(range(len(problem.domains[x])) for x in variables)):
        count = 0
        for table, axes in checks:
            idx = 0
            for i, s in axes:
                idx += pos[i] * s
            count += table[idx]
        if best is None or count < best:
            best, witness = count, pos
        if count == 0:
            solutions += 1
    return OracleResult(
        min_violations=best,
        witness={x: problem.domains[x][p] for x, p in zip(variables, witness)},
        solution_count=solutions)


def subtree_min_table(problem: Problem, fixed: dict, free: list) -> int:
    """Minimal violation count over `free` variables with `fixed` pinned,
    counting only constraints that touch `free` and are fully covered by
    fixed+free (test helper for checking FEAS message semantics)."""
    covered = [c for c in problem.constraints
               if set(c.scope) & set(free)
               and set(c.scope) <= set(fixed) | set(free)]
    best = None
    for values in itertools.product(*(problem.domains[x] for x in free)):
        a = dict(fixed)
        a.update(zip(free, values))
        count = sum(c.cost(tuple(a[x] for x in c.scope)) for c in covered)
        if best is None or count < best:
            best = count
    return best if best is not None else 0
