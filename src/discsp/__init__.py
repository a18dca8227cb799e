"""Distributed constraint satisfaction with graded privacy guarantees.

Solvers: dpop (baseline), pdpop / pdpop_plus (codenames + additive
obfuscation), p32 / p32_plus (encrypted shuffled rerooting, no decision
propagation), p2 / p2_plus (encrypted boolean propagation on a linear
order).  A deterministic simulation runtime captures transcripts and
metrics; the harness provides benchmark generators, a brute-force oracle,
an experiment driver and a CLI.
"""

from .model import Constraint, Problem, evaluate
from .solvers import SOLVERS, RunResult, run_solver

__all__ = [
    "Constraint", "Problem", "evaluate", "SOLVERS", "RunResult", "run_solver",
]

__version__ = "0.1.0"
