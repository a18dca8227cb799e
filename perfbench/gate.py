"""Correctness gate applied to every solve, outside the timed region.

The verdict must match ``oracle.brute_force`` wherever the state space fits
the oracle's cap.  A feasible verdict must come with a complete joint
assignment that violates no constraint (``model.evaluate``), which also
verifies it where the oracle cannot; an infeasible verdict beyond the cap
is counted as unverified.  The transcript must pass the privacy audit under
the rules of acceptance criterion 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from discsp.audit import SPEC_BY_SOLVER, audit, summarize
from discsp.model import Problem, evaluate
from discsp.oracle import OracleCapExceeded, brute_force


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    verified: bool = True

    @property
    def ok(self) -> bool:
        return not self.problems


def privacy_problems(solver: str, problem: Problem, result) -> list[str]:
    counts = summarize(audit(result.transcript, problem, SPEC_BY_SOLVER[solver]))
    out = []
    if counts.get("non-neighbor-delivery"):
        out.append("non-neighbor delivery")
    if solver != "dpop" and counts.get("agent-privacy"):
        out.append("agent-privacy finding")
    if solver.startswith("p2") and counts.get("constraint-privacy"):
        out.append("constraint-privacy finding")
    if solver.startswith(("p32", "p2")):
        if counts.get("decision-privacy"):
            out.append("decision-privacy finding")
        if any(rec.type == "DECISION" for rec in result.transcript):
            out.append("DECISION message in a decision-private run")
    return out


def check(solver: str, problem: Problem, result,
          oracle_feasible: dict | None = None) -> Verdict:
    """Gate one solve.  `oracle_feasible` caches oracle verdicts per problem
    (keyed by identity) across the solves of one run."""
    verdict = Verdict()
    if result.feasible is None:
        verdict.problems.append("no verdict")
        return verdict
    cache = {} if oracle_feasible is None else oracle_feasible
    if id(problem) not in cache:
        try:
            cache[id(problem)] = brute_force(problem).feasible
        except OracleCapExceeded:
            cache[id(problem)] = None
    oracle = cache[id(problem)]
    if oracle is not None and oracle != result.feasible:
        verdict.problems.append(f"verdict {result.feasible}, oracle {oracle}")
    if result.feasible:
        joint = result.joint_assignment()
        if set(joint) != set(problem.variables) or evaluate(problem, joint):
            verdict.problems.append("feasible verdict without a valid solution")
    elif oracle is None:
        verdict.verified = False
    verdict.problems.extend(privacy_problems(solver, problem, result))
    return verdict
