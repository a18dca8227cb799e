"""Transcript privacy auditor.

The auditor holds global ground truth (test-only omniscience) and scans a
run's transcript for observable leaks: deliveries between non-neighboring
agents, cleartext references to non-neighbors in payloads, plaintext
feasibility values where encryption is required, and decision propagation
where none is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Problem
from .runtime import Record, Transcript
from .solvers import SOLVERS


@dataclass(frozen=True)
class AuditSpec:
    """What the solver under audit promises."""

    encrypted_feas: bool = False   # FEAS payloads must contain no plain values
    forbid_decision: bool = False  # no DECISION messages at all


SPEC_BY_SOLVER = {
    name: AuditSpec(encrypted_feas=spec.privacy >= 3,
                    forbid_decision=spec.privacy >= 2)
    for name, spec in SOLVERS.items()
}


@dataclass(frozen=True)
class Finding:
    category: str  # non-neighbor-delivery | agent-privacy | constraint-privacy | decision-privacy
    tick: int
    detail: str


def _scan(payload):
    """One walk over a canonical payload: its strings (dict keys included),
    its table structures and its assignment lists."""
    strings: set = set()
    tables: list = []
    assignments: list = []

    def walk(obj):
        if isinstance(obj, str):
            strings.add(obj)
        elif isinstance(obj, dict):
            if "scope" in obj and "entries" in obj:
                tables.append(obj)
            if isinstance(obj.get("assignment"), list):
                assignments.append(obj["assignment"])
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(payload)
    return strings, tables, assignments


def audit(transcript: Transcript, problem: Problem,
          spec: AuditSpec) -> list[Finding]:
    findings: list[Finding] = []
    neighbors = {a: problem.agent_neighbors(a) | {a} for a in problem.agents}
    var_owner = problem.owner
    var_names = set(problem.variables)
    agent_names = set(problem.agents)

    def visible_to(receiver_agent: str, agent: str) -> bool:
        return agent in neighbors[receiver_agent]

    for tick, rec in enumerate(transcript):
        sender, recv = var_owner[rec.sender_var], var_owner[rec.receiver_var]
        if not visible_to(recv, sender):
            findings.append(Finding(
                "non-neighbor-delivery", tick, f"{sender} -> {recv}"))
        strings, tables, assignments = _scan(rec.payload)
        # Cleartext references to non-neighbors anywhere in the payload.
        for tok in strings:
            if tok in var_names and not visible_to(recv, var_owner[tok]):
                findings.append(Finding(
                    "agent-privacy", tick,
                    f"variable name {tok!r} visible to {recv}"))
            elif tok in agent_names and not visible_to(recv, tok):
                findings.append(Finding(
                    "agent-privacy", tick,
                    f"agent id {tok!r} visible to {recv}"))
        # Domain values attributed through real-name axis labels.
        for table in tables:
            for ax in table["scope"]:
                label = ax["label"]
                if (isinstance(label, str) and label in var_names
                        and not visible_to(recv, var_owner[label])):
                    real = set(problem.domains[label]) & set(ax["values"])
                    if real:
                        findings.append(Finding(
                            "agent-privacy", tick,
                            f"domain values of {label!r} visible to {recv}"))
        if spec.encrypted_feas and _is_feas(rec):
            for table in tables:
                if any(isinstance(e, (bool, int)) for e in table["entries"]):
                    findings.append(Finding(
                        "constraint-privacy", tick,
                        "plaintext feasibility value in FEAS payload"))
        if _is_decision(rec):
            if spec.forbid_decision:
                findings.append(Finding(
                    "decision-privacy", tick,
                    "DECISION message in a decision-private run"))
            else:
                for pairs in assignments:
                    if any(isinstance(label, str) and label in var_names
                           for label, _v in pairs):
                        findings.append(Finding(
                            "decision-privacy", tick,
                            "cleartext variable assignment in DECISION"))
    return findings


def _inner_type(rec: Record) -> str:
    if rec.type in ("PREV", "LAST") and isinstance(rec.payload, dict):
        return rec.payload.get("inner_type", rec.type)
    return rec.type


def _is_feas(rec: Record) -> bool:
    return _inner_type(rec) == "FEAS"


def _is_decision(rec: Record) -> bool:
    return _inner_type(rec) == "DECISION"


def summarize(findings: list[Finding]) -> dict:
    out: dict[str, int] = {}
    for f in findings:
        out[f.category] = out.get(f.category, 0) + 1
    return out
