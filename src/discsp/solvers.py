"""The solver table and the top-level simulation entry point."""

from __future__ import annotations

from dataclasses import dataclass

from .dpop import DpopProcess
from .model import ModelError, Problem, pad_domains
from .p2 import P2Process
from .p32 import P32Process
from .pdpop import PdpopProcess
from .runtime import Metrics, RunConfig, Sim, Transcript


@dataclass(frozen=True)
class SolverSpec:
    process: type           # Process subclass, built once per variable
    privacy: int            # the paper's grade, see SOLVERS
    variant: tuple = ()     # extra positional arguments after (var, sim)


# privacy: 0 none; 1 agent, topology and constraint privacy; 2 adds decision
# privacy; 3 adds full constraint privacy (encrypted feasibility values).
SOLVERS: dict[str, SolverSpec] = {
    "dpop": SolverSpec(DpopProcess, 0),
    "pdpop": SolverSpec(PdpopProcess, 1, ("minus",)),
    "pdpop_plus": SolverSpec(PdpopProcess, 1, ("plus",)),
    "p32": SolverSpec(P32Process, 2, ("minus",)),
    "p32_plus": SolverSpec(P32Process, 2, ("plus",)),
    "p2": SolverSpec(P2Process, 3, ("minus",)),
    "p2_plus": SolverSpec(P2Process, 3, ("plus",)),
}


@dataclass
class RunResult:
    solver: str
    feasible: "bool | None"
    per_agent: dict            # agent -> {variable: value}
    metrics: Metrics
    transcript: Transcript
    iterations: int = 1
    min_violations: "int | None" = None  # dpop only: the others never learn it

    def joint_assignment(self) -> dict:
        """Test-harness omniscience: merge all agents' local outputs."""
        out = {}
        for local in self.per_agent.values():
            out.update(local)
        return out


def run_solver(name: str, problem: Problem, seed: int,
               config: RunConfig | None = None) -> RunResult:
    """Simulate one solver end to end on one problem instance.

    Deterministic given (problem, seed, config).  The per-agent outputs are
    kept separate; only test harnesses should assemble a global assignment.
    """
    if name not in SOLVERS:
        raise KeyError(f"unknown solver {name!r}; known: {sorted(SOLVERS)}")
    spec = SOLVERS[name]
    config = config or RunConfig()
    components = len(problem.components())
    if components != 1:
        raise ModelError(f"solvers require one connected constraint graph, "
                         f"got {components} components")
    run_problem = problem
    if spec.privacy >= 1:  # equal domain sizes hide each domain's size
        run_problem = pad_domains(problem)
    sim = Sim(run_problem, seed, config)
    for x in run_problem.variables:
        sim.add_process(spec.process(x, sim, *spec.variant))
    results = sim.run()

    per_agent: dict = {}
    feasible = None
    min_violations = None
    iterations = len(sim.metrics.notes.get("roots", ())) or 1
    for x, r in results.items():
        if "value" in r:
            per_agent.setdefault(run_problem.owner[x], {})[x] = r["value"]
        if "feasible" in r:
            feasible = r["feasible"]
        if r.get("min_violations") is not None:
            min_violations = r["min_violations"]
    return RunResult(
        solver=name, feasible=feasible, per_agent=per_agent,
        metrics=sim.metrics, transcript=sim.transcript,
        iterations=iterations, min_violations=min_violations,
    )
