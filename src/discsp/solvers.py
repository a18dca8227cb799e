"""Solver registry and the top-level simulation entry point."""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelError, Problem, pad_domains
from .runtime import Metrics, RunConfig, Sim, Transcript


@dataclass(frozen=True)
class SolverSpec:
    name: str
    process: type           # Process subclass, built once per variable
    pad_default: bool
    variant: tuple = ()     # extra positional arguments after (var, sim)


SOLVERS: dict[str, SolverSpec] = {}


def register_solver(name: str, process_cls: type, pad_default: bool,
                    variant: "str | None" = None):
    SOLVERS[name] = SolverSpec(name, process_cls, pad_default,
                               () if variant is None else (variant,))


@dataclass
class RunResult:
    solver: str
    feasible: "bool | None"
    per_agent: dict            # agent -> {variable: value}
    metrics: Metrics
    transcript: Transcript
    iterations: int = 1
    min_violations: "int | None" = None

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
    if spec.pad_default:
        size = max(len(problem.domains[x]) for x in problem.variables)
        run_problem = pad_domains(problem, size)
    sim = Sim(run_problem, seed, config)
    for x in run_problem.variables:
        sim.add_process(spec.process(x, sim, *spec.variant))
    results = sim.run(config.timeout_secs)

    per_agent: dict = {}
    feasible = None
    min_violations = None
    iterations = sim.metrics.stats.get("iterations", 1)
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
