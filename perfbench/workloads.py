"""Solve workloads: fixed lists of (instance, solver) cases.

Every instance is the one ``discsp bench --seed 0`` would build:
``s = instance_seed(INSTANCE_BASE, family, size, i)``, the problem is
``FAMILIES[family](size, s)`` and the solver runs with seed ``s``.

The cases are fixed rather than drawn from the run's ``--seed`` because
solve time grows exponentially with separator width, and the width of a
random coloring instance (and of the pseudo-tree the solver seed picks)
varies widely: on coloring n=10, ``pdpop_plus`` took 0.03 s to more than
12 s across the first ten instances, and one n=8 instance took 4 s to
23 s under ``p2_plus`` depending on the solver seed alone.  A run of a
few rounds could not average that out, so the instances are pinned.  The
run seed orders the cases in every round after the first and draws the
operands of the micro-probes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from discsp.experiments import instance_seed
from discsp.generators import FAMILIES
from discsp.model import Problem
from discsp.runtime import RunConfig

INSTANCE_BASE = 0
# Generous: no case takes more than a few seconds, but a hung solve must end.
SOLVE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    solvers: tuple[str, ...]
    family: str
    size: int
    instances: tuple[int, ...]  # indices i of instance_seed(INSTANCE_BASE, ...)
    key_bits: int
    warm_size: int              # size of the set-up's warm-up instance
    reference: str = "interpreter"  # the host-speed gauge, see reference.py

    def run_config(self) -> RunConfig:
        # Every other field keeps its default, as in the CLI.
        return RunConfig(key_bits=self.key_bits, timeout_secs=SOLVE_TIMEOUT_S)


@dataclass(frozen=True)
class Case:
    instance: int
    solver: str
    seed: int
    problem: Problem


WORKLOADS = {w.name: w for w in (
    # Default 512-bit group: modexps do nearly all the work, tables and
    # encoding little.  n=3 rather than 4 keeps a round near 4 s, so a run
    # repeats each case several times.
    Workload("enc512", ("p32_plus", "p2_plus"), "coloring", 3,
             instances=(0,), key_bits=512, warm_size=2, reference="modexp"),
    # The same protocols with cheap modexps: routed PREV/LAST hops carry
    # cyphertext vectors and p2_plus tables hold cyphertexts, so crypto,
    # encoding and tables all take a share.  Instance 1 is feasible, so all
    # n rerootings run.  Its solve times slowed less than the interpreter
    # reference and more than the modexp one (ten runs with each spread
    # 0.09 and 0.10), so it uses the mix of both.
    Workload("ring64", ("p32_plus", "p2_plus"), "coloring", 8,
             instances=(1,), key_bits=64, warm_size=2, reference="mixed"),
    # Dense integer-table algebra, no crypto: separators 8, 8 and 9 wide
    # (0.4 s, 0.4 s and 0.8 s solves), so a run repeats each case often.
    # Instances 1 and 3 (widths 9 and 10) take 1.6 s and 3.6 s; 7, 12, 18
    # and 23 run past 4 s.
    Workload("wide_tables", ("pdpop_plus",), "coloring", 10,
             instances=(0, 8, 15), key_bits=64, warm_size=2),
    # Control solver on tree-shaped party games: about 27.5k tiny direct
    # messages per solve, mostly election flooding.
    Workload("flood", ("dpop",), "party", 30,
             instances=(0, 1), key_bits=64, warm_size=4),
)}


def make_case(w: Workload, size: int, index: int, solver: str) -> Case:
    seed = instance_seed(INSTANCE_BASE, w.family, size, index)
    return Case(index, solver, seed, FAMILIES[w.family](size, seed))


def build_cases(w: Workload) -> list[Case]:
    """One round of the workload: every instance under every solver."""
    return [make_case(w, w.size, i, solver)
            for i in w.instances for solver in w.solvers]


def warm_case(w: Workload) -> Case:
    """A small instance of the same family under the first solver, solved in
    set-up so that lazily filled process-wide caches (such as the group's
    decoding table) are warm before timing."""
    return make_case(w, w.warm_size, 0, w.solvers[0])


def round_order(items: list, rng: random.Random) -> list:
    """The order of one round's solves, drawn from the run seed."""
    order = list(items)
    rng.shuffle(order)
    return order
