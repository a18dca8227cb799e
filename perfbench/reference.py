"""Fixed reference computations that gauge the host's current speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow the
same solve by up to 1.8x for stretches of seconds to minutes, which no
length of run averages out.  A reference uses only the interpreter and
built-ins, never the program, so its time tracks the host and nothing else.
bench.py times the workload's reference right before and right after every
timed solve and rescales the solve time to a host on which the reference
takes REFERENCE_S:

    rescaled = solve_s * REFERENCE_S / mean(reference before, reference after)

A change to the program moves the rescaled time by the same share as the raw
time; a change in host speed moves the solve and the reference alike and
cancels out.  Raw times stay in the details line.

Contention does not slow all code alike: in one stretch the interpreter
reference slowed by a third while solves bound by 512-bit modular
exponentiation did not slow at all.  So there are an interpreter-bound
reference, a modexp-bound one and a half-and-half mix, and each workload
names the one its solve times were measured to track (workloads.py).
"""

from __future__ import annotations

import time

# About what each reference takes on an uncontended core of the 2-vCPU Intel
# Xeon VM (Python 3.11.7) the benchmark was built on.  It only sets the scale
# of rescaled times; it never changes between two commits compared.
REFERENCE_S = 0.030

_MODULUS_512 = 2 ** 512 - 569
_BASE_512 = 3 ** 300 % _MODULUS_512
_EXPONENT_512 = 2 ** 511 + 12_345


def interpreter_work(n: int = 100_000) -> int:
    """Dict updates, tuple building and a sort: the interpreter-bound work
    of the table algebra, the scheduler and message encoding."""
    counts: dict[int, int] = {}
    total = 0
    pairs = []
    for i in range(n):
        k = i % 997
        counts[k] = counts.get(k, 0) + i
        total += (i * 7) % 13
        if i % 4 == 0:
            pairs.append((k, total))
    pairs.sort()
    return total + len(pairs)


def modexp_work(n: int = 40) -> int:
    """512-bit modular exponentiations, the work of the crypto layer at the
    default group size."""
    x = _BASE_512
    for i in range(n):
        x = pow(x, _EXPONENT_512 + i, _MODULUS_512)
    return x


def mixed_work() -> int:
    """Half of each of the two references above."""
    return interpreter_work(50_000) + modexp_work(20)


REFERENCES = {"interpreter": interpreter_work, "modexp": modexp_work,
              "mixed": mixed_work}


def reference_s(kind: str) -> float:
    """Seconds one run of the named reference takes now."""
    work = REFERENCES[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
