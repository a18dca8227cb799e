"""Layer micro-probes: fixed-shape calls to public functions, in microseconds.

Operands come from the run seed; the shapes never change, so the figures
compare across workloads and commits.
"""

from __future__ import annotations

import random
import statistics
import time

from discsp import crypto, run_solver, tables
from discsp.runtime import canonical, wire_size

from workloads import WORKLOADS, build_cases

BATCH_MIN_S = 0.01
SAMPLES = 7


def per_call_us(fn) -> float:
    """Median over batches of the microseconds one call of `fn` takes."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BATCH_MIN_S:
            break
        n *= 4
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return 1e6 * statistics.median(samples)


def join_operands(rng: random.Random):
    """3^5 and 3^5 tables sharing three axes (c, d, e); the join has 3^7 cells."""
    def table(labels):
        scope = [tables.Axis(label, (0, 1, 2)) for label in labels]
        return tables.FeasTable(scope, [rng.randrange(4) for _ in range(3 ** 5)])
    return table("abcde"), table("cdefg")


def vect_envelope() -> dict:
    """The first routed VECT envelope of the first ring64 case, as
    ``Sim._deliver`` encodes it."""
    case = build_cases(WORKLOADS["ring64"])[0]
    result = run_solver(case.solver, case.problem, case.seed,
                        WORKLOADS["ring64"].run_config())
    for rec in result.transcript:
        if rec.type in ("PREV", "LAST") and rec.payload["inner_type"] == "VECT":
            return {"type": rec.type, "payload": rec.payload}
    raise RuntimeError("ring64 transcript holds no VECT envelope")


def probe(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    t1, t2 = join_operands(rng)
    joined = tables.join(t1, t2)
    out["micro.tables.join_3p5.us"] = per_call_us(lambda: tables.join(t1, t2))
    out["micro.tables.project_min.us"] = per_call_us(
        lambda: tables.project_min(joined, "a"))
    for bits, params in ((512, crypto.GROUP_512), (64, crypto.TOY64_GROUP)):
        share = crypto.generate_share(params, rng)
        key = crypto.combine_public(params, [share.public])
        c = crypto.encrypt(params, key, True, rng)
        e = rng.randrange(1, params.p - 1)
        out[f"micro.crypto.pow_{bits}.us"] = per_call_us(
            lambda: pow(params.g, e, params.p))
        out[f"micro.crypto.encrypt_{bits}.us"] = per_call_us(
            lambda: crypto.encrypt(params, key, True, rng))
        out[f"micro.crypto.rerandomize_{bits}.us"] = per_call_us(
            lambda: crypto.rerandomize(params, key, c, e))
        out[f"micro.crypto.partial_decrypt_{bits}.us"] = per_call_us(
            lambda: crypto.partial_decrypt(params, c, share))
    envelope = vect_envelope()
    out["micro.runtime.encode_vect.us"] = per_call_us(
        lambda: wire_size(canonical(envelope)))
    return out
