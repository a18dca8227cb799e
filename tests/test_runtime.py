import pytest

from discsp.generators import figure1_instance
from discsp.model import Constraint, Problem
from discsp.runtime import (DeadlockError, Process, RunConfig, SimError, Sim,
                            canonical, wire_size)
from discsp.solvers import run_solver


def two_var_problem():
    dom = ("0", "1")
    owner = {"x1": "a1", "x2": "a2"}
    c = Constraint.from_predicate(("x1", "x2"), (dom, dom),
                                  lambda a, b: a != b, {"a1", "a2"}, "ne")
    return Problem(("a1", "a2"), ("x1", "x2"), owner,
                   {x: dom for x in owner}, (c,))


class PingProcess(Process):
    def main(self):
        if self.var == "x1":
            yield from self.send("x2", "PING", {"n": 1})
            m = yield from self.get(lambda m: m.type == "PONG")
            return {"got": m.payload["n"]}
        m = yield from self.get(lambda m: m.type == "PING")
        yield from self.charge(5)
        yield from self.send("x1", "PONG", {"n": m.payload["n"] + 1})
        return {}


class StuckProcess(Process):
    def main(self):
        yield from self.get(lambda m: m.type == "NEVER")


def test_ping_pong_and_transcript():
    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(PingProcess(x, sim))
    results = sim.run()
    assert results["x1"]["got"] == 2
    assert len(sim.transcript) == 2
    rec = sim.transcript.records[0]
    assert (rec.sender_var, rec.receiver_var, rec.type) == ("x1", "x2", "PING")
    assert rec.size == wire_size(canonical({"type": "PING", "payload": {"n": 1}}))
    assert sim.metrics.message_count == 2
    assert sim.metrics.simulated_time == 5  # x2's compute dominates


def test_deadlock_detection():
    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(StuckProcess(x, sim))
    with pytest.raises(DeadlockError):
        sim.run()


def test_channel_violation_rejected():
    dom = ("0",)
    owner = {"x1": "a1", "x2": "a2", "x3": "a3"}
    cons = (
        Constraint.from_predicate(("x1", "x2"), (dom, dom),
                                  lambda a, b: True, {"a1", "a2"}, "c1"),
        Constraint.from_predicate(("x2", "x3"), (dom, dom),
                                  lambda a, b: True, {"a2", "a3"}, "c2"),
    )
    p = Problem(("a1", "a2", "a3"), ("x1", "x2", "x3"), owner,
                {x: dom for x in owner}, cons)

    class Leaky(Process):
        def main(self):
            if self.var == "x1":
                yield from self.send("x3", "OOPS", {})  # non-neighbor
            return {}

    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Leaky(x, sim))
    with pytest.raises(SimError):
        sim.run()


def test_simulated_time_parallel_branches_max_rule():
    # Branch A charges 3, branch B charges 5, the joiner charges 2 after
    # hearing from both: the clock is the slower branch plus the join, 5 + 2,
    # not the serial sum 3 + 5 + 2.
    dom = ("0",)
    owner = {x: x for x in ("a", "b", "j", "out")}
    cons = tuple(
        Constraint.from_predicate((u, v), (dom, dom), lambda *_: True,
                                  {u, v}, f"{u}{v}")
        for u, v in (("a", "j"), ("b", "j"), ("j", "out")))
    p = Problem(tuple(owner), tuple(owner), owner,
                {x: dom for x in owner}, cons)
    cost = {"a": 3, "b": 5}

    class Branching(Process):
        def main(self):
            if self.var in cost:
                yield from self.charge(cost[self.var])
                yield from self.send("j", "DONE", {})
            elif self.var == "j":
                for u in cost:
                    yield from self.get(
                        lambda m, u=u: m.type == "DONE" and m.sender == u)
                yield from self.charge(2)
                yield from self.send("out", "DONE", {})
            else:
                yield from self.get(lambda m: m.type == "DONE")
            return {}

    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Branching(x, sim))
    sim.run()
    assert sim.metrics.simulated_time == 7


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical({"x": object()})


def test_wire_size_ints_are_length_prefixed():
    assert wire_size(0) == 6
    assert wire_size(1 << 127) == 5 + 16  # 128-bit integer payload
    assert wire_size("ab") == 6
    assert wire_size([1, 2]) == 4 + 2 * 6


def test_determinism_same_seed_identical_transcript():
    p = figure1_instance()
    a = run_solver("dpop", p, seed=9)
    b = run_solver("dpop", p, seed=9)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
    assert a.transcript.to_jsonl() != run_solver("dpop", p, seed=10).transcript.to_jsonl()


def test_dpop_message_count_at_least_2n_minus_2(fig1):
    r = run_solver("dpop", fig1, seed=1)
    assert r.metrics.message_count >= 2 * (len(fig1.variables) - 1)
    assert r.metrics.logical_counts["FEAS"] == 4
    assert r.metrics.logical_counts["DECISION"] == 4


def test_single_variable_zero_messages():
    dom = ("R", "B")
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom},
                (Constraint.from_predicate(("x1",), (dom,),
                                           lambda v: v == "B", {"a1"}, "u"),))
    r = run_solver("dpop", p, seed=0)
    assert r.metrics.message_count == 0
    assert r.joint_assignment() == {"x1": "B"}


def test_unconstrained_single_variable_zero_messages():
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": ("R", "B")}, ())
    r = run_solver("dpop", p, seed=0)
    assert r.metrics.message_count == 0
    assert r.feasible and r.joint_assignment() == {"x1": "R"}


def test_transcript_jsonl_roundtrip_structure(fig1):
    r = run_solver("dpop", fig1, seed=2)
    lines = r.transcript.to_jsonl().strip().splitlines()
    assert len(lines) == len(r.transcript)
    import json
    first = json.loads(lines[0])
    assert {"tick", "sender_var", "receiver_var", "type", "size",
            "payload"} <= set(first)
