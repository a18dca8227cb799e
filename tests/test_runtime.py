import dataclasses
import enum
import json
from collections import Counter, OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (PostingSnapshots, infeasible_triangle, simulate,
                      solver_process)
from discsp.experiments import instance_seed
from discsp.generators import (FAMILIES, figure1_instance,
                               gen_graph_coloring, gen_party_game)
from discsp.model import Constraint, Problem, pad_domains
from discsp.runtime import (DeadlockError, Msg, Process, RunConfig, SimError,
                            Sim, SimTimeout, canonical, wire_size)
from discsp.solvers import SOLVERS, run_solver
from discsp.tables import Axis, FeasTable


def two_var_problem():
    dom = ("0", "1")
    owner = {"x1": "a1", "x2": "a2"}
    c = Constraint.from_predicate(("x1", "x2"), (dom, dom),
                                  lambda a, b: a != b, name="ne")
    return Problem(("a1", "a2"), ("x1", "x2"), owner,
                   {x: dom for x in owner}, (c,))


class PingProcess(Process):
    def main(self):
        if self.var == "x1":
            self.send("x2", "PING", {"n": 1})
            m = yield from self.get("PONG")
            return {"got": m.payload["n"]}
        m = yield from self.get("PING")
        self.charge(5)
        self.send("x1", "PONG", {"n": m.payload["n"] + 1})
        return {}


class StuckProcess(Process):
    def main(self):
        yield from self.get("NEVER", kind="late")


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
    with pytest.raises(DeadlockError) as err:
        sim.run()
    # The report names each blocked variable's wait and its stash.
    wait = "{'waits': (('NEVER',), None, {'kind': 'late'}), 'stashed': []}"
    assert str(err.value) == ("no deliverable messages; blocked processes: "
                              f"{{'x1': {wait}, 'x2': {wait}}}")


def test_get_matches_types_sender_and_fields_first_stashed_first():
    got = []

    class Waiter(Process):
        def main(self):
            if self.var == "x1":
                for msg_type, k in (("A", 1), ("B", 2), ("A", 2)):
                    self.send("x2", msg_type, {"k": k, "pad": 0})
                self.send("x2", "END", {})
                return {}
            self.send("x2", "A", {"k": 1})  # delivered last
            yield from self.get("END")  # stashes x1's A1, B2 and A2
            waits = ((("A",), {"sender": "x2"}), (("A", "B"), {"k": 2}),
                     (("A",), {}), (("B", "A"), {"k": 2, "pad": 0}))
            for types, terms in waits:
                m = yield from self.get(*types, **terms)
                got.append((m.type, m.sender, m.payload["k"]))
            return {"stash": list(self.stash)}

    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Waiter(x, sim))
    results = sim.run()
    assert got == [("A", "x2", 1), ("B", "x1", 2), ("A", "x1", 1),
                   ("A", "x1", 2)]
    assert results["x2"]["stash"] == []


def test_get_matches_what_an_intercept_hands_back():
    class Unwrapping(Process):
        INTERCEPTS = frozenset({"WRAP", "NOISE"})

        def intercept(self, msg):
            if msg.type == "NOISE":
                return None  # consumed: never stashed, never matched
            self.charge(1)
            return Msg(msg.payload["inner_type"], msg.payload["inner"])

        def main(self):
            if self.var == "x1":
                self.send("x2", "NOISE", {"k": 5})
                self.send("x2", "WRAP", {"inner_type": "A", "inner": {"k": 4}})
                self.send("x2", "WRAP", {"inner_type": "A", "inner": {"k": 5}})
                return {}
            m = yield from self.get("A", "NOISE", k=5)
            return {"got": (m.type, m.sender, m.payload),
                    "stash": [s.payload for s in self.stash]}

    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Unwrapping(x, sim))
    results = sim.run()
    assert results["x2"] == {"got": ("A", None, {"k": 5}),
                             "stash": [{"k": 4}]}
    assert sim.clocks["x2"] == 2  # both WRAPs went through the intercept


class Collector(Process):
    """x1 sends SCRIPT to x2.  x2 waits for END, which stashes what x1 sent
    before it, then takes four "A" messages with k=1: in one counted wait
    when COUNTED, else in four one-message waits."""

    INTERCEPTS = frozenset({"WRAP", "NOISE", "ABORT"})
    SCRIPT: tuple = ()
    COUNTED = False

    def intercept(self, msg):
        self.charge(1)
        if msg.type == "ABORT":
            self.aborted = True
        if msg.type != "WRAP":
            return None
        return Msg(msg.payload["inner_type"], msg.payload["inner"])

    def main(self):
        if self.var == "x1":
            for msg_type, payload in self.SCRIPT:
                self.send("x2", msg_type, payload)
            return {}
        yield from self.get("END")
        if self.COUNTED:
            got = yield from self.get("A", k=1, count=4)
        else:
            got = []
            for _ in range(4):
                got.append((yield from self.get("A", k=1)))
        return {"got": [(m.type, m.sender, m.payload) for m in got]}


def collect(script, counted):
    cls = type("Scripted", (Collector,),
               {"SCRIPT": script, "COUNTED": counted})
    sim = simulate(two_var_problem(), cls)
    x2 = sim.processes["x2"]
    stash = [(m.type, m.sender, m.payload) for m in x2.stash]
    return x2.result, stash, sim.clocks, sim.transcript.to_jsonl()


def wrap(inner_type, **inner):
    return ("WRAP", {"inner_type": inner_type, "inner": inner})


def test_a_counted_wait_returns_what_one_message_waits_return():
    script = (("A", {"k": 1, "n": 0}), ("B", {"k": 1}), ("A", {"k": 2}),
              ("A", {"k": 1, "n": 1}), ("END", {}), ("NOISE", {"k": 1}),
              wrap("A", k=1, n=2), ("A", {"k": 3}), wrap("B", k=1),
              ("A", {"k": 1, "n": 3}), ("A", {"k": 1, "n": 4}))
    counted = collect(script, counted=True)
    assert counted == collect(script, counted=False)
    result, stash, clocks, _ = counted
    # Two stashed matches first, then arrivals: the NOISE is consumed, the
    # first WRAP unwrapped into a match, and what does not match stays
    # stashed in order behind what was there.
    assert result["got"] == [("A", "x1", {"k": 1, "n": 0}),
                             ("A", "x1", {"k": 1, "n": 1}),
                             ("A", None, {"k": 1, "n": 2}),
                             ("A", "x1", {"k": 1, "n": 3})]
    assert stash == [("B", "x1", {"k": 1}), ("A", "x1", {"k": 2}),
                     ("A", "x1", {"k": 3}), ("B", None, {"k": 1})]
    assert clocks["x2"] == 3  # NOISE and both WRAPs went through intercept


def test_an_abort_stops_a_counted_wait_as_it_stops_one_message_waits():
    script = (("A", {"k": 1, "n": 0}), ("END", {}), ("B", {"k": 1}),
              ("A", {"k": 1, "n": 1}), ("ABORT", {}), ("A", {"k": 1, "n": 2}))
    counted = collect(script, counted=True)
    assert counted == collect(script, counted=False)
    result, stash, _, _ = counted
    assert result == {"aborted": True}
    assert stash == [("B", "x1", {"k": 1})]


def test_deadlock_in_a_counted_wait_names_its_count():
    class StuckCounted(Process):
        def main(self):
            if self.var == "x1":
                self.send("x2", "NEVER", {"kind": "late"})
                return {}
            yield from self.get("NEVER", kind="late", count=2)

    sim = Sim(two_var_problem(), seed=0, config=RunConfig())
    for x in ("x1", "x2"):
        sim.add_process(StuckCounted(x, sim))
    with pytest.raises(DeadlockError) as err:
        sim.run()
    wait = "{'waits': (('NEVER',), None, {'kind': 'late'}, 2), 'stashed': []}"
    assert str(err.value) == ("no deliverable messages; blocked processes: "
                              f"{{'x2': {wait}}}")


@pytest.mark.parametrize("timeout_secs", [0, -1])
def test_non_positive_timeout_is_rejected(timeout_secs):
    """0 used to run unbounded and -1 to time out at once."""
    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig(timeout_secs=timeout_secs))
    for x in p.variables:
        sim.add_process(PingProcess(x, sim))
    with pytest.raises(ValueError, match="timeout_secs must be positive"):
        sim.run()
    assert len(sim.transcript) == 0


def test_a_run_past_its_deadline_raises_and_reports_its_deliveries():
    # The counts a timed-out run reports are those of the records it made.
    config = RunConfig(key_bits=64, timeout_secs=0.01)
    sim = Sim(FAMILIES["coloring"](8, 0), seed=0, config=config)
    for x in sim.problem.variables:
        sim.add_process(solver_process("p2_plus")(x, sim))
    with pytest.raises(SimTimeout, match=r"^simulation exceeded 0\.01s$"):
        sim.run()
    records = sim.transcript.records
    assert records
    assert sim.metrics.message_count == len(records)
    assert sim.metrics.info_bytes == sum(r.size for r in records)
    assert sim.metrics.physical_counts == Counter(r.type for r in records)


def test_delivery_to_an_ended_process_raises():
    class EndsAtOnce(Process):
        def run(self):  # no service loop: the generator ends after its send
            if self.var == "x2":
                self.send("x1", "LATE", {})
            self.done = True
            yield from ()  # a generator that never waits

    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(EndsAtOnce(x, sim))
    with pytest.raises(SimError, match="LATE to x1, whose process has ended"):
        sim.run()


def test_channel_violation_rejected():
    dom = ("0",)
    owner = {"x1": "a1", "x2": "a2", "x3": "a3"}
    cons = (
        Constraint.from_predicate(("x1", "x2"), (dom, dom),
                                  lambda a, b: True, name="c1"),
        Constraint.from_predicate(("x2", "x3"), (dom, dom),
                                  lambda a, b: True, name="c2"),
    )
    p = Problem(("a1", "a2", "a3"), ("x1", "x2", "x3"), owner,
                {x: dom for x in owner}, cons)

    class Leaky(Process):
        def main(self):
            if self.var == "x1":
                self.send("x3", "OOPS", {})  # non-neighbor
            yield from ()  # a generator that never waits
            return {}

    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Leaky(x, sim))
    with pytest.raises(SimError, match=r"^channel violation: x1 -> x3 are not "
                                       r"constraint-graph neighbors$"):
        sim.run()


def test_self_and_same_agent_sends_are_delivered():
    # x1 and x2 belong to one agent and share no constraint; each reaches
    # the other and itself without being graph neighbours.
    dom = ("0",)
    owner = {"x1": "a1", "x2": "a1", "x3": "a2"}
    cons = tuple(
        Constraint.from_predicate((x, "x3"), (dom, dom), lambda a, b: True,
                                  name=f"c{x}")
        for x in ("x1", "x2"))
    p = Problem(("a1", "a2"), ("x1", "x2", "x3"), owner,
                {x: dom for x in owner}, cons)

    class Sibling(Process):
        def main(self):
            if self.var == "x3":
                return {}
            other = "x2" if self.var == "x1" else "x1"
            self.send(self.var, "SELF", {})
            self.send(other, "SIB", {})
            yield from self.get("SELF", sender=self.var)
            yield from self.get("SIB", sender=other)
            return {}

    sim = simulate(p, Sibling)
    sends = [(r.sender_var, r.receiver_var, r.type) for r in sim.transcript]
    assert sends == [("x1", "x1", "SELF"), ("x1", "x2", "SIB"),
                     ("x2", "x2", "SELF"), ("x2", "x1", "SIB")]


def test_send_to_an_unknown_name_raises_sim_error():
    class Stray(Process):
        def main(self):
            if self.var == "x1":
                self.send("nope", "PING", {})
            yield from ()  # a generator that never waits
            return {}

    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Stray(x, sim))
    with pytest.raises(SimError, match="x1 sent to 'nope', which is not a problem"):
        sim.run()


def test_a_process_that_yields_a_value_raises_sim_error():
    # A process suspends only in a bare wait; an old-style send effect is
    # neither run nor taken for a wait.
    class OldStyle(Process):
        def main(self):
            if self.var == "x1":
                yield ("send", "x2", Msg("PING", {}, sender="x1"))
            return {}

    p = two_var_problem()
    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(OldStyle(x, sim))
    with pytest.raises(SimError, match=r"^x1 yielded \('send', 'x2', Msg\("
                                       r"type='PING'.*suspends only in a wait"):
        sim.run()
    assert len(sim.transcript) == 0


def test_simulated_time_parallel_branches_max_rule():
    # Branch A charges 3, branch B charges 5, the joiner charges 2 after
    # hearing from both: the clock is the slower branch plus the join, 5 + 2,
    # not the serial sum 3 + 5 + 2.
    dom = ("0",)
    owner = {x: x for x in ("a", "b", "j", "out")}
    cons = tuple(
        Constraint.from_predicate((u, v), (dom, dom), lambda *_: True,
                                  name=f"{u}{v}")
        for u, v in (("a", "j"), ("b", "j"), ("j", "out")))
    p = Problem(tuple(owner), tuple(owner), owner,
                {x: dom for x in owner}, cons)
    cost = {"a": 3, "b": 5}

    class Branching(Process):
        def main(self):
            if self.var in cost:
                self.charge(cost[self.var])
                self.send("j", "DONE", {})
            elif self.var == "j":
                for u in cost:
                    yield from self.get("DONE", sender=u)
                self.charge(2)
                self.send("out", "DONE", {})
            else:
                yield from self.get("DONE")
            return {}

    sim = Sim(p, seed=0, config=RunConfig())
    for x in p.variables:
        sim.add_process(Branching(x, sim))
    sim.run()
    assert sim.metrics.simulated_time == 7


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical({"x": object()})
    with pytest.raises(TypeError):
        wire_size({"x": object()})
    with pytest.raises(TypeError):
        wire_size([1, 2.5])


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 300


class Label(str):
    pass


@dataclasses.dataclass(frozen=True)
class Pair:
    alpha: int
    beta: int


def reference_wire_size(struct) -> int:
    """Length of the canonical byte encoding, written out rule by rule as
    the reference for runtime.wire_size: strings are utf-8 with a 4-byte
    length prefix, integers big-endian with a 4-byte length prefix,
    containers prefix their item count."""
    t = type(struct)
    if t is str:
        return 4 + len(struct.encode("utf-8"))
    if t is int:
        return 5 + ((struct.bit_length() + 7) // 8 or 1)
    if t is bool or struct is None:
        return 1
    if t is list:
        return 4 + sum(reference_wire_size(v) for v in struct)
    if t is dict:
        return 4 + sum(reference_wire_size(k) + reference_wire_size(v)
                       for k, v in struct.items())
    raise TypeError(f"not canonical: {struct!r}")


ints = st.integers(-(1 << 300), 1 << 300)
canonical_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(canonical_payloads)
@example(["ascii", "dé", "日本", -1, -(1 << 129), 1 << 129, 0, None, True])
@example({"1": [1, 2, 3], "True": {"alpha": 5, "beta": 7}, "": False})
def test_encode_is_canonical_and_its_wire_size(x):
    # A canonical payload is accepted as it is, not copied, and sized by
    # the reference rules.
    assert canonical(x) is x
    assert wire_size(x) == reference_wire_size(x)


NON_CANONICAL = {
    "tuple": (1, 2), "empty-tuple": (), "dataclass": Pair(3, 4),
    "FeasTable": FeasTable([Axis("x", (0, 1))], [0, 1]),
    "IntEnum": Colour.BLUE, "str-subclass": Label("é"), "int-key": {1: "a"},
    "bool-key": {True: None}, "str-subclass-key": {Label("ü"): 0},
    "float": 2.5, "OrderedDict": OrderedDict(a=1),
}


@st.composite
def holding(draw, bad):
    """A canonical payload with `bad` nested at a random depth and place."""
    x = bad
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            items = draw(st.lists(canonical_payloads, max_size=3))
            items.insert(draw(st.integers(0, len(items))), x)
            x = items
        else:
            d = draw(st.dictionaries(st.text(max_size=3), canonical_payloads,
                                     max_size=3))
            d[draw(st.text(max_size=3))] = x
            x = d
    return x


@pytest.mark.parametrize("bad", NON_CANONICAL.values(),
                         ids=NON_CANONICAL.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_encode_rejects_a_payload_holding_a_non_canonical_value(bad, data):
    x = data.draw(holding(bad))
    with pytest.raises(TypeError):
        wire_size(x)
    with pytest.raises(TypeError):
        canonical(x)


def test_wire_size_ints_are_length_prefixed():
    assert wire_size(0) == 6
    assert wire_size(1 << 127) == 5 + 16  # 128-bit integer payload
    assert wire_size("ab") == 6
    assert wire_size([1, 2]) == 4 + 2 * 6


# The instances whose transcripts are pinned in test_crypto.py (encrypted
# solvers) and test_pdpop.py (table solvers).
PINNED_INSTANCE = {
    "p32_plus": (3, 5), "p32": (3, 5), "p2_plus": (3, 5), "p2": (3, 5),
    "pdpop_plus": (7, 1), "pdpop": (7, 1), "dpop": (7, 1),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_record_size_is_the_size_of_its_envelope(solver):
    # Every delivery, forwarded ring hops included, is sized as the
    # canonical encoding of its whole {"type", "payload"} envelope.
    n, instance_seed = PINNED_INSTANCE[solver]
    result = run_solver(solver, gen_graph_coloring(n, seed=instance_seed),
                        seed=7, config=RunConfig(key_bits=64))
    assert len(result.transcript) > 0
    for rec in result.transcript:
        envelope = {"type": rec.type, "payload": rec.payload}
        assert rec.size == reference_wire_size(envelope)
    assert result.metrics.info_bytes == sum(r.size for r in result.transcript)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_the_test_driver_makes_run_solvers_run(solver):
    # The tests that read process internals run them through conftest's
    # driver; on the pinned runs it makes run_solver's very transcript, so
    # those internals come from the run the pins fix.
    n, instance_seed = PINNED_INSTANCE[solver]
    problem = gen_graph_coloring(n, seed=instance_seed)
    config = RunConfig(key_bits=64)
    sim = simulate(problem, solver_process(solver), 7, config)
    result = run_solver(solver, problem, seed=7, config=config)
    assert sim.transcript.to_jsonl() == result.transcript.to_jsonl()


class EveryType(frozenset):
    """An INTERCEPTS set that admits every message type."""

    def __contains__(self, msg_type):
        return True


def pinned_runs():
    """Every pinned run as (solver, problem, seed, config): the coloring
    instances above and the ABORT path on the infeasible triangle
    (test_p32.py and test_p2.py)."""
    for solver in sorted(SOLVERS):
        n, instance_seed = PINNED_INSTANCE[solver]
        yield pytest.param(solver, gen_graph_coloring(n, seed=instance_seed),
                           7, RunConfig(key_bits=64), id=solver)
    abort_cfg = RunConfig(key_bits=64, b_bits=128, incr_min=2)
    for solver, seed in (("p32_plus", 2), ("p2_plus", 4)):
        yield pytest.param(solver, infeasible_triangle(), seed, abort_cfg,
                           id=f"{solver}-abort")


@pytest.mark.parametrize("solver,problem,seed,config", pinned_runs())
def test_intercept_gate_leaves_transcripts_unchanged(solver, problem, seed,
                                                     config, monkeypatch):
    # Offering every arrival to intercept() must change nothing: the types
    # outside INTERCEPTS are exactly those every intercept passes over.
    gated = run_solver(solver, problem, seed=seed, config=config)
    spec = SOLVERS[solver]
    ungated = type(f"Ungated{spec.process.__name__}", (spec.process,),
                   {"INTERCEPTS": EveryType()})
    monkeypatch.setitem(SOLVERS, solver,
                        dataclasses.replace(spec, process=ungated))
    result = run_solver(solver, problem, seed=seed, config=config)
    assert result.transcript.to_jsonl() == gated.transcript.to_jsonl()
    assert result.feasible == gated.feasible


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_no_process_changes_a_posted_payload(solver):
    # The transcript keeps the payload objects themselves, so each record
    # must still read as its message did when it was posted: on every
    # family, and on the ABORT path of the infeasible triangle.
    problems = [FAMILIES[family](size, instance_seed(0, family, size, 0))
                for family, size in (("coloring", 5), ("party", 3),
                                     ("meetings", 2), ("auction", 2))]
    problems.append(infeasible_triangle())
    config = RunConfig(key_bits=64, b_bits=16, incr_min=2)
    for problem in problems:
        if SOLVERS[solver].privacy >= 1:  # padded, as run_solver pads
            problem = pad_domains(problem)
        sim = simulate(problem, solver_process(solver), 0, config,
                       sim_class=PostingSnapshots)
        assert len(sim.transcript) > 0
        assert sim.changed_payloads() == []


def test_determinism_same_seed_identical_transcript():
    p = figure1_instance()
    a = run_solver("dpop", p, seed=9)
    b = run_solver("dpop", p, seed=9)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
    assert a.transcript.to_jsonl() != run_solver("dpop", p, seed=10).transcript.to_jsonl()


def test_dpop_message_count_at_least_2n_minus_2(fig1):
    r = run_solver("dpop", fig1, seed=1)
    assert r.metrics.message_count >= 2 * (len(fig1.variables) - 1)
    assert r.metrics.physical_counts["FEAS"] == 4
    assert r.metrics.physical_counts["DECISION"] == 4


def test_single_variable_zero_messages():
    dom = ("R", "B")
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": dom},
                (Constraint.from_predicate(("x1",), (dom,),
                                           lambda v: v == "B", name="u"),))
    r = run_solver("dpop", p, seed=0)
    assert r.metrics.message_count == 0
    assert r.joint_assignment() == {"x1": "B"}


def test_unconstrained_single_variable_zero_messages():
    p = Problem(("a1",), ("x1",), {"x1": "a1"}, {"x1": ("R", "B")}, ())
    r = run_solver("dpop", p, seed=0)
    assert r.metrics.message_count == 0
    assert r.feasible and r.joint_assignment() == {"x1": "R"}


def test_transcript_jsonl_roundtrip_structure():
    # The run of the multi-variable pin in test_pdpop.py: a line's tick is
    # its index and its agents are the owners of its variables.
    problem = gen_party_game(6, seed=1)
    r = run_solver("dpop", problem, seed=7, config=RunConfig(key_bits=64))
    lines = r.transcript.to_jsonl().splitlines()
    assert len(lines) == len(r.transcript) > 0
    for tick, (line, rec) in enumerate(zip(lines, r.transcript)):
        row = json.loads(line)
        assert set(row) == {"tick", "sender_var", "sender_agent",
                            "receiver_var", "receiver_agent", "type", "size",
                            "sent_clock", "payload"}
        assert row["tick"] == tick
        assert row["sender_agent"] == problem.owner[row["sender_var"]]
        assert row["receiver_agent"] == problem.owner[row["receiver_var"]]
        assert ((row["sender_var"], row["receiver_var"], row["type"],
                 row["size"], row["sent_clock"], row["payload"])
                == (rec.sender_var, rec.receiver_var, rec.type, rec.size,
                    rec.sent_clock, rec.payload))
