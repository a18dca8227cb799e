"""Deterministic multi-agent simulation runtime.

Each variable runs a protocol coroutine (a Python generator).  It sends and
charges compute by plain calls, ``Process.send`` and ``Process.charge``, and
suspends only to wait for a message: in ``Process.get``, or in the service
loop of ``Process.run``.  The scheduler delivers messages in global send
order, which preserves FIFO per channel and makes every run a pure function
of the seed.  Deliveries happen only between process steps, when every live
process is blocked in a wait, so each delivery resumes its receiver
directly; ``Sim.run`` makes every delivery in one loop.  A wait's terms
(types, sender, payload fields, and a count when it waits for several
messages) are data that a deadlock report names.  Payloads must be
canonical (dicts with str keys, lists, ints, strs, bools and None); anything
else raises TypeError at its first delivery.  ``Sim.post(dst, msg)`` queues
a message from ``msg.sender``.  Every delivered message is appended to the
transcript as one ``Record`` of its sender and receiver variables, type,
payload, wire size and the sender's clock at send time.

A payload is a value once posted: no process changes it afterwards, neither
its sender nor any receiver, and a process that wants a changed version
builds a new object.  So the transcript holds the delivered payload objects
themselves, not copies; the size is one walk over the payload that copies
nothing (a forwarded ring hop reuses the size of the hop before), and the
envelope around a payload is ``_ENVELOPE_SIZE + len(msg.type)`` bytes, as
message types are ASCII literals of the package.

A record's tick is its index in the transcript, its agents are the owners
of its variables.  Simulated time is tracked per variable with the usual
dependency-max rule (a receiver's clock is at least the sender's clock at
send time).

Each ``Metrics`` figure has one source: the message count, bytes and
per-type counts are read off the records (also after a timeout), simulated
time is the latest clock, ``stats`` holds the protocols' ``Sim.stat`` tallies
of crypto operations and ``notes`` their per-event ``Sim.note`` values, such
as the roots of P3/2 and each FEAS table's width ("sep", whose largest is
``sep_max``).  The runtime never parses a payload for them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from .model import Problem


class SimError(RuntimeError):
    pass


class DeadlockError(SimError):
    pass


class SimTimeout(SimError):
    pass


@dataclass(slots=True)
class Msg:
    type: str
    payload: dict
    sender: "str | None" = None  # variable name; None for unwrapped routed payloads
    # wire_size(payload), set on first delivery; a forwarded hop that
    # carries the same payload carries this too, so it is sized once.  The
    # size stays true because no process changes a payload once posted.
    size: "int | None" = field(default=None, repr=False, compare=False)


# ------------------------------------------------------- canonical encoding

def _size(obj) -> int:
    """Length of the canonical byte encoding of a payload, in one walk that
    copies nothing.

    Strings are utf-8 with a 4-byte length prefix, integers big-endian with
    a 4-byte length prefix, containers prefix their item count.  A payload
    must be canonical: dicts with ``str`` keys, lists, ints, strs, bools and
    None, matched on their exact type.  Anything else (tuples, floats,
    subclasses, objects such as tables) raises TypeError.
    """
    t = type(obj)
    if t is int:
        return 5 + ((obj.bit_length() + 7) // 8 or 1)
    if t is str:
        return 4 + (len(obj) if obj.isascii() else len(obj.encode("utf-8")))
    if t is dict:
        size = 4
        for k, v in obj.items():
            if type(k) is not str:
                raise TypeError(f"payload key {k!r} is not a str")
            size += 4 + (len(k) if k.isascii() else len(k.encode("utf-8")))
            if type(v) is int:  # e.g. the alpha and beta of a cyphertext
                size += 5 + ((v.bit_length() + 7) // 8 or 1)
            else:
                size += _size(v)
        return size
    if t is list:
        size = 4
        for v in obj:
            if type(v) is int:  # the common leaf (table entries, group elements)
                size += 5 + ((v.bit_length() + 7) // 8 or 1)
            else:
                size += _size(v)
        return size
    if t is bool or obj is None:
        return 1
    raise TypeError(f"payload value {obj!r} is not canonical")


def canonical(obj):
    """`obj` itself, once the size walk has accepted it as canonical (it
    raises TypeError otherwise).  Nothing is copied: a posted payload is
    never changed, so the transcript keeps it as it is."""
    _size(obj)
    return obj


# Deliveries size payloads by this public name, so a tracer that wraps it
# spans each payload's size walk; the walk recurses by its private name.
wire_size = _size


# A delivery is sized as {"type": msg.type, "payload": msg.payload}: the
# item count, the two key strings and the type's length prefix, plus one byte
# per character of the (ASCII) type and the payload size.
_ENVELOPE_SIZE = 4 + wire_size("type") + wire_size("payload") + wire_size("")


# --------------------------------------------------------------- transcript

@dataclass(slots=True)
class Record:
    """One delivery; its tick is its index in the transcript."""
    sender_var: str
    receiver_var: str
    type: str
    payload: object  # the delivered payload object itself, never changed
    size: int
    sent_clock: int


@dataclass
class Transcript:
    records: list[Record] = field(default_factory=list)
    owner: dict = field(default_factory=dict)  # variable -> agent

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def to_jsonl(self) -> str:
        """One JSON object per record, in delivery order, each line ended by
        a newline ("" for no records).  A line holds nine keys in sorted
        order, as ``json.dumps(..., sort_keys=True)`` writes them: the record's
        six fields, its ``tick`` (its index) and the ``sender_agent`` and
        ``receiver_agent`` that own its variables."""
        owner, encode = self.owner, _encode_line
        chunks, lines = [], []
        for tick, r in enumerate(self.records):
            lines.append(encode({
                "tick": tick, "sender_var": r.sender_var,
                "sender_agent": owner[r.sender_var],
                "receiver_var": r.receiver_var,
                "receiver_agent": owner[r.receiver_var], "type": r.type,
                "size": r.size, "sent_clock": r.sent_clock,
                "payload": r.payload,
            }))
            if len(lines) == _JSONL_CHUNK:
                chunks.append("\n".join(lines))
                lines.clear()
        # The closing "" ends the last line with its newline, so the whole
        # text is built by this one join and never copied again.
        chunks.extend(lines)
        if chunks:
            chunks.append("")
        return "\n".join(chunks)


# to_jsonl joins its lines in chunks of this many records, so no list of
# every line and no second copy of the text live beside the whole text.  On
# the benchmark's ring64 workload (p32_plus and p2_plus, coloring n=8, 64-bit
# group; Python 3.11, glibc malloc) peak RSS read 54.4-54.7 MB with one join
# of every line and then `+ "\n"`, and 47.2-47.6 MB with chunks of 1,024.
# The figure follows the allocator's layout more than the live data: chunks
# of 256, 512, 2,048 and 4,096 read 53.9, 47.5, 47.6 and 54.0 MB.
_JSONL_CHUNK = 1024
# One encoder for every line: the bytes of json.dumps(obj, sort_keys=True).
_encode_line = json.JSONEncoder(sort_keys=True).encode


# ----------------------------------------------------------------- metrics

@dataclass
class Metrics:
    simulated_time: int = 0
    message_count: int = 0
    info_bytes: int = 0
    physical_counts: dict = field(default_factory=dict)
    stats: Counter = field(default_factory=Counter)
    notes: dict = field(default_factory=dict)

    @property
    def sep_max(self) -> int:
        """The widest FEAS table's scope, from the "sep" notes (0 if none)."""
        return max(self.notes.get("sep", ()), default=0)


# ------------------------------------------------------------------ config

@dataclass
class RunConfig:
    key_bits: int = 512
    b_bits: int = 128
    incr_min: int = 10
    timeout_secs: float | None = None


def derive_rng(seed: int, *context) -> random.Random:
    """Deterministic per-context PRNG independent of hash randomization."""
    key = ":".join([str(seed)] + [str(c) for c in context])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


# ---------------------------------------------------------------- processes

class Stop(Exception):
    """Raised into a process to make it bail out to its service loop."""


class Process:
    """Base class for per-variable protocol state machines.

    Subclasses implement main() as a generator.  send() and charge() are
    plain calls; a protocol suspends only in a wait, one
    ``yield from self.get(*types, sender=, count=, **fields)`` call, whose
    terms stay on the process as ``waiting`` for a deadlock report.  An
    arrival whose type is in INTERCEPTS goes through intercept() (routing,
    ring services), which consumes it or hands back what is left of it; what
    the wait does not match is stashed for a later wait.
    """

    # Message types intercept() may consume; no other type is offered to it.
    INTERCEPTS: frozenset = frozenset()

    def __init__(self, var: str, sim: "Sim"):
        self.var = var
        self.sim = sim
        self.stash: list[Msg] = []
        self.waiting: "tuple | None" = None  # (types, sender, fields) of get
        self.done = False
        self.result: dict = {}
        self.aborted = False

    # -- sending, computing and waiting -------------------------------------

    def send(self, dst: str, msg_type: str, payload: dict):
        self.sim.post(dst, Msg(msg_type, payload, sender=self.var))

    def charge(self, units: int):
        """Advance this variable's simulated clock by `units`."""
        if units:
            clocks = self.sim.clocks
            clocks[self.var] = clocks.get(self.var, 0) + units

    def get(self, *types, sender=None, count=None, **fields):
        """Wait for the first message whose type is in `types`, sent by
        `sender` when one is given, whose payload holds every item of
        `fields`; a stashed match wins over new arrivals.

        With ``count=n`` the wait takes the next n matches and returns them
        as a list, in the order n one-message waits with the same terms
        would return them: stashed matches first, then arrivals.

        An arrival whose type is in INTERCEPTS goes through intercept()
        first, and the wait matches what it hands back.  An abort flag set by
        an intercept bails out of the wait entirely.
        """
        want = 1 if count is None else count
        got = []
        stash = self.stash
        i = 0
        while len(got) < want and i < len(stash):
            m = stash[i]
            if (m.type in types and (sender is None or m.sender == sender)
                    and fields.items() <= m.payload.items()):
                got.append(stash.pop(i))
            else:
                i += 1
        if len(got) < want:
            self.waiting = ((types, sender, fields) if count is None
                            else (types, sender, fields, count))
            intercepts = self.INTERCEPTS
            while True:
                m = yield
                if m.type in intercepts:
                    m = self.intercept(m)
                    if self.aborted:
                        raise Stop()
                    if m is None:
                        continue
                if (m.type in types and (sender is None or m.sender == sender)
                        and fields.items() <= m.payload.items()):
                    got.append(m)
                    if len(got) == want:
                        break
                else:
                    stash.append(m)
        return got[0] if count is None else got

    def intercept(self, msg: Msg) -> "Msg | None":
        """Handle service traffic: return None when `msg` is consumed, else
        the message left for the waits to match (`msg` itself, or the payload
        a routed envelope delivers).

        Subclasses extend this and list the types they handle in INTERCEPTS.
        """
        return msg

    # -- lifecycle ---------------------------------------------------------

    def main(self):
        raise NotImplementedError

    def run(self):
        try:
            result = yield from self.main()
            self.result = result or {}
        except Stop:
            self.result = {"aborted": True}
        self.done = True
        # Keep servicing ring traffic until global quiescence; what no
        # intercept consumes is dropped.
        while True:
            m = yield
            if m.type in self.INTERCEPTS:
                self.intercept(m)


# ------------------------------------------------------------------ engine

class Sim:
    """Single-threaded discrete-event scheduler over FIFO channels."""

    def __init__(self, problem: Problem, seed: int, config: RunConfig):
        self.problem = problem
        self.seed = seed
        self.config = config
        self.transcript = Transcript(owner=problem.owner)
        self.metrics = Metrics()
        self.clocks: dict[str, int] = {}
        self.processes: dict[str, Process] = {}
        self._gens: dict[str, object] = {}  # live generators only
        self._queue: deque = deque()
        self.neighbor_vars = {
            x: set(problem.neighbor_vars(x)) for x in problem.variables
        }

    def add_process(self, proc: Process):
        self.processes[proc.var] = proc

    def rng(self, *context) -> random.Random:
        return derive_rng(self.seed, *context)

    # -- running -----------------------------------------------------------

    def run(self):
        """Run every process to completion; raise SimTimeout once the wall
        time passes `config.timeout_secs` (None runs unbounded)."""
        timeout_secs = self.config.timeout_secs
        deadline = None
        if timeout_secs is not None:
            if not timeout_secs > 0:
                raise ValueError(
                    f"timeout_secs must be positive, got {timeout_secs}")
            deadline = time.monotonic() + timeout_secs
        gens, step = self._gens, self._step
        for var in sorted(self.processes):
            gen = gens[var] = self.processes[var].run()
            step(var, gen, None)
        queue = self._queue
        popleft = queue.popleft
        records = self.transcript.records
        clocks = self.clocks
        metrics = self.metrics
        try:
            while queue:
                if deadline is not None and time.monotonic() > deadline:
                    raise SimTimeout(f"simulation exceeded {timeout_secs}s")
                dst, msg, sent_clock = popleft()
                gen = gens.get(dst)
                if gen is None:  # dst is a problem variable: post checks it
                    raise SimError(f"message {msg.type} to {dst}, whose "
                                   f"process has ended")
                payload_size = msg.size
                if payload_size is None:
                    payload_size = msg.size = wire_size(msg.payload)
                records.append(Record(
                    msg.sender, dst, msg.type, msg.payload,
                    _ENVELOPE_SIZE + len(msg.type) + payload_size, sent_clock))
                if clocks.get(dst, -1) < sent_clock:  # sent clocks are >= 0
                    clocks[dst] = sent_clock
                step(dst, gen, msg)
        finally:
            metrics.message_count = len(records)
            metrics.info_bytes = sum(r.size for r in records)
            metrics.physical_counts = dict(Counter(r.type for r in records))
        blocked = {v: {"waits": p.waiting, "stashed": [m.type for m in p.stash]}
                   for v, p in self.processes.items() if not p.done}
        if blocked:
            raise DeadlockError(
                f"no deliverable messages; blocked processes: {blocked}")
        metrics.simulated_time = max(clocks.values(), default=0)
        return {v: p.result for v, p in self.processes.items()}

    def _step(self, var: str, gen, value):
        """Resume `var`'s generator with `value`; it runs until its next
        wait (or ends)."""
        try:
            waited = gen.send(value)
        except StopIteration:
            del self._gens[var]
            return
        if waited is not None:
            raise SimError(f"{var} yielded {waited!r}; a process suspends "
                           f"only in a wait")

    def post(self, dst: str, msg: Msg):
        """Queue `msg` to `dst`, stamped with the clock of `msg.sender`."""
        src = msg.sender
        if dst != src and dst not in self.neighbor_vars[src]:
            self._check_channel(src, dst)
        self._queue.append((dst, msg, self.clocks.get(src, 0)))

    def _check_channel(self, src: str, dst: str):
        """Allow a send to a variable of the same agent; reject any other
        send that is not to a constraint-graph neighbour."""
        owner = self.problem.owner
        if dst not in owner:
            raise SimError(f"{src} sent to {dst!r}, which is not a problem variable")
        if owner[src] == owner[dst]:
            return
        raise SimError(
            f"channel violation: {src} -> {dst} are not constraint-graph "
            f"neighbors"
        )

    # -- protocol figures -----------------------------------------------------

    def stat(self, key: str, n: int = 1):
        self.metrics.stats[key] += n

    def note(self, key: str, value):
        self.metrics.notes.setdefault(key, []).append(value)
