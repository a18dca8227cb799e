"""Line-oriented text format for problems.

Grammar (tokens are whitespace-separated; values are type-tagged so the
round trip preserves ints vs strings):

    discsp 1
    agents <k>
    <agent-name> ... one per line
    variables <n>
    <var-name> <owner> <value> <value> ...
    constraints <m>
    constraint <name> scope <arity> <var> ... forbidden <count>
    <value> ... one forbidden tuple per line

Values are encoded as ``i:<int>`` or ``s:<text>``; names must not contain
whitespace.  Constraints are written by their forbidden tuples (the table is
reconstructed over the scope product).  A constraint is known exactly to the
owners of its scope variables, so the format records no other knowledge.
"""

from __future__ import annotations

from .model import Constraint, ModelError, Problem


def _enc_value(v) -> str:
    if isinstance(v, bool):
        raise ModelError("bool domain values are not supported by the file format")
    if isinstance(v, int):
        return f"i:{v}"
    if isinstance(v, str):
        if any(ch.isspace() for ch in v):
            raise ModelError(f"value {v!r} contains whitespace")
        return f"s:{v}"
    raise ModelError(f"unsupported value type {type(v).__name__}")


def _enc_name(kind: str, name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise ModelError(f"{kind} name {name!r} is empty or contains "
                         f"whitespace")
    return name


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ModelError(f"expected an integer, got {tok!r}") from None


def _dec_value(tok: str):
    if tok.startswith("i:"):
        return _int(tok[2:])
    if tok.startswith("s:"):
        return tok[2:]
    raise ModelError(f"malformed value token {tok!r}")


def dumps(problem: Problem) -> str:
    lines = ["discsp 1"]
    lines.append(f"agents {len(problem.agents)}")
    lines.extend(_enc_name("agent", a) for a in problem.agents)
    lines.append(f"variables {len(problem.variables)}")
    for x in problem.variables:
        vals = " ".join(_enc_value(v) for v in problem.domains[x])
        lines.append(f"{_enc_name('variable', x)} {problem.owner[x]} {vals}")
    lines.append(f"constraints {len(problem.constraints)}")
    for i, c in enumerate(problem.constraints):
        name = _enc_name("constraint", c.name or f"c{i}")
        forbidden = [vals for (vals, cost) in _iter_tuples(c) if cost == 1]
        lines.append(
            f"constraint {name} scope {len(c.scope)} {' '.join(c.scope)} "
            f"forbidden {len(forbidden)}"
        )
        for vals in forbidden:
            lines.append(" ".join(_enc_value(v) for v in vals))
    return "\n".join(lines) + "\n"


def _iter_tuples(c: Constraint):
    import itertools
    for i, vals in enumerate(itertools.product(*c.domains)):
        yield vals, c.table[i]


def loads(text: str) -> Problem:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ModelError("unexpected end of problem file")
        ln = lines[pos]
        pos += 1
        return ln

    def section(tag: str) -> int:
        toks = take().split()
        if len(toks) != 2 or toks[0] != tag or not toks[1].isdecimal():
            raise ModelError(f"expected '{tag} <count>', got {toks}")
        return int(toks[1])

    header = take().split()
    if header != ["discsp", "1"]:
        raise ModelError(f"unsupported header {header}")
    agents = [take().split() for _ in range(section("agents"))]
    for toks in agents:
        if len(toks) != 1:
            raise ModelError(f"agent line {toks} is not one name")
    variables, owner, domains = [], {}, {}
    for _ in range(section("variables")):
        toks = take().split()
        if len(toks) < 2:
            raise ModelError(f"variable line {toks} names no owner")
        x, ag, vals = toks[0], toks[1], [_dec_value(t) for t in toks[2:]]
        variables.append(x)
        owner[x] = ag
        domains[x] = tuple(vals)
    constraints = []
    for _ in range(section("constraints")):
        toks = take().split()
        if len(toks) < 4 or toks[0] != "constraint" or toks[2] != "scope":
            raise ModelError(f"malformed constraint header {toks}")
        name = toks[1]
        arity = _int(toks[3])
        scope = toks[4:4 + arity]
        if len(toks) != 6 + arity or toks[4 + arity] != "forbidden":
            raise ModelError(f"malformed constraint header {toks}")
        count = _int(toks[5 + arity])
        if count < 0:
            raise ModelError(f"constraint {name} has a negative forbidden count")
        unknown = [x for x in scope if x not in domains]
        if unknown:
            raise ModelError(f"constraint {name} scope names undeclared "
                             f"variables {unknown}")
        forbidden = []
        for _ in range(count):
            vals = tuple(_dec_value(t) for t in take().split())
            if len(vals) != arity:
                raise ModelError(f"forbidden tuple arity mismatch in {name}")
            forbidden.append(vals)
        doms = tuple(domains[x] for x in scope)
        constraints.append(Constraint.from_forbidden(
            scope, doms, forbidden, name=name))
    if pos != len(lines):
        raise ModelError("trailing content in problem file")
    return Problem(tuple(toks[0] for toks in agents), tuple(variables),
                   owner, domains, tuple(constraints))


def dump(problem: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(problem))


def load(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
