"""Benchmark problem generators for the four experiment families.

All generators are deterministic under their seed and produce connected
single-component problems; a constraint is known exactly to the owners of
its scope variables.
"""

from __future__ import annotations

import itertools
import math
import random

from .model import Constraint, ModelError, Problem
from .runtime import derive_rng

COLOR_TOKENS = ("R", "B", "G", "Y", "P", "O", "C", "M")

# Extensional tables above this size are decomposed (allDifferent) or
# rejected; keeps generated instances tractable for exact joins.
TABLE_CAP = 1 << 16


def _colors(k: int) -> tuple:
    if k <= len(COLOR_TOKENS):
        return COLOR_TOKENS[:k]
    return COLOR_TOKENS + tuple(f"K{i}" for i in range(k - len(COLOR_TOKENS)))


def figure1_instance() -> Problem:
    """The fixed five-variable graph coloring fixture used throughout the
    regression tests (one agent per node, domains R/B/G)."""
    rgb = _colors(3)
    agents = tuple(f"a{i}" for i in range(1, 6))
    variables = tuple(f"x{i}" for i in range(1, 6))
    owner = {f"x{i}": f"a{i}" for i in range(1, 6)}
    domains = {x: rgb for x in variables}
    edges = [("x1", "x2"), ("x1", "x4"), ("x2", "x3"), ("x3", "x4"),
             ("x3", "x5")]
    cons = []
    for a, b in edges:
        cons.append(Constraint.from_predicate(
            (a, b), (rgb, rgb), lambda u, v: u != v, name=f"ne_{a}_{b}"))
    cons.append(Constraint.from_predicate(
        ("x1",), (rgb,), lambda v: v != "R", name="u_x1"))
    cons.append(Constraint.from_predicate(
        ("x4",), (rgb,), lambda v: v != "B", name="u_x4"))
    cons.append(Constraint.from_predicate(
        ("x5",), (rgb,), lambda v: v not in ("B", "R"), name="u_x5"))
    return Problem(agents, variables, owner, domains, tuple(cons))


def figure2_tree_hints() -> dict:
    """DFS neighbor orders reproducing the reference pseudo-tree
    (root x2; children orders x2:[x3], x3:[x5,x4], x4:[x1])."""
    return {"x2": ["x3", "x1"], "x3": ["x5", "x4", "x2"],
            "x4": ["x1", "x3"], "x1": ["x2", "x4"]}


def _connect(rng: random.Random, nodes: list, edges: set):
    """Add edges until the graph is one component (random inter-component
    links, spanning-tree style)."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for a, b in edges:
        union(a, b)
    roots = sorted({find(v) for v in nodes})
    while len(roots) > 1:
        comp_a = [v for v in nodes if find(v) == roots[0]]
        comp_b = [v for v in nodes if find(v) == roots[1]]
        a, b = rng.choice(comp_a), rng.choice(comp_b)
        edges.add((min(a, b), max(a, b)))
        union(a, b)
        roots = sorted({find(v) for v in nodes})


def gen_graph_coloring(n: int, density: float = 0.4, colors: int = 3,
                       seed: int = 0, unary_p: float = 0.3) -> Problem:
    """Random coloring instance: one single-variable agent per node, binary
    inequality on sampled edges (connectivity repaired), optional secret
    unary forbiddances with probability `unary_p` per node."""
    if n < 1:
        raise ModelError("n must be >= 1")
    rng = derive_rng(seed, "coloring", n, density, colors)
    dom = _colors(colors)
    variables = [f"x{i}" for i in range(1, n + 1)]
    agents = [f"a{i}" for i in range(1, n + 1)]
    owner = {x: a for x, a in zip(variables, agents)}
    edges = set()
    for a, b in itertools.combinations(variables, 2):
        if rng.random() < density:
            edges.add((a, b))
    if n > 1:
        _connect(rng, variables, edges)
    cons = []
    for a, b in sorted(edges):
        cons.append(Constraint.from_predicate(
            (a, b), (dom, dom), lambda u, v: u != v, name=f"ne_{a}_{b}"))
    for x in variables:
        if rng.random() < unary_p:
            banned = rng.choice(dom)
            cons.append(Constraint.from_predicate(
                (x,), (dom,), lambda v, banned=banned: v != banned,
                name=f"u_{x}"))
    return Problem(tuple(agents), tuple(variables), owner,
                   {x: dom for x in variables}, tuple(cons))


def _all_different(scope, doms, name):
    """allDifferent as one extensional constraint when tabulation fits,
    else the equivalent pairwise decomposition."""
    if math.prod(len(d) for d in doms) <= TABLE_CAP:
        return [Constraint.from_predicate(
            scope, doms, lambda *vs: len(set(vs)) == len(vs), name=name)]
    out = []
    for (x, dx), (y, dy) in itertools.combinations(zip(scope, doms), 2):
        out.append(Constraint.from_predicate(
            (x, y), (dx, dy), lambda u, v: u != v, name=f"{name}_{x}_{y}"))
    return out


def gen_meeting_scheduling(meetings: int, pool: int = 3, per_meeting: int = 2,
                           slots: int = 8, seed: int = 0) -> Problem:
    """Meeting scheduling: each agent owns one variable per meeting it
    attends, an allDifferent over its own variables, and a binary equality
    per meeting between the participants' copies."""
    if per_meeting > pool:
        raise ModelError("per_meeting cannot exceed the agent pool")
    rng = derive_rng(seed, "meetings", meetings, pool, per_meeting, slots)
    agents = [f"a{i}" for i in range(pool)]
    dom = tuple(range(slots))
    variables, owner = [], {}
    attendees = {}
    for m in range(meetings):
        who = rng.sample(agents, per_meeting)
        attendees[m] = who
        for a in who:
            x = f"m{m}_{a}"
            variables.append(x)
            owner[x] = a
    cons = []
    for m, who in attendees.items():
        for a, b in itertools.combinations(who, 2):
            cons.append(Constraint.from_predicate(
                (f"m{m}_{a}", f"m{m}_{b}"), (dom, dom),
                lambda u, v: u == v, name=f"eq_m{m}_{a}_{b}"))
    for a in agents:
        mine = [x for x in variables if owner[x] == a]
        if len(mine) >= 2:
            cons.extend(_all_different(
                tuple(mine), tuple(dom for _ in mine), name=f"alldiff_{a}"))
    used = sorted({owner[x] for x in variables})
    return Problem(tuple(used), tuple(variables), owner,
                   {x: dom for x in variables}, tuple(cons))


def gen_resource_allocation(slots: int = 8, bids: int = 2,
                            seed: int = 0) -> Problem:
    """Simplified slot-allocation auction: resource agents own binary
    allocation variables (at-most-one granted), bidders own copy variables
    tied by equality, and each bidder must have exactly one of its bids
    fully granted."""
    if bids < 1:
        raise ModelError("bids must be >= 1")
    rng = derive_rng(seed, "auction", slots, bids)
    resources = [f"r{i}" for i in range(slots)]
    airlines = [f"b{i}" for i in range(max(1, bids // 2))]
    bid_list = []
    for i in range(bids):
        airline = airlines[i] if i < len(airlines) else rng.choice(airlines)
        bundle = tuple(sorted(rng.sample(resources, 2)))
        bid_list.append((airline, bundle))
    return resource_allocation_from_bids(resources, bid_list)


def resource_allocation_from_bids(resources, bid_list) -> Problem:
    """Build the auction DisCSP from explicit (airline, 2-resource bundle)
    bids."""
    airlines = sorted({a for a, _ in bid_list})
    dom = (0, 1)
    variables, owner = [], {}
    cons = []
    copies_by_airline: dict[str, list] = {a: [] for a in airlines}
    alloc_by_resource: dict[str, list] = {r: [] for r in resources}
    for i, (airline, bundle) in enumerate(bid_list):
        for r in bundle:
            alloc = f"x_{r}_bid{i}"
            copy = f"c_{airline}_bid{i}_{r}"
            variables.extend([alloc, copy])
            owner[alloc] = r
            owner[copy] = airline
            alloc_by_resource[r].append(alloc)
            copies_by_airline[airline].append((i, copy))
            cons.append(Constraint.from_predicate(
                (alloc, copy), (dom, dom), lambda u, v: u == v,
                name=f"eq_{alloc}"))
    for r, allocs in alloc_by_resource.items():
        if len(allocs) >= 2:
            cons.append(Constraint.from_predicate(
                tuple(allocs), tuple(dom for _ in allocs),
                lambda *vs: sum(vs) <= 1, name=f"cap_{r}"))
    for airline, pairs in copies_by_airline.items():
        if not pairs:
            continue
        bids_of = sorted({i for i, _ in pairs})
        scope = tuple(c for _, c in pairs)

        def exactly_one(*vs, pairs=tuple(pairs), bids_of=tuple(bids_of)):
            granted = []
            for bid in bids_of:
                vals = [v for (i, _c), v in zip(pairs, vs) if i == bid]
                if all(vals):
                    granted.append(bid)
                elif any(vals):
                    return False  # partial bundles are worthless
            return len(granted) == 1

        cons.append(Constraint.from_predicate(
            scope, tuple(dom for _ in scope), exactly_one,
            name=f"one_{airline}"))
    used_agents = tuple(sorted({owner[x] for x in variables}))
    return Problem(used_agents, tuple(variables), owner,
                   {x: dom for x in variables}, tuple(cons))


def gen_party_game(players: int, seed: int = 0) -> Problem:
    """Party game equilibria: binary strategy variable per player, copy
    variables of each acquaintance's strategy tied by equality, and one
    best-response constraint per player; solutions are exactly the pure
    Nash equilibria.  The social graph is a random tree with at most two
    children per node."""
    if players < 1:
        raise ModelError("players must be >= 1")
    rng = derive_rng(seed, "party", players)
    names = [f"p{i}" for i in range(players)]
    children_count = {p: 0 for p in names}
    social = []
    for i in range(1, players):
        candidates = [names[j] for j in range(i) if children_count[names[j]] < 2]
        parent = rng.choice(candidates)
        children_count[parent] += 1
        social.append((parent, names[i]))
    likes = {}
    costs = {}
    for p in names:
        costs[p] = round(rng.random(), 3)
    for a, b in social:
        likes[(a, b)] = rng.choice((1, -1))
        likes[(b, a)] = rng.choice((1, -1))
    return party_game_from_graph(names, social, likes, costs)


def party_game_from_graph(players, social, likes, costs) -> Problem:
    dom = (0, 1)
    adj = {p: [] for p in players}
    for a, b in social:
        adj[a].append(b)
        adj[b].append(a)
    variables, owner = [], {}
    cons = []
    for p in players:
        s = f"s_{p}"
        variables.append(s)
        owner[s] = p
    for p in players:
        for q in adj[p]:
            c = f"c_{p}_{q}"
            variables.append(c)
            owner[c] = p
            cons.append(Constraint.from_predicate(
                (c, f"s_{q}"), (dom, dom), lambda u, v: u == v,
                name=f"eq_{c}"))
    for p in players:
        neigh = sorted(adj[p])
        scope = (f"s_{p}",) + tuple(f"c_{p}_{q}" for q in neigh)

        def best_response(*vs, p=p, neigh=tuple(neigh)):
            mine, theirs = vs[0], vs[1:]
            reward_attend = sum(likes[(p, q)] * t
                                for q, t in zip(neigh, theirs)) - costs[p]
            chosen = reward_attend if mine == 1 else 0.0
            other = 0.0 if mine == 1 else reward_attend
            return chosen >= other

        cons.append(Constraint.from_predicate(
            scope, tuple(dom for _ in scope), best_response,
            name=f"br_{p}"))
    return Problem(tuple(players), tuple(variables), owner,
                   {x: dom for x in variables}, tuple(cons))


def _connected_sample(gen_fn, seed: int, tries: int = 64) -> Problem:
    """Resample with shifted seeds until the instance is one component."""
    for k in range(tries):
        p = gen_fn(seed + 1000003 * k)
        if p.is_connected():
            return p
    raise ModelError("could not sample a connected instance")


FAMILIES = {
    "coloring": lambda size, seed: gen_graph_coloring(size, seed=seed),
    "meetings": lambda size, seed: _connected_sample(
        lambda s: gen_meeting_scheduling(size, seed=s), seed),
    "auction": lambda size, seed: _connected_sample(
        lambda s: gen_resource_allocation(bids=size, seed=s), seed),
    "party": lambda size, seed: gen_party_game(size, seed=seed),
}
