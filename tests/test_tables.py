import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import align_to, iter_cells, tables_equal
from discsp import tables
from discsp.tables import (Axis, CodenameClash, FeasTable, TableError,
                           _feeds_by_label, _gather, _index_map, join,
                           project, project_min, resolve_codename, zero_table)

RGB = ("R", "B", "G")


def table(scope, entries):
    return FeasTable([Axis(lbl, vals) for lbl, vals in scope], list(entries))


def test_join_identity_with_zero_table():
    t = table([("x", RGB)], [3, 1, 4])
    z = zero_table("x", RGB)
    assert join(t, z).entries == [3, 1, 4]


def test_join_disjoint_scopes_cartesian_sum():
    t1 = table([("x", ("a", "b"))], [1, 2])
    t2 = table([("y", ("c", "d"))], [10, 20])
    out = join(t1, t2)
    assert out.labels() == ["x", "y"]
    assert out.entries == [11, 21, 12, 22]


def test_join_aligns_value_orders():
    t1 = table([("x", ("a", "b"))], [1, 2])
    t2 = table([("x", ("b", "a"))], [20, 10])
    assert join(t1, t2).entries == [11, 22]


def test_join_domain_mismatch():
    t1 = table([("x", ("a", "b"))], [1, 2])
    t2 = table([("x", ("a", "c"))], [1, 2])
    with pytest.raises(TableError):
        join(t1, t2)


def test_duplicate_labels_rejected():
    with pytest.raises(CodenameClash):
        FeasTable([Axis("x", RGB), Axis("x", RGB)], [0] * 9)


def test_project_min_records_lowest_index_tie():
    # row-major over (x, y): (R,u)=0 (R,v)=5 (B,u)=0 (B,v)=1 (G,u)=2 (G,v)=0
    t = table([("x", RGB), ("y", ("u", "v"))], [0, 5, 0, 1, 2, 0])
    out, best = project_min(t, "x")
    assert out.labels() == ["y"]
    assert out.entries == [0, 0]
    # u-column ties (R and B both 0) break toward the lowest domain index
    assert best.labels() == ["y"]
    assert best.entries == ["R", "G"]
    assert best.get({"y": "u", "x": "G"}) == "R"


def test_project_full_reduction_scalar():
    t = table([("x", RGB)], [4, 2, 7])
    out, best = project_min(t, "x")
    assert out.labels() == ["__unit__"]
    assert out.entries == [2] and best.entries == ["B"]


def test_project_generic_reduce():
    t = table([("x", ("a", "b")), ("y", ("c", "d"))], [True, False, False, False])
    out = project(t, "x", any)
    assert out.entries == [True, False]


def test_key_join_roundtrip():
    t = table([("x", RGB), ("y", ("u", "v"))], list(range(6)))
    up = join(t, table([("x", ("G", "R", "B"))], [300, 100, 200]))
    assert up.scope == t.scope
    assert up.entries == [100, 101, 202, 203, 304, 305]
    down = join(up, table([("x", RGB)], [-100, -200, -300]))
    assert down.entries == t.entries


def test_relabel_and_reorder():
    t = table([("x", RGB)], [1, 2, 3])
    coded = resolve_codename(t, "x", 999, {"R": 11, "B": 22, "G": 33},
                             (22, 33, 11))
    assert coded.labels() == [999]
    assert coded.scope[0].values == (22, 33, 11)
    assert coded.entries == [2, 3, 1]


def test_resolve_codename_reorders_and_decodes():
    # coded axis listed in permuted order; resolution restores domain order
    t = table([(999, (22, 33, 11))], [2, 3, 1])
    out = resolve_codename(t, 999, "x", {11: "R", 22: "B", 33: "G"}, RGB)
    assert out.labels() == ["x"]
    assert out.scope[0].values == RGB
    assert out.entries == [1, 2, 3]


def test_resolve_codename_diagonal_merge():
    t = table([("x", RGB), (999, (5, 6, 7))], list(range(9)))
    out = resolve_codename(t, 999, "x", {5: "R", 6: "B", 7: "G"}, RGB)
    assert out.labels() == ["x"]
    # diagonal of the 3x3 block
    assert out.entries == [0, 4, 8]


def test_diagonal_merge_mismatched_values():
    t = table([("x", RGB), (999, (5, 6, 7))], [0] * 9)
    # A value outside the target values, and two codes onto one value; both
    # when merging onto axis x and when making a new axis z.
    for mapping in ({5: "R", 6: "B", 7: "Y"}, {5: "R", 6: "B", 7: "R"}):
        for new_label in ("x", "z"):
            with pytest.raises(TableError):
                resolve_codename(t, 999, new_label, mapping, RGB)


def test_diagonal_merge_of_an_axis_with_itself():
    t = table([("x", RGB), ("y", ("u", "v"))], list(range(6)))
    with pytest.raises(TableError):
        resolve_codename(t, "x", "x", {v: v for v in RGB}, RGB)


def test_align_and_equality():
    t1 = table([("x", ("a", "b")), ("y", ("c", "d"))], [1, 2, 3, 4])
    # same function expressed over (y, x) with both value orders flipped:
    # (d,b)=4 (d,a)=2 (c,b)=3 (c,a)=1
    t2 = table([("y", ("d", "c")), ("x", ("b", "a"))], [4, 2, 3, 1])
    assert tables_equal(t1, t2)
    assert align_to(t2, t1).entries == t1.entries
    t3 = table([("x", ("a", "b")), ("y", ("c", "d"))], [1, 2, 3, 5])
    assert not tables_equal(t1, t3)


def test_get_by_assignment():
    t = table([("x", RGB), ("y", ("u", "v"))], list(range(6)))
    assert t.get({"x": "B", "y": "v"}) == 3
    with pytest.raises(TableError):
        t.get({"x": "B"})


# -- algebraic laws (property-based) ------------------------------------------
#
# Tables are drawn over a pool of six labels, each with one fixed value set of
# 1-4 values, so tables that share a label share its domain.  Each table takes
# 0-5 of the labels in random order, each axis listing its values in a random
# order.

LABELS = "abcdef"
PROPS = settings(max_examples=60, deadline=None)


@st.composite
def domains(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(LABELS),
                          max_size=len(LABELS)))
    return {lbl: tuple(f"{lbl}{i}" for i in range(n))
            for lbl, n in zip(LABELS, sizes)}


def tables_over(draw, doms, min_axes=0):
    labels = draw(st.permutations(LABELS))[:draw(st.integers(min_axes, 5))]
    scope = [Axis(lbl, draw(st.permutations(doms[lbl]))) for lbl in labels]
    n = math.prod(len(a.values) for a in scope)
    entries = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return FeasTable(scope, entries)


@st.composite
def table_pair(draw):
    doms = draw(domains())
    return tables_over(draw, doms), tables_over(draw, doms)


@st.composite
def table_and_label(draw):
    t = tables_over(draw, draw(domains()), min_axes=1)
    return t, draw(st.sampled_from(t.labels()))


def assignments(t):
    """{label: value} for every cell of t, row-major."""
    for pos, _ in iter_cells(t):
        yield {a.label: a.values[p] for a, p in zip(t.scope, pos)}


@PROPS
@given(table_pair())
def test_join_commutes_and_sums_cellwise(pair):
    a, b = pair
    ab, ba = join(a, b), join(b, a)
    assert set(ab.labels()) == set(a.labels()) | set(b.labels())
    assert align_to(ba, ab).entries == ab.entries
    assert tables_equal(ab, ba)
    for cell in assignments(ab):
        assert ab.get(cell) == a.get(cell) + b.get(cell)


@PROPS
@given(table_pair(), st.data())
def test_project_min_of_join_is_brute_force_min(pair, data):
    m = join(*pair)
    if not m.labels():
        return
    label = data.draw(st.sampled_from(m.labels()))
    values = m.scope[m.axis(label)].values
    out, best = project_min(m, label)
    rest = [lbl for lbl in m.labels() if lbl != label]
    assert out.labels() == (rest or ["__unit__"])
    assert best.scope == out.scope
    cells = list(assignments(out)) if rest else [{}]
    for i, cell in enumerate(cells):
        costs = [m.get({**cell, label: v}) for v in values]
        assert out.entries[i] == min(costs)
        # ties go to the lowest index on the axis's listed order
        assert best.entries[i] == values[costs.index(min(costs))]


@PROPS
@given(table_and_label(), st.data())
def test_resolve_codename_inverts_relabel_and_reorder(tl, data):
    # Coding an axis under any permutation, then resolving it, returns t.
    t, label = tl
    values = t.scope[t.axis(label)].values
    codes = data.draw(st.permutations(range(100, 100 + len(values))))
    code_of = dict(zip(values, codes))
    coded = resolve_codename(t, label, 999, code_of,
                             data.draw(st.permutations(codes)))
    assert coded.labels() == [999 if lbl == label else lbl
                              for lbl in t.labels()]
    for cell in assignments(t):
        coded_cell = {**cell, 999: code_of[cell[label]]}
        assert coded.get(coded_cell) == t.get(cell)
    back = resolve_codename(coded, 999, label,
                            {c: v for v, c in code_of.items()}, values)
    assert back.scope == t.scope
    assert back.entries == t.entries


@PROPS
@given(table_and_label(), st.data())
def test_diagonal_merge_selects_the_diagonal(tl, data):
    # Resolving a codename onto an axis already in the table matches the
    # per-cell reference: the cells where both axes carry the same value.
    t, label = tl
    values = t.scope[t.axis(label)].values
    code_of = {v: f"code-{v}" for v in values}
    dup = Axis("dup", data.draw(st.permutations(list(code_of.values()))))
    k = data.draw(st.integers(0, len(t.scope)))
    scope = t.scope[:k] + [dup] + t.scope[k:]
    n = math.prod(len(a.values) for a in scope)
    wide = FeasTable(scope, data.draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    merged = resolve_codename(wide, "dup", label,
                              {c: v for v, c in code_of.items()},
                              data.draw(st.permutations(values)))
    assert merged.scope == t.scope
    for cell in assignments(merged):
        assert merged.get(cell) == wide.get({**cell, "dup": code_of[cell[label]]})


@PROPS
@given(table_and_label(), st.data())
def test_reorder_there_and_back_is_identity(tl, data):
    # Relisting an axis's values (under a stand-in label, same values) and
    # then restoring them returns t.
    t, label = tl
    values = t.scope[t.axis(label)].values
    same = {v: v for v in values}
    shuffled = resolve_codename(t, label, "tmp", same,
                                data.draw(st.permutations(values)))
    for cell in assignments(t):
        assert shuffled.get({**cell, "tmp": cell[label]}) == t.get(cell)
    back = resolve_codename(shuffled, "tmp", label, same, values)
    assert back.scope == t.scope
    assert back.entries == t.entries


@PROPS
@given(table_and_label(), st.data())
def test_key_join_then_its_negation_restores_entries(tl, data):
    t, label = tl
    values = data.draw(st.permutations(t.scope[t.axis(label)].values))
    amounts = data.draw(st.lists(st.integers(-1000, 1000),
                                 min_size=len(values), max_size=len(values)))
    key = FeasTable([Axis(label, values)], amounts)
    up = join(t, key)
    assert up.scope == t.scope
    for cell in assignments(t):
        assert up.get(cell) == t.get(cell) + key.get(cell)
    minus = FeasTable([Axis(label, values)], [-a for a in amounts])
    assert join(up, minus).entries == t.entries


@PROPS
@given(table_pair(), st.data())
def test_broadcast_key_join_equals_zero_broadcast_plus_key(pair, data):
    # A key over an axis the table lacks: the join broadcasts the table
    # along it, as joining a zero table over that axis first would.
    t, other = pair
    absent = [a for a in other.scope if a.label not in t.labels()]
    if not absent:
        return
    axis = data.draw(st.sampled_from(absent))
    key = FeasTable([axis], data.draw(st.lists(
        st.integers(-1000, 1000), min_size=len(axis.values),
        max_size=len(axis.values))))
    zero = zero_table(axis.label, axis.values)
    out = join(t, key)
    assert out.scope == t.scope + [axis]
    assert out.entries == join(join(t, zero), key).entries
    for cell in assignments(out):
        assert out.get(cell) == t.get(cell) + key.get(cell)


@PROPS
@given(table_pair(), st.data())
def test_callbacks_run_once_per_output_cell_in_row_major_order(pair, data):
    # p2's encrypted combine/reduce draw randomness, so call order is fixed.
    a, b = pair
    calls = []
    m = join(a, b, combine=lambda x, y: calls.append((x, y)) or len(calls))
    cells = list(assignments(m))
    assert calls == [(a.get(cell), b.get(cell)) for cell in cells]
    assert m.entries == list(range(1, len(cells) + 1))
    if not m.labels():
        return
    label = data.draw(st.sampled_from(m.labels()))
    values = m.scope[m.axis(label)].values
    seen = []
    out = project(m, label, lambda col: seen.append(list(col)) or len(seen))
    rest = list(assignments(out)) if out.labels() != ["__unit__"] else [{}]
    assert seen == [[m.get({**cell, label: v}) for v in values] for cell in rest]
    assert out.entries == list(range(1, len(rest) + 1))


def key_on(data, axis):
    """A one-axis key table over `axis`'s values, listed in a random order,
    with entries as wide as real obfuscation keys."""
    values = data.draw(st.permutations(axis.values))
    return FeasTable([Axis(axis.label, values)], data.draw(st.lists(
        st.integers(-2**128, 2**128), min_size=len(values),
        max_size=len(values))))


@PROPS
@given(st.data())
def test_key_on_a_held_axis_joins_before_or_after_another_table(data):
    # P-DPOP joins a key onto the local join, ahead of the children's
    # tables: the result is the one joining it last gives.
    doms = data.draw(domains())
    m = tables_over(data.draw, doms, min_axes=1)
    t = tables_over(data.draw, doms)
    key = key_on(data, data.draw(st.sampled_from(m.scope)))
    last, first = join(join(m, t), key), join(join(m, key), t)
    assert first.scope == last.scope
    assert first.entries == last.entries


@PROPS
@given(st.data())
def test_key_off_the_projected_axis_joins_before_or_after_project_min(data):
    # A key on another axis is constant along each column, so it moves no
    # column's first minimum: the best responses agree, ties included.
    m = tables_over(data.draw, data.draw(domains()), min_axes=2)
    x, a = data.draw(st.permutations(m.labels()))[:2]
    key = key_on(data, m.scope[m.axis(a)])
    mins, best = project_min(m, x)
    keyed_mins, keyed_best = project_min(join(m, key), x)
    after = join(mins, key)
    assert keyed_mins.scope == after.scope
    assert keyed_mins.entries == after.entries
    assert keyed_best.scope == best.scope
    assert keyed_best.entries == best.entries


# -- the blocked gather kernel --------------------------------------------------
#
# `_gather` copies trailing blocks as slices and repeats; it must equal the
# per-cell reference, one `_index_map` index per output cell, on any feeds.

def per_cell_gather(t, out_scope, feeds=None):
    if feeds is None:
        feeds = _feeds_by_label(t.scope, out_scope)
    return list(map(t.entries.__getitem__, _index_map(t.scope, out_scope, feeds)))


def counting(scope, out_scope, feeds=None):
    """A table whose entries are their own indices, and its gather case."""
    t = table(scope, range(math.prod(len(vals) for _, vals in scope)))
    return t, [Axis(lbl, vals) for lbl, vals in out_scope], feeds


A2, A3, A4 = (0, 1), (0, 1, 2), (0, 1, 2, 3)


@st.composite
def gather_cases(draw):
    """A table, an output scope that permutes, drops, reorders and
    broadcasts its axes, and the feeds to read it with (None: by label);
    sometimes one output axis also reads a dropped source axis, as a
    diagonal merge does."""
    t = tables_over(draw, draw(domains()))
    out = list(t.scope)
    if draw(st.booleans()):
        out = draw(st.permutations(out))
    out = [Axis(a.label, draw(st.permutations(a.values))) if draw(st.booleans())
           else a for a in out[draw(st.integers(0, len(out))):]]
    for i in range(draw(st.integers(0, 2))):
        out.insert(draw(st.integers(0, len(out))),
                   Axis(f"z{i}", tuple(range(draw(st.integers(1, 4))))))
    labels = {a.label for a in out}
    dropped = [j for j, a in enumerate(t.scope) if a.label not in labels]
    if not (dropped and out and draw(st.booleans())):
        return t, out, None
    feeds = [list(pairs) for pairs in _feeds_by_label(t.scope, out)]
    k = draw(st.integers(0, len(out) - 1))
    j = draw(st.sampled_from(dropped))
    size = len(t.scope[j].values)
    feeds[k].append((j, draw(st.lists(st.integers(0, size - 1),
                                      min_size=len(out[k].values),
                                      max_size=len(out[k].values)))))
    return t, out, feeds


@settings(max_examples=200, deadline=None)
@given(gather_cases())
@example(counting([("a", A3), ("b", A3)], [("a", A3), ("b", A3)])
         ).via("whole-table copy")
@example(counting([("a", A2), ("b", A2), ("c", A4)],
                  [("b", A2), ("a", A2), ("c", A4)])).via("slice blocks")
@example(counting([("a", A3), ("b", A2)], [("a", A3), ("b", A2), ("z", A4)])
         ).via("trailing repeat")
@example(counting([("a", A2), ("b", A4)], [("a", A2), ("z", A3), ("b", A4)])
         ).via("middle broadcast")
@example(counting([("a", A3), ("b", A2), ("c", A2)],
                  [("b", A2), ("a", A3), ("c", A2)])
         ).via("fallback below the block threshold")
@example(counting([("a", A4), ("b", A4), ("c", A4)], [("a", A4), ("b", A4)],
                  [[(0, A4), (2, (3, 0, 2, 1))], [(1, A4)]])
         ).via("prefix reads a trailing axis")
@example(counting([("a", A2), ("b", A2), ("c", A4)], [("a", A2), ("c", A4)],
                  [[(0, A2), (1, (1, 0))], [(2, A4)]])
         ).via("diagonal before a run")
def test_gather_equals_the_per_cell_reference(case):
    t, out, feeds = case
    assert _gather(t, out, feeds) == per_cell_gather(t, out, feeds)


def test_gather_builds_no_index_per_output_cell(monkeypatch):
    lengths = []

    def recording(*args):
        idx = _index_map(*args)
        lengths.append(len(idx))
        return idx

    monkeypatch.setattr(tables, "_index_map", recording)
    t = table([(f"x{i}", RGB) for i in range(8)], range(3 ** 8))
    out, _ = project_min(t, "x0")
    assert out.entries == list(range(3 ** 7))
    suffix = table([(f"x{i}", RGB) for i in (5, 6, 7)], range(27))
    joined = join(t, suffix)
    assert joined.entries == [i + i % 27 for i in range(3 ** 8)]
    # Each block start covers at least a 27-cell block of the output.
    assert lengths and all(n * 27 <= 3 ** 8 for n in lengths)
