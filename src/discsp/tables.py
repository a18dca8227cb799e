"""Dense multi-dimensional feasibility tables and their algebra.

A FeasTable maps every assignment of its scope to an entry.  Entries are
non-negative ints for violation-count propagation, bools for the cleartext
boolean pipeline, and cyphertexts for the encrypted pipeline; the structural
operations (join, project, resolve_codename) are entry-agnostic.

Axes are labelled either by a real variable name (str) or by a codename
(int); each axis carries the ordered tuple of values it ranges over, which
for coded axes are value-codes in an arbitrary (permuted) order.  Layout is
row-major over the scope list: the last axis varies fastest.  Every
structural operation reads its input through one gather kernel (`_gather`),
then combines or reduces.  The kernel copies the trailing axes in blocks --
contiguous runs of the source as slices, broadcast axes as repeats -- and
builds a flat index map from per-axis strides and value remaps
(`_index_map`) only over the axes in front of them, one index per block.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass


class TableError(ValueError):
    pass


class CodenameClash(TableError):
    """Two distinct axes in one scope carry the same label."""


@dataclass(frozen=True)
class Axis:
    label: "str | int"
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(set(self.values)) != len(self.values):
            raise TableError(f"axis {self.label} has duplicate values")


@dataclass
class FeasTable:
    scope: list[Axis]
    entries: list

    def __post_init__(self):
        labels = [a.label for a in self.scope]
        if len(set(labels)) != len(labels):
            raise CodenameClash(f"duplicate axis labels in scope {labels}")
        if len(self.entries) != self.size():
            raise TableError("entry count does not match scope product")

    def size(self) -> int:
        n = 1
        for a in self.scope:
            n *= len(a.values)
        return n

    def labels(self) -> list:
        return [a.label for a in self.scope]

    def axis(self, label) -> int:
        for i, a in enumerate(self.scope):
            if a.label == label:
                return i
        raise TableError(f"label {label!r} not in scope {self.labels()}")

    def index_of(self, positions) -> int:
        idx = 0
        for a, p in zip(self.scope, positions):
            idx = idx * len(a.values) + p
        return idx

    def get(self, assignment: dict):
        """Entry for {label: value} covering the whole scope."""
        pos = []
        for a in self.scope:
            try:
                pos.append(a.values.index(assignment[a.label]))
            except (KeyError, ValueError):
                raise TableError(f"no value for axis {a.label!r}") from None
        return self.entries[self.index_of(pos)]

    def canonical(self):
        """JSON-able structure used for wire encoding and audits."""
        return {
            "scope": [{"label": a.label, "values": list(a.values)} for a in self.scope],
            "entries": self.entries,
        }


def zero_table(label, values) -> FeasTable:
    return FeasTable([Axis(label, tuple(values))], [0] * len(tuple(values)))


def _index_map(src_scope: list[Axis], out_scope: list[Axis],
               feeds) -> list[int]:
    """Flat source index for every cell of `out_scope`, row-major.

    `feeds[k]` lists the (source axis, remap) pairs output axis k reads:
    position p on output axis k is position remap[p] on each listed source
    axis.  An output axis that reads none repeats the source along it (join
    broadcasting an operand); resolve_codename merging onto an existing
    axis has one output axis read two.
    No source axis is read by more than one output axis.
    The map is built by expanding per-axis offsets, so no cell position is
    ever decoded.
    """
    strides, n = [], 1
    for a in reversed(src_scope):
        strides.append(n)
        n *= len(a.values)
    strides.reverse()
    idx = [0]
    for a, pairs in zip(out_scope, feeds):
        offs = [sum(strides[j] * remap[p] for j, remap in pairs)
                for p in range(len(a.values))]
        idx = [i + o for i in idx for o in offs]
    return idx


def _feeds_by_label(src_scope: list[Axis], out_scope: list[Axis]) -> list:
    where = {a.label: j for j, a in enumerate(src_scope)}
    feeds = []
    for a in out_scope:
        j = where.get(a.label)
        if j is None:
            feeds.append(())
            continue
        src = src_scope[j].values
        if set(src) != set(a.values):
            raise TableError(f"domain mismatch on label {a.label!r}")
        feeds.append(((j, [src.index(v) for v in a.values]),))
    return feeds


# Fewest cells per block worth a slice copy: on blocks of two, one index per
# cell is as fast.
_MIN_BLOCK = 3


def _gather(t: FeasTable, out_scope: list[Axis], feeds=None) -> list:
    """Entries of `t` laid out over `out_scope`, row-major (see `_index_map`).

    The output's trailing axes are peeled off in blocks, back to front:
    broadcast axes (reading no source axis) repeat each entry R times;
    before them, a run of axes reading the source's trailing axes in order,
    unpermuted, is a contiguous block of B source cells, copied as one
    slice.  The index map then covers only the remaining prefix: one block
    start per B * R output cells.  Runs of fewer than `_MIN_BLOCK` cells
    are read one index per cell instead.  A source axis that a merging
    feed reads is missing from the output, so no run passes it.
    """
    if feeds is None:
        feeds = _feeds_by_label(t.scope, out_scope)
    k, r = len(out_scope), 1
    while k and not feeds[k - 1]:
        k -= 1
        r *= len(out_scope[k].values)
    m, j, b = k, len(t.scope), 1  # out_scope[m:k] reads source axes j..
    while m and len(feeds[m - 1]) == 1:
        src, remap = feeds[m - 1][0]
        n = len(t.scope[src].values)
        if src != j - 1 or list(remap) != list(range(n)):
            break
        m, j, b = m - 1, j - 1, b * n
    entries = t.entries
    if b < _MIN_BLOCK:
        out = list(map(entries.__getitem__, _index_map(t.scope, out_scope[:k], feeds)))
    else:
        out = []
        extend = out.extend
        for i in _index_map(t.scope, out_scope[:m], feeds):
            extend(entries[i:i + b])
    if r == 1:
        return out
    return list(itertools.chain.from_iterable(
        map(itertools.repeat, out, itertools.repeat(r))))


def join(t1: FeasTable, t2: FeasTable, combine=None) -> FeasTable:
    """Pointwise combination over the union scope (default: integer sum).

    Shared labels must range over the same value set; t2's axis order is
    aligned to t1's by value identity.  `combine` runs once per output cell,
    in row-major order.
    """
    t1_labels = set(t1.labels())
    out_scope = list(t1.scope) + [a for a in t2.scope if a.label not in t1_labels]
    left = _gather(t1, out_scope)
    right = _gather(t2, out_scope)
    return FeasTable(out_scope, list(map(combine or operator.add, left, right)))


def _columns(t: FeasTable, label):
    """The scope left after eliminating `label` (the unit axis if none is
    left), and per cell of it, row-major, the tuple of entries along
    `label` in its listed order."""
    k = t.axis(label)
    rest = t.scope[:k] + t.scope[k + 1:]
    flat = _gather(t, [t.scope[k]] + rest)
    m = math.prod(len(a.values) for a in rest)
    rows = [flat[i * m:(i + 1) * m] for i in range(len(t.scope[k].values))]
    return rest or [Axis("__unit__", ("*",))], zip(*rows)


def project(t: FeasTable, label, reduce_fn) -> FeasTable:
    """Eliminate one axis by reducing entries along it.

    `reduce_fn` gets the list of entries along the axis, once per remaining
    cell in row-major order.  A fully reduced table has one `__unit__` axis.
    """
    scope, columns = _columns(t, label)
    return FeasTable(scope, [reduce_fn(list(col)) for col in columns])


def project_min(t: FeasTable, label) -> tuple[FeasTable, FeasTable]:
    """Minimize out `label`: the table of minima, and over the same scope
    the table of minimizing values of `label` (the best response).

    Ties break toward the lowest domain index.
    """
    values = t.scope[t.axis(label)].values
    scope, columns = _columns(t, label)
    mins, choices = [], []
    for col in columns:
        c = min(col)  # the first minimal entry; index() finds its position
        mins.append(c)
        choices.append(values[col.index(c)])
    return FeasTable(scope, mins), FeasTable(list(scope), choices)


def resolve_codename(t: FeasTable, label, new_label, mapping,
                     order) -> FeasTable:
    """Rewrite axis `label` as axis `new_label`, in one gather.

    Value v becomes `mapping[v]`, and the new values are listed in `order`:
    this codes a real variable's axis (in the permuted order the caller
    chose) and resolves a coded one back.  If `new_label` already labels
    another axis, that axis stays as it is and the rewritten one merges into
    it: only the cells where both carry the same value are kept.
    """
    if new_label == label:
        raise TableError(f"axis {label!r} recoded onto its own label")
    k = t.axis(label)
    src = t.scope[k].values
    where = {mapping[v]: p for p, v in enumerate(src)}  # new value -> position
    merge = new_label in t.labels()
    if merge:
        j = t.axis(new_label)
        order = t.scope[j].values
    if len(where) != len(src) or where.keys() != set(order):
        raise TableError(f"axis {label!r} does not map onto the values {order}")
    out_scope = list(t.scope)
    feeds = [[(i, range(len(a.values)))] for i, a in enumerate(t.scope)]
    remap = [where[w] for w in order]
    if merge:
        feeds[j].append((k, remap))
        del feeds[k], out_scope[k]
    else:
        feeds[k] = [(k, remap)]
        out_scope[k] = Axis(new_label, order)
    return FeasTable(out_scope, _gather(t, out_scope, feeds))


def map_entries(t: FeasTable, fn) -> FeasTable:
    return FeasTable(list(t.scope), [fn(e) for e in t.entries])
