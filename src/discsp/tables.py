"""Dense multi-dimensional feasibility tables and their algebra.

A FeasTable maps every assignment of its scope to an entry.  Entries are
non-negative ints for violation-count propagation, bools for the cleartext
boolean pipeline, and cyphertexts for the encrypted pipeline; the structural
operations (join, project, relabel, diagonal merge) are entry-agnostic.

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

    def shape(self) -> tuple[int, ...]:
        return tuple(len(a.values) for a in self.scope)

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

    def iter_cells(self):
        """Yield (positions tuple, entry)."""
        ranges = [range(len(a.values)) for a in self.scope]
        for i, pos in enumerate(itertools.product(*ranges)):
            yield pos, self.entries[i]

    def copy(self) -> "FeasTable":
        return FeasTable(list(self.scope), list(self.entries))

    def canonical(self):
        """JSON-able structure used for wire encoding and audits."""
        return {
            "scope": [{"label": a.label, "values": list(a.values)} for a in self.scope],
            "entries": list(self.entries),
        }


def zero_table(label, values) -> FeasTable:
    return FeasTable([Axis(label, tuple(values))], [0] * len(tuple(values)))


def _index_map(src_scope: list[Axis], out_scope: list[Axis],
               feeds=None) -> list[int]:
    """Flat source index for every cell of `out_scope`, row-major.

    `feeds[k]` lists the (source axis, remap) pairs output axis k reads:
    position p on output axis k is position remap[p] on each listed source
    axis.  An output axis that reads none repeats the source along it (join
    broadcasting an operand); diagonal_merge has one output axis read two.
    No source axis is read by more than one output axis.
    Without `feeds`, each output axis reads the source axis of its label,
    matched by value.  The map is built by expanding per-axis offsets, so
    no cell position is ever decoded.
    """
    if feeds is None:
        feeds = _feeds_by_label(src_scope, out_scope)
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
    are read one index per cell instead.  A source axis that a diagonal
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


@dataclass
class BestResponse:
    """Argmin record: for each assignment of the post-projection scope, a
    minimizing value of the projected variable."""

    variable: str
    scope: list[Axis]
    choices: list  # values of `variable`, row-major over `scope`

    def lookup(self, assignment: dict):
        dummy = FeasTable(list(self.scope), list(self.choices))
        try:
            return dummy.get(assignment)
        except TableError as e:
            raise TableError(f"decision lookup miss for {self.variable}: {e}") from e


def project_min(t: FeasTable, label) -> tuple[FeasTable, BestResponse]:
    """Minimize out `label`, recording a minimizing value per remaining cell.

    Ties break toward the lowest domain index.
    """
    values = t.scope[t.axis(label)].values
    scope, columns = _columns(t, label)
    mins, choices = [], []
    for col in columns:
        c = min(col)  # the first minimal entry; index() finds its position
        mins.append(c)
        choices.append(values[col.index(c)])
    return FeasTable(scope, mins), BestResponse(str(label), list(scope), choices)


def relabel_axis(t: FeasTable, old_label, new_label, new_values) -> FeasTable:
    """Rename an axis and substitute its value tokens positionally.

    new_values[i] replaces the value at position i; used to swap a real
    variable/domain for its codename/value-codes (in permuted order the
    caller chose) and back.
    """
    k = t.axis(old_label)
    new_values = tuple(new_values)
    if len(new_values) != len(t.scope[k].values):
        raise TableError("relabel value count mismatch")
    scope = list(t.scope)
    scope[k] = Axis(new_label, new_values)
    return FeasTable(scope, list(t.entries))


def reorder_axis_values(t: FeasTable, label, new_order) -> FeasTable:
    """Permute the listed order of one axis's values (entries follow)."""
    scope = list(t.scope)
    scope[t.axis(label)] = Axis(label, new_order)
    return FeasTable(scope, _gather(t, scope))


def diagonal_merge(t: FeasTable, label_a, label_b) -> FeasTable:
    """Collapse two axes known to denote the same variable.

    Keeps axis `label_a`; selects entries where both axes carry the same
    value.  Both axes must range over the same value set.
    """
    ka, kb = t.axis(label_a), t.axis(label_b)
    if ka == kb:
        raise TableError(f"diagonal merge of axis {label_a!r} with itself")
    a, b = t.scope[ka], t.scope[kb]
    if set(a.values) != set(b.values):
        raise TableError("diagonal merge on mismatched value sets")
    out_scope = [ax for j, ax in enumerate(t.scope) if j != kb]
    feeds = [[(j, range(len(ax.values)))]
             for j, ax in enumerate(t.scope) if j != kb]
    feeds[ka if ka < kb else ka - 1].append(
        (kb, [b.values.index(v) for v in a.values]))
    return FeasTable(out_scope, _gather(t, out_scope, feeds))


def resolve_codename(t: FeasTable, code_label, variable, code_to_value,
                     domain) -> FeasTable:
    """Turn a coded axis back into its real variable.

    `code_to_value` maps each value-code to the real domain value.  The axis
    is relabelled, decoded, and reordered to the real domain order; if the
    table already has an axis for `variable`, the two are diagonal-merged.
    """
    k = t.axis(code_label)
    decoded = tuple(code_to_value[c] for c in t.scope[k].values)
    if set(decoded) != set(domain):
        raise TableError(f"codename {code_label} does not decode onto {variable}'s domain")
    tmp_label = (variable, "__resolving__")
    out = relabel_axis(t, code_label, tmp_label, decoded)
    out = reorder_axis_values(out, tmp_label, tuple(domain))
    if variable in [a.label for a in out.scope]:
        out = relabel_axis(out, tmp_label, (variable, "__dup__"),
                           out.scope[out.axis(tmp_label)].values)
        out = diagonal_merge(out, variable, (variable, "__dup__"))
    else:
        out = relabel_axis(out, tmp_label, variable,
                           out.scope[out.axis(tmp_label)].values)
    return out


def map_entries(t: FeasTable, fn) -> FeasTable:
    return FeasTable(list(t.scope), [fn(e) for e in t.entries])


def add_along_axis(t: FeasTable, label, amounts: dict, sign=1) -> FeasTable:
    """Add (or subtract) a per-value amount along one axis.

    `amounts` maps each of the axis's listed values to an integer; every
    entry in that value's slice is shifted by sign * amount.
    """
    axis = t.scope[t.axis(label)]
    shift = FeasTable([axis], [sign * amounts[v] for v in axis.values])
    shifts = _gather(shift, t.scope)
    return FeasTable(list(t.scope), list(map(operator.add, t.entries, shifts)))


def align_to(t: FeasTable, ref: FeasTable) -> FeasTable:
    """Reorder t's axes (and value orders) to match ref's scope."""
    if set(t.labels()) != set(ref.labels()):
        raise TableError(f"cannot align scope {t.labels()} to {ref.labels()}")
    return FeasTable(list(ref.scope), _gather(t, ref.scope))
