"""P2-DPOP(+): encrypted boolean propagation along a linear order.

ElGamal is not fully homomorphic: OR of two cyphertexts works, but AND only
against a cleartext boolean, so the bottom-up propagation runs on a linear
variable ordering (the circular order of the iteration's pseudo-tree, cut
at the root) where each variable joins exactly one encrypted message with
its own cleartext local table.  Feasibility values travel as canonical
``{"alpha", "beta"}`` cyphertexts under the compound key, labels as
codenames; only the root learns a value, found by dichotomic collaborative
decryption.  Fresh encryption, AND with a cleartext boolean and the OR
projection are algebra over tables of cyphertext dicts, and each table is
re-randomized in one ``crypto.rerandomize_entries`` call.  Rerooting,
grounding and early termination are inherited from the P^3/2 machinery.
"""

from __future__ import annotations

from . import crypto
from .dpop import local_join
from .kernel import PseudoTreeView, circular_order
from .model import Problem
from .p32 import P32Process
from .tables import FeasTable, join, map_entries, project


class P2Error(RuntimeError):
    pass


# AND with false: re-randomizes to a fresh encryption of false.
_FALSE = {"alpha": 1, "beta": 1}


def boolean_local_join(problem: Problem, view: PseudoTreeView,
                       extra=()) -> FeasTable:
    """Conjunction of the locally joined constraints (True = feasible).

    Works on the original DisCSP: the eligibility rule is the pseudo-tree
    one, so each constraint enters the chain exactly once, at its deepest
    scope variable; on the linear order that variable may well not be
    adjacent to the constraint's other variables."""
    t = local_join(problem, view, tuple(extra))
    return map_entries(t, lambda e: e == 0)


def project_or(t: FeasTable, label) -> FeasTable:
    return project(t, label, any)


def shadow_linear_tables(problem: Problem, views: dict,
                         extras: dict | None = None):
    """Cleartext shadow of the encrypted pipeline (test oracle).

    Returns ({sender: table sent}, root_table) with real labels, following
    the linear order induced by the pseudo-tree."""
    order = circular_order(views)
    extras = extras or {}
    sent: dict[str, FeasTable] = {}
    prev = None
    for x in reversed(order[1:]):
        m = boolean_local_join(problem, views[x], extras.get(x, ()))
        if prev is not None:
            m = join(m, prev, combine=lambda a, b: a and b)
        out = project_or(m, x)
        sent[x] = out
        prev = out
    root = order[0]
    final = boolean_local_join(problem, views[root], extras.get(root, ()))
    if prev is not None:
        final = join(final, prev, combine=lambda a, b: a and b)
    return sent, final


def feasible_value(domain, entries, decrypt, combine_or):
    """Dichotomic search for an entry that decrypts true.

    `decrypt` is a generator function (cyphertext -> bool); `combine_or`
    folds two cyphertexts homomorphically.  Returns the found domain value
    or None.  Uses between ceil(log2 |D|) and ceil(log2 |D| + 1)
    decryptions."""
    def rec(lo, hi):
        if lo < hi:
            mid = (lo + hi) // 2
            c = entries[lo]
            for i in range(lo + 1, mid + 1):
                c = combine_or(c, entries[i])
            feasible = yield from decrypt(c)
            if feasible:
                return (yield from rec(lo, mid))
            return (yield from rec(mid + 1, hi))
        feasible = yield from decrypt(entries[lo])
        return domain[lo] if feasible else None

    return (yield from rec(0, len(domain) - 1))


class P2Process(P32Process):
    """Rerooted solver whose per-iteration propagation is the encrypted
    linear-order pipeline."""

    def _rerandomized(self, t: FeasTable):
        """Re-randomize every cell of a cyphertext table: one draw and two
        exponentiations per cell, in row-major order."""
        entries = crypto.rerandomize_entries(self.params, self.compound,
                                             t.entries, self.crypto_rng)
        self.charge_exps(2 * len(entries))
        return FeasTable(t.scope, entries)

    def _encrypt_table(self, t: FeasTable):
        self.sim.stat("p2_enc", t.size())
        return self._rerandomized(map_entries(
            t, lambda b: {"alpha": crypto.encode_bool(self.params, b),
                          "beta": 1}))

    def encrypted_join(self, enc: FeasTable, plain: FeasTable) -> FeasTable:
        """AND with a cleartext table: true keeps the cyphertext, false
        gives _FALSE; the caller re-randomizes the result."""
        def combine(c, b):
            if type(c) is not dict or type(b) is dict:
                raise P2Error("encrypted join needs cyphertext AND cleartext")
            return c if b else _FALSE

        return join(enc, plain, combine=combine)

    def encrypted_project(self, enc: FeasTable) -> FeasTable:
        """OR out this variable: per remaining cell, the product of the
        cyphertexts along its axis."""
        p = self.params.p

        def reduce_or(cells):
            alpha = beta = 1
            for c in cells:
                alpha = alpha * c["alpha"] % p
                beta = beta * c["beta"] % p
            return {"alpha": alpha, "beta": beta}

        return project(enc, self.var, reduce_or)

    def iteration_propagate(self, view: PseudoTreeView):
        yield from self.exchange_codenames(view)
        x, epoch = self.var, view.epoch
        problem = self.sim.problem
        plain = boolean_local_join(problem, view, tuple(self.local_constraints))
        self.charge(plain.size())
        plain = self.apply_ancestor_codes(plain, view)

        if not view.is_root:
            m = yield from self.get("START", "FEAS", epoch=epoch)
            if m.type == "START":
                out = self._encrypt_table(project_or(plain, x))
            else:
                enc = FeasTable.from_canonical(m.payload["table"])
                enc = self.resolve_own_codes(enc)
                enc = self._rerandomized(self.encrypted_join(enc, plain))
                out = self._rerandomized(self.encrypted_project(enc))
            self.sim.note("sep", len(out.scope))
            self.route_to_previous(epoch, "FEAS",
                                   {"table": out.canonical(), "epoch": epoch})
            return None, None

        # Root: trigger the chain, collect the final table, decrypt a value.
        if view.children:
            self.route_to_previous(epoch, "START", {"epoch": epoch})
            m = yield from self.get("FEAS", epoch=epoch)
            enc = FeasTable.from_canonical(m.payload["table"])
            enc = self.resolve_own_codes(enc)
            if enc.labels() != [x]:
                raise P2Error(f"root table has unresolved labels {enc.labels()}")
            enc = self._rerandomized(self.encrypted_join(enc, plain))
        else:
            enc = self._encrypt_table(plain)
        domain = enc.scope[0].values
        decrypts = 0

        def counted_decrypt(c):
            nonlocal decrypts
            decrypts += 1
            return (yield from self.ring_decrypt_bool(c))

        value = yield from feasible_value(
            domain, enc.entries, counted_decrypt,
            lambda a, b: crypto.or_cipher(self.params, a, b))
        self.sim.note("p2_decrypt_counts", decrypts)
        return value is not None, value
