"""P-DPOP and P-DPOP+: privacy-aware DPOP via codenames and obfuscation.

Variable names and domain values crossing back-edges are replaced by large
random codenames generated by the back-edge root and resolved only when the
propagation reaches it again; coding an axis and resolving it are each one
`resolve_codename` gather.  Feasibility values are obfuscated two ways: a
single random number added to the positive entries of each local join
(never subtracted, preserving the zero pattern), and per-value obfuscation
keys added at the leaf of each back-edge and subtracted at its root.  Each
key is a one-axis table, joined onto the local join when its axis is there
and onto the projected table otherwise; see `PdpopProcess.feas_phase`.

The "plus" variant sends a distinct codename package to every
(pseudo-)child, improving topology privacy at the cost of wider separators;
the "minus" variant (plain P-DPOP) reuses one package for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dpop import local_join
from .kernel import KernelProcess, PseudoTreeView
from .model import Constraint
from .runtime import Sim
from .tables import (Axis, FeasTable, join, map_entries, project_min,
                     resolve_codename)

CODE_BITS = 128


class PdpopError(RuntimeError):
    pass


@dataclass(frozen=True)
class CodenamePackage:
    """Codename material one variable hands to one (pseudo-)child.

    `domain_codes[i]` encodes the i-th true domain value; `sigma` is the
    secret permutation fixing the order in which the coded values are listed
    on a table axis (so positions leak nothing when domains are public)."""

    var_code: int
    domain_codes: tuple[int, ...]
    sigma: tuple[int, ...]

    def coded_axis_values(self) -> tuple[int, ...]:
        return tuple(self.domain_codes[j] for j in self.sigma)

    def code_of(self, value, domain) -> int:
        return self.domain_codes[list(domain).index(value)]

    def code_to_value(self, domain) -> dict:
        return {c: v for c, v in zip(self.domain_codes, domain)}


def make_codename_package(rng, domain_size: int) -> CodenamePackage:
    codes = []
    seen = set()
    while len(codes) < domain_size:
        c = rng.getrandbits(CODE_BITS)
        if c not in seen:
            seen.add(c)
            codes.append(c)
    sigma = list(range(domain_size))
    rng.shuffle(sigma)
    return CodenamePackage(var_code=rng.getrandbits(CODE_BITS),
                           domain_codes=tuple(codes), sigma=tuple(sigma))


def obfuscate_infeasible(t: FeasTable, r: int) -> FeasTable:
    """Add one positive random number to every positive entry.

    Zero (feasible) entries pass through, so the zero pattern is preserved
    and a solution with no violations stays recognizable."""
    if r < 0:
        raise PdpopError("obfuscation amount must be non-negative")
    return map_entries(t, lambda e: e + r if e > 0 else e)


class PdpopProcess(KernelProcess):
    """P-DPOP(+) state machine; also the propagation engine reused by the
    rerooted solvers."""

    def __init__(self, var: str, sim: Sim, variant: str = "plus"):
        super().__init__(var, sim)
        if variant not in ("plus", "minus"):
            raise PdpopError(f"unknown variant {variant!r}")
        self.variant = variant
        self.local_constraints: list[Constraint] = []
        # Codename and key material of the current epoch only.
        self.own_codes: dict[int, CodenamePackage] = {}  # var_code -> package
        self.recv_packages: dict[str, CodenamePackage] = {}  # ancestor -> package
        self.keys: list[FeasTable] = []  # one-axis key tables, see exchange_keys

    # -- codename and key exchange -------------------------------------------

    def exchange_codenames(self, view: PseudoTreeView):
        rng = self.sim.rng(self.var, "codes", view.epoch)
        domain = self.sim.problem.domains[self.var]
        recipients = list(view.children) + list(view.pseudo_children)
        shared = None
        if self.variant == "minus" and recipients:
            shared = make_codename_package(rng, len(domain))
        # Keyed by var_code in first-send order: the minus variant's shared
        # package is held once.
        self.own_codes = {}
        for z in recipients:
            pkg = shared if shared is not None else make_codename_package(
                rng, len(domain))
            self.own_codes[pkg.var_code] = pkg
            self.send(z, "CODES", {
                "epoch": view.epoch, "var_code": pkg.var_code,
                "codes": list(pkg.domain_codes), "sigma": list(pkg.sigma),
            })
        self.recv_packages = {}
        for y in view.ancestors_here():
            m = yield from self.get("CODES", sender=y, epoch=view.epoch)
            self.recv_packages[y] = CodenamePackage(
                var_code=m.payload["var_code"],
                domain_codes=tuple(m.payload["codes"]),
                sigma=tuple(m.payload["sigma"]),
            )

    def exchange_keys(self, view: PseudoTreeView):
        """Send each pseudo-child a fresh key and take one from each
        pseudo-parent, as the one-axis tables the FEAS phase joins: each
        sent key negated on this variable's axis, then each received key on
        its sender's codename axis.  That axis lists the coded values in the
        package's permuted order; listed unpermuted, it would expose sigma."""
        rng = self.sim.rng(self.var, "keys", view.epoch)
        b = self.sim.config.b_bits
        domain = self.sim.problem.domains[self.var]
        self.keys = []
        for z in view.pseudo_children:
            key = [rng.randrange(0, 1 << b) if b else 0 for _ in domain]
            self.keys.append(FeasTable([Axis(self.var, domain)],
                                       [-k for k in key]))
            self.send(z, "KEY", {"epoch": view.epoch, "key": key})
        for y in view.pseudo_parents:
            m = yield from self.get("KEY", sender=y, epoch=view.epoch)
            pkg = self.recv_packages[y]
            key = m.payload["key"]
            self.keys.append(FeasTable(
                [Axis(pkg.var_code, pkg.coded_axis_values())],
                [key[j] for j in pkg.sigma]))

    # -- coded feasibility propagation ----------------------------------------

    def apply_ancestor_codes(self, t: FeasTable,
                             view: PseudoTreeView) -> FeasTable:
        """Swap every (pseudo-)parent axis for its received codename axis,
        listing the coded values in the package's permuted order."""
        problem = self.sim.problem
        for y in view.ancestors_here():
            if y not in t.labels():
                continue
            pkg = self.recv_packages[y]
            t = resolve_codename(t, y, pkg.var_code,
                                 dict(zip(problem.domains[y], pkg.domain_codes)),
                                 pkg.coded_axis_values())
        return t

    def resolve_own_codes(self, t: FeasTable) -> FeasTable:
        domain = self.sim.problem.domains[self.var]
        for code, pkg in self.own_codes.items():
            if code in t.labels():
                t = resolve_codename(t, code, self.var,
                                     pkg.code_to_value(domain), domain)
        return t

    def feas_phase(self, view: PseudoTreeView):
        """Coded, obfuscated bottom-up propagation (shared with the rerooted
        solvers).

        Each key joins where the table it lands on is smallest: onto the
        local join, after obfuscation (which must see the unkeyed entries),
        when its axis is there -- always for a sent key, and for a received
        key whose back-edge constraint was joined here -- and otherwise
        onto the projected table.  Entries are ints, so the sums are exact
        and their order is free, and a received key is constant along this
        variable's axis, so it moves no column's first minimum: for a key
        whose axis the local join holds, the payload and the value
        `decision_phase` reads are the same whichever of the two tables it
        joins.  That value is read from the joined table `m`, which no late
        key reaches.

        Returns (feasible, root_value, m, seps); the first two are None at
        non-root variables, `m` is None at the root.  The root's minimum is
        obfuscated, so it tells feasibility (zero or not) and never the
        number of violated constraints."""
        x, epoch = self.var, view.epoch
        b = self.sim.config.b_bits
        m = self.apply_ancestor_codes(
            local_join(self.sim.problem, view, tuple(self.local_constraints)),
            view)
        self.charge(m.size())
        if b and any(e > 0 for e in m.entries):
            r = self.sim.rng(x, "obf", epoch).randrange(1, 1 << b)
            m = obfuscate_infeasible(m, r)
        late = []
        for key in self.keys:
            if key.scope[0].label in m.labels():
                m = join(m, key)
            else:
                late.append(key)
        seps: dict[str, list] = {}
        for c in view.children:
            msg = yield from self.get("FEAS", sender=c, epoch=epoch)
            t = FeasTable.from_canonical(msg.payload["table"])
            seps[c] = t.labels()
            t = self.resolve_own_codes(t)
            m = join(m, t)
            self.charge(m.size())
        if view.is_root:
            if m.labels() != [x]:
                raise PdpopError(
                    f"root table has unresolved labels {m.labels()}")
            final = project_min(m, x)
            self.charge(m.size())
            return (final.entries[0] == 0, m.argmin(x, {}), None, seps)
        out = project_min(m, x)
        self.charge(m.size())
        for key in late:
            # The back-edge constraint joined deeper in the subtree.  If no
            # child's table brought the coded axis either, the join
            # broadcasts the table along it, so the key still rides up to
            # the back-edge root, which subtracts every pseudo-child's key
            # unconditionally.  Joined before the children's tables, the
            # broadcast axis would come earlier in the FEAS scope.
            out = join(out, key)
        self.sim.note("sep", len(out.scope))
        self.send(view.parent, "FEAS",
                  {"table": out.canonical(), "epoch": epoch})
        return (None, None, m, seps)

    # -- coded decision propagation --------------------------------------------

    def decision_phase(self, view: PseudoTreeView, m, seps, root_value):
        """Take this variable's value, at a non-root the first minimum of
        the joined table `m` at the cell the parent's DECISION names, and
        send each child its separator's coded assignment."""
        x = self.var
        domain = self.sim.problem.domains[x]
        decided: dict = {}
        if view.is_root:
            my_value = root_value
        else:
            dm = yield from self.get("DECISION", sender=view.parent,
                                     epoch=view.epoch)
            decided = dict(dm.payload["assignment"])
            my_value = m.argmin(x, decided)
        own_codes = self.own_codes
        for c in view.children:
            assignment = []
            for label in seps[c]:
                if label in own_codes:
                    value = own_codes[label].code_of(my_value, domain)
                elif label in decided:
                    value = decided[label]
                else:
                    raise PdpopError(
                        f"{x}: no coded assignment for separator label {label}")
                assignment.append([label, value])
            self.send(c, "DECISION",
                      {"epoch": view.epoch, "assignment": assignment})
        return my_value

    # -- overall P-DPOP(+) ------------------------------------------------------

    def main(self):
        view = yield from self.first_tree()
        yield from self.exchange_codenames(view)
        yield from self.exchange_keys(view)
        feasible, root_value, m, seps = yield from self.feas_phase(view)
        my_value = yield from self.decision_phase(view, m, seps, root_value)
        out = {"value": my_value}
        if view.is_root:
            out["feasible"] = feasible
        return out
