"""P^3/2-DPOP(+): rerooted propagation with full decision privacy.

Decision propagation is removed entirely: only the root of each iteration
learns a value (its own), then grounds it with a private unary constraint
and the pseudo-tree is rebuilt around the next root.  The root order is
hidden by encrypted root vectors that every agent shuffles with a secret
permutation; popping and collaboratively decrypting vector entries reveals,
per iteration, to exactly one variable that its turn has come.

All ring traffic (key shares, vectors, decryption tickets) rides the
circular order of the initial temporary pseudo-tree (epoch 0), which is the
only ring guaranteed complete at all times; per-iteration trees are used for
the tree-shaped propagation phases only.
"""

from __future__ import annotations

from . import crypto
from .kernel import PseudoTreeView
from .model import Constraint
from .pdpop import PdpopProcess
from .runtime import Msg, Sim


# Simulated compute units charged per modular exponentiation.
CRYPTO_COST_UNITS = 1000


class P32Error(RuntimeError):
    pass


class P32Process(PdpopProcess):
    """One variable's state machine for the rerooted encrypted solvers."""

    INTERCEPTS = PdpopProcess.INTERCEPTS | {"VECT", "DECR", "ABORT"}

    def __init__(self, var: str, sim: Sim, variant: str = "plus"):
        super().__init__(var, sim, variant)
        self.params = crypto.group_for_bits(sim.config.key_bits)
        self.key_share: crypto.KeyPairShare | None = None
        self.compound: int | None = None  # the compound public key y
        self.my_vect_id: int | None = None
        self.perm: list[int] = []
        self.ticket: int | None = None  # codename of our DECR on the ring
        self.crypto_rng = sim.rng(var, "crypto")
        self.ticket_rng = sim.rng(var, "ticket")

    # -- crypto helpers -------------------------------------------------------

    def charge_exps(self, n: int):
        self.charge(n * CRYPTO_COST_UNITS)

    # -- phase 1: shares ------------------------------------------------------

    def setup_compound_key(self):
        """Circulate public key shares, one per ID this variable holds (its
        own and the unassigned ones up to next_bound); every variable ends
        with the same compound key built from all n+ shares.

        A variable forwards every share but its own, which it tells by
        position, not by value: in a small group two variables can draw
        equal shares.  Each variable sends all its own shares before it
        forwards any, and the epoch-0 ring is FIFO (every hop forwards in
        arrival order).  So the shares arrive in ring order: those of the
        variable whose previous this one is, then those of the variable
        before that, and so on round the ring, and this variable's own come
        back as the last ``len(publics)`` of its ``total_bound`` arrivals.
        """
        ids, rng = self.ids, self.crypto_rng
        self.key_share = crypto.generate_share(self.params, rng)
        publics = crypto.split_public_shares(
            self.params, self.key_share, ids.next_bound - ids.id + 1, rng)
        for share in publics:
            self.route_to_previous(0, "SHARE", {"share": share})
        collected = []
        others = ids.total_bound - len(publics)
        for i in range(ids.total_bound):
            m = yield from self.get("SHARE")
            share = m.payload["share"]
            collected.append(share)
            if i < others:
                self.route_to_previous(0, "SHARE", {"share": share})
        self.compound = crypto.combine_public(self.params, sorted(collected))
        return self.compound

    # -- phase 2: vector shuffling ---------------------------------------------

    def start_shuffle(self):
        ids = self.ids
        n_plus = ids.total_bound
        entries = []
        for j in range(n_plus):
            if j == ids.id:
                entries.append(0)
            elif ids.id < j <= ids.next_bound:
                entries.append(-1)
            else:
                entries.append(1)
        rng = self.sim.rng(self.var, "shuffle")
        self.my_vect_id = rng.getrandbits(128)
        self.perm = list(range(n_plus))
        rng.shuffle(self.perm)
        vect = crypto.rerandomize_entries(
            self.params, self.compound,
            ({"alpha": crypto.encode_small(self.params, v), "beta": 1}
             for v in entries),
            self.crypto_rng)
        self.sim.stat("p32_shuffle_enc", n_plus)
        self.charge_exps(2 * n_plus)
        self.route_to_previous(0, "VECT", {
            "id": self.my_vect_id, "round": 1, "vector": vect,
        })

    def _handle_vect(self, payload: dict):
        """One ring hop of a root vector of canonical cyphertext dicts; our
        own vector coming home is handed back as a local, unsent HOME."""
        vect = payload["vector"]
        vid, rnd = payload["id"], payload["round"]
        if rnd == 1:
            if vid != self.my_vect_id:
                # The entries of the unassigned IDs we hold become fresh
                # encryptions of -1; later rounds pass the vector as it is.
                # The received vector is a posted payload, which no process
                # may change, so the slots are overwritten in a copy.
                minus_one = {"alpha": crypto.encode_small(self.params, -1),
                             "beta": 1}
                vect = list(vect)
                for j in range(self.ids.id + 1, self.ids.next_bound + 1):
                    vect[j] = minus_one
            else:
                rnd += 1
        if rnd > 1 and self.views[0].is_root:
            rnd += 1
        if rnd == 3:
            vect = [vect[j] for j in self.perm]
        if rnd == 4 and vid == self.my_vect_id:
            return Msg("HOME", {"vector": vect})
        out = crypto.rerandomize_entries(self.params, self.compound, vect,
                                         self.crypto_rng)
        self.sim.stat("p32_shuffle_enc", len(out))
        self.charge_exps(2 * len(out))
        self.route_to_previous(0, "VECT", {
            "id": vid, "round": rnd, "vector": out,
        })

    def shuffle_vectors(self):
        """Returns our root vector, shuffled by every variable."""
        self.start_shuffle()
        m = yield from self.get("HOME")
        return m.payload["vector"]

    # -- collaborative decryption ------------------------------------------------

    def ring_decrypt_element(self, c: dict) -> int:
        """Send a decryption ticket around the epoch-0 ring; every other
        variable strips its share, and we finish with our own."""
        self.ticket = self.ticket_rng.getrandbits(128)
        self.route_to_previous(0, "DECR", {
            "codename": self.ticket, "alpha": c["alpha"], "beta": c["beta"]})
        m = yield from self.get("DECR", codename=self.ticket)
        final = crypto.strip_share(self.params, m.payload, self.key_share)
        crypto.drop_ticket(self.params, m.payload)
        self.sim.stat("decrypt_partials")
        self.charge_exps(1)
        return final["alpha"]

    def ring_decrypt_small(self, c: dict) -> int:
        element = yield from self.ring_decrypt_element(c)
        return crypto.decode_small(self.params, element)

    def ring_decrypt_bool(self, c: dict) -> bool:
        element = yield from self.ring_decrypt_element(c)
        return element != 1  # z**k for an OR of k >= 1 trues, k unbounded

    # -- standing services ----------------------------------------------------------

    def intercept(self, msg: Msg):
        if msg.type == "VECT":
            return self._handle_vect(msg.payload)
        if msg.type == "DECR":
            if msg.payload["codename"] == self.ticket:
                # Our ticket coming home: let the waiter match it, or, once
                # an ABORT has ended our run and nothing waits, forget its
                # table.
                if self.done:
                    crypto.drop_ticket(self.params, msg.payload)
                return msg
            partial = crypto.strip_share(self.params, msg.payload,
                                         self.key_share)
            self.sim.stat("decrypt_partials")
            self.charge_exps(1)
            self.route_to_previous(0, "DECR", {
                "codename": msg.payload["codename"], **partial})
            return None
        if msg.type == "ABORT":
            view = self.views[msg.payload["epoch"]]
            for c in view.children:
                self.send(c, "ABORT", msg.payload)
            self.aborted = True
            return None
        return super().intercept(msg)

    # -- per-iteration propagation (overridden by P2) ---------------------------------

    def iteration_propagate(self, view: PseudoTreeView):
        """Returns (feasible, root_value) at the root, (None, None) elsewhere."""
        yield from self.exchange_codenames(view)
        yield from self.exchange_keys(view)
        feasible, root_value, _m, _seps = yield from self.feas_phase(view)
        return feasible, root_value

    def ground(self, value):
        """Pin this variable to `value`; it is root, so grounded, once."""
        x = self.var
        domain = self.sim.problem.domains[x]
        self.local_constraints.append(Constraint.from_predicate(
            (x,), (domain,), lambda v: v == value, name=f"ground_{x}"))

    # -- main -------------------------------------------------------------------------

    def main(self):
        yield from self.first_tree()
        yield from self.assign_ids()
        yield from self.setup_compound_key()
        vector = yield from self.shuffle_vectors()

        out = {}
        epoch = 0
        for c in vector:
            # Reroot: decrypt entries in turn, skipping unassigned-ID slots.
            entry = yield from self.ring_decrypt_small(c)
            if entry == -1:
                continue
            epoch += 1
            i_am_root = entry == 0
            view = yield from self.build_tree(epoch, i_am_root)
            feasible, root_value = yield from self.iteration_propagate(view)
            if not i_am_root:
                continue
            self.sim.note("roots", self.var)
            if not feasible:
                if epoch != 1:
                    raise P32Error(
                        f"infeasibility surfaced at iteration {epoch}")
                for child in view.children:
                    self.send(child, "ABORT", {"epoch": epoch})
                return {"feasible": False}
            out["value"] = root_value
            if epoch == 1:
                out["feasible"] = True
            self.ground(root_value)
        if "value" not in out:
            raise P32Error(f"{self.var} never became root")
        return out
