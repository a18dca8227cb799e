"""Cooperative ElGamal encryption of booleans over a safe-prime group.

Supports the homomorphic operations the encrypted solvers need: OR of two
cyphertexts, AND of a cyphertext with a cleartext boolean, re-randomization,
compound public keys formed as the product of per-agent shares, and
decryption split into per-share partial steps.

Encoding: false is the group identity 1, true is a fixed element z != 1 of
large prime order, so an OR-product of k trues decrypts to z**k and a
boolean decrypts as "not the identity", whatever k.  Only ``decode`` (k up
to TRUE_POWER_BOUND) and ``decode_small`` (root vector entries) read an
element as a number, and raise on one they cannot read.  In TOY_GROUP z has
order q = 11, so an OR-product of 11 trues is the identity and decrypts
false; in the 64- and 512-bit groups q is above 2**62.

A cyphertext is the canonical dict it travels as, ``{"alpha": a, "beta":
b}``, here and in every solver.  ``rerandomize_entries`` re-randomizes a
vector of them in one call and makes every cyphertext a solver sends:
``{"alpha": e, "beta": 1}`` comes out as a fresh encryption of element e,
and ``{"alpha": 1, "beta": 1}`` as P2's AND with false.  ``encrypt`` and
``rerandomize`` are its one-entry forms.

Exponent width: private keys, key sub-shares and nonces are drawn below
``GroupParams.exp_bound``, that is below 2**EXP_BITS (256) wherever p - 1 is
wider, and across the full range [1, p - 1) in the 5- and 64-bit groups.
Over a safe prime a 2k-bit exponent keeps k bits of security (van Oorschot
and Wiener, *On Diffie-Hellman key agreement with short exponents*,
EUROCRYPT '96), and ElGamal with short exponents stays semantically secure
under DDH and the short-exponent discrete-log assumption (Koshiba and
Kurosawa, *Short exponent Diffie-Hellman problems*, PKC 2004).  So 256 bits
give 2**128 against Pollard's lambda, far above what the number field sieve
needs against a 512-bit p.

Exponentiations to g and to the compound key y use cached fixed-base tables
of 8-bit windows, with just the rows that exponents below ``exp_bound`` use
(1 in TOY_GROUP, 8 at 64 bits, 32 at 512 bits), and raise y and g in one
walk over the digits of their shared exponent.  Up to 128 bits a walk
reduces mod p once at the end; above, it reduces every row.  An exponent
the rows do not cover, negative or too wide, goes to plain ``pow``; no
solver draws one.

``strip_share`` raises a decryption ticket's beta through a cached table of
its own: every share on the ring strips the same beta, so a ticket's table
is built once and walked once per share.  Up to 128 bits the table holds
3-bit windows of beta (22 rows of 8 at 64 bits) and a walk reduces once;
above, it holds beta**-1 and its squarings, one row per bit of
exp_bound - 1 (256 at 512 bits), and a walk takes one reduced product per
set bit of the share's private key.  Its owner drops a wide table when
the ticket comes home (``drop_ticket``), so the wide tables held, about
26 kB each at 512 bits, are those of the tickets on the ring, and never
more than 64.  ``partial_decrypt`` uses plain ``pow``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field


class CryptoError(ValueError):
    pass


class MalformedCyphertext(CryptoError):
    """Recovered group element is neither 1 nor a small power of z."""


# ------------------------------------------------------------------ groups

def is_probable_prime(n: int, rng=None) -> bool:
    """Miller-Rabin with 64 rounds."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    rng = rng or random.Random(0xC0FFEE ^ (n & 0xFFFF))
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Products of up to this many trues are decodable; beyond that the element
# is treated as malformed.
TRUE_POWER_BOUND = 1 << 16

# Secret exponents are drawn below 2**EXP_BITS where p - 1 is wider.
EXP_BITS = 256


def _exp_bound(p: int) -> int:
    return min(p - 1, 1 << EXP_BITS)


@dataclass(frozen=True)
class GroupParams:
    """Safe-prime group: p = 2q + 1 with q prime, g a generator of Z_p^*,
    z the true-encoding element (a generator of the order-q subgroup)."""

    p: int
    g: int
    z: int
    _z_powers: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def q(self) -> int:
        return (self.p - 1) // 2

    @functools.cached_property
    def exp_bound(self) -> int:
        """Exclusive upper bound of every secret exponent drawn in this
        group: p - 1 up to EXP_BITS-bit groups, else 2**EXP_BITS.  Computed
        once per group."""
        return _exp_bound(self.p)

    @functools.cached_property
    def _small_codes(self) -> dict[int, int]:
        """{z**(v + 2): v} for the root-vector entries v in {-1, 0, 1}."""
        return {pow(self.z, v + 2, self.p): v for v in (-1, 0, 1)}

    def validate(self):
        if not is_probable_prime(self.p) or not is_probable_prime(self.q):
            raise CryptoError("p is not a safe prime")
        if pow(self.g, 2, self.p) == 1 or pow(self.g, self.q, self.p) == 1:
            raise CryptoError("g does not generate Z_p^*")
        if self.z == 1 or pow(self.z, self.q, self.p) != 1:
            raise CryptoError("z must be a non-identity element of the order-q subgroup")

    def decode(self, element: int) -> int:
        """Return k >= 0 such that element == z**k, else raise.

        k == 0 means false; k >= 1 means an OR-product of k trues.
        """
        if element == 1:
            return 0
        if not self._z_powers:
            self._z_powers[self.z] = 1
        if element in self._z_powers:
            return self._z_powers[element]
        acc = max(self._z_powers.values())
        cur = pow(self.z, acc, self.p)
        while acc < TRUE_POWER_BOUND:
            acc += 1
            cur = cur * self.z % self.p
            self._z_powers[cur] = acc
            if cur == element:
                return acc
        raise MalformedCyphertext("recovered element is not a small power of z")


def make_group(p: int, g: int) -> GroupParams:
    """Build params from a known safe prime; z is fixed to g**2."""
    return GroupParams(p=p, g=g, z=pow(g, 2, p))


def generate_group(bits: int, rng: random.Random) -> GroupParams:
    """Probabilistic safe-prime search (Miller-Rabin, 64 rounds)."""
    if bits < 5:
        raise CryptoError("group too small")
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rng=rng):
            continue
        p = 2 * q + 1
        if p.bit_length() != bits or not is_probable_prime(p, rng=rng):
            continue
        for g in range(2, 200):
            if pow(g, 2, p) != 1 and pow(g, q, p) != 1:
                params = make_group(p, g)
                params.validate()
                return params


# Published in-repo groups: a tiny textbook group for exhaustive tests, a
# 64-bit toy group for encrypted-solver tests, and the 512-bit default.
TOY_GROUP = make_group(23, 5)
TOY64_GROUP = make_group(11881870593822888767, 5)
GROUP_512 = make_group(
    13283543209006620618882737316122394413749935301436007935858629953897489188592406634357374894532301246549631937186744522571185597391625718348457546517485563,  # noqa: E501
    2,
)

_GROUPS_BY_BITS = {5: TOY_GROUP, 64: TOY64_GROUP, 512: GROUP_512}


@functools.cache
def group_for_bits(bits: int) -> GroupParams:
    """The published group of this width, else one searched for with the
    width as seed: deterministic, so each width is searched once."""
    if bits in _GROUPS_BY_BITS:
        return _GROUPS_BY_BITS[bits]
    return generate_group(bits, random.Random(bits))


# ------------------------------------------------- fixed-base exponentiation

# Fixed-base tables index exponents by digits of this many bits.
_WINDOW = 8

# Moduli up to this width have their walks multiply the row entries together
# and reduce mod p once at the end.  At 64 bits that makes a pair walk about
# a quarter faster; near 128 bits the two ways cost about the same.  Above it
# every row is reduced as it is taken: at 512 bits the product of 32 rows
# makes a lazy walk about four times slower.
_NARROW_BITS = 128


# Ticket tables index exponents by digits of this many bits.  A ticket's
# table serves only the n strips of one ring pass, so its build must be
# cheap: at 64 bits one build and 8 walks cost least with 3-bit windows.
_TICKET_WINDOW = 3


def _window_rows(base: int, p: int, w: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds base**(d * 2**(w*i)) mod p for every digit d < 2**w
    (Brickell-Gordon-McCurley-Wilson windowing, HAC 14.6.3), for just the
    rows that exponents below exp_bound use."""
    rows = []
    step = base % p  # base**(2**(w*i))
    for _ in range(-(-(_exp_bound(p) - 1).bit_length() // w)):
        row = [1, step]
        v = step
        for _ in range(2, 1 << w):
            v = v * step % p
            row.append(v)
        step = v * step % p
        rows.append(tuple(row))
    return tuple(rows)


@functools.lru_cache(maxsize=2)
def _fixed_base_table(base: int, p: int) -> tuple[tuple[int, ...], ...]:
    """8-bit window rows of base: 8 rows of 256 at 64 bits, and 32 rows,
    about 0.8 MB, at 512 bits, where exponents are below 2**256.  So an
    exponentiation takes 8 or 32 multiplications where pow squares 63 or 255
    times.  Bases and moduli are public group values; the cache of 2 holds g
    and the current run's compound key y."""
    _pair_table.cache_clear()  # no pair may keep an evicted table alive
    return _window_rows(base, p, _WINDOW)


@functools.lru_cache(maxsize=64)
def _ticket_table(beta: int, p: int) -> tuple[tuple[int, ...], ...]:
    """3-bit window rows of a decryption ticket's beta, for moduli up to
    _NARROW_BITS: 22 rows of 8 at 64 bits, about 8 kB.  A variable has one
    ticket on the ring at a time, so the 64 entries hold every live ticket
    of a run of up to 64 variables.  Wider moduli take _wide_ticket_table."""
    return _window_rows(beta, p, _TICKET_WINDOW)


# Wide ticket tables by (beta, p), oldest first.  drop_ticket removes a
# table when its ticket comes home, so these are the tickets on the ring;
# the bound only caps what tickets that never come home leave behind.
_WIDE_TICKETS = 64
_wide_tickets: dict[tuple[int, int], tuple[int, ...]] = {}


def _wide_ticket_table(beta: int, p: int) -> tuple[int, ...]:
    """The table of a decryption ticket's beta for moduli above
    _NARROW_BITS, built on its first strip and kept until drop_ticket.  A
    variable has one ticket on the ring at a time, so the 64 entries hold
    every live ticket of a run of up to 64 variables."""
    rows = _wide_tickets.get((beta, p))
    if rows is None:
        rows = _wide_ticket_rows(beta, p)
        if len(_wide_tickets) >= _WIDE_TICKETS:
            del _wide_tickets[next(iter(_wide_tickets))]
        _wide_tickets[beta, p] = rows
    return rows


def _wide_ticket_rows(beta: int, p: int) -> tuple[int, ...]:
    """Row i is beta**-(2**i) mod p, one row per bit of exp_bound - 1: at
    512 bits 256 rows, about 26 kB, built with one inverse and 255
    squarings in a little less time than one pow(beta, -x, p).  A strip
    then takes one multiplication per set bit of x, in less than half that
    time.  Rows of one bit cost least per ticket for rings of up to 4
    variables."""
    v = pow(beta, -1, p)
    rows = [v]
    for _ in range((_exp_bound(p) - 1).bit_length() - 1):
        v = v * v % p
        rows.append(v)
    return tuple(rows)


@functools.lru_cache(maxsize=2)
def _pair_table(y: int, g: int, p: int) -> tuple:
    """Rows (y row i, g row i), shared with the single-base tables."""
    return tuple(zip(_fixed_base_table(y, p), _fixed_base_table(g, p)))


def _on_table(rows, e: int, w: int = _WINDOW) -> bool:
    """Whether the rows of a table of w-bit windows cover exponent e:
    0 <= e < 2**(w*rows).  A negative e shifts to -1, never to 0."""
    return not e >> w * len(rows)


def _pow_off_table(base: int, e: int, p: int) -> int:
    """pow(base, e, p) for an exponent no table covers; solvers draw none."""
    return pow(base, e, p)


def fixed_base_pow(base: int, e: int, p: int) -> int:
    """pow(base, e, p) via a cached table for the base: one lookup and one
    multiplication per row for an exponent the rows cover (every one below
    exp_bound), plain pow for any other e."""
    rows = _fixed_base_table(base, p)
    if not _on_table(rows, e):
        return _pow_off_table(base, e, p)
    w, mask, acc = _WINDOW, (1 << _WINDOW) - 1, 1
    if p.bit_length() <= _NARROW_BITS:
        for row in rows:
            acc *= row[e & mask]
            e >>= w
        return acc % p
    for row in rows:
        acc = acc * row[e & mask] % p
        e >>= w
    return acc


def _pair_walk(rows, e: int, p: int, acc_y: int,
               acc_g: int) -> tuple[int, int]:
    """(acc_y * y**e mod p, acc_g * g**e mod p) in one walk over the digits
    of an exponent the rows of _pair_table(y, g, p) cover."""
    w, mask = _WINDOW, (1 << _WINDOW) - 1
    if p.bit_length() <= _NARROW_BITS:
        for row_y, row_g in rows:
            d = e & mask
            acc_y *= row_y[d]
            acc_g *= row_g[d]
            e >>= w
        return acc_y % p, acc_g % p
    for row_y, row_g in rows:
        d = e & mask
        acc_y = acc_y * row_y[d] % p
        acc_g = acc_g * row_g[d] % p
        e >>= w
    return acc_y, acc_g


# ------------------------------------------------------------------- keys

@dataclass(frozen=True)
class KeyPairShare:
    private: int  # x_i in [1, exp_bound)
    public: int   # y_i = g**x_i mod p


def generate_share(params: GroupParams, rng: random.Random) -> KeyPairShare:
    x = rng.randrange(1, params.exp_bound)
    return KeyPairShare(private=x, public=fixed_base_pow(params.g, x, params.p))


def combine_public(params: GroupParams, publics) -> int:
    """The compound public key y: the product of the public parts."""
    return math.prod(publics) % params.p


def split_public_shares(params: GroupParams, share: KeyPairShare, count: int,
                        rng: random.Random) -> list[int]:
    """Split one key pair's public part into `count` sub-shares whose product
    is g**private.  Lets an agent publish several shares while keeping a
    single private exponent.  The first count - 1 are g**e for exponents
    e < exp_bound; the last is the public part divided by their product."""
    if count < 1:
        raise CryptoError("count must be >= 1")
    p = params.p
    subs = [fixed_base_pow(params.g, rng.randrange(0, params.exp_bound), p)
            for _ in range(count - 1)]
    subs.append(share.public * pow(math.prod(subs), -1, p) % p)
    return subs


# ------------------------------------------------------------- encryption

def encode_bool(params: GroupParams, m: bool) -> int:
    return params.z if m else 1


def rerandomize_entries(params: GroupParams, key: int, cyphertexts,
                        rng: random.Random) -> list[dict]:
    """Re-randomize a vector of cyphertexts into new ones, drawing one
    nonce r in [1, exp_bound) per entry in entry order.

    Each r is the one rng.randrange(1, exp_bound) would return, taken
    inline: 1 plus the first getrandbits(k) draw below exp_bound - 1, for
    k = bitlen(exp_bound - 1), the rejection loop randrange runs (CPython
    3.8-3.13).  So the draws and the rng's final state are randrange's.

    Each entry comes out as rerandomize(c, r), so {"alpha": e, "beta": 1}
    comes out as a fresh encryption of element e (1 * g**r == g**r), and
    {"alpha": 1, "beta": 1} as one of false.  The pair table is looked up
    once for the whole vector, whose draws it always covers."""
    p, width = params.p, params.exp_bound - 1
    rows = _pair_table(key, params.g, p)
    getrandbits, k = rng.getrandbits, width.bit_length()
    out = []
    for c in cyphertexts:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        alpha, beta = _pair_walk(rows, r + 1, p, c["alpha"], c["beta"])
        out.append({"alpha": alpha, "beta": beta})
    return out


def encrypt(params: GroupParams, key: int, m: bool,
            rng: random.Random) -> dict:
    return rerandomize_entries(
        params, key, [{"alpha": encode_bool(params, m), "beta": 1}], rng)[0]


def rerandomize(params: GroupParams, key: int, c: dict, r: int) -> dict:
    """Multiply in an encryption of 1 with randomness r: a pair walk for an
    r the rows cover (every one below exp_bound), plain pow for any other r.
    r == 0 leaves c unchanged."""
    p, g = params.p, params.g
    rows = _pair_table(key, g, p)
    if _on_table(rows, r):
        alpha, beta = _pair_walk(rows, r, p, c["alpha"], c["beta"])
    else:
        alpha = c["alpha"] * _pow_off_table(key, r, p) % p
        beta = c["beta"] * _pow_off_table(g, r, p) % p
    return {"alpha": alpha, "beta": beta}


def or_cipher(params: GroupParams, c1: dict, c2: dict) -> dict:
    """Component-wise product: decrypts true iff either input is true."""
    return {"alpha": c1["alpha"] * c2["alpha"] % params.p,
            "beta": c1["beta"] * c2["beta"] % params.p}


def drop_ticket(params: GroupParams, c: dict) -> None:
    """Forget the wide table of a decryption ticket that came home, once its
    owner has stripped the last share.  Up to _NARROW_BITS ticket tables
    are 8 kB and an LRU cache of 64 keeps them, so there is none to drop."""
    _wide_tickets.pop((c["beta"], params.p), None)


def partial_decrypt(params: GroupParams, c: dict, share: KeyPairShare) -> int:
    """This share's decryption contribution beta**x_i mod p, by plain pow.

    No solver calls it: they decrypt on the ring with strip_share.  Only
    perfbench's micro-probe times it, and tests use it as the reference."""
    return pow(c["beta"], share.private, params.p)


def recover_element(params: GroupParams, c: dict, decryption_shares) -> int:
    denom = math.prod(decryption_shares)
    return c["alpha"] * pow(denom, -1, params.p) % params.p


def strip_share(params: GroupParams, c: dict, share: KeyPairShare) -> dict:
    """Fold one partial decryption into alpha, leaving beta untouched.

    After all shares are stripped, alpha holds the plaintext element.  Up to
    _NARROW_BITS, where x is drawn from all of [1, p - 1), dividing by
    beta**x is multiplying by beta**(p-1-x), since beta**(p-1) == 1: a walk
    of the ticket table of beta, reducing mod p once.  Above, the walk takes
    the rows of the wide ticket table of beta**-1 at the set bits of x,
    reducing at each: at 512 bits about 128 products, where
    pow(beta, -x, p) takes an inverse and about 300.  Either way the value
    is alpha * beta**-x mod p, and an exponent the rows do not cover goes
    to plain pow; no solver draws one, since every x is in [1, exp_bound)."""
    p, beta, x = params.p, c["beta"], share.private
    if p.bit_length() > _NARROW_BITS:
        rows = _wide_ticket_table(beta, p)
        if not _on_table(rows, x, 1):
            return {"alpha": c["alpha"] * _pow_off_table(beta, -x, p) % p,
                    "beta": beta}
        acc = c["alpha"]
        for row, bit in zip(rows, bin(x)[:1:-1]):
            if bit == "1":
                acc = acc * row % p
        return {"alpha": acc, "beta": beta}
    e = p - 1 - x
    rows = _ticket_table(beta, p)
    if not _on_table(rows, e, _TICKET_WINDOW):
        return {"alpha": c["alpha"] * _pow_off_table(beta, e, p) % p,
                "beta": beta}
    w, mask, acc = _TICKET_WINDOW, (1 << _TICKET_WINDOW) - 1, c["alpha"]
    for row in rows:
        acc *= row[e & mask]
        e >>= w
    return {"alpha": acc % p, "beta": beta}


# Small-integer encoding used by the rerooting vectors: value v in {-1, 0, 1}
# is encrypted as z**(v + 2), i.e. z, z**2 or z**3.

def encode_small(params: GroupParams, v: int) -> int:
    if v not in (-1, 0, 1):
        raise CryptoError("vector entries must be in {-1, 0, 1}")
    return pow(params.z, v + 2, params.p)


def decode_small(params: GroupParams, element: int) -> int:
    v = params._small_codes.get(element)
    if v is None:
        raise MalformedCyphertext("element is not an encoded vector entry")
    return v

