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
(1 in TOY_GROUP, 8 at 64 bits, 32 at 512 bits).  Re-randomization raises y
and g in one walk over the digits of their shared exponent, through the
rows of the two tables zipped once per call; up to 128 bits that walk
reduces mod p once at the end, above it every row.  ``fixed_base_pow``,
which only key set-up calls, reduces every row at every width.  An
exponent the rows do not cover, negative or too wide, goes to plain
``pow``; no solver draws one.

``strip_share`` raises a decryption ticket's beta through a table of its
own: every share on the ring strips the same beta, so a ticket's table is
built on its first strip and walked once per share.  Up to 128 bits the
table holds 3-bit windows of beta (22 rows of 8 at 64 bits) and a walk
reduces once; above, it holds beta**-1 and its squarings, one row per bit
of exp_bound - 1 (256 at 512 bits), and a walk takes one reduced product
per set bit of the share's private key.  At every width the owner drops a
ticket's table when the ticket comes home (``drop_ticket``), so the tables
held, about 8 kB each at 64 bits and 26 kB at 512, are those of the
tickets on the ring, and never more than 64.  ``partial_decrypt`` uses
plain ``pow``.
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
            raise CryptoError(
                "z must be a non-identity element of the order-q subgroup")

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
        raise MalformedCyphertext(
            "recovered element is not a small power of z")


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

# The cut between narrow and wide moduli.  Up to this width the pair walk
# and the strip multiply their row entries together and reduce mod p once at
# the end (at 64 bits a pair walk is about a quarter faster; near 128 bits
# the two ways cost about the same), and a ticket's table holds 3-bit windows
# of beta.  Above it every row is reduced as it is taken (at 512 bits the
# product of 32 rows makes a lazy walk about four times slower), and a
# ticket's table holds one-bit rows of beta**-1.
_NARROW_BITS = 128


# Narrow ticket tables index exponents by digits of this many bits.  A
# ticket's table serves only the n strips of one ring pass, so its build must
# be cheap: at 64 bits one build and 8 walks cost least with 3-bit windows.
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
    and the current run's compound key y, whose rows a pair walk takes
    zipped."""
    return _window_rows(base, p, _WINDOW)


# Ticket tables by (beta, p), oldest first: strip_share adds a ticket's
# table on its first strip and drop_ticket removes it when the ticket comes
# home, so these are the tickets on the ring.  A variable has one ticket on
# the ring at a time, so 64 tables hold every live ticket of a run of up to
# 64 variables; the bound also caps what tickets that never come home (a run
# past its deadline) leave behind.
_TICKETS = 64
_tickets: dict[tuple[int, int], tuple] = {}


def _ticket_rows(beta: int, p: int) -> tuple:
    """The table of a decryption ticket's beta.  Up to _NARROW_BITS, 3-bit
    window rows of beta, walked with p - 1 - x: 22 rows of 8 at 64 bits,
    about 8 kB.  Above, row i is beta**-(2**i) mod p, one row per bit of
    exp_bound - 1: at 512 bits 256 rows, about 26 kB, built with one inverse
    and 255 squarings in a little less time than one pow(beta, -x, p).  A
    strip then takes one multiplication per set bit of x, in less than half
    that time.  Each layout costs least per ticket on its side of the cut:
    at 64 bits with 8 strips, and at 512 bits for rings of up to 4
    variables."""
    if p.bit_length() <= _NARROW_BITS:
        return _window_rows(beta, p, _TICKET_WINDOW)
    v = pow(beta, -1, p)
    rows = [v]
    for _ in range((_exp_bound(p) - 1).bit_length() - 1):
        v = v * v % p
        rows.append(v)
    return tuple(rows)


def _on_table(rows, e: int, w: int = _WINDOW) -> bool:
    """Whether the rows of a table of w-bit windows cover exponent e:
    0 <= e < 2**(w*rows).  A negative e shifts to -1, never to 0."""
    return not e >> w * len(rows)


def _pow_off_table(base: int, e: int, p: int) -> int:
    """pow(base, e, p) for an exponent no table covers; solvers draw none."""
    return pow(base, e, p)


def fixed_base_pow(base: int, e: int, p: int) -> int:
    """pow(base, e, p) via a cached table for the base: one lookup and one
    reduced multiplication per row for an exponent the rows cover (every
    one below exp_bound), plain pow for any other e."""
    rows = _fixed_base_table(base, p)
    if not _on_table(rows, e):
        return _pow_off_table(base, e, p)
    mask, acc = (1 << _WINDOW) - 1, 1
    for row in rows:
        acc = acc * row[e & mask] % p
        e >>= _WINDOW
    return acc


def _pair_walk(rows, e: int, p: int, acc_y: int,
               acc_g: int) -> tuple[int, int]:
    """(acc_y * y**e mod p, acc_g * g**e mod p) in one walk over the digits
    of e, where rows zips the rows of _fixed_base_table(y, p) and
    _fixed_base_table(g, p) and covers e."""
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
    return KeyPairShare(private=x,
                        public=fixed_base_pow(params.g, x, params.p))


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
    {"alpha": 1, "beta": 1} as one of false.  The rows of the key's and
    g's tables are zipped once for the whole vector, whose draws they
    always cover."""
    p, g, width = params.p, params.g, params.exp_bound - 1
    rows = tuple(zip(_fixed_base_table(key, p), _fixed_base_table(g, p)))
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
    rows = tuple(zip(_fixed_base_table(key, p), _fixed_base_table(g, p)))
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
    """Forget the table of a decryption ticket that came home, once its
    owner has stripped the last share or has stopped waiting for it."""
    _tickets.pop((c["beta"], params.p), None)


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

    The ticket's table is built on its first strip and kept in _tickets
    until drop_ticket; once 64 are held, the oldest goes.  After all shares
    are stripped, alpha holds the plaintext element.  Up to _NARROW_BITS,
    where x is drawn from all of [1, p - 1), dividing by beta**x is
    multiplying by beta**(p-1-x), since beta**(p-1) == 1: a walk of the
    3-bit windows of beta, reducing mod p once.  Above, the walk takes the
    rows of beta**-1 and its squarings at the set bits of x, reducing at
    each: at 512 bits about 128 products, where pow(beta, -x, p) takes an
    inverse and about 300.  Either way the value is alpha * beta**-x mod p,
    and an exponent the rows do not cover goes to plain pow; no solver
    draws one, since every x is in [1, exp_bound)."""
    p, beta, x = params.p, c["beta"], share.private
    rows = _tickets.get((beta, p))
    if rows is None:
        if len(_tickets) >= _TICKETS:
            del _tickets[next(iter(_tickets))]
        rows = _tickets[beta, p] = _ticket_rows(beta, p)
    if p.bit_length() > _NARROW_BITS:
        if not _on_table(rows, x, 1):
            return {"alpha": c["alpha"] * _pow_off_table(beta, -x, p) % p,
                    "beta": beta}
        acc = c["alpha"]
        for row, bit in zip(rows, bin(x)[:1:-1]):
            if bit == "1":
                acc = acc * row % p
        return {"alpha": acc, "beta": beta}
    e = p - 1 - x
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

