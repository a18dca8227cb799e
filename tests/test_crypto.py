import hashlib
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from discsp import crypto
from discsp.crypto import (EXP_BITS, KeyPairShare,
                           MalformedCyphertext, encrypt, fixed_base_pow,
                           generate_group, or_cipher, partial_decrypt,
                           recover_element, rerandomize, rerandomize_entries,
                           split_public_shares, strip_share)
from discsp.experiments import instance_seed
from discsp.generators import FAMILIES, gen_graph_coloring
from discsp.runtime import RunConfig
from discsp.solvers import run_solver

TOY = crypto.TOY_GROUP
TOY64 = crypto.TOY64_GROUP
G512 = crypto.GROUP_512
GROUPS = pytest.mark.parametrize("params", [TOY, TOY64, G512],
                                 ids=["p23", "toy64", "g512"])
# The two ticket-table layouts: 3-bit windows of beta at 64 bits, one-bit
# rows of beta**-1 at 512.
TICKET_GROUPS = pytest.mark.parametrize("params", [TOY64, G512],
                                        ids=["toy64", "g512"])
# The published groups and a generated 160-bit one, whose walks reduce every
# row (above 128 bits) and whose rows cover all of [0, p - 1).
WALK_GROUPS = pytest.mark.parametrize(
    "params", [TOY, TOY64, G512, crypto.group_for_bits(160)],
    ids=["p23", "toy64", "g512", "gen160"])
# False encrypted with randomness 0: the input of P2's AND with false.
ONE = {"alpha": 1, "beta": 1}


def keypair(params, rng):
    share = crypto.generate_share(params, rng)
    return share, crypto.combine_public(params, [share.public])


def decrypts(params, c, shares) -> bool:
    """False iff the recovered element is 1; true for a small power of z;
    anything else raises MalformedCyphertext."""
    decs = [partial_decrypt(params, c, s) for s in shares]
    return params.decode(recover_element(params, c, decs)) > 0


def fresh(params, key, c, rng):
    """c re-randomized by the vector kernel, one draw from rng."""
    return rerandomize_entries(params, key, [c], rng)[0]


def test_textbook_values_p23():
    # p=23, g=5, x=6: y = 5^6 mod 23 = 8; E(false, r=3) = (8^3, 5^3) = (6, 10)
    assert TOY.p == 23 and TOY.g == 5
    share = KeyPairShare(private=6, public=pow(5, 6, 23))
    assert share.public == 8
    key = crypto.combine_public(TOY, [share.public])
    c = rerandomize(TOY, key, ONE, r=3)
    assert c == {"alpha": 6, "beta": 10}
    # decryption share beta^x = 10^6 mod 23 = 6; alpha / 6 = 1 -> false
    s = partial_decrypt(TOY, c, share)
    assert s == 6
    assert recover_element(TOY, c, [s]) == 1
    assert decrypts(TOY, c, [share]) is False


@pytest.mark.parametrize("params, draws", [
    pytest.param(TOY, 100, id="p23"), pytest.param(TOY64, 100, id="toy64"),
    pytest.param(G512, 20, id="g512")])
@pytest.mark.parametrize("bit", [False, True])
def test_roundtrip_100_randomness(params, draws, bit):
    rng = random.Random(7)
    share, key = keypair(params, rng)
    for _ in range(draws):
        c = encrypt(params, key, bit, rng)
        assert decrypts(params, c, [share]) is bit


@settings(max_examples=30, deadline=None)
@given(params=st.sampled_from([TOY, TOY64, G512]),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_rerandomize_zero_is_identity(params, seed):
    rng = random.Random(seed)
    _share, key = keypair(params, rng)
    c = encrypt(params, key, bool(seed % 2), rng)
    assert rerandomize(params, key, c, 0) == c


def test_rerandomize_chain_preserves_plaintext():
    rng = random.Random(2)
    share, key = keypair(TOY64, rng)
    c = encrypt(TOY64, key, True, rng)
    for _ in range(10):
        c = fresh(TOY64, key, c, rng)
    assert decrypts(TOY64, c, [share]) is True


def test_rerandomize_changes_representation():
    rng = random.Random(3)
    share, key = keypair(TOY64, rng)
    c = encrypt(TOY64, key, False, rng)
    c2 = fresh(TOY64, key, c, rng)
    assert c2["alpha"] != c["alpha"] and c2["beta"] != c["beta"]
    assert decrypts(TOY64, c2, [share]) is False


@WALK_GROUPS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rerandomize_entries_matches_the_per_entry_sequence(params, data):
    """The vector kernel multiplies each entry by (y**r, g**r) for one
    r = randrange(1, exp_bound) per entry, drawn in entry order: plain pow from
    an equal-seeded rng gives the same dicts.  Entries are encryptions and
    fresh {"alpha": z**k, "beta": 1} inputs; k = 0 is P2's AND with false.
    In the 5-bit group about a third of the getrandbits(5) draws fall at or
    above exp_bound - 1 = 21 and are drawn again, as randrange does."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    _share, key = keypair(params, rng)
    seed = data.draw(st.integers(0, 2 ** 32))
    old_rng = random.Random(seed)
    p = params.p
    entries, expected = [], []
    for is_fresh, k in data.draw(st.lists(st.tuples(st.booleans(),
                                                    st.integers(0, 3)),
                                          max_size=10)):
        if is_fresh:
            c = {"alpha": pow(params.z, k, p), "beta": 1}
        else:
            c = encrypt(params, key, bool(k % 2), rng)
        entries.append(c)
        r = old_rng.randrange(1, params.exp_bound)
        expected.append({"alpha": c["alpha"] * pow(key, r, p) % p,
                         "beta": c["beta"] * pow(params.g, r, p) % p})
    new_rng = random.Random(seed)
    assert rerandomize_entries(params, key, iter(entries), new_rng) == expected
    assert new_rng.getstate() == old_rng.getstate()


@GROUPS
def test_homomorphism_truth_tables(params):
    rng = random.Random(11)
    share, key = keypair(params, rng)
    for a in (False, True):
        for b in (False, True):
            c = or_cipher(params, encrypt(params, key, a, rng),
                          encrypt(params, key, b, rng))
            assert decrypts(params, c, [share]) is (a or b)
            # P2's AND with a cleartext bit: true keeps the cyphertext,
            # false takes ONE; the kernel re-randomizes either.
            c = encrypt(params, key, a, rng)
            c = fresh(params, key, c if b else ONE, rng)
            assert decrypts(params, c, [share]) is (a and b)


def test_or_of_two_trues_decodes_z_squared():
    rng = random.Random(5)
    share, key = keypair(TOY64, rng)
    c = or_cipher(TOY64, encrypt(TOY64, key, True, rng),
                  encrypt(TOY64, key, True, rng))
    element = recover_element(TOY64, c, [partial_decrypt(TOY64, c, share)])
    assert element == pow(TOY64.z, 2, TOY64.p)
    assert decrypts(TOY64, c, [share]) is True


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_compound_key_roundtrip(k):
    rng = random.Random(100 + k)
    shares = [crypto.generate_share(TOY64, rng) for _ in range(k)]
    key = crypto.combine_public(TOY64, [s.public for s in shares])
    assert key == pow(TOY64.g, sum(s.private for s in shares), TOY64.p)
    for bit in (False, True):
        c = encrypt(TOY64, key, bit, rng)
        assert decrypts(TOY64, c, shares) is bit


def test_missing_share_surfaces_error():
    rng = random.Random(9)
    shares = [crypto.generate_share(TOY64, rng) for _ in range(3)]
    key = crypto.combine_public(TOY64, [s.public for s in shares])
    failures = 0
    for i in range(20):
        c = encrypt(TOY64, key, bool(i % 2), rng)
        try:
            decrypts(TOY64, c, shares[:2])  # one missing
        except MalformedCyphertext:
            failures += 1
    assert failures == 20


@GROUPS
def test_strip_share_matches_partial_decrypt(params):
    rng = random.Random(12)
    shares = [crypto.generate_share(params, rng) for _ in range(3)]
    key = crypto.combine_public(params, [s.public for s in shares])
    c = encrypt(params, key, True, rng)
    stripped = c
    for s in shares:
        stripped = strip_share(params, stripped, s)
    assert params.decode(stripped["alpha"]) == 1


@GROUPS
def test_split_public_shares_product(params):
    rng = random.Random(21)
    share = crypto.generate_share(params, rng)
    for count in (1, 3, 7):
        subs = split_public_shares(params, share, count, rng)
        assert len(subs) == count
        prod = 1
        for y in subs:
            prod = prod * y % params.p
        assert prod == share.public


@GROUPS
def test_small_value_encoding_roundtrip(params):
    rng = random.Random(31)
    share, key = keypair(params, rng)
    for v in (-1, 0, 1):
        c = fresh(params, key, {"alpha": crypto.encode_small(params, v),
                                "beta": 1}, rng)
        element = recover_element(params, c,
                                  [partial_decrypt(params, c, share)])
        assert crypto.decode_small(params, element) == v


@GROUPS
def test_decode_small_rejects_other_elements(params):
    """1 (false), z**4 and g are no encoded vector entry."""
    for element in (1, pow(params.z, 4, params.p), params.g):
        with pytest.raises(MalformedCyphertext):
            crypto.decode_small(params, element)


class DrawLog(random.Random):
    """A Random that records the arguments and result of every randrange."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        r = super().randrange(*args)
        self.draws.append((args, r))
        return r


def secret_draws(params, seed):
    """A key share and a split into 4 sub-shares, whose draws the DrawLog
    records, then a 3-entry vector re-randomization, which draws its nonces
    inline; returns the rng, the key and the vector."""
    rng = DrawLog(seed)
    share, key = keypair(params, rng)
    split_public_shares(params, share, 4, rng)
    return rng, key, rerandomize_entries(params, key, [ONE] * 3, rng)


def replayed_nonces(params, seed, rng, key, vector):
    """Replay secret_draws with randrange on an equal-seeded Random: the
    logged draws, then one randrange(1, exp_bound) per vector entry.  Each
    entry must be ONE re-randomized with its replayed r, and the two rngs
    must end in the same state.  Returns the replayed nonces."""
    replay = random.Random(seed)
    for args, r in rng.draws:
        assert replay.randrange(*args) == r
    nonces = [replay.randrange(1, params.exp_bound) for _ in vector]
    assert all(0 < r < params.exp_bound for r in nonces)
    assert vector == [rerandomize(params, key, ONE, r) for r in nonces]
    assert rng.getstate() == replay.getstate()
    return nonces


def test_secret_exponents_are_short_at_512_bits():
    bound = 1 << EXP_BITS
    assert G512.exp_bound == bound < G512.p - 1
    for seed in range(5):
        rng, key, vector = secret_draws(G512, seed)
        assert [args for args, _r in rng.draws] == (
            [(1, bound)] + [(0, bound)] * 3)
        draws = [r for _args, r in rng.draws] + replayed_nonces(
            G512, seed, rng, key, vector)
        assert all(r < bound for r in draws)
        assert max(draws).bit_length() > EXP_BITS - 8


@pytest.mark.parametrize("params", [TOY, TOY64], ids=["p23", "toy64"])
def test_small_groups_draw_across_the_whole_range(params):
    """Up to 64 bits every draw is the randrange(1, p - 1) or
    randrange(0, p - 1) it always was, so every 64-bit transcript holds."""
    assert params.exp_bound == params.p - 1
    for seed in range(5):
        rng, key, vector = secret_draws(params, seed)
        assert [args for args, _r in rng.draws] == (
            [(1, params.p - 1)] + [(0, params.p - 1)] * 3)
        assert len(replayed_nonces(params, seed, rng, key, vector)) == 3


def test_fixed_base_walks_match_pow_at_every_exponent_width():
    """0, one exponent of each bit length up to bitlen(p), and
    2**bitlen(p) - 1 all give pow's value: up to 256 bits through the
    512-bit walks, above through plain pow."""
    p, g = G512.p, G512.g
    rng = random.Random(19)
    key = pow(g, rng.randrange(1, p - 1), p)
    exponents = [0, (1 << p.bit_length()) - 1] + [
        rng.randrange(1 << (bits - 1), 1 << bits)
        for bits in range(1, p.bit_length() + 1)]
    for e in exponents:
        assert fixed_base_pow(g, e, p) == pow(g, e, p)
        assert rerandomize(G512, key, ONE, e) == {
            "alpha": pow(key, e, p), "beta": pow(g, e, p)}


def test_512bit_single_encrypt_decrypt_under_50ms():
    rng = random.Random(41)
    share, key = keypair(G512, rng)
    t0 = time.perf_counter()
    c = encrypt(G512, key, True, rng)
    out = decrypts(G512, c, [share])
    elapsed = time.perf_counter() - t0
    assert out is True
    assert elapsed < 0.050, f"encrypt+decrypt took {elapsed * 1000:.1f} ms"


def test_generate_group_validates():
    params = generate_group(32, random.Random(6))
    params.validate()
    assert params.p.bit_length() == 32


def test_a_generated_group_is_searched_once_per_width(monkeypatch):
    """Every process of a solve asks for the group of its key width; a
    width without a published group is searched for once, not per process."""
    searches, handed_out = [], []
    generate, lookup = crypto.generate_group, crypto.group_for_bits

    def counting_generate(bits, rng):
        searches.append(bits)
        return generate(bits, rng)

    def recording_lookup(bits):
        handed_out.append(lookup(bits))
        return handed_out[-1]

    monkeypatch.setattr(crypto, "generate_group", counting_generate)
    monkeypatch.setattr(crypto, "group_for_bits", recording_lookup)
    lookup.cache_clear()
    try:
        for solver in ("p2_plus", "p32"):
            result = run_solver(solver, gen_graph_coloring(4, seed=1), seed=3,
                                config=RunConfig(key_bits=40))
            assert result.feasible is not None
    finally:
        lookup.cache_clear()
    assert searches == [40]
    assert len(handed_out) == 8
    assert all(params == handed_out[0] for params in handed_out)
    assert handed_out[0].p.bit_length() == 40


def test_group_constants_validate():
    for params in (TOY, TOY64, G512):
        params.validate()


# ------------------------------------------------- fixed-base exponentiation

def in_range_exponents(params):
    """Exponents in [0, p - 1], also drawn from [0, exp_bound) alone: at 512
    bits nearly all of [0, p - 1] lies above the tables and takes plain pow,
    and only exponents below exp_bound reach the walks."""
    p, bound = params.p, params.exp_bound
    return st.one_of(st.sampled_from([0, 1, bound - 1, p - 2, p - 1]),
                     st.integers(min_value=0, max_value=bound - 1),
                     st.integers(min_value=0, max_value=p - 1))


def table_limit(params):
    """2**(8R) for the R rows of the group's tables: the walks cover
    exactly the exponents in [0, 2**(8R))."""
    return 1 << 8 * len(crypto._fixed_base_table(params.g, params.p))


def any_exponents(params):
    """Any int: negative, below and at the table limit, and wider than p."""
    limit, width = table_limit(params), params.p.bit_length()
    return st.one_of(
        st.sampled_from([-1, 0, limit - 1, limit, 1 << width, 1 << 2 * width]),
        st.integers(),
        st.integers(max_value=-1),
        st.integers(min_value=0, max_value=limit - 1),
        st.integers(min_value=limit, max_value=1 << 2 * width))


def pair_pow(params, y, e):
    """(y**e, g**e) mod p as one pair walk: rerandomize on ONE under key y."""
    c = rerandomize(params, y, ONE, e)
    return c["alpha"], c["beta"]


def bases(params):
    """The generator g, or a random public key y = g**x."""
    return st.one_of(st.just(params.g),
                     st.integers(min_value=1, max_value=params.p - 2).map(
                         lambda x: pow(params.g, x, params.p)))


@WALK_GROUPS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_base_pow_matches_pow(params, data):
    base = data.draw(bases(params))
    e = data.draw(in_range_exponents(params))
    assert fixed_base_pow(base, e, params.p) == pow(base, e, params.p)


@WALK_GROUPS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_base_pow_pair_matches_pow(params, data):
    y = data.draw(bases(params))
    e = data.draw(in_range_exponents(params))
    assert pair_pow(params, y, e) == (pow(y, e, params.p),
                                      pow(params.g, e, params.p))


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(min_value=120, max_value=136), data=st.data())
def test_fixed_base_walks_match_pow_around_the_narrow_cut(bits, data):
    """Odd moduli on both sides of 128 bits, where the walks switch from one
    reduction at the end to one reduction per row."""
    p = data.draw(st.integers(min_value=1 << (bits - 1),
                              max_value=(1 << bits) - 1)) | 1
    y, g = (data.draw(st.integers(min_value=2, max_value=p - 1))
            for _ in range(2))
    params = crypto.make_group(p, g)
    e = data.draw(in_range_exponents(params))
    assert fixed_base_pow(y, e, p) == pow(y, e, p)
    assert pair_pow(params, y, e) == (pow(y, e, p), pow(g, e, p))
    # A strip divides by beta**x = g**x.  Up to 128 bits it raises g to
    # p - 1 - x through the 3-bit ticket table of g, on the drawn odd p.
    # Above it walks the one-bit rows of g**-1, which give the asserted
    # g**(p-1-x) only where g**(p-1) == 1, so there the strip's modulus is
    # the first prime from p up, as wide as p or wider.
    if p.bit_length() > crypto._NARROW_BITS:
        while not crypto.is_probable_prime(p):
            p += 2
        params = crypto.make_group(p, g)
    share = KeyPairShare(private=e, public=0)
    assert strip_share(params, {"alpha": y, "beta": g}, share) == {
        "alpha": y * pow(g, p - 1 - e, p) % p, "beta": g}


@WALK_GROUPS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixed_base_walks_fall_back_to_pow_off_the_table(params, data):
    """Any int exponent, negative or wider than the tables too, gives pow's
    value, and exactly the ones outside [0, 2**(8R)) take plain pow."""
    p, g = params.p, params.g
    y = data.draw(bases(params))
    e = data.draw(any_exponents(params))
    with mock.patch.object(crypto, "_pow_off_table",
                           wraps=crypto._pow_off_table) as off_table:
        assert fixed_base_pow(y, e, p) == pow(y, e, p)
        assert pair_pow(params, y, e) == (pow(y, e, p), pow(g, e, p))
    assert off_table.call_count == (0 if 0 <= e < table_limit(params) else 3)


def ticket_limit(params):
    """2**(3R) for the R rows of 3-bit windows of the group's ticket tables
    up to 128 bits, and 2**R for their R one-bit rows above."""
    rows = len(crypto._ticket_rows(params.g, params.p))
    if params.p.bit_length() > crypto._NARROW_BITS:
        return 1 << rows
    return 1 << 3 * rows


def ticket_exponent(params, x):
    """The exponent a strip with private key x walks its ticket's rows
    with: p - 1 - x up to 128 bits, and x itself above."""
    if params.p.bit_length() > crypto._NARROW_BITS:
        return x
    return params.p - 1 - x


def private_keys(params):
    """Any int private key: 0, negative, p - 1, past p - 1, and far enough
    below 0 or above it that the strip exponent is past the ticket rows."""
    p, limit = params.p, ticket_limit(params)
    width = 2 * max(p.bit_length(), limit.bit_length())
    return st.one_of(
        st.sampled_from([0, 1, -1, p - 2, p - 1, p, p - limit, p - 1 - limit,
                         limit - 1, limit]),
        st.integers(),
        st.integers(max_value=-1),
        st.integers(min_value=0, max_value=p - 1),
        st.integers(min_value=-(1 << width), max_value=-limit),
        st.integers(min_value=limit, max_value=1 << width))


@WALK_GROUPS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_strip_share_matches_pow_for_any_private_key(params, data):
    """strip_share divides alpha by beta**x for every int x.  Up to 128 bits
    it raises beta to e = p - 1 - x through the ticket table; above, it
    walks the ticket table of beta**-1 at the set bits of e = x.  Either
    way exactly the e outside [0, ticket_limit) take plain pow."""
    p = params.p
    beta, alpha = data.draw(bases(params)), data.draw(bases(params))
    x = data.draw(private_keys(params))
    with mock.patch.object(crypto, "_pow_off_table",
                           wraps=crypto._pow_off_table) as off_table:
        got = strip_share(params, {"alpha": alpha, "beta": beta},
                          KeyPairShare(private=x, public=0))
    assert got == {"alpha": alpha * pow(beta, -x, p) % p, "beta": beta}
    on_rows = 0 <= ticket_exponent(params, x) < ticket_limit(params)
    assert off_table.call_count == (0 if on_rows else 1)


def test_ticket_rows_follow_the_exponent_bound():
    """3-bit windows up to 128 bits, one row per 3 bits of the widest
    exponent below exp_bound: 2 rows of 8 in the 5-bit group, 22 at 64 bits.
    Above, one row per bit: 160 in the 160-bit group, 256 at 512 bits."""
    for params, rows in ((TOY, 2), (TOY64, 22)):
        table = crypto._ticket_rows(params.g, params.p)
        assert (len(table), {len(row) for row in table}) == (rows, {8})
    for params, rows in ((crypto.group_for_bits(160), 160), (G512, 256)):
        p = params.p
        table = crypto._ticket_rows(params.g, p)
        assert len(table) == rows
        assert table == tuple(pow(params.g, -(1 << i), p) for i in range(rows))


# Per solver, (tickets, distinct ticket betas, strips) on ring64's instance
# at 64 bits and on enc512's at 512 bits.  Every ticket meets every strip of
# the ring.  3 of p2_plus's tickets at 64 bits and 2 at 512 repeat the
# cyphertext of one that has come home, so its table is gone and they build
# their own.
TICKET_COUNTS = {"p32_plus": (848, 848, 6_784), "p2_plus": (871, 868, 6_968)}
WIDE_TICKET_COUNTS = {"p32_plus": (87, 87, 261), "p2_plus": (96, 94, 288)}


class CountingDict(dict):
    """A dict that counts the lookups `get` answers."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


def check_one_table_per_ticket(monkeypatch, solver, bits, size, index,
                               counts):
    """One table build per ticket, a hit for every other strip, no strip
    exponent past the rows, and no table left once every ticket has come
    home."""
    betas, builds, off_table = [], [], []
    strip, rows = crypto.strip_share, crypto._ticket_rows
    pow_off_table = crypto._pow_off_table

    def recording_strip(params, c, share):
        betas.append(c["beta"])
        return strip(params, c, share)

    def recording_rows(beta, p):
        builds.append(beta)
        return rows(beta, p)

    def recording_pow(base, e, p):
        off_table.append(e)
        return pow_off_table(base, e, p)

    monkeypatch.setattr(crypto, "strip_share", recording_strip)
    monkeypatch.setattr(crypto, "_ticket_rows", recording_rows)
    monkeypatch.setattr(crypto, "_pow_off_table", recording_pow)
    tables = CountingDict()
    monkeypatch.setattr(crypto, "_tickets", tables)
    seed = instance_seed(0, "coloring", size, index)
    result = run_solver(solver, FAMILIES["coloring"](size, seed), seed=seed,
                        config=RunConfig(key_bits=bits))
    assert result.feasible is True
    tickets, distinct, strips = counts[solver]
    assert len(betas) == result.metrics.stats["decrypt_partials"] == strips
    assert len(set(betas)) == len(set(builds)) == distinct
    assert len(builds) == tickets == strips // size
    assert tables.hits == strips - tickets
    assert off_table == []
    assert tables == {}


@pytest.mark.parametrize("solver", sorted(TICKET_COUNTS))
def test_one_ticket_table_per_ticket(solver, monkeypatch):
    """At 64 bits, one table of 3-bit windows per ticket."""
    check_one_table_per_ticket(monkeypatch, solver, 64, 8, 1, TICKET_COUNTS)


@pytest.mark.parametrize("solver", sorted(WIDE_TICKET_COUNTS))
def test_one_wide_ticket_table_per_ticket(solver, monkeypatch):
    """At 512 bits, one table of one-bit rows per ticket, from the same
    cache as at 64 bits."""
    check_one_table_per_ticket(monkeypatch, solver, 512, 3, 0,
                               WIDE_TICKET_COUNTS)


@pytest.mark.parametrize("solver, bits", [
    ("p32", 64), ("p32_plus", 64), ("p2", 64), ("p2_plus", 64),
    ("p32_plus", 512)])
def test_an_aborted_run_leaves_no_ticket_table(solver, bits):
    """An infeasible run stops its variables with ABORT while their last
    tickets are still on the ring; each owner drops its ticket's table when
    the ticket comes home all the same."""
    crypto._tickets.clear()
    result = run_solver(solver, FAMILIES["coloring"](6, 0), seed=0,
                        config=RunConfig(key_bits=bits))
    assert result.feasible is False
    assert crypto._tickets == {}


@pytest.mark.parametrize("solver", ["p32_plus", "p2_plus"])
def test_solvers_never_leave_the_512bit_tables(solver, monkeypatch):
    """Every exponent a 512-bit solve raises g or y to is below 2**256, so
    each takes a walk over the 32 rows of 256 and none takes plain pow."""
    off_table, walks = [], []
    pair_walk = crypto._pair_walk

    def counting_walk(*args):
        walks.append(args[1])
        return pair_walk(*args)

    monkeypatch.setattr(crypto, "_pow_off_table",
                        lambda *args: off_table.append(args))
    monkeypatch.setattr(crypto, "_pair_walk", counting_walk)
    result = run_solver(solver, gen_graph_coloring(2, seed=1), seed=3,
                        config=RunConfig(key_bits=512))
    assert result.feasible is not None
    assert off_table == [] and walks
    assert all(0 < e < G512.exp_bound for e in walks)
    table = crypto._fixed_base_table(G512.g, G512.p)
    assert (len(table), {len(row) for row in table}) == (32, {256})


def test_fixed_base_tables_stay_bounded():
    rng = random.Random(17)
    for params in (TOY64, G512, TOY64):
        for _ in range(6):
            y = pow(params.g, rng.randrange(1, params.p - 1), params.p)
            e = rng.randrange(params.p)
            pair_pow(params, y, e)
            fixed_base_pow(y, e, params.p)
            strip_share(params, {"alpha": 1, "beta": y},
                        KeyPairShare(private=e, public=0))
    info = crypto._fixed_base_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert len(crypto._tickets) <= crypto._TICKETS


@TICKET_GROUPS
def test_more_live_tickets_than_the_cache_holds(params, monkeypatch):
    """Three shares strip 2m + 1 live tickets in turn, as on a ring, where
    the cache holds m tables: each strip rebuilds its ticket's evicted table,
    keeps pow's value and leaves the cache bounded, and no table is left
    once every ticket has come home."""
    p, rng, builds = params.p, random.Random(23), []
    rows = crypto._ticket_rows

    def recording_rows(beta, p):
        builds.append(beta)
        return rows(beta, p)

    monkeypatch.setattr(crypto, "_ticket_rows", recording_rows)
    live = 2 * crypto._TICKETS + 1
    tickets = [{"alpha": rng.randrange(1, p),
                "beta": pow(params.g, rng.randrange(1, p - 1), p)}
               for _ in range(live)]
    shares = [crypto.generate_share(params, rng) for _ in range(3)]
    crypto._tickets.clear()
    for share in shares:
        for i, c in enumerate(tickets):
            tickets[i] = strip_share(params, c, share)
            assert tickets[i] == {
                "alpha": c["alpha"] * pow(c["beta"], -share.private, p) % p,
                "beta": c["beta"]}
            assert len(crypto._tickets) <= crypto._TICKETS
    assert len(builds) == len(shares) * live
    for c in tickets:
        crypto.drop_ticket(params, c)
    assert crypto._tickets == {}


@TICKET_GROUPS
def test_a_ticket_on_the_ring_keeps_its_table(params, monkeypatch):
    """A ticket keeps its table while twice as many tickets as the cache
    holds go around the ring and come home behind it."""
    p, rng, builds = params.p, random.Random(29), []
    rows = crypto._ticket_rows

    def recording_rows(beta, p):
        builds.append(beta)
        return rows(beta, p)

    monkeypatch.setattr(crypto, "_ticket_rows", recording_rows)
    share = crypto.generate_share(params, rng)
    waiting = {"alpha": 1, "beta": pow(params.g, rng.randrange(1, p - 1), p)}
    crypto._tickets.clear()
    waiting = strip_share(params, waiting, share)
    for _ in range(2 * crypto._TICKETS):
        c = {"alpha": 1, "beta": pow(params.g, rng.randrange(1, p - 1), p)}
        strip_share(params, c, share)
        crypto.drop_ticket(params, c)
    assert strip_share(params, waiting, share) == {
        "alpha": pow(waiting["beta"], -2 * share.private, p),
        "beta": waiting["beta"]}
    assert builds.count(waiting["beta"]) == 1
    assert list(crypto._tickets) == [(waiting["beta"], p)]


def test_table_rows_follow_the_exponent_bound():
    """8-bit windows at every modulus, with one row per 8 bits of the widest
    exponent below exp_bound: 1 row of 256 in the 5-bit group, 8 at 64 bits
    and 32 at 512 bits, where exponents are below 2**256."""
    for params, rows in ((TOY, 1), (TOY64, 8), (G512, 32)):
        table = crypto._fixed_base_table(params.g, params.p)
        assert (len(table), {len(row) for row in table}) == (rows, {256})


@GROUPS
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       full_width=st.booleans())
def test_strip_share_divides_out_partial_decrypt(params, seed, full_width):
    """For drawn private keys, short at 512 bits, and for keys drawn from
    all of [1, p - 1)."""
    rng = random.Random(seed)
    share, key = keypair(params, rng)
    if full_width:
        x = rng.randrange(1, params.p - 1)
        share = KeyPairShare(private=x, public=pow(params.g, x, params.p))
        key = crypto.combine_public(params, [share.public])
    c = encrypt(params, key, bool(seed % 2), rng)
    inverse = pow(partial_decrypt(params, c, share), -1, params.p)
    assert strip_share(params, c, share) == {
        "alpha": c["alpha"] * inverse % params.p, "beta": c["beta"]}


# SHA-256 of Transcript.to_jsonl() for one small encrypted run per solver,
# recorded before fixed-base exponentiation landed (the plain variants before
# the solver registry moved to process classes).  A crypto speed-up must
# produce the same group elements, and each registered name must build its
# own variant, so these digests must not move.
TRANSCRIPT_SHA256 = {
    "p32_plus": "d167edd419f5d8dfb3b846ef9fc63ebcb3661103be53a19833c4f4d51a126461",
    "p2_plus": "c538f31206a0c880eb5731043c6d1d0382f2185557a9e43cdc0ab12c0b2d8a3d",
    "p32": "9ee8bcb8e625d3778378a94192386c057925b38bf9f5e9e95612bb228c1e7a6b",
    "p2": "922ab2823cf75f28160be145caa12a3d56c8748e089db7af0e7e93186a852227",
}


@pytest.mark.parametrize("solver", sorted(TRANSCRIPT_SHA256))
def test_encrypted_run_transcript_is_pinned(solver):
    result = run_solver(solver, gen_graph_coloring(3, seed=5), seed=7,
                        config=RunConfig(key_bits=64))
    digest = hashlib.sha256(result.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == TRANSCRIPT_SHA256[solver]


# The same run at the default 512-bit group, where the fixed-base tables are
# widest: the pins above all run at 64 bits.  Drawing secret exponents below
# 2**EXP_BITS changed these digests from
#   p32_plus 755105984be20098f1dcfba00a4f4edc91cfcbcf1930a435db13f2475c5a3c15
#   p2_plus  6119823b34b8e26558469736c6d62266eb0188f75639b9747538b344f32bda21
# and moved only cyphertext values: the message counts and simulated times
# below are the ones those runs had.
TRANSCRIPT_SHA256_512 = {
    "p32_plus": "2a4c414ea1f5a1cc4d563674cbf43ee62cb5260b6e7aacbad0799347114b5fe7",
    "p2_plus": "5f9190411f319099fc623860bce41a6e9eec25b0e2c89a722a693f4228734c34",
}
MESSAGES_AND_SIM_TIME_512 = {"p32_plus": (302, 390_114),
                             "p2_plus": (344, 573_030)}


@pytest.mark.parametrize("solver", sorted(TRANSCRIPT_SHA256_512))
def test_encrypted_run_transcript_is_pinned_at_512_bits(solver):
    result = run_solver(solver, gen_graph_coloring(3, seed=5), seed=7,
                        config=RunConfig(key_bits=512))
    digest = hashlib.sha256(result.transcript.to_jsonl().encode("utf-8"))
    assert digest.hexdigest() == TRANSCRIPT_SHA256_512[solver]
    metrics = result.metrics
    assert (metrics.message_count, metrics.simulated_time) == \
        MESSAGES_AND_SIM_TIME_512[solver]
