"""Exhaustive checks for the finite-field layer.

The fields in play are tiny (q <= 64 for the axiom sweep), so rather than
sampling we enumerate everything: the axioms are checked on full operation
tables for every prime power up to 64.
"""

import itertools
import time

import pytest

from balpack import gf


def prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if not all(p % d for d in range(2, p)):
            continue
        q, m = p, 1
        while q <= limit:
            out.append((p, m, q))
            q *= p
            m += 1
    return sorted(out, key=lambda t: t[2])


ALL_PRIME_POWERS = prime_powers(64)


def op_tables(field):
    rng = range(field.q)
    addt = [[field.add(a, b) for b in rng] for a in rng]
    mult = [[field.mul(a, b) for b in rng] for a in rng]
    return addt, mult


def power(field, a, e):
    out = 1
    for _ in range(e):
        out = field.mul(out, a)
    return out


# ---------------------------------------------------------------------------
# frozen construction choices
# ---------------------------------------------------------------------------


def test_gf2_xi_is_one():
    field = gf.make_field(2, 1)
    assert field.xi_index == 1  # xi is one


def test_gf5_xi_is_two():
    field = gf.make_field(5, 1)
    assert field.modulus == (0, 1)
    assert field.xi_index == 2


def test_gf8_modulus_and_xi():
    field = gf.make_field(2, 3)
    # x^3 + x + 1, i.e. coefficient tuple 1 + x + 0*x^2 + x^3
    assert field.modulus == (1, 1, 0, 1)
    # xi = x, the element with canonical index 2
    assert field.xi_index == 2


def test_gf4_modulus():
    assert gf.make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_and_xi():
    field = gf.make_field(3, 2)
    assert field.modulus == (1, 0, 1)  # x^2 + 1
    assert field.xi_index == 4  # 1 + x


def monic(p, degree):
    """Every monic polynomial of the degree over Z_p, lowest coefficient first."""
    return [c + (1,) for c in itertools.product(range(p), repeat=degree)]


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3), (7, 2)])
def test_irreducible_agrees_with_products_of_factors(p, m):
    reducible = {poly_mul(f, g, p)
                 for d in range(1, m // 2 + 1)
                 for f in monic(p, d) for g in monic(p, m - d)}
    assert [gf._irreducible(poly, p) for poly in monic(p, m)] == [
        poly not in reducible for poly in monic(p, m)]


def test_gf5_mul_example():
    field = gf.make_field(5, 1)
    assert field.mul(3, 4) == 2


def test_gf8_reduction_example():
    field = gf.make_field(2, 3)
    x, x_sq = 2, 4  # canonical indices of x and x^2
    # x^2 * x = x^3 == x + 1 modulo x^3 + x + 1
    assert field.mul(x_sq, x) == 3


def test_mul_by_one_is_identity():
    for p, m, _q in prime_powers(16):
        field = gf.make_field(p, m)
        for a in range(field.q):
            assert field.mul(1, a) == a


def test_make_field_repeat_call_reads_the_cache():
    first = gf.make_field(3, 2)
    before = gf.make_field.cache_info()
    assert gf.make_field(3, 2) is first
    after = gf.make_field.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_not_prime():
    with pytest.raises(gf.NotPrime):
        gf.make_field(4, 1)
    with pytest.raises(gf.NotPrime):
        gf.make_field(6, 2)


def test_too_large():
    # refused before p is factored or raised to m: quickly, however large
    for p, m in [(2, 17), (257, 2), (2**61 - 1, 1), (2, 10**9), (3, 10**7), (2**16 + 1, 1)]:
        start = time.perf_counter()
        with pytest.raises(gf.TooLarge):
            gf.make_field(p, m)
        assert time.perf_counter() - start < 0.01, (p, m)


def test_cap_boundary_field_constructs():
    # 65521 is the largest prime below 2^16
    field = gf.make_field(65521, 1)
    assert field.q == 65521


# ---------------------------------------------------------------------------
# exhaustive field axioms, q <= 64
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,m,q", ALL_PRIME_POWERS)
def test_field_axioms_exhaustive(p, m, q):
    field = gf.make_field(p, m)
    addt, mult = op_tables(field)
    rng = range(q)
    zero_i = 0
    one_i = 1

    # commutativity
    for a in rng:
        ra, ma = addt[a], mult[a]
        for b in rng:
            assert ra[b] == addt[b][a]
            assert ma[b] == mult[b][a]

    # identities
    for a in rng:
        assert addt[a][zero_i] == a
        assert mult[a][one_i] == a

    # inverses: each add-row is a permutation hitting 0; each nonzero
    # mul-row is a permutation hitting 1
    for a in rng:
        assert sorted(addt[a]) == list(rng)
        assert zero_i in addt[a]
        if a != zero_i:
            assert sorted(mult[a]) == list(rng)
            assert one_i in mult[a]

    # associativity (both operations)
    for a in rng:
        ma, aa = mult[a], addt[a]
        for b in rng:
            mab, aab = mult[ma[b]], addt[aa[b]]
            mb, abt = mult[b], addt[b]
            for c in rng:
                assert mab[c] == ma[mb[c]]
                assert aab[c] == aa[abt[c]]

    # distributivity: a*(b+c) == a*b + a*c
    for a in rng:
        ma = mult[a]
        for b in rng:
            ab = ma[b]
            row = addt[ab]
            bt = addt[b]
            for c in rng:
                assert ma[bt[c]] == row[ma[c]]


@pytest.mark.parametrize("p,m,q", ALL_PRIME_POWERS)
def test_xi_has_full_order(p, m, q):
    field = gf.make_field(p, m)
    g = field.xi_index
    assert power(field, g, q - 1) == 1
    for d in range(1, q - 1):
        if (q - 1) % d == 0:
            assert power(field, g, d) != 1


@pytest.mark.parametrize("p,m,q", ALL_PRIME_POWERS)
def test_discrete_index_bijection(p, m, q):
    field = gf.make_field(p, m)
    seen = {field.discrete_index(a) for a in range(q)}
    assert seen == set(range(q))


def test_discrete_index_examples():
    field = gf.make_field(5, 1)
    assert field.discrete_index(0) == 0
    assert field.discrete_index(1) == 1
    assert field.discrete_index(4) == 3  # 2^2 = 4

    field8 = gf.make_field(2, 3)
    a = 1
    for j in range(field8.q - 1):
        assert field8.discrete_index(a) == j + 1
        a = field8.mul(a, field8.xi_index)


def _horner_blocks(field, t, points, index):
    """The reference for ``gf._code_blocks``: each polynomial's value at each
    point by Horner's rule, one field operation at a time."""
    q, blocks = field.q, []
    for coeffs in itertools.product(range(q), repeat=t):
        values = []
        for a in points:
            acc = 0
            for c in reversed(coeffs):
                acc = field.add(field.mul(acc, a), c)
            values.append(acc)
        blocks.append(tuple(r * q + index[b] for r, b in enumerate(values)))
    return tuple(sorted(blocks))


def test_eval_poly_matches_direct_sum():
    # every polynomial of degree < t at up to four points, with the points in
    # field order and the values placed by the routes' two indices
    fields = [(p, m) for p, m, _ in prime_powers(9)] + [(5, 2), (3, 3)]
    for field in itertools.starmap(gf.make_field, fields):
        q = field.q
        points = tuple(range(min(q, 4)))
        discrete = [field.discrete_index(b) for b in range(q)]
        for t in range(1, 4 if q <= 9 else 3):
            for index in (range(q), discrete):
                assert gf._code_blocks(field, t, points, index) == _horner_blocks(
                    field, t, points, index), (field.q, t)


def test_eval_poly_quadratic():
    # 1 + x^2 over GF(8) at 0, 1, xi and xi^2: one of the 512 blocks of degree < 3
    field = gf.make_field(2, 3)
    x = field.xi_index
    x2 = field.mul(x, x)
    points = (0, 1, x, x2)
    blocks = gf._code_blocks(field, 3, points, range(8))
    assert len(blocks) == len(set(blocks)) == 512
    assert (1, 8 + 0, 16 + field.add(1, x2), 24 + field.add(1, field.mul(x2, x2))) in blocks
