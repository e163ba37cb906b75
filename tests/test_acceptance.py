"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Fixture arrays are frozen copies of the published
worked examples; every numeric check is exact, and time caps are
asserted where the criterion carries one.
"""

import itertools
import time

import pytest

from balpack import gf
from balpack.babai_frankl import construct as bf_construct
from balpack.bounds import corollary_bound, lemma1_bound, theorem1_gap
from balpack.cli import latin_dispatch
from balpack.core import (
    Labeling,
    PreconditionViolated,
    discrepancy,
    from_json,
    max_pairwise_intersection,
    to_json,
    verify,
)
from balpack.factorization import (
    from_one_factorization,
    large_set_sts,
    mds_product,
    one_factorization,
    product,
    singleton_classes,
    triples_from_factorization,
)
from balpack.latin import (
    SeedInvalid,
    SeedSets,
    augment_column,
    fill,
    seed_sets,
)
from balpack.oracle import max_balanced_packing
from balpack.sumcode import construct as sum_construct
from balpack.transversal import augment_34, augment_34_char2, construct_td_sum


def parse_rows(text):
    rows = []
    for line in text.strip().splitlines():
        row = []
        for tok in line.split():
            if tok.startswith("["):
                row.append((int(tok[1:-1]), True))
            else:
                row.append((int(tok), False))
        rows.append(tuple(row))
    return tuple(rows)


SQUARE8 = parse_rows(
    """
    7   5   [5] [4] [3] [2] 3   1
    6   [4] [3] [2] [1] 4   2   0
    [3] [2] [1] [0] 5   3   1   7
    [1] [0] [7] 6   4   2   0   [2]
    [7] [6] 7   5   3   1   [1] [0]
    [5] 0   6   4   2   [0] [7] [6]
    1   7   5   3   [7] [6] [5] [4]
    0   6   4   [6] [5] [4] [3] 2
    """
)

TRIPLES16 = {
    (0, 7, 8), (1, 6, 8), (0, 5, 9), (6, 7, 9),
    (4, 7, 10), (5, 6, 10), (3, 6, 11), (4, 5, 11),
    (2, 5, 12), (3, 4, 12), (1, 4, 13), (2, 3, 13),
    (0, 3, 14), (1, 2, 14), (0, 1, 15), (2, 7, 15),
    (0, 10, 13), (0, 11, 12), (1, 9, 12), (1, 10, 11),
    (2, 8, 11), (2, 9, 10), (3, 8, 9), (3, 10, 15),
    (4, 8, 15), (4, 9, 14), (5, 8, 13), (5, 14, 15),
    (6, 12, 15), (6, 13, 14), (7, 11, 14), (7, 12, 13),
}

SUM_BLOCKS_12_3 = {
    (0, 1, 11), (0, 3, 9), (0, 5, 7), (1, 2, 9), (1, 4, 7),
    (1, 5, 6), (1, 3, 8), (2, 3, 7), (3, 4, 5), (3, 10, 11),
    (4, 9, 11), (5, 8, 11), (5, 9, 10), (6, 7, 11), (7, 8, 9),
}

SUM_MISSING_PAIRS_12 = {
    (1, 10), (2, 5), (2, 11), (3, 6), (6, 9), (7, 10),
}


def test_criterion_01_latin_dispatcher_extremal_for_even_v():
    t0 = time.monotonic()
    for v in range(8, 65, 2):
        packing = latin_dispatch(v)
        assert packing.n_blocks == v * v // 8, v
        assert verify(packing).passed, v
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_printed_8x8_rectangle_and_triples():
    t0 = time.monotonic()
    rect = fill(seed_sets(8))
    assert rect.cells == SQUARE8
    packing = latin_dispatch(16)
    assert {tuple(b) for b in packing.blocks} == TRIPLES16
    assert packing.n_blocks == 32
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_augmented_column_route():
    t0 = time.monotonic()
    for v in (9, 13, 17, 21):
        packing = latin_dispatch(v)
        assert packing.n_blocks == (v // 2) * ((v + 1) // 2) // 2, v
        assert verify(packing).passed, v
    rect = augment_column(fill(seed_sets(8)))
    appended = tuple(rect.cell(i, 8) for i in range(8))
    assert appended == tuple((x, False) for x in (4, 5, 6, 7, 0, 1, 2, 3))
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_matching_triples_route():
    t0 = time.monotonic()
    for p_plus, p_minus in ((6, 3), (8, 7), (10, 9), (12, 11)):
        packing = triples_from_factorization(p_plus, p_minus)
        assert packing.n_blocks == p_plus * p_minus // 2
        assert verify(packing).passed
    assert time.monotonic() - t0 < 1.0


def test_criterion_05_transversal_augmentation():
    t0 = time.monotonic()
    big = augment_34(4)
    assert big.n_blocks == 112
    td_blocks = set(construct_td_sum(3, 4).blocks)
    assert len(td_blocks) == 64
    assert td_blocks <= set(big.blocks)
    assert len(set(big.blocks) - td_blocks) == 48
    assert verify(big).passed

    small = augment_34(2)
    assert small.n_blocks == 12 == corollary_bound(3, 4, 8)
    assert verify(small).passed

    for m in (2, 4, 8):
        char2 = augment_34_char2(m)
        assert char2.n_blocks == corollary_bound(3, 4, 4 * m), m
        assert verify(char2).passed, m
    assert time.monotonic() - t0 < 10.0


def test_criterion_06_polynomial_families():
    t0 = time.monotonic()
    for q, k, t in ((5, 3, 2), (5, 4, 2), (7, 4, 2), (8, 5, 2), (9, 4, 3)):
        packing = bf_construct(q, k, t)
        assert packing.n_blocks == q ** t
        assert max_pairwise_intersection(packing.blocks) <= t - 1
        discs = {discrepancy(b, packing.labeling) for b in packing.blocks}
        assert discs == ({0} if k % 2 == 0 else {-1}), (q, k, t)
        assert verify(packing).passed
    assert time.monotonic() - t0 < 5.0


def test_criterion_07_sum_family_fixture():
    t0 = time.monotonic()
    packing = sum_construct(12, 3)
    assert {tuple(b) for b in packing.blocks} == SUM_BLOCKS_12_3
    covered = set()
    for b in packing.blocks:
        covered.update(itertools.combinations(b, 2))
    missing_mixed = {
        pair
        for pair in itertools.combinations(range(12), 2)
        if (pair[0] + pair[1]) % 2 == 1 and pair not in covered
    }
    assert missing_mixed == SUM_MISSING_PAIRS_12
    assert time.monotonic() - t0 < 1.0


def test_criterion_08_oracle_agreement():
    t0 = time.monotonic()
    for v, expected in ((8, 8), (9, 10), (10, 12)):
        result = max_balanced_packing(2, 3, v)
        assert result.exact, v
        assert result.size == expected == (v // 2) * ((v + 1) // 2) // 2, v
        assert verify(result.witness).passed, v
        assert result.witness.n_blocks == expected
    assert time.monotonic() - t0 < 600.0


def test_criterion_09_bounds_consistency():
    assert lemma1_bound(2, 3, 6, 3) == 9
    assert lemma1_bound(3, 4, 8, 8) == 112
    assert corollary_bound(2, 3, 9) == 10
    families = [
        latin_dispatch(9),
        latin_dispatch(11),
        latin_dispatch(12),
        latin_dispatch(16),
        bf_construct(5, 3, 2),
        bf_construct(9, 4, 3),
        augment_34(4),
        augment_34_char2(4),
        sum_construct(12, 3),
        triples_from_factorization(8, 7),
        mds_product(large_set_sts(9)),
    ]
    for packing in families:
        report = verify(packing)
        assert report.bound is not None, (packing.t, packing.k, packing.v)
        assert packing.n_blocks <= report.bound
        assert report.bound_ok is True


def test_criterion_10_strict_gap_sweep():
    # Known red: the counting bound is weak when t and k are both odd (a
    # deficit-one block spends more t-subsets than a surplus-one block, and
    # the divisor keeps the smaller of the two yields), so the bound can sit
    # above the Steiner ratio.  The smallest case is (3,5,7): bound 4 vs 7/2.
    t0 = time.monotonic()
    checked = 0
    violations = []
    for t in range(2, 8):
        for k in range(t + 1, 9):
            for v in range(k + 1, 41):
                try:
                    gap = theorem1_gap(t, k, v)
                except PreconditionViolated:
                    continue
                checked += 1
                if not gap.strict:
                    violations.append((t, k, v, gap.bound, gap.steiner))
    assert checked > 0
    assert time.monotonic() - t0 < 1.0
    classes = sorted({(t, k) for t, k, *_ in violations})
    assert not violations, (
        f"{len(violations)}/{checked} grid points have bound >= steiner, "
        f"all with t and k both odd: (t,k) in {classes}; "
        f"first: {violations[0]}"
    )


def test_criterion_11_product_constructions():
    t0 = time.monotonic()
    for m in (2, 3, 4, 5):
        factors = from_one_factorization(one_factorization(2 * m))
        three = product(factors, singleton_classes(2 * m - 1))
        assert three.n_blocks == m * (2 * m - 1), m
        assert verify(three).passed
        four = product(factors, factors)
        assert four.n_blocks == m * m * (2 * m - 1), m
        assert verify(four).passed

    large = large_set_sts(9)
    assert large.n_classes == 7
    all_blocks = large.all_blocks
    assert len(all_blocks) == 84
    assert set(all_blocks) == set(itertools.combinations(range(9), 3))

    mds = mds_product(large)
    assert (mds.t, mds.k, mds.v) == (5, 6, 18)
    assert verify(mds).passed
    assert time.monotonic() - t0 < 120.0


def _prime_powers(limit):
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        q, m = p, 1
        while q <= limit:
            out.append((p, m, q))
            q, m = q * p, m + 1
    return sorted(out, key=lambda x: x[2])


def test_criterion_12_property_suite():
    # Field axioms, exhaustively, for every prime power up to 64.
    for p, m, q in _prime_powers(64):
        field = gf.make_field(p, m)
        rng = range(q)
        add = [[field.add(a, b) for b in rng] for a in rng]
        mul = [[field.mul(a, b) for b in rng] for a in rng]
        zero_i, one_i = 0, 1
        for a in rng:
            assert add[a][zero_i] == a and mul[a][one_i] == a
            assert sorted(add[a]) == list(rng)
            if a != zero_i:
                assert sorted(mul[a]) == list(rng)
        for a in rng:
            add_a, mul_a = add[a], mul[a]
            for b in rng:
                assert add_a[b] == add[b][a] and mul_a[b] == mul[b][a]
                add_ab, mul_ab = add[add_a[b]], mul[mul_a[b]]
                add_b, mul_b = add[b], mul[b]
                for c in rng:
                    assert mul_ab[c] == mul_a[mul_b[c]]
                    assert add_ab[c] == add_a[add_b[c]]
                    assert mul_a[add_b[c]] == add[mul_a[b]][mul_a[c]]

    # Discrepancy parity, exhaustively on a 6-point ground set.
    for raw_signs in itertools.product((1, -1), repeat=6):
        labeling = Labeling(raw_signs)
        for size in range(1, 7):
            for block in itertools.combinations(range(6), size):
                assert (discrepancy(block, labeling) - size) % 2 == 0

    # Serialization round-trip on real constructions.
    for packing in (
        latin_dispatch(9),
        bf_construct(5, 4, 2),
        sum_construct(12, 3),
        augment_34(2),
    ):
        text = to_json(packing)
        assert from_json(text) == packing
        assert to_json(from_json(text)) == text

    # Corrupting a seed pair must surface as a detected row repeat.
    with pytest.raises(SeedInvalid, match="row .* repeats"):
        fill(SeedSets(8, ((0, 6), (1, 7)), ((2, 5), (3, 4))))
