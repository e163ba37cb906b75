import itertools
from fractions import Fraction

import pytest

from balpack.bounds import corollary_bound
from balpack.core import PreconditionViolated, discrepancy, verify
from balpack.sumcode import (
    FailureRate,
    OddGroundSet,
    SumCodeParams,
    construct,
    failure_rate,
    missing_pair_predicate,
)

# Worked example on Z_12 with k=3, frozen block by block.
BLOCKS_12_3 = {
    frozenset({0, 1, 11}),
    frozenset({0, 3, 9}),
    frozenset({0, 5, 7}),
    frozenset({1, 2, 9}),
    frozenset({1, 4, 7}),
    frozenset({1, 5, 6}),
    frozenset({1, 3, 8}),
    frozenset({2, 3, 7}),
    frozenset({3, 4, 5}),
    frozenset({3, 10, 11}),
    frozenset({4, 9, 11}),
    frozenset({5, 8, 11}),
    frozenset({5, 9, 10}),
    frozenset({6, 7, 11}),
    frozenset({7, 8, 9}),
}

MISSING_MIXED_PAIRS_12 = {
    frozenset({1, 10}),
    frozenset({2, 5}),
    frozenset({2, 11}),
    frozenset({3, 6}),
    frozenset({6, 9}),
    frozenset({7, 10}),
}


def test_construct_12_3_matches_worked_example():
    p = construct(12, 3)
    assert {frozenset(b) for b in p.blocks} == BLOCKS_12_3
    assert len(p.blocks) == 15


def test_construct_12_3_is_verified_packing():
    p = construct(12, 3)
    assert (p.v, p.t, p.k) == (12, 2, 3)
    report = verify(p)
    assert report.passed
    # Strictly below the counting bound: the construction is lossy.
    assert len(p.blocks) == 15 < 18 == corollary_bound(2, 3, 12)


def test_construct_4_3_single_block():
    p = construct(4, 3)
    assert p.blocks == ((0, 1, 3),)


@pytest.mark.parametrize("v,k,blocks", [(6, 5, ((0, 1, 2, 4, 5),)), (4, 4, ())])
def test_fewer_than_two_blocks_claim_t_of_k_minus_one(v, k, blocks):
    # fewer than two blocks leave no intersection to measure: t is k - 1
    p = construct(v, k)
    assert (p.blocks, p.t) == (blocks, k - 1)


def test_parity_labeling():
    p = construct(12, 3)
    assert all(p.labeling.signs[x] == (1 if x % 2 == 0 else -1) for x in range(12))


@pytest.mark.parametrize("v,k,expected_disc", [
    (16, 4, 0),
    (16, 5, 1),
    (16, 6, 0),
    (12, 7, -1),
    (12, 3, -1),
])
def test_discrepancy_by_residue_class(v, k, expected_disc):
    p = construct(v, k)
    assert p.blocks
    discs = {discrepancy(b, p.labeling) for b in p.blocks}
    assert discs == {expected_disc}


@pytest.mark.parametrize("v,k", [(16, 4), (16, 5), (16, 6), (12, 7)])
def test_block_sums_hit_target(v, k):
    params = SumCodeParams(v, k)
    p = construct(v, k)
    for b in p.blocks:
        assert sum(b) % v == params.target
        evens = sum(1 for x in b if x % 2 == 0)
        assert evens == params.n_even + (1 if k % 4 in (0, 1) else 0)


def test_seed_counts_by_residue():
    assert (SumCodeParams(20, 8).n_even, SumCodeParams(20, 8).n_odd) == (3, 4)
    assert (SumCodeParams(20, 9).n_even, SumCodeParams(20, 9).n_odd) == (4, 4)
    assert (SumCodeParams(20, 10).n_even, SumCodeParams(20, 10).n_odd) == (5, 4)
    assert (SumCodeParams(20, 11).n_even, SumCodeParams(20, 11).n_odd) == (5, 5)
    assert SumCodeParams(20, 10).target == 1
    assert SumCodeParams(20, 8).target == 0


def test_odd_ground_set_rejected():
    with pytest.raises(OddGroundSet, match=r"^v=11 must be even and >= 2$"):
        construct(11, 3)
    with pytest.raises(OddGroundSet, match=r"^v=0 must be even and >= 2$"):
        SumCodeParams(0, 3)


def test_small_k_rejected():
    with pytest.raises(PreconditionViolated):
        construct(12, 2)


def test_missing_pairs_match_exhaustive_check_at_12():
    p = construct(12, 3)
    covered = set()
    for b in p.blocks:
        covered.update(frozenset(q) for q in itertools.combinations(b, 2))
    mixed_missing = set()
    for x, y in itertools.combinations(range(12), 2):
        if (x + y) % 2 == 1 and frozenset({x, y}) not in covered:
            mixed_missing.add(frozenset({x, y}))
    assert mixed_missing == MISSING_MIXED_PAIRS_12
    for x, y in itertools.combinations(range(12), 2):
        extendable = frozenset({x, y}) in covered
        assert missing_pair_predicate(12, x, y) == (not extendable)


@pytest.mark.parametrize("v", [8, 10, 16, 20, 30])
def test_missing_pair_predicate_agrees_with_coverage(v):
    p = construct(v, 3)
    covered = set()
    for b in p.blocks:
        covered.update(frozenset(q) for q in itertools.combinations(b, 2))
    for x, y in itertools.combinations(range(v), 2):
        assert missing_pair_predicate(v, x, y) == (frozenset({x, y}) not in covered)


def test_failure_rate_12_3_exact():
    rate = failure_rate(12, 3)
    assert isinstance(rate, FailureRate)
    # 36 seed choices, one colliding even per odd choice.
    assert rate.empirical == Fraction(6, 36) == Fraction(1, 6)
    assert rate.asymptotic == Fraction(1, 6)


def test_failure_rate_large_v_tracks_asymptote():
    rate = failure_rate(200, 3)
    assert rate.asymptotic == Fraction(1, 100)
    assert abs(rate.empirical - rate.asymptotic) <= rate.asymptotic / 4


def test_failure_rate_degenerate_smoke():
    # v=4 is far outside the asymptotic regime; just confirm it runs.
    rate = failure_rate(4, 3)
    assert 0 <= rate.empirical <= 1
    assert construct(4, 3).blocks == ((0, 1, 3),)


def test_shared_pair_forces_third_element():
    # Strength 2 for k=3: two blocks sharing a pair would share the
    # forced completion too, so no two blocks meet in 2 points.
    p = construct(20, 3)
    seen = {}
    for b in p.blocks:
        for q in itertools.combinations(b, 2):
            assert q not in seen, (q, seen[q], b)
            seen[q] = b
