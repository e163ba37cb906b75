"""Cross-module invariants, exercised on generated inputs."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from balpack import babai_frankl
from balpack.core import (
    BalancedPacking,
    Labeling,
    discrepancy,
    from_json,
    to_json,
    verify,
)
from balpack.factorization import one_factorization, triples_from_factorization
from balpack.latin import (
    SeedInvalid,
    SeedSets,
    augment_column,
    extract_triples,
    fill,
    seed_sets,
)
from balpack.sumcode import construct as sum_blocks
from balpack.sumcode import missing_pair_predicate
from balpack.transversal import construct_td

# reference checks kept next to the tests of the module they check
from test_latin import check_regularity
from test_transversal import check_td


@st.composite
def structural_packings(draw):
    """Structurally valid families; semantic properties are arbitrary."""
    v = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(5, v)))
    t = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=0, max_value=6))
    blocks = set()
    for _ in range(n):
        members = draw(st.sets(st.integers(0, v - 1), min_size=k, max_size=k))
        blocks.add(tuple(sorted(members)))
    flips = draw(st.lists(st.booleans(), min_size=v, max_size=v))
    signs = tuple(1 if b else -1 for b in flips)
    if sum(signs) < 0:
        signs = tuple(-s for s in signs)
    return BalancedPacking(v, t, k, Labeling(signs), tuple(sorted(blocks)))


@given(st.data())
def test_discrepancy_has_block_size_parity(data):
    v = data.draw(st.integers(1, 16))
    size = data.draw(st.integers(1, v))
    block = tuple(sorted(data.draw(
        st.sets(st.integers(0, v - 1), min_size=size, max_size=size)
    )))
    signs = tuple(data.draw(
        st.lists(st.sampled_from((1, -1)), min_size=v, max_size=v)
    ))
    assert (discrepancy(block, Labeling(signs)) - len(block)) % 2 == 0


@given(structural_packings())
def test_serialization_round_trip(p):
    text = to_json(p)
    again = from_json(text)
    assert again == p
    assert to_json(again) == text


@given(structural_packings())
def test_verdict_invariant_under_global_sign_flip(p):
    flipped = p.with_labeling(p.labeling.flipped())
    a, b = verify(p), verify(flipped)
    assert a.passed == b.passed
    assert b.discrepancies == tuple(sorted(-d for d in a.discrepancies))
    assert (a.p_plus, a.p_minus) == (b.p_minus, b.p_plus)


@pytest.mark.parametrize("p", [8, 12, 16, 20])
def test_seed_pair_corruption_is_detected(p):
    # Swapping partners between the first two seed pairs keeps the
    # residue cover intact but collapses two distances into one; the
    # filled array would repeat a symbol in a row, and fill must say so.
    s = seed_sets(p)
    (a1, b1), (a2, b2) = s.positive_pairs[:2]
    mutated = SeedSets(
        p,
        (tuple(sorted((a1, b2))), tuple(sorted((a2, b1)))) + s.positive_pairs[2:],
        s.negative_pairs,
    )
    assert not check_regularity(mutated)
    with pytest.raises(SeedInvalid, match="repeats"):
        fill(mutated)


@given(st.integers(min_value=1, max_value=32))
def test_one_factorization_always_partitions(half):
    n = 2 * half
    factors = one_factorization(n)  # constructor re-validates everything
    assert len(factors.classes) == n - 1
    assert one_factorization(n) == factors


@given(st.data())
@settings(deadline=None)
def test_matching_triples_verify_at_any_split(data):
    p_plus = 2 * data.draw(st.integers(1, 10))
    p_minus = data.draw(st.integers(1, max(1, p_plus - 1)))
    packing = triples_from_factorization(p_plus, p_minus)
    assert packing.n_blocks == p_plus * p_minus // 2
    assert verify(packing).passed


def test_transversal_designs_exhaustive_small():
    for q in (2, 3, 4, 5):
        for k in range(2, q + 1):
            for t in range(1, k + 1):
                assert check_td(construct_td(t, k, q)), (t, k, q)


@pytest.mark.parametrize("q,p,m", [(4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2)])
def test_block_encoding_is_injective(q, p, m):
    # the q constant polynomials put every (evaluation point, value) pair
    # in one block, so the k*q encoded points cover [0, k*q) exactly when
    # the encoding is a bijection onto it
    assert q == p**m
    k = min(q, 5)
    packing = babai_frankl.construct(q, k, 1)
    assert packing.n_blocks == q
    assert sorted(x for block in packing.blocks for x in block) == list(range(k * q))


@given(st.integers(min_value=2, max_value=16))
@settings(max_examples=25, deadline=None)
def test_square_rectangle_counts(half):
    p = 2 * half
    packing = extract_triples(fill(seed_sets(p)))
    assert packing.n_blocks == (2 * p) * (2 * p) // 8
    assert verify(packing).passed


@given(st.integers(min_value=2, max_value=16))
@settings(max_examples=25, deadline=None)
def test_augmented_rectangle_counts(half):
    p = 2 * half
    packing = extract_triples(augment_column(fill(seed_sets(p))))
    v = 2 * p + 1
    assert packing.n_blocks == (v // 2) * ((v + 1) // 2) // 2
    assert packing.labeling.p_plus == p + 1
    assert verify(packing).passed


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=25, deadline=None)
def test_sum_family_coverage_matches_predicate(half):
    v = 2 * half
    packing = sum_blocks(v, 3)
    assert verify(packing).passed
    assert all(sum(b) % v == 0 for b in packing.blocks)
    covered = set()
    for b in packing.blocks:
        covered.update(itertools.combinations(b, 2))
    for pair in itertools.combinations(range(v), 2):
        assert missing_pair_predicate(v, *pair) == (pair not in covered)
