import itertools

import pytest
from hypothesis import given, settings, strategies as st

from balpack.bounds import corollary_bound
from balpack.core import PreconditionViolated, is_packing, make_packing, verify
from balpack.transversal import (
    TransversalDesign,
    augment_34,
    augment_34_char2,
    construct_td,
    construct_td_sum,
    label_groups,
)


def check_td(td):
    """Reference check that every cross-group t-subset lies in exactly one
    block.

    Every block is transverse, so each covers C(k, t) of the C(k, t)·q^t
    cross-group t-subsets and no other t-subset.  Every one is covered
    exactly once iff no t-subset is covered twice and there are q^t blocks.
    """
    return len(td.blocks) == td.q ** td.t and is_packing(td.t, td.blocks)


def test_td_two_groups_is_all_pairs():
    td = construct_td(2, 2, 2)
    assert td.blocks == ((0, 2), (0, 3), (1, 2), (1, 3))


@pytest.mark.parametrize("t,k,q", [(2, 2, 2), (2, 3, 3), (3, 4, 4), (2, 4, 5), (3, 3, 5)])
def test_polynomial_td_is_a_td(t, k, q):
    td = construct_td(t, k, q)
    assert len(td.blocks) == q**t
    assert check_td(td)


def test_td_of_order_four_has_64_blocks():
    assert len(construct_td(3, 4, 4).blocks) == 64


@pytest.mark.parametrize("t,m", [(1, 3), (2, 4), (3, 2), (3, 4), (3, 6)])
def test_sum_td_is_a_td(t, m):
    td = construct_td_sum(t, m)
    assert len(td.blocks) == m**t
    assert td.k == t + 1
    assert check_td(td)


def exhaustive_check_td(td):
    """The exhaustive form of check_td: count every t-subset of every block
    and require each cross-group t-subset to be covered exactly once."""
    cover: dict = {}
    for b in td.blocks:
        for sub in itertools.combinations(b, td.t):
            cover[sub] = cover.get(sub, 0) + 1
    groups = [range(g * td.q, (g + 1) * td.q) for g in range(td.k)]
    for chosen in itertools.combinations(groups, td.t):
        for sub in itertools.product(*chosen):
            if cover.get(sub, 0) != 1:
                return False
    return True


@st.composite
def transverse_families(draw):
    """Any set of transverse blocks over k groups of size q, k, q <= 4,
    as a TransversalDesign of strength 1 <= t <= k."""
    k = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    t = draw(st.integers(1, k))
    rows = draw(st.sets(st.tuples(*[st.integers(0, q - 1)] * k), max_size=q**t + 2))
    blocks = sorted(tuple(g * q + x for g, x in enumerate(row)) for row in rows)
    return TransversalDesign(t, k, q, tuple(blocks))


@given(transverse_families())
@settings(max_examples=400)
def test_check_td_matches_the_exhaustive_count(td):
    assert check_td(td) == exhaustive_check_td(td)


@pytest.mark.parametrize("t,k,q", [(1, 2, 3), (2, 3, 3), (3, 4, 4), (2, 4, 5)])
def test_check_td_on_designs_agrees_with_the_exhaustive_count(t, k, q):
    td = construct_td(t, k, q)
    assert check_td(td) and exhaustive_check_td(td)


def test_check_td_rejects_a_design_missing_one_block():
    td = construct_td(2, 3, 3)
    short = TransversalDesign(2, 3, 3, td.blocks[1:])
    assert not check_td(short)
    assert not exhaustive_check_td(short)


def test_check_td_rejects_q_blocks_sharing_a_point():
    # t = 1, q = 3: three blocks, as many as a TD(1,2,3) has, but blocks 0
    # and 1 share point 0, so point 2 of the first group is left uncovered
    td = TransversalDesign(1, 2, 3, ((0, 3), (0, 4), (1, 5)))
    assert len(td.blocks) == td.q**td.t
    assert not check_td(td)
    assert not exhaustive_check_td(td)


def test_td_type_rejects_non_transverse_blocks():
    with pytest.raises(PreconditionViolated):
        TransversalDesign(2, 2, 2, ((0, 1),))  # both points in group 0


@pytest.mark.parametrize("q, blocks", [
    (2, ((0.0, 2.0), (1.0, 3.0))),
    (1, ((False, True),)),
    (2, ((0, 2.5),)),
], ids=["floats", "bools", "half-integer"])
def test_td_type_rejects_points_that_are_not_ints(q, blocks):
    with pytest.raises(PreconditionViolated):
        TransversalDesign(1, 2, q, blocks)


def test_td_type_names_a_long_bad_block_briefly():
    # block 0 is transverse; block 1 puts 0 and 1 in group 0 and runs on
    # for 2998 more points
    blocks = (tuple(range(0, 6000, 2)), (0, 1) + tuple(range(4, 6000, 2)))
    with pytest.raises(PreconditionViolated) as info:
        TransversalDesign(1, 3000, 2, blocks)
    message = str(info.value)
    assert message.startswith("block 1 is not transverse")
    assert len(message) < 200


def test_td_preconditions():
    with pytest.raises(PreconditionViolated):
        construct_td(2, 4, 3)  # k > q
    with pytest.raises(PreconditionViolated):
        construct_td(2, 3, 6)  # not a prime power
    with pytest.raises(PreconditionViolated):
        construct_td(0, 2, 3)


def test_label_groups_split():
    td = construct_td(2, 3, 3)
    lab = label_groups(td)
    assert lab.signs == (1,) * 6 + (-1,) * 3
    p = make_packing(td.v, td.t, td.k, lab.signs, td.blocks)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {1}  # odd k

    even = construct_td(3, 4, 4)
    q = make_packing(even.v, even.t, even.k, label_groups(even).signs, even.blocks)
    rep = verify(q)
    assert rep.passed
    assert set(rep.discrepancies) == {0}


def test_augment_34_smallest_case_meets_bound():
    p = augment_34(2)
    assert p.n_blocks == 12 == corollary_bound(3, 4, 8)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {0}


def test_augment_34_main_case():
    p = augment_34(4)
    assert (p.t, p.k, p.v) == (3, 4, 16)
    assert p.n_blocks == 112 == corollary_bound(3, 4, 16)
    assert verify(p).passed
    # 64 transverse blocks plus 48 added ones
    td = construct_td_sum(3, 4)
    assert len(set(td.blocks) & set(p.blocks)) == 64
    assert p.n_blocks - 64 == 48


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_augment_34_extremal_for_even_m(m):
    p = augment_34(m)
    assert p.n_blocks == m**3 + m * m * (m - 1) == corollary_bound(3, 4, 4 * m)
    assert verify(p).passed


def test_augment_34_accepts_polynomial_td():
    td = construct_td(3, 4, 4)
    p = augment_34(4, td)
    assert p.n_blocks == 112
    assert verify(p).passed


def test_augment_34_preconditions():
    with pytest.raises(PreconditionViolated):
        augment_34(3)
    with pytest.raises(PreconditionViolated):
        augment_34(0)
    with pytest.raises(PreconditionViolated):
        augment_34(4, construct_td_sum(3, 6))  # group size mismatch


@pytest.mark.parametrize("m,count", [(2, 12), (4, 112), (8, 960)])
def test_char2_variant_counts(m, count):
    p = augment_34_char2(m)
    assert p.n_blocks == count == corollary_bound(3, 4, 4 * m)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {0}
    assert all(len(set(b)) == 4 for b in p.blocks)


def test_char2_matches_augment_34_cardinality():
    for m in (2, 4, 8):
        assert augment_34_char2(m).n_blocks == augment_34(m).n_blocks


def test_char2_requires_power_of_two():
    with pytest.raises(PreconditionViolated):
        augment_34_char2(6)
    with pytest.raises(PreconditionViolated):
        augment_34_char2(1)
