import pytest

from balpack import gf
from balpack.babai_frankl import construct, evaluation_set, label_points
from balpack.bounds import lemma1_bound
from balpack.core import PreconditionViolated, max_pairwise_intersection, verify

CASES = [(5, 3, 2), (5, 4, 2), (7, 4, 2), (8, 5, 2), (9, 4, 3)]


def test_evaluation_set_indices():
    field = gf.make_field(5)
    # discrete indices of the evaluation points are 0..k-1 by construction
    for k in range(1, 6):
        pts = evaluation_set(field, k)
        assert [field.discrete_index(a) for a in pts] == list(range(k))
    # GF(5) has xi=2: the points are 0, 1, 2, 4, 3
    assert list(evaluation_set(field, 5)) == [0, 1, 2, 4, 3]


def test_evaluation_set_rejects_oversized_k():
    with pytest.raises(PreconditionViolated):
        evaluation_set(gf.make_field(5), 6)


def test_label_split_even_and_odd():
    even = label_points(5, 4)
    assert even.p_plus == even.p_minus == 10
    odd = label_points(5, 3)
    assert (odd.p_plus, odd.p_minus) == (5, 10)
    assert odd.signs[:10] == (-1,) * 10


@pytest.mark.parametrize("q,k,t", CASES)
def test_block_count_is_q_to_the_t(q, k, t):
    assert construct(q, k, t).n_blocks == q**t


@pytest.mark.parametrize("q,k,t", CASES)
def test_intersections_stay_below_t(q, k, t):
    p = construct(q, k, t)
    assert max_pairwise_intersection(p.blocks) <= t - 1


@pytest.mark.parametrize("q,k,t", CASES)
def test_discrepancies_are_uniform(q, k, t):
    p = construct(q, k, t)
    rep = verify(p)
    assert rep.passed
    want = 0 if k % 2 == 0 else -1
    assert set(rep.discrepancies) == {want}


@pytest.mark.parametrize("q,k,t", CASES)
def test_one_point_per_row(q, k, t):
    p = construct(q, k, t)
    for block in p.blocks:
        assert sorted(x // q for x in block) == list(range(k))


def test_meets_counting_bound_at_t_two():
    # the four t=2 cases are extremal: q**2 equals the counting bound
    for q, k, t in [(5, 3, 2), (5, 4, 2), (7, 4, 2), (8, 5, 2)]:
        p = construct(q, k, t)
        hi = max(p.labeling.p_plus, p.labeling.p_minus)
        lo = min(p.labeling.p_plus, p.labeling.p_minus)
        assert p.n_blocks == lemma1_bound(t, k, hi, lo)


def test_t_three_case_sits_below_bound():
    p = construct(9, 4, 3)
    assert p.n_blocks == 729
    assert lemma1_bound(3, 4, 18, 18) == 1377


def test_construct_is_deterministic():
    assert construct(5, 3, 2) == construct(5, 3, 2)


def test_parameter_preconditions():
    with pytest.raises(PreconditionViolated):
        construct(6, 3, 2)  # 6 is not a prime power
    with pytest.raises(PreconditionViolated):
        construct(5, 6, 2)  # k > q
    with pytest.raises(PreconditionViolated):
        construct(5, 3, 0)  # t < 1
    with pytest.raises(PreconditionViolated):
        construct(5, 3, 4)  # t > k
