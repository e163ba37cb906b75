import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from test_validation import Point, outcome

from balpack.bounds import corollary_bound, lemma1_bound
from balpack.core import PreconditionViolated, _are_ints, _short, is_packing, verify
from balpack.factorization import (
    ClassCountMismatch,
    ClassesNotDisjoint,
    ClassesNotSteiner,
    NotSupported,
    OddOrder,
    OneFactorization,
    PartitionablePacking,
    from_one_factorization,
    large_set_sts,
    load_large_set,
    mds_45_product,
    mds_product,
    one_factorization,
    product,
    save_large_set,
    singleton_classes,
    triples_from_factorization,
)


def test_one_factorization_smallest_case():
    assert one_factorization(2).classes == (((0, 1),),)


def test_one_factorization_rejects_odd_order():
    with pytest.raises(OddOrder):
        one_factorization(5)
    with pytest.raises(OddOrder):
        one_factorization(0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 14])
def test_one_factorization_partitions_all_edges(n):
    factors = one_factorization(n)
    assert len(factors.classes) == n - 1
    seen = set()
    for matching in factors.classes:
        assert len(matching) == n // 2
        touched = set()
        for a, b in matching:
            assert 0 <= a < b < n
            touched.update((a, b))
        assert len(touched) == n  # perfect matching
        seen.update(matching)
    assert seen == set(itertools.combinations(range(n), 2))


def test_one_factorization_type_rejects_bad_input():
    with pytest.raises(PreconditionViolated):
        OneFactorization(4, (((0, 1), (2, 3)),))  # wrong class count
    with pytest.raises(PreconditionViolated):
        OneFactorization(
            4,
            (
                ((0, 1), (2, 3)),
                ((0, 2), (1, 3)),
                ((0, 2), (1, 3)),  # repeats an edge, misses (0,3)/(1,2)
            ),
        )


@pytest.mark.parametrize("classes", [
    (((0, 1), (2, 4)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
    (((1, 0), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
    (((0, 1), (1, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
    (((0, 1),), ((0, 2), (1, 3)), ((0, 3), (1, 2))),
    (((0, 1), (2, 3)), ((0, 1), (2, 3)), ((0, 3), (1, 2))),
], ids=["edge-out-of-range", "reversed-edge", "reused-vertex", "short-matching",
        "repeated-edge"])
def test_one_factorization_faults_raise_precondition_violated(classes):
    with pytest.raises(PreconditionViolated) as caught:
        OneFactorization(4, classes)
    assert type(caught.value) is PreconditionViolated


def test_triples_single_block():
    p = triples_from_factorization(2, 1)
    assert p.blocks == ((0, 1, 2),)
    assert verify(p).passed


@pytest.mark.parametrize("p_plus,p_minus", [(6, 3), (8, 7), (10, 9), (12, 11)])
def test_triples_count_and_verify(p_plus, p_minus):
    p = triples_from_factorization(p_plus, p_minus)
    assert p.n_blocks == p_plus * p_minus // 2
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {1}


def test_triples_six_three_meets_bound():
    p = triples_from_factorization(6, 3)
    assert p.n_blocks == 9 == lemma1_bound(2, 3, 6, 3)


def test_triples_build_only_the_rounds_they_pair():
    # one round each: the route built all p_plus - 1 rounds of K_2048 (about
    # 7 s), and refused (2050, 1) on the count of K_2050's edges
    start = time.perf_counter()
    assert triples_from_factorization(2048, 1).n_blocks == 1024
    assert time.perf_counter() - start < 0.1
    p = triples_from_factorization(2050, 1)
    assert p.n_blocks == 1025 and verify(p).passed


def test_triples_preconditions():
    with pytest.raises(PreconditionViolated):
        triples_from_factorization(5, 3)  # odd p_plus
    with pytest.raises(PreconditionViolated):
        triples_from_factorization(6, 6)  # p_minus not below p_plus
    with pytest.raises(PreconditionViolated):
        triples_from_factorization(6, 0)


# --- partitionable packings ---------------------------------------------------


def test_partitionable_validates_classes():
    with pytest.raises(ClassesNotDisjoint):
        PartitionablePacking(1, 2, 4, (((0, 1),), ((0, 1),)))
    with pytest.raises(PreconditionViolated):
        PartitionablePacking(1, 2, 4, (((0, 1), (1, 2)),))  # not a matching
    with pytest.raises(PreconditionViolated):
        PartitionablePacking(1, 2, 4, (((0, 4),),))  # out of range


def reference_classes_check(t_prime, k, v, classes):
    """The per-block validator: raise for the first bad block or class."""
    seen = set()
    for c, cls in enumerate(classes):
        for i, b in enumerate(cls):
            where = f"class {c} block {i}"
            if not (isinstance(b, tuple) and _are_ints(b) and len(b) == k
                    and tuple(sorted(set(b))) == b):
                raise PreconditionViolated(f"{where} is malformed: {_short(b)}")
            if not all(0 <= x < v for x in b):
                raise PreconditionViolated(f"{where} leaves [0, {v}): {_short(b)}")
            if b in seen:
                raise ClassesNotDisjoint(f"{where} repeats an earlier block: {_short(b)}")
            seen.add(b)
        if not is_packing(t_prime, cls):
            raise PreconditionViolated(f"a class is not a {t_prime}-packing")


@st.composite
def class_families(draw):
    """``(t_prime, k, v, classes)``: classes of k-subsets of [0, v), often
    repeating a block or a t_prime-subset, with up to two faults."""
    k = draw(st.integers(1, 3))
    v = draw(st.integers(k, 7))
    block = st.frozensets(st.integers(0, v - 1), min_size=k, max_size=k).map(sorted).map(tuple)
    classes = draw(st.lists(st.lists(block, max_size=4), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.integers(0, len(classes) - 1))
        if not classes[c]:
            continue
        i = draw(st.integers(0, len(classes[c]) - 1))
        b = classes[c][i]
        if type(b) is not tuple or not b:  # a fault already hit it
            continue
        j = draw(st.integers(0, len(b) - 1))
        classes[c][i] = draw(st.sampled_from([
            b[:j] + (draw(st.sampled_from([-1, v, True, 0.5, Point(b[j])])),) + b[j + 1:],
            b[::-1], b + b[:1], b[:-1], list(b),
        ]))
    t_prime = draw(st.integers(0, k))
    return t_prime, k, v, tuple(map(tuple, classes))


@given(class_families())
@settings(max_examples=200)
def test_class_validation_matches_the_per_block_reference(family):
    # whole-class passes decide, and the loop names the first bad block or
    # class with the reference's exception and text
    expected = outcome(lambda: reference_classes_check(*family))
    assert outcome(lambda: PartitionablePacking(*family)) == expected


def test_singleton_classes_shape():
    s = singleton_classes(3)
    assert s.classes == (((0,),), ((1,),), ((2,),))
    assert (s.t_prime, s.k, s.v) == (0, 1, 3)


def test_product_matchings_with_singletons():
    # 3 rounds of K_4 paired with 3 lone points: 6 triples on 7 points
    p = product(from_one_factorization(one_factorization(4)), singleton_classes(3))
    assert (p.t, p.k, p.v) == (2, 3, 7)
    assert p.n_blocks == 6 == lemma1_bound(2, 3, 4, 3)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {1}


def test_product_matchings_squared():
    f = from_one_factorization(one_factorization(4))
    p = product(f, f)
    assert (p.t, p.k, p.v) == (3, 4, 8)
    assert p.n_blocks == 12 == corollary_bound(3, 4, 8)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {0}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_product_families_count_formulas(m):
    f = from_one_factorization(one_factorization(2 * m))
    with_singletons = product(f, singleton_classes(2 * m - 1))
    assert with_singletons.n_blocks == m * (2 * m - 1)
    assert verify(with_singletons).passed
    squared = product(f, f)
    assert squared.n_blocks == m * m * (2 * m - 1)
    assert verify(squared).passed


def test_a_one_factorization_is_checked_once(monkeypatch):
    # one_factorization checks its matchings as a PartitionablePacking, and
    # from_one_factorization hands that family on rather than checking it again
    checks = []
    check = PartitionablePacking.__post_init__
    monkeypatch.setattr(PartitionablePacking, "__post_init__",
                        lambda self: (checks.append(self), check(self)))
    f = from_one_factorization(one_factorization(8))
    assert checks == [f]
    assert f.classes == one_factorization(8).classes and (f.t_prime, f.k, f.v) == (1, 2, 8)


def test_product_class_count_mismatch():
    f = from_one_factorization(one_factorization(4))
    with pytest.raises(ClassCountMismatch):
        product(f, singleton_classes(2))
    trimmed = product(f, singleton_classes(2), allow_prefix=True)
    assert trimmed.n_blocks == 4  # two classes of two edges each


def test_product_of_empty_classes_is_empty():
    empty = PartitionablePacking(1, 2, 4, ((), (), ()))
    p = product(empty, singleton_classes(3))
    assert p.blocks == ()


# --- large set of triple systems ---------------------------------------------


def test_large_set_partitions_all_triples():
    ls = large_set_sts(9)
    assert ls.n_classes == 7
    union = set()
    for cls in ls.classes:
        assert len(cls) == 12
        # every pair covered exactly once inside a class
        pairs = [p for tri in cls for p in itertools.combinations(tri, 2)]
        assert len(pairs) == len(set(pairs)) == comb(9, 2)
        union.update(cls)
    assert len(union) == comb(9, 3)


def test_large_set_is_deterministic():
    assert large_set_sts(9) == large_set_sts(9)


def test_large_set_other_orders_not_built_in():
    with pytest.raises(NotSupported):
        large_set_sts(7)
    with pytest.raises(NotSupported):
        large_set_sts(13)


def test_large_set_round_trips_through_file(tmp_path):
    ls = large_set_sts(9)
    path = tmp_path / "large_set.json"
    save_large_set(ls, path)
    again = load_large_set(path)
    assert (again.t_prime, again.k, again.v) == (2, 3, 9)
    assert sorted(map(sorted, again.classes)) == sorted(map(sorted, ls.classes))


def test_large_set_with_an_unsorted_class_round_trips(tmp_path):
    # class 0 lists (2, 3) before (0, 1): its block indices are written sorted
    m = PartitionablePacking(1, 2, 4, (((2, 3), (0, 1)), ((0, 2), (1, 3)), ((0, 3), (1, 2))))
    path = tmp_path / "unsorted.json"
    save_large_set(m, path)
    assert load_large_set(path).classes == tuple(tuple(sorted(c)) for c in m.classes)


def test_load_rejects_plain_packing_file(tmp_path):
    from balpack.core import make_packing, save_packing

    path = tmp_path / "plain.json"
    save_packing(make_packing(4, 2, 3, [1, 1, -1, -1], [(0, 1, 2)]), path)
    with pytest.raises(PreconditionViolated):
        load_large_set(path)


# --- Steiner products ---------------------------------------------------------


def test_mds_product_doubles_parameters():
    p = mds_product(large_set_sts(9))
    assert (p.t, p.k, p.v) == (5, 6, 18)
    assert p.n_blocks == 7 * 12 * 12 == 1008 == corollary_bound(5, 6, 18)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {0}


def test_mds_product_degenerate_single_class():
    m = PartitionablePacking(2, 3, 3, (((0, 1, 2),),))
    p = mds_product(m)
    assert p.blocks == ((0, 1, 2, 3, 4, 5),)


def test_mds_product_rejects_partial_large_set():
    ls = large_set_sts(9)
    with pytest.raises(PreconditionViolated):
        mds_product(PartitionablePacking(2, 3, 9, ls.classes[:3]))


def test_mds_product_rejects_non_steiner_classes():
    # a 2-packing of 11 triples is not an STS(9)
    ls = large_set_sts(9)
    broken = (ls.classes[0][:11],) + ls.classes[1:]
    with pytest.raises(ClassesNotSteiner):
        mds_product(PartitionablePacking(2, 3, 9, broken))


def test_mds_45_product():
    p = mds_45_product(large_set_sts(9), 8)
    assert (p.t, p.k, p.v) == (4, 5, 17)
    assert p.n_blocks == 7 * 12 * 4 == 336
    # extremal: meets the counting bound
    assert p.n_blocks == corollary_bound(4, 5, 17)
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {1}


def test_mds_45_preconditions():
    ls = large_set_sts(9)
    with pytest.raises(PreconditionViolated):
        mds_45_product(ls, 7)  # odd
    with pytest.raises(PreconditionViolated):
        mds_45_product(ls, 6)  # not p_plus - 1
    with pytest.raises(PreconditionViolated):
        mds_45_product(from_one_factorization(one_factorization(4)), 3)


def test_matchings_with_large_set_product():
    # pairs on 8 points x triples on 9 points, aligned over 7 classes
    f = from_one_factorization(one_factorization(8))
    ls = large_set_sts(9)
    p = product(f, ls)
    assert (p.t, p.k, p.v) == (4, 5, 17)
    assert p.n_blocks == sum(
        len(c1) * len(c2) for c1, c2 in zip(f.classes, ls.classes)
    )
    assert p.n_blocks == 336
    assert verify(p).passed
