import hashlib
from fractions import Fraction

import pytest

from balpack.bounds import (
    corollary_bound,
    lemma1_bound,
    steiner_size,
    theorem1_gap,
    type_lp_bound,
)
from balpack.core import VALUE_BITS, PreconditionViolated
from balpack.oracle import existence_reference, max_balanced_packing


def test_lemma1_frozen_values():
    assert lemma1_bound(2, 3, 6, 3) == 9
    assert lemma1_bound(2, 3, 8, 8) == 32
    assert lemma1_bound(3, 4, 8, 8) == 112


def test_lemma1_preconditions():
    with pytest.raises(PreconditionViolated):
        lemma1_bound(3, 3, 8, 8)  # t < k required
    with pytest.raises(PreconditionViolated):
        lemma1_bound(0, 3, 8, 8)
    with pytest.raises(PreconditionViolated):
        lemma1_bound(3, 4, 3, 8)  # p_plus below 2*ceil((t+1)/2) = 4
    with pytest.raises(PreconditionViolated):
        lemma1_bound(2, 3, 4, -1)


def test_lemma1_small_p_minus_gives_zero():
    # C(p_minus, ceil(t/2)) vanishes when p_minus is too small; the bound
    # is then 0, not an error
    assert lemma1_bound(2, 3, 6, 0) == 0


@pytest.mark.parametrize("bound, below, above", [
    # C(2^4095, 1)^2 at the balanced split of 2^4096 points: 8 192 bits
    (corollary_bound, (2, 3, 2**4096), (2, 3, 2**4097)),
    (type_lp_bound, (2, 3, 2**4096), (2, 3, 2**4097)),
    (lambda *a: steiner_size(*a).size, (2, 3, 2**4095), (2, 3, 2**4096)),
    # 256 + 256 factors of 16 bits at t = 512, 256 + 257 at t = 513
    (lemma1_bound, (512, 513, 40000, 40000), (513, 514, 40000, 40000)),
    (existence_reference, (2**8191, 1, 1), (2**8192, 1, 1)),
], ids=["corollary", "type-lp", "steiner", "lemma1", "existence-reference"])
def test_values_stay_within_the_bit_budget(bound, below, above):
    # A value that could pass VALUE_BITS (at most 2 467 digits, under
    # Python's 4 300-digit limit on printing an int) is refused before it
    # is computed; one at the budget is computed and printable.
    value = bound(*below)
    assert 0 < value and max(value.numerator.bit_length(),
                             value.denominator.bit_length()) <= VALUE_BITS
    assert len(str(value)) <= 2 * 2467 + 1
    with pytest.raises(PreconditionViolated, match="bits"):
        bound(*above)


def test_corollary_frozen_values():
    assert corollary_bound(2, 3, 16) == 32
    assert corollary_bound(2, 3, 9) == 10
    assert corollary_bound(3, 4, 16) == 112
    assert corollary_bound(3, 4, 8) == 12
    assert corollary_bound(2, 3, 7) == 6
    assert corollary_bound(5, 6, 18) == 1008


def test_corollary_is_max_over_admissible_splits():
    # the balanced split maximizes the bound over all p_plus >= ceil(v/2)
    threshold = lambda t: 2 * ((t + 2) // 2)
    for t in range(2, 6):
        for k in range(t + 1, 9):
            for v in range(k + 1, 61):
                candidates = [
                    lemma1_bound(t, k, hi, v - hi)
                    for hi in range((v + 1) // 2, v)
                    if hi >= threshold(t)
                ]
                if not candidates:
                    continue
                try:
                    reference = corollary_bound(t, k, v)
                except PreconditionViolated:
                    continue
                assert reference == max(candidates), (t, k, v)


def test_steiner_size_values():
    assert steiner_size(2, 3, 7) == (Fraction(7), True)
    assert steiner_size(2, 3, 9) == (Fraction(12), True)
    assert steiner_size(3, 4, 8) == (Fraction(14), True)
    size, integral = steiner_size(2, 3, 8)
    assert size == Fraction(28, 3) and not integral


def test_steiner_size_preconditions():
    with pytest.raises(PreconditionViolated):
        steiner_size(3, 2, 8)
    with pytest.raises(PreconditionViolated):
        steiner_size(2, 9, 8)


def test_theorem1_gap_values():
    # (2,3,7): corollary 6 vs Steiner size 7 -> strictly below
    assert theorem1_gap(2, 3, 7) == (6, Fraction(7), True)
    assert theorem1_gap(2, 3, 9) == (10, Fraction(12), True)
    assert theorem1_gap(3, 4, 8) == (12, Fraction(14), True)
    assert theorem1_gap(3, 4, 16) == (112, Fraction(140), True)
    # memoised: a repeat returns an equal result, and a bool is refused, never read as 1
    assert theorem1_gap(3, 4, 16) == theorem1_gap(3, 4, 16)
    with pytest.raises(PreconditionViolated):
        theorem1_gap(True, 3, 9)


def test_theorem1_gap_preconditions():
    for _ in range(2):  # a failure is never cached
        with pytest.raises(PreconditionViolated):
            theorem1_gap(2, 3, 3)  # k < v required
    with pytest.raises(PreconditionViolated):
        theorem1_gap(2, 3, 2)
    with pytest.raises(PreconditionViolated):
        theorem1_gap(2, 7, 8)  # ceil(v/2) must exceed (k+1)/2
    theorem1_gap(2, 3, 9)
    with pytest.raises(PreconditionViolated):
        theorem1_gap(2.0, 3, 9)  # refused before the cache: a float never hits the int entry


def test_theorem1_gap_repeat_call_reads_the_cache():
    first = theorem1_gap(3, 4, 16)
    before = theorem1_gap.cache_info()
    assert theorem1_gap(3, 4, 16) is first
    after = theorem1_gap.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


def test_everything_is_exact_integers_and_fractions():
    b = corollary_bound(4, 7, 33)
    assert isinstance(b, int)
    s = steiner_size(4, 7, 33).size
    assert isinstance(s, Fraction)
    g = theorem1_gap(4, 7, 33)
    assert isinstance(g.bound, int) and isinstance(g.steiner, Fraction)


def test_gap_sweep_strict_except_odd_t_odd_k():
    # Regression pin for corollary_bound on the 2<=t<k<=8, k<v<=40 sweep,
    # over the points where theorem1_gap is defined.  The counting bound
    # stays strictly under the Steiner ratio whenever t or k is even; when
    # both are odd it overshoots (a deficit-one block spends
    # C(floor(k/2),floor(t/2))*C(ceil(k/2),ceil(t/2)) of the counted
    # t-subsets while the divisor only charges the smaller surplus-one
    # yield), and the overshoot persists for all large v:
    # at (3,5) the bound grows like v^3/48 against a ratio of v^3/60.
    non_strict = []
    checked = 0
    for t in range(2, 8):
        for k in range(t + 1, 9):
            for v in range(k + 1, 41):
                try:
                    theorem1_gap(t, k, v)
                except PreconditionViolated:
                    continue
                checked += 1
                strict = corollary_bound(t, k, v) < steiner_size(t, k, v).size
                if t % 2 == 0 or k % 2 == 0:
                    assert strict, (t, k, v)
                elif not strict:
                    non_strict.append((t, k, v))
    assert checked == 654
    assert len(non_strict) == 94
    assert {(t, k) for t, k, _ in non_strict} == {(3, 5), (3, 7), (5, 7)}
    assert corollary_bound(3, 5, 7) == 4 > Fraction(7, 2)
    # theorem1_gap reports the sign-type bound instead.  At the split 4/3 a
    # (3,2)-block holds 3 subsets of sign type j=1 and 6 of type j=2, a
    # (2,3)-block 6 and 3; the split has 12 and 18.  Adding the two rows,
    # 3x + 6y <= 12 and 6x + 3y <= 18, gives 9(x + y) <= 30, so x + y <= 3;
    # the splits 5/2, 6/1 and 7/0 allow fewer.
    assert theorem1_gap(3, 5, 7) == (3, Fraction(7, 2), True)


def test_type_lp_bound_values():
    assert type_lp_bound(3, 5, 7) == 3
    assert type_lp_bound(3, 5, 9) == 7
    with pytest.raises(PreconditionViolated):
        type_lp_bound(3, 3, 8)  # t < k required


def test_type_lp_bound_never_above_corollary_on_sweep():
    checked = tighter = 0
    for t in range(2, 8):
        for k in range(t + 1, 9):
            for v in range(k + 1, 41):
                try:
                    theorem1_gap(t, k, v)
                except PreconditionViolated:
                    continue
                checked += 1
                lp, cb = type_lp_bound(t, k, v), corollary_bound(t, k, v)
                assert lp <= cb, (t, k, v, lp, cb)
                tighter += lp < cb
    assert (checked, tighter) == (654, 96)


def test_bound_digest_over_the_small_sweep():
    # Every lemma1_bound value or refusal at every split p+ = 0..v, and
    # every type_lp_bound, over 1 <= t < k <= v <= 40, pinned as one digest.
    digest = hashlib.sha256()
    for v in range(2, 41):
        for k in range(2, v + 1):
            for t in range(1, k):
                row = [type_lp_bound(t, k, v)]
                for p_plus in range(v + 1):
                    try:
                        row.append(lemma1_bound(t, k, p_plus, v - p_plus))
                    except PreconditionViolated:
                        row.append(None)
                digest.update(repr((t, k, v, row)).encode())
    assert digest.hexdigest() == (
        "c4ee2b6045bd78b92501b54f8a019aa939a7a8c67f8936d0f9125ca2ff1040b5")


@pytest.mark.parametrize(
    "t, k, v, exact",
    [
        (3, 5, 7, 1),
        (3, 5, 8, 2),
        (3, 5, 9, 3),
        (2, 4, 9, 3),
        (2, 5, 8, 1),
        (3, 4, 8, 12),
    ],
)
def test_type_lp_bound_holds_against_oracle(t, k, v, exact):
    result = max_balanced_packing(t, k, v)
    assert result.exact and result.size == exact
    assert result.size <= type_lp_bound(t, k, v)


def test_oracle_lp_and_corollary_bounds_are_ordered():
    # every point the oracle reaches quickly: exact <= type LP <= corollary
    checked = 0
    for v in range(3, 9):
        for k in range(2, v):
            for t in range(1, k):
                try:
                    lp, cb = type_lp_bound(t, k, v), corollary_bound(t, k, v)
                except PreconditionViolated:
                    continue
                result = max_balanced_packing(t, k, v)
                assert result.exact
                assert result.size <= lp <= cb, (t, k, v, result.size, lp, cb)
                checked += 1
    assert checked == 37
