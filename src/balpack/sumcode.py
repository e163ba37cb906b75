"""Blocks of Z_v with a fixed target sum and prescribed parity mix.

Choosing a case-dependent number of distinct evens and odds and letting
the target sum force the final element yields k-subsets whose parity
labeling (+1 even, -1 odd) is automatically balanced.  Completions that
would repeat a chosen element are discarded; each block is emitted once
even though several seed choices complete to it.  For k=3 the family is
a (2,3,v) packing; for larger k the achieved strength is measured from
the family rather than claimed.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import comb, prod

from .core import (
    INCIDENCE_CAP,
    BalancedPacking,
    Labeling,
    PackingError,
    PreconditionViolated,
    Record,
    _check_incidences,
    _check_ints,
    _short,
    max_pairwise_intersection,
)


class OddGroundSet(PackingError):
    """The parity split needs an even ground set."""


class SumCodeParams(Record):
    """Case data for the construction, keyed on k mod 4.

    n_even/n_odd are the seed-choice sizes; the forced completion then
    has the parity that keeps the block's discrepancy in {-1, 0, +1}.
    The target sum is 0 except in the k = 4m+2 case, where an odd
    element must complete the block and the target must be odd too.
    """

    _fields = ("v", "k")

    def __post_init__(self):
        _check_ints("v and k", (self.v, self.k))
        if self.v < 2 or self.v % 2:
            raise OddGroundSet(f"v={self.v} must be even and >= 2")
        if self.k < 3:
            raise PreconditionViolated(f"k={self.k} must be at least 3")
        if self.k > self.v:
            raise PreconditionViolated(f"k={self.k} must be at most v={self.v}")

    @property
    def residue_class(self) -> int:
        return self.k % 4

    @property
    def n_even(self) -> int:
        m = self.k // 4
        return (2 * m - 1, 2 * m, 2 * m + 1, 2 * m + 1)[self.residue_class]

    @property
    def n_odd(self) -> int:
        m = self.k // 4
        return (2 * m, 2 * m, 2 * m, 2 * m + 1)[self.residue_class]

    @property
    def target(self) -> int:
        return 1 if self.residue_class == 2 else 0


def _completions(params: SumCodeParams):
    """For each seed choice, its block (unsorted) with the forced element
    added, or None when that element repeats a chosen one."""
    v, target = params.v, params.target
    # the seed choices: C(half, r) >= 2^min(r, half - r), so a side past the
    # cap's bit length is over the cap by itself and counted no further
    half, most = v // 2, INCIDENCE_CAP.bit_length()
    seeds = prod(comb(half, min(r, half - r, most)) for r in (params.n_even, params.n_odd))
    _check_incidences(seeds, params.k, v=v, k=params.k)
    for es, os_ in itertools.product(
        itertools.combinations(range(0, v, 2), params.n_even),
        itertools.combinations(range(1, v, 2), params.n_odd),
    ):
        x = (target - sum(es) - sum(os_)) % v
        yield None if x in es or x in os_ else es + os_ + (x,)


def construct(v: int, k: int) -> BalancedPacking:
    """All blocks reachable from the seed choices, parity-labeled.

    Discrepancies land on 0 for k = 0, 2 (mod 4) and on +1 / -1 for
    k = 1 / 3 (mod 4).  The strength t is 2 for k = 3 (a shared pair
    pins the third element); otherwise it is measured as the largest
    pairwise intersection plus one.
    """
    blocks = {tuple(sorted(b)) for b in _completions(SumCodeParams(v, k)) if b is not None}
    family = tuple(sorted(blocks))
    if k == 3:
        t = 2
    elif len(family) >= 2:
        t = max_pairwise_intersection(family) + 1
    else:
        t = k - 1
    signs = tuple(1 if x % 2 == 0 else -1 for x in range(v))
    return BalancedPacking(v, t, k, Labeling(signs), family)


def missing_pair_predicate(v: int, x: int, y: int) -> bool:
    """True when the pair {x, y} extends to no size-3 block: both
    elements even, or the forced completion collides with x or y
    (y == -2x or x == -2y mod v).
    """
    _check_ints("v, x and y", (v, x, y))
    if v < 1:
        raise PreconditionViolated(f"v must be >= 1, got {_short(v)}")
    x, y = x % v, y % v
    if x % 2 == 0 and y % 2 == 0:
        return True
    return y == (-2 * x) % v or x == (-2 * y) % v


# Both rates are exact Fractions.
FailureRate = namedtuple("FailureRate", "empirical asymptotic")


def failure_rate(v: int, k: int) -> FailureRate:
    """Fraction of seed choices whose forced completion collides.

    The exact rate comes from full enumeration; alongside it is the
    large-v estimate (number of chosen elements of the forced parity)
    divided by v/2.
    """
    import fractions

    params = SumCodeParams(v, k)
    total = failures = 0
    for block in _completions(params):
        total += 1
        failures += block is None
    forced_parity_chosen = params.n_odd if params.residue_class >= 2 else params.n_even
    return FailureRate(
        fractions.Fraction(failures, total),
        fractions.Fraction(forced_parity_chosen, v // 2),
    )
