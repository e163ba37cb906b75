"""Transversal designs and group-labeled augmentations.

The point set is k groups of q consecutive integers; flattening is
(value, group) -> group*q + value-index.  Two TD sources are provided:
the polynomial construction over GF(q) (needs q a prime power and
k <= q) and a sum construction over Z_m with k = t+1 groups which
exists for every modulus.  Labeling half the groups positive makes
every transverse block balanced, and the (3, 4, 4m) augmentation then
packs extra blocks into pairs of opposite-sign groups.  Both (3, 4, 4m)
routes pair their classes through ``factorization.product``.
"""

from __future__ import annotations

import itertools
from operator import lt

from . import factorization, gf
from .core import (INCIDENCE_CAP, BalancedPacking, Labeling, PreconditionViolated, Record,
                   _are_ints, _check_incidences, _check_ints, _short, interval_labeling)


class TransversalDesign(Record):
    """Blocks meeting each of k groups of size q in exactly one point;
    ``blocks`` is a sorted tuple of point tuples.  As in a
    ``BalancedPacking``, a point is an int and not a bool, and so are
    ``t``, ``k`` and ``q``."""

    _fields = ("t", "k", "q", "blocks")

    def __post_init__(self):
        _check_ints("t, k and q", (self.t, self.k, self.q))
        if not 1 <= self.t <= self.k:
            raise PreconditionViolated(f"need 1 <= t <= k, got t={self.t}, k={self.k}")
        if self.q < 1:
            raise PreconditionViolated(f"group size must be positive, got {self.q}")
        if not isinstance(self.blocks, tuple):
            raise PreconditionViolated(f"blocks must be a tuple, got {_short(self.blocks)}")
        groups = list(range(self.k))
        for index, b in enumerate(self.blocks):
            if not (isinstance(b, tuple) and _are_ints(b)) or [x // self.q for x in b] != groups:
                raise PreconditionViolated(
                    f"block {index} is not transverse to the groups, one int in each: {_short(b)}")
        if not all(map(lt, self.blocks, self.blocks[1:])):
            raise PreconditionViolated("blocks must be sorted and duplicate-free")

    @property
    def v(self) -> int:
        return self.k * self.q


def construct_td(t: int, k: int, q: int) -> TransversalDesign:
    """Polynomial transversal design: group g holds the values of the
    degree-<t polynomials at the g-th field element.  q**t blocks;
    requires 1 <= t <= k <= q with q a prime power.
    """
    field = gf._code_field(t, k, q)
    blocks = [
        tuple(g * q + value for g, value in enumerate(values))
        for values in gf._poly_values(field, t, range(k))
    ]
    return TransversalDesign(t, k, q, tuple(sorted(blocks)))


def construct_td_sum(t: int, m: int) -> TransversalDesign:
    """Sum transversal design on t+1 groups over Z_m: the last
    coordinate is the sum of the first t.  Exists for every m >= 1,
    unlike the polynomial construction.
    """
    _check_ints("t and m", (t, m))
    if t < 1 or m < 1:
        raise PreconditionViolated(f"need t >= 1 and m >= 1, got t={t}, m={m}")
    # for m >= 2 the cap's bit length as the exponent is already over the cap
    _check_incidences(m ** min(t, INCIDENCE_CAP.bit_length()), t + 1, t=t, m=m)
    blocks = []
    for xs in itertools.product(range(m), repeat=t):
        coords = xs + (sum(xs) % m,)
        blocks.append(tuple(g * m + x for g, x in enumerate(coords)))
    return TransversalDesign(t, t + 1, m, tuple(blocks))


def label_groups(td: TransversalDesign) -> Labeling:
    """First ceil(k/2) groups positive, the rest negative; every block
    then has discrepancy 0 (k even) or +1 (k odd).
    """
    return interval_labeling(td.v, td.k)


def augment_34(m: int, td: TransversalDesign | None = None) -> BalancedPacking:
    """Extremal (3, 4, 4m) balanced packing for even m.

    Starts from a TD(3,4,m) (the sum design by default, which exists
    for every m) and, for each round of the round-robin matching
    schedule on m vertices, adds every block made of one matched pair
    from a positive group and one matched pair from a negative group,
    both taken from the same round.  Matched pairs from the same round
    are disjoint, so added blocks collide with each other and with the
    transverse blocks in at most 2 points.  The added blocks are those of
    ``factorization.product`` of the round-by-round pairs of groups 0 and
    1 with themselves.  Total: m^3 + m^2(m-1) blocks, the counting-bound
    optimum.
    """
    factorization._check_even_order("m", m)
    _check_incidences(m * m * (2 * m - 1), 4, m=m)
    if td is None:
        td = construct_td_sum(3, m)
    if (td.t, td.k, td.q) != (3, 4, m):
        raise PreconditionViolated(
            f"need a TD(3,4,{m}), got TD({td.t},{td.k},{td.q})"
        )
    rounds = factorization.one_factorization(m).classes
    pairs = factorization.PartitionablePacking(
        1, 2, 2 * m, tuple(r + tuple((a + m, b + m) for a, b in r) for r in rounds))
    blocks = tuple(sorted([*td.blocks, *factorization.product(pairs, pairs).blocks]))
    assert len(blocks) == m**3 + m * m * (m - 1)
    return BalancedPacking(4 * m, 3, 4, label_groups(td), blocks)


def augment_34_char2(m: int) -> BalancedPacking:
    """Characteristic-2 form of the (3, 4, 4m) optimum for m a power
    of two.

    Points are two copies of the field with 2m elements; blocks are
    {a1, a2} from the first copy together with {b1, b2} from the
    second where a1 + a2 == b1 + b2.  Since three of the four values
    force the fourth, two blocks never share three points.  The pairs
    of each sum form one class of a one-factorization of K_2m, and the
    family is ``factorization.product`` of those classes with themselves:
    m^2(2m-1) blocks, augment_34's total.
    """
    _check_ints("m", (m,))
    if m < 2 or m & (m - 1):
        raise PreconditionViolated(f"m={m} must be a power of two and >= 2")
    _check_incidences(m * m * (2 * m - 1), 4, m=m)
    sums = factorization.PartitionablePacking(1, 2, 2 * m, tuple(
        tuple((i, i ^ s) for i in range(2 * m) if i < i ^ s)  # i + s in GF(2m)
        for s in range(1, 2 * m)))
    packing = factorization.product(sums, sums)
    assert packing.n_blocks == m * m * (2 * m - 1)
    return packing
