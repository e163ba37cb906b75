"""Transversal designs and group-labeled augmentations.

The point set is k groups of q consecutive integers; flattening is
(value, group) -> group*q + value-index.  Two TD sources are provided:
the polynomial construction over GF(q) (needs q a prime power and
k <= q) and a sum construction over Z_m with k = t+1 groups which
exists for every modulus.  Labeling half the groups positive makes
every transverse block balanced, and the augmentation routines then
pack extra blocks into pairs of opposite-sign groups.
"""

from __future__ import annotations

import itertools

from . import factorization, gf
from .core import (BalancedPacking, Labeling, PreconditionViolated, Record, _are_ints, _short,
                   is_packing)


class TransversalDesign(Record):
    """Blocks meeting each of k groups of size q in exactly one point;
    ``blocks`` is a sorted tuple of point tuples.  As in a
    ``BalancedPacking``, a point is an int and not a bool, and so are
    ``t``, ``k`` and ``q``."""

    _fields = ("t", "k", "q", "blocks")

    def __post_init__(self):
        if not _are_ints((self.t, self.k, self.q)):
            raise PreconditionViolated(
                f"t, k and q must be integers, got {_short((self.t, self.k, self.q))}")
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
        if list(self.blocks) != sorted(set(self.blocks)):
            raise PreconditionViolated("blocks must be sorted and duplicate-free")

    @property
    def v(self) -> int:
        return self.k * self.q

    @property
    def groups(self) -> tuple:
        return tuple(
            tuple(range(g * self.q, (g + 1) * self.q)) for g in range(self.k)
        )


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
    if not (_are_ints((t, m)) and t >= 1 and m >= 1):
        raise PreconditionViolated(f"need t >= 1 and m >= 1, got t={t}, m={m}")
    blocks = []
    for xs in itertools.product(range(m), repeat=t):
        coords = xs + (sum(xs) % m,)
        blocks.append(tuple(g * m + x for g, x in enumerate(coords)))
    return TransversalDesign(t, t + 1, m, tuple(sorted(blocks)))


def check_td(td: TransversalDesign) -> bool:
    """Confirm that every cross-group t-subset lies in exactly one block.

    Every block is transverse, so each covers C(k, t) of the C(k, t)·q^t
    cross-group t-subsets and no other t-subset.  Every one is covered
    exactly once iff no t-subset is covered twice and there are q^t blocks.
    """
    return len(td.blocks) == td.q ** td.t and is_packing(td.t, td.blocks)


def label_groups(td: TransversalDesign) -> Labeling:
    """First ceil(k/2) groups positive, the rest negative; every block
    then has discrepancy 0 (k even) or +1 (k odd).
    """
    plus = (td.k + 1) // 2
    signs = (1,) * (plus * td.q) + (-1,) * ((td.k - plus) * td.q)
    return Labeling(signs)


def _group_signs(td: TransversalDesign, labeling: Labeling) -> list:
    if labeling.v != td.v:
        raise PreconditionViolated("labeling does not match the point count")
    signs = []
    for grp in td.groups:
        sgns = {labeling.signs[x] for x in grp}
        if len(sgns) != 1:
            raise PreconditionViolated("labeling must be constant on each group")
        signs.append(sgns.pop())
    return signs


def augment_generic(td: TransversalDesign, labeling: Labeling, t: int) -> tuple:
    """Extra blocks joining the first k/2 points of a positive group to
    the first k/2 points of a negative group, one block per group pair.

    Any two added blocks overlap in at most k/2 points, and an added
    block meets a transverse block at most twice; for t above both,
    the combined family is still a t-packing.  Returns only the added
    blocks.
    """
    if td.k % 2:
        raise PreconditionViolated(f"k={td.k} must be even")
    if t <= max(td.k // 2, 2):
        raise PreconditionViolated(
            f"need t > max(k/2, 2) = {max(td.k // 2, 2)}, got t={t}"
        )
    if t < td.t:
        raise PreconditionViolated(
            f"target strength t={t} is below the design's t={td.t}"
        )
    if td.k // 2 > td.q:
        raise PreconditionViolated("groups are too small to take k/2 points")
    signs = _group_signs(td, labeling)
    half = td.k // 2
    added = []
    for gp, sp in enumerate(signs):
        if sp != 1:
            continue
        for gn, sn in enumerate(signs):
            if sn != -1:
                continue
            added.append(
                tuple(sorted(td.groups[gp][:half] + td.groups[gn][:half]))
            )
    return tuple(sorted(added))


def augment_34(m: int, td: TransversalDesign | None = None) -> BalancedPacking:
    """Extremal (3, 4, 4m) balanced packing for even m.

    Starts from a TD(3,4,m) (the sum design by default, which exists
    for every m) and, for each round of the round-robin matching
    schedule on m vertices, adds every block made of one matched pair
    from a positive group and one matched pair from a negative group,
    both taken from the same round.  Matched pairs from the same round
    are disjoint, so added blocks collide with each other and with the
    transverse blocks in at most 2 points.  The added blocks are those of
    the class-aligned product of the round-by-round pairs of groups 0 and
    1 with themselves, checked once, with the rest.  Total: m^3 +
    m^2(m-1) blocks, the counting-bound optimum.
    """
    factorization._check_even_order("m", m)
    if td is None:
        td = construct_td_sum(3, m)
    if (td.t, td.k, td.q) != (3, 4, m):
        raise PreconditionViolated(
            f"need a TD(3,4,{m}), got TD({td.t},{td.k},{td.q})"
        )
    rounds = factorization.one_factorization(m).classes
    pairs = factorization.PartitionablePacking(
        1, 2, 2 * m, tuple(r + tuple((a + m, b + m) for a, b in r) for r in rounds))
    blocks = tuple(sorted([*td.blocks, *factorization.product_blocks(pairs, pairs)]))
    assert len(blocks) == m**3 + m * m * (m - 1)
    return BalancedPacking(4 * m, 3, 4, label_groups(td), blocks)


def augment_34_char2(m: int) -> BalancedPacking:
    """Characteristic-2 form of the (3, 4, 4m) optimum for m a power
    of two.

    Points are two copies of the field with 2m elements; blocks are
    {a1, a2} from the first copy together with {b1, b2} from the
    second where a1 + a2 == b1 + b2.  Since three of the four values
    force the fourth, two blocks never share three points.  The count
    m^2(2m-1) equals augment_34's total.  The sum classes are paired
    here, not through ``factorization.product``, so this route loads no
    other layer.
    """
    if not _are_ints((m,)) or m < 2 or m & (m - 1):
        raise PreconditionViolated(f"m={m} must be a power of two and >= 2")
    by_sum: dict = {}
    for i, j in itertools.combinations(range(2 * m), 2):
        by_sum.setdefault(i ^ j, []).append((i, j))  # addition in GF(2m)
    blocks = []
    for pairs in by_sum.values():
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                blocks.append((a1, a2, 2 * m + b1, 2 * m + b2))
    assert len(blocks) == m * m * (2 * m - 1)
    signs = (1,) * (2 * m) + (-1,) * (2 * m)
    return BalancedPacking(4 * m, 3, 4, Labeling(signs), tuple(sorted(blocks)))
