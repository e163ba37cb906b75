"""Matchings, large sets of triple systems, and their class-aligned product.

Every gluing of two families in the package is one operation, ``product``:
given two families whose blocks are partitioned into classes, pair up
blocks class-by-class on a disjoint union of the ground sets, the first
side labeled +1 and the second -1.  Each route checks its own
preconditions and is then one call to it: ``triples_from_factorization``
(round-robin matchings against singleton classes), ``mds_product`` (a
large set of Steiner systems with itself), ``mds_45_product`` (a large
set of STS with matchings), and ``transversal.augment_34`` (the added
blocks) and ``transversal.augment_34_char2`` (the whole family).
A one-factorization is checked as the 1-partitionable family of pairs it is.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import lt, mul

from .core import (
    BalancedPacking,
    PackingError,
    PreconditionViolated,
    Record,
    _are_ints,
    _canonical_profile,
    _check_incidences,
    _check_ints,
    _is_packing,
    _short,
    _split_labeling,
    load_document,
    save_packing,
)


class OddOrder(PreconditionViolated):
    """Perfect matchings need an even number of vertices."""


class ClassCountMismatch(PackingError):
    pass


class ClassesNotDisjoint(PackingError):
    pass


class ClassesNotSteiner(PackingError):
    pass


class NotSupported(PackingError):
    pass


# ---------------------------------------------------------------------------
# one-factorizations
# ---------------------------------------------------------------------------


class OneFactorization(Record):
    """A partition of the complete graph K_n into n-1 perfect matchings.

    ``classes`` is a tuple of matchings, each matching a tuple of (a, b)
    pairs: a 1-partitionable family of pairs, checked as one by
    ``from_one_factorization``, whose faults raise ``PreconditionViolated``.
    n - 1 matchings of n/2 distinct edges then cover every edge.
    """

    _fields = ("n", "classes")

    def __post_init__(self):
        n, classes = self.n, self.classes
        _check_even_order("n", n)
        try:
            from_one_factorization(self)
        except PackingError as exc:
            raise PreconditionViolated(str(exc)) from exc
        if len(classes) != n - 1 or set(map(len, classes)) != {n // 2}:
            raise PreconditionViolated(
                f"expected {n - 1} matchings of {n // 2} edges, got {_short(classes)}")


def _check_even_order(name: str, n) -> None:
    """The matching routes' order rule for their order ``name``: an even int >= 2."""
    _check_ints(name, (n,))
    if n < 2 or n % 2:
        raise OddOrder(f"{name}={n} must be even and >= 2")


def one_factorization(n: int) -> OneFactorization:
    """Round-robin factorization of K_n: vertex n-1 sits at the hub and
    the rest rotate around a circle; deterministic.
    """
    _check_even_order("n", n)
    _check_incidences(n * (n - 1) // 2, 2, n=n)
    m = n - 1
    classes = []
    for r in range(m):
        edges = [(r, m)]
        for i in range(1, n // 2):
            edges.append(tuple(sorted(((r + i) % m, (r - i) % m))))
        classes.append(tuple(sorted(edges)))
    return OneFactorization(n, tuple(classes))


def triples_from_factorization(p_plus: int, p_minus: int) -> BalancedPacking:
    """Triples {a, b, j}: matching edge {a, b} joined to the negative
    point indexing its round.

    Positive points [0, p_plus) carry the matchings; negative points
    p_plus + j for j < p_minus each absorb one whole matching.  Gives
    p_plus * p_minus / 2 triples forming a (2, 3, p_plus + p_minus)
    balanced packing, every discrepancy +1.
    """
    _check_even_order("p_plus", p_plus)
    _check_ints("p_minus", (p_minus,))
    if not 1 <= p_minus < p_plus:
        raise PreconditionViolated(f"need 1 <= p_minus < p_plus, got {p_minus}")
    return product(from_one_factorization(one_factorization(p_plus)),
                   singleton_classes(p_minus), allow_prefix=True)


# ---------------------------------------------------------------------------
# partitionable packings and their product
# ---------------------------------------------------------------------------


class PartitionablePacking(Record):
    """Blocks split into classes, each class a (t_prime, k, v) packing.

    Distinct classes never share a block; that is what makes the
    class-aligned product below a packing again.  ``t_prime``, ``k`` and
    ``v`` are ints and ``classes`` is a tuple of block tuples, whose points
    are ints, under the point rule of ``BalancedPacking``.
    """

    _fields = ("t_prime", "k", "v", "classes")

    def __post_init__(self):
        classes = self.classes
        _check_ints("t_prime, k and v", (self.t_prime, self.k, self.v))
        if not (isinstance(classes, tuple) and all(isinstance(c, tuple) for c in classes)):
            raise PreconditionViolated(f"classes must be a tuple of tuples, got {_short(classes)}")
        # whole-family passes decide whether the per-block loop runs, to name
        # the first bad block; each class is then checked as a packing in turn
        blocks = tuple(itertools.chain.from_iterable(classes))
        profile = _canonical_profile(blocks, self.v)
        canonical = (profile is not None and profile.sizes.keys() <= {self.k}
                     and len(set(blocks)) == len(blocks))
        seen = set()
        for c, cls in enumerate(classes):
            for i, b in enumerate(() if canonical else cls):
                where = f"class {c} block {i}"
                if not (isinstance(b, tuple) and _are_ints(b) and len(b) == self.k
                        and all(map(lt, b, b[1:]))):
                    raise PreconditionViolated(f"{where} is malformed: {_short(b)}")
                if not all(0 <= x < self.v for x in b):
                    raise PreconditionViolated(
                        f"{where} leaves [0, {self.v}): {_short(b)}")
                if b in seen:
                    raise ClassesNotDisjoint(f"{where} repeats an earlier block: {_short(b)}")
                seen.add(b)
            if not _is_packing(self.t_prime, cls):  # its blocks are canonical by now
                raise PreconditionViolated(f"a class is not a {self.t_prime}-packing")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def all_blocks(self) -> tuple:
        return tuple(sorted(b for cls in self.classes for b in cls))


def from_one_factorization(factors: OneFactorization) -> PartitionablePacking:
    """View the matchings as a 1-partitionable family of pairs."""
    return PartitionablePacking(1, 2, factors.n, factors.classes)


def singleton_classes(n: int) -> PartitionablePacking:
    """n classes, each holding the single block {i}."""
    _check_ints("n", (n,))
    if n < 1:
        raise PreconditionViolated("need at least one class")
    _check_incidences(n, 1, n=n)
    return PartitionablePacking(0, 1, n, tuple(((i,),) for i in range(n)))


def product(
    p1: PartitionablePacking,
    p2: PartitionablePacking,
    allow_prefix: bool = False,
) -> BalancedPacking:
    """Class-aligned product on the disjoint union of the ground sets.

    For every class index i, every block of p1's class i is joined to
    every block of p2's class i (p2's points shifted up by p1.v).  Two
    product blocks share at most max(k2 + t1, k1 + t2) - 1 points, so
    the result is a packing at that strength; points of p1 are labeled
    +1, points of p2 are labeled -1, giving every block discrepancy
    k1 - k2.  This holds the package's one class-aligned pairing loop.
    """
    if len(p1.classes) != len(p2.classes) and not allow_prefix:
        raise ClassCountMismatch(
            f"{len(p1.classes)} classes vs {len(p2.classes)}; "
            "pass allow_prefix to zip the shorter prefix"
        )
    _check_incidences(sum(map(mul, map(len, p1.classes), map(len, p2.classes))),
                      p1.k + p2.k, classes=min(len(p1.classes), len(p2.classes)))
    blocks = []
    for c1, c2 in zip(p1.classes, p2.classes):
        shifted = [tuple(x + p1.v for x in d) for d in c2]
        blocks.extend(b + d for b in c1 for d in shifted)
    t_out = max(p2.k + p1.t_prime, p1.k + p2.t_prime)
    return BalancedPacking(p1.v + p2.v, t_out, p1.k + p2.k, _split_labeling(p1.v, p2.v),
                           tuple(sorted(blocks)))


# ---------------------------------------------------------------------------
# large sets of Steiner triple systems
# ---------------------------------------------------------------------------

_PAIRS9 = tuple(itertools.combinations(range(9), 2))


def _sts_completions(chosen, covered, pool):
    """Yield completions of ``chosen`` to a full STS(9) inside ``pool``.

    Deterministic: always branches on the lexicographically smallest
    uncovered pair, trying third points in ascending order.
    """
    if len(chosen) == 12:
        yield tuple(chosen)
        return
    target = next(p for p in _PAIRS9 if p not in covered)
    a, b = target
    for c in range(9):
        if c == a or c == b:
            continue
        tri = tuple(sorted((a, b, c)))
        if tri not in pool:
            continue
        pa, pb = tuple(sorted((a, c))), tuple(sorted((b, c)))
        if pa in covered or pb in covered:
            continue
        chosen.append(tri)
        covered.update((target, pa, pb))
        yield from _sts_completions(chosen, covered, pool)
        chosen.pop()
        covered.difference_update((target, pa, pb))


def large_set_sts(v: int = 9) -> PartitionablePacking:
    """Partition all C(9,3) triples into 7 pairwise disjoint STS(9).

    Each class is the first completion, in ``_sts_completions`` order, of
    the smallest triple left, so the result is reproducible; for v = 9
    that completion always extends to the next class, so nothing
    backtracks.  Only v=9 is built in; larger sets can be imported from
    files via load_large_set.
    """
    _check_ints("v", (v,))
    if v != 9:
        raise NotSupported(f"no built-in large set for v={v}; import from a file")
    remaining = set(itertools.combinations(range(9), 3))
    classes = []
    while remaining:
        seed = min(remaining)
        covered = set(itertools.combinations(seed, 2))
        sts = next(_sts_completions([seed], covered, remaining), None)
        assert sts is not None, "the first completions of STS(9) always extend"
        classes.append(tuple(sorted(sts)))
        remaining.difference_update(sts)
    return PartitionablePacking(2, 3, 9, tuple(classes))


# ---------------------------------------------------------------------------
# products over disjoint Steiner systems
# ---------------------------------------------------------------------------


def _check_steiner_classes(m: PartitionablePacking) -> None:
    per_class = comb(m.v, m.t_prime) // comb(m.k, m.t_prime)
    if comb(m.v, m.t_prime) % comb(m.k, m.t_prime):
        raise ClassesNotSteiner(
            f"no ({m.t_prime},{m.k},{m.v}) Steiner system can exist"
        )
    # the type makes each class a t'-packing with no block in two classes;
    # a t'-packing of C(v,t')/C(k,t') blocks is then a Steiner system
    for cls in m.classes:
        if len(cls) != per_class:
            raise ClassesNotSteiner(
                f"class of size {len(cls)} is not a ({m.t_prime},{m.k},{m.v}) "
                "Steiner system"
            )


def mds_product(m: PartitionablePacking) -> BalancedPacking:
    """Pair every two blocks (order matters, repeats allowed) of the same
    Steiner class across two copies of the ground set.

    Requires a full large set: C(v,k)*C(k,t)/C(v,t) pairwise disjoint
    (t,k,v) Steiner systems.  The result is a (t+k, 2k, 2v) balanced
    packing, discrepancy 0 on every block.
    """
    _check_steiner_classes(m)
    t, k, v = m.t_prime, m.k, m.v
    want_classes = comb(v, k) * comb(k, t) // comb(v, t)
    if len(m.classes) != want_classes:
        raise PreconditionViolated(
            f"need {want_classes} classes for a full large set, got {len(m.classes)}"
        )
    return product(m, m)


def mds_45_product(m: PartitionablePacking, p_minus: int) -> BalancedPacking:
    """Triples from a large set of STS(p_plus) joined to matching edges.

    Class i of the large set pairs with round i of the round-robin
    factorization of K_{p_minus}, where p_minus = p_plus - 1 is even;
    both sides have p_plus - 2 classes.  Result: a (4, 5, p_plus+p_minus)
    balanced packing, every discrepancy +1.
    """
    _check_ints("p_minus", (p_minus,))
    if (m.t_prime, m.k) != (2, 3):
        raise PreconditionViolated("need classes of triples covering pairs")
    p_plus = m.v
    if p_minus != p_plus - 1 or p_minus % 2:
        raise PreconditionViolated(
            f"need p_minus = p_plus - 1 even, got p_plus={p_plus}, p_minus={p_minus}"
        )
    if len(m.classes) != p_plus - 2:
        raise PreconditionViolated(
            f"need {p_plus - 2} classes, got {len(m.classes)}"
        )
    _check_steiner_classes(m)
    return product(m, from_one_factorization(one_factorization(p_minus)))


# ---------------------------------------------------------------------------
# large-set files
# ---------------------------------------------------------------------------


def save_large_set(m: PartitionablePacking, path) -> None:
    """Write a partitionable packing as a packing file with a "classes"
    field of block-index lists, each in increasing order as
    ``load_large_set`` reads them; labels are the canonical half split.
    """
    blocks = m.all_blocks
    index = {b: i for i, b in enumerate(blocks)}
    classes = tuple(tuple(sorted(index[b] for b in cls)) for cls in m.classes)
    half = (m.v + 1) // 2
    packing = BalancedPacking(m.v, m.t_prime, m.k, _split_labeling(half, m.v - half), blocks)
    save_packing(packing, path, classes)


def partitionable_from_document(packing: BalancedPacking, classes) -> PartitionablePacking:
    """The partitionable packing a parsed document with classes describes."""
    grouped = tuple(
        tuple(packing.blocks[i] for i in cls) for cls in classes
    )
    return PartitionablePacking(packing.t, packing.k, packing.v, grouped)


def load_large_set(path) -> PartitionablePacking:
    packing, classes = load_document(path)
    if classes is None:
        raise PreconditionViolated(f"{path}: no classes field")
    return partitionable_from_document(packing, classes)
