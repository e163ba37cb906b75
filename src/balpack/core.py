"""Core structures for labeled set families.

A *labeling* assigns +1/-1 to every point of the ground set [0, v).  A
family of blocks over a labeled ground set is *balanced* when every block's
discrepancy (signed label sum) lies in {-1, 0, +1}, and has *t-bounded
intersections* when distinct blocks share at most t-1 points.  The
``BalancedPacking`` container carries the claimed parameters (v, t, k)
together with the labeling and the block list; ``verify`` measures what
actually holds and reports it.

t = 0 has two readings, and both are kept.  ``is_packing(0, blocks)`` is
the set predicate read strictly: the empty set lies in every block, so
only a family of at most one block qualifies.  A family's own ``t = 0``
means that no intersection bound is claimed (the sub-designs derived from
t = 2 families carry it), and ``verify`` reads it that way: it skips the
packing check.

Files: packings are exchanged as a small JSON document with keys exactly
``version, v, t, k, labels, blocks`` (plus an optional ``classes`` list of
block-index groups for partitioned families).  The writer is deterministic;
the parser is strict, checks only the document's JSON shape, and leaves v,
t, k, the label count and the blocks to ``BalancedPacking``: every
malformed document is a ``FormatError``.

``Record`` is the base of the package's immutable value classes, in place
of a frozen dataclass: each subclass gets a generated ``__init__`` over its
``_fields``, checked by ``__post_init__``, and equality, hashing and a repr
over the field tuple.  The ``__init__`` is compiled from source, as
``dataclasses`` does it, so Python itself binds and checks the arguments,
and importing the package imports neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import reprlib
from collections import Counter, namedtuple
from functools import cache
from itertools import chain, combinations, groupby, repeat, starmap
from math import comb
from operator import add, lt, mul

from . import bounds  # registered lazily: it imports core, and runs when verify calls it

__all__ = [
    "PackingError",
    "OutOfRange",
    "TooFewBlocks",
    "LabelConstraint",
    "PreconditionViolated",
    "FormatError",
    "Indivisible",
    "Block",
    "Record",
    "Labeling",
    "interval_labeling",
    "BalancedPacking",
    "VerificationReport",
    "make_packing",
    "discrepancy",
    "max_pairwise_intersection",
    "is_packing",
    "verify",
    "derive_subdesign",
    "to_json",
    "parse_document",
    "from_json",
    "save_packing",
    "load_document",
    "load_packing",
]


class PackingError(Exception):
    """Base class for errors raised by this package's domain layer."""


class OutOfRange(PackingError):
    """A point index lies outside the ground set."""


class TooFewBlocks(PackingError):
    """An operation needing at least two blocks got fewer."""


class LabelConstraint(PackingError):
    """A labeling value or label-dependent precondition is violated."""


class PreconditionViolated(PackingError):
    """Generic precondition failure for construction/bound parameters."""


class FormatError(PackingError):
    """A packing document is malformed."""


class Indivisible(PackingError):
    """Interval construction needs the block size to divide v."""


Block = tuple  # tuple[int, ...]; strictly increasing point indices

# The package's one bit budget for an int: 2^13 bits, at most 2 467 digits,
# under Python's 4 300-digit limit on printing an int.  Every int parameter
# is held to it by ``_check_ints``, and every exact value computed from them
# by ``_check_bits``, so any of them prints.
VALUE_BITS = 2**13


class _ShortRepr(reprlib.Repr):
    def repr1(self, x, level):
        # an int past the budget may be past the print limit: its bit length instead
        if isinstance(x, int) and x.bit_length() > VALUE_BITS:
            return f"<int of {x.bit_length()} bits>"
        return super().repr1(x, level)


_SHORT = _ShortRepr()
_SHORT.maxlevel, _SHORT.maxlist = 3, 4
_Profile = namedtuple("_Profile", "sizes lo hi columns")  # built by _profile


def _short(value) -> str:
    """A repr of a block or a value read from a document, at most 60
    characters, for error messages; an int past ``VALUE_BITS``, alone or
    inside, shows as its bit length."""
    text = _SHORT.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _are_ints(values) -> bool:
    """True when every value is an int and none is a bool; an int subclass
    other than bool passes.  The package's one integer rule: for points,
    labels, parameters and document fields alike."""
    types = set(map(type, values))
    return types <= {int} or all(issubclass(c, int) and c is not bool for c in types)


def _check_ints(names: str, values, error=PreconditionViolated) -> None:
    """The package's one gate for int parameters: raise ``error`` naming
    ``names`` when a value fails ``_are_ints``, quoting the one value or the
    tuple ``values``, or has more than ``VALUE_BITS`` bits, quoting none.
    Callers pick the class their own errors belong to."""
    if not _are_ints(values):
        if len(values) == 1:
            raise error(f"{names} must be an integer, got {_short(values[0])}")
        raise error(f"{names} must be integers, got {_short(values)}")
    for x in values:  # a plain loop: for a few values, cheaper than max(map(...))
        if x.bit_length() > VALUE_BITS:
            what = "an integer" if len(values) == 1 else "integers"
            raise error(f"{names} must be {what} of at most {VALUE_BITS} bits")


def _check_bits(what: str, bits: int) -> None:
    """Refuse, as a ``PreconditionViolated``, a value that could pass
    ``VALUE_BITS``: ``bits`` bounds its bit length from above, found from
    the parameters' bit lengths before the value is computed."""
    if bits > VALUE_BITS:
        raise PreconditionViolated(f"{what} could take over {VALUE_BITS} bits")


def _canonical_profile(blocks, v):
    """The family's profile (see ``_profile``) when ``blocks`` is a tuple
    of nonempty tuples of ints, each strictly increasing within [0, v),
    else None; decided at C level through the profile's columns (their
    points are exact ints, and in each size each column lies below the
    next), for regular and irregular families alike.  Exact ``tuple`` and
    ``int`` types only: bools fail here."""
    if not (type(blocks) is tuple and set(map(type, blocks)) <= {tuple}):
        return None
    profile = _profile(blocks)
    columns = profile.columns.values()
    if (0 in profile.sizes  # an empty block
            or not set(map(type, chain.from_iterable(chain.from_iterable(columns)))) <= {int}
            or not all([all(map(lt, cols[i], cols[i + 1]))
                        for cols in columns for i in range(len(cols) - 1)])):
        return None
    return profile if not blocks or 0 <= profile.lo <= profile.hi < v else None


def _profile(blocks) -> _Profile:
    """One count of what the measurements read from sorted ``blocks``, in
    any order: ``sizes`` maps each size, ascending, to its number of blocks
    (a size-0 block has no column to count it by), ``lo`` and ``hi`` are
    the smallest and largest point (None when there is none or they do not
    compare), and ``columns`` maps each size to its columns, the i-th
    holding each block's i-th point, in block order."""
    sizes, columns, firsts, lasts = {}, {}, [], []
    for size, same in groupby(sorted(blocks, key=len), key=len):
        group = tuple(same)
        sizes[size] = len(group)
        cols = columns[size] = tuple(zip(*group))
        if cols:
            firsts.append(cols[0])
            lasts.append(cols[-1])
    try:
        lo, hi = min(map(min, firsts)), max(map(max, lasts))
    except (TypeError, ValueError):
        lo = hi = None
    return _Profile(sizes, lo, hi, columns)


def _by_columns(sizes) -> bool:
    """The column rule: True when every block size s, a key of ``sizes``
    (a profile's), has at most 8 points and at least s^2 blocks.  Such a
    family is measured through its profile's columns, one C-level pass per
    column, by ``verify``'s discrepancy sums and ``_shared_level``'s
    claimed-level set; any other family block by block, since a column
    costs more than a block's iterator for few blocks or wide ones, and
    s <= 8 bounds the chain of lazy maps the sums build."""
    return all(s <= 8 and c >= s * s for s, c in sizes.items())


class Record:
    """An immutable value with named fields, compared by exact class and
    field tuple.

    A subclass names its fields in ``_fields``, in constructor order, and
    the trailing ones that have a default in ``_defaults``.  Creating the
    subclass compiles its ``__init__(self, <fields>)``, with those
    defaults: it sets the instance dict to the fields, in order, and then calls
    ``self.__post_init__()``, looked up on the class, which checks the
    values.  A subclass that declares no ``_fields`` inherits its parent's
    ``__init__``.  Assigning or deleting an attribute afterwards raises
    ``AttributeError``.  There are no ``__slots__``, so
    ``functools.cached_property`` works on a subclass.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:
            fields = cls._fields
            values = ", ".join(f"{name!r}: {name}" for name in fields)
            lines = [f"def __init__(self, {', '.join(fields)}):",
                     f"    _setattr(self, '__dict__', {{{values}}})",
                     "    self.__post_init__()"]
            scope = {"_setattr": object.__setattr__}
            exec("\n".join(lines), scope)
            init = cls.__init__ = scope["__init__"]
            init.__defaults__ = tuple(cls._defaults[name] for name in fields
                                      if name in cls._defaults)
            init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Labeling(Record):
    """A +1/-1 sign for each point of the ground set: ``signs`` is a tuple
    with one sign, the int 1 or -1, per point.  A float or a bool equal to
    1 or -1 is refused, so every discrepancy stays an int."""

    _fields = ("signs",)

    def __post_init__(self):
        # a tuple, then whole-tuple passes: the types present, then the two
        # counts; an int subclass other than bool passes, as it does in a block
        signs = self.signs
        if not isinstance(signs, tuple):
            raise LabelConstraint(f"labels must be a tuple, got {_short(signs)}")
        if not _are_ints(signs) or signs.count(1) + signs.count(-1) != len(signs):
            raise LabelConstraint(f"labels must be the integers +1 or -1, got {_short(signs)}")

    @property
    def v(self) -> int:
        return len(self.signs)

    @property
    def p_plus(self) -> int:
        return self.signs.count(1)

    @property
    def p_minus(self) -> int:
        return self.v - self.p_plus

    def flipped(self) -> "Labeling":
        """The labeling with every sign negated."""
        return Labeling(tuple(-s for s in self.signs))


def _split_labeling(p_plus: int, p_minus: int) -> Labeling:
    """The split (p_plus, p_minus): +1 on [0, p_plus), -1 on the p_minus points after it."""
    return Labeling((1,) * p_plus + (-1,) * p_minus)


def _kinds(k: int) -> tuple:
    """A balanced k-block's two (positive, negative) counts, ceil(k/2) positive first."""
    return ((k + 1) // 2, k // 2), (k // 2, (k + 1) // 2)


def _type_row(s: int, kinds, p_plus: int, p_minus: int, j: int) -> tuple[int, int, int]:
    """Row j of the sign-type count of s-subsets: the yield C(pos, j)*C(neg, s-j) of a block
    of each (pos, neg) kind in ``kinds``, then the split's C(p_plus, j)*C(p_minus, s-j)."""
    (a, b), (c, d) = kinds
    return (comb(a, j) * comb(b, s - j), comb(c, j) * comb(d, s - j),
            comb(p_plus, j) * comb(p_minus, s - j))


def interval_labeling(v: int, k: int) -> Labeling:
    """+1 on the first ceil(k/2) intervals of size v/k, -1 on the rest:
    the group labeling of every construction whose points fall into k
    equal groups, and of the oracle's interval baseline."""
    _check_ints("v and k", (v, k))
    if v < 1 or k < 1:
        raise PreconditionViolated(f"need integers v and k >= 1, got {_short((v, k))}")
    if v % k:
        raise Indivisible(f"{k} does not divide {v}")
    cut = (k + 1) // 2 * (v // k)
    return _split_labeling(cut, v - cut)


class BalancedPacking(Record):
    """A claimed (t, k, v) balanced packing.

    ``k == 0`` is the irregular sentinel (no common block size claimed);
    ``t == 0`` records that no intersection bound is claimed (as for
    sub-designs derived from t=2 families).  Structural invariants —
    sorted, duplicate-free blocks of ints over [0, v) — are enforced here,
    and only here: whole-family passes decide, and only when one fails
    does a per-block loop run to name the first bad block;
    the semantic booleans (regular / packing / balanced) are ``verify``'s
    job, so that failing families can still be represented and reported.
    A valid packing keeps the profile its validation built as ``_profile``
    (see the function), which ``verify`` reads instead of recounting.

    Fields: ``v``, ``t`` and ``k`` (ints under the point rule, so neither
    a float nor a bool), ``labeling`` (a ``Labeling`` over the v points)
    and ``blocks`` (a tuple of point tuples).
    """

    _fields = ("v", "t", "k", "labeling", "blocks")

    def __post_init__(self):
        _check_ints("parameters v, t and k", (self.v, self.t, self.k), PackingError)
        if self.v < 1:
            raise PackingError(f"ground set size must be >= 1, got {_short(self.v)}")
        if self.t < 0 or self.k < 0:
            raise PackingError("parameters t and k must be >= 0")
        if self.labeling.v != self.v:
            raise LabelConstraint(
                f"labeling covers {self.labeling.v} points, ground set has {_short(self.v)}")
        profile = _canonical_profile(self.blocks, self.v)
        if profile is None or not all(map(lt, self.blocks, self.blocks[1:])):
            # name the first bad block; tuple and int subclasses pass here
            if not isinstance(self.blocks, tuple):
                raise PackingError(f"blocks must be a tuple, got {_short(self.blocks)}")
            prev = ()
            for index, b in enumerate(self.blocks):
                if not (isinstance(b, tuple) and b and _are_ints(b)):
                    raise PackingError(
                        f"block {index} must be a nonempty tuple of integers, got {_short(b)}")
                if not all(map(lt, b, b[1:])):
                    raise PackingError(f"block {index} is not strictly increasing: {_short(b)}")
                if b[0] < 0 or b[-1] >= self.v:
                    raise OutOfRange(
                        f"block {index} leaves the ground set [0, {self.v}): {_short(b)}")
                if b <= prev:
                    raise PackingError(
                        f"block {index} does not sort after block {index - 1}: {_short(b)}")
                prev = b
            profile = _profile(self.blocks)
        object.__setattr__(self, "_profile", profile)  # not a field: unseen by ==, hash, repr

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def with_labeling(self, labeling: Labeling) -> "BalancedPacking":
        return BalancedPacking(self.v, self.t, self.k, labeling, self.blocks)


def make_packing(v, t, k, signs, blocks) -> BalancedPacking:
    """Canonicalizing constructor: sorts points and blocks, drops duplicate blocks."""
    canonical = sorted({tuple(sorted(b)) for b in blocks})
    return BalancedPacking(v, t, k, Labeling(tuple(signs)), tuple(canonical))


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def discrepancy(block, labeling: Labeling) -> int:
    """Signed sum of the labels over a block's points."""
    signs = labeling.signs
    v = len(signs)
    total = 0
    for x in block:
        if not 0 <= x < v:
            raise OutOfRange(f"point {_short(x)} outside ground set [0, {v})")
        total += signs[x]
    return total


def _shared_level(blocks, claimed=None, profile=None, ceiling=None):
    """``(m, j)``: the most points m that two of ``blocks`` share, and the
    first block j that shares m points with an earlier block; None when
    every two blocks are disjoint.  ``_overlap`` names the earlier block.

    ``blocks`` are tuples of increasing points, in any order.  Levels
    m = 1, ..., top (the second largest block size: no two blocks share
    more) are searched from the bottom up: two blocks that share m + 1
    points also share m, so the first level with no repeated m-subset
    ends the walk, and the answer is the level below it.  Hashing the
    m-subsets of every block touches m * sum C(|b|, m) points; counting
    the points each pair of blocks shares through the point-to-block
    incidence touches about sum_x deg(x)^2, whatever m is.  Before each
    level the cheaper of the two is taken from these counts, and an
    incidence count, once taken, settles the walk.  The exact
    sum_x deg(x)^2 needs a pass over the points, so it is taken only
    when the level's hash costs more than a lower bound on it read from
    the ``profile`` (built here when None): its N = sum |b| points lie in
    [lo, hi], so by Cauchy-Schwarz sum_x deg(x)^2 >= N^2 / (hi - lo + 1).
    The subset hash is what keeps regular families far below the n^2
    pairs; the incidence count is what keeps wide blocks, where C(|b|, m)
    explodes, within reach.  Both ways find the same j.

    ``claimed`` is the level the caller expects to hold no repeat (a
    family's t; None when nothing is claimed).  That level and each one
    above it is decided first by one set of every block's m-subsets,
    built at C level, and ``_first_repeat`` runs only when the set shows
    a repeat, to name the block.  Under the column rule (``_by_columns``)
    the set zips each m-subset of a size's columns, which yields the same
    tuples as each block's ``combinations``.  The levels below it, which
    usually repeat within a few blocks, are walked block by block.

    ``ceiling`` (None: no cap) is the highest level walked, for a caller
    that reads only whether that level repeats: a repeat there ends the
    walk, and m may then fall short of the most points two blocks share.
    """
    if len(blocks) < 2:
        return None
    sizes, lo, hi, columns = profile or _profile(blocks)
    *smaller, top = sizes
    if sizes[top] < 2:
        top = smaller[-1]
    counts = sizes.values()
    n = sum(map(mul, sizes, counts))
    floor = n * n // (hi - lo + 1) if isinstance(lo, int) and isinstance(hi, int) else 0
    if claimed is None:
        claimed = top + 1
    if ceiling is not None:
        top = min(top, ceiling)
    incidence_cost = None
    found = None
    for m in range(1, top + 1):
        subsets = dict(zip(sizes, map(comb, sizes, repeat(m))))
        total = sum(map(mul, counts, subsets.values()))
        cost = m * total
        if cost > floor:
            if incidence_cost is None:
                incidence_cost = sum(d * d for d in Counter(chain.from_iterable(blocks)).values())
            if cost > incidence_cost:
                return _incidence_pair(blocks)
        if m >= claimed:
            if _by_columns(sizes):
                rows = starmap(zip, chain.from_iterable(
                    map(combinations, columns.values(), repeat(m))))
            else:
                rows = map(combinations, blocks, repeat(m))
            if len(set(chain.from_iterable(rows))) == total:
                break
        j = _first_repeat(blocks, m, subsets)
        if j is None:
            break
        found = m, j
    return found


def _first_repeat(blocks, m, subsets):
    """The first index j whose block holds an m-subset of an earlier
    block, or None; ``subsets`` maps a block size to its C(size, m)."""
    seen = set()
    for j, b in enumerate(blocks):
        before = len(seen)
        seen.update(combinations(b, m))
        if len(seen) - before < subsets[len(b)]:
            return j
    return None


def _incidence_pair(blocks):
    """``_shared_level``'s ``(m, j)`` counted through the blocks each
    point lies in: j is the first block that shares the most points m
    with an earlier one (None when every two blocks are disjoint)."""
    earlier = {}  # point -> indices of the blocks already passed that hold it
    found = None
    for j, b in enumerate(blocks):
        counts = Counter(chain.from_iterable([earlier.get(x, ()) for x in b]))
        if counts:
            most = max(counts.values())
            if found is None or most > found[0]:
                found = most, j
        for x in b:
            earlier.setdefault(x, []).append(j)
    return found


def _canonical(blocks):
    return [tuple(sorted(set(b))) for b in blocks]


def _overlap(blocks, m, j):
    """``(i, j, shared points)`` for the first block i < j that shares m
    points with block j, as ``_shared_level`` names j and m."""
    points = set(blocks[j])
    for i in range(j):
        shared = points.intersection(blocks[i])
        if len(shared) >= m:
            return i, j, tuple(sorted(shared))


def max_pairwise_intersection(blocks) -> int:
    """Largest |A ∩ B| over distinct blocks; needs at least two blocks."""
    if len(blocks) < 2:
        raise TooFewBlocks("need at least two blocks to compare")
    found = _shared_level(_canonical(blocks))
    return 0 if found is None else found[0]


def is_packing(t: int, blocks) -> bool:
    """True iff every t-subset of the ground set lies in at most one block.

    Counting t-subsets (rather than comparing pairs) makes the check correct
    for irregular families too.  t = 0 is accepted with the strict reading:
    the empty set lies in every block, so only families of at most one block
    qualify.
    """
    _check_ints("t", (t,))
    return _is_packing(t, _canonical(blocks))


def _is_packing(t: int, blocks) -> bool:
    """``is_packing`` for blocks that are already sorted, duplicate-free
    tuples, in any order: ``_shared_level`` with t as the claimed level
    and the ceiling."""
    if t < 0:
        raise PreconditionViolated("t must be >= 0")
    if t == 0:
        return len(blocks) <= 1
    found = _shared_level(blocks, t, ceiling=t)
    return found is None or found[0] < t


class VerificationReport(Record):
    """What a family actually satisfies, plus measured statistics.

    ``passed`` is the conjunction of the three booleans regular/packing/
    balanced.  ``bound``/``bound_ok`` carry the counting-bound cross-check
    (None when the bound's preconditions don't apply).  The witnesses are
    None unless their check failed: ``overlap`` is ``(i, j, shared
    points)`` for two blocks, by input index, sharing the largest
    intersection, and ``unbalanced`` is ``(index, discrepancy)`` of the
    first block whose discrepancy leaves {-1, 0, +1}; both default to
    None.  ``max_intersection`` is None when there are fewer than two
    blocks, and ``discrepancies`` is the sorted tuple of every block's
    discrepancy.
    """

    _fields = ("regular", "packing", "balanced", "n_blocks", "max_intersection",
               "discrepancies", "p_plus", "p_minus", "mixed_signs", "bound",
               "bound_ok", "overlap", "unbalanced")
    _defaults = {"overlap": None, "unbalanced": None}

    @property
    def passed(self) -> bool:
        return self.regular and self.packing and self.balanced

    def lines(self):
        disc = ", ".join(
            f"{d}: {c}" for d, c in sorted(Counter(self.discrepancies).items()))
        out = [
            f"blocks: {self.n_blocks}",
            f"regular: {self.regular}",
            f"packing: {self.packing}",
            f"balanced: {self.balanced}",
            f"max pairwise intersection: {self.max_intersection}",
            f"discrepancy multiset: {{{disc}}}",
            f"labels: {self.p_plus} positive, {self.p_minus} negative",
            f"mixed-sign discrepancies: {self.mixed_signs}",
        ]
        if self.bound is not None:
            status = "ok" if self.bound_ok else "EXCEEDED"
            out.append(f"counting bound: {self.bound} ({status})")
        if self.overlap is not None:
            i, j, shared = self.overlap
            out.append(f"overlap: blocks {i} and {j} share {list(shared)}")
        if self.unbalanced is not None:
            index, d = self.unbalanced
            out.append(f"unbalanced: block {index} has discrepancy {d}")
        out.append("result: " + ("PASS" if self.passed else "FAIL"))
        return out


def verify(p: BalancedPacking) -> VerificationReport:
    """Measure a family against its claimed parameters.

    The overall verdict is the conjunction of exactly three booleans:
    every block has the claimed size (vacuous for the k=0 sentinel), the
    t-subset packing condition holds (skipped for t=0), and every
    discrepancy lies in {-1, 0, +1}.  The largest intersection is measured
    once and decides the packing condition: a t-subset lies in two blocks
    exactly when two blocks share t points.  The counting bound is
    cross-checked on every call whenever its preconditions apply,
    ``VALUE_BITS`` among them; a genuine balanced packing can never exceed
    it, so a False ``bound_ok`` flags an internal inconsistency to the
    caller without changing the three-boolean verdict.
    """
    profile = p._profile  # built by the validation: no recount here
    regular = p.k == 0 or profile.sizes.keys() <= {p.k}
    found = _shared_level(p.blocks, p.t or None, profile)
    maxint = found[0] if found else 0 if p.n_blocks >= 2 else None
    packing = p.t == 0 or maxint is None or maxint < p.t
    # No range check: every point lies in [0, v).  Summed by columns under the
    # column rule, else block by block.  A list's __getitem__ is a C method, a
    # tuple's a slot wrapper: half the cost a point.
    sign = list(p.labeling.signs).__getitem__
    in_order = map(sum, map(map, repeat(sign), p.blocks))  # lazy: no frame per block
    if _by_columns(profile.sizes):
        discs = []  # in_order is read only to name an unbalanced block
        for cols in profile.columns.values():
            sums = map(sign, cols[0])
            for col in cols[1:]:
                sums = map(add, sums, map(sign, col))
            discs += sums
    else:
        discs = in_order = list(in_order)
    ordered = tuple(sorted(discs))
    balanced = not ordered or (ordered[0] >= -1 and ordered[-1] <= 1)
    unbalanced = None if balanced else next(
        (i, d) for i, d in enumerate(in_order) if not -1 <= d <= 1)
    mixed = bool(ordered) and ordered[0] < 0 < ordered[-1]

    p_plus = p.labeling.p_plus
    p_minus = p.v - p_plus
    try:
        bound = bounds.lemma1_bound(
            p.t, p.k, max(p_plus, p_minus), min(p_plus, p_minus))
    except PreconditionViolated:
        bound = bound_ok = None
    else:
        bound_ok = p.n_blocks <= bound

    return VerificationReport(
        regular=regular,
        packing=packing,
        balanced=balanced,
        n_blocks=p.n_blocks,
        max_intersection=maxint,
        discrepancies=ordered,
        p_plus=p_plus,
        p_minus=p_minus,
        mixed_signs=mixed,
        bound=bound,
        bound_ok=bound_ok,
        overlap=None if packing else _overlap(p.blocks, *found),
        unbalanced=unbalanced,
    )


def derive_subdesign(p: BalancedPacking, e1: int, e2: int) -> BalancedPacking:
    """Restrict to the blocks through a positive point e1 and negative e2.

    Returns the family {B - {e1, e2} : e1, e2 in B} on the ground set
    relabeled to [0, v-2), with parameters (t-2, k-2); a block that is
    exactly {e1, e2} is dropped.  The renumbering is monotone and
    injective, so the derived blocks come out strictly increasing and
    distinct.  Only blocks of one size surely keep the source's order:
    (0, 1, 2, 4) < (0, 1, 4), but through 0 and 4 they become (0, 1) > (0,).
    A point that fails the integer gate lies outside the ground set: it
    is an ``OutOfRange``, like one outside [0, v).
    """
    _check_ints("e1 and e2", (e1, e2), OutOfRange)
    for e in (e1, e2):
        if not 0 <= e < p.v:
            raise OutOfRange(f"point {_short(e)} outside ground set [0, {p.v})")
    if p.labeling.signs[e1] != 1:
        raise LabelConstraint(f"point e1={e1} must be labeled +1")
    if p.labeling.signs[e2] != -1:
        raise LabelConstraint(f"point e2={e2} must be labeled -1")

    remaining = [x for x in range(p.v) if x != e1 and x != e2]
    renumber = {old: new for new, old in enumerate(remaining)}
    derived = []
    for b in p.blocks:
        if e1 in b and e2 in b:
            rest = tuple(renumber[x] for x in b if x != e1 and x != e2)
            if rest:  # pairs collapse to nothing; drop them
                derived.append(rest)
    new_t = max(p.t - 2, 0)
    new_k = max(p.k - 2, 0) if p.k else 0
    signs = tuple(p.labeling.signs[x] for x in remaining)
    return BalancedPacking(p.v - 2, new_t, new_k, Labeling(signs), tuple(sorted(derived)))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("version", "v", "t", "k", "labels", "blocks")
_REQUIRED = frozenset(_REQUIRED_KEYS)
_KEYS = _REQUIRED | {"classes"}
_SIGNS = {"+": 1, "-": -1}
_FLIPPED_SIGNS = {"+": -1, "-": 1}


def to_json(p: BalancedPacking, classes=None) -> str:
    """Serialize deterministically; one block (or class) per line.  Every
    int, header and rows alike, is written as ``int.__repr__`` writes it."""
    labels = "".join("+" if s == 1 else "-" for s in p.labeling.signs)
    v, t, k = map(int.__repr__, (p.v, p.t, p.k))
    out = ["{", '  "version": 1,', f'  "v": {v},', f'  "t": {t},', f'  "k": {k},',
           f'  "labels": "{labels}",']
    trailing = "," if classes is not None else ""
    encode = _encoder()

    def array_lines(name, rows, tail):
        if not rows:
            out.append(f'  "{name}": []{tail}')
            return
        out.append(f'  "{name}": [')
        # one C-encoder call for every row; it writes int.__repr__ for an
        # int, int subclasses too, and no row holds "], ["
        out.append("    " + encode(rows)[1:-1].replace("], [", "],\n    ["))
        out.append(f"  ]{tail}")

    array_lines("blocks", p.blocks, trailing)
    if classes is not None:
        array_lines("classes", _class_rows(classes), "")
    out.append("}")
    return "\n".join(out) + "\n"


@cache
def _encoder():
    """json.dumps's encoder without its cycle check (the rows are tuples or
    lists of checked ints, which hold no container to revisit), made once
    a process; json is imported on first use, not by every CLI job."""
    import json

    return json.JSONEncoder(check_circular=False).encode


def _class_rows(classes) -> list:
    """The classes as lists of ints for the encoder; BalancedPacking checks
    the blocks, nothing checks the classes, so an entry that is not an int,
    is a bool or passes ``VALUE_BITS``, raises TypeError here."""
    rows = list(map(list, classes))
    _check_ints("class entries", tuple(chain.from_iterable(rows)), TypeError)
    return rows


def parse_document(text: str):
    """Strict parse of a packing document.

    Returns ``(packing, classes)`` where classes is None unless present.
    Only the JSON shape is checked here: ``BalancedPacking`` checks v, t,
    k, the label count and the blocks, and any ``PackingError`` it raises
    is re-raised as ``FormatError``.
    The stored labeling is normalized on load: when negatives outnumber
    positives the whole labeling is flipped, so in-memory families satisfy
    p_plus >= p_minus.
    """
    import json

    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise FormatError("not valid JSON: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    if not doc.keys() <= _KEYS:
        raise FormatError(f"unknown keys: {_short(sorted(doc.keys() - _KEYS))}")
    if not doc.keys() >= _REQUIRED:
        raise FormatError(f"missing keys: {[key for key in _REQUIRED_KEYS if key not in doc]}")
    version = doc["version"]
    if type(version) is not int or version != 1:  # json.loads makes only exact ints
        raise FormatError(f"unsupported version {_short(version)}")

    labels = doc["labels"]
    if not isinstance(labels, str):
        raise FormatError("labels must be a +/- string")
    # read flipped when negatives outnumber positives
    table = _SIGNS if 2 * labels.count("+") >= len(labels) else _FLIPPED_SIGNS
    try:
        signs = tuple(map(table.__getitem__, labels))
    except KeyError:
        raise FormatError("labels must be a +/- string") from None

    raw_blocks = doc["blocks"]
    if not isinstance(raw_blocks, list):
        raise FormatError("blocks must be a list")
    if not all(map(isinstance, raw_blocks, repeat(list))):
        # name the first row that is not a list
        for index, row in enumerate(raw_blocks):
            if not isinstance(row, list):
                raise FormatError(f"block {index} must be a list, got {_short(row)}")
    blocks = tuple(map(tuple, raw_blocks))

    classes = None
    if "classes" in doc:
        classes = _parse_classes(doc["classes"], len(blocks))

    try:
        packing = BalancedPacking(doc["v"], doc["t"], doc["k"], Labeling(signs), blocks)
    except PackingError as exc:  # v, t, k and the blocks are checked there, and only there
        raise FormatError(str(exc)) from exc
    return packing, classes


def _parse_classes(raw, n_blocks: int):
    if not isinstance(raw, list):
        raise FormatError("classes must be a list of block-index lists")
    seen = set()
    classes = []
    for row in raw:
        if not isinstance(row, list) or not _are_ints(row):
            raise FormatError("each class must be a list of integers")
        if not all(map(lt, row, row[1:])):
            raise FormatError("class indices must be strictly increasing")
        for x in row:
            if not 0 <= x < n_blocks:
                raise FormatError(f"class references block {_short(x)} of {n_blocks}")
            if x in seen:
                raise FormatError(f"block {x} appears in more than one class")
            seen.add(x)
        classes.append(tuple(row))
    if len(seen) != n_blocks:
        raise FormatError("classes must partition the block list")
    return tuple(classes)


def from_json(text: str) -> BalancedPacking:
    return parse_document(text)[0]


def save_packing(p: BalancedPacking, path, classes=None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_json(p, classes=classes))


def load_document(path):
    """Read and strictly parse a packing file: ``(packing, classes)`` as
    ``parse_document`` gives them.  A file that cannot be read raises
    ``OSError``; one that is not ASCII JSON raises ``FormatError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not an ASCII document: {exc}") from exc
    return parse_document(text)


def load_packing(path) -> BalancedPacking:
    return load_document(path)[0]
