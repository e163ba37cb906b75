"""Exact counting bounds for balanced families with t-bounded intersections.

Everything here is big-int / Fraction arithmetic; no floats anywhere.
Every parameter takes the package's integer gate first: a float, a str,
None, a bool or an int past ``core.VALUE_BITS`` is a
``PreconditionViolated``, so ``True`` is never read as 1.  A bound or a
count that could pass ``core.VALUE_BITS`` is refused, as a
``PreconditionViolated``, before it is computed.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .core import PreconditionViolated, _check_bits, _check_ints, _kinds, _type_row

__all__ = [
    "lemma1_bound",
    "corollary_bound",
    "type_lp_bound",
    "SteinerSize",
    "steiner_size",
    "GapResult",
    "theorem1_gap",
]


def _comb_bits(n: int, r: int) -> int:
    """An upper bound on the bit length of C(n, r) for n >= 0 and r >= 0,
    from n's bit length alone: C(n, r) <= n^min(r, n - r), and 0 above n."""
    return min(r, n - r) * n.bit_length() if r <= n else 0


def lemma1_bound(t: int, k: int, p_plus: int, p_minus: int) -> int:
    """Counting bound for a balanced family with blocks of size k over a
    ground set with p_plus positive and p_minus negative points.

    floor( C(p+, floor(t/2)) * C(p-, ceil(t/2))
           / (C(ceil(k/2), floor(t/2)) * C(floor(k/2), ceil(t/2))) )
    """
    _check_ints("t, k, p_plus and p_minus", (t, k, p_plus, p_minus))
    if t < 1 or t >= k:
        raise PreconditionViolated(f"need 1 <= t < k, got t={t}, k={k}")
    if p_minus < 0:
        raise PreconditionViolated("p_minus must be >= 0")
    if p_plus < 2 * ((t + 2) // 2):
        raise PreconditionViolated(
            f"need p_plus >= {2 * ((t + 2) // 2)} for t={t}, got {p_plus}"
        )
    _check_bits("the counting bound",
                _comb_bits(p_plus, t // 2) + _comb_bits(p_minus, (t + 1) // 2))
    a, _, c = _type_row(t, _kinds(k), p_plus, p_minus, t // 2)
    return c // a


def corollary_bound(t: int, k: int, v: int) -> int:
    """``lemma1_bound`` at the balanced split p+ = ceil(v/2), p- = floor(v/2)."""
    _check_ints("t, k and v", (t, k, v))
    return lemma1_bound(t, k, (v + 1) // 2, v // 2)


def _lp_floor(rows: list[tuple[int, int, int]]) -> int:
    """floor(max x + y) subject to x, y >= 0 and a*x + b*y <= c per row.

    Every row has a, b, c >= 0 and the rows jointly bound x and y, so the
    optimum sits at a vertex: on an axis, or where two rows meet.  A vertex
    (Dx/D, Dy/D) is kept exact by Cramer's rule and tested by
    cross-multiplication, so only ints are involved.
    """
    best = min(c // a for a, _, c in rows if a)
    best = max(best, min(c // b for _, b, c in rows if b))
    for i, (a1, b1, c1) in enumerate(rows):
        for a2, b2, c2 in rows[i + 1:]:
            d = a1 * b2 - a2 * b1
            if d == 0:
                continue
            dx, dy = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
            if d < 0:
                d, dx, dy = -d, -dx, -dy
            if (dx + dy) // d > best and dx >= 0 and dy >= 0 and all(
                a * dx + b * dy <= c * d for a, b, c in rows
            ):
                best = (dx + dy) // d
    return best


def type_lp_bound(t: int, k: int, v: int) -> int:
    """Counting bound refined by sign type, solved exactly as a small LP.

    A t-subset has sign type j when j of its points are positive.  Within
    one split (p+ positive, p- negative points) each sign type gives one
    constraint, since no t-subset lies in two blocks:

        sum over block kinds  n_kind * C(pos, j) * C(neg, t-j)
            <= C(p+, j) * C(p-, t-j),     j = 0..t,

    where a kind is a block's (pos, neg) count: (k/2, k/2) for even k,
    (ceil(k/2), floor(k/2)) and (floor(k/2), ceil(k/2)) for odd k.  The
    bound is the largest floor(max sum n_kind) over all splits.  A flipped
    labeling swaps the two kinds, so splits with p+ >= ceil(v/2) suffice.
    The bound never exceeds ``corollary_bound`` where that is defined.
    """
    _check_ints("t, k and v", (t, k, v))
    if not 1 <= t < k <= v:
        raise PreconditionViolated(f"need 1 <= t < k <= v, got ({t},{k},{v})")
    # the bound is at most the first split's cap below
    _check_bits("the LP bound",
                _comb_bits((v + 1) // 2, t // 2) + _comb_bits(v // 2, t - t // 2))
    kinds = _kinds(k)
    # Row j = t//2 alone caps x + y on a split at Lemma 1's quotient c // a,
    # a being the smaller of the row's two yields: for odd k, with (hi, lo) = kinds[0],
    # C(hi, j)C(lo, t-j) / (C(lo, j)C(hi, t-j)) = (hi - t + j) / (hi - j) <= 1.
    # For p+ >= ceil(v/2) the cap never grows with p+, so the walk stops at
    # the first split whose cap cannot beat the best bound so far.
    best = 0
    for p_plus in range((v + 1) // 2, v + 1):
        p_minus = v - p_plus
        a, _, c = first = _type_row(t, kinds, p_plus, p_minus, t // 2)
        if c // a <= best:
            break
        rows = [first] + [_type_row(t, kinds, p_plus, p_minus, j)
                          for j in range(t + 1) if j != t // 2]
        best = max(best, _lp_floor([r for r in rows if r[0] or r[1]]))
    return best


# size: the exact Fraction C(v,t)/C(k,t); integral: whether it is whole.
SteinerSize = namedtuple("SteinerSize", "size integral")


def steiner_size(t: int, k: int, v: int) -> SteinerSize:
    """Block count C(v,t)/C(k,t) of a hypothetical S(t,k,v), kept exact."""
    _check_ints("t, k and v", (t, k, v))
    if not 1 <= t <= k <= v:
        raise PreconditionViolated(f"need 1 <= t <= k <= v, got ({t},{k},{v})")
    _check_bits("C(v, t)", _comb_bits(v, t))
    import fractions

    size = fractions.Fraction(comb(v, t), comb(k, t))
    return SteinerSize(size, size.denominator == 1)


# bound: int; steiner: Fraction; strict: bool.
GapResult = namedtuple("GapResult", "bound steiner strict")


def theorem1_gap(t: int, k: int, v: int) -> GapResult:
    """Balanced-family ceiling vs. the unrestricted Steiner count.

    ``bound`` is the best bound proven here: the smaller of
    ``corollary_bound`` and ``type_lp_bound``.  ``strict`` records that the
    balance requirement genuinely costs blocks: that bound falls strictly
    below the Steiner size.

    Memoised for the life of the process: a batch of families repeats a
    few (t, k, v) many times.  The result is an immutable tuple, so callers
    share it safely, and a failed precondition raises on every call.
    ``theorem1_gap.cache_info()`` reports that cache.
    """
    # checked before the cache, which would hash an unhashable argument first
    _check_ints("t, k and v", (t, k, v))
    return _gap(t, k, v)


@lru_cache(maxsize=None, typed=True)  # typed: an int subclass is not its int value
def _gap(t: int, k: int, v: int) -> GapResult:
    if not (t < k < v) or v <= 2:
        raise PreconditionViolated(f"need t < k < v and v > 2, got ({t},{k},{v})")
    if 2 * ((v + 1) // 2) <= k + 1:
        raise PreconditionViolated("need ceil(v/2) > (k+1)/2")
    bound = min(corollary_bound(t, k, v), type_lp_bound(t, k, v))
    steiner = steiner_size(t, k, v).size
    return GapResult(bound, steiner, bound < steiner)


theorem1_gap.cache_info = _gap.cache_info
