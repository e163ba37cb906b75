"""Balanced packings from low-degree polynomial evaluation.

Points are arranged in ``k`` rows of ``q``, one row per evaluation point.
Evaluating every polynomial of degree below ``t`` over a fixed evaluation
set yields ``q**t`` blocks with one point per row; two distinct
polynomials of degree < t agree on at most t-1 evaluation points, so
pairwise intersections stay below ``t``.
"""

from __future__ import annotations

from . import gf
from .core import BalancedPacking, Labeling, PackingError, PreconditionViolated


class NotInA(PackingError):
    """First argument of the point encoding is not in the evaluation set."""


def evaluation_set(field: gf.FieldSpec, k: int) -> tuple[int, ...]:
    """The k evaluation points: zero, then the first k-1 powers of xi.

    Their discrete indices are exactly 0, 1, ..., k-1.
    """
    if not 1 <= k <= field.q:
        raise PreconditionViolated(f"need 1 <= k <= q, got k={k}, q={field.q}")
    return (0,) + field.exp[: k - 1]


def sigma(field: gf.FieldSpec, k: int, a: int, b: int) -> int:
    """Encode the pair (evaluation point, value) as a point in [0, k*q).

    Row-major: evaluation point ``a`` selects the row, the discrete index
    of ``b`` selects the position inside it.
    """
    if a not in evaluation_set(field, k):
        raise NotInA(f"{a!r} is not one of the {k} evaluation points")
    return field.q * field.discrete_index(a) + field.discrete_index(b)


def label_points(q: int, k: int) -> Labeling:
    """Sign pattern on the k*q points: a prefix of rows is negative.

    For even k exactly half the rows are negative and every constructed
    block has discrepancy 0; for odd k the negative prefix covers
    (k+1)/2 rows and every block has discrepancy -1.
    """
    if k % 2 == 0:
        cut = k * q // 2
    else:
        cut = q * (k + 1) // 2
    return Labeling(tuple(-1 if i < cut else 1 for i in range(k * q)))


def construct(q: int, k: int, t: int) -> BalancedPacking:
    """Balanced packing with q**t blocks of size k on k*q points.

    Requires 1 <= t <= k <= q with q a prime power.  Blocks are indexed
    by the polynomials of degree < t over GF(q); pairwise intersections
    are at most t-1 and all block discrepancies agree (0 for even k,
    -1 for odd k).
    """
    field = gf._code_field(t, k, q)
    # the evaluation point with discrete index r owns row r, so the points
    # of a block come out in increasing order
    code = [[q * r + field.discrete_index(b) for b in range(q)] for r in range(k)]
    blocks = [
        tuple(row[b] for row, b in zip(code, values))
        for values in gf._poly_values(field, t, evaluation_set(field, k))
    ]
    # distinct polynomials give distinct blocks: the row encodes the
    # evaluation point, so equal blocks would agree at k >= t points
    assert len(set(blocks)) == q**t
    return BalancedPacking(k * q, t, k, label_points(q, k), tuple(sorted(blocks)))
