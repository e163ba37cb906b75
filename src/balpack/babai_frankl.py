"""Balanced packings from low-degree polynomial evaluation.

Points are arranged in ``k`` rows of ``q``, one row per evaluation point.
Evaluating every polynomial of degree below ``t`` over a fixed evaluation
set yields ``q**t`` blocks with one point per row; two distinct
polynomials of degree < t agree on at most t-1 evaluation points, so
pairwise intersections stay below ``t``.
"""

from __future__ import annotations

from . import gf
from .core import BalancedPacking, Labeling, PreconditionViolated, _check_ints, interval_labeling


def evaluation_set(field: gf.FieldSpec, k: int) -> tuple[int, ...]:
    """The k evaluation points: zero, then the first k-1 powers of xi.

    Their discrete indices are exactly 0, 1, ..., k-1.
    """
    _check_ints("k", (k,))
    if not 1 <= k <= field.q:
        raise PreconditionViolated(f"need 1 <= k <= q, got k={k}, q={field.q}")
    return (0,) + field.exp[: k - 1]


def label_points(q: int, k: int) -> Labeling:
    """Sign pattern on the k*q points: a prefix of rows is negative.

    For even k exactly half the rows are negative and every constructed
    block has discrepancy 0; for odd k the negative prefix covers
    (k+1)/2 rows and every block has discrepancy -1.
    """
    _check_ints("q and k", (q, k))
    if q < 1 or k < 1:
        raise PreconditionViolated(f"need q >= 1 and k >= 1, got q={q}, k={k}")
    return interval_labeling(k * q, k).flipped()


def construct(q: int, k: int, t: int) -> BalancedPacking:
    """Balanced packing with q**t blocks of size k on k*q points.

    Requires 1 <= t <= k <= q with q a prime power.  Blocks are indexed
    by the polynomials of degree < t over GF(q); pairwise intersections
    are at most t-1 and all block discrepancies agree (0 for even k,
    -1 for odd k).
    """
    field = gf._code_field(t, k, q)
    # the point encoding: the evaluation point with discrete index r owns
    # row r, and value b sits at position index(b) in it, so (a, b) is
    # point q * index(a) + index(b) and a block's points come out in
    # increasing order
    code = [[q * r + field.discrete_index(b) for b in range(q)] for r in range(k)]
    blocks = [
        tuple(row[b] for row, b in zip(code, values))
        for values in gf._poly_values(field, t, evaluation_set(field, k))
    ]
    return BalancedPacking(k * q, t, k, label_points(q, k), tuple(sorted(blocks)))
