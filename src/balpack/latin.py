"""Fixed-point-free Latin rectangles built from seed pairs.

A p x p array over two alphabets — p "plain" symbols naming rows and p
"boxed" symbols naming columns — is grown from a handful of seed pairs:
plain pairs are planted symmetrically in column 0 and swept along
falling diagonals (row-1, col+1, value-1), boxed pairs are planted in
row 0 and swept the other way (row+1, col-1, value-1).  When the seed
pairs are "regular" (no two pairs in the same set share a circular
difference), the sweep tiles the square with no symbol repeated in any
row or column and no cell naming its own row or column.  Reading each
cell as the triple {row, column, value} then gives an extremal
(2, 3, 2p) balanced packing; appending one extra column handles ground
sets of size 2p+1.
"""

from __future__ import annotations

from .core import (BalancedPacking, PackingError, PreconditionViolated, Record,
                   _check_ints, _short, _split_labeling)


class SeedInvalid(PackingError):
    """The filled rectangle failed one of its invariants."""


class InvariantViolation(PackingError):
    pass


# ---------------------------------------------------------------------------
# seed sets
# ---------------------------------------------------------------------------


def _check_p_plus(p) -> None:
    """The order rule of the seed sets: p_plus is an int, even and >= 4."""
    _check_ints("p_plus", (p,))
    if p < 4 or p % 2:
        raise PreconditionViolated(f"p_plus={p} must be even and >= 4")


class SeedSets(Record):
    """Two sets of unordered pairs that together partition Z_{p_plus}.

    The positive pairs seed the plain cells, the negative pairs the
    boxed cells; each set is a tuple of (a, b) pairs with a < b.
    Regularity is not enforced here, so deliberately broken seeds can be
    represented; ``fill`` checks the rectangle they grow.
    """

    _fields = ("p_plus", "positive_pairs", "negative_pairs")

    def __post_init__(self):
        p = self.p_plus
        _check_p_plus(p)
        covered = []
        for a, b in self.positive_pairs + self.negative_pairs:
            if not (0 <= a < b < p):
                raise PreconditionViolated(f"bad pair {_short((a, b))}")
            covered.extend((a, b))
        if sorted(covered) != list(range(p)):
            raise PreconditionViolated(
                "pairs must cover each residue exactly once"
            )


def seed_sets(p_plus: int) -> SeedSets:
    """The two hand-built seed families, chosen by p_plus mod 4.

    Divisible by four: pairs {i, -i-1} with the low quarter of starting
    points feeding the positive set and the next quarter the negative
    set.  Otherwise (p_plus/2 odd): the positive set mixes {i, -i-1}
    and {i, -i-2} pairs and the negative set is the single leftover
    pair.  Both families are regular and fill without fixed points.
    """
    p = p_plus
    _check_p_plus(p)
    if p % 4 == 0:
        positive = [(i, (-i - 1) % p) for i in range(p // 4)]
        negative = [(i, (-i - 1) % p) for i in range(p // 4, p // 2)]
    else:
        quarter = (p - 2) // 4
        positive = [(i, (-i - 1) % p) for i in range(quarter)]
        positive += [(i, (-i - 2) % p) for i in range(quarter, p // 2 - 1)]
        negative = [(p // 2 - 1, (-quarter - 1) % p)]
    # a < p/2 <= b in each pair (a, b), and a rises: canonical and sorted
    return SeedSets(p, tuple(positive), tuple(negative))


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------


class LatinRectangle(Record):
    """p_plus rows by cols columns of (value, boxed) entries: ``cells`` is
    a tuple of row tuples of (value, boxed) pairs."""

    _fields = ("p_plus", "cols", "cells")

    def __post_init__(self):
        p = self.p_plus
        _check_ints("p_plus", (p,))
        _check_ints("cols", (self.cols,))
        if self.cols not in (p, p + 1):
            raise PreconditionViolated(f"cols must be {p} or {p + 1}")
        if len(self.cells) != p or any(len(row) != self.cols for row in self.cells):
            raise PreconditionViolated("cell array has the wrong shape")
        for row in self.cells:
            for val, boxed in row:
                if not (0 <= val < p and isinstance(boxed, bool)):
                    raise PreconditionViolated(f"bad cell {_short((val, boxed))}")

    def cell(self, row: int, col: int) -> tuple:
        return self.cells[row][col]


def _invariant_failures(r: LatinRectangle) -> list:
    """All row/column symbol repeats and fixed points, as messages."""
    problems = []
    for i, row in enumerate(r.cells):
        if len(set(row)) != len(row):
            problems.append(f"row {i} repeats a symbol")
    for j in range(r.cols):
        column = [r.cells[i][j] for i in range(r.p_plus)]
        if len(set(column)) != len(column):
            problems.append(f"column {j} repeats a symbol")
    for i, row in enumerate(r.cells):
        for j, (val, boxed) in enumerate(row):
            if not boxed and val == i:
                problems.append(f"plain fixed point at ({i}, {j})")
            if boxed and val == j:
                problems.append(f"boxed fixed point at ({i}, {j})")
    return problems


def fill(seeds: SeedSets) -> LatinRectangle:
    """Grow the full square from the seeds.

    A pair {x, y} fills the diagonals row + col = x and = y (mod p), and
    the seeds name each residue once, so every cell is written once; the
    two diagonals mirror each other and x != y, so the square is symmetric
    with no fixed point.  Irregular seeds repeat a symbol in a row or a
    column, which is checked here and raises ``SeedInvalid`` naming it.
    """
    p = seeds.p_plus
    grid = [[None] * p for _ in range(p)]
    for x, y in seeds.positive_pairs:
        for row0, val0 in ((x, y), (y, x)):
            for c in range(p):
                grid[(row0 - c) % p][c] = ((val0 - c) % p, False)
    for x, y in seeds.negative_pairs:
        for col0, val0 in ((x, y), (y, x)):
            for s in range(p):
                grid[s][(col0 - s) % p] = ((val0 - s) % p, True)
    rect = LatinRectangle(p, p, tuple(tuple(row) for row in grid))
    problems = _invariant_failures(rect)
    if problems:
        raise SeedInvalid("; ".join(problems))
    return rect


def augment_column(r: LatinRectangle) -> LatinRectangle:
    """Append one plain column reading p/2, p/2+1, ... (mod p) downward.

    Row i of the square holds only plain values of parity opposite to
    p/2 + i, so the new entries repeat nothing; the result is
    re-verified and serves ground sets of odd size 2p+1.
    """
    p = r.p_plus
    if r.cols != p:
        raise PreconditionViolated("rectangle already has an extra column")
    rows = tuple(
        row + (((p // 2 + i) % p, False),) for i, row in enumerate(r.cells)
    )
    out = LatinRectangle(p, p + 1, rows)
    problems = _invariant_failures(out)
    if problems:
        raise InvariantViolation("; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------


def extract_triples(r: LatinRectangle) -> BalancedPacking:
    """One triple {row, column-point, value-point} per symmetric cell
    pair: p_plus * cols / 2 blocks forming a (2, 3, p_plus + cols)
    balanced packing.

    Points [0, p_plus) are the plain symbols and [p_plus, p_plus+cols)
    the boxed column names.  Squares label plain +1 / boxed -1; for an
    augmented rectangle the boxed side is the larger one and takes +1.
    """
    p, cols = r.p_plus, r.cols
    triples = set()
    for i, row in enumerate(r.cells):
        for j, (val, boxed) in enumerate(row):
            third = p + val if boxed else val
            triples.add(tuple(sorted((i, p + j, third))))
    if 2 * len(triples) != p * cols:
        raise InvariantViolation(
            f"{len(triples)} triples from {p}x{cols} cells; "
            "cells did not pair up two-to-one"
        )
    labeling = _split_labeling(p, cols) if cols == p else _split_labeling(p, cols).flipped()
    return BalancedPacking(p + cols, 2, 3, labeling, tuple(sorted(triples)))

