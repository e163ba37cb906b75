import pytest

from balpack.core import PreconditionViolated, verify
from balpack.latin import (
    InvariantViolation,
    LatinRectangle,
    SeedInvalid,
    SeedSets,
    augment_column,
    extract_triples,
    fill,
    seed_sets,
)


def parse_rows(text):
    rows = []
    for line in text.strip().splitlines():
        row = []
        for tok in line.split():
            if tok.startswith("["):
                row.append((int(tok[1:-1]), True))
            else:
                row.append((int(tok), False))
        rows.append(tuple(row))
    return tuple(rows)


SQUARE8 = parse_rows(
    """
    7   5   [5] [4] [3] [2] 3   1
    6   [4] [3] [2] [1] 4   2   0
    [3] [2] [1] [0] 5   3   1   7
    [1] [0] [7] 6   4   2   0   [2]
    [7] [6] 7   5   3   1   [1] [0]
    [5] 0   6   4   2   [0] [7] [6]
    1   7   5   3   [7] [6] [5] [4]
    0   6   4   [6] [5] [4] [3] 2
    """
)

SQUARE10 = parse_rows(
    """
    9   7   4   2   [7] 8   6   [4] 3   1
    8   5   3   [6] 9   7   [3] 4   2   0
    6   4   [5] 0   8   [2] 5   3   1   9
    5   [4] 1   9   [1] 6   4   2   0   7
    [3] 2   0   [0] 7   5   3   1   8   6
    3   1   [9] 8   6   4   2   9   7   [2]
    2   [8] 9   7   5   3   0   8   [1] 4
    [7] 0   8   6   4   1   9   [0] 5   3
    1   9   7   5   2   0   [9] 6   4   [6]
    0   8   6   3   1   [8] 7   5   [5] 2
    """
)

SQUARE4 = parse_rows(
    """
    3   [2] [1] 1
    [1] [0] 2   0
    [3] 3   1   [0]
    0   2   [3] [2]
    """
)

# boxed symbols shifted up by 8
TRIPLES16 = {
    (0, 7, 8), (1, 6, 8), (0, 5, 9), (6, 7, 9),
    (4, 7, 10), (5, 6, 10), (3, 6, 11), (4, 5, 11),
    (2, 5, 12), (3, 4, 12), (1, 4, 13), (2, 3, 13),
    (0, 3, 14), (1, 2, 14), (0, 1, 15), (2, 7, 15),
    (0, 10, 13), (0, 11, 12), (1, 9, 12), (1, 10, 11),
    (2, 8, 11), (2, 9, 10), (3, 8, 9), (3, 10, 15),
    (4, 8, 15), (4, 9, 14), (5, 8, 13), (5, 14, 15),
    (6, 12, 15), (6, 13, 14), (7, 11, 14), (7, 12, 13),
}


# --- seeds --------------------------------------------------------------------


def test_seed_sets_multiple_of_four():
    s = seed_sets(8)
    assert s.positive_pairs == ((0, 7), (1, 6))
    assert s.negative_pairs == ((2, 5), (3, 4))
    assert seed_sets(4).positive_pairs == ((0, 3),)
    assert seed_sets(4).negative_pairs == ((1, 2),)


def test_seed_sets_half_odd():
    s = seed_sets(10)
    assert s.positive_pairs == ((0, 9), (1, 8), (2, 6), (3, 5))
    assert s.negative_pairs == ((4, 7),)
    t = seed_sets(6)
    assert t.positive_pairs == ((0, 5), (1, 3))
    assert t.negative_pairs == ((2, 4),)


def test_seed_sets_preconditions():
    with pytest.raises(PreconditionViolated):
        seed_sets(7)
    with pytest.raises(PreconditionViolated):
        seed_sets(2)


def test_seed_type_requires_exact_cover():
    with pytest.raises(PreconditionViolated):
        SeedSets(8, ((0, 7), (1, 6)), ((2, 5), (3, 5)))  # 5 twice, 4 missing
    with pytest.raises(PreconditionViolated):
        SeedSets(8, ((0, 7),), ((2, 5), (3, 4)))  # 1 and 6 uncovered


def check_regularity(seeds):
    """Reference check of the seeds' regularity: no two distinct pairs in
    the same set may share a circular difference (in either orientation);
    equivalently, the unordered difference classes within each set are
    pairwise distinct.
    """
    p = seeds.p_plus
    for pairs in (seeds.positive_pairs, seeds.negative_pairs):
        diffs = [min((b - a) % p, (a - b) % p) for a, b in pairs]
        if len(set(diffs)) != len(diffs):
            return False
    return True


def check_symmetry(r):
    """Reference check of the symmetry ``fill`` builds in: plain entries
    pair up within a column (value <-> row); boxed entries pair up within
    a row (value <-> column).
    """
    for i, row in enumerate(r.cells):
        for j, (val, boxed) in enumerate(row):
            if boxed:
                if r.cells[i][val] != (j, True):
                    return False
            elif r.cells[val][j] != (i, False):
                return False
    return True


@pytest.mark.parametrize("p", [4, 6, 8, 10, 12, 14, 16])
def test_built_in_seeds_are_regular(p):
    assert check_regularity(seed_sets(p))


def test_shared_difference_breaks_regularity():
    bad = SeedSets(8, ((0, 4), (2, 6)), ((1, 3), (5, 7)))
    assert not check_regularity(bad)


# --- fill ---------------------------------------------------------------------


def test_fill_eight_matches_fixture():
    assert fill(seed_sets(8)).cells == SQUARE8


def test_fill_ten_matches_fixture():
    assert fill(seed_sets(10)).cells == SQUARE10


def test_fill_four_matches_fixture():
    assert fill(seed_sets(4)).cells == SQUARE4


@pytest.mark.parametrize("p", [4, 6, 8, 10, 12, 16, 20])
def test_fill_output_is_symmetric(p):
    assert check_symmetry(fill(seed_sets(p)))


def test_fill_detects_irregular_seeds():
    # same residue cover as seed_sets(8), but both pairs straddle the
    # same circular difference, which makes a row repeat a symbol
    bad = SeedSets(8, ((0, 6), (1, 7)), ((2, 5), (3, 4)))
    assert not check_regularity(bad)
    with pytest.raises(SeedInvalid, match="^row 0 repeats a symbol; "):
        fill(bad)


def test_symmetry_predicate_spots_tampering():
    r = fill(seed_sets(8))
    rows = [list(row) for row in r.cells]
    rows[7][0] = (2, False)  # partner of the (0,0) entry no longer points back
    tampered = LatinRectangle(8, 8, tuple(tuple(row) for row in rows))
    assert not check_symmetry(tampered)


# --- triples ------------------------------------------------------------------


def test_triples_sixteen_points_fixture():
    p = extract_triples(fill(seed_sets(8)))
    assert set(p.blocks) == TRIPLES16
    assert p.n_blocks == 32
    assert (p.t, p.k, p.v) == (2, 3, 16)
    assert p.labeling.signs == (1,) * 8 + (-1,) * 8
    rep = verify(p)
    assert rep.passed
    assert set(rep.discrepancies) == {-1, 1}


@pytest.mark.parametrize("p_plus", [4, 6, 8, 10, 12, 16])
def test_square_triple_counts(p_plus):
    packing = extract_triples(fill(seed_sets(p_plus)))
    v = 2 * p_plus
    assert packing.n_blocks == v * v // 8
    assert verify(packing).passed


# --- augmented column ----------------------------------------------------------


def test_augment_appends_shifted_column():
    aug = augment_column(fill(seed_sets(8)))
    assert [aug.cell(i, 8) for i in range(8)] == [
        (4, False), (5, False), (6, False), (7, False),
        (0, False), (1, False), (2, False), (3, False),
    ]
    # the original square is untouched
    assert tuple(row[:8] for row in aug.cells) == SQUARE8


def test_augment_four_column_and_count():
    aug = augment_column(fill(seed_sets(4)))
    assert [aug.cell(i, 4)[0] for i in range(4)] == [2, 3, 0, 1]
    packing = extract_triples(aug)
    assert packing.n_blocks == 10
    assert (packing.v, packing.labeling.p_plus) == (9, 5)
    assert verify(packing).passed


@pytest.mark.parametrize("p_plus", [4, 6, 8, 10])
def test_augmented_counts_match_odd_ground_sets(p_plus):
    packing = extract_triples(augment_column(fill(seed_sets(p_plus))))
    v = 2 * p_plus + 1
    assert packing.v == v
    assert packing.n_blocks == (v // 2) * ((v + 1) // 2) // 2
    assert packing.labeling.p_plus == p_plus + 1
    rep = verify(packing)
    assert rep.passed


def test_augment_rejects_double_append():
    aug = augment_column(fill(seed_sets(8)))
    with pytest.raises(PreconditionViolated):
        augment_column(aug)


# --- hand-built rectangles -----------------------------------------------------


def replaced(r, cells):
    """``r`` with the cells at the given (row, column) positions replaced.
    ``LatinRectangle`` checks only each cell's range and type, so the
    result may break the invariants that ``fill`` guarantees."""
    rows = [list(row) for row in r.cells]
    for (i, j), cell in cells.items():
        rows[i][j] = cell
    return LatinRectangle(r.p_plus, r.cols, tuple(map(tuple, rows)))


# fill(seed_sets(4)): row 0 is 3 [2] [1] 1, column 1 is [2] [0] 3 2; the
# column appended to row 0 is a plain 2
@pytest.mark.parametrize("cells, message", [
    ({(0, 1): (0, True)}, "column 1 repeats a symbol"),  # [0] is in row 1 too
    ({(0, 1): (0, False)}, "plain fixed point at (0, 1)"),
    ({(0, 0): (0, True)}, "boxed fixed point at (0, 0)"),
], ids=["column-repeat", "plain-fixed-point", "boxed-fixed-point"])
def test_augment_names_each_broken_invariant(cells, message):
    broken = replaced(fill(seed_sets(4)), cells)
    with pytest.raises(InvariantViolation) as info:
        augment_column(broken)
    assert str(info.value) == message


def test_extract_triples_refuses_cells_that_do_not_pair_up():
    # The replaced cell's triple {0, 4 + 1, 4 + 0} has no mirror cell, and
    # the mirror of the one it replaced, {0, 4 + 1, 4 + 2}, is left alone.
    broken = replaced(fill(seed_sets(4)), {(0, 1): (0, True)})
    with pytest.raises(InvariantViolation) as info:
        extract_triples(broken)
    assert str(info.value) == "9 triples from 4x4 cells; cells did not pair up two-to-one"
