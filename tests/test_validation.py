"""The whole-family fast paths, each checked against the per-block or
per-row code it replaced: BalancedPacking's block checks, parse_document's
row-shape pass, verify's discrepancy pass and to_json's one-call writer;
and the labels Labeling accepts, pinned."""

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st
from test_intersections import irregular_families

from balpack.core import (
    BalancedPacking,
    FormatError,
    LabelConstraint,
    Labeling,
    OutOfRange,
    PackingError,
    _short,
    discrepancy,
    make_packing,
    parse_document,
    to_json,
    verify,
)


def reference_check(blocks, v):
    """The per-block validator: raise for the first bad block."""
    prev = ()
    for index, b in enumerate(blocks):
        if not (isinstance(b, tuple) and b and all(
                isinstance(x, int) and not isinstance(x, bool) for x in b)):
            raise PackingError(
                f"block {index} must be a nonempty tuple of integers, got {_short(b)}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise PackingError(f"block {index} is not strictly increasing: {_short(b)}")
        if b[0] < 0 or b[-1] >= v:
            raise OutOfRange(
                f"block {index} leaves the ground set [0, {v}): {_short(b)}")
        if b <= prev:
            raise PackingError(
                f"block {index} does not sort after block {index - 1}: {_short(b)}")
        prev = b


def reference_to_json(p, classes=None):
    """The writer with one json.dumps call per row."""
    labels = "".join("+" if s == 1 else "-" for s in p.labeling.signs)
    out = [
        "{",
        '  "version": 1,',
        f'  "v": {p.v},',
        f'  "t": {p.t},',
        f'  "k": {p.k},',
        f'  "labels": "{labels}",',
    ]
    trailing = "," if classes is not None else ""

    def array_lines(name, rows, tail):
        if not rows:
            out.append(f'  "{name}": []{tail}')
            return
        out.append(f'  "{name}": [')
        for i, row in enumerate(rows):
            comma = "," if i + 1 < len(rows) else ""
            out.append("    " + json.dumps(list(row)) + comma)
        out.append(f"  ]{tail}")

    array_lines("blocks", p.blocks, trailing)
    if classes is not None:
        array_lines("classes", classes, "")
    out.append("}")
    return "\n".join(out) + "\n"


class Point(int):
    """An int subclass that prints unlike an int."""

    def __repr__(self):
        return f"Point({int(self)})"

    def __str__(self):
        return f"<{int(self)}>"


class Named(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


class Row(tuple):
    """A tuple subclass."""


def outcome(check):
    try:
        check()
    except PackingError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def canonical_families(draw):
    v = draw(st.integers(1, 9))
    rows = draw(st.sets(st.frozensets(st.integers(0, v - 1), min_size=1), max_size=8))
    return v, sorted(tuple(sorted(row)) for row in rows)


@st.composite
def regular_families(draw):
    """Canonical families of 3 to 10 blocks of one size k in 2..4: the
    column pass then checks every block as one group."""
    k = draw(st.integers(2, 4))
    v = draw(st.integers(6, 9))
    rows = draw(st.sets(st.frozensets(st.integers(0, v - 1), min_size=k, max_size=k),
                        min_size=3, max_size=10))
    return v, sorted(tuple(sorted(row)) for row in rows)


def _replace_point(draw, v, b):
    i = draw(st.integers(0, len(b) - 1))
    x = draw(st.one_of(
        st.integers(-3, v + 2),  # negative, out of range or repeated
        st.booleans(),
        st.floats(-1, v, allow_nan=False),
        st.sampled_from([-1, v, Point(b[i]), Named.ONE]),
    ))
    return b[:i] + (x,) + b[i + 1:]


@st.composite
def families(draw):
    """Canonical families, of mixed sizes or of one size, with up to
    three faults or type changes, each of which the per-block validator
    either rejects or accepts."""
    v, blocks = draw(st.one_of(canonical_families(), regular_families()))
    for _ in range(draw(st.integers(0, 3))):
        if not blocks:
            blocks.append(())
            continue
        j = draw(st.integers(0, len(blocks) - 1))
        b = tuple(blocks[j])
        fault = draw(st.sampled_from([
            "point", "swap-points", "repeat-point", "empty", "list", "row",
            "int-subclass", "swap-blocks", "duplicate-block",
        ]))
        if fault == "point" and b:
            blocks[j] = _replace_point(draw, v, b)
        elif fault == "swap-points" and len(b) >= 2:
            blocks[j] = (b[1], b[0]) + b[2:]
        elif fault == "repeat-point":
            blocks[j] = b[:1] + b
        elif fault == "empty":
            blocks[j] = ()
        elif fault == "list":
            blocks[j] = list(b)
        elif fault == "row":
            blocks[j] = Row(b)
        elif fault == "int-subclass":
            blocks[j] = tuple(map(Point, b))
        elif fault == "swap-blocks" and j >= 1:
            blocks[j - 1], blocks[j] = blocks[j], blocks[j - 1]
        elif fault == "duplicate-block":
            blocks.insert(j, blocks[j])
    return v, tuple(blocks)


@given(families())
@settings(max_examples=500)
def test_validation_matches_the_per_block_reference(family):
    v, blocks = family
    labeling = Labeling((1,) * v)
    expected = outcome(lambda: reference_check(blocks, v))
    assert outcome(lambda: BalancedPacking(v, 2, 3, labeling, blocks)) == expected


@pytest.mark.parametrize("blocks", [
    ((0, 1), (2, 4)),  # a point equal to v
    ((-1, 0),),
    ((0, 1), (0, 1)),
    ((0, 2), (0, 1)),
    ((0, 0),),
    ((0, 1.0),),
    ((0, True),),
    ((0, 1), ()),
    ([0, 1],),
    (Row((0, 1)), (Point(0), Named.TWO), (Named.ONE, 3)),  # accepted
    ((0, 1), (0, 4), (1, True), ()),  # the first of several faults is named
    ((), (1, True), (0, 4), (0, 1)),
], ids=["v", "negative", "duplicate", "misordered", "repeated-point", "float", "bool",
        "empty", "list", "subclasses", "faults", "faults-reversed"])
def test_validation_matches_the_reference_on_single_faults(blocks):
    expected = outcome(lambda: reference_check(blocks, 4))
    labeling = Labeling((1, 1, -1, -1))
    assert outcome(lambda: BalancedPacking(4, 2, 3, labeling, blocks)) == expected


@st.composite
def written_families(draw):
    """Valid families, int-subclass points included, with an optional
    partition of the block indices into classes."""
    v, blocks = draw(canonical_families())
    kind = draw(st.sampled_from([int, Point, Named]))
    if kind is Named:
        blocks = [b for b in blocks if b[-1] <= Named.TWO]
    blocks = tuple(tuple(map(kind, b)) for b in blocks)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=v, max_size=v))
    packing = BalancedPacking(v, 2, 3, Labeling(tuple(signs)), blocks)
    classes = None
    if draw(st.booleans()):
        index = Point if kind is Point else int
        groups = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
        classes = tuple(tuple(index(i) for i, g in enumerate(groups) if g == group)
                        for group in range(3))
    return packing, classes


@given(written_families())
@settings(max_examples=300)
def test_writer_matches_the_json_dumps_reference(family):
    packing, classes = family
    assert to_json(packing, classes) == reference_to_json(packing, classes)


def test_writer_prints_int_subclasses_as_json_does():
    points = (Point(0), Named.TWO)
    packing = BalancedPacking(3, 2, 2, Labeling((1, 1, -1)), (points,))
    text = to_json(packing, classes=((Point(0),), ()))
    assert text == reference_to_json(packing, classes=((Point(0),), ()))
    assert "    [0, 2]\n" in text and '  "classes": [\n    [0],\n    []\n  ]\n' in text


def test_writer_rejects_class_entries_that_are_not_integers():
    packing = BalancedPacking(3, 2, 2, Labeling((1, 1, -1)), ((0, 1), (0, 2)))
    for bad in (((0,), (True,)), ((0.0,), (1,)), ((0, 1.5),), (("0",), (1,))):
        with pytest.raises(TypeError):
            to_json(packing, classes=bad)
    assert to_json(packing, classes=((0,), (Named.ONE,))) == reference_to_json(
        packing, classes=((0,), (1,)))


class Unequal:
    """A label whose comparison raises."""

    def __eq__(self, other):
        raise ValueError("no comparison")

    def __repr__(self):
        return "Unequal()"

    __hash__ = None


@pytest.mark.parametrize("label,error", [
    (True, LabelConstraint), (1.0, LabelConstraint), (-1.0, LabelConstraint),
    (Named.ONE, None), (Point(-1), None),
    (False, LabelConstraint), (0, LabelConstraint), (2, LabelConstraint),
    ([1], LabelConstraint), (None, LabelConstraint), ("1", LabelConstraint),
    (Unequal(), LabelConstraint),
], ids=repr)
def test_labeling_accepts_exactly_the_labels_equal_to_one_or_minus_one(label, error):
    # only ints that are not bools: a float or bool equal to +1 or -1 is a
    # LabelConstraint, and so is any label that is not an int, before a
    # comparison of it could run (or raise)
    for signs in ((label,), (1, -1, label), (label, 1)):
        if error is None:
            assert Labeling(signs).signs == signs
        else:
            with pytest.raises(error):
                Labeling(signs)


def reference_first_bad_row(rows):
    """The message the per-row shape loop gave for the first row that is
    not a list, or None."""
    for index, row in enumerate(rows):
        if not isinstance(row, list):
            return f"block {index} must be a list, got {_short(row)}"
    return None


_JSON_ROWS = st.one_of(
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(-1, 5),
    st.none(),
    st.booleans(),
    st.text("+-01", max_size=3),
    st.dictionaries(st.text("ab", max_size=1), st.integers(0, 3), max_size=1),
    st.floats(0, 3, allow_nan=False),
)


@given(st.lists(_JSON_ROWS, max_size=6))
def test_parser_names_the_first_row_that_is_not_a_list(rows):
    text = json.dumps({"version": 1, "v": 4, "t": 2, "k": 2, "labels": "++--",
                       "blocks": rows})
    expected = reference_first_bad_row(json.loads(text)["blocks"])
    try:
        parse_document(text)
    except FormatError as exc:
        message = str(exc)
    else:
        message = None
    if expected is None:
        assert message is None or "must be a list" not in message
    else:
        assert message == expected


def reference_discrepancies(p):
    """``(sorted discrepancies, first unbalanced block)`` block by block
    through the public, range-checked ``discrepancy``."""
    discs = [discrepancy(b, p.labeling) for b in p.blocks]
    unbalanced = next(((i, d) for i, d in enumerate(discs) if not -1 <= d <= 1), None)
    return tuple(sorted(discs)), unbalanced


@st.composite
def labeled_families(draw):
    """Regular and irregular families under any labeling, with a claimed k
    that may or may not match the block sizes."""
    if draw(st.booleans()):
        blocks = draw(irregular_families())
        v = max(max(b) for b in blocks) + 1 + draw(st.integers(0, 2))
        k = draw(st.integers(0, v))
    else:
        v = draw(st.integers(1, 12))
        k = draw(st.integers(1, v))
        blocks = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=k, max_size=k),
                               max_size=12))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=v, max_size=v))
    return make_packing(v, 2, k, signs, blocks)


@given(labeled_families())
@settings(max_examples=400)
def test_verify_discrepancies_match_the_per_block_reference(p):
    report = verify(p)
    discs, unbalanced = reference_discrepancies(p)
    assert report.discrepancies == discs
    assert report.unbalanced == unbalanced
    assert report.balanced == (unbalanced is None)
    assert report.mixed_signs == (any(d > 0 for d in discs) and any(d < 0 for d in discs))
    assert report.regular == (p.k == 0 or all(len(b) == p.k for b in p.blocks))
