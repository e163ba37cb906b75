import json
from math import comb

import pytest
from hypothesis import example, given, strategies as st
from test_validation import Point

from balpack import core
from balpack.core import (
    BalancedPacking,
    FormatError,
    Labeling,
    LabelConstraint,
    OutOfRange,
    PackingError,
    TooFewBlocks,
    derive_subdesign,
    discrepancy,
    from_json,
    is_packing,
    make_packing,
    max_pairwise_intersection,
    parse_document,
    to_json,
    verify,
)


def triangle_packing():
    # (2,3,6) packing: 4 triples, pairwise sharing at most one point,
    # every block discrepancy in {-1, +1}
    blocks = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    return make_packing(6, 2, 3, (1, 1, -1, -1, 1, -1), blocks)


# --- labeling ---------------------------------------------------------------


def test_labeling_counts_and_flip():
    lab = Labeling((1, 1, -1))
    assert (lab.v, lab.p_plus, lab.p_minus) == (3, 2, 1)
    assert lab.flipped().signs == (-1, -1, 1)


def test_labeling_rejects_bad_signs():
    with pytest.raises(LabelConstraint):
        Labeling((1, 0, -1))


@pytest.mark.parametrize("p_plus, p_minus, signs", [
    (0, 0, ()),
    (1, 0, (1,)),
    (3, 0, (1, 1, 1)),
    (0, 2, (-1, -1)),
    (1, 1, (1, -1)),
    (2, 3, (1, 1, -1, -1, -1)),
    (4, 4, (1, 1, 1, 1, -1, -1, -1, -1)),
])
def test_split_labeling_is_plus_then_minus(p_plus, p_minus, signs):
    lab = core._split_labeling(p_plus, p_minus)
    assert lab == Labeling(signs)
    assert (lab.p_plus, lab.p_minus) == (p_plus, p_minus)


@pytest.mark.parametrize("k, kinds", [
    (1, ((1, 0), (0, 1))),
    (2, ((1, 1), (1, 1))),
    (3, ((2, 1), (1, 2))),
    (4, ((2, 2), (2, 2))),
    (5, ((3, 2), (2, 3))),
    (6, ((3, 3), (3, 3))),
    (7, ((4, 3), (3, 4))),
    (8, ((4, 4), (4, 4))),
    (9, ((5, 4), (4, 5))),
])
def test_kinds_of_a_balanced_block(k, kinds):
    assert core._kinds(k) == kinds


@pytest.mark.parametrize("v", range(4, 13))
def test_type_row_over_the_complement_kinds(v):
    # On the split (p+, p-), the complement of a k-block of kind (a, b) is a
    # (v - k)-block of kind (p+ - a, p- - b), and two complements share at
    # most T - 1 points, T = t + v - 2k.  Every row of T-subsets over those
    # two kinds, at each split p+ >= ceil(v/2) where both kinds exist.
    rows = 0
    for k in range(2, v):
        hi, lo = (k + 1) // 2, k // 2
        for t in range(1, k):
            s = t + v - 2 * k
            for p_plus in range((v + 1) // 2, v + 1) if s >= 1 else ():
                p_minus = v - p_plus
                if p_minus < hi:
                    continue
                kinds = ((p_plus - hi, p_minus - lo), (p_plus - lo, p_minus - hi))
                for j in range(s + 1):
                    assert core._type_row(s, kinds, p_plus, p_minus, j) == (
                        comb(p_plus - hi, j) * comb(p_minus - lo, s - j),
                        comb(p_plus - lo, j) * comb(p_minus - hi, s - j),
                        comb(p_plus, j) * comb(p_minus, s - j),
                    ), (t, k, v, p_plus, j)
                    rows += 1
    assert rows


# --- structural validation ---------------------------------------------------


def test_make_packing_canonicalizes():
    p = make_packing(5, 2, 3, [1] * 3 + [-1] * 2, [(2, 1, 0), (0, 1, 2), (4, 0, 3)])
    assert p.blocks == ((0, 1, 2), (0, 3, 4))  # sorted, deduplicated


def test_make_packing_rejects_repeated_point():
    with pytest.raises(PackingError):
        make_packing(5, 2, 3, [1] * 5, [(0, 1, 1)])


def test_out_of_range_block():
    with pytest.raises(OutOfRange):
        make_packing(4, 2, 3, [1, 1, -1, -1], [(0, 1, 7)])


def test_labeling_length_must_match_ground_set():
    with pytest.raises(LabelConstraint):
        make_packing(4, 2, 3, [1, 1, -1], [(0, 1, 2)])


def test_direct_constructor_rejects_unsorted():
    with pytest.raises(PackingError):
        BalancedPacking(4, 2, 3, Labeling((1, 1, -1, -1)), ((2, 1, 0),))


@pytest.mark.parametrize("block", [(0, 1.0, 2), (0, True, 2), (), [0, 1, 2]],
                         ids=["float", "bool", "empty", "list"])
def test_direct_constructor_rejects_non_integer_blocks(block):
    with pytest.raises(PackingError, match="block 1 must be a nonempty tuple of integers"):
        BalancedPacking(4, 2, 3, Labeling((1, 1, -1, -1)), ((0, 1, 3), block))


@pytest.mark.parametrize("v,labels,blocks", [
    (4, "++--", "[[0, 1, 4]]"),  # a point past the ground set
    (4, "++--", "[[-1, 0, 1]]"),  # a negative point
    (4, "++--", "[[], [0, 1, 2]]"),  # an empty block
    (0, "", "[]"),  # an empty ground set
], ids=["out-of-range", "negative", "empty-block", "v-0"])
def test_every_malformed_document_is_a_format_error(v, labels, blocks):
    text = ('{"version": 1, "v": %d, "t": 2, "k": 3, "labels": "%s", "blocks": %s}'
            % (v, labels, blocks))
    with pytest.raises(FormatError):
        parse_document(text)


# --- measurements -----------------------------------------------------------


def test_discrepancy():
    lab = Labeling((1, -1, 1, -1))
    assert discrepancy((0, 2), lab) == 2
    assert discrepancy((0, 1), lab) == 0
    assert discrepancy((1, 3), lab) == -2
    with pytest.raises(OutOfRange):
        discrepancy((0, 9), lab)
    # one pass over the block: an iterator is summed, not spent on the check
    assert discrepancy(iter((0, 2)), lab) == 2


@pytest.mark.parametrize("block, point", [((0, 4), 4), ((-1, 2), -1), ((1, 2, 7), 7)])
def test_discrepancy_names_the_point_outside(block, point):
    with pytest.raises(OutOfRange) as caught:
        discrepancy(block, Labeling((1, -1, 1, -1)))
    assert str(caught.value) == f"point {point} outside ground set [0, 4)"


def test_max_pairwise_intersection():
    assert max_pairwise_intersection([(0, 1, 2), (0, 1, 3), (4, 5, 6)]) == 2
    assert max_pairwise_intersection([(0, 1), (2, 3)]) == 0
    with pytest.raises(TooFewBlocks):
        max_pairwise_intersection([(0, 1, 2)])


def test_is_packing_basExamples():
    assert is_packing(2, [(0, 1, 2), (0, 3, 4)])
    assert not is_packing(2, [(0, 1, 2), (0, 1, 3)])
    assert is_packing(1, [(0, 1), (2, 3)])
    assert not is_packing(1, [(0, 1), (1, 2)])


def test_is_packing_handles_irregular_blocks():
    # the shorter block has no 3-subset, so it cannot collide
    assert is_packing(3, [(0, 1), (0, 1, 2, 3)])
    assert not is_packing(2, [(0, 1), (0, 1, 2, 3)])


def test_is_packing_t_zero_strict():
    assert is_packing(0, [])
    assert is_packing(0, [(0, 1)])
    assert not is_packing(0, [(0, 1), (2, 3)])


# --- verify ------------------------------------------------------------------


def test_verify_passes_on_good_packing():
    rep = verify(triangle_packing())
    assert rep.passed
    assert (rep.regular, rep.packing, rep.balanced) == (True, True, True)
    assert rep.max_intersection == 1
    assert rep.discrepancies == (-1, -1, 1, 1)
    assert rep.mixed_signs
    # p_plus = 3 is below the threshold where the counting bound applies
    assert rep.bound is None


def test_verify_reports_counting_bound_when_applicable():
    blocks = [(0, 1, 4), (0, 2, 5), (0, 3, 6), (1, 2, 6), (1, 3, 5), (2, 3, 4)]
    p = make_packing(8, 2, 3, [1, 1, 1, 1, -1, -1, -1, -1], blocks)
    rep = verify(p)
    assert rep.passed
    assert rep.bound == 8  # floor(C(4,1)*C(4,1) / (C(2,1)*C(1,1)))
    assert rep.bound_ok


def test_verify_detects_single_flipped_sign():
    p = triangle_packing()
    signs = list(p.labeling.signs)
    signs[1] = -1
    bad = p.with_labeling(Labeling(tuple(signs)))
    rep = verify(bad)
    assert not rep.balanced and not rep.passed
    assert rep.regular and rep.packing  # only balance broke


def test_verify_is_invariant_under_global_flip():
    p = triangle_packing()
    flipped = p.with_labeling(p.labeling.flipped())
    a, b = verify(p), verify(flipped)
    assert (a.regular, a.packing, a.balanced) == (b.regular, b.packing, b.balanced)
    assert a.max_intersection == b.max_intersection
    assert a.bound == b.bound  # bound orients by majority sign
    assert [abs(d) for d in a.discrepancies] == [abs(d) for d in b.discrepancies]


def test_verify_detects_irregular_and_nonpacking():
    p = make_packing(6, 2, 3, [1, 1, 1, -1, -1, -1], [(0, 1, 2), (3, 4)])
    rep = verify(p)
    assert not rep.regular
    q = make_packing(6, 2, 3, [1, 1, -1, 1, -1, -1], [(0, 1, 2), (0, 1, 3)])
    rep2 = verify(q)
    assert not rep2.packing


def test_verify_k_zero_sentinel_skips_regularity():
    p = make_packing(6, 2, 0, [1, 1, 1, -1, -1, -1], [(0, 1, 2), (3, 4)])
    rep = verify(p)
    assert rep.regular  # no common size claimed
    assert rep.bound is None  # t < k fails, bound not applicable


def test_verify_t_zero_skips_packing_check():
    p = make_packing(4, 0, 2, [1, 1, -1, -1], [(0, 2), (0, 3), (1, 2)])
    assert verify(p).packing  # would fail is_packing(0, ...) strictness


def test_report_lines_render():
    rep = verify(triangle_packing())
    text = "\n".join(rep.lines())
    assert "result: PASS" in text
    assert "blocks: 4" in text


# --- derive ------------------------------------------------------------------


def test_derive_requires_oppositely_labeled_points():
    p = triangle_packing()
    with pytest.raises(LabelConstraint):
        derive_subdesign(p, 3, 5)  # e1 negative
    with pytest.raises(LabelConstraint):
        derive_subdesign(p, 0, 1)  # e2 positive
    with pytest.raises(OutOfRange):
        derive_subdesign(p, 0, 17)
    with pytest.raises(OutOfRange):
        derive_subdesign(p, 0.0, 3)  # equal to a point, but not an int
    with pytest.raises(OutOfRange):
        derive_subdesign(p, 0, 3.0)


def test_derive_uncovered_pair_gives_empty_family():
    p = make_packing(4, 2, 3, [1, 1, -1, -1], [(0, 1, 2)])
    sub = derive_subdesign(p, 1, 3)  # pair {1,3} in no block
    assert sub.blocks == ()
    assert (sub.v, sub.t, sub.k) == (2, 0, 1)


def test_derive_relabels_ground_set():
    p = triangle_packing()
    sub = derive_subdesign(p, 0, 3)  # only (0,3,4) contains both
    # ground set drops 0 and 3; remaining order 1,2,4,5 -> indices 0..3;
    # the surviving point 4 maps to new index 2
    assert sub.blocks == ((2,),)
    assert sub.v == 4 and sub.t == 0 and sub.k == 1
    assert sub.labeling.signs == (1, -1, 1, -1)
    assert verify(sub).passed


def test_derive_from_pair_family_drops_empty_blocks():
    p = make_packing(4, 1, 2, [1, 1, -1, -1], [(0, 2), (1, 3)])
    sub = derive_subdesign(p, 0, 2)
    assert sub.blocks == ()
    assert (sub.v, sub.t, sub.k) == (2, 0, 0)


def test_derive_merges_collapsing_blocks():
    blocks = [(0, 1, 2), (0, 2, 3)]
    p = make_packing(4, 2, 3, [1, 1, -1, -1], blocks)
    sub = derive_subdesign(p, 0, 2)
    # both blocks contain {0,2} and collapse to distinct singletons
    assert sub.blocks == ((0,), (1,))


@given(st.integers(3, 8).flatmap(lambda v: st.tuples(
    st.just(v),
    st.lists(st.sampled_from((1, -1)), min_size=v, max_size=v),
    st.lists(st.sets(st.integers(0, v - 1), min_size=1), max_size=12))))
# (0, 1, 2, 4) sorts before (0, 1, 4); through 0 and 4 they become (0, 1)
# and (0,), which sort the other way round
@example((5, [1, 1, 1, 1, -1], [{0, 1, 4}, {0, 1, 2, 4}]))
def test_derived_family_is_canonical(case):
    # Every +/- pair of an irregular family: the derived blocks are the
    # canonical form (points and blocks sorted, no repeats) of the raw
    # contraction.
    v, signs, blocks = case
    p = make_packing(v, 2, 0, signs, blocks)
    for e1 in (x for x in range(v) if signs[x] == 1):
        for e2 in (x for x in range(v) if signs[x] == -1):
            raw = {frozenset(x - (x > e1) - (x > e2) for x in b if x not in (e1, e2))
                   for b in p.blocks if {e1, e2} < set(b)}
            assert derive_subdesign(p, e1, e2).blocks == tuple(
                sorted(tuple(sorted(b)) for b in raw))


# --- serialization ----------------------------------------------------------


def test_json_round_trip_identity_for_plus_heavy():
    p = triangle_packing()
    again = from_json(to_json(p))
    assert again == p


def test_json_writer_is_byte_stable():
    p = make_packing(4, 2, 3, [1, 1, -1, -1], [(0, 1, 2)])
    expected = (
        "{\n"
        '  "version": 1,\n'
        '  "v": 4,\n'
        '  "t": 2,\n'
        '  "k": 3,\n'
        '  "labels": "++--",\n'
        '  "blocks": [\n'
        "    [0, 1, 2]\n"
        "  ]\n"
        "}\n"
    )
    assert to_json(p) == expected


def test_minus_heavy_labeling_normalizes_on_load():
    p = make_packing(4, 2, 3, [-1, -1, -1, 1], [(0, 1, 3)])
    again = from_json(to_json(p))
    assert again.labeling.signs == (1, 1, 1, -1)
    assert again.blocks == p.blocks
    assert again == p.with_labeling(p.labeling.flipped())


def test_parser_rejects_unknown_and_missing_keys():
    p = triangle_packing()
    good = to_json(p)
    with pytest.raises(FormatError):
        from_json(good.replace('"labels"', '"labelz"'))
    with pytest.raises(FormatError):
        from_json('{"version": 1, "v": 2, "t": 1, "k": 1, "labels": "+-"}')
    with pytest.raises(FormatError):
        from_json(good.replace('"version": 1', '"version": 2'))
    with pytest.raises(FormatError):
        from_json("[1, 2, 3]")
    with pytest.raises(FormatError):
        from_json("not json at all")


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_parser_requires_the_integer_version_one(version):
    # True == 1.0 == 1, so only the type check tells these from the integer
    good = to_json(triangle_packing())
    with pytest.raises(FormatError, match="unsupported version"):
        parse_document(good.replace('"version": 1', f'"version": {version}'))


def test_parser_rejects_malformed_blocks_and_labels():
    base = '{"version": 1, "v": 4, "t": 2, "k": 3, "labels": "%s", "blocks": %s}'
    with pytest.raises(FormatError):
        from_json(base % ("++-", "[]"))  # labels too short
    with pytest.raises(FormatError):
        from_json(base % ("++-x", "[]"))
    with pytest.raises(FormatError):
        from_json(base % ("++--", "[[2, 1, 0]]"))  # not increasing
    with pytest.raises(FormatError):
        from_json(base % ("++--", "[[0, 1], [0, 1]]"))  # duplicate block
    with pytest.raises(FormatError):
        from_json(base % ("++--", "[[1, 2], [0, 1]]"))  # unsorted family
    with pytest.raises(FormatError):
        from_json(base % ("++--", "[[0, true, 2]]"))


def _document(**fields) -> str:
    doc = {"version": 1, "v": 4, "t": 2, "k": 2, "labels": "++--",
           "blocks": [[0, 2], [1, 3]]}
    doc.update(fields)
    return json.dumps(doc)


# one fault per document: the fields that differ from a valid (2, 2, 4)
# family, and a substring of the FormatError's message
MALFORMED = [
    pytest.param({"blocks": {"0": [0, 2]}}, "blocks must be a list", id="blocks-not-list"),
    pytest.param({"classes": {"0": [0]}}, "classes must be a list of block-index lists",
                 id="classes-not-list"),
    pytest.param({"classes": [[0], [1.0]]}, "each class must be a list of integers",
                 id="class-not-ints"),
    pytest.param({"classes": [[0], [2]]}, "class references block 2 of 2",
                 id="class-out-of-range"),
    pytest.param({"classes": [[0, 1], [1]]}, "block 1 appears in more than one class",
                 id="class-repeats"),
    pytest.param({"v": 4.0}, "parameters v, t and k must be integers", id="v-float"),
    pytest.param({"v": True}, "parameters v, t and k must be integers", id="v-bool"),
    pytest.param({"v": "4"}, "parameters v, t and k must be integers", id="v-string"),
    pytest.param({"v": None}, "parameters v, t and k must be integers", id="v-null"),
    pytest.param({"v": -4}, "ground set size must be >= 1, got -4", id="v-negative"),
    pytest.param({"v": 0, "labels": "", "blocks": []}, "ground set size must be >= 1, got 0",
                 id="v-zero"),
    pytest.param({"v": 10 ** 80}, "labeling covers 4 points, ground set has 1000",
                 id="v-huge"),
    pytest.param({"t": -1}, "parameters t and k must be >= 0", id="t-negative"),
    pytest.param({"k": 2.0}, "parameters v, t and k must be integers", id="k-float"),
    pytest.param({"k": -2}, "parameters t and k must be >= 0", id="k-negative"),
    pytest.param({"labels": "++-"}, "labeling covers 3 points, ground set has 4",
                 id="labels-short"),
    pytest.param({"labels": "++--+"}, "labeling covers 5 points, ground set has 4",
                 id="labels-long"),
    pytest.param({"labels": "++-x"}, "labels must be a +/- string", id="labels-bad-char"),
    pytest.param({"labels": ["+", "+", "-", "-"]}, "labels must be a +/- string",
                 id="labels-not-string"),
    pytest.param({"version": True}, "unsupported version True", id="version-bool"),
]


@pytest.mark.parametrize("fields, message", MALFORMED)
def test_parser_reports_each_fault_as_a_format_error(fields, message):
    # the parser checks the JSON shape; BalancedPacking checks v, t, k and
    # the label count, and the parser re-raises its faults as FormatError
    with pytest.raises(FormatError) as caught:
        parse_document(_document(**fields))
    assert message in str(caught.value)
    assert len(str(caught.value)) < 200


@st.composite
def header_fields(draw):
    """``(n, v, t, k)``: a ground set size n for the labeling, and v, t, k
    drawn from ints (negatives included), an int subclass with its own
    ``__str__`` and ``__repr__``, floats, bools, strings and None."""
    n = draw(st.integers(1, 6))
    field = st.one_of(st.integers(-3, 8), st.integers(-3, 8).map(Point), st.floats(-3, 8),
                      st.booleans(), st.text("0123+-", max_size=2), st.none())
    v = draw(st.one_of(st.sampled_from([n, Point(n), float(n), n == 1]), field))
    return n, v, draw(field), draw(field)


@given(header_fields())
def test_every_packing_that_constructs_round_trips(fields):
    # BalancedPacking alone decides v, t and k; whatever it accepts, to_json
    # writes and parse_document reads back (p+ >= p-, so no flip on load)
    n, v, t, k = fields
    plus = (n + 1) // 2
    labeling = Labeling((1,) * plus + (-1,) * (n - plus))
    try:
        p = BalancedPacking(v, t, k, labeling, tuple((x,) for x in range(n)))
    except PackingError:
        return
    assert parse_document(to_json(p))[0] == p


def test_classes_round_trip_and_partition_check():
    p = make_packing(4, 1, 2, [1, 1, -1, -1], [(0, 1), (0, 2), (2, 3)])
    text = to_json(p, classes=((0, 2), (1,)))
    packing, classes = parse_document(text)
    assert packing == p
    assert classes == ((0, 2), (1,))
    with pytest.raises(FormatError):
        parse_document(text.replace("[1]", "[1, 1]"))
    # a class list that misses a block is not a partition
    with pytest.raises(FormatError):
        parse_document(to_json(p, classes=((0, 2),)))


def test_save_and_load_files(tmp_path):
    p = triangle_packing()
    path = tmp_path / "family.json"
    core.save_packing(p, path)
    assert core.load_packing(path) == p


def test_parser_maps_deep_nesting_and_long_integers_to_format_error():
    with pytest.raises(FormatError):
        parse_document("[" * 200_000)
    with pytest.raises(FormatError):
        parse_document('{"version": ' + "1" * 5000 + "}")


_GOOD_DOCUMENT = to_json(triangle_packing()).encode("ascii")


@st.composite
def mutated_documents(draw):
    """A valid document with a few bytes overwritten, inserted or cut."""
    data = bytearray(_GOOD_DOCUMENT)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("put", "insert", "cut")))
        if op == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            byte = draw(st.integers(0, 255))
            if op == "insert" or at == len(data):
                data.insert(at, byte)
            else:
                data[at] = byte
    return bytes(data)


@given(st.one_of(st.binary(max_size=200), mutated_documents()))
def test_any_bytes_load_as_a_packing_or_a_packing_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(data)
    try:
        packing, _ = core.load_document(path)
    except PackingError:
        return
    assert isinstance(packing, BalancedPacking)
