import pytest
from hypothesis import given, strategies as st

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
