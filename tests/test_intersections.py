"""The t-subset kernel behind max_pairwise_intersection, is_packing and
verify's overlap witness, checked against the all-pairs scan it replaced:
``core._shared_level`` finds the largest shared level m and the later
block j of the scan's first pair, ``core._overlap`` the earlier one."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import GOLDEN

from balpack import core
from balpack.cli import latin_dispatch, main
from balpack.core import (
    BalancedPacking,
    is_packing,
    load_packing,
    make_packing,
    max_pairwise_intersection,
    verify,
)
from balpack.latin import extract_triples, fill, seed_sets


def scan(blocks):
    """The quadratic reference: the largest |A ∩ B| over distinct blocks
    and the first pair (i, j) by (j, i) that attains it (None when every
    two blocks are disjoint)."""
    sets = [frozenset(b) for b in blocks]
    best, pair = 0, None
    for j in range(len(sets)):
        for i in range(j):
            m = len(sets[i] & sets[j])
            if m > best:
                best, pair = m, (i, j)
    return best, pair


def latin16():
    """The extremal (2,3,16) packing: 32 triples, pairwise sharing one point."""
    return extract_triples(fill(seed_sets(8)))


def with_a_shared_pair(packing):
    """The (2,3,16) ``packing`` plus the first balanced triple that shares
    a pair with one of its blocks."""
    signs = packing.labeling.signs
    extra = next(
        triple
        for triple in combinations(range(16), 3)
        if triple not in packing.blocks and abs(sum(signs[y] for y in triple)) <= 1
        and any(len(set(triple) & set(b)) == 2 for b in packing.blocks)
    )
    return make_packing(16, 2, 3, signs, packing.blocks + (extra,))


@st.composite
def irregular_families(draw):
    """Blocks of mixed sizes, as lists in any order: nested blocks, single
    points and repeated input rows all occur."""
    v = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.sets(st.integers(0, v - 1), min_size=1, max_size=v), min_size=2, max_size=12,
    ))
    blocks = [draw(st.permutations(sorted(row))) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        blocks.append(draw(st.sampled_from(blocks)))  # a repeated row
    return draw(st.permutations(blocks))


@given(irregular_families())
@settings(max_examples=300)
def test_kernel_matches_the_scan(blocks):
    best, pair = scan(blocks)
    assert max_pairwise_intersection(blocks) == best
    canonical = [tuple(sorted(b)) for b in blocks]
    found = core._shared_level(canonical)
    if pair is None:
        assert found is None
    else:
        i, j = pair
        assert found == (best, j)
        assert core._overlap(canonical, best, j) == (
            i, j, tuple(sorted(set(blocks[i]) & set(blocks[j]))))
    # the incidence count alone, whichever way the kernel chose
    assert core._incidence_pair(canonical) == found


@given(irregular_families(), st.integers(1, 13))
def test_is_packing_is_max_intersection_below_t(blocks, t):
    assert is_packing(t, blocks) == (scan(blocks)[0] < t)


@st.composite
def dense_families(draw):
    """Regular families under the column rule, as sorted tuples in any
    order: at least s^2 distinct blocks of s <= 4 points, and for s >= 2
    maybe one more block that shares t < s points with one of them."""
    s = draw(st.integers(1, 4))
    v = draw(st.integers({1: 2, 2: 4, 3: 5, 4: 7}[s], 10))  # C(v, s) >= s^2
    subsets = list(combinations(range(v), s))
    blocks = draw(st.lists(st.sampled_from(subsets), min_size=s * s,
                           max_size=min(len(subsets), 40), unique=True))
    if s >= 2 and draw(st.booleans()):
        host = draw(st.sampled_from(blocks))
        kept = draw(st.permutations(host))[:draw(st.integers(1, s - 1))]
        outside = [x for x in range(v) if x not in host]
        blocks.append(tuple(sorted(kept + draw(st.permutations(outside))[:s - len(kept)])))
    return draw(st.permutations(blocks))


def check_every_claimed_level(blocks):
    """``_shared_level`` on the sorted ``blocks`` with no claimed level
    and with each from 1 to top + 1 (top, the second largest block size,
    is the highest level two blocks can share), and ``_overlap`` on what
    it finds, against the scan."""
    best, pair = scan(blocks)
    canonical = [tuple(sorted(b)) for b in blocks]
    top = sorted(map(len, canonical))[-2] if len(canonical) >= 2 else 0
    expected = None if pair is None else (best, pair[1])
    for claimed in (None, *range(1, top + 2)):
        assert core._shared_level(canonical, claimed) == expected, claimed
    if pair is not None:
        i, j = pair
        shared = tuple(sorted(set(canonical[i]) & set(canonical[j])))
        assert core._overlap(canonical, best, j) == (i, j, shared)


@given(irregular_families())
def test_every_claimed_level_matches_the_scan(blocks):
    # verify claims the family's t and is_packing claims its t: every
    # claimed level (decided by one set from there up) finds what the
    # block-by-block walk finds, wherever the walk stops.
    check_every_claimed_level(blocks)


@given(dense_families())
def test_every_claimed_level_of_a_dense_family_matches_the_scan(blocks):
    # The same checks on the other side of the column rule, which
    # irregular_families almost never meets: the claimed-level set is
    # built from the profile's columns.
    assert core._by_columns(core._profile(blocks).sizes)
    check_every_claimed_level(blocks)


@given(irregular_families())
def test_verify_at_every_claimed_level_matches_the_scan(blocks):
    v = max(map(max, blocks)) + 1
    base = make_packing(v, 0, 0, [1] * v, blocks)
    best, pair = scan(base.blocks)
    maxint = best if base.n_blocks >= 2 else None
    for t in range(max(map(len, base.blocks)) + 2):
        report = verify(BalancedPacking(v, t, 0, base.labeling, base.blocks))
        packing = t == 0 or maxint is None or maxint < t
        assert (report.max_intersection, report.packing) == (maxint, packing), t
        if packing:
            assert report.overlap is None, t
        else:
            i, j = pair
            shared = tuple(sorted(set(base.blocks[i]) & set(base.blocks[j])))
            assert report.overlap == (i, j, shared), t


def test_wide_blocks_take_the_incidence_path(monkeypatch):
    # Hashing level m of 300 blocks of 24 points touches
    # m * 300 * C(24, m) points, past 10^8 in the middle levels; the
    # incidence count touches about sum_x deg(x)^2 = 60 * 120^2.
    rng = random.Random(1)
    blocks = sorted({tuple(sorted(rng.sample(range(60), 24))) for _ in range(300)})
    calls, hashed = [], [0]

    def counted(bs):
        calls.append(len(bs))
        return incidence(bs)

    def bounded(b, m):  # stops a hash that runs away before it eats the memory
        for sub in combinations(b, m):
            hashed[0] += 1
            assert hashed[0] < 10**6, "subset hashing chosen for wide blocks"
            yield sub

    incidence = core._incidence_pair
    monkeypatch.setattr(core, "_incidence_pair", counted)
    monkeypatch.setattr(core, "combinations", bounded)
    best, pair = scan(blocks)
    assert max_pairwise_intersection(blocks) == best == 18
    assert calls == [len(blocks)]
    i, j = pair
    report = verify(make_packing(60, 18, 24, [1, -1] * 30, blocks))
    assert not report.packing
    assert report.overlap == (i, j, tuple(sorted(set(blocks[i]) & set(blocks[j]))))
    assert calls == [len(blocks)] * 2


def test_regular_families_take_the_subset_hash(monkeypatch):
    def refuse(blocks):
        raise AssertionError("incidence count chosen for a family of triples")

    monkeypatch.setattr(core, "_incidence_pair", refuse)
    packing = latin16()
    assert max_pairwise_intersection(packing.blocks) == 1
    assert is_packing(2, packing.blocks)


def test_the_walk_stops_at_the_first_level_with_no_repeat(monkeypatch):
    # Levels are hashed from the bottom up, and a level with no repeated
    # m-subset ends the walk: a family whose blocks share at most one
    # point never hashes its triples.
    levels = []

    def recorded(b, m):
        levels.append(m)
        return combinations(b, m)

    monkeypatch.setattr(core, "combinations", recorded)
    packing = latin16()
    assert max_pairwise_intersection(packing.blocks) == 1
    assert set(levels) == {1, 2} and levels == sorted(levels)

    # One more balanced triple, which shares a pair with a block: the walk
    # goes on to level 3, and the witness is still the scan's.
    bad = with_a_shared_pair(packing)
    best, (i, j) = scan(bad.blocks)
    levels.clear()
    report = verify(bad)
    assert set(levels) == {1, 2, 3} and levels == sorted(levels)
    assert best == report.max_intersection == 2
    assert report.overlap == (i, j, tuple(sorted(set(bad.blocks[i]) & set(bad.blocks[j]))))


def test_the_claimed_level_is_decided_by_one_set(monkeypatch):
    # verify hashes the levels below the family's claimed t block by block
    # and decides level t, and each level above it, by one set of every
    # block's m-subsets: the per-block walk runs there only to name the
    # block of a repeat the set has shown.
    levels = []

    def recorded(blocks, m, subsets):
        levels.append(m)
        return first_repeat(blocks, m, subsets)

    first_repeat = core._first_repeat
    monkeypatch.setattr(core, "_first_repeat", recorded)
    packing = latin_dispatch(16)
    assert packing.t == 2
    report = verify(packing)
    assert report.packing and report.max_intersection == 1
    assert levels == [1]

    # one more balanced triple, sharing a pair with a block: level 2 shows a
    # repeat, the walk names it, and the witness is the scan's
    bad = with_a_shared_pair(packing)
    best, (i, j) = scan(bad.blocks)
    levels.clear()
    report = verify(bad)
    assert levels == [1, 2]
    assert best == report.max_intersection == 2
    assert report.overlap == (i, j, tuple(sorted(set(bad.blocks[i]) & set(bad.blocks[j]))))


def test_verify_reads_the_profile_validation_built(monkeypatch):
    # The validation pass is the one place a family's profile is counted:
    # a BalancedPacking keeps it and verify reads it, passing or failing,
    # while max_pairwise_intersection and is_packing count it once for the
    # blocks they canonicalise.
    calls = []

    def counted(blocks):
        calls.append(len(blocks))
        return profile(blocks)

    profile = core._profile
    monkeypatch.setattr(core, "_profile", counted)
    good = latin16()
    for packing in (good, with_a_shared_pair(good)):
        calls.clear()
        p = BalancedPacking(packing.v, packing.t, packing.k, packing.labeling, packing.blocks)
        assert calls == [p.n_blocks]
        verify(p)
        assert calls == [p.n_blocks]
    calls.clear()
    max_pairwise_intersection(good.blocks)
    assert calls == [good.n_blocks]
    calls.clear()
    is_packing(2, good.blocks)
    assert calls == [good.n_blocks]


def recount(blocks):
    """A family's profile counted from scratch: blocks per size, the
    smallest and largest point, and each size's columns in block order."""
    groups = {}
    for b in blocks:
        groups.setdefault(len(b), []).append(b)
    columns = {size: tuple(zip(*group)) for size, group in groups.items()}
    return Counter(map(len, blocks)), min(map(min, blocks)), max(map(max, blocks)), columns


class Point(int):
    """An int subclass, which only the per-block loop accepts."""


class Row(tuple):
    """A tuple subclass, likewise."""


def check_the_profile_is_a_recount(p):
    """``p``'s profile equals a recount, and so does the one built by the
    per-block loop for the same family of tuple and int subclasses, whose
    report equals ``p``'s."""
    sizes, lo, hi, columns = p._profile
    assert (sizes, lo, hi, columns) == recount(p.blocks)
    assert list(sizes) == sorted(sizes) and list(columns) == list(sizes)
    rows = Row(Row(map(Point, b)) for b in p.blocks)
    assert core._canonical_profile(rows, p.v) is None  # the loop's path
    q = BalancedPacking(p.v, p.t, p.k, p.labeling, rows)
    assert q._profile == p._profile
    assert q == p and hash(q) == hash(p) and "profile" not in repr(p)
    assert verify(q) == verify(p)


@given(irregular_families(), st.integers(0, 4))
def test_the_profile_is_a_recount(blocks, t):
    v = max(map(max, blocks)) + 1
    check_the_profile_is_a_recount(make_packing(v, t, 0, [(-1) ** x for x in range(v)], blocks))


@pytest.mark.parametrize("argv", [a for a, _ in GOLDEN], ids=[" ".join(a) for a, _ in GOLDEN])
def test_the_profile_of_each_route_is_a_recount(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    check_the_profile_is_a_recount(load_packing(out))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_corrupted_pair_is_the_witness(seed):
    # Twelve blocks of a (2,3,16) packing plus one balanced triple that
    # shares a pair with one of them and at most a point with the others.
    packing = latin16()
    rng = random.Random(seed)
    blocks = rng.sample(packing.blocks, 12)
    candidates = [
        (host, pair, pair + (x,))
        for host in blocks
        for pair in combinations(host, 2)
        for x in range(16)
        if x not in host
    ]
    host, kept, extra = rng.choice([
        (host, pair, tuple(sorted(extra)))
        for host, pair, extra in candidates
        if all(len(set(extra) & set(b)) <= 1 for b in blocks if b != host)
        and -1 <= sum(packing.labeling.signs[x] for x in extra) <= 1
    ])
    bad = make_packing(16, 2, 3, packing.labeling.signs, blocks + [extra])
    i, j = sorted((bad.blocks.index(host), bad.blocks.index(extra)))
    report = verify(bad)
    assert (report.packing, report.balanced, report.max_intersection) == (False, True, 2)
    assert report.overlap == (i, j, kept)
    assert report.unbalanced is None
    assert f"overlap: blocks {i} and {j} share {list(kept)}" in report.lines()


def test_first_unbalanced_block_is_the_witness():
    packing = latin16()
    signs = list(packing.labeling.signs)
    signs[packing.blocks[5][0]] *= -1
    labeling = core.Labeling(tuple(signs))
    discs = [core.discrepancy(b, labeling) for b in packing.blocks]
    index = next(i for i, d in enumerate(discs) if abs(d) > 1)
    report = verify(packing.with_labeling(labeling))
    assert not report.balanced and report.packing
    assert report.unbalanced == (index, discs[index])
    assert report.overlap is None
    assert f"unbalanced: block {index} has discrepancy {discs[index]}" in report.lines()


@pytest.mark.parametrize("wide, size, count, by_columns", [
    (0, 3, 32, True), (9, 3, 32, False), (2000, 3, 32, False),
    (0, 8, 64, True), (0, 8, 63, False), (0, 9, 81, False),
], ids=["columns", "a-9-point-block", "wide", "s8-c64-columns", "s8-c63-blocks",
        "s9-c81-blocks"])
def test_discrepancies_summed_by_columns_or_by_blocks_agree(
        monkeypatch, wide, size, count, by_columns):
    # Many blocks of a few points (every size s at most 8, with at least s^2
    # blocks) are summed by columns, through a chain of at most 8 lazy maps;
    # any other family block by block, on both sides of the rule's edge.
    # Both give the per-block reference and its first unbalanced block,
    # named without a call to discrepancy().
    packing = latin16()
    if size != 3:  # the first `count` blocks of `size` points over 16
        packing = make_packing(16, 2, size, packing.labeling.signs,
                               list(combinations(range(16), size))[:count])
    assert (packing.n_blocks, packing.k) == (count, size)
    v = max(16, wide)
    signs = list(packing.labeling.signs) + [1] * (v - 16)
    signs[packing.blocks[5][0]] *= -1
    blocks = packing.blocks + ((tuple(range(wide)),) if wide else ())
    p = make_packing(v, 2, size, signs, blocks)
    discs = [core.discrepancy(b, p.labeling) for b in p.blocks]
    named = []
    monkeypatch.setattr(core, "discrepancy", lambda b, labeling: named.append(b) or discs[
        p.blocks.index(b)])
    report = verify(p)
    assert report.discrepancies == tuple(sorted(discs))
    assert report.unbalanced == next((i, d) for i, d in enumerate(discs) if abs(d) > 1)
    assert core._by_columns(p._profile.sizes) == by_columns
    assert named == []


@pytest.mark.parametrize("wide, size, count, by_columns", [
    (0, 3, 32, True), (9, 3, 32, False),
    (0, 8, 64, True), (0, 8, 63, False), (0, 9, 81, False),
], ids=["columns", "a-9-point-block", "s8-c64-columns", "s8-c63-blocks", "s9-c81-blocks"])
def test_claimed_level_set_by_columns_or_by_blocks_agree(
        monkeypatch, wide, size, count, by_columns):
    # The kernel builds the claimed-level set from the profile's columns
    # under the rule the sums above follow, on both sides of its edge:
    # combinations() is handed a size's columns there, and blocks
    # otherwise.  At each level from the claimed one up the set is read
    # first; the walk, here and below the claimed level, reads blocks.
    # Level 1 is always hashed, so a claim of 1 always builds a set.
    # Either way a free level ends the walk, and a repeat is named as the
    # scan names it.
    blocks = latin16().blocks if size == 3 else list(combinations(range(16), size))[:count]
    blocks = list(blocks) + ([tuple(range(wide))] if wide else [])
    assert core._by_columns(core._profile(blocks).sizes) == by_columns
    best, (i, j) = scan(blocks)
    read = []

    def recorded(items, m):
        read.append((m, type(items[0]) is tuple))  # a column, not a point
        return combinations(items, m)

    monkeypatch.setattr(core, "combinations", recorded)
    for claimed in range(1, best + 2):
        read.clear()
        assert core._shared_level(blocks, claimed) == (best, j), claimed
        first = {}
        for m, columns in read:
            first.setdefault(m, columns)
        assert list(first) == sorted(first)
        assert {columns for m, columns in read if m < claimed} <= {False}
        assert {columns for m, columns in first.items() if m >= claimed} <= {by_columns}
    assert core._overlap(blocks, best, j)[:2] == (i, j)
    read.clear()
    assert core._shared_level(blocks, 1) == (best, j)
    assert read[0] == (1, by_columns)
    assert is_packing(best + 1, blocks)
    assert not is_packing(best, blocks)


def with_t_shared(p):
    """``p`` plus one block that keeps the last t points of the last block
    and fills up with the smallest points outside it, so that it sorts far
    from that block; None when the ground set has too few such points."""
    host = p.blocks[-1]
    outside = [x for x in range(p.v) if x not in host][:p.k - p.t]
    if p.k <= p.t or len(outside) < p.k - p.t:
        return None
    extra = tuple(sorted(tuple(outside) + host[-p.t:]))
    return make_packing(p.v, p.t, p.k, p.labeling.signs, p.blocks + (extra,))


@pytest.mark.parametrize("argv", [a for a, _ in GOLDEN], ids=[" ".join(a) for a, _ in GOLDEN])
def test_both_sides_of_the_column_rule_give_the_same_reports(
        tmp_path, capsys, monkeypatch, argv):
    # One predicate picks the column form for the sums and for the
    # claimed-level set: forced either way, every route's family and its
    # variant with a pair of blocks sharing t points get the same report.
    out = tmp_path / "out.json"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    p = load_packing(out)
    variant = with_t_shared(p)
    packings = [p] if variant is None else [p, variant]
    reports = []
    for side in (True, False):
        monkeypatch.setattr(core, "_by_columns", lambda sizes, side=side: side)
        reports.append([verify(q) for q in packings])
    assert reports[0] == reports[1]
    assert reports[0][0].passed
    if variant is not None:
        assert not reports[0][1].packing and reports[0][1].overlap is not None


def test_passing_report_prints_no_witness():
    report = verify(latin16())
    assert (report.overlap, report.unbalanced) == (None, None)
    assert report.lines() == [
        "blocks: 32",
        "regular: True",
        "packing: True",
        "balanced: True",
        "max pairwise intersection: 1",
        "discrepancy multiset: {-1: 16, 1: 16}",
        "labels: 8 positive, 8 negative",
        "mixed-sign discrepancies: True",
        "counting bound: 32 (ok)",
        "result: PASS",
    ]
