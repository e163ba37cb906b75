"""The t-subset kernel behind max_pairwise_intersection, is_packing and
verify's overlap witness, checked against the all-pairs scan it replaced."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from balpack import core
from balpack.core import is_packing, make_packing, max_pairwise_intersection, verify
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
    overlap = core._largest_overlap(canonical)
    if pair is None:
        assert overlap is None
    else:
        i, j = pair
        assert overlap == (i, j, tuple(sorted(set(blocks[i]) & set(blocks[j]))))
    # the incidence count alone, whichever way the kernel chose
    assert core._incidence_pair(canonical) == (best, pair)


@given(irregular_families(), st.integers(1, 13))
def test_is_packing_is_max_intersection_below_t(blocks, t):
    assert is_packing(t, blocks) == (scan(blocks)[0] < t)


@given(irregular_families())
def test_every_level_range_matches_the_scan(blocks):
    # verify walks levels 1..second largest size and is_packing walks t..t;
    # every other range checks where the walk stops, one level at a time.
    best, pair = scan(blocks)
    canonical = [tuple(sorted(b)) for b in blocks]
    for top in range(1, max(map(len, canonical)) + 1):
        for low in range(1, top + 1):
            found = core._shared_pair(canonical, low, top)
            if best < low:
                assert found is None, (low, top)
            elif best <= top:
                assert found == pair, (low, top)
            else:  # the range ends below the largest intersection
                i, j = found
                assert i < j and len(set(canonical[i]) & set(canonical[j])) >= top


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
    signs = packing.labeling.signs
    extra = next(
        triple
        for triple in combinations(range(16), 3)
        if triple not in packing.blocks and abs(sum(signs[y] for y in triple)) <= 1
        and any(len(set(triple) & set(b)) == 2 for b in packing.blocks)
    )
    bad = make_packing(16, 2, 3, signs, packing.blocks + (extra,))
    best, (i, j) = scan(bad.blocks)
    levels.clear()
    report = verify(bad)
    assert set(levels) == {1, 2, 3} and levels == sorted(levels)
    assert best == report.max_intersection == 2
    assert report.overlap == (i, j, tuple(sorted(set(bad.blocks[i]) & set(bad.blocks[j]))))


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
