"""The oracle's bitset kernels checked against the loops they replaced: the
class-at-a-time colouring against first-fit with a sort, each split's
point-holder graph and kinds against the pairwise popcount and the count of
positive points, and the point-holder retention of the baseline against the
scan of every kept set."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from balpack import oracle
from balpack.oracle import SearchBudget, interval_labeling, structured_random


def reference_color_order(adj, cand):
    """First-fit colouring in vertex order, sorted by (colour, vertex)."""
    classes = []
    colored = []
    for u in (u for u in range(cand.bit_length()) if cand >> u & 1):
        for ci, members in enumerate(classes):
            if not (members & adj[u]):
                classes[ci] |= 1 << u
                colored.append((ci + 1, u))
                break
        else:
            classes.append(1 << u)
            colored.append((len(classes), u))
    colored.sort()
    return colored


def reference_admissible_blocks(v, k, p_plus):
    lo, hi = k // 2, (k + 1) // 2
    out = []
    for block in combinations(range(v), k):
        inside = sum(1 for x in block if x < p_plus)
        if lo <= inside <= hi:
            out.append(block)
    return out


def reference_split_graph(vertices, t):
    """Adjacency by the popcount of every pair of block masks."""
    masks = [sum(1 << x for x in b) for b in vertices]
    n = len(vertices)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (masks[i] & masks[j]).bit_count() < t:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def reference_structured_random(v, k, t, trials, rng_seed):
    """Retention by scanning the mask of every kept set."""
    width = v // k
    rng = random.Random(rng_seed)
    kept = []
    kept_masks = []
    for _ in range(trials):
        block = tuple(i * width + rng.randrange(width) for i in range(k))
        mask = sum(1 << x for x in block)
        if all((mask & m).bit_count() <= t for m in kept_masks):
            kept.append(block)
            kept_masks.append(mask)
    return tuple(kept)


@st.composite
def graphs(draw):
    """A graph on up to 40 vertices of any density, and a candidate set."""
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    adj = [0] * n
    for u, w in combinations(range(n), 2):
        if rnd.random() < density:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
    cand = draw(st.integers(0, (1 << n) - 1))
    return adj, cand


@given(graphs())
@settings(max_examples=400)
def test_colouring_matches_first_fit(graph):
    adj, cand = graph
    search = oracle._CliqueSearch(SearchBudget(), None)
    search.adj = adj
    expected = reference_color_order(adj, cand)
    assert search._color_order(cand) == expected
    assert search.color_bound(cand) == len({c for c, _ in expected})


def members(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


@pytest.mark.parametrize("v", range(1, 10))
def test_split_graph_matches_the_pairwise_popcount(v):
    # Every split and every 1 <= t <= k, and t = k + 1, where no two
    # blocks conflict and only the diagonal is left out: the graph that
    # one split searches is the graph on all k-subsets restricted to the
    # split's kinds, renumbered in order.
    for k in range(1, v + 1):
        blocks = list(combinations(range(v), k))
        holders = oracle._point_holders(blocks, v)
        graphs = {t: oracle._conflict_graph(blocks, holders, t) for t in range(1, k + 2)}
        for p_plus in range((v + 1) // 2, v + 1):
            kinds = oracle._split_kinds(holders, k, p_plus)
            assert [a for a, _ in kinds] == sorted({k // 2, (k + 1) // 2})
            for a, kind in kinds:
                assert all(sum(x < p_plus for x in blocks[i]) == a for i in members(kind))
            admissible = members(kinds[0][1] | kinds[-1][1])
            vertices = [blocks[i] for i in admissible]
            assert vertices == reference_admissible_blocks(v, k, p_plus)
            for t, adj in graphs.items():
                restricted = [
                    sum(1 << j for j, w in enumerate(admissible) if adj[u] >> w & 1)
                    for u in admissible
                ]
                assert restricted == reference_split_graph(vertices, t), (v, k, p_plus, t)


@pytest.mark.parametrize("v,k,t,trials,seed", [
    (100, 5, 2, 3000, 1),  # the benchmark's baseline
    (100, 5, 2, 1000, 7),
    (20, 4, 0, 300, 3),  # t = 0: kept sets are pairwise disjoint
    (20, 4, 4, 200, 3),  # t = k: every trial is kept
    (20, 4, 9, 200, 3),
    (20, 4, 2, 0, 3),  # no trials
    (5, 1, 0, 50, 1),
    (5, 1, 1, 50, 1),
    (1, 1, 0, 5, 2),
    (27, 3, 1, 400, 11),
    (120, 12, 4, 600, 7),  # wide blocks
    (96, 12, 4, 400, 5),
    (1000, 10, 3, 800, 2),
])
def test_retention_matches_the_scan(v, k, t, trials, seed):
    blocks, labeling = structured_random(v, k, t, trials, rng_seed=seed)
    assert blocks == reference_structured_random(v, k, t, trials, seed)
    assert labeling == interval_labeling(v, k)
