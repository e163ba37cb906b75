import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from balpack import oracle
from balpack.core import (
    BalancedPacking,
    Indivisible,
    Labeling,
    PreconditionViolated,
    discrepancy,
    verify,
)
from balpack.oracle import (
    OracleResult,
    SearchBudget,
    existence_reference,
    interval_labeling,
    max_balanced_packing,
    structured_random,
)


def unbroken_search(t, k, v):
    """The search before symmetry breaking, kept as the reference: one
    clique search on each whole split graph, with no block fixed and no
    orbit skipped.  Returns the maximum size."""
    search = oracle._CliqueSearch(SearchBudget(), None)
    for p_plus in range((v + 1) // 2, v + 1):
        vertices = [
            b for b in combinations(range(v), k)
            if k // 2 <= sum(x < p_plus for x in b) <= (k + 1) // 2
        ]
        search.adj = [
            sum(1 << j for j, c in enumerate(vertices)
                if j != i and len(set(b) & set(c)) < t)
            for i, b in enumerate(vertices)
        ]
        search.run([], (1 << len(vertices)) - 1)
    assert search.complete
    return search.best_size


def test_tiny_ground_set_exhaustive():
    # Any two 3-subsets of a 4-set share a pair, so one block is the max.
    r = max_balanced_packing(2, 3, 4)
    assert isinstance(r, OracleResult)
    assert (r.size, r.exact) == (1, True)
    assert len(r.witness.blocks) == 1


def test_seven_points():
    r = max_balanced_packing(2, 3, 7)
    assert (r.size, r.exact) == (6, True)
    assert verify(r.witness).passed


def test_eight_points_meets_counting_bound():
    r = max_balanced_packing(2, 3, 8)
    assert (r.size, r.exact) == (8, True)
    assert r.size == 8 * 8 // 8
    assert verify(r.witness).passed


def test_nine_points():
    r = max_balanced_packing(2, 3, 9)
    assert (r.size, r.exact) == (10, True)
    assert verify(r.witness).passed


def test_witness_survives_relabeling():
    r = max_balanced_packing(2, 3, 7)
    rng = random.Random(7)
    perm = list(range(7))
    rng.shuffle(perm)
    blocks = tuple(sorted(tuple(sorted(perm[x] for x in b)) for b in r.witness.blocks))
    signs = [0] * 7
    for x, s in enumerate(r.witness.labeling.signs):
        signs[perm[x]] = s
    moved = BalancedPacking(7, 2, 3, Labeling(tuple(signs)), blocks)
    assert verify(moved).passed
    assert len(moved.blocks) == r.size


def test_budget_exhaustion_is_reported_not_raised():
    # The premise: the whole search at (2,3,10) needs more than 50 nodes.
    assert max_balanced_packing(2, 3, 10).nodes > 50
    r = max_balanced_packing(2, 3, 10, budget=SearchBudget(max_nodes=50))
    assert not r.exact
    assert r.nodes >= 50
    # The incumbent is still a genuine packing, just maybe not maximum.
    assert verify(r.witness).passed
    assert r.size <= 12


def test_budget_validation():
    with pytest.raises(PreconditionViolated):
        SearchBudget(max_nodes=0)
    with pytest.raises(PreconditionViolated):
        SearchBudget(time_cap=-1.0)
    with pytest.raises(PreconditionViolated):
        max_balanced_packing(0, 3, 6)


def test_nan_time_cap_is_refused():
    # nan <= 0 is False, so a test for "<= 0" would let a NaN cap through
    # and the search would run with no time limit.
    with pytest.raises(PreconditionViolated, match="budget caps must be positive"):
        SearchBudget(10, float("nan"))


def test_search_log_is_json_lines():
    sink = io.StringIO()
    r = max_balanced_packing(2, 3, 6, log=sink)
    assert r.exact
    lines = [ln for ln in sink.getvalue().splitlines() if ln]
    assert lines
    for ln in lines:
        rec = json.loads(ln)
        assert {"nodes", "incumbent", "bound"} <= rec.keys()
        assert {"labeling", "kind", "elapsed"} <= rec.keys()
    kinds = [rec for rec in map(json.loads, lines) if rec["event"] == "kind"]
    # splits p+ = 3..6, kinds a = 1 and 2 of each
    assert [(rec["labeling"], rec["kind"]) for rec in kinds] == [
        (p, a) for p in range(3, 7) for a in (1, 2)
    ]
    for rec in kinds:
        assert {"vertices", "edges", "orbits", "complete", "best"} <= rec.keys()
        assert rec["complete"]
    assert kinds[-1]["nodes"] == r.nodes
    assert kinds[-1]["incumbent"] == r.size
    assert tuple(map(tuple, kinds[-1]["best"])) == r.witness.blocks


# Every field of the kind lines but ``elapsed``, frozen: per line (labeling,
# kind, vertices, edges, orbits, bound, nodes, incumbent); the first
# kind's incumbent is the maximum, so every line carries the same best
# family and best_labeling.
FROZEN_KIND_LINES = {
    (2, 3, 8): {
        "lines": [
            (4, 1, 48, 816, 7, 13, 12, 8), (4, 2, 48, 816, 0, 6, 13, 8),
            (5, 1, 45, 705, 3, 12, 17, 8), (5, 2, 45, 705, 2, 10, 20, 8),
            (6, 1, 36, 420, 1, 11, 22, 8), (6, 2, 36, 420, 2, 9, 25, 8),
            (7, 1, 21, 105, 0, 0, 25, 8), (7, 2, 21, 105, 0, 4, 26, 8),
            (8, 1, 0, 0, 0, 0, 26, 8), (8, 2, 0, 0, 0, 0, 26, 8),
        ],
        "best": [[0, 2, 7], [0, 3, 6], [0, 4, 5], [1, 2, 5],
                 [1, 3, 4], [1, 6, 7], [2, 4, 6], [3, 5, 7]],
        "best_labeling": 4,
    },
    (3, 5, 10): {
        "lines": [
            (5, 2, 200, 10000, 26, 12, 25, 6), (5, 3, 200, 10000, 2, 7, 28, 6),
            (6, 2, 180, 7740, 3, 9, 32, 6), (6, 3, 180, 7740, 9, 13, 41, 6),
            (7, 2, 126, 3150, 0, 4, 42, 6), (7, 3, 126, 3150, 3, 8, 46, 6),
            (8, 2, 56, 280, 0, 0, 46, 6), (8, 3, 56, 280, 0, 2, 47, 6),
            (9, 2, 0, 0, 0, 0, 47, 6), (9, 3, 0, 0, 0, 0, 47, 6),
            (10, 2, 0, 0, 0, 0, 47, 6), (10, 3, 0, 0, 0, 0, 47, 6),
        ],
        "best": [[0, 1, 2, 8, 9], [0, 1, 5, 6, 7], [0, 3, 4, 7, 8],
                 [1, 3, 4, 6, 9], [2, 3, 5, 6, 8], [2, 4, 5, 7, 9]],
        "best_labeling": 5,
    },
}


@pytest.mark.parametrize("t,k,v", sorted(FROZEN_KIND_LINES))
def test_search_log_kind_lines_are_frozen(t, k, v):
    frozen = FROZEN_KIND_LINES[t, k, v]
    sink = io.StringIO()
    max_balanced_packing(t, k, v, log=sink)
    kinds = [rec for rec in map(json.loads, sink.getvalue().splitlines())
             if rec["event"] == "kind"]
    fields = ("labeling", "kind", "vertices", "edges", "orbits", "bound", "nodes",
              "incumbent")
    assert [tuple(rec[f] for f in fields) for rec in kinds] == frozen["lines"]
    for rec in kinds:
        assert set(rec) == {"event", "elapsed", "complete", "best", "best_labeling",
                            *fields}
        assert rec["complete"] is True
        assert rec["best"] == frozen["best"]
        assert rec["best_labeling"] == frozen["best_labeling"]


def _lowest_two(kind):
    low = kind & -kind
    return low | (kind & ~low) & -(kind & ~low)


@pytest.mark.parametrize("keep, size, p_plus, best_labelings", [
    (None, 7, 5, [4, 4, 5, 5, 5, 5, 5, 5, 5, 5]),
    # the next split keeps two blocks a kind: the incumbent found there is
    # beaten at the split after it, and the record moves with it
    (_lowest_two, 6, 6, [4, 4, 5, 5, 6, 6, 6, 6, 6, 6]),
], ids=["first-split-empty", "record-moves-to-a-later-split"])
def test_the_incumbent_records_its_split_above_ceil_half(monkeypatch, keep, size,
                                                          p_plus, best_labelings):
    # Every witness the unpatched search finds for v <= 12 lies on the split
    # ceil(v/2), so a witness's split is pinned here with that split left
    # with no admissible block (and, given ``keep``, the next split's kinds
    # cut to the blocks it keeps).
    split_kinds = oracle._split_kinds

    def thinned(holders, k, split):
        kinds = split_kinds(holders, k, split)
        first = (len(holders) + 1) // 2
        if split == first:
            return [(a, 0) for a, _ in kinds]
        if split == first + 1 and keep is not None:
            return [(a, keep(kind)) for a, kind in kinds]
        return kinds

    monkeypatch.setattr(oracle, "_split_kinds", thinned)
    sink = io.StringIO()
    r = max_balanced_packing(2, 3, 8, log=sink)
    assert (r.size, r.exact) == (size, True)
    assert r.witness.labeling.p_plus == p_plus
    assert verify(r.witness).passed
    kinds = [rec for rec in map(json.loads, sink.getvalue().splitlines())
             if rec["event"] == "kind"]
    assert [rec["best_labeling"] for rec in kinds] == best_labelings
    assert kinds[0]["best"] == []
    assert kinds[-1]["best"] == [list(b) for b in r.witness.blocks]


def test_search_log_heartbeat(monkeypatch):
    monkeypatch.setattr(oracle, "HEARTBEAT_NODES", 10)
    sink = io.StringIO()
    r = max_balanced_packing(2, 3, 9, log=sink)
    beats = [
        rec for rec in map(json.loads, sink.getvalue().splitlines())
        if rec["event"] == "heartbeat"
    ]
    assert [rec["nodes"] for rec in beats] == list(range(10, r.nodes + 1, 10))
    assert all({"labeling", "nodes", "incumbent", "bound"} <= rec.keys() for rec in beats)


def test_time_cap_covers_building_the_graph(monkeypatch):
    # The clock reads 0 when the search starts and 1 ever after: the cap is
    # spent at the first budget check while the conflict graph is built.
    clock = iter([0.0])
    monkeypatch.setattr(oracle.time, "monotonic", lambda: next(clock, 1.0))
    rows = []
    sharing = oracle._sharing_at_least

    def counted(points, holders, m):
        rows.append(points)
        return sharing(points, holders, m)

    monkeypatch.setattr(oracle, "_sharing_at_least", counted)
    r = max_balanced_packing(2, 3, 9, SearchBudget(time_cap=0.5))
    assert r.exact is False
    assert r.nodes == 0 and r.size == 0 and r.witness.blocks == ()
    assert len(rows) < len(list(combinations(range(9), 3)))


def test_time_cap_covers_the_set_up(monkeypatch):
    # The clock moves only while the point holders are built, by 1 s: the
    # 0.5 s cap is spent there, and no set-up step starts after it.
    clock = [0.0]
    monkeypatch.setattr(oracle.time, "monotonic", lambda: clock[0])
    holders = oracle._point_holders

    def slow(blocks, v):
        clock[0] += 1.0
        return holders(blocks, v)

    monkeypatch.setattr(oracle, "_point_holders", slow)
    monkeypatch.setattr(oracle, "_conflict_graph",
                        lambda *args: pytest.fail("the graph started after the cap"))
    r = max_balanced_packing(2, 3, 9, SearchBudget(time_cap=0.5))
    assert (r.exact, r.nodes, r.size, r.witness.blocks) == (False, 0, 0, ())


def test_time_cap_spent_on_the_block_list_stops_the_set_up(monkeypatch):
    # The clock moves only while the k-subsets are listed, by 1 s: the
    # 0.5 s cap is spent between the set-up's first two checks, so the
    # point holders are never built.
    clock = [0.0]
    monkeypatch.setattr(oracle.time, "monotonic", lambda: clock[0])
    k_subsets = oracle._k_subsets

    def slow(items, k):
        clock[0] += 1.0
        return k_subsets(items, k)

    monkeypatch.setattr(oracle, "_k_subsets", slow)
    monkeypatch.setattr(oracle, "_point_holders",
                        lambda *args: pytest.fail("the holders started after the cap"))
    r = max_balanced_packing(2, 3, 9, SearchBudget(time_cap=0.5))
    assert (r.exact, r.nodes, r.size, r.witness.blocks) == (False, 0, 0, ())


def test_time_cap_stops_the_graph_at_its_next_check(monkeypatch):
    # The clock moves by 1 s at the graph's first row: the 0.5 s cap is
    # spent there, and the rows stop at the next check, 64 rows on.
    clock = [0.0]
    monkeypatch.setattr(oracle.time, "monotonic", lambda: clock[0])
    rows = []
    sharing = oracle._sharing_at_least

    def slow(points, holders, m):
        rows.append(points)
        clock[0] = 1.0
        return sharing(points, holders, m)

    monkeypatch.setattr(oracle, "_sharing_at_least", slow)
    r = max_balanced_packing(2, 3, 9, SearchBudget(time_cap=0.5))
    assert (r.exact, r.nodes, r.size) == (False, 0, 0)
    assert len(rows) == 64 < len(list(combinations(range(9), 3)))


def test_no_log_takes_no_root_bound(monkeypatch):
    # The root colouring bound and the split's vertex and edge counts are
    # read only by the log: a search without one never takes the bound.
    colored = []
    color_bound = oracle._CliqueSearch.color_bound

    def recorded(self, cand):
        colored.append(cand)
        return color_bound(self, cand)

    monkeypatch.setattr(oracle._CliqueSearch, "color_bound", recorded)
    r = max_balanced_packing(2, 3, 8)
    assert (r.size, r.exact) == (8, True) and colored == []
    assert max_balanced_packing(2, 3, 8, log=io.StringIO()) == r and colored


def test_time_cap_is_a_number_of_seconds():
    assert SearchBudget(time_cap=3).time_cap == 3
    for cap in ("5", True, None, [1.0]):
        with pytest.raises(PreconditionViolated, match="time_cap must be an int or a float"):
            SearchBudget(time_cap=cap)


@pytest.mark.parametrize("t,k,v", [(2, 3, 9), (3, 4, 9), (2, 4, 12)])
def test_budget_counts_the_whole_search(t, k, v):
    r = max_balanced_packing(t, k, v)
    assert r.exact
    assert max_balanced_packing(t, k, v, SearchBudget(max_nodes=r.nodes)).exact
    cut = max_balanced_packing(t, k, v, SearchBudget(max_nodes=r.nodes - 1))
    assert not cut.exact
    assert cut.nodes <= r.nodes - 1
    assert verify(cut.witness).passed


@pytest.mark.parametrize("t,k,v", [
    (t, k, v) for v in range(2, 9) for k in range(2, v) for t in range(1, k)
])
def test_agrees_with_the_unbroken_search(t, k, v):
    r = max_balanced_packing(t, k, v)
    assert r.exact
    assert r.size == unbroken_search(t, k, v)
    assert r.witness.n_blocks == r.size
    assert verify(r.witness).passed


@pytest.mark.parametrize("t,k,v,size", [
    (1, 2, 4, 2),  # {first block, second block} is already a family of two
    (3, 4, 10, 20),
    (2, 3, 11, 15),
    (3, 5, 11, 10),
    (2, 4, 13, 9),
    (4, 6, 12, 20),
])
def test_frozen_exact_values(t, k, v, size):
    r = max_balanced_packing(t, k, v)
    assert (r.size, r.exact) == (size, True)
    assert r.witness.n_blocks == size
    assert verify(r.witness).passed


# Sizes and node counts of the benchmark's six exact instances and of the
# two largest pinned ones.  Node counts are deterministic, so a change to
# the colouring or to the split graphs that alters the search shows here.
@pytest.mark.parametrize("t,k,v,size,nodes", [
    (2, 3, 9, 10, 51),
    (3, 4, 9, 12, 249),
    (3, 5, 10, 6, 47),
    (4, 5, 9, 16, 318),
    (2, 4, 12, 9, 32),
    (4, 6, 11, 10, 43),
    (2, 3, 10, 12, 990),
    (3, 4, 10, 20, 3351),
])
def test_frozen_node_counts(t, k, v, size, nodes):
    r = max_balanced_packing(t, k, v)
    assert (r.size, r.nodes, r.exact) == (size, nodes, True)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # t > k, so no two blocks conflict: the answer is every block of the
    # balanced split, 20 * 20 = 400, a clique 400 vertices deep.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        r = max_balanced_packing(3, 2, 40)
    finally:
        sys.setrecursionlimit(limit)
    assert (r.size, r.nodes, r.exact) == (400, 418, True)


def test_determinism():
    a = max_balanced_packing(2, 3, 8)
    b = max_balanced_packing(2, 3, 8)
    assert a.witness.blocks == b.witness.blocks
    assert a.nodes == b.nodes
    # The witness itself is frozen too.
    assert a.witness.labeling.signs == (1,) * 4 + (-1,) * 4
    assert a.witness.blocks == (
        (0, 2, 7), (0, 3, 6), (0, 4, 5), (1, 2, 5),
        (1, 3, 4), (1, 6, 7), (2, 4, 6), (3, 5, 7),
    )


def test_interval_labeling_shape():
    lab = interval_labeling(12, 3)
    assert lab.signs == (1,) * 8 + (-1,) * 4
    with pytest.raises(Indivisible):
        interval_labeling(10, 3)


def test_structured_random_structure_and_rule():
    blocks, lab = structured_random(20, 4, 2, 500, rng_seed=3)
    width = 5
    for b in blocks:
        assert len(b) == 4
        for i, x in enumerate(b):
            assert i * width <= x < (i + 1) * width
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert len(set(blocks[i]) & set(blocks[j])) <= 2


def test_structured_random_discrepancy_even_k():
    blocks, lab = structured_random(20, 4, 2, 200, rng_seed=5)
    assert blocks
    assert {discrepancy(b, lab) for b in blocks} == {0}


def test_structured_random_discrepancy_odd_k():
    blocks, lab = structured_random(25, 5, 2, 200, rng_seed=5)
    assert blocks
    assert {discrepancy(b, lab) for b in blocks} == {1}


def test_structured_random_deterministic():
    a, _ = structured_random(100, 5, 2, 1000, rng_seed=1)
    b, _ = structured_random(100, 5, 2, 1000, rng_seed=1)
    c, _ = structured_random(100, 5, 2, 1000, rng_seed=2)
    assert a == b
    assert a != c
    assert len(a) == 663  # README's `oracle 2 5 100 --baseline --trials 1000 --seed 1`


def test_structured_random_errors_and_edges():
    with pytest.raises(Indivisible):
        structured_random(10, 3, 2, 10, rng_seed=0)
    for v, k, t in [(4, 0, 2), (-3, 3, 2), (4, -2, 2), (100, 5, -1)]:
        with pytest.raises(PreconditionViolated):
            structured_random(v, k, t, 5, rng_seed=0)
    blocks, _ = structured_random(20, 4, 2, 0, rng_seed=0)
    assert blocks == ()


def test_existence_reference_value():
    assert existence_reference(100, 5, 2) == 64


def test_existence_reference_takes_the_baseline_rule():
    # the parameters structured_random refuses, refused alike
    for v, k, t in [(4, 0, 2), (-3, 3, 2), (4, -2, 2), (100, 5, -1), (0, 5, -1), (-4, 5, 2)]:
        with pytest.raises(PreconditionViolated, match=r"need v, k >= 1 and t >= 0"):
            existence_reference(v, k, t)


def test_candidate_cap():
    # v and C(v, k) are capped before anything is allocated; C(24, 5) =
    # 42 504 is within the cap, and k above v has no k-subsets at all.
    for k, v in [(3, 10**9), (6, 27), (1, oracle.POINT_CAP + 1), (10**9, 10**9),
                 (6, 24), (5, 25)]:
        with pytest.raises(oracle.TooManyCandidates):
            max_balanced_packing(2, k, v)
    # a budget spent before the set-up: C(24, 5) is let through, not refused
    assert not max_balanced_packing(2, 5, 24, SearchBudget(time_cap=1e-9)).exact
    assert max_balanced_packing(2, 10**9, 8) == (0, BalancedPacking(
        8, 2, 10**9, Labeling((1,) * 4 + (-1,) * 4), ()), True, 0)
    # no set holds more points than it is given
    assert oracle._sharing_at_least((0, 1), [1, 1], 10**9) == 0
    with pytest.raises(PreconditionViolated, match="bits"):
        existence_reference(100, 5, 10**9)
    with pytest.raises(oracle.TooManyCandidates):
        structured_random(oracle.BASELINE_POINT_CAP + 1, 1, 1, 1, rng_seed=0)


@pytest.mark.parametrize("argv, code", [
    (("1000000000", "3", "8"), 0),
    (("2", "3", "1000000000"), 2),
    (("2", "1000000000", "8"), 0),
    (("1000000000", "5", "100", "--baseline", "--trials", "10", "--seed", "1"), 2),
    (("2", "5", "1000000000", "--baseline", "--trials", "10", "--seed", "1"), 2),
    (("2", "6", "24", "--time-cap", "1"), 2),
    (("2", "6", "24"), 2),
    (("2", "5", "24", "--time-cap", "1"), 4),
    ((str(10**2500), "3", "8"), 2),
], ids=["t-huge", "v-huge", "k-huge", "baseline-t-huge", "baseline-v-huge",
        "c-134596-time-capped", "c-134596-graph-budget", "c-42504-time-capped",
        "t-past-the-bit-budget"])
def test_huge_parameters_exit_with_their_code(argv, code):
    # The first five ran out of memory under a 1.5 GB address limit before
    # the caps and the early returns; now each exits with its documented
    # code, no traceback, within the timeout.  C(24, 6) = 134 596 is above
    # the candidate cap, whose conflict graph would not fit, and is refused
    # before anything is allocated; C(24, 5) = 42 504 is within it and
    # stops at its time cap.  A t of 2 501 digits, which argparse still
    # reads, is past the bit budget: refused by the integer gate, where it
    # was once searched and printed whole.  A refusal is one short line.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "balpack.cli", "oracle", *argv],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=limit)
    assert "Traceback" not in done.stderr and "Error" not in done.stderr
    assert done.returncode == code, done.stderr
    if code == 2:
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and len(line) <= 200
