"""Ground-truth engines for small parameters.

``max_balanced_packing`` finds the true maximum size of a balanced packing.
Every labeling is, up to renaming the points, a split: +1 on [0, p+) and -1
on [p+, v).  For each split p+ in [ceil(v/2), v] (the flipped splits are
mirror images) it runs a deterministic branch-and-bound maximum-clique search
on the compatibility graph of the admissible blocks.  Compatibility does not
depend on the split, so one call builds one graph on every k-subset, and
each split searches its admissible blocks in it.  G = S_{p+} x S_{p-}
fixes the split, and the search breaks that symmetry with one orbital
branching rule at every depth (Ostrowski, Linderoth, Rossi and Smriglio,
Math. Programming 2011).  The points fall into cells by sign and by
membership in each block fixed so far; the symmetric groups on the cells
fix the labeling and every fixed block, and a candidate's orbit is its
vector of point counts per cell.  At the root the orbits are the kinds
(numbers of positive points).  One representative per orbit, its lowest
block, is searched, in sorted key order, and then the whole orbit is
deleted.  Once every orbit is a single block the cells are dropped, and
the search below is plain Tomita.  Only images under G of searched
families are skipped: no counting bound is trusted and no labeling is
skipped.  ``SearchBudget`` caps the whole search with one node counter and
one clock.  Desk scale only.

Sets of blocks are bitsets (ints).  The colouring bound builds one colour
class at a time from the lowest candidate left, as in San Segundo's BBMC,
which is first-fit in vertex order, born sorted.  ``_sharing_at_least``
finds the sets that hold at least m of some points through point-holder
bitsets: it builds the graph, sorts each split's blocks into kinds and
decides the baseline's retention.  Neither changes a node count, a witness
or a retained set.

``structured_random`` is the randomized interval baseline: one uniform point
per interval, greedy retention.  Its RNG is ``random.Random`` (Mersenne
Twister), so runs reproduce across platforms for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from math import comb

from .core import (
    BalancedPacking,
    Block,
    Labeling,
    PreconditionViolated,
    Record,
    _check_bits,
    _check_ints,
    _kinds,
    _short,
    _split_labeling,
    interval_labeling,
)


class SearchBudget(Record):
    """Caps on the exact search: ``max_nodes`` (default 10**8), an int
    under the package's integer rule, and ``time_cap`` in seconds
    (default 600.0), an int or a float and not a bool.

    Exceeding either cap stops the search and surfaces ``exact=False``
    on the result together with the best packing found so far; it is
    never a silent truncation and never an exception.
    """

    _fields = ("max_nodes", "time_cap")
    _defaults = {"max_nodes": 10**8, "time_cap": 600.0}

    def __post_init__(self):
        _check_ints("max_nodes", (self.max_nodes,))
        if isinstance(self.time_cap, bool) or not isinstance(self.time_cap, (int, float)):
            raise PreconditionViolated(
                f"time_cap must be an int or a float, got {_short(self.time_cap)}")
        # not (cap > 0), so that a NaN cap, which compares False both ways,
        # is refused rather than switching the time limit off
        if not (self.max_nodes > 0 and self.time_cap > 0):
            raise PreconditionViolated("budget caps must be positive")


OracleResult = namedtuple("OracleResult", "size witness exact nodes")

# The set-up holds every k-subset of [0, v), a bitset for each subset and
# each point, and a conflict graph of C(v, k)^2 bits, so v and C(v, k) above
# these caps are refused before anything is allocated.  46 340 is the floor
# of sqrt(2^31): the largest graph takes 256 MiB.  C(24, 5) = 42 504 is
# within the caps, C(25, 5) = 53 130 is not.
POINT_CAP, CANDIDATE_CAP = 2**8, 46_340
BASELINE_POINT_CAP = 2**20  # structured_random's v


class TooManyCandidates(PreconditionViolated):
    """A parameter exceeds one of the caps above."""


# A long search writes a heartbeat line to its log every this many nodes.
HEARTBEAT_NODES = 100_000


class _CliqueSearch:
    """Tomita-style branch and bound with a greedy colouring bound.

    Candidates, or with ``cells`` their orbits, are expanded in turn; when
    the largest colour left cannot lift the incumbent, the rest is pruned.
    Vertex order, and hence the witness, is deterministic.  One instance
    serves a whole oracle call: the node count, the clock and the incumbent
    carry over from one split graph and one branch to the next.
    """

    def __init__(self, budget, log):
        self.budget = budget
        self.log = log
        self.t0 = time.monotonic()
        self.nodes = 0
        self.complete = True
        self.best = []
        self.best_size = 0
        self.best_labeling = None  # the incumbent's split, recorded with it by _improve
        self.adj = []
        self.masks = []
        self.orbits = 0
        self.labeling = None
        self.kind = None
        self.bound = 0
        self.stack = []

    def _out_of_budget(self) -> bool:
        # the only writer of complete: False for good once either cap is spent
        self.complete = (self.complete and self.nodes < self.budget.max_nodes
                         and time.monotonic() - self.t0 <= self.budget.time_cap)
        return not self.complete

    def _color_order(self, cand: int):
        """The first-fit colouring in vertex order as sorted (colour,
        vertex) pairs, built one class at a time from the lowest vertex."""
        colored = []
        color = 0
        while cand:
            color += 1
            pool = cand
            while pool:
                low = pool & -pool
                u = low.bit_length() - 1
                colored.append((color, u))
                cand ^= low
                pool &= ~(self.adj[u] | low)
        return colored

    def color_bound(self, cand: int) -> int:
        colored = self._color_order(cand)
        return colored[-1][0] if colored else 0

    def emit(self, event: str, **fields):
        if self.log is not None:
            import json

            self.log.write(json.dumps({
                "event": event,
                "labeling": self.labeling,
                "kind": self.kind,
                "elapsed": round(time.monotonic() - self.t0, 6),
                "nodes": self.nodes,
                "incumbent": self.best_size,
                "bound": self.bound,
                **fields,
            }) + "\n")

    def run(self, fixed, cand: int, cells=None):
        """Extend the clique ``fixed`` by vertices of ``cand``.  Fixed
        vertices count toward the depth, so only cliques larger than the
        incumbent are looked for.  ``cells`` (point bitsets) turns on
        orbital branching; without it the search is plain Tomita."""
        self.stack = list(fixed)
        if len(fixed) > self.best_size:
            self._improve()
        if cand:
            # One generator per open node, resumed from this loop: the
            # clique's depth is not bounded by Python's recursion limit.
            frames = [self._expand(len(fixed), cand, cells)]
            while frames:
                child = next(frames[-1], None)
                if child is None:
                    frames.pop()
                else:
                    frames.append(self._expand(*child))

    def _improve(self):
        self.best_size = len(self.stack)
        self.best = list(self.stack)
        self.best_labeling = self.labeling
        self.emit("incumbent")

    def _expand(self, depth: int, cand: int, cells):
        """Search one node; each child node to search is yielded as its
        (depth, cand, cells), and this resumes once that child is done."""
        if self._out_of_budget():
            return
        self.nodes += 1
        if self.nodes % HEARTBEAT_NODES == 0:
            self.emit("heartbeat")
        colored = self._color_order(cand)
        orbits = {}  # point counts per cell -> (largest colour, bitset)
        masks = self.masks
        for color, u in colored if cells else ():
            key = tuple(map(int.bit_count, map(masks[u].__and__, cells)))
            orbits[key] = (color, orbits.get(key, (0, 0))[1] | 1 << u)
        if cells and len(orbits) < len(colored):
            # Sorted key order; each branch is pruned by the largest
            # colour among the orbits not yet deleted.
            branches, bound = [], 0
            for key in sorted(orbits, reverse=True):
                bound = max(bound, orbits[key][0])
                branches.append((bound, orbits[key][1]))
            branches.reverse()
        else:
            # Every orbit is a single block: drop the cells, plain Tomita.
            cells = None
            branches = [(color, 1 << u) for color, u in reversed(colored)]
        for bound, orbit in branches:
            if depth + bound <= self.best_size:
                return
            u = (orbit & -orbit).bit_length() - 1
            self.stack.append(u)
            rest = cand & self.adj[u]
            if rest:
                yield depth + 1, rest, cells and _refine(cells, self.masks[u])
            elif depth + 1 > self.best_size:
                self._improve()
            self.stack.pop()
            if not self.complete:
                return
            self.orbits += cells is not None
            cand &= ~orbit


def _refine(cells, mask: int) -> list:
    """Split each cell where it stands: its points in ``mask``, then the rest."""
    return [part for c in cells for part in (c & mask, c & ~mask) if part]


def _sharing_at_least(points, holders, m: int) -> int:
    """The bitset of the sets that hold at least m of ``points``, where
    ``holders[x]`` is the bitset of the sets that hold point x.  For m = 0
    it is -1, every set, and for m above the number of points 0: no set
    holds more of them."""
    if m > len(points):
        return 0
    at_least = [-1] + [0] * m  # at_least[j]: sets holding >= j of the points so far
    for x in points:
        held = holders[x]
        for j in range(m, 0, -1):
            at_least[j] |= at_least[j - 1] & held
    return at_least[m]


def _point_holders(blocks, v: int) -> list:
    """``holders[x]``: the bitset of the blocks that hold point x, set bit
    by bit in one bytearray per point and read as an int once."""
    rows = [bytearray((len(blocks) + 7) // 8) for _ in range(v)]
    for i, b in enumerate(blocks):
        byte, bit = i >> 3, 1 << (i & 7)
        for x in b:
            rows[x][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def _conflict_graph(blocks, holders, t: int, expired=lambda: False) -> list:
    """Adjacency bitsets: two blocks are adjacent when they share < t points.
    The rows stop where ``expired()``, asked every 64 rows, first returns
    true."""
    n = len(blocks)
    everyone = (1 << n) - 1
    adj = []
    for i, b in enumerate(blocks):
        if i % 64 == 0 and expired():
            break
        adj.append(everyone & ~_sharing_at_least(b, holders, t) & ~(1 << i))
    return adj


def _split_kinds(holders, k: int, p_plus: int) -> list:
    """The admissible blocks of the split p+ by kind: (a, bitset of the blocks holding at
    least a points of [0, p+) and b of the rest, so exactly a) for each distinct kind (a, b)
    of ``core._kinds(k)``, ascending in a."""
    positive, negative = range(p_plus), range(p_plus, len(holders))
    return [(a, _sharing_at_least(positive, holders, a)
             & _sharing_at_least(negative, holders, b))
            for a, b in sorted(set(_kinds(k)))]


def _k_subsets(items, k: int):
    """``itertools.combinations(items, k)``, which allocates k indices
    before it yields anything: for k above len(items), no subsets at once."""
    return itertools.combinations(items, k) if k <= len(items) else ()


def _set_up(search: _CliqueSearch, t: int, k: int, v: int):
    """Give ``search`` the masks and the conflict graph of every k-subset
    of [0, v), and return the subsets and their point holders.  One graph
    serves every split; the admissible blocks keep their combinations
    order, and so the search its vertex order.  No step starts once the
    budget is spent (the graph asks at its first row); ``expired()`` alone
    skips a step or cuts the graph short, and it leaves ``complete`` False."""
    expired = search._out_of_budget
    if expired():
        return [], []
    blocks = list(_k_subsets(range(v), k))
    if expired():
        return blocks, []
    holders = _point_holders(blocks, v)
    if expired():
        return blocks, holders
    search.masks = list(map(sum, _k_subsets([1 << x for x in range(v)], k)))
    search.adj = _conflict_graph(blocks, holders, t, expired)
    return blocks, holders


def max_balanced_packing(
    t: int,
    k: int,
    v: int,
    budget: SearchBudget | None = None,
    log=None,
) -> OracleResult:
    """Exact maximum over every labeling and every block family.

    Blocks are admissible when their discrepancy under the split
    labeling lies in {-1, 0, +1}; two blocks conflict when they share
    t or more points.  The answer maximizes an independent family,
    found as a maximum clique in the complement.  ``exact`` is True
    only when the whole search, and the set-up before it (``_set_up``), ran
    to completion inside the budget; a set-up cut short gives the empty
    family.  v above ``POINT_CAP`` or C(v, k) above ``CANDIDATE_CAP`` is
    a ``TooManyCandidates``, raised before anything is allocated.

    ``log`` gets one JSON line per split and block kind (``event``
    "kind", with the split's admissible ``vertices`` and the ``edges``
    among them, the ``orbits`` branched on under
    that kind at every depth, ``complete`` and the incumbent's blocks as
    ``best``), one per new incumbent and a heartbeat every
    ``HEARTBEAT_NODES`` nodes.  Every line carries ``labeling`` (p+),
    ``kind``, ``elapsed``, ``nodes``, ``incumbent`` and ``bound``, the
    coloring bound at the kind's first block.  These counts and the bound
    are taken only when there is a ``log``.
    """
    _check_ints("t, k and v", (t, k, v))
    if t < 1 or k < 1 or v < 1:
        raise PreconditionViolated("need t >= 1 and k, v >= 1")
    if v > POINT_CAP or comb(v, k) > CANDIDATE_CAP:  # v first, so that comb stays quick
        raise TooManyCandidates(f"need v <= {POINT_CAP} and C(v, k) <= {CANDIDATE_CAP}, "
                                f"got k={k}, v={v}")
    search = _CliqueSearch(budget or SearchBudget(), log)
    search.best_labeling = (v + 1) // 2  # the split of the empty family
    blocks, holders = _set_up(search, t, k, v)
    adj = search.adj

    def incumbent():  # its blocks, in order
        return tuple(sorted(blocks[i] for i in search.best))
    for p_plus in range((v + 1) // 2, v + 1) if search.complete else ():
        kinds = _split_kinds(holders, k, p_plus)
        allowed = admissible = kinds[0][1] | kinds[-1][1]
        if log is not None:
            n = admissible.bit_count()
            edges = sum((a & admissible).bit_count()
                        for i, a in enumerate(adj) if admissible >> i & 1) // 2
        search.labeling = p_plus
        positive = (1 << p_plus) - 1
        for a, kind in kinds:
            # The root orbit is the kind; its representative, the first block.
            search.kind = a
            search.bound = search.orbits = 0
            if kind:
                rep = (kind & -kind).bit_length() - 1
                cand = allowed & adj[rep]
                if log is not None:
                    search.bound = 1 + search.color_bound(cand)
                cells = _refine([positive, (1 << v) - 1 - positive], search.masks[rep])
                search.run([rep], cand, cells)
                allowed &= ~kind
            if log is not None:
                search.emit(
                    "kind", vertices=n, edges=edges, orbits=search.orbits,
                    complete=search.complete, best=incumbent(),
                    best_labeling=search.best_labeling,
                )
            if not search.complete:
                break
        if not search.complete:
            break
    p_plus = search.best_labeling
    witness = BalancedPacking(v, t, k, _split_labeling(p_plus, v - p_plus), incumbent())
    return OracleResult(search.best_size, witness, search.complete, search.nodes)


def structured_random(
    v: int, k: int, t: int, trials: int, rng_seed: int
) -> tuple[tuple[Block, ...], Labeling]:
    """Greedy retention of random one-point-per-interval sets.

    Each trial draws, with replacement, one uniform point from each of
    the k width-v/k intervals; the set is kept when it meets every
    previously kept set in at most t points.  Note the retention rule
    is <= t, one looser than the packing predicate.  Interval labeling
    makes each kept set's discrepancy 0 (k even) or +1 (k odd).

    v, k, t and trials take the package's integer rule; ``rng_seed`` is
    handed to ``random.Random`` as it is, which seeds from None, an int,
    a float, a str or bytes; any other seed is a ``PreconditionViolated``.
    """
    _check_ints("v, k, t and trials", (v, k, t, trials))
    _check_baseline(v, k, t)
    if trials < 0:
        raise PreconditionViolated(f"need trials >= 0, got {trials}")
    if v > BASELINE_POINT_CAP:  # a sign and a holder bitset for each point
        raise TooManyCandidates(f"need v <= {BASELINE_POINT_CAP} for the baseline, got {v}")
    labeling = interval_labeling(v, k)
    width = v // k
    try:
        rng = random.Random(rng_seed)
    except TypeError:
        raise PreconditionViolated(
            f"rng_seed must be None, an int, a float, a str or bytes, got {_short(rng_seed)}"
        ) from None
    kept: list[Block] = []
    holders = [0] * v  # holders[x]: bitset of the kept sets that hold x
    for _ in range(trials):
        block = tuple(
            i * width + rng.randrange(width) for i in range(k)
        )
        if not _sharing_at_least(block, holders, t + 1):
            for x in block:
                holders[x] |= 1 << len(kept)
            kept.append(block)
    return tuple(kept), labeling


def _check_baseline(v: int, k: int, t: int) -> None:
    """The baseline's range rule, which its reference shares: v, k >= 1 and t >= 0."""
    if v < 1 or k < 1 or t < 0:
        raise PreconditionViolated(f"need v, k >= 1 and t >= 0, got v={v}, k={k}, t={t}")


def existence_reference(v: int, k: int, t: int):
    """The (v*t/k^2)^t count the baseline is compared against, under
    ``structured_random``'s parameter rule."""
    _check_ints("v, k and t", (v, k, t))
    _check_baseline(v, k, t)
    _check_bits("(v*t/k^2)^t", t * max(v * t, k * k).bit_length())
    import fractions

    return fractions.Fraction(v * t, k * k) ** t
