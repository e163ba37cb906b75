"""Ground-truth engines for small parameters.

``max_balanced_packing`` finds the true maximum size of a balanced packing.
Every labeling is, up to renaming the points, a split: +1 on [0, p+) and -1
on [p+, v).  For each split p+ in [ceil(v/2), v] (the flipped splits are
mirror images) it runs a deterministic branch-and-bound maximum-clique search
on the compatibility graph of the admissible blocks.  G = S_{p+} x S_{p-}
fixes the split, and the search breaks that symmetry by orbital branching
(Ostrowski, Linderoth, Rossi and Smriglio, Math. Programming 2011):

* A block's kind is its number of positive points.  G moves a block to any
  other of its kind, so each kind a is searched only through its canonical
  block ``range(a) + range(p+, p+ + k - a)``, and then dropped.
* The second block is branched by the orbits of the canonical block's
  stabiliser, S_{c&P} x S_{P-c} x S_{c&N} x S_{N-c}: how many of a block's
  points fall in c&P and in c&N, and its kind.  One representative per
  orbit is searched, then the whole orbit is deleted.

Both steps skip only images under G of searched families: no counting bound
is trusted and no labeling is skipped.  ``SearchBudget`` caps the whole
search with one node counter and one clock.  Desk scale only.

Sets of blocks are bitsets (ints).  The colouring bound builds one colour
class at a time from the lowest candidate left, as in San Segundo's BBMC,
which is first-fit in vertex order, born sorted.  ``_sharing_at_least``
finds the sets that hold at least m of a block's points through
point-holder bitsets: it builds each split graph and decides the baseline's
retention.  Neither changes a node count, a witness or a retained set.

``structured_random`` is the randomized interval baseline: one uniform point
per interval, greedy retention.  Its RNG is ``random.Random`` (Mersenne
Twister), so runs reproduce across platforms for a fixed seed.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from typing import IO, NamedTuple, Optional

from .core import (
    BalancedPacking,
    Block,
    Labeling,
    PackingError,
    PreconditionViolated,
    Record,
)


class Indivisible(PackingError):
    """Interval construction needs the block size to divide v."""


class SearchBudget(Record):
    """Caps on the exact search: ``max_nodes`` (default 10**8) and
    ``time_cap`` in seconds (default 600.0).

    Exceeding either cap stops the search and surfaces ``exact=False``
    on the result together with the best packing found so far; it is
    never a silent truncation and never an exception.
    """

    _fields = ("max_nodes", "time_cap")
    _defaults = {"max_nodes": 10**8, "time_cap": 600.0}

    def __post_init__(self):
        # not (cap > 0), so that a NaN cap, which compares False both ways,
        # is refused rather than switching the time limit off
        if not (self.max_nodes > 0 and self.time_cap > 0):
            raise PreconditionViolated("budget caps must be positive")


class OracleResult(NamedTuple):
    size: int
    witness: BalancedPacking
    exact: bool
    nodes: int


# A long search writes a heartbeat line to its log every this many nodes.
HEARTBEAT_NODES = 100_000


class _CliqueSearch:
    """Tomita-style branch and bound with a greedy colouring bound.

    Candidates are expanded in reverse colour order; a vertex whose colour
    cannot lift the incumbent prunes the rest of the candidates.  Vertex
    order, and hence the witness, is deterministic.  One instance serves a
    whole oracle call: the node count, the clock and the incumbent carry
    over from one split graph and one branch to the next.
    """

    def __init__(self, budget, log):
        self.budget = budget
        self.log = log
        self.t0 = time.monotonic()
        self.nodes = 0
        self.complete = True
        self.best = []
        self.best_size = 0
        self.adj = []
        self.labeling = None
        self.kind = None
        self.bound = 0
        self.stack = []

    def _out_of_budget(self) -> bool:
        return (
            self.nodes >= self.budget.max_nodes
            or time.monotonic() - self.t0 > self.budget.time_cap
        )

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

    def run(self, fixed, cand: int):
        """Extend the clique ``fixed`` by vertices of ``cand``.  Fixed
        vertices count toward the depth, so only cliques larger than the
        incumbent are looked for: below two fixed blocks, the incumbent
        minus two seeds the search."""
        self.stack = list(fixed)
        if len(fixed) > self.best_size:
            self._improve()
        if cand:
            self._expand(len(fixed), cand)

    def _improve(self):
        self.best_size = len(self.stack)
        self.best = list(self.stack)
        self.emit("incumbent")

    def _expand(self, depth: int, cand: int):
        if self._out_of_budget():
            self.complete = False
            return
        self.nodes += 1
        if self.nodes % HEARTBEAT_NODES == 0:
            self.emit("heartbeat")
        for color, u in reversed(self._color_order(cand)):
            if depth + color <= self.best_size:
                return
            self.stack.append(u)
            rest = cand & self.adj[u]
            if rest:
                self._expand(depth + 1, rest)
            elif depth + 1 > self.best_size:
                self._improve()
            self.stack.pop()
            if not self.complete:
                return
            cand &= ~(1 << u)


def _sharing_at_least(points, holders, m: int) -> int:
    """The bitset of the sets that hold at least m >= 1 of ``points``,
    where ``holders[x]`` is the bitset of the sets that hold point x."""
    at_least = [-1] + [0] * m  # at_least[j]: sets holding >= j of the points so far
    for x in points:
        held = holders[x]
        for j in range(m, 0, -1):
            at_least[j] |= at_least[j - 1] & held
    return at_least[m]


def _admissible_blocks(v: int, k: int, p_plus: int):
    return [b for b in itertools.combinations(range(v), k)
            if k // 2 <= sum(x < p_plus for x in b) <= (k + 1) // 2]


def _search_kind(search, masks, kinds, allowed, c, p_plus):
    """Search every family inside ``allowed`` through the canonical
    block ``c``, branching the second block by the orbits of c's
    stabiliser.  Returns the number of orbits searched."""
    positive = (1 << p_plus) - 1
    c_pos, c_neg = masks[c] & positive, masks[c] & ~positive
    cand = allowed & search.adj[c]
    orbits = {}
    for x, mask in enumerate(masks):
        if cand >> x & 1:
            key = ((mask & c_pos).bit_count(), (mask & c_neg).bit_count(), kinds[x])
            orbits[key] = orbits.get(key, 0) | 1 << x
    search.bound = 1 + search.color_bound(cand)
    search.run([c], 0)  # {c} alone, while the incumbent is empty
    searched = 0
    for key in sorted(orbits):
        orbit = orbits[key]
        rep = (orbit & -orbit).bit_length() - 1
        search.run([c, rep], cand & search.adj[rep])
        if not search.complete:
            break
        cand &= ~orbit
        searched += 1
    return searched


def _split_graph(vertices, v: int, t: int) -> list:
    """Adjacency bitsets: two blocks are adjacent when they share < t points."""
    holders = [0] * v
    for i, b in enumerate(vertices):
        for x in b:
            holders[x] |= 1 << i
    everyone = (1 << len(vertices)) - 1
    return [everyone & ~_sharing_at_least(b, holders, t) & ~(1 << i)
            for i, b in enumerate(vertices)]


def max_balanced_packing(
    t: int,
    k: int,
    v: int,
    budget: Optional[SearchBudget] = None,
    log: Optional[IO[str]] = None,
) -> OracleResult:
    """Exact maximum over every labeling and every block family.

    Blocks are admissible when their discrepancy under the split
    labeling lies in {-1, 0, +1}; two blocks conflict when they share
    t or more points.  The answer maximizes an independent family,
    found as a maximum clique in the complement.  ``exact`` is True
    only when the whole search ran to completion inside the budget.

    ``log`` gets one JSON line per split and block kind (``event``
    "kind", with ``vertices``, ``edges``, ``orbits``, ``complete`` and
    the incumbent's blocks as ``best``), one per new incumbent and a
    heartbeat every ``HEARTBEAT_NODES`` nodes.  Every line carries
    ``labeling`` (p+), ``kind``, ``elapsed``, ``nodes``, ``incumbent``
    and ``bound``, the coloring bound at the canonical block.
    """
    if t < 1 or k < 1 or v < 1:
        raise PreconditionViolated("need t >= 1 and k, v >= 1")
    search = _CliqueSearch(budget or SearchBudget(), log)
    best_blocks: tuple = ()
    best_p_plus = (v + 1) // 2
    for p_plus in range((v + 1) // 2, v + 1):
        vertices = _admissible_blocks(v, k, p_plus)
        n = len(vertices)
        masks = [sum(1 << x for x in b) for b in vertices]
        kinds = [sum(1 for x in b if x < p_plus) for b in vertices]
        search.adj = _split_graph(vertices, v, t)
        edges = sum(a.bit_count() for a in search.adj) // 2
        search.labeling = p_plus
        allowed = (1 << n) - 1
        for a in sorted({k // 2, (k + 1) // 2}):
            search.kind = a
            search.bound = 0
            before = search.best_size
            orbits = 0
            if a <= p_plus and k - a <= v - p_plus:
                canonical = tuple(range(a)) + tuple(range(p_plus, p_plus + k - a))
                orbits = _search_kind(
                    search, masks, kinds, allowed, vertices.index(canonical), p_plus
                )
                allowed &= ~sum(1 << i for i in range(n) if kinds[i] == a)
            if search.best_size > before:
                best_blocks = tuple(sorted(vertices[i] for i in search.best))
                best_p_plus = p_plus
            search.emit(
                "kind", vertices=n, edges=edges, orbits=orbits,
                complete=search.complete, best=best_blocks, best_labeling=best_p_plus,
            )
            if not search.complete:
                break
        if not search.complete:
            break
    signs = (1,) * best_p_plus + (-1,) * (v - best_p_plus)
    witness = BalancedPacking(v, t, k, Labeling(signs), best_blocks)
    return OracleResult(search.best_size, witness, search.complete, search.nodes)


def interval_labeling(v: int, k: int) -> Labeling:
    """+1 on the first ceil(k/2) intervals of size v/k, -1 on the rest."""
    if v % k:
        raise Indivisible(f"{k} does not divide {v}")
    width = v // k
    cut = ((k + 1) // 2) * width
    return Labeling(tuple(1 if x < cut else -1 for x in range(v)))


def structured_random(
    v: int, k: int, t: int, trials: int, rng_seed: int
) -> tuple[tuple[Block, ...], Labeling]:
    """Greedy retention of random one-point-per-interval sets.

    Each trial draws, with replacement, one uniform point from each of
    the k width-v/k intervals; the set is kept when it meets every
    previously kept set in at most t points.  Note the retention rule
    is <= t, one looser than the packing predicate.  Interval labeling
    makes each kept set's discrepancy 0 (k even) or +1 (k odd).
    """
    if k < 1 or v < 1 or t < 0 or trials < 0:
        raise PreconditionViolated("need k, v >= 1 and t, trials >= 0")
    labeling = interval_labeling(v, k)
    width = v // k
    rng = random.Random(rng_seed)
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


def existence_reference(v: int, k: int, t: int) -> Fraction:
    """The (v*t/k^2)^t count the baseline is compared against."""
    return Fraction(v * t, k * k) ** t
