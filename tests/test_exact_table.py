"""Every exact value A(t,k,v) at 1 <= t < k < v <= 10, and each bound held
to it.

A(t,k,v) is the largest balanced family of k-subsets of a v-set in which
any two blocks share fewer than t points, maximised over every labeling.
The oracle reproduces each value here, and no bound may fall below one.
"""

import pytest

from balpack.bounds import corollary_bound, type_lp_bound
from balpack.core import PreconditionViolated, verify
from balpack.oracle import max_balanced_packing

EXACT = {
    (1, 2, 3): 1,
    (1, 2, 4): 2,
    (1, 3, 4): 1, (2, 3, 4): 1,
    (1, 2, 5): 2,
    (1, 3, 5): 1, (2, 3, 5): 2,
    (1, 4, 5): 1, (2, 4, 5): 1, (3, 4, 5): 1,
    (1, 2, 6): 3,
    (1, 3, 6): 2, (2, 3, 6): 4,
    (1, 4, 6): 1, (2, 4, 6): 1, (3, 4, 6): 3,
    (1, 5, 6): 1, (2, 5, 6): 1, (3, 5, 6): 1, (4, 5, 6): 1,
    (1, 2, 7): 3,
    (1, 3, 7): 2, (2, 3, 7): 6,
    (1, 4, 7): 1, (2, 4, 7): 2, (3, 4, 7): 6,
    (1, 5, 7): 1, (2, 5, 7): 1, (3, 5, 7): 1, (4, 5, 7): 3,
    (1, 6, 7): 1, (2, 6, 7): 1, (3, 6, 7): 1, (4, 6, 7): 1, (5, 6, 7): 1,
    (1, 2, 8): 4,
    (1, 3, 8): 2, (2, 3, 8): 8,
    (1, 4, 8): 2, (2, 4, 8): 2, (3, 4, 8): 12,
    (1, 5, 8): 1, (2, 5, 8): 1, (3, 5, 8): 2, (4, 5, 8): 8,
    (1, 6, 8): 1, (2, 6, 8): 1, (3, 6, 8): 1, (4, 6, 8): 1, (5, 6, 8): 4,
    (1, 7, 8): 1, (2, 7, 8): 1, (3, 7, 8): 1, (4, 7, 8): 1, (5, 7, 8): 1,
    (6, 7, 8): 1,
    (1, 2, 9): 4,
    (1, 3, 9): 3, (2, 3, 9): 10,
    (1, 4, 9): 2, (2, 4, 9): 3, (3, 4, 9): 12,
    (1, 5, 9): 1, (2, 5, 9): 2, (3, 5, 9): 3, (4, 5, 9): 16,
    (1, 6, 9): 1, (2, 6, 9): 1, (3, 6, 9): 1, (4, 6, 9): 2, (5, 6, 9): 8,
    (1, 7, 9): 1, (2, 7, 9): 1, (3, 7, 9): 1, (4, 7, 9): 1, (5, 7, 9): 1,
    (6, 7, 9): 4,
    (1, 8, 9): 1, (2, 8, 9): 1, (3, 8, 9): 1, (4, 8, 9): 1, (5, 8, 9): 1,
    (6, 8, 9): 1, (7, 8, 9): 1,
    (1, 2, 10): 5,
    (1, 3, 10): 3, (2, 3, 10): 12,
    (1, 4, 10): 2, (2, 4, 10): 5, (3, 4, 10): 20,
    (1, 5, 10): 2, (2, 5, 10): 2, (3, 5, 10): 6, (4, 5, 10): 30,
    (1, 6, 10): 1, (2, 6, 10): 1, (3, 6, 10): 2, (4, 6, 10): 5, (5, 6, 10): 20,
    (1, 7, 10): 1, (2, 7, 10): 1, (3, 7, 10): 1, (4, 7, 10): 1, (5, 7, 10): 3,
    (6, 7, 10): 12,
    (1, 8, 10): 1, (2, 8, 10): 1, (3, 8, 10): 1, (4, 8, 10): 1, (5, 8, 10): 1,
    (6, 8, 10): 1, (7, 8, 10): 5,
    (1, 9, 10): 1, (2, 9, 10): 1, (3, 9, 10): 1, (4, 9, 10): 1, (5, 9, 10): 1,
    (6, 9, 10): 1, (7, 9, 10): 1, (8, 9, 10): 1,
}

# A(4,5,10) = 30 takes about 457 000 nodes and 20 s of search (exact under
# `balpack oracle 4 5 10 --time-cap 60`), so the oracle is not run there.
SEARCHED = sorted(p for p in EXACT if p != (4, 5, 10))


def _corollary(t, k, v):
    """``corollary_bound``, or None where its preconditions fail."""
    try:
        return corollary_bound(t, k, v)
    except PreconditionViolated:
        return None


def test_the_table_is_the_whole_grid():
    assert set(EXACT) == {
        (t, k, v) for v in range(3, 11) for k in range(2, v) for t in range(1, k)
    }


@pytest.mark.parametrize("t,k,v", SEARCHED)
def test_oracle_reproduces_the_table_and_no_bound_falls_below_it(t, k, v):
    a = EXACT[t, k, v]
    r = max_balanced_packing(t, k, v)
    assert (r.size, r.exact) == (a, True)
    assert r.witness.n_blocks == a
    assert verify(r.witness).passed
    assert type_lp_bound(t, k, v) >= a
    cb = _corollary(t, k, v)
    assert cb is None or cb >= a


def test_how_often_each_bound_is_exact():
    corollary = {p: _corollary(*p) for p in SEARCHED}
    assert sum(cb is not None for cb in corollary.values()) == 76
    assert sum(corollary[p] == EXACT[p] for p in SEARCHED) == 43
    assert sum(type_lp_bound(*p) == EXACT[p] for p in SEARCHED) == 62
