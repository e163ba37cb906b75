"""Arithmetic in small finite fields GF(p^m) with a canonical element order.

An element is a plain int, its *canonical index*: the coefficient tuple
``(c0, ..., c_{m-1})`` over Z_p of a polynomial in x, read as the integer
``c0 + c1*p + ... + c_{m-1}*p^(m-1)``.  So 0 is zero, 1 is one, and in a
prime field the index is the residue itself.  Every deterministic choice
in this module is made in canonical-index order:

* the field modulus is the monic irreducible degree-m polynomial whose
  coefficient tuple has the smallest canonical index, and
* the designated generator ``xi`` is the element of multiplicative order
  q-1 with the smallest canonical index (q = p^m).

The first few moduli this rule selects:

    GF(4)   x^2 + x + 1
    GF(8)   x^3 + x + 1
    GF(9)   x^2 + 1
    GF(16)  x^4 + x + 1
    GF(25)  x^2 + 2

Addition is digit-wise mod p; multiplication reads exp/log tables to the
base xi.  Field sizes are capped at 2^16; the tables are built lazily,
once per field, in time linear in q.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .core import INCIDENCE_CAP, PreconditionViolated, Record, _check_incidences, _check_ints

__all__ = [
    "FieldError",
    "NotPrime",
    "TooLarge",
    "FieldSpec",
    "make_field",
]

SIZE_CAP = 2**16


class FieldError(PreconditionViolated):
    """Base class for field construction/arithmetic errors."""


class NotPrime(FieldError):
    """The requested characteristic is not a prime number."""


class TooLarge(FieldError):
    """The requested field size exceeds the 2^16 cap."""


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class FieldSpec(Record):
    """Immutable description of one field GF(p^m), with its arithmetic.

    Attributes
    ----------
    p : int
        Prime characteristic.
    m : int
        Extension degree (>= 1).
    modulus : tuple[int, ...]
        Coefficients of the monic irreducible modulus, lowest degree first,
        length m+1, ``modulus[m] == 1``.
    xi_index : int
        Canonical index of the designated primitive element.
    """

    _fields = ("p", "m", "modulus", "xi_index")

    @property
    def q(self) -> int:
        return self.p**self.m

    @cached_property
    def exp(self) -> tuple[int, ...]:
        """``exp[j]`` is xi^j for 0 <= j <= 2(q-2): the cycle of powers
        twice over, so ``mul`` adds two logarithms without reducing them.

        The powers are walked as coefficient lists, so the build is
        linear in q.
        """
        p, m = self.p, self.m
        weights = [p**i for i in range(m)]
        xi = list(_digits(self.xi_index, p, m))
        while xi[-1] == 0:  # no shifts past the top digit
            xi.pop()
        cur = [1] + [0] * (m - 1)
        walk = []
        for _ in range(self.q - 1):
            walk.append(sum(c * w for c, w in zip(cur, weights)))
            cur = _times(cur, xi, p, self.modulus)
        return tuple(walk + walk[:-1])

    @cached_property
    def log(self) -> tuple[int, ...]:
        """``log[a]`` is the j with xi^j == a; ``log[0]`` is -1."""
        log = [-1] * self.q
        for j, a in enumerate(self.exp[: self.q - 1]):
            log[a] = j
        return tuple(log)

    def add(self, a: int, b: int) -> int:
        """a + b: the base-p digits added mod p."""
        p = self.p
        if p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % p
        out, place = 0, 1
        while a or b:
            out += (a % p + b % p) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self.log
        return self.exp[log[a] + log[b]]

    def discrete_index(self, a: int) -> int:
        """r(a): zero maps to 0, and xi^j maps to j+1.

        A bijection from the field onto {0, ..., q-1}.
        """
        return self.log[a] + 1


def _digits(index: int, p: int, length: int) -> tuple[int, ...]:
    """Base-p digits of ``index``, lowest first, padded to ``length``."""
    out = []
    for _ in range(length):
        out.append(index % p)
        index //= p
    return tuple(out)


# -- polynomial helpers over Z_p (tuples, lowest degree first) --------------


def _irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= m/2.
    The remainder is one times ``poly``, by the shift and reduction of ``_times``."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        one = [1] + [0] * (d - 1)
        for idx in range(p**d):
            if not any(_times(one, poly, p, _digits(idx, p, d) + (1,))):
                return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def make_field(p: int, m: int = 1) -> FieldSpec:
    """Build the canonical GF(p^m) description.

    The modulus is the first irreducible monic degree-m polynomial in
    canonical-index order, and ``xi_index`` points at the first element of
    multiplicative order q-1.  Both searches are exhaustive, which is fine
    under the 2^16 size cap.  No table is built here.  Each field is built
    once per process; ``make_field.cache_info()`` reports that cache.
    """
    # checked before the cache, which would hash an unhashable argument first
    _check_ints("p and m", (p, m), FieldError)
    return _field(p, m)


@lru_cache(maxsize=None, typed=True)  # typed: an int subclass is not its int value
def _field(p: int, m: int) -> FieldSpec:
    # before p is factored or raised to m: 2^m passes the cap from m = 17 on
    if p > SIZE_CAP or (p > 1 and m >= SIZE_CAP.bit_length()):
        raise TooLarge(f"field size {p}^{m} exceeds cap {SIZE_CAP}")
    if _prime_factors(p) != [p]:
        raise NotPrime(f"characteristic {p} is not prime")
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if p**m > SIZE_CAP:
        raise TooLarge(f"field size {p}^{m} exceeds cap {SIZE_CAP}")

    modulus = None
    for idx in range(p**m):
        candidate = _digits(idx, p, m) + (1,)
        if _irreducible(candidate, p):
            modulus = candidate
            break
    assert modulus is not None  # irreducibles of every degree exist

    # a^(q-1) == 1 for every a != 0, so a has order q-1 unless
    # a^((q-1)/ell) == 1 for some prime ell dividing q-1
    q, one = p**m, [1] + [0] * (m - 1)
    xi_index = next(
        idx for idx in range(1, q)
        if all(_power(list(_digits(idx, p, m)), (q - 1) // ell, p, modulus) != one
               for ell in _prime_factors(q - 1))
    )

    return FieldSpec(p=p, m=m, modulus=modulus, xi_index=xi_index)


make_field.cache_info = _field.cache_info


def _code_field(t: int, k: int, q: int) -> FieldSpec:
    """GF(q) for the code of degree < t at k points: ints, q <= cap, q = p^m, 1 <= t <= k <= q,
    and its q^t words of k points within the routes' incidence cap."""
    _check_ints("t, k and q", (t, k, q))
    if q > SIZE_CAP:
        raise PreconditionViolated(f"q={q} exceeds the field size cap {SIZE_CAP}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise PreconditionViolated(f"q={q} is not a prime power")
    if not 1 <= t <= k <= q:
        raise PreconditionViolated(f"need 1 <= t <= k <= q, got t={t}, k={k}, q={q}")
    # for q >= 2 the cap's bit length as the exponent is already over the cap
    _check_incidences(q ** min(t, INCIDENCE_CAP.bit_length()), k, q=q, t=t, k=k)
    p = factors[0]
    return make_field(p, next(m for m in itertools.count(1) if p**m == q))


def _times(a: list[int], b, p: int, modulus) -> list[int]:
    """Product of ``a`` and ``b`` given as coefficient lists, lowest first,
    reduced by the monic ``modulus``: ``a`` times x^j is a shift and one
    reduction, once per digit of ``b``, which may be of any degree."""
    acc, y = [0] * len(a), a
    for j, d in enumerate(b):
        if j:
            top, y = y[-1], [0] + y[:-1]
            if top:
                y = [(c - top * r) % p for c, r in zip(y, modulus)]
        if d:
            acc = [s + d * c for s, c in zip(acc, y)]
    return [s % p for s in acc]


def _power(a: list[int], e: int, p: int, modulus) -> list[int]:
    """``a`` to the power e >= 0, by square-and-multiply."""
    result = [1] + [0] * (len(a) - 1)
    while e:
        if e & 1:
            result = _times(result, a, p, modulus)
        a = _times(a, a, p, modulus)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# polynomial evaluation
# ---------------------------------------------------------------------------


def _poly_values(field: FieldSpec, t: int, points) -> list[tuple[int, ...]]:
    """The values at ``points`` of every polynomial of degree < t.

    One tuple per polynomial c0 + c1*x + ... + c_{t-1}*x^(t-1), in
    ``itertools.product(range(q), repeat=t)`` order of (c0, ..., c_{t-1}).
    """
    q, add = field.q, field.add

    def horner(row, coeffs):  # row[v] == v * a
        acc = 0
        for c in reversed(coeffs):
            acc = add(row[acc], c)
        return acc

    times = [[field.mul(v, a) for v in range(q)] for a in points]
    return [tuple(horner(row, coeffs) for row in times)
            for coeffs in itertools.product(range(q), repeat=t)]
