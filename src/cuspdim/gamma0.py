"""Invariants of the level-n congruence group: the subgroup of SL2(Z) whose
lower-left entry is divisible by n.

Closed-form routes for the index, cusp classes with widths, elliptic point
counts, and the genus of the compactified quotient curve, all computed once
from local data per prime power.  A point query factors its level; a range
scan reads its window from the one prime sieve of ``_profile_window``.  The
brute-force counterparts live in ``oracle`` so the two routes stay
independent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .exact import _Checked, _check_int, divisors, factorize

__all__ = [
    "CuspClass",
    "GroupProfile",
    "UnimodularMatrix",
    "cusp_count",
    "cusp_rows",
    "cusps",
    "genus",
    "group_profile",
    "index",
    "is_member",
    "mu2",
    "mu3",
]


class _MatrixFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class UnimodularMatrix(_Checked, _MatrixFields):
    """Integer 2x2 matrix with determinant one."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"matrix determinant must be 1, got {det}")
        return tuple.__new__(cls, (a, b, c, d))

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int = 1) -> "UnimodularMatrix":
        """tau -> tau + k."""
        return cls(1, k, 0, 1)

    @classmethod
    def inversion(cls) -> "UnimodularMatrix":
        """tau -> -1/tau."""
        return cls(0, -1, 1, 0)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def act(self, tau: complex) -> complex:
        """Moebius action on the upper half-plane."""
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def __str__(self) -> str:
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


def is_member(mat: UnimodularMatrix, n: int) -> bool:
    """Whether mat lies in the level-n group (lower-left entry divisible by n)."""
    _check_int(n, "level")
    return mat.c % n == 0


def index(n: int) -> int:
    """Index of the level-n group in SL2(Z): product of p^e + p^(e-1) over p^e || n."""
    return group_profile(n).index


def cusp_count(n: int) -> int:
    """Number of cusp classes: sum of phi(gcd(d, n/d)) over divisors d of n."""
    return group_profile(n).cusp_count


class CuspClass(NamedTuple):
    """One cusp class of the level-n group.

    d divides n; two boundary points a/d and a'/d are in the same class
    exactly when a = a' modulo gcd(d, n/d).  ``a`` is the least nonnegative
    representative of its residue class that is coprime to d, so the
    boundary point ``representative`` = a/d is built on read, already reduced.
    """

    level: int
    a: int
    d: int
    width: int

    @property
    def representative(self) -> Fraction:
        return Fraction(self.a, self.d)


def _denominator_text(d: int) -> str:
    """What follows the numerator in the text of a representative a/d, as
    ``str(Fraction(a, d))`` writes it: "/d", or nothing at d = 1.  Here a is
    already coprime to d, and a = 0 only when d = 1."""
    return f"/{d}" if d > 1 else ""


def _representative_text(a: int, d: int) -> str:
    """``str(Fraction(a, d))`` without building the Fraction."""
    return f"{a}{_denominator_text(d)}"


def _canonical_a(r: int, g: int, q: int) -> int:
    """Least a = r (mod g), a >= r, coprime to q; g and q are coprime, so
    some a among the first q candidates is."""
    a = r
    for _ in range(4 * q + 4):
        if math.gcd(a, q) == 1:
            return a
        a += g
    raise ArithmeticError(f"no representative coprime to {q} in class {r} mod {g}")


def _sieve(size: int, primes) -> bytearray:
    """Flags over 0 <= x < size, set where x is divisible by none of ``primes``:
    one slice assignment per prime."""
    flags = bytearray([1]) * size
    for p in primes:
        flags[::p] = bytes(len(range(0, size, p)))
    return flags


# Bounded: the small moduli, which most divisors share, stay cached.
@lru_cache(maxsize=1024)
def _coprime_residues(g: int) -> tuple[int, ...]:
    """The residues 0 < r < g coprime to g, for g > 1, read from a ``_sieve``
    over the primes of g.  They come by trial division, not ``factorize``:
    g = gcd(d, n/d) is at most the square root of its level, and the range
    suite, which shares these residues, factors nothing."""
    primes, rest, p = [], g, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return tuple(itertools.compress(range(g), _sieve(g, primes)))


def _divisor_classes(n: int, divs):
    """Yield (d, g, width, residues) for each d in ``divs``, divisors of n: the
    cusp classes over d are the residues coprime to g = gcd(d, n/d), of width n/(d g)."""
    for d in divs:
        m = n // d
        g = math.gcd(d, m)
        yield d, g, m // g, (0,) if g == 1 else _coprime_residues(g)


def _cusp_blocks(n: int):
    """An iterator of (d, width, numerators) blocks, one per divisor d of n in
    increasing order, the numerators a ordered by a mod g = gcd(d, n/d).

    The classes of every divisor are kept and checked, before any block is
    returned, by four moments of their widths w against the profile: the
    class count, sum w = index, sum ceil(w/8), and sum w^2, the product of
    the local sums (p^2 + 1 at p^1, from ``_local`` at p^e with e >= 2).  A
    class lost, added or moved to another width fails one of them unless
    the change keeps all four: widths {1, 5, 6} and {2, 3, 7} agree in every
    one, so only the full multiset (``GroupProfile.widths``) tells those
    apart.  The blocks are then resolved as ``_resolved`` says."""
    _check_int(n, "level")
    profile = group_profile(n)
    factors = factorize(n).factors
    classes = list(_divisor_classes(n, divisors(n)))
    count = first = second = eighths = 0
    for _, _, w, residues in classes:
        c = len(residues)
        count += c
        first += c * w
        second += c * w * w
        eighths += c * -(-w // 8)
    squares = math.prod(
        p * p + 1 if e == 1 else sum(k * v * v for v, k in _local(p, e)[1])
        for p, e in factors.items()
    )
    expected = profile.cusp_count, profile.index, squares, profile.ceil_eighths_sum
    if (count, first, second, eighths) != expected:
        raise ArithmeticError(f"cusp enumeration disagrees with the width multiset at level {n}")
    return _resolved(classes, tuple(factors))


def _resolved(classes, primes):
    """The blocks of ``_cusp_blocks``, resolved as they are read; ``primes``
    are the primes of the level.  The least a = r (mod g) coprime to d is r
    itself unless d has a prime that g lacks, and those primes, read from
    ``primes``, are the primes of q, the part of d prime to g.  Only then is
    it searched for: a ``_sieve`` over 0 <= x < 2g of the numbers coprime
    to q gives r or else r + g, and ``_canonical_a`` steps on from r only
    when both fail.  With g = 1 it is 0 at d = 1, else 1."""
    for d, g, w, residues in classes:
        if g == 1:
            yield d, w, (0,) if d == 1 else (1,)
            continue
        lacking = [p for p in primes if not d % p and g % p]
        if not lacking:
            yield d, w, residues
            continue
        coprime, q = _sieve(2 * g, lacking), math.prod(lacking)
        yield d, w, [
            r if coprime[r] else r + g if coprime[r + g] else _canonical_a(r, g, q)
            for r in residues
        ]


def cusp_rows(n: int) -> tuple[tuple[int, int, int], ...]:
    """All cusp classes of the level-n group as (a, d, width) rows, one per
    numerator of each block of ``_cusp_blocks``, which checks the widths first."""
    return tuple((a, d, w) for d, w, numerators in _cusp_blocks(n) for a in numerators)


# Typed caches: True must reach the level check, not the entry of 1.
@lru_cache(maxsize=4096, typed=True)
def cusps(n: int) -> tuple[CuspClass, ...]:
    """All cusp classes of the level-n group, one per row of ``cusp_rows``."""
    return tuple(CuspClass(n, a, d, w) for a, d, w in cusp_rows(n))


def mu2(n: int) -> int:
    """Number of order-2 elliptic points: 0 when 4 | n, else a product of
    1 + (-4|p) over primes p | n."""
    return group_profile(n).mu2


def mu3(n: int) -> int:
    """Number of order-3 elliptic points: 0 when 2 | n or 9 | n, else a
    product of 1 + (-3|p) over primes p | n."""
    return group_profile(n).mu3


def genus(n: int) -> int:
    """Genus of the compactified level-n quotient curve:
    1 + index/12 - mu2/4 - mu3/3 - cusps/2."""
    return group_profile(n).genus


class GroupProfile(NamedTuple):
    """The level-n invariants, a plain tuple of seven integers; the fields
    are checked where they are computed, in ``_profile_row``.  ``ceil_eighths_sum``
    is the sum of ceil(w/8) over the cusp widths w, the one number the
    dimension bounds read from the widths; the (width, count) pairs
    ``widths`` are built only when read, and the cusp classes by ``cusps(n)``.
    The field ``index`` shadows ``tuple.index``."""

    level: int
    index: int
    cusp_count: int
    mu2: int
    mu3: int
    genus: int
    ceil_eighths_sum: int

    @property
    def widths(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(_width_counts(self.level).items()))


# Bounded: the small prime powers, which most levels share, stay cached.
@lru_cache(maxsize=4096)
def _local(p: int, e: int) -> tuple:
    """The ``_UNIT`` factors and the (width, count) pairs at p^e: over
    d = p^k lie phi(p^min(k, e-k)) classes of width p^max(e-2k, 0).  The
    profile reads it only at e >= 2; ``_prime_factors`` is its closed form
    at e = 1.

    The elliptic factors 1 + (-4|p) and 1 + (-3|p) are read from p mod 4
    and p mod 3: -1 is a square modulo an odd prime p exactly when
    p = 1 (mod 4), and -3 exactly when p = 1 (mod 3).

    The pad factors t, a, b are what ``_profile_row`` needs of the widths
    mod 8: at p = 2, with n1, n2, n4 the counts of local widths 1, 2 and 4
    (a width of 8 or more adds nothing), they are n1 + n2 + n4, n1 + 2 n2
    and n1; at odd p, the class count and the signed sums of count * chi(w)
    for chi_-4 (+1 on u = 1 mod 4) and chi_-8 (+1 on u = 1, 3 mod 8), where
    chi(p^j) = chi(p)^j."""
    widths: dict[int, int] = {}
    chi4 = 1 if p % 4 == 1 else -1
    chi8 = 1 if p % 8 in (1, 3) else -1
    sum4 = sum8 = 0
    for k in range(e + 1):
        j = min(k, e - k)
        t = max(e - 2 * k, 0)
        count = p**j - p ** (j - 1) if j else 1
        widths[p**t] = widths.get(p**t, 0) + count
        sum4 += count * chi4**t
        sum8 += count * chi8**t
    total = sum(widths.values())
    if p == 2:
        n1, n2 = widths.get(1, 0), widths.get(2, 0)
        pad = n1 + n2 + widths.get(4, 0), n1 + 2 * n2, n1
    else:
        pad = total, sum4, sum8
    m2 = int(e == 1) if p == 2 else 2 * (p % 4 == 1)
    m3 = int(e == 1) if p == 3 else 2 * (p % 3 == 1)
    return (p**e + p ** (e - 1), total, m2, m3, *pad), tuple(widths.items())


def _width_counts(n: int) -> dict[int, int]:
    """The cusp widths of level n with their counts: by the Chinese remainder
    theorem a cusp class is a tuple of local classes, and its width the
    product of their widths.  At p^1 the local pairs are read in closed
    form, one class each of widths p and 1 as in ``_prime_factors``."""
    counts = {1: 1}
    for p, e in factorize(n).factors.items():
        local = ((p, 1), (1, 1)) if e == 1 else _local(p, e)[1]
        # Widths of distinct primes multiply to distinct products.
        counts = {w * v: c * k for w, c in counts.items() for v, k in local}
    return counts


# The columns of a block of levels, each a multiplicative function: index, cusp count, mu2, mu3,
# and the three terms t, a, b of the pad (see ``_profile_row``), which start at 4, 1 and 2.
_UNIT = (1, 1, 1, 1, 4, 1, 2)


def _prime_factors(q: int) -> tuple:
    """``_local(q, 1)[0]`` for a prime q, in closed form and uncached: over
    d = 1 and d = q lie one class each, of widths q and 1.  So the signed
    sums at odd q are chi(q) + 1, which is 2 or 0; the one for chi_-4 is
    also the mu2 factor."""
    if q == 2:
        return 3, 2, 1, 0, 2, 3, 1
    m2 = 2 * (q % 4 == 1)
    return q + 1, 2, m2, 1 if q == 3 else 2 * (q % 3 == 1), 2, m2, 2 * (q % 8 in (1, 3))


def _local_factors(p: int, e: int) -> tuple:
    """The ``_UNIT`` factors at p^e."""
    return _prime_factors(p) if e == 1 else _local(p, e)[0]


def _profile_row(n, idx, count, m2, m3, t, a, b) -> tuple:
    """The profile row of level n, ``GroupProfile`` fields as a plain tuple,
    from its ``_UNIT`` products: by the Chinese remainder theorem each of
    them multiplies over the prime powers of the level.  A genus that is not
    a nonnegative integer is an internal error.

    Sum ceil(w/8) = (index + pad)/8 with pad = sum((-w) mod 8), and pad
    depends only on w mod 8.  Write w = 2^j u with u odd: (-u) mod 8 is
    4 + chi_-4(u) + 2 chi_-8(u), (-2u) mod 8 is 4 + 2 chi_-4(u), (-4u) mod 8
    is 4, and 0 from j = 3 on.  Both characters multiply over the odd
    primes: with T the number of odd-part classes and A, B the products of
    the local signed sums, and n1, n2, n4 the numbers of 2-adic classes of
    width 1, 2 and 4, pad = n1 (4T + A + 2B) + n2 (4T + 2A) + 4 n4 T.  That
    is t + a + b with t = 4 T (n1 + n2 + n4), a = A (n1 + 2 n2) and
    b = 2 B n1, three products of local factors.  A sum index + pad that 8
    does not divide is an internal error too.  Point queries and blocks
    alike run both checks here."""
    s = idx + t + a + b
    if s & 7:
        raise ArithmeticError(f"cusp widths mod 8 gave a pad of {s - idx} at level {n}, index {idx}")
    twelve_g = 12 + idx - 3 * m2 - 4 * m3 - 6 * count
    if twelve_g % 12 or twelve_g < 0:
        raise ArithmeticError(f"genus formula gave {Fraction(twelve_g, 12)} at level {n}")
    return n, idx, count, m2, m3, twelve_g // 12, s >> 3


def _profile(n: int, factors: dict[int, int]) -> tuple:
    """The profile row of one level from its factorization."""
    local = [_local_factors(p, e) for p, e in factors.items()]
    return _profile_row(n, *map(math.prod, zip(_UNIT, *local)))


# Levels per block of the range sieve, so that its memory does not grow with the window.
_SIEVE_BLOCK = 1 << 14


def _profile_window(lo: int, hi: int) -> Iterable[tuple]:
    """The profile rows of the levels lo..hi in turn, uncached: the one
    range kernel.  A window narrower than isqrt(hi) levels is factored by
    ``factorize``, level by level, into a list, so a level it refuses
    raises at the call.  A wider one is sieved as it is read, block by
    block of _SIEVE_BLOCK levels (``_sieve_blocks``)."""
    if math.isqrt(hi) > hi - lo + 1:
        return [_profile(n, factorize(n).factors) for n in range(lo, hi + 1)]
    return itertools.chain.from_iterable(_sieve_blocks(lo, hi))


def _sieve_blocks(lo: int, hi: int) -> Iterator[Iterator[tuple]]:
    """Yield one map of checked profile rows per block of lo..hi.

    One pass over the primes p up to isqrt(hi) divides each level of the
    block by its power of p and multiplies each ``_UNIT`` column by the
    factor at p^1 over the multiples of p, except that the multiples of
    p^2 take their factor at p^e instead.  What is left of a level is 1 or
    one prime q above all of those p, which adds the factors of
    ``_prime_factors(q)``."""
    root = math.isqrt(hi)
    marks = bytearray([1]) * (root + 1)
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(root) + 1):
        if marks[p]:
            marks[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    primes = list(itertools.compress(range(root + 1), marks))
    for start in range(lo, hi + 1, _SIEVE_BLOCK):
        size = min(_SIEVE_BLOCK, hi + 1 - start)
        rest = list(range(start, start + size))
        columns = [[v] * size for v in _UNIT]
        for p in primes:
            first = -start % p
            if first >= size:
                continue
            rest[first::p] = [m // p for m in rest[first::p]]
            square = p * p
            deep = -start % square
            # The p-adic exponents of the multiples of p^2, at deep, deep + p^2, ...
            exponents = [2] * len(range(deep, size, square))
            if exponents:
                # Among the multiples of p^2, those of p^k sit every p^(k-2) places.
                k, pk = 3, square * p
                while (offset := -start % pk) < size:
                    exponents[(offset - deep) // square :: pk // square] = [k] * len(
                        range(offset, size, pk)
                    )
                    k, pk = k + 1, pk * p
                scale = [p ** (e - 1) for e in range(k)]
                rest[deep::square] = [m // scale[e] for m, e in zip(rest[deep::square], exponents)]
            table = [_local_factors(p, e) for e in range(1, max(exponents, default=1) + 1)]
            # values[e] is the column's factor at p^e; values[0] is not read.
            for column, values in zip(columns, zip(_UNIT, *table)):
                higher = [x * values[e] for x, e in zip(column[deep::square], exponents)]
                if (v := values[1]) != 1:
                    column[first::p] = [x * v for x in column[first::p]]
                column[deep::square] = higher
        idx, count, m2, m3, t, a, b = columns
        for i, q in enumerate(rest):
            if q > 1:
                f = _prime_factors(q)
                idx[i] *= f[0]
                count[i] *= f[1]
                m2[i] *= f[2]
                m3[i] *= f[3]
                t[i] *= f[4]
                a[i] *= f[5]
                b[i] *= f[6]
        # Each row is checked as it is read.
        yield map(_profile_row, range(start, start + size), *columns)


@lru_cache(maxsize=4096, typed=True)
def group_profile(n: int) -> GroupProfile:
    """All level-n invariants, from ``factorize`` and the row checks that
    range scans run on their sieve (``_profile_window``)."""
    _check_int(n, "level")
    return GroupProfile._make(_profile(n, factorize(n).factors))
