"""Exact arithmetic primitives.

Factorization, divisors, the Kronecker symbol, Dedekind sums, and exact
phases on the unit circle.  Everything here is pure and exact; floating
point never enters.  Numbers are factored one at a time; range scans read
their windows from the prime sieve in ``gamma0`` instead.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "Factorization",
    "FactorizationBudgetError",
    "UnitPhase",
    "PHASE_ONE",
    "divisors",
    "factorize",
    "kronecker",
]


class Factorization(NamedTuple):
    """Prime factorization of a positive integer.

    ``factors`` maps each prime to its exponent; 1 gets an empty mapping.
    """

    value: int
    factors: dict[int, int]


def _trial_divisors():
    yield 2
    yield 3
    k = 5
    while True:
        yield k
        yield k + 2
        k += 6


# Trial division stops at this bound when Miller-Rabin can take over.
_TRIAL_BOUND = 1000
# ... and gives up at this one when it cannot.
_TRIAL_BUDGET = 10**6
# Miller-Rabin on the first 13 primes as bases is exact below psi_13
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _check_int(value, what: str, minimum: int | None = 1, *, divides: int | None = None) -> None:
    """The one input check of the library: raise ValueError unless value is
    an int, and not a bool, that is at least ``minimum`` (``None``: any int)
    and, when ``divides`` is given, a divisor of it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value!r}")
    if divides is not None and divides % value:
        raise ValueError(f"{what} must divide {divides}, got {value!r}")


def _check_tolerance(tolerance) -> None:
    """Raise ValueError unless tolerance is a real number, and not a bool,
    finite and above 0."""
    if isinstance(tolerance, bool) or not (
        isinstance(tolerance, numbers.Real) and math.isfinite(tolerance) and tolerance > 0
    ):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance!r}")


def _check_tau(tau) -> complex:
    """tau as a complex number; raise ValueError unless both parts are finite
    and the imaginary part is above 0 (the upper half-plane)."""
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau must be a finite point of the upper half-plane, got {tau!r}")
    return tau


class FactorizationBudgetError(ValueError):
    """A cofactor at or above psi_13 has no prime factor up to
    _TRIAL_BUDGET, so it can be neither split by trial division nor proven
    prime; the number is refused as bad input, never factored unproven."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality proof for n below psi_13."""
    if n >= _MR_LIMIT:
        raise ArithmeticError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the composite n, by Brent's cycle-finding rho on
    x -> x^2 + c for c = 1, 2, ... in turn, one gcd per 128 steps
    (Brent, BIT 20, 1980)."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The batched product hit zero: replay the last batch one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _prime_parts(m: int) -> list[int]:
    """The prime factors of m (1 < m < psi_13), with multiplicity, each one
    proven prime by ``_is_prime``."""
    if _is_prime(m):
        return [m]
    g = _rho(m)
    return _prime_parts(g) + _prime_parts(m // g)


# Typed caches: True and 12.0 must reach the argument check, not the entries of 1 and 12.
@lru_cache(maxsize=65536, typed=True)
def factorize(n: int) -> Factorization:
    """Factor a positive integer; primes come in ascending order.

    Every returned factor is proven prime.  Trial division runs up to
    _TRIAL_BOUND; a cofactor left after it is prime when it is below the
    square of the next trial divisor, and otherwise, below psi_13, it is
    split by Brent's rho with each part proven prime by deterministic
    Miller-Rabin.  Only from psi_13 on does trial division go further, to
    _TRIAL_BUDGET, and past it ``FactorizationBudgetError`` is raised.
    Levels up to _TRIAL_BOUND^2 never leave trial division.
    """
    _check_int(n, "number to factor")
    m = n
    factors: dict[int, int] = {}
    for p in _trial_divisors():
        if p * p > m:
            break
        if p > _TRIAL_BOUND and m < _MR_LIMIT:
            for q in _prime_parts(m):
                factors[q] = factors.get(q, 0) + 1
            return Factorization(n, dict(sorted(factors.items())))
        if p > _TRIAL_BUDGET:
            raise FactorizationBudgetError(
                f"cannot factor {n}: cofactor {m} has no prime factor up to "
                f"{_TRIAL_BUDGET} and is too large to prove prime"
            )
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return Factorization(n, factors)


@lru_cache(maxsize=65536, typed=True)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, sorted ascending; n is checked by ``factorize``."""
    divs = [1]
    for p, e in factorize(n).factors.items():
        step = divs
        for _ in range(e):
            step = [d * p for d in step]
            divs += step
    return tuple(sorted(divs))


def _kronecker_prime(a: int, p: int) -> int:
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    r = a % p
    if r == 0:
        return 0
    # Euler's criterion; p is an odd prime here.
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully multiplicative over the factorization of n.

    Edge conventions: (a|1) = 1; (a|-1) = -1 exactly when a < 0; and
    (a|0) = 1 when a = +-1, else 0.
    """
    _check_int(a, "numerator", minimum=None)
    _check_int(n, "denominator", minimum=None)
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        if a < 0:
            result = -1
        n = -n
    for p, e in factorize(n).factors.items():
        s = _kronecker_prime(a, p)
        if s == 0:
            return 0
        if s == -1 and e % 2 == 1:
            result = -result
    return result


def _dedekind_12c(d: int, c: int) -> int:
    """The integer 12 c s(d, c), for c >= 1 coprime to d (unchecked)."""
    d %= c
    if c == 1:
        return 0
    # Reciprocity s(d, c) + s(c, d) = (d/c + c/d + 1/(dc))/12 - 1/4, applied
    # along Euclid's algorithm on (c, d) with quotients a_1..a_k, telescopes
    # to 12 s(d, c) = (d + d')/c + a_1 - a_2 + ... +- a_k - (3 if k is odd
    # else 1), where d d' = 1 (mod c); so only integers are accumulated.
    alternating = 0
    sign = 1
    x, y = c, d
    while y:
        quotient, remainder = divmod(x, y)
        alternating += sign * quotient
        sign = -sign
        x, y = y, remainder
    alternating -= 3 if sign < 0 else 1
    return d + pow(d, -1, c) + c * alternating


class _Checked:
    """Mixin of the checked value types, each a subclass of a ``NamedTuple``
    of its fields whose ``__new__`` checks the value: ``_make``, and so
    ``_replace``, go through that check too, and the tuple's concatenation
    and repetition are refused, so ``x + x`` and ``2 * x`` raise TypeError."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__


class _PhaseFields(NamedTuple):
    turns: Fraction


class UnitPhase(_Checked, _PhaseFields):
    """The exact unit-circle point e^(2 pi i turns), turns reduced mod 1.

    Multiplication adds turns; integer powers scale them.  Conversion to a
    complex float happens only at the numeric-verification boundary.
    """

    __slots__ = ()

    def __new__(cls, turns: Fraction):
        if type(turns) is not Fraction:
            turns = Fraction(turns)
        elif 0 <= turns.numerator < turns.denominator:
            return tuple.__new__(cls, (turns,))
        num, den = turns.numerator, turns.denominator
        return tuple.__new__(cls, (Fraction(num % den, den),))

    @property
    def is_one(self) -> bool:
        return self.turns == 0

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        if not isinstance(other, UnitPhase):
            return NotImplemented
        return UnitPhase(self.turns + other.turns)

    def __pow__(self, k: int) -> "UnitPhase":
        return UnitPhase(self.turns * k)

    def inverse(self) -> "UnitPhase":
        return UnitPhase(-self.turns)

    def to_complex(self) -> complex:
        return cmath.exp(2j * math.pi * float(self.turns))

    def __str__(self) -> str:
        return f"e({self.turns})"


PHASE_ONE = UnitPhase(Fraction(0))
