"""Brute-force oracles shared across the test suite.  Each one deliberately
avoids the shortcut the library uses for the same quantity.  Also the one
way the tests corrupt the local factors of a level."""

import cmath
import math
from fractions import Fraction

from cuspdim import gamma0
from cuspdim.qseries import _series_tail_bound


def corrupt_local_factors(monkeypatch, change, routes=("_local", "_prime_factors")):
    """Pass the ``_UNIT`` factors of ``gamma0`` at every prime power p^e
    through change(p, factors): at e >= 2 from ``_local``, at e = 1 from
    ``_prime_factors``, or from one of the two routes alone."""
    real_local, real_prime = gamma0._local, gamma0._prime_factors
    if "_local" in routes:
        monkeypatch.setattr(
            gamma0, "_local", lambda p, e: (change(p, real_local(p, e)[0]), real_local(p, e)[1])
        )
    if "_prime_factors" in routes:
        monkeypatch.setattr(gamma0, "_prime_factors", lambda q: change(q, real_prime(q)))


def primes(limit):
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def eta_product_coefficients(count):
    """Integer coefficients of prod_{k>=1} (1 - q^k) through q^(count-1),
    by direct polynomial multiplication (no pentagonal-number shortcut)."""
    coeffs = [0] * count
    coeffs[0] = 1
    for k in range(1, count):
        # multiply in place by (1 - q^k); downward keeps old values intact
        for i in range(count - 1, k - 1, -1):
            coeffs[i] -= coeffs[i - k]
    return coeffs


def convolve(a, b, count):
    """First ``count`` coefficients of the product of two dense integer
    polynomials given by coefficient lists."""
    out = [0] * count
    for i, ai in enumerate(a):
        if i >= count or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= count:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def is_nonzero_square_mod(a, p):
    """True when a is a nonzero quadratic residue mod the odd prime p."""
    a %= p
    if a == 0:
        return False
    return any(x * x % p == a for x in range(1, p))


def reference_evaluate(series, tau):
    """``evaluate``'s term loop as first written, every float expression
    inline, with the same tail bound: (value, bound, terms summed).  The
    library loop hoists its invariants and must round exactly as this does."""
    v = tau.imag
    u, off, step = Fraction(tau.real), series.offset, series.step
    den = u.denominator * off.denominator * step.denominator
    a = u.numerator * off.numerator * step.denominator % den
    b = u.numerator * step.numerator * off.denominator % den
    off_f = float(series.offset)
    step_f = float(series.step)
    two_pi = 2.0 * math.pi
    total = 0j
    absmass = 0.0
    terms = 0
    for k, _, cf in series.support():
        decay = math.exp(-two_pi * v * (off_f + k * step_f))
        if decay == 0.0:
            break
        phase = (a + k * b) % den / den
        total += cf * decay * cmath.exp(2j * math.pi * phase)
        absmass += abs(cf) * decay
        terms += 1
    bound = _series_tail_bound(series, v, series.precision)
    bound += 64.0 * 2.220446049250313e-16 * (absmass + abs(total))
    return total, bound, terms
