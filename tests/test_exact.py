import cmath
import math
import random
from fractions import Fraction

import pytest

from cuspdim import (
    UnitPhase,
    divisors,
    factorize,
    kronecker,
)
from cuspdim.exact import (
    _MR_LIMIT, _TRIAL_BUDGET, FactorizationBudgetError, _dedekind_12c, _is_prime
)
from helpers import is_nonzero_square_mod, primes


def test_factorize_small():
    assert factorize(1).factors == {}
    assert factorize(12).factors == {2: 2, 3: 1}
    assert factorize(360).factors == {2: 3, 3: 2, 5: 1}
    assert factorize(97).factors == {97: 1}
    assert factorize(2**20).factors == {2: 20}


def test_factorize_roundtrip_random():
    rng = random.Random(1)
    # Below 10^6 trial division alone decides; above it the cofactor may be split.
    for bound in (10**6, 10**7):
        for _ in range(200):
            n = rng.randint(1, bound)
            prod = 1
            for p, e in factorize(n).factors.items():
                assert all(p % q for q in range(2, int(p**0.5) + 1))
                prod *= p**e
            assert prod == n


P13, Q13 = 1000000000039, 1000000000061


@pytest.mark.parametrize(
    "n, expected",
    [
        # strong pseudoprimes: to bases 2, 3, 5, 7 and to every prime base up to 23
        (3215031751, {151: 1, 751: 1, 28351: 1}),
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
        # Carmichael numbers
        (561, {3: 1, 11: 1, 17: 1}),
        (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
        # rho on a prime power
        (1000003**2, {1000003: 2}),
        (1000003**3, {1000003: 3}),
        # two 13-digit primes: out of reach of trial division
        (P13 * Q13, {P13: 1, Q13: 1}),
        (2**5 * 1009 * P13 * Q13, {2: 5, 1009: 1, P13: 1, Q13: 1}),
        # above psi_13 after the trial bound: trial division goes on
        (7 * 1009**9, {7: 1, 1009: 9}),
    ],
)
def test_factorize_hard_cases(n, expected):
    f = factorize(n)
    assert f.factors == expected
    assert list(f.factors) == sorted(expected)


def test_miller_rabin_refuses_psi13_and_above():
    # The cases above that pass psi_13 reach it only after the trial bound.
    assert 7 * 1009**9 > 1009 * P13 * Q13 >= _MR_LIMIT > P13 * Q13
    with pytest.raises(ArithmeticError):
        _is_prime(_MR_LIMIT)


def test_factorize_refuses_beyond_trial_budget():
    # At or above psi_13 trial division runs to the budget and no further:
    # a factor just below it is still found, and then rho takes over.
    assert 999983 * P13 * Q13 >= _MR_LIMIT and 999983 < _TRIAL_BUDGET < 1000003
    assert factorize(999983 * P13 * Q13).factors == {999983: 1, P13: 1, Q13: 1}
    # A refused number is bad input, not an internal fault.
    assert issubclass(FactorizationBudgetError, ValueError)
    assert not issubclass(FactorizationBudgetError, ArithmeticError)
    for n in (6 * _MR_LIMIT, 1000003 * _MR_LIMIT):
        with pytest.raises(FactorizationBudgetError, match=f"cannot factor {n}"):
            factorize(n)


def test_is_prime_matches_sieve():
    sieve = set(primes(10**5))
    assert [n for n in range(10**5) if _is_prime(n)] == sorted(sieve)


def test_factorize_rejects_nonpositive():
    # bool, float and str are refused too, also after the int entry is cached.
    factorize(1)
    factorize(12)
    for bad in (0, -12, True, 12.0, 12.5, "12"):
        with pytest.raises(ValueError):
            factorize(bad)


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(23) == (1, 23)
    assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
    for bad in (0, True, 12.0, 12.5, "12"):
        with pytest.raises(ValueError):
            divisors(bad)


def test_divisor_count_matches_factorization():
    for n in range(1, 500):
        expected = 1
        for e in factorize(n).factors.values():
            expected *= e + 1
        assert len(divisors(n)) == expected


def test_kronecker_fixed_values():
    assert kronecker(2, 15) == 1
    assert kronecker(5, 1) == 1
    assert kronecker(6, 3) == 0
    assert kronecker(3, 2) == -1
    assert kronecker(7, 2) == 1
    assert kronecker(-4, 3) == -1
    assert kronecker(-4, 5) == 1
    assert kronecker(-3, 7) == 1
    assert kronecker(-3, 5) == -1
    # degenerate second argument: unit detection
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0


def test_kronecker_euler_criterion():
    for p in primes(200):
        if p == 2:
            continue
        for a in range(1, p):
            expected = 1 if is_nonzero_square_mod(a, p) else -1
            assert kronecker(a, p) == expected
            assert pow(a, (p - 1) // 2, p) == expected % p


def test_kronecker_multiplicative():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        n = rng.randint(1, 60)
        m = rng.randint(1, 60)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def dedekind_sum(d, c):
    # s(d, c) from the library's integer kernel 12 c s(d, c).
    return Fraction(_dedekind_12c(d, c), 12 * c)


def _dedekind_sum_direct(d, c):
    # ((m/c)) = (2m - c)/2c for 0 < m < c, and c never divides m*d here,
    # so the defining sum collapses to an integer accumulation over 4c^2.
    total = 0
    for m in range(1, c):
        r = m * d % c
        total += (2 * m - c) * (2 * r - c)
    return Fraction(total, 4 * c * c)


def test_dedekind_sum_values():
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)
    assert dedekind_sum(3, 5) == 0
    assert dedekind_sum(1, 5) == Fraction(1, 5)
    assert dedekind_sum(1, 6) == Fraction(5, 18)


def test_dedekind_sum_matches_direct_sum():
    for c in range(1, 300):
        for d in range(c):
            if math.gcd(d, c) == 1:
                assert dedekind_sum(d, c) == _dedekind_sum_direct(d, c), (d, c)
    rng = random.Random(7)
    for _ in range(20):
        c = rng.randint(1, 10**5)
        d = rng.randrange(-c, 2 * c)
        if math.gcd(d, c) == 1:
            assert dedekind_sum(d, c) == _dedekind_sum_direct(d % c, c), (d, c)


def test_kronecker_validation():
    # Both arguments are integers of any sign, and True is not 1.
    for bad in (1.5, 1.0, 0.0, True, False, "1", Fraction(1)):
        with pytest.raises(ValueError):
            kronecker(bad, 0)
        with pytest.raises(ValueError):
            kronecker(bad, 15)
        with pytest.raises(ValueError):
            kronecker(1, bad)


def test_dedekind_reciprocity():
    # s(d,c) + s(c,d) = -1/4 + (d/c + c/d + 1/(c d)) / 12 for coprime d < c
    rng = random.Random(4)
    seen = 0
    while seen < 150:
        c = rng.randint(2, 200)
        d = rng.randint(1, c - 1)
        if math.gcd(c, d) != 1:
            continue
        seen += 1
        lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
        rhs = Fraction(-1, 4) + (Fraction(d, c) + Fraction(c, d) + Fraction(1, c * d)) / 12
        assert lhs == rhs


def test_unit_phase_arithmetic():
    third = UnitPhase(Fraction(1, 3))
    half = UnitPhase(Fraction(1, 2))
    assert (third * half).turns == Fraction(5, 6)
    assert UnitPhase(Fraction(7, 6)).turns == Fraction(1, 6)
    assert UnitPhase(Fraction(-1, 24)).turns == Fraction(23, 24)
    assert UnitPhase(Fraction(48, 24)).turns == 0
    for whole in (2, -1, 0):
        assert type(UnitPhase(whole).turns) is Fraction and UnitPhase(whole).is_one
    # Floats are converted, then reduced.
    assert UnitPhase(0.75).turns == Fraction(3, 4) and UnitPhase(-2.5).turns == Fraction(1, 2)
    assert (third**3).is_one
    assert (third * third.inverse()).is_one
    assert str(UnitPhase(Fraction(3, 8))) == "e(3/8)"


def test_unit_phase_order():
    rng = random.Random(5)
    for _ in range(100):
        p = UnitPhase(Fraction(rng.randint(-40, 40), rng.randint(1, 24)))
        k = p.turns.denominator
        assert k >= 1
        assert (p**k).is_one
        # no smaller positive power is trivial
        for j in range(1, k):
            assert not (p**j).is_one


def test_unit_phase_to_complex():
    assert abs(UnitPhase(Fraction(1, 4)).to_complex() - 1j) < 1e-15
    assert abs(UnitPhase(Fraction(1, 2)).to_complex() + 1) < 1e-15
    rng = random.Random(6)
    for _ in range(50):
        p = UnitPhase(Fraction(rng.randint(-20, 20), rng.randint(1, 48)))
        z = p.to_complex()
        assert abs(abs(z) - 1.0) < 1e-15
        assert z == cmath.exp(2j * math.pi * float(p.turns))
