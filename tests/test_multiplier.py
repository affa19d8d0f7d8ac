import cmath
import math
import random
from fractions import Fraction

import pytest

from cuspdim import (
    AutomorphyContext,
    EtaQuotient,
    FracQSeries,
    PrecisionError,
    UnimodularMatrix,
    UnitPhase,
    divisors,
    eta_cubed,
    eta_expansion,
    eta_multiplier,
    eta_quotient_expansion,
    evaluate,
    gamma0_character,
    j_factor,
    random_level_element,
    random_unimodular,
    unary_theta,
    verify_cocycle,
    verify_transformation,
)
from cuspdim.exact import PHASE_ONE, _dedekind_12c
from cuspdim.verify import _build_row

M = UnimodularMatrix
HALF = Fraction(1, 2)


def test_j_factor_values():
    ident = M.identity()
    assert j_factor(ident, 0.3 + 2j, HALF) == 1
    # -Id lands on the negative real axis: principal Log gives e^(-pi i w)
    assert abs(j_factor(-ident, 1j, HALF) - (-1j)) < 1e-15
    assert abs(j_factor(M.inversion(), 1j, 2) - (-1)) < 1e-15
    assert abs(j_factor(M.inversion(), 1j, HALF) - cmath.exp(-1j * math.pi / 4)) < 1e-15


def test_j_factor_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        j_factor(M.identity(), 1 - 0.5j, HALF)


def test_j_factor_weight_additivity():
    rng = random.Random(20)
    for _ in range(50):
        g = random_unimodular(rng, 20)
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2))
        a = j_factor(g, tau, HALF)
        b = j_factor(g, tau, 1)
        assert abs(a * a - b) < 1e-12 * abs(b)


def test_docstring_conventions_of_eta_law_and_j_factor():
    # eta(gamma tau) = conj(eps(gamma)) * (c tau + d)^(1/2) * eta(tau) with
    # the principal root, and j_factor is (c tau + d) to minus the weight;
    # eta here is the bare product, not the library's series.
    def eta(t):
        q, value = cmath.exp(2j * math.pi * t), cmath.exp(2j * math.pi * t / 24)
        for k in range(1, 1000):  # Im(gamma tau) is as small as 0.022 here
            value *= 1 - q**k
        return value

    tau = 0.13 + 0.9j
    for g in (M(1, 0, 1, 1), M(2, 1, 5, 3), M(-3, 1, -7, 2), M(0, -1, 1, 0)):
        root = cmath.sqrt(g.c * tau + g.d)
        eps = eta_multiplier(g).to_complex()
        assert abs(eta(g.act(tau)) - eps.conjugate() * root * eta(tau)) < 1e-12, g
        assert abs(eta(g.act(tau)) - eps * root * eta(tau)) > 0.1, g
        for w in (HALF, 1, Fraction(3, 2), 2):
            assert abs(j_factor(g, tau, w) - root ** (-2 * float(w))) < 1e-12, (g, w)


def test_eta_multiplier_values():
    assert eta_multiplier(M.translation(1)) == UnitPhase(Fraction(-1, 24))
    assert eta_multiplier(M.translation(-5)) == UnitPhase(Fraction(5, 24))
    assert eta_multiplier(M.inversion()) == UnitPhase(Fraction(1, 8))
    assert eta_multiplier(-M.identity()) == UnitPhase(Fraction(1, 4))
    assert eta_multiplier(M(1, 0, 1, 1)) == UnitPhase(Fraction(1, 24))
    assert eta_multiplier(M(1, 0, 3, 1)) == UnitPhase(Fraction(1, 8))
    assert eta_multiplier(M(2, 1, 5, 3)) == UnitPhase(Fraction(1, 12))


def _reference_eta_turns(g):
    # The Fraction formula the integer kernel replaced, unreduced mod 1.
    if g.c < 0:
        return _reference_eta_turns(-g) - Fraction(1, 4)
    if g.c == 0 and g.d < 0:
        return _reference_eta_turns(-g) + Fraction(1, 4)
    if g.c == 0:
        return Fraction(-g.b, 24)
    c, d = g.c, g.d
    return Fraction(-(g.a + d), 24 * c) + Fraction(_dedekind_12c(d, c), 12 * c) / 2 + Fraction(1, 8)


def test_eta_multiplier_matches_fraction_formula():
    checked = 0
    for c in range(-40, 41):
        for d in range(-40, 41):
            if math.gcd(c, d) != 1:
                continue
            for b in (-7, 0, 5) if c == 0 else (0,):
                g = _build_row(c, d, b)
                assert eta_multiplier(g).turns == _reference_eta_turns(g) % 1, g
                checked += 1
    assert checked == 3924


def test_character_matches_fraction_formula():
    rng = random.Random(27)
    for n in range(1, 61):
        for h in divisors(math.gcd(n, 12)):
            for _ in range(20):
                g = random_level_element(rng, n)
                assert gamma0_character(n, h, g) == UnitPhase(Fraction(-g.c * g.d, n * h))


def test_eta_multiplier_is_24th_root():
    rng = random.Random(21)
    for _ in range(300):
        g = random_unimodular(rng, 50)
        assert (eta_multiplier(g) ** 24).is_one


def test_eta_multiplier_negation_consistency():
    # negating a matrix multiplies the factor by j(-Id)^w on either side,
    # so eps(-g) / eps(g) is always a quarter turn
    rng = random.Random(22)
    for _ in range(200):
        g = random_unimodular(rng, 50)
        ratio = eta_multiplier(-g) * eta_multiplier(g).inverse()
        assert ratio.turns in (Fraction(1, 4), Fraction(3, 4))


def test_character_values():
    assert gamma0_character(6, 2, M(1, 0, 6, 1)) == UnitPhase(HALF)
    assert gamma0_character(6, 2, M(1, 0, 12, 1)).is_one
    assert gamma0_character(4, 1, M(1, 0, 4, 1)).is_one
    assert gamma0_character(1, 1, M.inversion()).is_one


def test_trivial_character_value_is_the_shared_identity():
    # Every kernel element, and every element with c*d = 0 mod n*h, gets the
    # shared identity phase; the others are built and reduced.
    rng = random.Random(28)
    for n, h in ((1, 1), (6, 2), (12, 12), (23, 1)):
        for _ in range(50):
            assert gamma0_character(n, h, random_level_element(rng, n * h)) is PHASE_ONE
    assert gamma0_character(6, 2, M(1, 0, 6, 1)) is not PHASE_ONE
    assert gamma0_character(6, 2, M(1, 0, 6, 1)) * UnitPhase(HALF) == PHASE_ONE
    assert gamma0_character(4, 1, M(1, 1, 4, 5)) is PHASE_ONE


def test_character_validation():
    with pytest.raises(ValueError):
        gamma0_character(6, 5, M(1, 0, 6, 1))  # 5 does not divide gcd(6, 12)
    with pytest.raises(ValueError):
        gamma0_character(6, 2, M.inversion())  # not a level-6 element
    with pytest.raises(ValueError):
        gamma0_character(0, 1, M.identity())


def test_character_is_homomorphism():
    rng = random.Random(23)
    for n, h in ((6, 2), (12, 12), (23, 1), (36, 3), (48, 4)):
        pool = []
        while len(pool) < 20:
            c = n * rng.randint(-3, 3)
            d = rng.randint(-40, 40)
            if math.gcd(c, d) == 1:
                a = 0 if abs(c) <= 1 else pow(d, -1, abs(c))
                b = (a * d - 1) // c if c else rng.randint(-5, 5)
                if c == 0:
                    pool.append(M(d, b, 0, d))
                else:
                    pool.append(M(a, b, c, d))
        for _ in range(100):
            g1, g2 = rng.choice(pool), rng.choice(pool)
            lhs = gamma0_character(n, h, g1) * gamma0_character(n, h, g2)
            assert lhs == gamma0_character(n, h, g1 * g2)


def test_automorphy_context_psi():
    ctx = AutomorphyContext(weight=Fraction(3, 2), level=6, eta_power=3, character_h=2)
    # eps((1,0;6,1)) = e(1/4); cubed gives e(3/4); character adds e(-1/2)
    assert eta_multiplier(M(1, 0, 6, 1)) == UnitPhase(Fraction(1, 4))
    assert ctx.psi(M(1, 0, 6, 1)) == UnitPhase(Fraction(1, 4))
    plain = AutomorphyContext(weight=2)
    assert plain.psi(M(1, 0, 6, 1)).is_one


def test_automorphy_context_validation():
    with pytest.raises(ValueError):
        AutomorphyContext(weight=HALF, level=5, character_h=2)
    with pytest.raises(ValueError):
        AutomorphyContext(weight=HALF, level=0)


def test_cocycle_closes_for_eta_system():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    rng = random.Random(24)
    mats = [random_unimodular(rng, 30) for _ in range(12)]
    mats += [M.identity(), -M.identity(), M.inversion(), M.translation(1)]
    for g1 in mats:
        for g2 in mats:
            check = verify_cocycle(ctx, g1, g2, 0.3 + 1.1j)
            assert check.residual < 1e-12
            assert check.consistency_residual < 1e-15


def test_cocycle_closes_for_integer_weight():
    # at integer weight the trivial multiplier system is already consistent
    ctx = AutomorphyContext(weight=2)
    rng = random.Random(25)
    for _ in range(50):
        g1 = random_unimodular(rng, 30)
        g2 = random_unimodular(rng, 30)
        check = verify_cocycle(ctx, g1, g2, 1j)
        assert check.residual < 1e-12
        assert check.consistency_residual < 1e-15


def test_transformation_identity_matrix():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    check = verify_transformation(eta_expansion(64), ctx, M.identity(), 1.5j)
    assert check.residual == 0.0
    assert check.ok


def test_transformation_eta_fixed_series():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    check = verify_transformation(
        eta_expansion(200), ctx, M.inversion(), Fraction(1, 3) + 1j
    )
    assert check.ok
    assert check.residual < 1e-12
    assert check.precision == 200


def test_transformation_eta_negative_c():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    check = verify_transformation(eta_expansion(200), ctx, M(3, -1, -5, 2), 0.2 + 0.9j)
    assert check.ok
    assert check.residual < 1e-12


def test_transformation_eta_cubed():
    ctx = AutomorphyContext(weight=Fraction(3, 2), eta_power=3)
    for gamma in (M.translation(1), M.inversion(), M(2, 1, 5, 3)):
        check = verify_transformation(eta_cubed, ctx, gamma, 0.1 + 0.8j)
        assert check.ok
        assert check.residual < 1e-11


def test_transformation_discriminant_weight_12():
    # eta^24 transforms with trivial multiplier at weight 12
    def series(precision):
        return eta_quotient_expansion(EtaQuotient(1, {1: 24}), precision)

    ctx = AutomorphyContext(weight=12)
    check = verify_transformation(series, ctx, M.inversion(), 0.2 + 0.9j, 1e-6)
    assert check.ok
    assert check.residual < 1e-8


def test_transformation_random_family():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    rng = random.Random(26)
    for _ in range(25):
        gamma = random_unimodular(rng, 50)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        check = verify_transformation(eta_expansion, ctx, gamma, tau)
        assert check.ok, (gamma, tau, check)


def test_transformation_precision_failure_paths():
    ctx = AutomorphyContext(weight=HALF, eta_power=1)
    # fixed series too short for a certified comparison low on the half-plane
    with pytest.raises(PrecisionError):
        verify_transformation(eta_expansion(16), ctx, M.inversion(), 0.02 + 0.05j)
    # series family without a growth certificate cannot be certified at all
    with pytest.raises(PrecisionError):
        verify_transformation(
            lambda p: eta_expansion(p).inverse(), ctx, M.inversion(), 1j
        )
    # an unbounded tail near the real axis, fixed or raised by doubling
    def delta(precision):
        return eta_quotient_expansion(EtaQuotient(1, {1: 24}), precision)

    for series in (delta(100), delta):
        with pytest.raises(PrecisionError):
            verify_transformation(
                series, AutomorphyContext(weight=12), M.inversion(), complex(0.1, 1e-12)
            )
    for tau in (1 - 1j, complex(math.nan, 1.0), complex(0.0, math.nan), complex(math.inf, 1.0),
                complex(0.0, math.inf)):
        with pytest.raises(ValueError):
            verify_transformation(eta_expansion(64), ctx, M.inversion(), tau)
        with pytest.raises(ValueError):
            j_factor(M.inversion(), tau, HALF)


def test_terms_past_float_range_raise_precision_error():
    # q^-1000 at Im(tau) = 1 is e^(2000 pi), and 10^400 q^0 is past float
    # range by itself: no value can be reported, fixed or raised by doubling.
    def low_offset(precision):
        return FracQSeries(-1000, 1, [1] + [0] * (precision - 1), (1.0, 0.0))

    for series in (low_offset(3), FracQSeries(0, 1, [10**400], (1.0, 0.0))):
        with pytest.raises(PrecisionError, match="past float range"):
            evaluate(series, 1j)
        with pytest.raises(PrecisionError, match="past float range"):
            verify_transformation(series, AutomorphyContext(weight=12), M.inversion(), 1j)
    with pytest.raises(PrecisionError):
        verify_transformation(low_offset, AutomorphyContext(weight=12), M.inversion(), 1j)


def test_bool_is_not_an_integer_argument():
    # bool subclasses int; True must not pass as 1, nor hit a cached entry of 1.
    eta_expansion(1)
    eta_cubed(1)
    unary_theta(2, 1, 1)
    g = M(1, 0, 6, 1)
    for build in (
        lambda: eta_expansion(True),
        lambda: eta_cubed(True),
        lambda: unary_theta(2, True, 5),
        lambda: unary_theta(True, 1, 5),
        lambda: unary_theta(2, 1, True),
        lambda: EtaQuotient(True, {1: 3}),
        lambda: EtaQuotient(6, {2: True}),
        lambda: EtaQuotient(6, {True: 3}),
        lambda: gamma0_character(6, True, g),
        lambda: gamma0_character(True, 1, g),
        lambda: AutomorphyContext(Fraction(3, 2), level=True),
        lambda: AutomorphyContext(Fraction(3, 2), level=6, character_h=True),
    ):
        with pytest.raises(ValueError):
            build()
