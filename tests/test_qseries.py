import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from cuspdim import (
    EtaQuotient,
    FracQSeries,
    GridError,
    PrecisionError,
    cusps,
    eta_cubed,
    eta_expansion,
    eta_quotient_cusp_order,
    eta_quotient_expansion,
    evaluate,
    index,
    unary_theta,
)
from cuspdim import qseries
from cuspdim.cli import main
from helpers import convolve, eta_product_coefficients, reference_evaluate

ETA_AT_I = 0.7682254223260567  # Gamma(1/4) / (2 pi^(3/4))


def test_construction_validation():
    with pytest.raises(ValueError):
        FracQSeries(0, 0, [1])
    with pytest.raises(ValueError):
        FracQSeries(0, -1, [1])
    with pytest.raises(ValueError):
        FracQSeries(0, 1, [])
    for growth in ((-1.0, 0.0), (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
                   (1.0, math.inf), (1.0,), (1.0, 0.0, 0.0), ("1", 0.0)):
        with pytest.raises(ValueError):
            FracQSeries(0, 1, [1], growth=growth)


def test_growth_past_float_range_is_refused():
    # An int or Fraction this large is below inf but has no float: the
    # constructor refuses it instead of letting float() overflow.
    huge = 10**400
    for growth in ((huge, 0), (0, huge), (Fraction(huge, 3), 1.0)):
        with pytest.raises(ValueError, match="growth must be two finite numbers >= 0"):
            FracQSeries(0, 1, [1], growth=growth)
    assert FracQSeries(0, 1, [1], growth=(10**300, 0)).growth == (1e300, 0.0)


def test_eta_expansion_frozen():
    e = eta_expansion(8)
    assert e.offset == Fraction(1, 24)
    assert e.step == 1
    assert e.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert e.precision == 8


def test_eta_matches_product_oracle():
    depth = 150
    assert list(eta_expansion(depth).coeffs) == eta_product_coefficients(depth)


def test_eta_support_on_pentagonal_numbers():
    e = eta_expansion(1000)
    expected = set()
    j = 0
    while True:
        added = False
        for jj in (j, -j) if j else (0,):
            g = jj * (3 * jj - 1) // 2
            if g < 1000:
                expected.add(g)
                added = True
        if not added:
            break
        j += 1
    assert {k for k, _, _ in e.support()} == expected
    assert all(c in (-1, 1) for _, c, _ in e.support())


def test_coefficient_lookup():
    e = eta_expansion(8)
    assert e.coefficient(Fraction(1, 24)) == 1
    assert e.coefficient(Fraction(1, 24) + 5) == 1
    assert e.coefficient(Fraction(1, 24) + 3) == 0
    # off-grid and below-offset exponents are structurally zero
    assert e.coefficient(Fraction(1, 3)) == 0
    assert e.coefficient(0) == 0
    assert e.coefficient(Fraction(1, 24) - 1) == 0
    # on-grid but beyond the retained range is unknown
    with pytest.raises(PrecisionError):
        e.coefficient(Fraction(1, 24) + 8)


def test_exponent_and_truncate():
    e = eta_expansion(10)
    assert e.exponent(0) == Fraction(1, 24)
    assert e.exponent(7) == Fraction(1, 24) + 7
    t = e.truncate(4)
    assert t.coeffs == e.coeffs[:4]
    assert t.offset == e.offset
    with pytest.raises(ValueError):
        e.truncate(0)
    with pytest.raises(ValueError):
        e.truncate(11)


def test_unary_theta_frozen():
    t21 = unary_theta(2, 1, 10)
    assert t21.offset == Fraction(1, 8)
    assert t21.coeffs == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0)
    t31 = unary_theta(3, 1, 8)
    assert t31.offset == Fraction(1, 12)
    assert t31.coeffs[0] == 1
    t32 = unary_theta(3, 2, 8)
    assert t32.offset == Fraction(1, 3)
    assert t32.coeffs[0] == 2
    assert t32.coeffs[1] == -4


def test_unary_theta_coefficient_law():
    # coefficient 2*ell*m + r sits at index m*(ell*m + r), everything else 0
    for ell, r in ((2, 1), (3, 1), (3, 2), (5, 4)):
        series = unary_theta(ell, r, 400)
        expected = {}
        m = 0
        while True:
            placed = False
            for mm in (m, -m) if m else (0,):
                k = mm * (ell * mm + r)
                if 0 <= k < 400:
                    expected[k] = 2 * ell * mm + r
                    placed = True
            if not placed and m:
                break
            m += 1
        for k, c in enumerate(series.coeffs):
            assert c == expected.get(k, 0)


def test_unary_theta_validation():
    with pytest.raises(ValueError):
        unary_theta(1, 0, 10)
    with pytest.raises(ValueError):
        unary_theta(3, 0, 10)
    with pytest.raises(ValueError):
        unary_theta(3, 3, 10)
    with pytest.raises(ValueError):
        unary_theta(2, 1, 0)


def test_eta_cubed_routes_agree():
    depth = 200
    built = eta_cubed(depth)
    assert built == unary_theta(2, 1, depth)
    cube = eta_expansion(depth) ** 3
    assert cube.offset == built.offset == Fraction(1, 8)
    assert cube.coeffs[:depth] == built.coeffs
    # fully independent route: cube the brute-force product expansion
    raw = eta_product_coefficients(depth)
    raw_sq = convolve(raw, raw, depth)
    raw_cubed = convolve(raw_sq, raw, depth)
    assert list(built.coeffs) == raw_cubed


def test_addition_aligns_grids():
    a = FracQSeries(0, 1, [1, 2, 3])
    b = FracQSeries(0, Fraction(1, 2), [5, 0, 7])
    s = a + b
    assert s.step == Fraction(1, 2)
    assert s.offset == 0
    assert s.coeffs == (6, 0, 9)


def test_addition_incompatible_offsets():
    # An internal fault, not a usage error (the CLI turns ValueError into exit 2).
    assert issubclass(GridError, ArithmeticError) and not issubclass(GridError, ValueError)
    with pytest.raises(GridError):
        eta_expansion(24) + eta_cubed(24)  # offsets 1/24 and 1/8 on unit steps


def test_subtraction_and_negation():
    e = eta_expansion(20)
    z = e - e
    assert all(c == 0 for c in z.coeffs)
    assert (-e).coeffs == tuple(-c for c in e.coeffs)


def test_scalar_multiplication():
    e = eta_expansion(10)
    d = 2 * e
    assert d.coeffs == tuple(2 * c for c in e.coeffs)
    h = e * Fraction(1, 3)
    assert h.coeffs[0] == Fraction(1, 3)


def test_multiplication_mixed_steps():
    a = FracQSeries(0, 1, [1, 1])
    b = FracQSeries(0, Fraction(1, 2), [1, -1])
    p = a * b
    assert p.step == Fraction(1, 2)
    assert p.offset == 0
    assert p.coeffs == (1, -1)


def test_multiplication_truncation_rule():
    # product of two series is exact out to the shorter known span
    a = eta_expansion(40)
    b = eta_expansion(25)
    p = a * b
    q = (eta_expansion(60) ** 2).truncate(p.precision)
    assert p == q


def test_ring_laws_randomized():
    # integer offsets so every offset difference is a multiple of the
    # common step and addition never hits the strict-alignment error
    rng = random.Random(14)
    for _ in range(40):
        series = [
            FracQSeries(
                rng.randint(0, 3),
                Fraction(1, rng.choice((1, 2))),
                [rng.randint(-9, 9) for _ in range(rng.randint(3, 10))],
            )
            for _ in range(3)
        ]
        a, b, c = series
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_distributivity_on_common_grid():
    rng = random.Random(15)

    def make():
        return FracQSeries(0, 1, [rng.randint(-9, 9) for _ in range(8)])

    for _ in range(40):
        a, b, c = make(), make(), make()
        assert a * (b + c) == a * b + a * c


def test_power_and_inverse():
    e = eta_expansion(30)
    assert e**1 == e
    assert e**2 == e * e
    one = e**0
    assert one.offset == 0
    assert one.coeffs[0] == 1
    assert all(c == 0 for c in one.coeffs[1:])
    inv = e.inverse()
    assert inv.offset == Fraction(-1, 24)
    assert inv.growth is None
    prod = inv * e
    assert prod.offset == 0
    assert prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:])
    assert e**-1 == inv


# -- kernel references ---------------------------------------------------------
#
# Reference loops for the product, inverse and power kernels: every pair of
# nonzero terms multiplied one by one, the reciprocal summed over every index,
# and a power as k - 1 products, a negative one as products of the reciprocal.
# The kernels square positive powers and take a negative one, the reciprocal
# among them, in one pass of the power recurrence.  They must give the same
# offset, step, coefficients and growth.


def reference_mul(x, y):
    step = qseries._frac_gcd(x.step, y.step)
    m1 = int(x.step / step)
    m2 = int(y.step / step)
    count = int(min(x.precision * x.step, y.precision * y.step) / step)
    coeffs = [0] * count
    y_terms = [(j, cj) for j, cj in enumerate(y.coeffs) if cj]
    for i, ci in enumerate(x.coeffs):
        base = i * m1
        if base >= count:
            break
        if not ci:
            continue
        for j, cj in y_terms:
            idx = base + j * m2
            if idx >= count:
                break
            coeffs[idx] += ci * cj
    if x.growth is not None and y.growth is not None:
        growth = (x.growth[0] * y.growth[0], x.growth[1] + y.growth[1] + 1.0)
    else:
        growth = None
    return FracQSeries(x.offset + y.offset, step, coeffs, growth)


def reference_inverse(x):
    c0 = x.coeffs[0]
    inv0 = c0 if c0 in (1, -1) else Fraction(1) / c0
    out = [inv0] + [0] * (x.precision - 1)
    for k in range(1, x.precision):
        acc = 0
        for i in range(1, k + 1):
            ci = x.coeffs[i]
            if ci:
                acc += ci * out[k - i]
        out[k] = -inv0 * acc
    return FracQSeries(-x.offset, x.step, out, None)


def reference_pow(x, k):
    if k < 0:
        return reference_pow(reference_inverse(x), -k)
    if k == 0:
        return FracQSeries(0, x.step, (1,) + (0,) * (x.precision - 1), (1.0, 0.0))
    result = x
    for _ in range(k - 1):
        result = reference_mul(result, x)
    return result


def assert_same_series(got, want, *operands):
    assert (got.offset, got.step, got.growth) == (want.offset, want.step, want.growth)
    assert got.coeffs == want.coeffs
    # Integer operands give int coefficients; a Fraction operand may give
    # Fraction zeros where the reference loop left int ones.
    if operands and all(type(c) is int for x in operands for c in x.coeffs):
        assert all(type(c) is int for c in got.coeffs)


def assert_reference_types(got, want):
    # Term by term the reference loop's type, but for a Fraction zero where
    # no nonzero pair met in the reference's products and it left an int one.
    for g, w in zip(got.coeffs, want.coeffs):
        assert type(g) is type(w) or (type(w) is int and g == 0), (g, w)


def random_series(rng, fractions=False):
    step = Fraction(1, rng.choice((1, 2, 3)))
    offset = Fraction(rng.randint(-30, 30), rng.choice((1, 8, 24)))
    magnitude = rng.choice((1, 9, 2**31, 3 * 2**30, 10**30))
    density = rng.choice((0.05, 0.3, 1.0))
    coeffs = [
        rng.randint(-magnitude, magnitude) if rng.random() < density else 0
        for _ in range(rng.randint(1, 70))
    ]
    if fractions:
        coeffs = [Fraction(c, rng.choice((1, 2, 3, 4, 9, 25))) for c in coeffs]
    growth = None if rng.random() < 0.2 else (rng.uniform(0, 9), rng.uniform(0, 3))
    return FracQSeries(offset, step, coeffs, growth)


def test_products_match_reference_loop():
    rng = random.Random(18)
    for trial in range(300):
        x = random_series(rng, fractions=trial % 5 == 0)
        y = random_series(rng, fractions=trial % 7 == 0)
        assert_same_series(x * y, reference_mul(x, y), x, y)


def test_product_edge_operands():
    e = eta_expansion(90)
    zero = FracQSeries(Fraction(1, 3), Fraction(1, 2), [0] * 40, (1.0, 0.0))
    # The coarser operand spans less, so the finer one's tail is dropped.
    coarse = FracQSeries(Fraction(-1, 8), 1, [(-1) ** k * (k + 1) for k in range(30)])
    fine = FracQSeries(Fraction(5, 3), Fraction(1, 3), [k % 7 - 3 for k in range(200)])
    halves = FracQSeries(0, 1, [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)] * 10)
    thirds = FracQSeries(0, Fraction(1, 3), [Fraction(k - 20, 9) for k in range(60)])
    big = FracQSeries(0, 1, [(-1) ** k * (10**30 + k) for k in range(50)], (1e30, 0.0))
    for x, y in ((e, zero), (zero, zero), (coarse, fine), (fine, coarse), (e, big),
                 (big, big), (halves, thirds), (halves, e), (thirds, big), (e, e)):
        assert_same_series(x * y, reference_mul(x, y), x, y)
        assert_same_series(y * x, reference_mul(y, x), x, y)


def test_exact_kernels_take_coefficients_past_float_range():
    # 10^400 has no float; products, sums, inverses and the nonzero terms
    # read the exact coefficients only.
    big = FracQSeries(0, 1, [10**400, 1])
    e = eta_expansion(4)
    assert_same_series(big * e, reference_mul(big, e), big, e)
    assert_same_series(e * big, reference_mul(e, big), big, e)
    assert (big + big).coeffs == (2 * 10**400, 2)
    assert big._nonzero()[0] == (0, 10**400)
    assert FracQSeries(0, 1, [1, 10**400]).inverse().coeffs == (1, -(10**400))


@pytest.mark.parametrize("width", [8, 16, 32, 63, 64, 65, 72, 128, 129])
@pytest.mark.parametrize("sign", [1, -1])
# The ids name the kernel that the retired threshold of 8 pairs of nonzero
# terms per output term picked for each spacing: 16 pairs per term packed,
# about 8.3 sat at the tuned threshold, and about 1 ran term by term.  Every
# spacing now reaches the packed kernel, with zero lanes between the terms.
@pytest.mark.parametrize("spacing", [1, 2, 16], ids=["kronecker", "chosen", "schoolbook"])
def test_product_lanes_at_their_bound(spacing, width, sign):
    # Sixteen equal terms times sixteen ones, each spacing apart, put 16 * c
    # in term 15 * spacing, exactly the lane bound max|a| * max|b| *
    # min(|a|, |b|).  At 2^(width-1) that needs one bit more than the
    # bound's bit length, on either side of the 8, 16, 32 and 64-bit lanes
    # and of a whole byte.
    def spaced(c):
        coeffs = [0] * (15 * spacing + 1)
        coeffs[::spacing] = [c] * 16
        return FracQSeries(0, 1, coeffs)

    for value in (2 ** (width - 1) - 16, 2 ** (width - 1), 2**width - 16):
        x = spaced(sign * value // 16)
        ones = spaced(1)
        product = x * ones
        assert product.coeffs[15 * spacing] == sign * (value // 16) * 16
        assert_same_series(product, reference_mul(x, ones), x)
        assert_same_series(x * x, reference_mul(x, x), x)


def test_inverse_matches_reference_loop():
    rng = random.Random(19)
    cases = [eta_expansion(300), eta_expansion(40) * 3, FracQSeries(0, 1, [2, 1, 0, 0])]
    # The reciprocal sums the terms of one coefficient value together: values that repeat,
    # an int beside an equal Fraction, a gap that leaves no term live at k = 1, 1 and 2
    # terms, and eta at the sizes the benchmark and the CLI reach.
    third = Fraction(1, 3)
    for lead in (1, -1, 2, Fraction(2, 7)):
        for tail in ([3, 0, 3, -1, 3, -1, 0, 3], [third, 3, third, 0, -third, third, 3],
                     [1, Fraction(1), 1, Fraction(1), -1, Fraction(-1), 1],
                     [0, 0, 5, 5, 0, 5, -2, -2], [], [7]):
            cases.append(FracQSeries(Fraction(1, 24), 1, [lead, *tail]))
    cases += [eta_expansion(p) for p in (1, 2, 40, 100, 2000)]
    for _ in range(60):
        x = random_series(rng, fractions=rng.random() < 0.3)
        if x.coeffs[0] == 0:
            x = FracQSeries(x.offset, x.step, (rng.choice((-1, 1, 3)),) + x.coeffs[1:])
        cases.append(x)
    for x in cases:
        got, want = x.inverse(), reference_inverse(x)
        assert_same_series(got, want)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_partition_numbers_from_the_cli_match_a_coin_change_count(capsys):
    # 1/eta = q^(-1/24) sum p(n) q^n; p(n) counts the ways to make n from parts of any size.
    assert main(["qexp", "etaq", "1", "1:-1", "500"]) == 0
    head, coeffs = capsys.readouterr().out.splitlines()
    count = [1] + [0] * 499
    for part in range(1, 500):
        for n in range(part, 500):
            count[n] += count[n - part]
    assert head == "offset -1/24, step 1, 500 terms"
    assert [int(c) for c in coeffs.split(", ")] == count
    assert count[100] == 190569292


def test_powers_match_sequential_products():
    rng = random.Random(20)
    cases = [eta_expansion(64), FracQSeries(Fraction(1, 24), 2, eta_expansion(40).coeffs, (1.0, 0.0))]
    cases += [random_series(rng, fractions=k == 0) for k in range(4)]
    for x in cases:
        for k in range(-2, 8):
            if k < 0 and x.coeffs[0] == 0:
                continue
            # A negative power of an integer series may hold Fractions.
            operands = (x,) if k >= 0 else ()
            assert_same_series(x**k, reference_pow(x, k), *operands)


def test_negative_powers_of_fraction_and_non_unit_series():
    rng = random.Random(34)
    cases = [
        FracQSeries(0, 1, [2, 1, 0, 0, 0, 0]),
        FracQSeries(Fraction(1, 3), 1, [Fraction(2, 3), 0, Fraction(-1, 5), 1, 0, 7]),
        FracQSeries(0, 2, [1, 0, Fraction(1, 2)] + [0] * 9 + [3]),
        eta_expansion(40) * Fraction(1, 2),
        eta_expansion(40) * -1,
    ]
    for _ in range(40):
        x = random_series(rng, fractions=rng.random() < 0.5)
        lead = rng.choice((1, -1, 3, Fraction(2, 3), Fraction(-5, 2)))
        cases.append(FracQSeries(x.offset, x.step, (lead,) + x.coeffs[1:40], x.growth))
    kinds = set()
    for x in cases:
        for k in range(-5, 0):
            got, want = x**k, reference_pow(x, k)
            assert_same_series(got, want)
            assert_reference_types(got, want)
            kinds |= {type(c) for c in got.coeffs[1:]}
    assert kinds == {int, Fraction}


def test_power_recurrence_refuses_an_inexact_division():
    # Read in increasing index, (1 + q + q^2)^-2 is integral.  Read out of
    # order the support ends early, and term 3 sums 8, which no integral
    # power has: the division by 3 is refused, not floored.
    assert qseries._power_recurrence([(0, 1), (1, 1), (2, 1)], -2, 6) == [1, -2, 1, 2, -4, 2]
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        qseries._power_recurrence([(0, 1), (2, 1), (1, 1)], -2, 6)


@pytest.mark.parametrize("growth", [(1.0, 0.0), (1.0, 3.0), (1.0, 0.5), (1.0, 1e-300),
                                    (3.0, 0.0), (6 + 2 * math.sqrt(2), 0.5), (0.5, 2.0)])
def test_power_growth_is_the_loop_bit_for_bit(growth):
    # A0 = 1 with an integral alpha0 takes the closed form; the others loop.
    # Each must be the loop of k - 1 steps, run here alongside: at every k up
    # to 10^5 for the closed form, and at a sample of k for the loop itself.
    # Once the loop's A is inf (A0 > 1) the certificate is refused.
    closed = growth[0] == 1.0 and growth[1].is_integer()
    a, alpha = a0, alpha0 = growth
    for k in range(1, 10**5 + 1):
        if a == math.inf and (k % 9973 == 0 or k == 10**5):
            with pytest.raises(ValueError, match="overflows"):
                qseries._power_growth(growth, k)
        elif closed or k < 300 or k % 9973 == 0 or k == 10**5:
            assert qseries._power_growth(growth, k) == (a, alpha), k
        a, alpha = a * a0, alpha + alpha0 + 1.0


def test_power_growth_stops_where_the_certificate_overflows():
    # The theta growth (6 + 2 sqrt 2, 1/2) overflows A at k = 326, so
    # 10^12 is refused there, not after 10^12 steps of the loop.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="overflows"):
        unary_theta(2, 1, 4) ** 10**12
    assert time.perf_counter() - start < 1.0


def test_power_growth_past_float_integers_is_refused():
    # alpha = k (alpha0 + 1) - 1 is exact up to 2^53 and refused above it.
    assert qseries._power_growth((1.0, 0.0), 2**53 + 1) == (1.0, 2.0**53)
    assert qseries._power_growth((1.0, 3.0), 2**51) == (1.0, 2.0**53 - 1)
    for growth, k in (((1.0, 0.0), 2**53 + 2), ((1.0, 3.0), 2**51 + 1), ((1.0, 0.0), 10**100)):
        with pytest.raises(ValueError, match="too large"):
            qseries._power_growth(growth, k)
    with pytest.raises(ValueError, match="too large"):
        eta_expansion(4) ** (2**53 + 2)


@pytest.mark.parametrize("x", [3 * eta_expansion(64), unary_theta(2, 1, 64)])
def test_power_growth_is_the_sequential_products(x):
    # Squaring reaches A^k by other float products than k - 1 sequential
    # ones, and for the theta growth (6 + 2 sqrt 2, 1/2) they round
    # differently from k = 4 on; the certificate must still be the
    # sequential one, bit for bit.
    sequential = x**0
    for k in range(18):
        assert (x**k).growth == sequential.growth, k
        assert (x**k).coeffs == sequential.coeffs, k
        sequential = reference_mul(sequential, x) if k else x


def test_bool_is_not_an_exponent_or_precision():
    e = eta_expansion(10)
    for k in (True, False, 1.0):
        with pytest.raises(TypeError):
            e**k
    # Nor is it a scalar factor.
    for product in (lambda: e * True, lambda: True * e, lambda: e * False):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(ValueError):
        e.truncate(True)
    with pytest.raises(ValueError):
        e.truncate(2.0)


def test_inverse_requires_unit_leading_term():
    with pytest.raises(ValueError):
        FracQSeries(0, 1, [0, 1]).inverse()


def test_to_json_obj_frozen():
    assert eta_cubed(5).to_json_obj() == {
        "offset": "1/8",
        "step": "1",
        "coeffs": ["1", "-3", "0", "5", "0"],
    }


def test_eta_quotient_validation():
    with pytest.raises(ValueError):
        EtaQuotient(10, {3: 1})
    with pytest.raises(ValueError):
        EtaQuotient(0, {1: 1})
    with pytest.raises(ValueError):
        EtaQuotient(6, {2: Fraction(1, 2)})
    q = EtaQuotient(23, {1: 2, 23: 2})
    assert q.weight() == 2
    assert q.leading_exponent() == 2


def test_eta_quotient_expansion_level23():
    q = EtaQuotient(23, {1: 2, 23: 2})
    s = eta_quotient_expansion(q, 5)
    assert s.offset == 2
    assert s.step == 1
    assert s.coeffs == (1, -2, -1, 2, 1)


def test_eta_quotient_expansion_discriminant():
    s = eta_quotient_expansion(EtaQuotient(1, {1: 24}), 4)
    assert s.offset == 1
    assert s.coeffs == (1, -24, 252, -1472)


def test_eta_quotient_expansion_cross_scale():
    # eta(2 tau) * eta(3 tau) against a direct double-product expansion
    depth = 30
    s = eta_quotient_expansion(EtaQuotient(6, {2: 1, 3: 1}), depth)
    assert s.offset == Fraction(5, 24)
    assert s.step == 1
    raw = eta_product_coefficients(depth)
    a = [0] * depth
    b = [0] * depth
    for k, c in enumerate(raw):
        if 2 * k < depth:
            a[2 * k] = c
        if 3 * k < depth:
            b[3 * k] = c
    assert list(s.coeffs) == convolve(a, b, depth)


def test_eta_quotient_negative_exponent():
    s = eta_quotient_expansion(EtaQuotient(2, {1: -1}), 10)
    assert s.offset == Fraction(-1, 24)
    assert s.growth is None
    prod = s * eta_expansion(10)
    assert prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:])


# Each check of the expansion fires on a corrupted kernel: a factor's offset,
# a product that returns one lane short, and a leading pentagonal coefficient.


def test_eta_quotient_expansion_checks_offset(monkeypatch):
    real = qseries._eta_power

    def shifted(delta, r, count):
        lanes, offset, growth = real(delta, r, count)
        return lanes, offset + 1, growth

    monkeypatch.setattr(qseries, "_eta_power", shifted)
    with pytest.raises(ArithmeticError, match="offset"):
        eta_quotient_expansion(EtaQuotient(23, {1: 2, 23: 2}), 10)


def test_eta_quotient_expansion_checks_precision(monkeypatch):
    real = qseries._kronecker
    monkeypatch.setattr(qseries, "_kronecker", lambda a, b, count: real(a, b, count)[:-1])
    with pytest.raises(ArithmeticError, match="precision"):
        eta_quotient_expansion(EtaQuotient(23, {1: 2, 23: 2}), 10)


def test_eta_quotient_expansion_checks_leading_coefficient(monkeypatch):
    real = qseries._pentagonal_coeffs
    monkeypatch.setattr(qseries, "_pentagonal_coeffs", lambda count: [2] + real(count)[1:])
    for exponents in ({1: 2, 23: 2}, {23: 1}):
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            eta_quotient_expansion(EtaQuotient(23, exponents), 10)


def test_eta_quotient_zero_exponent_contributes_nothing():
    # The grid step is the gcd of the scales with a nonzero exponent; at 10
    # terms the scale 3 once cut eta(6 tau) short.
    for precision in (1, 4, 8, 10, 40):
        got = eta_quotient_expansion(EtaQuotient(12, {6: 1, 3: 0}), precision)
        want = eta_quotient_expansion(EtaQuotient(12, {6: 1}), precision)
        assert_same_series(got, want)
        assert got.step == 6 and got.precision == precision
    for exponents in ({}, {3: 0}, {1: 0, 6: 0, 12: 0}):
        one = eta_quotient_expansion(EtaQuotient(12, exponents), 5)
        assert (one.offset, one.step, one.coeffs, one.growth) == (0, 1, (1, 0, 0, 0, 0), (1.0, 0.0))


def reference_eta_quotient(quotient, precision):
    """The expansion as products of ``FracQSeries``: eta(delta tau)^r from
    ``eta_expansion`` by ``reference_pow``, multiplied in increasing scale by
    ``reference_mul``, each factor long enough for ``precision`` terms."""
    factors = [(d, r) for d, r in sorted(quotient.exponents.items()) if r]
    if not factors:
        return FracQSeries(0, 1, (1,) + (0,) * (precision - 1), (1.0, 0.0))
    span = precision * math.gcd(*[d for d, _ in factors])
    result = None
    for delta, r in factors:
        base = eta_expansion(-(-span // delta))
        factor = reference_pow(FracQSeries(Fraction(delta, 24), delta, base.coeffs, base.growth), r)
        result = factor if result is None else reference_mul(result, factor)
    return result.truncate(precision)


def test_eta_quotient_expansion_matches_reference_products():
    rng = random.Random(33)
    cases = [(EtaQuotient(12, {6: 1, 3: 0}), 10), (EtaQuotient(1, {1: -4}), 150),
             (EtaQuotient(60, {1: 24, 60: -1}), 61)]
    while len(cases) < 120:
        level = rng.randint(1, 60)
        divisors = [d for d in range(1, level + 1) if level % d == 0]
        scales = rng.sample(divisors, min(len(divisors), rng.randint(1, 3)))
        exponents = {d: rng.choice((0, rng.randint(-4, 24))) for d in scales}
        cases.append((EtaQuotient(level, exponents), rng.randint(1, 150)))
    for quotient, precision in cases:
        got = eta_quotient_expansion(quotient, precision)
        want = reference_eta_quotient(quotient, precision)
        assert_same_series(got, want)
        assert got.precision == precision
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_negative_eta_powers_match_reference_products():
    # One pass of the power recurrence against the reciprocal raised by
    # products, r = -1..-8: one factor, and factors spread onto a finer grid,
    # at 1, 2 and 100 lanes, with lanes below 2^63 and past 2^64.
    peaks = []
    for r in range(-8, 0):
        for level, exponents in ((1, {1: r}), (7, {7: r}), (6, {2: r, 3: 1}),
                                 (12, {3: r, 4: r + 9, 12: -1})):
            quotient = EtaQuotient(level, exponents)
            for precision in (1, 2, 100):
                got = eta_quotient_expansion(quotient, precision)
                want = reference_eta_quotient(quotient, precision)
                assert_same_series(got, want)
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
            peaks.append(max(map(abs, got.coeffs)))
    assert min(peaks) < 2**63 and max(peaks) > 2**64


def test_eta_quotient_empty_is_one():
    s = eta_quotient_expansion(EtaQuotient(5, {}), 6)
    assert s.offset == 0
    assert s.coeffs == (1, 0, 0, 0, 0, 0)


def test_cusp_orders_level_23():
    q = EtaQuotient(23, {1: 2, 23: 2})
    by_d = {c.d: c for c in cusps(23)}
    assert eta_quotient_cusp_order(q, by_d[1]) == 2
    assert eta_quotient_cusp_order(q, by_d[23]) == 2
    with pytest.raises(ValueError):
        eta_quotient_cusp_order(q, cusps(11)[0])


def test_cusp_order_degree_identity():
    # sum of cusp orders = (weight / 12) * index for holomorphic quotients
    cases = [
        EtaQuotient(23, {1: 2, 23: 2}),
        EtaQuotient(1, {1: 24}),
        EtaQuotient(4, {1: 2, 2: 1, 4: 2}),
        EtaQuotient(6, {1: 1, 2: 1, 3: 1, 6: 1}),
    ]
    for q in cases:
        total = sum(eta_quotient_cusp_order(q, c) for c in cusps(q.level))
        assert total == q.weight() / 12 * index(q.level)


def test_cusp_order_at_infinity_is_leading_exponent():
    # the class of the point at infinity is the one with d = level
    for q in (EtaQuotient(23, {1: 2, 23: 2}), EtaQuotient(1, {1: 24})):
        infinite = [c for c in cusps(q.level) if c.d == q.level][0]
        assert eta_quotient_cusp_order(q, infinite) == q.leading_exponent()


def test_evaluate_eta_at_i():
    res = evaluate(eta_expansion(64), 1j)
    assert abs(res.value - ETA_AT_I) < 1e-12
    assert res.value.imag == pytest.approx(0.0, abs=1e-15)
    assert 0 < res.bound < 1e-10


def test_evaluate_bound_is_honest():
    # low on the half-plane the truncation tail dominates: enlarging the
    # precision must move the value by less than the old certified bound
    tau = 0.3 + 0.15j
    coarse = evaluate(eta_expansion(16), tau)
    fine = evaluate(eta_expansion(400), tau)
    assert abs(coarse.value - fine.value) <= coarse.bound
    assert fine.bound < coarse.bound


def test_evaluate_multiplicative_within_bounds():
    tau = 0.125 + 0.9j
    e = evaluate(eta_expansion(128), tau)
    c = evaluate(eta_cubed(128), tau)
    assert abs(e.value**3 - c.value) < 3 * abs(e.value) ** 2 * e.bound + c.bound + 1e-13


def test_evaluate_translation_phase():
    # exact phase handling: shifting tau by 1 multiplies eta by e(1/24)
    tau = 0.37 + 0.85j
    a = evaluate(eta_expansion(200), tau)
    b = evaluate(eta_expansion(200), tau + 1)
    phase = cmath.exp(2j * math.pi / 24)
    assert abs(b.value - phase * a.value) < 1e-13


def test_evaluate_is_bit_identical_to_the_inline_loop():
    # The term loop hoists -2 pi Im(tau) and 2j pi with the grouping the
    # products had inline, so value and bound keep every bit.  Im(tau) is
    # small enough that more than 300 terms are summed: the eta and eta-cube
    # supports are sparse, and eta(2 tau) eta(3 tau)^2 has offset 1/3.
    rng = random.Random(41)
    cases = (
        eta_expansion(40_000),
        eta_cubed(50_000),
        eta_quotient_expansion(EtaQuotient(6, {2: 1, 3: 2}), 1200),
    )
    points = [0.0015j, 0.375 + 0.002j, -0.4375 + 0.001j]
    points += [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.001, 0.002)) for _ in range(4)]
    for series in cases:
        for tau in points:
            value, bound, terms = reference_evaluate(series, tau)
            assert terms > 300, (series.offset, tau)
            res = evaluate(series, tau)
            assert (res.value, res.bound) == (value, bound), (series.offset, tau)


def test_evaluate_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        evaluate(eta_expansion(16), 1 - 1j)
    with pytest.raises(ValueError):
        evaluate(eta_expansion(16), 0.5)
    # NaN and infinite points would give a NaN value and bound.
    for tau in (complex(math.nan, 1.0), complex(0.0, math.nan), complex(math.inf, 1.0),
                complex(0.0, math.inf), math.nan):
        with pytest.raises(ValueError):
            evaluate(eta_expansion(16), tau)


def test_tail_bound_past_float_range_is_infinite():
    # Near the real axis the growth exponent 23 of eta^24 puts the peak of
    # (1+k)^alpha r^(k/10) past float range: the tail has no finite bound.
    delta = eta_quotient_expansion(EtaQuotient(1, {1: 24}), 100)
    tau = complex(0.1, 1e-12)
    assert qseries._series_tail_bound(delta, tau.imag, delta.precision) == math.inf
    assert evaluate(delta, tau).bound == math.inf


def test_evaluate_requires_growth_certificate():
    with pytest.raises(PrecisionError):
        evaluate(eta_expansion(16).inverse(), 2j)


def test_integral_series_hold_int_coefficients():
    series = [
        eta_expansion(50),
        eta_cubed(50),
        unary_theta(3, 1, 50),
        eta_quotient_expansion(EtaQuotient(4, {1: -8, 2: 16, 4: -8}), 50),
        eta_quotient_expansion(EtaQuotient(6, {1: 5, 2: -2, 3: -2, 6: 1}), 50),
        eta_quotient_expansion(EtaQuotient(1, {1: -1}), 50),
        eta_quotient_expansion(EtaQuotient(23, {1: 2, 23: 2}), 50),
        eta_quotient_expansion(EtaQuotient(5, {}), 10),
        eta_expansion(8) * 2,
        2 * eta_expansion(8),
    ]
    for s in series:
        assert all(type(c) is int for c in s.coeffs), s
    assert type(eta_expansion(8).coefficient(Fraction(1, 3))) is int


def test_inverse_of_non_unit_leading_term_is_exact():
    inv = FracQSeries(0, 1, [2, 1, 0, 0]).inverse()
    assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16))
    assert all(type(c) is Fraction for c in inv.coeffs)


def test_non_int_input_coefficients_stay_exact():
    s = FracQSeries(0, 1, ["1/3", 0.5, True, Fraction(2, 3), 4])
    assert s.coeffs == (Fraction(1, 3), Fraction(1, 2), 1, Fraction(2, 3), 4)
    assert [type(c) for c in s.coeffs] == [Fraction, Fraction, Fraction, Fraction, int]
