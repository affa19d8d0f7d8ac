"""Exact q-expansions on fractional-exponent grids, eta-product series, and
certified numeric evaluation on the upper half-plane.

A series is stored as (offset, step, coefficients): term k carries the
exponent offset + k*step.  Coefficients are exact: ``int`` where integral,
``Fraction`` otherwise; floats appear only inside ``evaluate``, which returns
a truncation-error bound alongside the value.
"""

from __future__ import annotations

import cmath
import math
import numbers
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import _Checked, _check_int, _check_tau

__all__ = [
    "EtaQuotient",
    "EvalResult",
    "FracQSeries",
    "GridError",
    "PrecisionError",
    "eta_cubed",
    "eta_expansion",
    "eta_quotient_cusp_order",
    "eta_quotient_expansion",
    "evaluate",
    "unary_theta",
]

# Depth cap for the constructor-time cross-check of the cube identity; see
# the dual-route note on eta_cubed.
_CUBE_CHECK_DEPTH = 1024

# Little-endian signed ``struct`` codes by lane width in bits, narrowest
# first.  A product whose lanes fit one of them is packed and unpacked by
# ``struct`` in one call each.
_LANE_CODES = ((8, "b"), (16, "h"), (32, "i"), (64, "q"))


class GridError(ArithmeticError):
    """Two series live on incompatible exponent grids."""


class PrecisionError(Exception):
    """A certified numeric answer is not possible at the available precision."""


def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(
        math.gcd(x.numerator * y.denominator, y.numerator * x.denominator),
        x.denominator * y.denominator,
    )


class FracQSeries:
    """Truncated series sum_k coeffs[k] * q^(offset + k*step); ``int`` and
    ``Fraction`` coefficients are kept, others converted exactly by ``Fraction``.

    ``growth``, when present, is a pair (A, alpha) of finite numbers >= 0
    certifying that every coefficient of the underlying infinite series
    satisfies |c_k| <= A * (1+k)^alpha; it is what makes ``evaluate`` able to
    report a rigorous truncation bound.  Arithmetic propagates the certificate;
    inversion drops it.
    """

    __slots__ = ("offset", "step", "coeffs", "growth", "_terms", "_support")

    def __init__(self, offset, step, coeffs, growth=None):
        self.offset = Fraction(offset)
        self.step = Fraction(step)
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        coeffs = tuple(coeffs)
        if not {int, Fraction}.issuperset(map(type, coeffs)):
            coeffs = tuple(c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs)
        self.coeffs = coeffs
        if not self.coeffs:
            raise ValueError("a series needs at least one retained term")
        if growth is not None:
            a, alpha = growth
            # Not compared with inf: an int past float range is below it, but float() overflows.
            if not all(
                isinstance(x, numbers.Real) and 0 <= x <= sys.float_info.max for x in (a, alpha)
            ):
                raise ValueError(f"growth must be two finite numbers >= 0, got {growth!r}")
            growth = (float(a), float(alpha))
        self.growth = growth
        self._terms = self._support = None

    @property
    def precision(self) -> int:
        """Number of retained grid terms."""
        return len(self.coeffs)

    def exponent(self, k: int) -> Fraction:
        return self.offset + k * self.step

    def _nonzero(self) -> tuple[tuple[int, int | Fraction], ...]:
        """Nonzero terms as (index, coefficient), cached: what the exact
        kernels read, so no coefficient is ever converted to float there."""
        if self._terms is None:
            self._terms = tuple((k, c) for k, c in enumerate(self.coeffs) if c)
        return self._terms

    def support(self) -> tuple[tuple[int, int | Fraction, float], ...]:
        """Nonzero terms as (index, coefficient, float(coefficient)), cached;
        the float overflows above about 1.8e308, and only ``evaluate`` reads it."""
        if self._support is None:
            self._support = tuple((k, c, float(c)) for k, c in self._nonzero())
        return self._support

    def coefficient(self, exponent) -> int | Fraction:
        """Exact coefficient of q^exponent.

        Exponents below the offset or off the grid are structurally zero;
        on-grid exponents past the retained range are unknown and raise.
        """
        x = Fraction(exponent)
        pos = (x - self.offset) / self.step
        if pos.denominator != 1:
            return 0
        k = int(pos)
        if k < 0:
            return 0
        if k >= len(self.coeffs):
            raise PrecisionError(
                f"coefficient of q^{x} lies beyond the retained precision {self.precision}"
            )
        return self.coeffs[k]

    def truncate(self, precision: int) -> "FracQSeries":
        _check_int(precision, "precision")
        if precision > len(self.coeffs):
            raise ValueError(f"cannot truncate to {precision} of {self.precision} terms")
        return FracQSeries(self.offset, self.step, self.coeffs[:precision], self.growth)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "FracQSeries":
        return FracQSeries(self.offset, self.step, tuple(-c for c in self.coeffs), self.growth)

    def __add__(self, other) -> "FracQSeries":
        if not isinstance(other, FracQSeries):
            return NotImplemented
        step = _frac_gcd(self.step, other.step)
        if ((self.offset - other.offset) / step).denominator != 1:
            raise GridError(
                f"cannot align offsets {self.offset} and {other.offset} on step {step}"
            )
        offset = min(self.offset, other.offset)
        end = min(
            self.offset + self.precision * self.step,
            other.offset + other.precision * other.step,
        )
        count = (end - offset) / step
        if count.denominator != 1 or count <= 0:
            raise GridError("series have no common range of known coefficients")
        count = int(count)
        coeffs = [0] * count
        for series in (self, other):
            start = int((series.offset - offset) / step)
            m = int(series.step / step)
            for k, c in series._nonzero():
                idx = start + k * m
                if idx >= count:
                    break
                coeffs[idx] += c
        if self.growth is not None and other.growth is not None:
            growth = (self.growth[0] + other.growth[0], max(self.growth[1], other.growth[1]))
        else:
            growth = None
        return FracQSeries(offset, step, coeffs, growth)

    def __sub__(self, other) -> "FracQSeries":
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar: int | Fraction) -> "FracQSeries":
        growth = None
        if self.growth is not None:
            growth = (self.growth[0] * abs(float(scalar)), self.growth[1])
        return FracQSeries(
            self.offset, self.step, tuple(scalar * c for c in self.coeffs), growth
        )

    def __mul__(self, other) -> "FracQSeries":
        """Product on the common grid, exact out to the shorter known span.

        Both operands become integer polynomials over one denominator each
        (the lcm of their coefficients' denominators), multiplied once and
        divided once: coefficients stay ``int`` when both denominators are 1
        and are all ``Fraction`` otherwise.

        Each operand is packed into one ``int``, one lane per grid point
        (Kronecker substitution), and the two ints are multiplied once; see
        ``_kronecker`` for the lane width.  An operand with no nonzero term
        in range makes every coefficient 0, and nothing is packed.  An
        ``int`` or ``Fraction`` scales every term; a ``bool`` is no scalar.
        """
        if type(other) in (int, Fraction):
            return self._scaled(other)
        if not isinstance(other, FracQSeries):
            return NotImplemented
        step = _frac_gcd(self.step, other.step)
        count = int(min(self.precision * self.step, other.precision * other.step) / step)
        a, den_a = _grid_terms(self, int(self.step / step), count)
        b, den_b = _grid_terms(other, int(other.step / step), count)
        coeffs = _kronecker(a, b, count) if a and b else [0] * count
        den = den_a * den_b
        if den != 1:
            coeffs = [Fraction(c, den) for c in coeffs]
        if self.growth is not None and other.growth is not None:
            # |sum_{i+j=k} f_i g_j| <= A B sum (1+i)^a (1+k-i)^b <= A B (1+k)^(a+b+1)
            growth = (self.growth[0] * other.growth[0], self.growth[1] + other.growth[1] + 1.0)
        else:
            growth = None
        return FracQSeries(self.offset + other.offset, step, coeffs, growth)

    __rmul__ = __mul__

    def inverse(self) -> "FracQSeries":
        """Reciprocal series.  Requires a nonzero coefficient in position 0.

        Term k sums c_i * out[k - i] over the nonzero c_i with 1 <= i <= k
        only, so P terms cost O(P * |support|): O(P^1.5) for an eta series.
        The result carries no growth certificate, so it cannot be evaluated
        with a rigorous tail bound.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("cannot invert a series whose leading retained term vanishes")
        inv0 = c0 if c0 in (1, -1) else Fraction(1) / c0
        terms = self._nonzero()[1:]
        out = [inv0] + [0] * (self.precision - 1)
        for k in range(1, self.precision):
            acc = 0
            for i, ci in terms:
                if i > k:
                    break
                acc += ci * out[k - i]
            out[k] = -inv0 * acc
        return FracQSeries(-self.offset, self.step, out, None)

    def __pow__(self, k: int) -> "FracQSeries":
        """Integer power by repeated squaring: about log2(k) products.

        The growth certificate is the one k - 1 sequential products carry,
        bit for bit: (A, alpha) -> (A * A0, alpha + alpha0 + 1), k - 1 times.
        A negative k inverts first; a ``bool`` is not an exponent.
        """
        try:
            _check_int(k, "exponent", minimum=None)
        except ValueError:
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return FracQSeries(0, self.step, (1,) + (0,) * (self.precision - 1), (1.0, 0.0))
        growth = self.growth
        if growth is not None:
            a, alpha = a0, alpha0 = growth
            for _ in range(k - 1):
                a, alpha = a * a0, alpha + alpha0 + 1.0
            growth = (a, alpha)
        result = None
        square = self
        while True:
            if k & 1:
                result = square if result is None else result * square
            k >>= 1
            if not k:
                break
            square = square * square
        return FracQSeries(result.offset, result.step, result.coeffs, growth)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return (
            self.offset == other.offset
            and self.step == other.step
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"FracQSeries(offset={self.offset}, step={self.step}, "
            f"precision={self.precision})"
        )

    def to_json_obj(self) -> dict:
        return {
            "offset": str(self.offset),
            "step": str(self.step),
            "coeffs": [str(c) for c in self.coeffs],
        }


# -- product kernels ---------------------------------------------------------


def _grid_terms(series: FracQSeries, m: int, count: int) -> tuple[list[tuple[int, int]], int]:
    """Nonzero terms of ``series`` at grid positions k*m below ``count``, as
    (position, integer) pairs over one common denominator, and that
    denominator."""
    terms = []
    den = None
    for k, c in series._nonzero():
        pos = k * m
        if pos >= count:
            break
        terms.append((pos, c))
        if type(c) is not int:
            den = math.lcm(den or 1, c.denominator)
    if den is None:
        return terms, 1
    return [(pos, c.numerator * (den // c.denominator)) for pos, c in terms], den


def _kronecker(a: list, b: list, count: int) -> list[int]:
    """Coefficients 0..count-1 of a product from one multiplication of ints.

    Each operand becomes sum c * 2^(width * position), and their product
    holds coefficient k in lane k.  That coefficient sums at most
    min(|a|, |b|) products of terms, so

        |c_k| <= max|a| * max|b| * min(|a|, |b|).

    A lane holds the bit length of that bound plus a sign bit, rounded up to
    8, 16, 32 or 64 bits, or above that to whole bytes.  Adding 2^(width-1)
    to every lane makes each lane nonnegative, so no lane borrows from the
    next; flipping that bit again leaves each lane in two's complement.
    """
    bound = max(abs(c) for _, c in a) * max(abs(c) for _, c in b) * min(len(a), len(b))
    bits = bound.bit_length() + 1
    for width, code in _LANE_CODES:
        if width >= bits:
            break
    else:
        width, code = 8 * ((bits + 7) // 8), None
    size = width // 8
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
    packed = []
    for terms in (a, b):
        if code is None:
            data = bytearray(size * count)
            for pos, c in terms:
                data[pos * size:(pos + 1) * size] = c.to_bytes(size, "little", signed=True)
        else:
            lanes = [0] * count
            for pos, c in terms:
                lanes[pos] = c
            data = struct.pack(f"<{count}{code}", *lanes)
        # Each lane holds its term in two's complement: take 2^width back
        # from the next lane for every negative one.
        n = int.from_bytes(data, "little")
        packed.append(n - (((n >> (width - 1)) & ones) << width))
    bias = ones << (width - 1)
    lanes = ((packed[0] * packed[1] + bias) & ((1 << (width * count)) - 1)) ^ bias
    data = lanes.to_bytes(size * count, "little")
    if code is not None:
        return list(struct.unpack(f"<{count}{code}", data))
    return [
        int.from_bytes(data[k:k + size], "little", signed=True)
        for k in range(0, size * count, size)
    ]


# -- constructors ------------------------------------------------------------


def _pentagonal_coeffs(precision: int) -> list[int]:
    # Product over n >= 1 of (1 - q^n): coefficient (-1)^j at the generalized
    # pentagonal number j(3j-1)/2, both signs of j.
    coeffs = [0] * precision
    j = 0
    while True:
        placed = False
        for jj in (j, -j) if j else (0,):
            g = jj * (3 * jj - 1) // 2
            if g < precision:
                coeffs[g] = 1 if jj % 2 == 0 else -1
                placed = True
        if not placed:
            break
        j += 1
    return coeffs


# Typed caches: True must reach the argument checks, not the entry of 1.
@lru_cache(maxsize=16, typed=True)
def eta_expansion(precision: int) -> FracQSeries:
    """q^(1/24) times the product of (1 - q^n): offset 1/24, unit step,
    coefficients the pentagonal-sign sequence (so all in {-1, 0, 1})."""
    _check_int(precision, "precision")
    return FracQSeries(Fraction(1, 24), 1, _pentagonal_coeffs(precision), (1.0, 0.0))


@lru_cache(maxsize=32, typed=True)
def unary_theta(ell: int, r: int, precision: int) -> FracQSeries:
    """Weight-3/2 theta series: sum over integers m of
    (2*ell*m + r) q^((2*ell*m + r)^2 / (4*ell)).

    On the grid this is offset r^2/(4*ell), unit step, with the coefficient
    2*ell*m + r sitting at index m*(ell*m + r).
    """
    _check_int(ell, "theta index", minimum=2)
    _check_int(r, "theta residue")
    if r >= ell:
        raise ValueError(f"theta residue must be below the index {ell}, got {r!r}")
    _check_int(precision, "precision")
    coeffs = [0] * precision
    m = 0
    while True:
        placed = False
        for mm in (m, -m) if m else (0,):
            k = mm * (ell * mm + r)
            if 0 <= k < precision:
                coeffs[k] = 2 * ell * mm + r
                placed = True
        if not placed and m > 0:
            break
        m += 1
    # |2 ell m + r| <= (3 ell + 2 sqrt(ell)) * (1+k)^(1/2) at k = m(ell m + r).
    growth = (3.0 * ell + 2.0 * math.sqrt(ell), 0.5)
    return FracQSeries(Fraction(r * r, 4 * ell), 1, coeffs, growth)


@lru_cache(maxsize=16, typed=True)
def eta_cubed(precision: int) -> FracQSeries:
    """Cube of the eta series, offset 1/8.

    Computed two independent ways: as the theta sum with coefficient 4m+1 at
    exponent (4m+1)^2/8, and by literally cubing ``eta_expansion``.  The two
    must agree on the checked range; disagreement is a hard failure.
    """
    series = unary_theta(2, 1, precision)
    depth = min(precision, _CUBE_CHECK_DEPTH)
    cube = eta_expansion(depth) ** 3
    if series.coeffs[:depth] != cube.coeffs[:depth] or series.offset != cube.offset:
        raise ArithmeticError(
            "theta-sum and cubed-product routes disagree; series identity violated"
        )
    return series


class _EtaQuotientFields(NamedTuple):
    level: int
    exponents: dict[int, int]


class EtaQuotient(_Checked, _EtaQuotientFields):
    """Formal product of eta(delta * tau)^r over divisors delta of the level.

    ``exponents`` maps delta to the (possibly negative) integer r.
    """

    __slots__ = ()

    def __new__(cls, level: int, exponents: dict[int, int]):
        _check_int(level, "level")
        for delta, r in exponents.items():
            _check_int(delta, "eta quotient scale", divides=level)
            _check_int(r, f"exponent of scale {delta}", minimum=None)
        return tuple.__new__(cls, (level, exponents))

    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents.values()), 2)

    def leading_exponent(self) -> Fraction:
        return Fraction(sum(d * r for d, r in self.exponents.items()), 24)


def eta_quotient_expansion(quotient: EtaQuotient, precision: int) -> FracQSeries:
    """Expand an eta quotient to the requested number of grid terms.

    The grid step is the gcd of the scales; the offset is the sum of
    delta*r/24.  Negative exponents go through series inversion.
    """
    _check_int(precision, "precision")
    items = sorted(quotient.exponents.items())
    step_out = math.gcd(*[d for d, _ in items])
    span = precision * step_out
    result = None
    for delta, r in items:
        if r == 0:
            continue
        terms = span // delta + 4
        base = eta_expansion(terms)
        scaled = FracQSeries(Fraction(delta, 24), delta, base.coeffs, base.growth)
        factor = scaled**r
        result = factor if result is None else result * factor
    if result is None:
        return FracQSeries(0, 1, (1,) + (0,) * (precision - 1), (1.0, 0.0))
    if result.offset != quotient.leading_exponent():
        raise ArithmeticError(f"expansion offset {result.offset} is not the leading exponent")
    if result.precision < precision:
        raise ArithmeticError("internal precision bookkeeping fell short")
    return result.truncate(precision)


def eta_quotient_cusp_order(quotient: EtaQuotient, cusp) -> Fraction:
    """Vanishing order of the quotient at a cusp class, in the width-w local
    uniformizer (so the order at the infinite cusp equals the leading
    q-exponent).

    For the class with denominator d at level N the order is
    N / (24 gcd(d^2, N)) times the sum of gcd(d, delta)^2 r_delta / delta.
    """
    n = quotient.level
    if cusp.level != n:
        raise ValueError(f"cusp lives at level {cusp.level}, quotient at level {n}")
    d = cusp.d
    total = sum(
        Fraction(math.gcd(d, delta) ** 2 * r, delta)
        for delta, r in quotient.exponents.items()
    )
    return Fraction(n, 24 * math.gcd(d * d, n)) * total


# -- certified numeric evaluation ---------------------------------------------


class EvalResult(NamedTuple):
    value: complex
    bound: float


def _tail_bound(a: float, alpha: float, r: float, start: int, scale: float) -> float:
    """Upper bound for A*scale*sum_{k >= start} (1+k)^alpha r^k, 0 <= r < 1.

    Split r^k = r^(k/10) * r^(9k/10); the polynomial-times-r^(k/10) factor is
    maximized in closed form and the rest is geometric.  A peak past float
    range leaves the tail unbounded, as r >= 1 does.
    """
    if r <= 0.0:
        return 1e-300
    if r >= 1.0:
        return math.inf
    if alpha == 0.0:
        peak = 1.0
    else:
        y = r**0.1
        kp = -alpha / math.log(y) - 1.0
        kp = max(kp, float(start))
        try:
            peak = (1.0 + kp) ** alpha * y**kp
        except OverflowError:
            return math.inf
    log_geo = 0.9 * start * math.log(r)
    geo = math.exp(max(log_geo, -700.0))
    return a * scale * peak * geo / (1.0 - r**0.9) + 1e-300


def _series_tail_bound(series: FracQSeries, im_tau: float, start: int) -> float:
    """Tail bound from term ``start`` on, for this or a longer expansion."""
    a, alpha = series.growth
    r = math.exp(-2.0 * math.pi * im_tau * float(series.step))
    try:
        scale = math.exp(-2.0 * math.pi * im_tau * float(series.offset))
    except OverflowError:
        return math.inf
    return _tail_bound(a, alpha, r, start, scale)


def evaluate(series: FracQSeries, tau: complex) -> EvalResult:
    """Numeric value of the series at tau (upper half-plane) together with a
    rigorous bound on the truncation error of the underlying infinite series.

    Requires a growth certificate on the series, and raises PrecisionError
    without one or when a term is past float range.  Term phases are reduced
    exactly (integer numerators over one denominator, from the exact binary
    value of Re(tau)) before any float exponential, so rounding noise stays
    near machine epsilon; a small roundoff allowance is folded into the
    reported bound.

    Every float operation of the term loop is pinned: value and bound are
    bit-identical to the loop with its invariants written inline
    (``test_evaluate_is_bit_identical_to_the_inline_loop``), so the verify
    suites print the same residuals.
    """
    tau = _check_tau(tau)
    v = tau.imag
    if series.growth is None:
        raise PrecisionError(
            "series carries no coefficient growth certificate; "
            "a rigorous truncation bound is not available"
        )
    u, off, step = Fraction(tau.real), series.offset, series.step
    den = u.denominator * off.denominator * step.denominator
    a = u.numerator * off.numerator * step.denominator % den
    b = u.numerator * step.numerator * off.denominator % den
    off_f = float(series.offset)
    step_f = float(series.step)
    # Invariants of the term loop, grouped as (-2 pi v) * x and
    # (2j pi) * phase: the grouping fixes every rounding.
    rate = -(2.0 * math.pi) * v
    turn = 2j * math.pi
    exp, cexp = math.exp, cmath.exp
    total = 0j
    absmass = 0.0
    try:
        for k, _, cf in series.support():
            decay = exp(rate * (off_f + k * step_f))
            if decay == 0.0:
                break
            phase = (a + k * b) % den / den
            total += cf * decay * cexp(turn * phase)
            absmass += abs(cf) * decay
        if absmass == math.inf:
            raise OverflowError
    except OverflowError:
        raise PrecisionError(f"a term of the series at Im(tau) = {v} is past float range") from None
    bound = _series_tail_bound(series, v, series.precision)
    bound += 64.0 * 2.220446049250313e-16 * (absmass + abs(total))
    return EvalResult(total, bound)
