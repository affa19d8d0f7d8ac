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
    a negative power drops it.
    """

    __slots__ = ("offset", "step", "coeffs", "growth", "_terms", "_support", "_points")

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
        self._terms = self._support = self._points = None

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
        the float overflows above about 1.8e308."""
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
        in range makes every coefficient 0.  An ``int`` or ``Fraction``
        scales every term; a ``bool`` is no scalar.
        """
        if type(other) in (int, Fraction):
            return self._scaled(other)
        if not isinstance(other, FracQSeries):
            return NotImplemented
        step = _frac_gcd(self.step, other.step)
        count = int(min(self.precision * self.step, other.precision * other.step) / step)
        a, den_a = _grid_lanes(self, int(self.step / step), count)
        b, den_b = _grid_lanes(other, int(other.step / step), count)
        coeffs = _kronecker(a, b, count)
        den = den_a * den_b
        if den != 1:
            coeffs = [Fraction(c, den) for c in coeffs]
        growth = _product_growth(self.growth, other.growth)
        return FracQSeries(self.offset + other.offset, step, coeffs, growth)

    __rmul__ = __mul__

    def inverse(self) -> "FracQSeries":
        """The power -1 (see ``__pow__``), with no growth certificate: one
        pass of ``_power_recurrence`` that adds up the earlier coefficients
        of each value among this series' terms and multiplies once per
        value, so the reciprocal of eta takes additions only."""
        return self ** -1

    def __pow__(self, k: int) -> "FracQSeries":
        """Integer power: for k > 0 by squaring (``_lane_power``) the lanes
        of the operand over their common denominator, with the certificate
        of k - 1 sequential products (``_power_growth``); for k < 0, with a
        nonzero first term, by one pass of ``_power_recurrence``, with no
        certificate (k = -1 sums the terms of each coefficient value
        together; see ``inverse``).  A ``bool`` is not an exponent."""
        try:
            _check_int(k, "exponent", minimum=None)
        except ValueError:
            return NotImplemented
        if k < 0:
            if self.coeffs[0] == 0:
                raise ValueError("cannot invert a series whose leading retained term vanishes")
            coeffs = _power_recurrence(self._nonzero(), k, self.precision)
            return FracQSeries(k * self.offset, self.step, coeffs, None)
        if k == 0:
            return FracQSeries(0, self.step, (1,) + (0,) * (self.precision - 1), (1.0, 0.0))
        growth = _power_growth(self.growth, k)
        lanes, den = _grid_lanes(self, 1, self.precision)
        coeffs = _lane_power(lanes, k)
        if den != 1:
            den **= k
            coeffs = [Fraction(c, den) for c in coeffs]
        return FracQSeries(k * self.offset, self.step, coeffs, growth)

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


def _grid_lanes(series: FracQSeries, m: int, count: int) -> tuple[list[int], int]:
    """Lanes 0..count-1 holding term k of ``series`` in lane k*m and 0
    elsewhere, as integers over one common denominator, and that
    denominator."""
    lanes = [0] * count
    den = None
    for k, c in series._nonzero():
        pos = k * m
        if pos >= count:
            break
        lanes[pos] = c
        if type(c) is not int:
            den = math.lcm(den or 1, c.denominator)
    if den is None:
        return lanes, 1
    return [c.numerator * (den // c.denominator) for c in lanes], den


def _product_growth(x, y):
    """Growth certificate of a product.  |sum_{i+j=k} f_i g_j| <= A B sum
    (1+i)^a (1+k-i)^b <= A B (1+k)^(a+b+1); None if either factor has none."""
    if x is None or y is None:
        return None
    return (x[0] * y[0], x[1] + y[1] + 1.0)


def _power_growth(growth, k: int):
    """The certificate that k - 1 sequential products carry, bit for bit:
    (A, alpha) -> (A * A0, alpha + alpha0 + 1), k - 1 times.  Squaring would
    round A^k differently.  For A0 = 1 and an integral alpha0, as eta has,
    no loop: (1, k (alpha0 + 1) - 1), exact up to 2^53, refused above.
    Otherwise the loop is refused at the step where A overflows to inf
    (A0 > 1), and runs all k - 1 steps when A stays finite."""
    if growth is None or k == 1:
        return growth
    a, alpha = a0, alpha0 = growth
    if a0 == 1.0 and alpha0.is_integer():
        top = k * (int(alpha0) + 1) - 1
        if top > 2**53:
            raise ValueError(f"exponent {k} is too large for an exact growth certificate")
        return (1.0, float(top))
    for _ in range(k - 1):
        a, alpha = a * a0, alpha + alpha0 + 1.0
        if a == math.inf:
            raise ValueError(f"exponent {k} overflows the growth certificate")
    return (a, alpha)


def _kronecker(a: list[int], b: list[int], count: int) -> list[int]:
    """Lanes 0..count-1 of the product of two integer lane lists (each at
    least ``count`` long) from one multiplication of ints.

    Each operand becomes sum c * 2^(width * lane), and their product holds
    coefficient k in lane k.  That coefficient sums at most min(|a|, |b|)
    products of nonzero lanes, |a| counting the nonzero lanes of a, so

        |c_k| <= max|a| * max|b| * min(|a|, |b|).

    A lane holds the bit length of that bound plus a sign bit, rounded up to
    8, 16, 32 or 64 bits, or above that to whole bytes.  Adding 2^(width-1)
    to every lane makes each lane nonnegative, so no lane borrows from the
    next; flipping that bit again leaves each lane in two's complement.  An
    operand with no nonzero lane makes every lane 0, and nothing is packed.
    """
    a, b = a[:count], b[:count]
    terms = min(count - a.count(0), count - b.count(0))
    if not terms:
        return [0] * count
    bound = max(map(abs, a)) * max(map(abs, b)) * terms
    bits = bound.bit_length() + 1
    for width, code in _LANE_CODES:
        if width >= bits:
            break
    else:
        width, code = 8 * ((bits + 7) // 8), None
    size = width // 8
    ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
    packed = []
    for lanes in (a, b):
        if code is None:
            data = b"".join(c.to_bytes(size, "little", signed=True) for c in lanes)
        else:
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


def _lane_power(lanes: list[int], k: int) -> list[int]:
    """The k-th power, k >= 1, of integer lanes, to as many lanes: repeated
    squaring through ``_kronecker``, about log2(k) products."""
    result = None
    while True:
        if k & 1:
            result = lanes if result is None else _kronecker(result, lanes, len(lanes))
        k >>= 1
        if not k:
            return result
        lanes = _kronecker(lanes, lanes, len(lanes))


def _power_recurrence(terms, r: int, count: int) -> list:
    """Coefficients 0..count-1 of g = f^r, r < 0, from the nonzero (i, f_i)
    of f in increasing i, f_0 first, by J. C. P. Miller's recurrence (Knuth,
    TAOCP 4.7): k f_0 g_k = sum ((r+1) i - k) f_i g_(k-i) over 1 <= i <= k.
    O(P^1.5) for P terms of eta, whatever r is.  ``int`` or ``Fraction``
    term by term (ints when f_0 is 1 or -1); an ``int`` sum that k does not
    divide raises ``ArithmeticError``.

    At r = -1 the weight -k cancels: f_0 g_k = -sum f_i g_(k-i), the
    reciprocal.  Its terms are grouped by coefficient value (an ``int`` and
    an equal ``Fraction`` apart), and each g_k adds up the g_(k-i) of one
    group and multiplies that sum by the value, once per group.  Index i
    joins its group at k = i, so a group exists only once it has a term to
    add.  Eta's values are 1 and -1, on the generalized pentagonal numbers,
    so the partition numbers take additions only.  The outputs are kept
    newest first (``rev[j]`` is g_(k-1-j)), so each index reads one fixed
    position.  A series whose nonzero values are all distinct has one group
    per term, a loop of one addition and one product each: for dense series
    of 40 to 300 terms that took 1.2 to 1.7 times as long as a loop of one
    product per term.  No CLI path builds such a series.
    """
    (_, c0), *terms = terms
    inv0 = c0 if c0 in (1, -1) else Fraction(1) / c0
    if r == -1:
        rev, neg, groups, live, pending = [inv0], -inv0, {}, [], iter(terms)
        nxt, cn = next(pending, (count, 0))
        for k in range(1, count):
            if k == nxt:
                group = groups.get((type(cn), cn))
                if group is None:
                    groups[type(cn), cn] = group = []
                    live.append((cn, group))
                group.append(k - 1)
                nxt, cn = next(pending, (count, 0))
            acc = 0
            for ci, idx in live:
                s = 0
                for j in idx:
                    s += rev[j]
                acc += ci * s
            rev.insert(0, neg * acc)
        return rev[::-1]
    out = [inv0 ** -r] + [0] * (count - 1)
    weighted = [(i, ci, (r + 1) * i * ci) for i, ci in terms]
    for k in range(1, count):
        acc = 0
        for i, ci, w in weighted:
            if i > k:
                break
            acc += (w - k * ci) * out[k - i]
        if type(acc) is int:
            acc, rem = divmod(acc, k)
            if rem:
                raise ArithmeticError(f"power recurrence: term {k}'s sum is not divisible by {k}")
        else:
            acc /= k
        out[k] = inv0 * acc
    return out


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


def _eta_power(delta: int, r: int, count: int):
    """eta(delta*tau)^r on its own grid of step delta: lanes 0..count-1 by
    ``_lane_power`` (r > 0) or ``_power_recurrence`` (r < 0), offset
    delta*r/24, and the growth certificate of ``__pow__``, first, so that a
    refused exponent costs no lanes."""
    growth = _power_growth((1.0, 0.0), r) if r > 0 else None
    lanes = _pentagonal_coeffs(count)
    if r < 0:
        lanes = _power_recurrence([(k, c) for k, c in enumerate(lanes) if c], r, count)
    else:
        lanes = _lane_power(lanes, r)
    return lanes, Fraction(delta * r, 24), growth


def eta_quotient_expansion(quotient: EtaQuotient, precision: int) -> FracQSeries:
    """Expand an eta quotient to the requested number of grid terms.

    The grid step is the gcd of the scales with a nonzero exponent; a zero
    exponent contributes nothing, and a quotient of zero exponents only is
    the constant 1.  All work is on plain integer lanes of the output grid:
    per factor, ``_eta_power`` up to the last lane below ``precision``,
    spread onto the output grid; then the factors multiplied by
    ``_kronecker`` in increasing scale.  One ``FracQSeries`` is built at the
    end, with the growth certificate the ``FracQSeries`` products would
    carry, its floats computed in the same order.

    Three checks compare the kernels with what is known beforehand: at
    least ``precision`` lanes come back; the leading coefficient is 1, as
    every factor's is; and the offset, summed factor by factor, is
    ``quotient.leading_exponent()``.
    """
    _check_int(precision, "precision")
    factors = [(delta, r) for delta, r in sorted(quotient.exponents.items()) if r]
    if not factors:
        return FracQSeries(0, 1, (1,) + (0,) * (precision - 1), (1.0, 0.0))
    step = math.gcd(*[delta for delta, _ in factors])
    lanes = None
    for delta, r in factors:
        m = delta // step
        power, offset_r, growth_r = _eta_power(delta, r, (precision - 1) // m + 1)
        if m > 1:
            spread = [0] * (len(power) * m)
            spread[::m] = power
            power = spread
        if lanes is None:
            lanes, offset, growth = power, offset_r, growth_r
        else:
            lanes = _kronecker(lanes, power, min(len(lanes), len(power), precision))
            offset += offset_r
            growth = _product_growth(growth, growth_r)
    if len(lanes) < precision:
        raise ArithmeticError("internal precision bookkeeping fell short")
    if lanes[0] != 1:
        raise ArithmeticError(f"expansion leading coefficient {lanes[0]} is not 1")
    if offset != quotient.leading_exponent():
        raise ArithmeticError(f"expansion offset {offset} is not the leading exponent")
    return FracQSeries(offset, step, lanes, growth)


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


def _tail_bound(a: float, alpha: float, r: float, scale: float, start: int) -> float:
    """Upper bound for A*scale*sum_{k >= start} (1+k)^alpha r^k, 0 <= r < 1.

    Split r^k = r^(k/10) * r^(9k/10); the polynomial-times-r^(k/10) factor is
    maximized in closed form and the rest is geometric.  A scale or a peak
    past float range leaves the tail unbounded, as r >= 1 does.
    """
    if scale == math.inf:
        return math.inf
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


def _tail_factors(series: FracQSeries, im_tau: float) -> tuple[float, float, float, float]:
    """(A, alpha, r, scale) of ``_tail_bound`` for ``series`` at Im(tau) =
    im_tau, the same for every longer expansion; scale is inf past float
    range."""
    a, alpha = series.growth
    r = math.exp(-2.0 * math.pi * im_tau * float(series.step))
    try:
        scale = math.exp(-2.0 * math.pi * im_tau * float(series.offset))
    except OverflowError:
        scale = math.inf
    return a, alpha, r, scale


def _series_tail_bound(series: FracQSeries, im_tau: float, start: int) -> float:
    """Tail bound from term ``start`` on, for this or a longer expansion."""
    return _tail_bound(*_tail_factors(series, im_tau), start)


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
    suites print the same residuals.  The loop reads, cached with the series,
    (float(offset) + k * float(step), k, float(c), abs(float(c))) per term.
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
    # Invariants of the term loop, grouped as (-2 pi v) * x and
    # (2j pi) * phase: the grouping fixes every rounding.
    rate = -(2.0 * math.pi) * v
    turn = 2j * math.pi
    exp, cexp = math.exp, cmath.exp
    total = 0j
    absmass = 0.0
    try:
        if series._points is None:
            off_f, step_f = float(off), float(step)
            terms = series.support()
            series._points = tuple((off_f + k * step_f, k, cf, abs(cf)) for k, _, cf in terms)
        for x, k, cf, acf in series._points:
            decay = exp(rate * x)
            if decay == 0.0:
                break
            phase = (a + k * b) % den / den
            total += cf * decay * cexp(turn * phase)
            absmass += acf * decay
        if absmass == math.inf:
            raise OverflowError
    except OverflowError:
        raise PrecisionError(f"a term of the series at Im(tau) = {v} is past float range") from None
    bound = _series_tail_bound(series, v, series.precision)
    bound += 64.0 * 2.220446049250313e-16 * (absmass + abs(total))
    return EvalResult(total, bound)
