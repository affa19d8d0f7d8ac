"""Eta multiplier system, level characters, half-integral automorphy factors,
and numeric verification of the transformation law satisfied by eta powers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact import PHASE_ONE, UnitPhase, _check_int, _check_tau, _check_tolerance, _dedekind_12c
from .gamma0 import UnimodularMatrix
from .qseries import PrecisionError, _series_tail_bound, evaluate

__all__ = [
    "AutomorphyContext",
    "CocycleCheck",
    "TransformCheck",
    "eta_multiplier",
    "gamma0_character",
    "j_factor",
    "verify_cocycle",
    "verify_transformation",
]


def j_factor(gamma: UnimodularMatrix, tau: complex, weight) -> complex:
    """(c*tau + d) raised to minus the weight, exp(-w * Log(c*tau + d)) with
    the principal logarithm.

    With this convention the matrix -Id gets the factor e^(-pi*i*w) for every
    tau in the upper half-plane: Log(-1) = +pi*i and the minus sign in the
    exponent flips it.  Half-integral weights therefore pick the branch that
    is consistent with the eta multiplier's behavior under negation.
    """
    tau = _check_tau(tau)
    w = float(weight)
    denom = gamma.c * tau + gamma.d
    return cmath.exp(-w * cmath.log(denom))


def eta_multiplier(gamma: UnimodularMatrix) -> UnitPhase:
    """The 24th root of unity eps(gamma) of the eta transformation law
    eta(gamma tau) = conj(eps(gamma)) * (c tau + d)^(1/2) * eta(tau),
    with the principal square root, 1 / j_factor(gamma, tau, 1/2).

    Upper-triangular with d = 1: e(-b/24).  For c > 0:
    e(-(a + d)/(24 c) + s(d, c)/2 + 1/8) with s the Dedekind sum, taken in
    turns over 24 c: 3 c - (a + d) + 12 c s(d, c) is an integer.  The
    remaining matrices reduce through negation.  The quarter-turn picked up
    depends on where the principal Log places the denominator: for c < 0 it
    sits in the lower half-plane and eps(gamma) = eps(-gamma) * e(-1/4); for
    c = 0, d < 0 it is a negative real, which Log sends to Arg = +pi, and
    eps(gamma) = eps(-gamma) * e(+1/4).  The latter makes eps(-Id) = e(1/4),
    matching e^(pi i w) at w = 1/2 as the cocycle consistency requires.
    """
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    # The quarter turn of the negation, in 24ths.
    quarter = 0
    if c < 0 or (c == 0 and d < 0):
        quarter = -6 if c < 0 else 6
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        # a = d = 1 here since det = 1 and d > 0.
        return UnitPhase(Fraction(quarter - b, 24))
    m = 24 * c
    return UnitPhase(Fraction(((quarter + 3) * c - (a + d) + _dedekind_12c(d, c)) % m, m))


def _check_character(n: int, h: int) -> None:
    """The level-n character with scale h exists when h divides gcd(n, 12)."""
    _check_int(n, "level")
    _check_int(h, "character scale", divides=math.gcd(n, 12))


def gamma0_character(n: int, h: int, gamma: UnimodularMatrix) -> UnitPhase:
    """Character e(-c*d / (n*h)) on the level-n group, defined for h dividing
    gcd(n, 12).  It is a homomorphism and is trivial on the level-(n*h)
    subgroup.

    The value is pinned to the reduced turns -c*d/(n*h) mod 1
    (``test_character_matches_fraction_formula``).  A trivial value, such
    as every value on the kernel, is the shared ``PHASE_ONE``
    (``test_trivial_character_value_is_the_shared_identity``).
    """
    _check_character(n, h)
    if gamma.c % n:
        raise ValueError(f"{gamma} is not in the level-{n} group")
    m = n * h
    residue = -gamma.c * gamma.d % m
    return UnitPhase(Fraction(residue, m)) if residue else PHASE_ONE


@dataclass(frozen=True)
class AutomorphyContext:
    """A weight together with a root-of-unity system: psi(gamma) is the eta
    multiplier raised to eta_power, times the level character when
    character_h is set.
    """

    weight: Fraction
    level: int = 1
    eta_power: int = 0
    character_h: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.character_h is None:
            _check_int(self.level, "level")
        else:
            _check_character(self.level, self.character_h)

    def psi(self, gamma: UnimodularMatrix) -> UnitPhase:
        phase = eta_multiplier(gamma) ** self.eta_power if self.eta_power else PHASE_ONE
        if self.character_h is not None:
            phase = phase * gamma0_character(self.level, self.character_h, gamma)
        return phase


class CocycleCheck(NamedTuple):
    residual: float
    consistency_residual: float


def verify_cocycle(
    context: AutomorphyContext,
    g1: UnimodularMatrix,
    g2: UnimodularMatrix,
    tau: complex,
) -> CocycleCheck:
    """Residuals of the two consistency identities of the automorphy system.

    First: psi(g1) psi(g2) j(g1, g2 tau)^w j(g2, tau)^w must equal
    psi(g1 g2) j(g1 g2, tau)^w.  Second: psi(-Id) must equal e^(pi i w),
    matching the branch picked by ``j_factor`` so that -Id acts trivially.
    """
    w = context.weight
    lhs = (
        context.psi(g1).to_complex()
        * context.psi(g2).to_complex()
        * j_factor(g1, g2.act(tau), w)
        * j_factor(g2, tau, w)
    )
    prod = g1 * g2
    rhs = context.psi(prod).to_complex() * j_factor(prod, tau, w)
    residual = abs(lhs - rhs)

    minus_id = -UnimodularMatrix.identity()
    consistency = abs(
        context.psi(minus_id).to_complex() - cmath.exp(1j * math.pi * float(w))
    )
    return CocycleCheck(residual, consistency)


class TransformCheck(NamedTuple):
    residual: float
    bound: float
    ok: bool
    precision: int


def verify_transformation(
    series,
    context: AutomorphyContext,
    gamma: UnimodularMatrix,
    tau: complex,
    tolerance: float = 1e-9,
) -> TransformCheck:
    """Check f(gamma tau) * psi(gamma) * j(gamma, tau)^weight = f(tau)
    numerically, reporting the residual of that identity.

    ``series`` is either a fixed FracQSeries or a callable precision ->
    FracQSeries.  In the callable case the precision is raised by doubling
    until the certified truncation error at both evaluation points is below
    a tenth of the tolerance; a fixed series that cannot reach that raises
    PrecisionError rather than returning an uncertified comparison.
    """
    _check_tolerance(tolerance)
    tau = _check_tau(tau)
    gt = gamma.act(tau)
    target = tolerance / 10.0

    if callable(series):
        probe = series(1)
        if probe.growth is None:
            raise PrecisionError("series family carries no growth certificate")
        im_min = min(tau.imag, gt.imag)
        precision = 64
        while _series_tail_bound(probe, im_min, precision) > target:
            precision *= 2
            if precision > 1 << 26:
                raise PrecisionError(
                    f"cannot reach tolerance {tolerance} at Im(tau) = {im_min}"
                )
        f = series(precision)
    else:
        f = series

    left = evaluate(f, gt)
    right = evaluate(f, tau)
    if max(left.bound, right.bound) > target and not callable(series):
        raise PrecisionError(
            f"series precision {f.precision} leaves truncation error "
            f"{max(left.bound, right.bound):.3e}, above {target:.3e}"
        )
    factor = context.psi(gamma).to_complex() * j_factor(gamma, tau, context.weight)
    residual = abs(left.value * factor - right.value)
    guarantee = abs(factor) * left.bound + right.bound
    return TransformCheck(residual, guarantee, residual <= tolerance, f.precision)
