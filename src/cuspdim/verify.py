"""Randomized and exhaustive verification suites behind the CLI verify
command: the eta transformation law, cocycle identities, level characters,
series identities, and the bound bookkeeping of the classifier.

Each suite returns a SuiteResult with preformatted per-check lines so the
CLI can stream them; failures are counted, never raised, so a suite always
reports the full picture.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .classify import _bound_24ths
from . import gamma0
from .exact import _check_int, _check_tolerance, divisors
from .gamma0 import UnimodularMatrix, _divisor_classes, _profile_window
from .multiplier import (
    AutomorphyContext,
    gamma0_character,
    verify_cocycle,
    verify_transformation,
)
from .qseries import (
    EtaQuotient, PrecisionError, eta_cubed, eta_expansion, eta_quotient_expansion, unary_theta,
)

__all__ = [
    "SuiteResult",
    "character_suite",
    "cocycle_suite",
    "eta_law_suite",
    "euler_identity_suite",
    "random_level_element",
    "random_unimodular",
    "rr_identity_suite",
]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: int
    worst_residual: float | None
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        worst = "" if self.worst_residual is None else f" worst={self.worst_residual:.3e}"
        verdict = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {self.checks} checks, {self.failures} failures{worst} {verdict}"

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "ok": self.ok,
            "lines": list(self.lines),
        }


def _build_row(c: int, d: int, b_for_zero_c: int) -> UnimodularMatrix:
    if c == 0:
        # gcd(0, d) = 1 forces d = +-1; determinant d*d = 1 either way.
        return UnimodularMatrix(d, b_for_zero_c, 0, d)
    m = abs(c)
    a = 0 if m == 1 else pow(d, -1, m)
    if a > m - a:
        a -= m
    return UnimodularMatrix(a, (a * d - 1) // c, c, d)


def random_unimodular(rng: random.Random, entry_bound: int = 50) -> UnimodularMatrix:
    """Uniform-ish determinant-one matrix with all four entries bounded by
    entry_bound (bottom row uniform over coprime pairs in the box; the top
    row is the minimal completion, which stays inside the box)."""
    # A coprime pair exists in the box only from entry_bound 1 on.
    _check_int(entry_bound, "entry bound")
    # Level 1 with bottom-left multiples up to entry_bound: the same draws.
    return random_level_element(rng, 1, entry_bound, entry_bound)


def random_level_element(
    rng: random.Random, n: int, multiple_bound: int = 3, entry_bound: int = 50
) -> UnimodularMatrix:
    """Random element of the level-n group: bottom-left entry a small
    multiple of n, bottom-right bounded by entry_bound.

    The stream is pinned: each entry is drawn as ``rng.randint(-b, b)``
    would draw it, so a seed selects the same matrices on every supported
    Python (``test_random_draws_follow_the_randint_stream``)."""
    _check_int(n, "level")
    _check_int(multiple_bound, "multiple bound", 0)
    _check_int(entry_bound, "entry bound")
    # randint(-b, b) is -b + randrange(2b + 1), and randrange(s) reads
    # getrandbits(s.bit_length()) until the value is below s.
    getrandbits = rng.getrandbits
    c_span = 2 * multiple_bound + 1
    d_span = 2 * entry_bound + 1
    c_bits = c_span.bit_length()
    d_bits = d_span.bit_length()
    while True:
        c = getrandbits(c_bits)
        if c >= c_span:
            # Redrawing c first is exactly randrange's rejection loop.
            continue
        d = getrandbits(d_bits)
        while d >= d_span:
            d = getrandbits(d_bits)
        c = n * (c - multiple_bound)
        d -= entry_bound
        if math.gcd(c, d) == 1:
            b = getrandbits(d_bits)
            while b >= d_span:
                b = getrandbits(d_bits)
            return _build_row(c, d, b - entry_bound)


def _fmt_tau(tau: complex) -> str:
    return f"{tau.real:+.6f}{tau.imag:+.6f}i"


def eta_law_suite(
    samples: int = 1000,
    entry_bound: int = 50,
    tolerance: float = 1e-9,
    seed: int = 0,
) -> SuiteResult:
    """Numeric check of eta(gamma tau) * eps(gamma) * j(gamma, tau)^(1/2)
    = eta(tau) over random matrices and base points.  A sample no precision
    certifies is a failure without a residual; worst_residual is None if all are."""
    _check_int(samples, "samples")
    _check_int(entry_bound, "entry bound")
    _check_tolerance(tolerance)
    rng = random.Random(seed)
    ctx = AutomorphyContext(weight=Fraction(1, 2), eta_power=1)
    lines = []
    failures = 0
    residuals = []
    for _ in range(samples):
        gamma = random_unimodular(rng, entry_bound)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        try:
            check = verify_transformation(eta_expansion, ctx, gamma, tau, tolerance)
        except PrecisionError as exc:
            failures += 1
            lines.append(f"{gamma} tau={_fmt_tau(tau)} uncertified: {exc} FAIL")
            continue
        residuals.append(check.residual)
        failures += 0 if check.ok else 1
        lines.append(
            f"{gamma} tau={_fmt_tau(tau)} residual={check.residual:.3e} "
            f"bound={check.bound:.3e} {'PASS' if check.ok else 'FAIL'}"
        )
    return SuiteResult("eta-law", samples, failures, max(residuals, default=None), tuple(lines))


def cocycle_suite(
    samples: int = 1000,
    entry_bound: int = 50,
    tolerance: float = 1e-10,
    seed: int = 0,
    tau: complex = 1j,
) -> SuiteResult:
    """Cocycle and minus-identity consistency of the weight-1/2 eta system
    at random matrix pairs."""
    _check_int(samples, "samples")
    _check_int(entry_bound, "entry bound")
    _check_tolerance(tolerance)
    rng = random.Random(seed)
    ctx = AutomorphyContext(weight=Fraction(1, 2), eta_power=1)
    lines = []
    failures = 0
    worst = 0.0
    for _ in range(samples):
        g1 = random_unimodular(rng, entry_bound)
        g2 = random_unimodular(rng, entry_bound)
        check = verify_cocycle(ctx, g1, g2, tau)
        residual = max(check.residual, check.consistency_residual)
        worst = max(worst, residual)
        ok = residual <= tolerance
        failures += 0 if ok else 1
        lines.append(
            f"{g1} {g2} tau={_fmt_tau(tau)} residual={check.residual:.3e} "
            f"consistency={check.consistency_residual:.3e} {'PASS' if ok else 'FAIL'}"
        )
    return SuiteResult("cocycle", samples, failures, worst, tuple(lines))


def _skip_pair_draws(rng: random.Random, k: int) -> None:
    """Advance rng exactly as two ``rng.choices(range(pool), k=k)`` calls
    would.  An unweighted draw calls ``random()`` once, which reads two
    32-bit Mersenne Twister words, and ``getrandbits(32 * j)`` reads j
    words, so 2k draws are 128k bits."""
    rng.getrandbits(128 * k)


def _pair_failures(rows: list[tuple[int, int, int, int]], m: int) -> list[bool]:
    # Whether c1*d1 + c2*d2 - c3*d3 != 0 mod m for each ordered pair of rows,
    # left row outer, where (c3, d3) = (c1*a2 + d1*c2, c1*b2 + d1*d2) is the
    # product's bottom row.  As polynomials in the eight entries,
    #   c1*d1 + c2*d2 - c3*d3 = x*alpha + u*beta + w*gamma,
    # with (x, u, w) = (c1*d1, c1^2, 1 - d1^2) from the left row and
    # (alpha, beta, gamma) = (1 - a2*d2 - b2*c2, -a2*b2, c2*d2) from the right,
    # so each triple is reduced mod m once, for any integer rows.
    left = [(c * d % m, c * c % m, (1 - d * d) % m) for _, _, c, d in rows]
    right = [((1 - a * d - b * c) % m, -a * b % m, c * d % m) for a, b, c, d in rows]
    return [(x * al + u * be + w * ga) % m != 0 for x, u, w in left for al, be, ga in right]


def character_suite(
    n_max: int = 60,
    pairs_per_level: int = 10_000,
    kernel_samples: int = 200,
    pool_size: int = 64,
    seed: int = 0,
) -> SuiteResult:
    """Exact homomorphism and kernel checks for the level characters
    e(-c*d/(n*h)), over every (n, h) with n <= n_max and h | gcd(n, 12).

    The bulk check uses the integer reduction of the phase identity: the
    character multiplies by adding exponent numerators, so the homomorphism
    statement for a pair is exactly c1*d1 + c2*d2 = c3*d3 mod n*h, where
    (c3, d3) is the product's bottom row.  It is evaluated once for each
    ordered pair of the level's pool, and a failing pair counts once for each
    time it is drawn.  The pairs_per_level draws are read only when some
    pair fails; otherwise they would add nothing, and the generator is
    advanced past them in one step (``_skip_pair_draws``), so every later
    (n, h) sees the same pool and samples either way.  The first few pairs
    per (n, h) additionally run through the public phase API and must agree
    with the reduction.  An API pair with an element outside the level-n
    group, or a kernel sample outside the level-(n*h) group, counts as a
    failure; it never reaches the phase API, which would raise.
    """
    _check_int(n_max, "largest level")
    _check_int(pairs_per_level, "pairs per level")
    _check_int(kernel_samples, "kernel samples")
    _check_int(pool_size, "pool size")
    rng = random.Random(seed)
    lines = []
    failures = 0
    checks = 0
    api_pairs = 50
    slots = range(pool_size)
    for n in range(1, n_max + 1):
        for h in divisors(math.gcd(n, 12)):
            m = n * h
            pool = [random_level_element(rng, n) for _ in range(pool_size)]
            rows = [(g.a, g.b, g.c, g.d) for g in pool]
            bad = 0
            firsts = list(zip(rng.choices(pool, k=api_pairs), rng.choices(pool, k=api_pairs)))
            for g1, g2 in firsts:
                if g1.c % n or g2.c % n:
                    bad += 1
                    continue
                prod = g1 * g2
                phase_law = gamma0_character(n, h, g1) * gamma0_character(n, h, g2)
                api_ok = phase_law == gamma0_character(n, h, prod)
                int_ok = (g1.c * g1.d + g2.c * g2.d - prod.c * prod.d) % m == 0
                if not api_ok or api_ok != int_ok:
                    bad += 1
            pair_bad = _pair_failures(rows, m)
            if any(pair_bad):
                drawn = zip(rng.choices(slots, k=pairs_per_level),
                            rng.choices(slots, k=pairs_per_level))
                bad += sum(pair_bad[i * pool_size + j] for i, j in drawn)
            else:
                _skip_pair_draws(rng, pairs_per_level)
            kernel_bad = 0
            for _ in range(kernel_samples):
                g = random_level_element(rng, m)
                if g.c % m or not gamma0_character(n, h, g).is_one:
                    kernel_bad += 1
            checks += api_pairs + pairs_per_level + kernel_samples
            failures += bad + kernel_bad
            status = "PASS" if bad == 0 and kernel_bad == 0 else "FAIL"
            lines.append(
                f"n={n} h={h} pairs={api_pairs + pairs_per_level} "
                f"kernel_samples={kernel_samples} {status}"
            )
    return SuiteResult("character", checks, failures, None, tuple(lines))


def euler_identity_suite(depth: int = 200) -> SuiteResult:
    """Exact coefficient identities tying the theta route to the product
    route: the cube of eta matches the signed-odd-square theta sum, the
    (2,1) theta series is that same object, and the one-factor eta quotient
    of exponent 3 expands to it as well.

    Not every line is a separate check.  ``cube-vs-theta`` repeats the check
    ``eta_cubed`` makes when it is built, which covers depths up to 1024.
    ``eta_cubed-vs-theta`` compares ``unary_theta(2, 1, depth)`` with itself,
    because ``eta_cubed`` returns that cached series; it can fail only by
    raising, through ``eta_cubed``'s own check.  ``eta-quotient-1:3-vs-eta_cubed``
    is the one line that reaches other code: the grid and precision
    bookkeeping of ``eta_quotient_expansion``."""
    _check_int(depth, "depth")
    lines = []
    failures = 0
    cube = eta_expansion(depth) ** 3
    theta = unary_theta(2, 1, depth)
    same_cube = cube.offset == theta.offset and cube.coeffs[:depth] == theta.coeffs[:depth]
    failures += 0 if same_cube else 1
    lines.append(
        f"cube-vs-theta depth={depth} {'PASS' if same_cube else 'FAIL'}"
    )
    built = eta_cubed(depth)
    same_built = built == theta.truncate(depth)
    failures += 0 if same_built else 1
    lines.append(f"eta_cubed-vs-theta depth={depth} {'PASS' if same_built else 'FAIL'}")
    quotient = eta_quotient_expansion(EtaQuotient(1, {1: 3}), depth)
    same_quot = quotient.offset == built.offset and quotient.coeffs[:depth] == built.coeffs[:depth]
    failures += 0 if same_quot else 1
    lines.append(f"eta-quotient-1:3-vs-eta_cubed depth={depth} {'PASS' if same_quot else 'FAIL'}")
    return SuiteResult("euler-identity", 3, failures, None, tuple(lines))


def _divisor_window(lo: int, hi: int):
    """Yield (n, divisors of n, unsorted) for lo <= n <= hi in turn, block
    by block of ``gamma0._SIEVE_BLOCK`` levels: each d up to the isqrt of
    the block's last level is paired with n // d at every multiple n >= d^2
    of d in the block.  Nothing is factored."""
    for start in range(lo, hi + 1, gamma0._SIEVE_BLOCK):
        stop = min(start + gamma0._SIEVE_BLOCK, hi + 1)
        divs = [[] for _ in range(start, stop)]
        for d in range(1, math.isqrt(stop - 1) + 1):
            first = start + -start % d
            if first >= stop:
                continue
            if first <= d * d:
                first = d * d
                divs[first - start].append(d)
                first += d
            for ds, q in zip(divs[first - start :: d], itertools.count(first // d)):
                ds += d, q
        yield from zip(range(start, stop), divs)


def rr_identity_suite(n_max: int = 10_000) -> SuiteResult:
    """Exact bookkeeping identities of the classifier bounds for every level
    up to n_max: the strong bound equals divisor degree + 1 - genus, and the
    three bounds are correctly ordered.

    The profiles come from the prime sieve of range scans
    (``_profile_window``), the divisors from ``_divisor_window``, which
    factors nothing.  The strong bound the classifier decides on, in 24ths
    (``_bound_24ths`` of the profile row), folds sum ceil(w/8) from the
    local widths mod 8; the identity recounts the degree as ceil(w/8) - 1
    per class of ``_divisor_classes``, the enumeration ``_cusp_blocks``
    reads.  So a wrong residue of a local width, or a class of width above
    8 lost from or added to the enumeration, fails it.  The genus and the
    elliptic counts are shared with the profile, which checks them.  A
    profile row and a divisor list of different levels, or fewer than
    n_max levels compared, are an internal error.
    """
    _check_int(n_max, "largest level")
    identity_bad = order_bad = compared = 0
    for p, (n, divs) in zip(_profile_window(1, n_max), _divisor_window(1, n_max)):
        if p[0] != n:
            raise ArithmeticError(f"profile row of level {p[0]} met the divisors of level {n}")
        compared += 1
        classes = _divisor_classes(n, divs)
        deg = sum(len(residues) * (-(-w // 8) - 1) for _, _, w, residues in classes if w > 8)
        crude, weak, strong = _bound_24ths(p)
        _, _, _, _, _, genus, _ = p
        identity_bad += strong != 24 * (deg + 1 - genus)
        order_bad += not crude <= weak <= strong
    if compared != n_max:
        raise ArithmeticError(f"compared {compared} of the {n_max} levels")
    lines = (
        f"strong-bound-identity n<={n_max} failures={identity_bad} "
        f"{'PASS' if identity_bad == 0 else 'FAIL'}",
        f"bound-ordering n<={n_max} failures={order_bad} "
        f"{'PASS' if order_bad == 0 else 'FAIL'}",
    )
    return SuiteResult("rr-identity", 2 * n_max, identity_bad + order_bad, None, lines)
