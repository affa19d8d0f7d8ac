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
import struct
from fractions import Fraction
from typing import NamedTuple

from .classify import _bound_24ths
from . import gamma0
from .exact import _check_int, _check_tolerance, divisors
from .gamma0 import UnimodularMatrix, _divisor_classes, _profile_window
from .multiplier import (
    AutomorphyContext,
    _character_phase,
    _check_character,
    verify_cocycle,
    verify_transformation,
)
from .qseries import (
    EtaQuotient, PrecisionError, eta_expansion, eta_quotient_expansion, unary_theta,
)

__all__ = [
    "SuiteResult",
    "character_suite",
    "cocycle_suite",
    "eta_law_suite",
    "euler_identity_suite",
    "rr_identity_suite",
]


class SuiteResult(NamedTuple):
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


def _draw_level_element(
    getrandbits, n: int, multiple_bound: int = 3, entry_bound: int = 50
) -> UnimodularMatrix:
    """Random element of the level-n group from the generator's
    ``getrandbits``: bottom-left entry n times a multiple up to
    multiple_bound, bottom-right up to entry_bound, the top row the minimal
    completion.  At level 1 with multiple_bound = entry_bound all four
    entries stay in the box.  Nothing is checked: each suite checks its
    arguments once and draws with constant bounds.

    The stream is pinned: each entry is drawn as ``rng.randint(-b, b)``
    would draw it, so a seed selects the same matrices on every supported
    Python (``test_random_draws_follow_the_randint_stream``)."""
    # randint(-b, b) is -b + randrange(2b + 1), and randrange(s) reads
    # getrandbits(s.bit_length()) until the value is below s.
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


def eta_law_suite(samples: int = 1000, tolerance: float = 1e-9, seed: int = 0) -> SuiteResult:
    """Numeric check of eta(gamma tau) * eps(gamma) * j(gamma, tau)^(1/2)
    = eta(tau) over random matrices with entries up to 50 and random base
    points.  A sample no precision certifies is a failure without a
    residual; worst_residual is None if all are."""
    _check_int(samples, "samples")
    _check_tolerance(tolerance)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    ctx = AutomorphyContext(weight=Fraction(1, 2), eta_power=1)
    lines = []
    failures = 0
    residuals = []
    for _ in range(samples):
        gamma = _draw_level_element(getrandbits, 1, 50, 50)
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


def cocycle_suite(samples: int = 1000, tolerance: float = 1e-10, seed: int = 0) -> SuiteResult:
    """Cocycle and minus-identity consistency of the weight-1/2 eta system
    at tau = i and random pairs of matrices with entries up to 50."""
    _check_int(samples, "samples")
    _check_tolerance(tolerance)
    getrandbits = random.Random(seed).getrandbits
    ctx = AutomorphyContext(weight=Fraction(1, 2), eta_power=1)
    tau = 1j
    lines = []
    failures = 0
    worst = 0.0
    for _ in range(samples):
        g1 = _draw_level_element(getrandbits, 1, 50, 50)
        g2 = _draw_level_element(getrandbits, 1, 50, 50)
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


def _pair_failures(rows: list[tuple[int, int, int, int]], m: int) -> set[int]:
    """Indices i * len(rows) + j of the ordered pairs of rows (a, b, c, d),
    left row i, such as matrices, with c1*d1 + c2*d2 - c3*d3 != 0 mod m,
    where (c3, d3) = (c1*a2 + d1*c2, c1*b2 + d1*d2) is the product's bottom
    row.  As polynomials in the eight entries that is x*alpha + u*beta +
    w*gamma, with (x, u, w) = (c1*d1, c1^2, 1 - d1^2) from the left row and
    (alpha, beta, gamma) = (1 - a2*d2 - b2*c2, -a2*b2, c2*d2) from the right,
    each triple reduced mod m once, for any integer rows.  The right triples
    are packed into three ints R0, R1, R2 of one lane per row, so one
    x*R0 + u*R1 + w*R2 holds all pairs of a left row.  A lane is at most
    3(m - 1)^2: 32-bit lanes while that is below 2^32, 64-bit lanes below
    2^64, and a larger m is refused."""
    top = 3 * (m - 1) ** 2
    if top >> 64:
        raise ValueError(f"modulus {m} is too large for 64-bit lanes")
    count = len(rows)
    fmt = f"<{count}{'I' if top >> 32 == 0 else 'Q'}"
    nbytes = struct.calcsize(fmt)
    left = [(c * d % m, c * c % m, (1 - d * d) % m) for _, _, c, d in rows]
    right = [((1 - a * d - b * c) % m, -a * b % m, c * d % m) for a, b, c, d in rows]
    r0, r1, r2 = (int.from_bytes(struct.pack(fmt, *lanes), "little") for lanes in zip(*right))
    multiples = frozenset(range(0, top + 1, m))
    failing = set()
    for i, (x, u, w) in enumerate(left):
        lanes = struct.unpack(fmt, (x * r0 + u * r1 + w * r2).to_bytes(nbytes, "little"))
        if not multiples.issuperset(lanes):
            failing.update(i * count + j for j, v in enumerate(lanes) if v % m)
    return failing


def character_suite(
    n_max: int = 60,
    pairs_per_level: int = 10_000,
    kernel_samples: int = 200,
    seed: int = 0,
) -> SuiteResult:
    """Exact homomorphism and kernel checks for the level characters
    e(-c*d/(n*h)), over every (n, h) with n <= n_max and h | gcd(n, 12).

    The bulk check uses the integer reduction of the phase identity: the
    character multiplies by adding exponent numerators, so the homomorphism
    statement for a pair is exactly c1*d1 + c2*d2 = c3*d3 mod n*h, where
    (c3, d3) is the product's bottom row.  It is evaluated once for each
    ordered pair of the level's pool of 64 draws, by one packed product per
    pool row (``_pair_failures``), and a failing pair counts once for each
    time it is drawn.  The pairs_per_level draws are read only when some
    pair fails; otherwise they would add nothing, and the generator is
    advanced past them in one step (``_skip_pair_draws``), so every later
    (n, h) sees the same pool and samples either way.  The first few pairs
    per (n, h) additionally run through the phase and must agree with the
    reduction.  (n, h) is checked once, as ``gamma0_character`` checks it;
    the API pairs and the kernel samples then call the phase kernel behind
    it.  An API pair with an element outside the level-n group, or a kernel
    sample outside the level-(n*h) group, counts as a failure; it never
    reaches the phase, which would raise.
    """
    _check_int(n_max, "largest level")
    _check_int(pairs_per_level, "pairs per level")
    _check_int(kernel_samples, "kernel samples")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    lines = []
    failures = 0
    checks = 0
    api_pairs = 50
    pool_size = 64
    slots = range(pool_size)
    for n in range(1, n_max + 1):
        for h in divisors(math.gcd(n, 12)):
            _check_character(n, h)
            m = n * h
            pool = [_draw_level_element(getrandbits, n) for _ in range(pool_size)]
            bad = 0
            firsts = list(zip(rng.choices(pool, k=api_pairs), rng.choices(pool, k=api_pairs)))
            for g1, g2 in firsts:
                if g1.c % n or g2.c % n:
                    bad += 1
                    continue
                prod = g1 * g2
                phase_law = _character_phase(n, h, g1) * _character_phase(n, h, g2)
                api_ok = phase_law == _character_phase(n, h, prod)
                int_ok = (g1.c * g1.d + g2.c * g2.d - prod.c * prod.d) % m == 0
                if not api_ok or api_ok != int_ok:
                    bad += 1
            pair_bad = _pair_failures(pool, m)
            if pair_bad:
                drawn = zip(rng.choices(slots, k=pairs_per_level),
                            rng.choices(slots, k=pairs_per_level))
                bad += sum(i * pool_size + j in pair_bad for i, j in drawn)
            else:
                _skip_pair_draws(rng, pairs_per_level)
            kernel_bad = 0
            for _ in range(kernel_samples):
                g = _draw_level_element(getrandbits, m)
                if g.c % m or not _character_phase(n, h, g).is_one:
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
    routes, each line one route against ``unary_theta(2, 1, depth)``, the
    signed-odd-square theta sum: ``cube-vs-theta`` cubes the pentagonal
    product of ``eta_expansion``, and ``eta-quotient-1:3-vs-theta`` expands
    the one-factor eta quotient of exponent 3 through the grid and precision
    bookkeeping of ``eta_quotient_expansion``.  A line compares offset, grid
    step and the first depth coefficients."""
    _check_int(depth, "depth")
    theta = unary_theta(2, 1, depth)
    same = {
        "cube-vs-theta": eta_expansion(depth) ** 3 == theta,
        "eta-quotient-1:3-vs-theta": eta_quotient_expansion(EtaQuotient(1, {1: 3}), depth) == theta,
    }
    lines = tuple(f"{name} depth={depth} {'PASS' if ok else 'FAIL'}" for name, ok in same.items())
    return SuiteResult("euler-identity", len(same), list(same.values()).count(False), None, lines)


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
