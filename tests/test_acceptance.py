"""Acceptance gate: one test per published guarantee of the package.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee. The two heavyweight computations (the timed full classification
scan and the n <= 100000 invariant sweep) run once each in module-scoped
fixtures and are shared by every test that needs them.
"""

import time
from fractions import Fraction

import pytest

from cuspdim import (
    EtaQuotient,
    Verdict,
    bound_crude,
    bound_strong,
    bound_weak,
    character_suite,
    classify,
    classify_range,
    cocycle_suite,
    cusp_rows,
    cusps,
    divisors,
    eta_cubed,
    eta_law_suite,
    eta_quotient_cusp_order,
    eta_quotient_expansion,
    euler_identity_suite,
    factorize,
    group_profile,
    index,
    oracle_cusps,
    pole_divisor,
    unary_theta,
)
from cuspdim.classify import _level_invariants
from cuspdim.gamma0 import _local

from helpers import convolve, eta_product_coefficients, primes

DIM_ONE_LEVELS = (1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23)
DIM_ONE_PRIMES = frozenset({2, 3, 5, 7, 11, 23})


@pytest.fixture(scope="module")
def full_scan():
    """Classify every level up to 10000 from cold caches, timed."""
    for cached in (
        classify,
        _level_invariants,
        group_profile,
        cusps,
        _local,
        factorize,
        divisors,
    ):
        cached.cache_clear()
    start = time.perf_counter()
    report = classify_range(10_000)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def invariant_sweep():
    """One pass over n <= 100000 collecting every invariant violation."""
    width_sum_bad = []
    identity_bad = []
    ordering_bad = []
    for n in range(1, 100_001):
        profile = group_profile(n)
        rows = cusp_rows(n)
        if sum(w for _, _, w in rows) != profile.index:
            width_sum_bad.append(n)
        strong = bound_strong(n)
        # The pole divisor's degree, sum of ceil(w/8) - 1, from the same rows.
        expected = sum(-(-w // 8) - 1 for _, _, w in rows) + 1 - profile.genus
        if strong.denominator != 1 or strong != expected:
            identity_bad.append(n)
        if not bound_crude(n) <= bound_weak(n) <= strong:
            ordering_bad.append(n)
    return width_sum_bad, identity_bad, ordering_bad


def test_criterion_1_full_scan_exact_and_fast(full_scan):
    report, elapsed = full_scan
    assert report.dim_one_levels == DIM_ONE_LEVELS
    assert report.undecided_levels == ()
    for cert in report.certificates:
        if cert.level not in DIM_ONE_LEVELS:
            assert cert.verdict is Verdict.DIM_AT_LEAST_TWO
    assert report.matches_m23() is True
    assert elapsed < 10.0
    print(f"classified 10000 levels in {elapsed:.2f}s, 0 undecided")


def test_criterion_2_prime_levels_match_divisor_rule():
    for p in primes(1000):
        is_dim_one = classify(p).verdict is Verdict.DIM_ONE
        assert is_dim_one == (24 % (p + 1) == 0)
        assert is_dim_one == (p in DIM_ONE_PRIMES)
    print("prime three-way equivalence holds for all p <= 1000")


def test_criterion_3_frozen_invariant_constants():
    assert group_profile(11).genus == 1
    assert group_profile(14).genus == 1
    assert group_profile(15).genus == 1
    assert group_profile(23).genus == 2
    assert group_profile(13).mu2 == 2
    assert group_profile(17).mu2 == 2
    assert group_profile(19).mu2 == 0
    assert group_profile(13).mu3 == 2
    assert group_profile(19).mu3 == 2
    assert group_profile(17).mu3 == 0
    for n in range(1, 9):
        assert pole_divisor(n).degree() == 0
    assert pole_divisor(12).degree() == 1
    assert pole_divisor(20).degree() == 2
    assert pole_divisor(23).degree() == 2
    for p in (3, 5, 7, 11, 23):
        widths = sorted(c.width for c in cusps(4 * p))
        assert widths == sorted([1, 1, 4, p, p, 4 * p])
    print("genus, elliptic counts, divisor degrees, width multisets all exact")


def test_criterion_4_cusp_data_matches_oracle(invariant_sweep):
    for n in range(1, 301):
        formula = sorted(c.width for c in cusps(n))
        brute = sorted(c.width for c in oracle_cusps(n))
        assert formula == brute, f"width multiset mismatch at level {n}"
    width_sum_bad, _, _ = invariant_sweep
    assert width_sum_bad == []
    print("oracle agreement to 300; width sums equal index to 100000")


def test_criterion_5_eta_cube_equals_theta_sum():
    depth = 200
    suite = euler_identity_suite(depth)
    assert suite.ok, suite.summary()
    product = eta_product_coefficients(depth)
    brute_cube = convolve(convolve(product, product, depth), product, depth)
    theta = unary_theta(2, 1, depth)
    cube = eta_cubed(depth)
    assert list(cube.coeffs) == brute_cube
    assert theta.coeffs == cube.coeffs
    assert theta.offset == cube.offset == Fraction(1, 8)
    print(f"first {depth} coefficients agree across all three routes")


def test_criterion_6_transformation_law_suites():
    eta_law = eta_law_suite(samples=1000)
    assert eta_law.ok, eta_law.summary()
    assert eta_law.worst_residual < 1e-9
    cocycle = cocycle_suite(samples=1000)
    assert cocycle.ok, cocycle.summary()
    assert cocycle.worst_residual < 1e-10
    character = character_suite()
    assert character.ok, character.summary()
    print(
        f"eta law worst {eta_law.worst_residual:.3e}, "
        f"cocycle worst {cocycle.worst_residual:.3e}, "
        f"character checks {character.checks}"
    )


def test_criterion_7_bound_identities_hold_everywhere(invariant_sweep):
    _, identity_bad, ordering_bad = invariant_sweep
    assert identity_bad == []
    assert ordering_bad == []
    print("strong-bound identity and bound ordering exact to 100000")


def test_criterion_8_level_23_weight_two_witness(full_scan):
    quotient = EtaQuotient(23, {1: 2, 23: 2})
    level_cusps = cusps(23)
    orders = {c: eta_quotient_cusp_order(quotient, c) for c in level_cusps}
    assert sorted(orders.values()) == [2, 2]
    assert sum(orders.values()) == Fraction(2, 12) * index(23)
    infinity = next(c for c in level_cusps if c.d == 23)
    expansion = eta_quotient_expansion(quotient, 8)
    assert expansion.offset == orders[infinity] == 2
    report, _ = full_scan
    fired = [
        c.level
        for c in report.certificates
        if c.rule == "weight-two-form-excludes-canonical-class"
    ]
    assert fired == [23]
    print("cusp orders (2, 2), total 4, rule fires at level 23 only")
