import ast
import importlib
import inspect
import json
import math
import sys
import textwrap
from fractions import Fraction

import pytest

from cuspdim import (
    ClassificationReport,
    Verdict,
    bound_crude,
    bound_strong,
    bound_weak,
    classify,
    classify_range,
    cusp_count,
    cusps,
    divisors,
    genus,
    index,
    m23_element_orders,
    pole_divisor,
)
from cuspdim.classify import Certificate, _classify_window
from cuspdim.gamma0 import group_profile
from helpers import primes

# The package's ``classify`` attribute is the function, not the module.
classify_module = importlib.import_module("cuspdim.classify")

DIM_ONE_LEVELS = (1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23)


def test_reference_sets():
    assert m23_element_orders() == frozenset(DIM_ONE_LEVELS)


def test_pole_divisor_frozen():
    assert pole_divisor(8).entries == ()
    assert pole_divisor(8).degree() == 0
    d12 = pole_divisor(12)
    assert d12.degree() == 1
    assert [(c.d, m) for c, m in d12.entries] == [(1, 1)]
    d20 = pole_divisor(20)
    assert d20.degree() == 2
    assert [(c.d, m) for c, m in d20.entries] == [(1, 2)]
    d23 = pole_divisor(23)
    assert d23.degree() == 2
    assert [(c.d, m) for c, m in d23.entries] == [(1, 2)]
    assert dict(d23.entries)[cusps(23)[0]] == 2


def test_pole_divisor_api_from_integer_rows():
    # The divisor stores integer rows; what it hands out must be the classes
    # and coefficients ceil(w/8) - 1 that the cusp enumeration gives.
    for n in range(1, 601):
        divisor = pole_divisor(n)
        level_cusps = cusps(n)
        expected = tuple((c, -(-c.width // 8) - 1) for c in level_cusps if c.width > 8)
        assert divisor.entries == expected, n
        support = dict(divisor.entries)
        assert tuple(support) == tuple(c for c, _ in expected), n
        coefficients = dict(expected)
        assert all(support.get(c, 0) == coefficients.get(c, 0) for c in level_cusps), n
        assert divisor.degree() == classify_module._invariants(group_profile(n))[1], n


def test_pole_divisor_degree_zero_exactly_through_eight():
    for n in range(1, 200):
        assert (pole_divisor(n).degree() == 0) == (n <= 8)


def test_bound_values():
    assert bound_strong(1) == 1
    assert bound_strong(9) == 2
    assert bound_strong(13) == 2
    assert bound_strong(23) == 1
    assert bound_weak(1) == Fraction(5, 12)
    assert bound_crude(1) == Fraction(-11, 24)


def test_strong_bound_identity_sampled():
    for n in list(range(1, 300)) + [997, 1024, 5040]:
        assert bound_strong(n) == pole_divisor(n).degree() + 1 - genus(n)
        assert bound_strong(n).denominator == 1


def test_bound_ordering_sampled():
    for n in list(range(1, 300)) + [997, 1024, 5040]:
        assert bound_crude(n) <= bound_weak(n) <= bound_strong(n)


def test_weak_bound_prime_growth():
    # at prime level the weak bound already grows linearly
    for p in primes(1000):
        assert bound_weak(p) >= Fraction(p - 2, 24)


def test_classify_verdicts_frozen():
    for n in range(1, 9):
        c = classify(n)
        assert c.verdict is Verdict.DIM_ONE
        assert c.rule == "empty-pole-divisor"
        assert c.bound == 1
    for n in (11, 14, 15):
        c = classify(n)
        assert c.verdict is Verdict.DIM_ONE
        assert c.rule == "single-simple-pole-positive-genus"
        assert c.genus == 1
        assert c.divisor_degree == 1
    c23 = classify(23)
    assert c23.verdict is Verdict.DIM_ONE
    assert c23.rule == "weight-two-form-excludes-canonical-class"
    assert c23.genus == 2
    assert c23.divisor_degree == 2
    for n in (9, 10, 12, 13, 16, 17, 19, 20, 21, 25, 27, 49):
        c = classify(n)
        assert c.verdict is Verdict.DIM_AT_LEAST_TWO
        assert c.rule == "strong-bound-exceeds-one"
        assert c.bound >= 2


def test_classify_validation():
    classify(1)
    for bad in (0, -7, True, False):
        with pytest.raises(ValueError):
            classify(bad)
        with pytest.raises(ValueError):
            classify_range(bad)


def test_witness_contents():
    w11 = classify(11).witness
    assert w11 == {"support_cusp": "0", "width": 11}
    w23 = classify(23).witness
    assert w23["support_cusp"] == "0"
    assert w23["weight_two_exponents"] == {"1": 2, "23": 2}
    assert w23["cusp_orders"] == {"0": "2", "1/23": "2"}
    assert classify(9).witness is None


def test_certificate_json_is_serializable():
    for n in (1, 9, 11, 23):
        obj = classify(n).to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        assert json.loads(text) == obj
    assert classify(23).to_json_obj()["strong_bound"] == "1"


def test_classify_range_small():
    report = classify_range(30)
    assert report.n_max == 30
    assert len(report.certificates) == 30
    assert report.dim_one_levels == DIM_ONE_LEVELS
    assert report.undecided_levels == ()
    assert report.matches_m23() is True


def test_matches_reference_needs_coverage():
    assert classify_range(20).matches_m23() is None
    assert classify_range(23).matches_m23() is True


def test_window_matches_point_queries(monkeypatch):
    # A window of at least isqrt(hi) levels is read from the profile sieve;
    # a narrower one is factored by factorize and built by _profile, level
    # by level; both must give what classify(n) and group_profile(n) give.
    gamma0 = importlib.import_module("cuspdim.gamma0")
    factored = []
    real = gamma0._profile

    def spy(n, factors):
        factored.append(n)
        return real(n, factors)

    monkeypatch.setattr(gamma0, "_profile", spy)
    windows = {
        (1, 3000): True,
        (10**7, 10**7 + 3200): True,
        (10**9, 10**9 + 500): False,
        (10**6 + 3, 10**6 + 3): False,
        (10**18, 10**18 + 2): False,
    }
    for (lo, hi), uses_sieve in windows.items():
        factored.clear()
        window = list(_classify_window(lo, hi))
        levels = range(lo, hi + 1)
        assert factored == ([] if uses_sieve else list(levels)), (lo, hi)
        assert [c for c, _ in window] == [classify(n) for n in levels], (lo, hi)
        assert [p for _, p in window] == [group_profile(n) for n in levels], (lo, hi)
    report = classify_range(3000)
    assert report.certificates == tuple(classify(n) for n in range(1, 3001))


@pytest.mark.parametrize("block", [97, 1 << 14])
def test_sieve_matches_point_queries_at_its_edges(monkeypatch, block):
    # Below 9 the prime left of a level can be 2 or 3; with a small block the
    # windows cross block edges, and near 10^6 and 10^9 the sieved primes
    # reach 1000 and 31622, above the trial bound of factorize.
    monkeypatch.setattr(importlib.import_module("cuspdim.gamma0"), "_SIEVE_BLOCK", block)
    windows = [(1, 3), (2, 8), (4, 8), (1, 1200), (999_000, 1_001_000)]
    if block == 1 << 14:
        windows.append((10**9 - 16_000, 10**9 + 15_623))
    for lo, hi in windows:
        assert math.isqrt(hi) <= hi - lo + 1
        window = list(_classify_window(lo, hi))
        assert [p for _, p in window] == [group_profile(n) for n in range(lo, hi + 1)], (lo, hi)
        assert [c for c, _ in window] == [classify(n) for n in range(lo, hi + 1)], (lo, hi)


def test_certificates_carry_the_integer_bound():
    # The strong bound is one integer from the sieve (classify_range) and
    # from the point queries (a narrow window) to the certificate; only
    # bound_strong hands it out as a Fraction.
    for certificates in (
        classify_range(3000).certificates,
        [Certificate._make(c) for c, _ in _classify_window(999_000, 999_100)],
    ):
        for c in certificates:
            assert type(c.bound) is int, c.level
            assert c.bound == bound_strong(c.level), c.level


def test_records_are_immutable():
    for record, field in ((group_profile(23), "genus"), (classify(23), "bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_divisor_monotonicity():
    # a one-dimensional level forces one dimension at every divisor level
    for n in range(1, 2000):
        if classify(n).verdict is Verdict.DIM_ONE:
            for m in divisors(n):
                assert classify(m).verdict is Verdict.DIM_ONE


def test_rules_fired_in_range():
    report = classify_range(3000)
    by_rule = {}
    for c in report.certificates:
        by_rule.setdefault(c.rule, []).append(c.level)
    assert by_rule["empty-pole-divisor"] == list(range(1, 9))
    assert by_rule["single-simple-pole-positive-genus"] == [11, 14, 15]
    assert by_rule["weight-two-form-excludes-canonical-class"] == [23]
    assert len(by_rule["strong-bound-exceeds-one"]) == 3000 - 12
    assert set(by_rule) <= {
        "empty-pole-divisor",
        "single-simple-pole-positive-genus",
        "weight-two-form-excludes-canonical-class",
        "strong-bound-exceeds-one",
    }


def test_weight_two_exclusion_is_gated_by_its_preconditions(monkeypatch):
    # The rule fires wherever its witness exists, not at one named level:
    # level 23's profile, relabelled as level 47, reaches it unchanged.
    relabelled = group_profile(23)._replace(level=47)
    witness = {"support_cusp": "0"}
    monkeypatch.setattr(classify_module, "_weight_two_exclusion", lambda p: witness)
    cert = Certificate._make(classify_module._decide(relabelled))
    assert (cert.level, cert.verdict, cert.witness) == (47, Verdict.DIM_ONE, witness)
    assert cert.rule == "weight-two-form-excludes-canonical-class"


def _exclusion_guard(profile):
    """Run ``_weight_two_exclusion`` on profile under a line trace; return
    its result and which of its ``return None`` statements ran (0 for the
    first in the source), or None if none did."""
    func = classify_module._weight_two_exclusion
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    guards = sorted(
        func.__code__.co_firstlineno + node.lineno - 1
        for node in ast.walk(tree)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and node.value.value is None
    )
    assert len(guards) == 6
    lines = []

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.append(frame.f_lineno)
        return trace_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is func.__code__ else None)
    try:
        result = func(profile)
    finally:
        sys.settrace(previous)
    return result, guards.index(lines[-1]) if lines[-1] in guards else None


def _orders_at(orders):
    """A stand-in for ``eta_quotient_cusp_order`` reading orders by (a, d)."""
    return lambda quotient, c: Fraction(orders[c.a, c.d])


# Level 23's support cusp is 0 = 0/1 (width 23) and its other cusp is
# infinity = 1/23; the real witness has order 2 at both.  The case ids are
# the ones these cases had when the rule also checked the quotient's weight
# and the differential's degree, so each case keeps its name.
@pytest.mark.parametrize("level, patches, guard", [
    pytest.param(11, {}, 0, id="11-patches0-0"),  # genus 1
    pytest.param(26, {}, 0, id="26-patches1-0"),  # mu2 = 2
    pytest.param(22, {}, 1, id="22-patches2-1"),  # two support cusps, widths 22 and 11
    # One support cusp, of multiplicity ceil(28/8) - 1 = 3.
    pytest.param(28, {}, 2, id="28-patches3-2"),
    pytest.param(23, {"eta_quotient_cusp_order": _orders_at({(0, 1): Fraction(5, 2), (1, 23): 2})},
                 3, id="23-patches5-4"),
    pytest.param(23, {"eta_quotient_cusp_order": _orders_at({(0, 1): 4, (1, 23): 0})},
                 3, id="23-patches6-4"),
    pytest.param(23, {"eta_quotient_cusp_order": _orders_at({(0, 1): 2, (1, 23): 3})},
                 4, id="23-patches7-5"),
    # The differential vanishes doubly at infinity, not simply at the support.
    pytest.param(23, {"eta_quotient_cusp_order": _orders_at({(0, 1): 1, (1, 23): 3})},
                 5, id="23-patches9-7"),
])
def test_weight_two_exclusion_guards(monkeypatch, level, patches, guard):
    # Each precondition of the genus-two endgame refuses on its own: at a
    # real level where one exists, else with one input of the rule replaced.
    for name, value in patches.items():
        monkeypatch.setattr(classify_module, name, value)
    assert _exclusion_guard(group_profile(level)) == (None, guard)


def test_weight_two_exclusion_witness_runs_no_guard():
    witness, guard = _exclusion_guard(group_profile(23))
    assert guard is None and witness["support_cusp"] == "0"


def test_cusp_count_closed_form_and_ratio_growth():
    # The facts the classify module docstring rests on: at p^e the cusp
    # count is 2 p^f (e = 2f + 1) or p^f + p^(f-1) (e = 2f), so index/cusps
    # starts at (p+1)/2 and never decreases with e.
    for p in primes(50):
        previous = Fraction(p + 1, 2)
        for e in range(1, 9):
            f = e // 2
            expected = 2 * p**f if e % 2 else p**f + p ** (f - 1)
            assert cusp_count(p**e) == expected
            ratio = Fraction(index(p**e), cusp_count(p**e))
            assert ratio >= previous
            previous = ratio


def _levels_with_few_cosets_per_cusp():
    """Every level with index < 25 * cusps, by depth-first search over prime
    powers in increasing primes.  A branch stops at the first failing
    exponent and a prime loop at the first failing prime: the ratio
    index/cusps is multiplicative and its prime-power factor grows with both
    p and e."""
    found = []

    def extend(n, smallest):
        found.append(n)
        for p in primes(100):
            if p < smallest:
                continue
            m = n * p
            if index(m) >= 25 * cusp_count(m):
                break
            while index(m) < 25 * cusp_count(m):
                extend(m, p + 1)
                m *= p

    extend(1, 2)
    return sorted(found)


def test_strong_bound_leaves_only_m23_orders_open():
    levels = _levels_with_few_cosets_per_cusp()
    assert len(levels) == 137
    assert levels[-1] == 576
    in_range = [n for n in range(1, 3000) if index(n) < 25 * cusp_count(n)]
    assert in_range == levels
    open_levels = {n for n in levels if bound_strong(n) <= 1}
    assert open_levels == m23_element_orders()
    # divisor-closed, so no divisor of an open level is decided by the bound
    for n in open_levels:
        assert set(divisors(n)) <= open_levels


def test_report_tsv_rows():
    report = classify_range(23)
    rows = list(report.to_tsv_rows())
    assert rows[0] == (
        "level",
        "verdict",
        "rule",
        "strong_bound",
        "genus",
        "divisor_degree",
        "witness_level",
    )
    assert len(rows) == 24
    assert rows[1][0] == "1"
    assert rows[23][1] == "DimOne"


def test_report_json():
    report = classify_range(25)
    obj = report.to_json_obj()
    assert obj["range"] == [1, 25]
    assert obj["matches_m23_element_orders"] is True
    assert obj["dim_one_levels"] == list(DIM_ONE_LEVELS)
    assert obj["undecided_levels"] == []
    assert len(obj["certificates"]) == 25
    json.dumps(obj)


def test_verdict_enum_values():
    assert Verdict.DIM_ONE.value == "DimOne"
    assert Verdict.DIM_AT_LEAST_TWO.value == "DimAtLeastTwo"
    assert Verdict.UNDECIDED.value == "Undecided"
