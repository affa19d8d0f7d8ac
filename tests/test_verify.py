import importlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cuspdim import exact, gamma0, verify
from cuspdim.cli import main
from cuspdim import (
    AutomorphyContext,
    FracQSeries,
    PrecisionError,
    SuiteResult,
    UnimodularMatrix,
    UnitPhase,
    bound_crude,
    bound_strong,
    bound_weak,
    character_suite,
    cocycle_suite,
    cusp_rows,
    divisors,
    eta_expansion,
    eta_law_suite,
    euler_identity_suite,
    is_member,
    rr_identity_suite,
    verify_transformation,
)

from helpers import corrupt_local_factors

classify_module = importlib.import_module("cuspdim.classify")


def test_level_one_draws_stay_in_box():
    # eta-law and cocycle draw at level 1 with both bounds 50.
    getrandbits = random.Random(30).getrandbits
    for _ in range(500):
        g = verify._draw_level_element(getrandbits, 1, 50, 50)
        assert g.a * g.d - g.b * g.c == 1
        assert max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= 50


def test_level_draws_are_members():
    getrandbits = random.Random(31).getrandbits
    for n in (1, 6, 23, 60):
        for _ in range(100):
            g = verify._draw_level_element(getrandbits, n)
            assert is_member(g, n)


def test_suites_pass_at_reduced_size():
    assert eta_law_suite(samples=50, seed=0).ok
    assert cocycle_suite(samples=50, seed=0).ok
    assert character_suite(n_max=12, pairs_per_level=500, kernel_samples=20).ok
    assert euler_identity_suite(depth=60).ok
    assert rr_identity_suite(n_max=500).ok


def _flip(series, k):
    """``series`` with the sign of its coefficient k flipped."""
    coeffs = list(series.coeffs)
    coeffs[k] = -coeffs[k]
    return FracQSeries(series.offset, series.step, coeffs, series.growth)


def _regrid(series, offset, step):
    return FracQSeries(series.offset + offset, series.step * step, series.coeffs, series.growth)


@pytest.mark.parametrize("name, corrupt, failing", [
    # The pentagonal product with q^(25/24) of the wrong sign.
    ("eta_expansion", lambda real: lambda p: _flip(real(p), 1), {"cube-vs-theta"}),
    # The quotient's grid doubled, or its offset shifted by one.
    ("eta_quotient_expansion", lambda real: lambda q, p: _regrid(real(q, p), 0, 2),
     {"eta-quotient-1:3-vs-theta"}),
    ("eta_quotient_expansion", lambda real: lambda q, p: _regrid(real(q, p), 1, 1),
     {"eta-quotient-1:3-vs-theta"}),
    # The theta sum with q^(1/8) of the wrong sign: both routes disagree with it.
    ("unary_theta", lambda real: lambda ell, r, p: _flip(real(ell, r, p), 0),
     {"cube-vs-theta", "eta-quotient-1:3-vs-theta"}),
], ids=["eta", "quotient-grid", "quotient-offset", "theta"])
def test_each_euler_identity_line_can_fail(monkeypatch, capsys, name, corrupt, failing):
    # Each line compares two routes; a wrong route fails exactly the lines
    # that read it, and the command exits 1.
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    result = euler_identity_suite(depth=64)
    assert {line.split()[0] for line in result.lines if line.endswith(" FAIL")} == failing
    assert result.failures == len(failing) and result.checks == 2
    assert main(["verify", "euler-identity", "--precision", "64"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == list(result.lines)
    assert out.rstrip().endswith("FAIL")


def test_eta_law_counts_uncertified_samples(monkeypatch):
    # A sample no precision certifies is a failure with no residual.
    def uncertified(*args):
        raise PrecisionError("no precision certifies this sample")

    monkeypatch.setattr(verify, "verify_transformation", uncertified)
    r = eta_law_suite(samples=5, seed=0)
    assert (r.checks, r.failures, r.worst_residual, len(r.lines)) == (5, 5, None, 5)
    assert all(
        line.endswith(" uncertified: no precision certifies this sample FAIL") for line in r.lines
    )
    assert "worst=" not in r.summary() and r.summary().endswith(" FAIL")


def test_suites_are_deterministic():
    a = eta_law_suite(samples=20, seed=7)
    b = eta_law_suite(samples=20, seed=7)
    assert a == b
    c = eta_law_suite(samples=20, seed=8)
    assert c.lines != a.lines


def test_suite_result_shape():
    r = eta_law_suite(samples=10, seed=0)
    assert isinstance(r, SuiteResult)
    assert r.name == "eta-law"
    assert r.checks == 10
    assert len(r.lines) == 10
    assert all(line.endswith("PASS") for line in r.lines)
    assert r.worst_residual is not None and r.worst_residual < 1e-9
    assert "PASS" in r.summary()
    obj = r.to_json_obj()
    assert obj["ok"] is True
    assert obj["checks"] == 10


def test_character_suite_line_per_pair():
    r = character_suite(n_max=6, pairs_per_level=50, kernel_samples=5)
    # one line for each (n, h) with h dividing gcd(n, 12)
    expected = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (4, 2), (4, 4),
                (5, 1), (6, 1), (6, 2), (6, 3), (6, 6)]
    assert len(r.lines) == len(expected)
    for line, (n, h) in zip(r.lines, expected):
        assert line.startswith(f"n={n} h={h} ")


def test_rr_suite_counts():
    r = rr_identity_suite(n_max=200)
    assert r.checks == 400
    assert r.failures == 0
    assert len(r.lines) == 2


@pytest.fixture
def cold_profiles():
    """Clear the caches that hold profiles and bounds before and after, so
    corrupted local factors are read afresh and leave nothing behind."""
    caches = (gamma0.group_profile, classify_module._level_invariants, classify_module.classify)

    def clear():
        for cached in caches:
            cached.cache_clear()

    clear()
    yield
    clear()


@pytest.mark.parametrize("change", [
    # The chi_-8 sum negated at primes 3 mod 8.
    lambda p, r: (r[0], r[1], -r[2]) if p % 8 == 3 else r,
    # The chi_-4 sum negated at primes 3 mod 4 (it is 0 at p^1, so only
    # _local at p^e, e >= 2, changes).
    lambda p, r: (r[0], -r[1], r[2]) if p % 4 == 3 else r,
    # Two 2-adic classes of width 8 or more counted as width 4: t = n1 + n2 + n4
    # grows by 2.
    lambda p, r: (r[0] + 2, r[1], r[2]) if p == 2 else r,
])
def test_rr_identity_is_a_second_route(monkeypatch, cold_profiles, change):
    # Each corruption keeps index + pad a multiple of 8, so the check in
    # _profile cannot see it; the bounds then read a wrong sum of ceil(w/8)
    # while the divisor degree still comes from the enumerated cusp rows.
    # The pad factors (t, a, b) are corrupted at every prime power.
    corrupt_local_factors(monkeypatch, lambda p, f: (*f[:4], *change(p, f[4:])))
    result = rr_identity_suite(600)
    assert result.failures > 0
    assert "strong-bound-identity" in result.lines[0] and result.lines[0].endswith(" FAIL")


def test_rr_identity_counts_the_shared_class_enumeration(monkeypatch):
    # Drop residue 2 of the classes over d = 3 at level 405 (g = 3, width
    # 45): the profile is untouched, so the recounted degree falls by
    # ceil(45/8) - 1 = 5, and cusp_rows, which reads the same generator,
    # sees its width multiset disagree.
    real = gamma0._divisor_classes

    def corrupted(n, divs):
        for d, g, w, residues in real(n, divs):
            yield d, g, w, residues[:-1] if (n, d) == (405, 3) else residues

    for module in (gamma0, verify):
        monkeypatch.setattr(module, "_divisor_classes", corrupted)
    result = rr_identity_suite(600)
    assert result.failures == 1
    assert result.lines[0] == "strong-bound-identity n<=600 failures=1 FAIL"
    assert result.lines[1].endswith("failures=0 PASS")
    with pytest.raises(ArithmeticError, match="level 405"):
        cusp_rows(405)
    assert len(cusp_rows(404)) == gamma0.cusp_count(404)


def test_rr_identity_24ths_are_the_public_bounds():
    # The suite compares the bounds as integers and never calls the public
    # Fraction functions; they must be the same numbers.
    for n in range(1, 2001):
        profile = gamma0._profile(n, exact.factorize(n).factors)
        public = tuple(24 * bound(n) for bound in (bound_crude, bound_weak, bound_strong))
        assert classify_module._bound_24ths(profile) == public, n


def test_rr_suite_crosses_block_edges(monkeypatch):
    # With 97-level blocks, the profile sieve and the divisor window both
    # cross block edges, 20 times over 2000 levels.
    whole = rr_identity_suite(2000)
    monkeypatch.setattr(gamma0, "_SIEVE_BLOCK", 97)
    assert rr_identity_suite(2000) == whole
    assert (whole.checks, whole.failures) == (4000, 0)


@pytest.mark.parametrize("lost", ["last", "first"])
def test_rr_suite_refuses_a_short_or_shifted_window(monkeypatch, lost):
    # A divisor window that lacks its last level would leave the last
    # profile row unread, and one that lacks its first would pair each
    # profile row with the next level's divisors: both are refused, not
    # counted as 2 * n_max checks.
    real = verify._divisor_window

    def short(lo, hi):
        window = list(real(lo, hi))
        return window[:-1] if lost == "last" else window[1:]

    monkeypatch.setattr(verify, "_divisor_window", short)
    message = "compared 599 of the 600 levels" if lost == "last" else "level 1 met the divisors of level 2"
    with pytest.raises(ArithmeticError, match=message):
        rr_identity_suite(600)


def test_rr_identity_needs_no_point_factorization(monkeypatch):
    # The profile sieve and the divisor window factor nothing, and neither
    # do the coprime residues, which are cleared so that every modulus is
    # sieved afresh.
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    gamma0._coprime_residues.cache_clear()
    for name in ("cuspdim.exact", "cuspdim.gamma0"):
        monkeypatch.setattr(importlib.import_module(name), "factorize", refuse)
    assert rr_identity_suite(2000).ok


def _randint_unimodular(rng, entry_bound=50):
    while True:
        c = rng.randint(-entry_bound, entry_bound)
        d = rng.randint(-entry_bound, entry_bound)
        if math.gcd(c, d) == 1:
            return verify._build_row(c, d, rng.randint(-entry_bound, entry_bound))


def _randint_level_element(rng, n, multiple_bound=3, entry_bound=50):
    while True:
        c = n * rng.randint(-multiple_bound, multiple_bound)
        d = rng.randint(-entry_bound, entry_bound)
        if math.gcd(c, d) == 1:
            return verify._build_row(c, d, rng.randint(-entry_bound, entry_bound))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_draws_follow_the_randint_stream(seed):
    # Each seeded suite prints frozen bytes, so the draws must read the
    # generator exactly as randint(-b, b) did.  Level 1 with both bounds 50
    # is the draw of eta-law and cocycle; the default bounds, character's.
    draw = verify._draw_level_element
    for level in (1, 7, 60, 240):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert draw(ours.getrandbits, level) == _randint_level_element(reference, level)
            assert draw(ours.getrandbits, 1, 50, 50) == _randint_unimodular(reference)
        edge = draw(ours.getrandbits, level, 0, 1)
        assert edge == _randint_level_element(reference, level, 0, 1)
        assert ours.getstate() == reference.getstate(), (seed, level)
    # The rejection edges: a span of 1 (multiple bound 0), spans of
    # 2^7 - 1 and 2^7 + 1 (entry bounds 63 and 64, rejecting 1 in 128 and
    # nearly half of the draws), and a span above 2^32, which getrandbits
    # reads from two words.
    for level in (1, 7, 60):
        for bounds in ((0, 50), (3, 63), (3, 64), (0, 63), (2, 2**33 + 5)):
            ours, reference = random.Random(seed), random.Random(seed)
            for _ in range(50):
                got = draw(ours.getrandbits, level, *bounds)
                assert got == _randint_level_element(reference, level, *bounds), (level, bounds)
            assert ours.getstate() == reference.getstate(), (seed, level, bounds)
    for entry_bound in (1, 63, 64, 2**33 + 5):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(50):
            got = draw(ours.getrandbits, 1, entry_bound, entry_bound)
            assert got == _randint_unimodular(reference, entry_bound)
        assert ours.getstate() == reference.getstate(), (seed, entry_bound)


def test_suites_refuse_vacuous_input():
    # Each of these used to pass without checking anything, or crash.
    for bad in (
        lambda: eta_law_suite(samples=2, tolerance=float("inf")),
        lambda: eta_law_suite(samples=0),
        lambda: eta_law_suite(samples=True),
        lambda: eta_law_suite(samples=2, tolerance=float("nan")),
        lambda: cocycle_suite(samples=0),
        lambda: cocycle_suite(samples=2, tolerance=0.0),
        lambda: cocycle_suite(samples=2, tolerance=-1e-9),
        lambda: cocycle_suite(samples=2, tolerance="1e-9"),
        # A bool is refused as a tolerance, as it is as a count.
        lambda: eta_law_suite(samples=2, tolerance=True),
        lambda: eta_law_suite(samples=2, tolerance=False),
        lambda: cocycle_suite(samples=2, tolerance=True),
        lambda: character_suite(n_max=0),
        lambda: character_suite(n_max=2, pairs_per_level=0),
        lambda: character_suite(n_max=2, kernel_samples=False),
        lambda: euler_identity_suite(depth=0),
        lambda: rr_identity_suite(n_max=0),
        lambda: rr_identity_suite(n_max=2.0),
    ):
        with pytest.raises(ValueError):
            bad()
    ctx = AutomorphyContext(weight=Fraction(1, 2), eta_power=1)
    for tolerance in (float("inf"), float("nan"), 0.0, -1.0, True, False):
        with pytest.raises(ValueError):
            verify_transformation(eta_expansion(64), ctx, UnimodularMatrix.inversion(), 1j, tolerance)


def test_pair_check_triples_match_the_product_form():
    # Integer rows of any determinant, most of them not 1: the packed kernel
    # finds exactly the pairs the bottom-row product fails, pair by pair.
    # m = 40000 needs 64-bit lanes (3 (m - 1)^2 >= 2^32).  Its rows add a
    # pair whose lane is 4.77e9, (-1, -399, -400) . (-2, -2, -2) mod m with
    # residues near m, and then the identity, which every pair with it
    # passes: in a 32-bit lane the carry would fail that pair.  A modulus
    # whose lanes would pass 64 bits is refused.
    rng = random.Random(7)
    dets = set()
    for m in (1, 2, 5, 12, 36, 720, 40_000):
        rows = [tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(40)]
        if m == 40_000:
            rows += [(0, 0, 199, 201), (1, 2, 2, -1), (1, 0, 0, 1)]
        dets.update(a * d - b * c for a, b, c, d in rows)
        direct = [
            (c1 * d1 + c2 * d2 - (c1 * a2 + d1 * c2) * (c1 * b2 + d1 * d2)) % m != 0
            for _, _, c1, d1 in rows
            for a2, b2, c2, d2 in rows
        ]
        assert verify._pair_failures(rows, m) == {i for i, bad in enumerate(direct) if bad}, m
        if m > 2:
            assert 0 < sum(direct) < len(direct), m
    assert len(dets) > 2
    with pytest.raises(ValueError, match="64-bit lanes"):
        verify._pair_failures(rows, 2**32)


def _per_draw_character_failures(n_max, pairs_per_level, kernel_samples, seed):
    # The bulk homomorphism check one draw at a time, consuming the generator
    # as character_suite does; returns the failure count and the failing draws.
    rng = random.Random(seed)
    failing = Counter()
    for n in range(1, n_max + 1):
        for h in divisors(math.gcd(n, 12)):
            m = n * h
            pool = [verify._draw_level_element(rng.getrandbits, n) for _ in range(64)]
            rng.choices(pool, k=50)
            rng.choices(pool, k=50)
            left = rng.choices(range(64), k=pairs_per_level)
            right = rng.choices(range(64), k=pairs_per_level)
            for i, j in zip(left, right):
                prod = pool[i] * pool[j]
                if (pool[i].c * pool[i].d + pool[j].c * pool[j].d - prod.c * prod.d) % m:
                    failing[(n, h, i, j)] += 1
            for _ in range(kernel_samples):
                verify._draw_level_element(rng.getrandbits, m)
    return sum(failing.values()), failing


def test_character_suite_counts_repeated_draws(monkeypatch):
    # Swap the second pool element of level 5 for a matrix outside the
    # level-5 group.  At seed 0 the API pairs never draw it, so only the
    # bulk check sees it, and several of its failing pairs are drawn twice.
    real = verify._draw_level_element
    level_five_calls = []

    def corrupt(getrandbits, n, *args):
        g = real(getrandbits, n, *args)
        if n == 5:
            level_five_calls.append(g)
            if len(level_five_calls) == 2:
                return g * UnimodularMatrix(1, 0, 1, 1)
        return g

    monkeypatch.setattr(verify, "_draw_level_element", corrupt)
    result = character_suite(n_max=5, kernel_samples=5, seed=0)
    level_five_calls.clear()
    expected, failing = _per_draw_character_failures(5, 10_000, 5, seed=0)
    assert result.failures == expected > len(failing) > 0
    assert [line.endswith("FAIL") for line in result.lines].count(True) == 1


def _corrupt_nth_call(monkeypatch, level, nth):
    """Make the nth level-``level`` draw of ``_draw_level_element``, the
    draw kernel of every randomized suite, return a matrix outside that
    group; returns the list of its level draws, which the caller clears to
    replay the corruption."""
    real = verify._draw_level_element
    calls = []

    def corrupt(getrandbits, n, *args):
        g = real(getrandbits, n, *args)
        if n == level:
            calls.append(g)
            if len(calls) == nth:
                return g * UnimodularMatrix(1, 0, 1, 1)
        return g

    monkeypatch.setattr(verify, "_draw_level_element", corrupt)
    return calls


def test_pair_draw_skip_matches_two_choices():
    # The suite skips its unread draws with one getrandbits call; it must
    # leave the generator where two unweighted choices calls of k would.
    for seed in (0, 1, 2):
        for k in (1, 50, 10_000):
            skipped, drawn = random.Random(seed), random.Random(seed)
            verify._skip_pair_draws(skipped, k)
            drawn.choices(range(64), k=k)
            drawn.choices(range(64), k=k)
            assert skipped.getstate() == drawn.getstate(), (seed, k)


@pytest.mark.parametrize(
    "level, seed, count", [(5, 0, 191), (7, 0, 240), (7, 1, 241)],
    ids=["5-191", "7-240", "7-241-seed1"],
)
def test_character_suite_draws_stay_aligned_past_clean_levels(monkeypatch, level, seed, count):
    # Clean levels skip their draws and the failing one reads them; both the
    # failing level and the clean levels after it must see the generator as
    # the per-draw reference does.  A passing run prints the same bytes at
    # every seed, so a second seed is checked here.
    calls = _corrupt_nth_call(monkeypatch, level, 2)
    result = character_suite(n_max=10, kernel_samples=5, seed=seed)
    calls.clear()
    expected, failing = _per_draw_character_failures(10, 10_000, 5, seed=seed)
    assert result.failures == expected == count > 0
    assert {n for n, *_ in failing} == {level}
    assert [line for line in result.lines if line.endswith("FAIL")] == [
        line for line in result.lines if line.startswith(f"n={level} h=1 ")
    ]


def test_character_suite_counts_nonmember_api_pair(monkeypatch):
    # The second level-3 pool element is drawn into the API pairs at seed 0;
    # the phase API would raise on it, so it must be counted instead.
    _corrupt_nth_call(monkeypatch, 3, 2)
    result = character_suite(n_max=10, kernel_samples=5, seed=0)
    assert result.failures > 0 and not result.ok
    assert [line for line in result.lines if line.endswith("FAIL")] == [
        "n=3 h=1 pairs=10050 kernel_samples=5 FAIL"
    ]


def test_character_suite_counts_nonmember_kernel_sample(monkeypatch):
    # The first level-9 calls are the kernel samples of (n, h) = (3, 3).
    _corrupt_nth_call(monkeypatch, 9, 2)
    result = character_suite(n_max=10, kernel_samples=5, seed=0)
    assert result.failures == 1
    assert [line for line in result.lines if line.endswith("FAIL")] == [
        "n=3 h=3 pairs=10050 kernel_samples=5 FAIL"
    ]


def test_character_suite_calls_the_phase(monkeypatch):
    # The draw corruptions above fail in the integer checks, so a suite that
    # stopped calling the phase would pass them.  A phase kernel that is off
    # by e(1/3) at (6, 2) must fail that line, and only it, once for every
    # API pair (z^2 != z) and once for every kernel sample (z != 1).
    real = verify._character_phase

    def wrong(n, h, g):
        phase = real(n, h, g)
        return phase * UnitPhase(Fraction(1, 3)) if (n, h) == (6, 2) else phase

    monkeypatch.setattr(verify, "_character_phase", wrong)
    for kernel_samples in (5, 7):
        result = character_suite(n_max=10, kernel_samples=kernel_samples, seed=0)
        assert result.failures == 50 + kernel_samples
        assert [line for line in result.lines if line.endswith("FAIL")] == [
            f"n=6 h=2 pairs=10050 kernel_samples={kernel_samples} FAIL"
        ]


def test_cli_character_failure_exits_one(monkeypatch, capsys):
    # A failing check is exit 1, never the usage-error exit 2.
    _corrupt_nth_call(monkeypatch, 3, 2)
    assert main(["verify", "character"]) == 1
    out = capsys.readouterr().out
    assert "n=3 h=1 pairs=10050 kernel_samples=200 FAIL" in out
    assert out.rstrip().endswith("FAIL")
