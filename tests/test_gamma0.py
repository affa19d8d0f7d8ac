import math
import random
from fractions import Fraction

import pytest

from cuspdim import gamma0, verify
from cuspdim import (
    UnimodularMatrix,
    cusp_count,
    cusp_rows,
    divisors,
    cusps,
    genus,
    group_profile,
    index,
    is_member,
    kronecker,
    mu2,
    mu3,
)
from cuspdim.classify import _classify_window
from cuspdim.cli import main
from helpers import canonical_numerators, corrupt_local_factors, primes


def test_matrix_determinant_enforced():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, 2)
    with pytest.raises(ValueError):
        UnimodularMatrix(0, 1, 1, 0)  # det -1
    UnimodularMatrix(0, -1, 1, 0)


def test_matrix_constructors_and_action():
    ident = UnimodularMatrix.identity()
    t = UnimodularMatrix.translation(3)
    s = UnimodularMatrix.inversion()
    assert t.act(1j) == 3 + 1j
    assert s.act(2j) == 0.5j
    assert ident.act(0.25 + 1j) == 0.25 + 1j
    assert (-ident).act(0.25 + 1j) == 0.25 + 1j
    assert s * s == -ident


def test_matrix_mul_inverse_roundtrip():
    rng = random.Random(10)
    ident = UnimodularMatrix.identity()
    g = ident
    for _ in range(50):
        step = UnimodularMatrix.translation(rng.randint(-3, 3))
        g = g * step * UnimodularMatrix.inversion()
        assert g * g.inverse() == ident
        assert g.inverse() * g == ident


def test_membership():
    assert is_member(UnimodularMatrix(1, 0, 6, 1), 6)
    assert is_member(UnimodularMatrix(1, 0, 6, 1), 3)
    assert not is_member(UnimodularMatrix.inversion(), 6)
    assert is_member(UnimodularMatrix.inversion(), 1)
    assert is_member(-UnimodularMatrix.identity(), 100)


def test_index_values():
    assert index(1) == 1
    assert index(9) == 12
    assert index(12) == 24
    assert index(23) == 24
    assert index(28) == 48
    for p in (2, 3, 5, 7, 11, 13, 23, 97):
        assert index(p) == p + 1


def test_index_multiplicative_on_coprime_parts():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 400)
        n = rng.randint(1, 400)
        if math.gcd(m, n) == 1:
            assert index(m * n) == index(m) * index(n)


def test_cusp_classes_frozen():
    table = [(c.a, c.d, c.width) for c in cusps(28)]
    assert table == [
        (0, 1, 28),
        (1, 2, 7),
        (1, 4, 7),
        (1, 7, 4),
        (1, 14, 1),
        (1, 28, 1),
    ]
    # two classes over d = 4 at level 16, split by the numerator mod 4
    table16 = [(c.a, c.d, c.width) for c in cusps(16)]
    assert table16 == [
        (0, 1, 16),
        (1, 2, 4),
        (1, 4, 1),
        (3, 4, 1),
        (1, 8, 1),
        (1, 16, 1),
    ]


def test_cusp_representatives_reduced():
    for n in (1, 6, 16, 28, 45, 90, 143):
        for c in cusps(n):
            assert math.gcd(c.a, c.d) == 1
            assert c.representative == Fraction(c.a, c.d)
            # least nonnegative numerator in its residue class coprime to d
            g = math.gcd(c.d, n // c.d)
            assert c.a >= 0
            for smaller in range(c.a % g, c.a, g):
                assert math.gcd(smaller, c.d) != 1


def test_cusp_count_values():
    assert cusp_count(1) == 1
    assert cusp_count(4) == 3
    assert cusp_count(9) == 4
    assert cusp_count(16) == 6
    assert cusp_count(23) == 2
    assert cusp_count(28) == 6


def test_widths_sum_to_index():
    rng = random.Random(13)
    levels = list(range(1, 200)) + [rng.randint(200, 30000) for _ in range(60)]
    for n in levels:
        cs = cusps(n)
        assert sum(c.width for c in cs) == index(n)
        assert len(cs) == cusp_count(n)


def test_gamma0_4p_width_multiset():
    for p in (3, 5, 7, 11, 23):
        widths = sorted(c.width for c in cusps(4 * p))
        assert widths == sorted([1, 1, p, p, 4, 4 * p])


def test_mu2_values():
    assert mu2(1) == 1
    assert mu2(2) == 1
    assert mu2(4) == 0
    assert mu2(8) == 0
    assert mu2(10) == 2
    assert mu2(13) == 2
    assert mu2(17) == 2
    assert mu2(19) == 0
    assert mu2(25) == 2


def test_mu3_values():
    assert mu3(1) == 1
    assert mu3(2) == 0
    assert mu3(3) == 1
    assert mu3(9) == 0
    assert mu3(13) == 2
    assert mu3(17) == 0
    assert mu3(19) == 2
    assert mu3(7) == 2


def test_elliptic_counts_match_kronecker_route():
    # Reference route: the Kronecker symbols that the closed-form local
    # factors read from p mod 4 and p mod 3.
    small_primes = primes(5000)
    for n in range(1, 5000):
        divs = [p for p in small_primes if n % p == 0]
        expected2 = 0 if n % 4 == 0 else math.prod(1 + kronecker(-4, p) for p in divs)
        expected3 = 0 if n % 2 == 0 or n % 9 == 0 else math.prod(1 + kronecker(-3, p) for p in divs)
        assert (mu2(n), mu3(n)) == (expected2, expected3), n


def test_genus_values():
    for n in range(1, 11):
        assert genus(n) == 0
    assert genus(11) == 1
    assert genus(12) == 0
    assert genus(13) == 0
    assert genus(14) == 1
    assert genus(15) == 1
    assert genus(16) == 0
    assert genus(20) == 1
    assert genus(22) == 2
    assert genus(23) == 2
    assert genus(37) == 2
    assert genus(49) == 1


def test_genus_integral_and_nonnegative():
    for n in range(1, 3000):
        g = genus(n)
        assert isinstance(g, int)
        assert g >= 0


def test_group_profile_consistency():
    for n in (1, 2, 9, 23, 28, 144, 997):
        p = group_profile(n)
        assert p.level == n
        assert p.index == index(n)
        assert p.mu2 == mu2(n)
        assert p.mu3 == mu3(n)
        assert p.genus == genus(n)
        assert len(cusps(n)) == p.cusp_count
        assert p.cusp_count == cusp_count(n)


def test_level_validation():
    cusps(1)
    group_profile(1)
    for bad in (0, -3, 2.5, "7", True, False):
        for fn in (index, cusp_count, cusps, mu2, mu3, genus, group_profile):
            with pytest.raises(ValueError):
                fn(bad)
        with pytest.raises(ValueError):
            is_member(UnimodularMatrix.identity(), bad)


def test_group_profile_width_multiset():
    for n in (1, 16, 28, 144, 5040):
        p = group_profile(n)
        enumerated = {}
        for c in cusps(n):
            enumerated[c.width] = enumerated.get(c.width, 0) + 1
        assert p.widths == tuple(sorted(enumerated.items()))
        assert sum(w * k for w, k in p.widths) == p.index
        assert sum(k for _, k in p.widths) == p.cusp_count


def test_ceil_eighths_sum_from_residues_mod_8():
    # The residue kernel against the width multiset: every level up to 3000
    # and smooth levels 2^a 3^b 5 7 11 13, where all four 2-adic classes
    # and both characters at 3, 5, 7, 11 and 13 take part.
    smooth = [2**a * 3**b * 5 * 7 * 11 * 13 for a in range(8) for b in range(5)]
    for n in (*range(1, 3001), *smooth):
        expected = sum(-(-w // 8) * k for w, k in group_profile(n).widths)
        assert group_profile(n).ceil_eighths_sum == expected, n


def test_width_residues_checked(monkeypatch):
    # chi_-8(3) read as -1: the pad of level 3 moves by 4, so index + pad is
    # no longer a multiple of 8.  The b factor, the chi_-8 sum, takes the
    # value of a, the chi_-4 sum.
    corrupt_local_factors(monkeypatch, lambda p, f: (*f[:6], f[5]) if p == 3 else f)
    with pytest.raises(ArithmeticError, match="pad"):
        gamma0.group_profile.__wrapped__(3)

    # One class of level 2 moved from width 2 to width 4: the pad moves by 2,
    # as a = n1 + 2 n2 falls by 2 while t = n1 + n2 + n4 and b = n1 stay.
    monkeypatch.undo()
    corrupt_local_factors(monkeypatch, lambda p, f: (*f[:5], f[5] - 2, f[6]) if p == 2 else f)
    with pytest.raises(ArithmeticError, match="pad"):
        gamma0.group_profile.__wrapped__(2)


def test_prime_closed_form_matches_local_data():
    # The factors of a prime q^1, read by range scans and point queries
    # alike, against the local data they stand for; every prime below 10^5,
    # 2 and 3 included.
    for q in primes(10**5):
        assert gamma0._prime_factors(q) == gamma0._local(q, 1)[0], q
    # A point query leaves a cache entry only for a prime power p^e, e >= 2.
    gamma0._local.cache_clear()
    gamma0.group_profile.__wrapped__(4 * 999_983 * 1_000_003)
    assert gamma0._local.cache_info().currsize == 1


@pytest.mark.parametrize("block", [gamma0._SIEVE_BLOCK, 97])
def test_range_windows_match_point_queries(monkeypatch, block):
    # The profile window and the divisor window of verify rr-identity
    # against the point routes: from 1, around 10^6, and at 10^12, where a
    # window of 301 levels is narrower than isqrt(hi) and is factored level
    # by level, while the divisor window pairs every d up to 10^6; with a
    # small block, both windows also cross block edges.
    monkeypatch.setattr(gamma0, "_SIEVE_BLOCK", block)
    for lo, hi in ((1, 5000), (999_000, 1_001_000), (10**12, 10**12 + 300)):
        levels = range(lo, hi + 1)
        assert list(gamma0._profile_window(lo, hi)) == [group_profile(n) for n in levels]
        window = list(verify._divisor_window(lo, hi))
        assert [n for n, _ in window] == list(levels)
        for n, divs in window:
            assert len(divs) == len(set(divs)) and set(divs) == set(divisors(n)), n


def test_local_data_read_only_at_squares(monkeypatch):
    # Every prime p^1 comes from the closed form _prime_factors, on range
    # scans and point queries alike; _local is read only at p^e, e >= 2.
    real = gamma0._local
    calls = []

    def record(p, e):
        calls.append((p, e))
        return real(p, e)

    monkeypatch.setattr(gamma0, "_local", record)
    list(_classify_window(1, 3000))
    for n in (2 * 3 * 5 * 7 * 11 * 13, 4 * 999_983 * 1_000_003):
        gamma0.group_profile.__wrapped__(n)
    assert (2, 2) in calls and (3, 7) in calls
    assert all(e >= 2 for _, e in calls), sorted(set(calls))


@pytest.mark.parametrize("change, message", [
    # chi_-8(3) read as chi_-4(3), as in test_width_residues_checked.
    (lambda p, f: (*f[:6], f[5]) if p == 3 else f, "pad"),
    # One 2-adic class moved from width 2 to width 4, likewise.
    (lambda p, f: (*f[:5], f[5] - 2, f[6]) if p == 2 else f, "pad"),
    # An mu3 factor one too large: the genus of level 2 becomes -1/3.
    (lambda p, f: (*f[:3], f[3] + 1, *f[4:]), "genus"),
])
def test_sieve_checks_local_data(monkeypatch, change, message):
    # The pad and genus checks of _profile_row run on every sieved row and
    # on every point query, so corrupted local factors are refused by a
    # range scan as by a point query of the level the scan names: from
    # _prime_factors at a prime (levels 3, 2 and 2), and from _local at a
    # prime power p^e, e >= 2 (levels 27, 4 and 4; at 9 the chi_-4 and
    # chi_-8 sums agree).
    assert math.isqrt(3000) <= 3000
    for route, first in (("_prime_factors", (3, 2, 2)), ("_local", (27, 4, 4))):
        with monkeypatch.context() as patch:
            corrupt_local_factors(patch, change, (route,))
            with pytest.raises(ArithmeticError, match=message) as scan:
                list(_classify_window(1, 3000))
            level = int(str(scan.value).split("at level ")[1].split(",")[0])
            with pytest.raises(ArithmeticError, match=message) as point:
                gamma0.group_profile.__wrapped__(level)
        assert str(point.value) == str(scan.value)
        assert level in first, route


def test_cusp_table_leaves_no_local_entry_for_large_primes(capsys):
    # The width multiset and the profile read every p^1 in closed form, so a
    # squarefree level leaves nothing in the _local cache.
    n = 2 * 999_983 * 1_000_003
    for cached in (gamma0._local, gamma0.cusps, gamma0.group_profile):
        cached.cache_clear()
    assert main(["cusps", str(n), "--format", "json"]) == 0
    assert capsys.readouterr().out.count('"representative"') == 8
    assert gamma0._local.cache_info().currsize == 0
    for q in (999_983, 1_000_003):
        misses = gamma0._local.cache_info().misses
        gamma0._local(q, 1)
        assert gamma0._local.cache_info().misses == misses + 1, q
    gamma0._local.cache_clear()


def _cusp_rows_direct(n):
    """The cusp table class by class: for each residue r coprime to
    g = gcd(d, n/d), the least a = r (mod g) coprime to all of d, with the
    width n / gcd(d^2, n)."""
    rows = []
    for d in divisors(n):
        g = math.gcd(d, n // d)
        for r in [0] if g == 1 else [r for r in range(1, g) if math.gcd(r, g) == 1]:
            a = r
            while math.gcd(a, d) != 1:
                a += g
            rows.append((a, d, n // math.gcd(d * d, n)))
    return tuple(rows)


def test_cusp_rows_match_direct_enumeration():
    # 5040 = 2^4 3^2 5 7: over d = 20 and d = 60, g = 4 and g = 12 lack the
    # prime 5 of d, so the representative search runs, and at d = 60 it moves
    # 5 to 17; 304250263527210 has 8192 classes.
    assert (math.gcd(20, 5040 // 20), math.gcd(60, 5040 // 60)) == (4, 12)
    assert [a for a, d, _ in cusp_rows(5040) if d == 20] == [1, 3]
    assert [a for a, d, _ in cusp_rows(5040) if d == 60] == [1, 17, 7, 11]
    for n in (*range(1, 3001), 5040, 304250263527210):
        expected = _cusp_rows_direct(n)
        assert cusp_rows(n) == expected, n
        assert [(c.a, c.d, c.width) for c in cusps(n)] == list(expected), n


def test_coprime_residues_match_gcd_definition():
    # The sieve against gcd, residue by residue, uncached; 4 * 10007 and
    # 3 * 10009 leave a prime above 10^4 after trial division.
    for g in (*range(2, 3001), 4 * 10007, 3 * 10009):
        expected = tuple(r for r in range(1, g) if math.gcd(r, g) == 1)
        assert gamma0._coprime_residues.__wrapped__(g) == expected, g


def test_cusp_numerators_match_canonical_search(monkeypatch):
    # The numerator sieve against one _canonical_a call per residue.  At
    # 3750 = 2 * 3 * 5^4, d = 150 has g = 25 and q = 6, and neither 2 nor
    # 27 is coprime to 6: the search runs on from r = 2 to 77.  The sieve
    # calls it only there, once per such residue.
    levels = (*range(1, 5001), 207532836, 255091680, 167772160, 19448100, 21233664)
    for n in levels:
        assert [a for a, _, _ in cusp_rows(n)] == canonical_numerators(n), n
    calls = []
    real = gamma0._canonical_a

    def counted(r, g, q):
        calls.append((r, g, q))
        return real(r, g, q)

    monkeypatch.setattr(gamma0, "_canonical_a", counted)
    assert (77, 150, 1) in cusp_rows(3750)
    assert (2, 25, 6) in calls
    assert all(real(r, g, q) >= r + 2 * g for r, g, q in calls)


def test_cusp_enumeration_checked_against_profile(monkeypatch):
    # Drop the cusp at infinity (d = n, width 1) from the enumeration, or
    # count it twice: a class lost or added is refused before any is handed
    # out, so the genus-two endgame never reads a wrong cusp list.
    for changed in (lambda n: divisors(n)[:-1], lambda n: (*divisors(n), n)):
        monkeypatch.setattr(gamma0, "divisors", changed)
        for enumerate_classes in (gamma0.cusp_rows, gamma0.cusps.__wrapped__):
            for n in (23, 28):
                with pytest.raises(ArithmeticError, match="width multiset"):
                    enumerate_classes(n)


def test_genus_formula_checked(monkeypatch):
    # One more order-2 elliptic point at 13 (from _prime_factors) and at
    # 13^2 (from _local): 12 genus falls by 3.
    corrupt_local_factors(monkeypatch, lambda p, f: (*f[:2], f[2] + 1, *f[3:]))
    for n in (13, 169):
        with pytest.raises(ArithmeticError, match="genus"):
            gamma0.group_profile.__wrapped__(n)


def test_cusp_width_matches_per_prime_exponents():
    # p^max(nu_p(n) - 2 nu_p(d), 0), prime by prime, by trial division
    def nu(p, m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        return e

    for n in range(1, 400):
        prime_divisors = [p for p in primes(n) if n % p == 0]
        for c in cusps(n):
            expected = math.prod(p ** max(nu(p, n) - 2 * nu(p, c.d), 0) for p in prime_divisors)
            assert c.width == expected, (n, c.d)


def test_canonical_representative_search_checked():
    # every member of 2 mod 4 is even, so none is coprime to d = 2
    with pytest.raises(ArithmeticError, match="no representative"):
        gamma0._canonical_a(2, 4, 2)
