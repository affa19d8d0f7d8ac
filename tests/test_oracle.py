import hashlib
import math
from collections import deque

import pytest

from cuspdim import oracle
from cuspdim import (
    ORACLE_CUTOFF,
    UnimodularMatrix,
    cusp_count,
    cusps,
    enumerate_cosets,
    index,
    is_member,
    oracle_cusps,
)


def test_cutoff_refusal():
    assert ORACLE_CUTOFF == 300
    with pytest.raises(ValueError):
        oracle_cusps(301)
    with pytest.raises(ValueError):
        enumerate_cosets(500)
    with pytest.raises(ValueError):
        enumerate_cosets(10**6)
    oracle_cusps(1)
    for bad in (0, -4, True, False):
        with pytest.raises(ValueError):
            oracle_cusps(bad)
        with pytest.raises(ValueError):
            enumerate_cosets(bad)
    for bad in (float("nan"), None, True, 0):
        with pytest.raises(ValueError):
            oracle_cusps(5, bad)
    # an explicit cutoff lifts the default refusal
    assert len(enumerate_cosets(310, cutoff=310)) == index(310)


def test_oracle_index_matches_formula():
    for n in list(range(1, 40)) + [60, 97, 120, 128, 180, 210, 243, 300]:
        assert len(enumerate_cosets(n)) == index(n)


def _matrix_coset_table(n):
    # The closure by matrix products, as a reference for the integer rows.
    gens = (
        UnimodularMatrix.inversion(),
        UnimodularMatrix.translation(1),
        UnimodularMatrix.translation(-1),
    )
    start = UnimodularMatrix.identity()
    table = {oracle._coset_key(start.c, start.d, n): start}
    queue = deque([start])
    while queue:
        mat = queue.popleft()
        for g in gens:
            nxt = mat * g
            key = oracle._coset_key(nxt.c, nxt.d, n)
            if key not in table:
                table[key] = nxt
                queue.append(nxt)
    return table


def test_integer_closure_matches_matrix_products():
    # same keys, in the same discovery order, with the same representatives
    for n in range(1, ORACLE_CUTOFF + 1):
        expected = [(key, (m.a, m.b, m.c, m.d)) for key, m in _matrix_coset_table(n).items()]
        assert list(oracle._coset_table(n).items()) == expected, n


def test_residue_table_reproduces_coset_key():
    for n in list(range(1, 61)) + [120, 210, 288]:
        res = oracle._residue_table(n)
        assert len(res) == n
        for c, (g, n1, t) in enumerate(res):
            for d in range(n):
                assert (g, d * t % n1) == oracle._coset_key(c, d, n), (n, c, d)


def _digest(lines):
    return hashlib.sha256("".join(f"{' '.join(map(str, x))}\n" for x in lines).encode()).hexdigest()


def test_oracle_output_frozen():
    # The CLI prints only AGREE; these pin every orbit and representative.
    orbits = [(n, o.numerator, o.denominator, o.width) for n in range(1, 301) for o in oracle_cusps(n)]
    assert _digest(orbits) == "3040998f98aada644020433a4706e07d9333488103192ce23fe4c6791ae649e0"
    reps = [(n, m.a, m.b, m.c, m.d) for n in range(1, 61) for m in enumerate_cosets(n)]
    assert _digest(reps) == "63d313ff183af396b30ed8ef5807b10e235fb98b0950fd293f0e2889bce727d4"


def test_cosets_pairwise_inequivalent():
    # complete coset list: distinct representatives never differ by a
    # level-n element, and every representative differs from itself by one
    for n in (1, 4, 6, 12, 17, 24, 30):
        reps = enumerate_cosets(n)
        assert len(reps) == index(n)
        for i, g in enumerate(reps):
            for j, h in enumerate(reps):
                assert is_member(g * h.inverse(), n) == (i == j)


def test_orbit_widths_match_formula():
    for n in list(range(1, 61)) + [97, 120, 128, 180, 210, 243, 300]:
        formula = sorted(c.width for c in cusps(n))
        orbits = oracle_cusps(n)
        assert sorted(o.width for o in orbits) == formula
        assert len(orbits) == cusp_count(n)


def test_orbit_widths_cover_cosets():
    for n in (1, 2, 12, 23, 28, 60, 143):
        orbits = oracle_cusps(n)
        assert sum(o.width for o in orbits) == index(n)
        assert all(o.width >= 1 for o in orbits)


def test_orbit_representatives():
    for n in (1, 4, 23, 28, 90):
        orbits = oracle_cusps(n)
        # exactly one orbit is the class of the point at infinity
        at_infinity = [o for o in orbits if o.denominator == 0]
        assert len(at_infinity) == 1
        assert at_infinity[0].numerator == 1
        for o in orbits:
            if o.denominator:
                assert o.denominator > 0


def test_infinity_orbit_width_one():
    for n in (1, 7, 28, 120):
        for o in oracle_cusps(n):
            if o.denominator == 0:
                assert o.width == 1


def _matrix_power_width(sigma, n):
    # The stabilizer search by matrix products, as a reference for the
    # closed-form conjugates of _orbit_width.
    step = sigma * UnimodularMatrix.translation(1) * sigma.inverse()
    power = step
    for h in range(1, n + 1):
        if is_member(power, n):
            return h
        power = power * step
    raise AssertionError(f"no stabilizer power up to {n} at level {n}")


def test_orbit_width_matches_matrix_powers():
    # every coset row, so every orbit's sigma among them
    for n in range(1, 121):
        for a, b, c, d in oracle._coset_table(n).values():
            assert math.gcd(a, c) == 1, (n, a, c)
            sigma = UnimodularMatrix(a, b, c, d)
            assert oracle._orbit_width(a, c, n) == _matrix_power_width(sigma, n), (n, sigma)


def test_orbit_walk_checked(monkeypatch):
    # two cosets sharing one representative: translation is no longer a
    # permutation of the table, so some walk ends in another orbit
    table = oracle._coset_table(12)
    first, second = list(table)[:2]
    table[second] = table[first]
    monkeypatch.setattr(oracle, "_coset_table", lambda n: table)
    with pytest.raises(ArithmeticError, match="left its own orbit"):
        oracle_cusps(12)


def test_orbit_width_checked(monkeypatch):
    real = oracle._orbit_width
    monkeypatch.setattr(oracle, "_orbit_width", lambda *args: real(*args) + 1)
    with pytest.raises(ArithmeticError, match="orbit length"):
        oracle_cusps(12)


def test_orbit_width_sum_checked(monkeypatch):
    real = oracle.OrbitCusp
    monkeypatch.setattr(
        oracle, "OrbitCusp", lambda num, den, width: real(num, den, width + 1)
    )
    with pytest.raises(ArithmeticError, match="coset count"):
        oracle_cusps(12)


def test_orbit_width_cap_is_internal_fault(monkeypatch):
    # An internal fault is an ArithmeticError, never the ValueError the CLI
    # reports as a usage error.
    monkeypatch.setattr(oracle, "is_member", lambda mat, n: False)
    with pytest.raises(ArithmeticError, match="exceeded the cap") as exc:
        oracle_cusps(12)
    assert not isinstance(exc.value, ValueError)
