"""Brute-force verification backend for the congruence-group formulas.

Cosets of the level-n group inside SL2(Z) are enumerated by breadth-first
closure under the standard generators, with coset identity decided by the
canonical bottom-row label ``_coset_key``, which
``test_cosets_pairwise_inequivalent`` checks against the membership test.
Boundary orbits then fall out as cycles of the right translation action on
cosets, and each width is found by a direct stabilizer search over the
conjugates sigma T^h sigma^{-1}, which are linear in h.  Nothing here
touches the closed-form width or count formulas, so the two routes can be
compared in tests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .exact import _check_int
from .gamma0 import UnimodularMatrix, is_member

__all__ = ["ORACLE_CUTOFF", "OrbitCusp", "enumerate_cosets", "oracle_cusps"]

# Cost guard: the coset count grows superlinearly, and the oracle exists to
# spot-check small levels, not to scale.
ORACLE_CUTOFF = 300


@dataclass(frozen=True)
class OrbitCusp:
    """One boundary orbit found by the oracle: a representative point
    numerator/denominator (denominator 0 encodes the point at infinity)
    and the orbit's width."""

    numerator: int
    denominator: int
    width: int

    def __str__(self) -> str:
        if self.denominator == 0:
            return "inf"
        return f"{self.numerator}/{self.denominator}"


def _check_cutoff(n: int, cutoff: int) -> None:
    _check_int(n, "level")
    _check_int(cutoff, "oracle cutoff")
    if n > cutoff:
        raise ValueError(f"level {n} exceeds cutoff {cutoff}")


def _coset_key(c: int, d: int, n: int) -> tuple[int, int]:
    # Bottom rows (c, d) and (c', d') label the same coset exactly when one
    # is a unit multiple of the other mod n.  Two facts make the pair below
    # a complete canonical label.  First, g = gcd(c, n) is invariant under
    # unit scaling, and c can always be scaled to land on g itself.  Second,
    # the units that keep c at g are those congruent to 1 mod n/g, and they
    # leave d * (c/g)^{-1} mod n/g unchanged; conversely rows agreeing in
    # both coordinates are unit-proportional (check one prime power at a
    # time: whichever of c, d is invertible there carries one row to the
    # other, and coprimality of each row rules out both degenerating).
    c %= n
    g = math.gcd(c, n)
    n1 = n // g
    if n1 == 1:
        return (g, 0)
    c0 = (c // g) % n1
    return (g, d * pow(c0, -1, n1) % n1)


@lru_cache(maxsize=1)
def _residue_table(n: int) -> tuple[tuple[int, int, int], ...]:
    # For a fixed c mod n the label is linear in d: _coset_key(c, d, n) is
    # (g, d * t mod n/g) with (g, t) = _coset_key(c, 1, n).  Row c holds
    # (g, n/g, t), so labelling a bottom row is one index, a multiply and a mod.
    # One entry: the orbit walk reuses the table its closure just built.
    return tuple((g, n // g, t) for g, t in (_coset_key(c, 1, n) for c in range(n)))


def _coset_table(n: int) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    # The closure runs on (a, b, c, d) rows under right multiplication by
    # S = [0 -1; 1 0], T and T^-1, labelled through the residue table; each
    # stored row is checked for determinant one.
    res = _residue_table(n)
    start = (1, 0, 0, 1)
    rows = {_coset_key(0, 1, n): start}
    queue = deque([start])
    while queue:
        a, b, c, d = queue.popleft()
        for nxt in ((b, -a, d, -c), (a, a + b, c, c + d), (a, b - a, c, d - c)):
            g, n1, t = res[nxt[2] % n]
            key = (g, nxt[3] * t % n1)
            if key not in rows:
                if nxt[0] * nxt[3] - nxt[1] * nxt[2] != 1:
                    raise ArithmeticError(f"coset representative {nxt} has determinant != 1")
                rows[key] = nxt
                queue.append(nxt)
    return rows


def enumerate_cosets(n: int, cutoff: int = ORACLE_CUTOFF) -> tuple[UnimodularMatrix, ...]:
    """Coset representatives of the level-n group in SL2(Z), in discovery order."""
    _check_cutoff(n, cutoff)
    return tuple(UnimodularMatrix(*row) for row in _coset_table(n).values())


def _orbit_width(a: int, c: int, n: int) -> int:
    # Least h >= 1, capped at n, with sigma T^h sigma^{-1} in the group for the
    # sigma of first column (a, c).  As det(sigma) = 1 that conjugate is
    # [1 - ach, a^2 h; -c^2 h, 1 + ach]; each with n | c^2 h is confirmed a member.
    for h in range(1, n + 1):
        if c * c * h % n == 0 and is_member(
            UnimodularMatrix(1 - a * c * h, a * a * h, -c * c * h, 1 + a * c * h), n
        ):
            return h
    raise ArithmeticError(f"stabilizer search exceeded the cap h <= {n} at level {n}")


def oracle_cusps(n: int, cutoff: int = ORACLE_CUTOFF) -> tuple[OrbitCusp, ...]:
    """Boundary orbits of the level-n group with widths, by brute force.

    Orbits are the cycles of the right translation action on the coset
    table; the width of each orbit is recomputed independently by the
    stabilizer search and must match the cycle length (ArithmeticError).
    """
    _check_cutoff(n, cutoff)
    res = _residue_table(n)
    table = _coset_table(n)

    seen: set[tuple[int, int]] = set()
    out = []
    for key in table:
        if key in seen:
            continue
        cycle = 0
        cur = key
        while cur not in seen:
            seen.add(cur)
            cycle += 1
            _, _, c, d = table[cur]
            g, n1, t = res[c % n]
            cur = (g, (c + d) * t % n1)
        if cur != key:
            raise ArithmeticError(f"translation walk left its own orbit at {n}")
        a, _, c, _ = table[key]
        width = _orbit_width(a, c, n)
        if width != cycle:
            raise ArithmeticError(f"stabilizer width {width} != orbit length {cycle} at {n}")
        # The orbit's cusp is a/c: the row has determinant one, so gcd(a, c) = 1
        # and a/c is already reduced, and c = 0 forces a = +-1, the point at infinity.
        num, den = (1, 0) if c == 0 else (a, c) if c > 0 else (-a, -c)
        out.append(OrbitCusp(num, den, width))
    if sum(x.width for x in out) != len(table):
        raise ArithmeticError(f"orbit widths do not sum to the coset count at {n}")
    return tuple(out)
