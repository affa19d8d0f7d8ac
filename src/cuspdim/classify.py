"""Dimension classification for spaces of weight-3/2 cusp forms carrying the
cube of the eta multiplier.

Dividing such a form by the cube of eta gives a modular function whose poles
are confined to cusps, with multiplicity at a width-w cusp at most
ceil(w/8) - 1.  The space is therefore identified with the functions bounded
by an explicit cusp divisor, and exact curve invariants (index, cusp widths,
elliptic-point counts, genus) decide its dimension through Riemann-Roch in
all but one stubborn case, which a genus-two argument settles.

Every answer ships as a Certificate naming the rule used and the exact
quantities behind it; Undecided is a first-class verdict, not an error.

The strong bound is the integer deg + 1 - genus, where the pole divisor's
degree deg = sum ceil(w/8) - c runs over the c cusp widths w (summing to
the index); with the genus formula written out it is
sum ceil(w/8) - index/12 - c/2 + mu2/4 + mu3/3.  The weak bound drops the
mu terms and crude = index/24 - c/2; ``_bound_24ths`` counts all three in
24ths, and ``bound_weak`` and ``bound_crude`` divide once.  The widths
enter only through sum ceil(w/8) = (index + sum((-w) mod 8))/8, read from
the residues of the local widths mod 8 (``GroupProfile.ceil_eighths_sum``),
never from a list of widths.  No rule passes extra forms up from a divisor
level: after the strong-bound rule it could never fire.
1. weak - crude = sum (ceil(w/8) - w/8) >= 0; strong - weak = mu2/4 + mu3/3.
2. index/cusps is multiplicative; at p^e it is at least (p+1)/2 and does
   not decrease with e.  The cusp count of p^e sums phi(p^min(k, e-k)) over
   k = 0..e; each j < e/2 occurs twice and phi(1) + ... + phi(p^j) = p^j,
   so it is 2 p^f for e = 2f + 1 and 2 p^(f-1) + phi(p^f) = p^f + p^(f-1)
   for e = 2f >= 2.  Against index p^(e-1) (p+1) the ratio runs
   (p+1)/2, p, p(p+1)/2, p^2, ..., each step a factor 2p/(p+1) or (p+1)/2.
3. For n > 1 there are c >= 2 cusps, so index >= 25c gives
   crude >= 13c/24 > 1, and strong > 1 by step 1.
So strong <= 1 forces index < 25c: by step 2 a depth-first search over
prime powers finds all 137 such levels (the largest 576), and on them
strong <= 1 holds exactly for the element orders of M23 (see the tests).
That set is closed under divisors, so no divisor of an open level is
decided by the bound.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .exact import _check_int
from .gamma0 import (
    CuspClass, _cusp_blocks, _profile_window,
    _representative_text, cusps, group_profile,
)
from .qseries import EtaQuotient, eta_quotient_cusp_order

__all__ = [
    "Certificate",
    "ClassificationReport",
    "CuspDivisor",
    "RULE_CANONICAL_EXCLUSION",
    "RULE_EMPTY_DIVISOR",
    "RULE_SIMPLE_POLE",
    "RULE_STRONG_BOUND",
    "RULE_UNDECIDED",
    "Verdict",
    "bound_crude",
    "bound_strong",
    "bound_weak",
    "classify",
    "classify_range",
    "m23_element_orders",
    "pole_divisor",
]


class Verdict(str, Enum):
    DIM_ONE = "DimOne"
    DIM_AT_LEAST_TWO = "DimAtLeastTwo"
    UNDECIDED = "Undecided"


_VERDICT_TEXT = {v: v.value for v in Verdict}
# Read once per level on range scans: a global is read several times faster than an Enum member.
_STRONG_VERDICT = Verdict.DIM_AT_LEAST_TWO

RULE_STRONG_BOUND = "strong-bound-exceeds-one"
RULE_EMPTY_DIVISOR = "empty-pole-divisor"
RULE_SIMPLE_POLE = "single-simple-pole-positive-genus"
RULE_CANONICAL_EXCLUSION = "weight-two-form-excludes-canonical-class"
RULE_UNDECIDED = "undecided"


class CuspDivisor(NamedTuple):
    """Effective divisor supported on cusp classes; only nonzero entries are
    stored, in the deterministic cusp order of the level.

    Each entry is stored as an integer row (a, d, width, multiplicity);
    ``entries`` builds the CuspClass objects when it is read, and
    ``degree()`` sums the integers."""

    level: int
    rows: tuple[tuple[int, int, int, int], ...]

    @property
    def entries(self) -> tuple[tuple[CuspClass, int], ...]:
        return tuple((CuspClass(self.level, a, d, w), m) for a, d, w, m in self.rows)

    def degree(self) -> int:
        return sum(m for _, _, _, m in self.rows)


def pole_divisor(n: int) -> CuspDivisor:
    """Maximal cusp poles available to the quotient by the cube of eta:
    coefficient ceil(w/8) - 1 at each cusp class of width w > 8."""
    rows = [(a, d, w, -(-w // 8) - 1) for d, w, nums in _cusp_blocks(n) if w > 8 for a in nums]
    return CuspDivisor(n, tuple(rows))


def _invariants(p) -> tuple[int, int]:
    """(strong bound, pole-divisor degree) of a profile row; the divisor's
    ceil(w/8) - 1 per cusp sums to sum ceil(w/8) less the cusp count."""
    _, _, count, _, _, genus, ceil_eighths_sum = p
    deg = ceil_eighths_sum - count
    return deg + 1 - genus, deg


# The benchmark's per-layer metric classify._level_invariants.hit_ratio reads
# this cache by name, so it stays until that metric goes (ROADMAP item 1).
@lru_cache(maxsize=4096, typed=True)
def _level_invariants(n: int) -> tuple[int, int]:
    return _invariants(group_profile(n))


def bound_strong(n: int) -> Fraction:
    """Exact Riemann-Roch lower bound for the dimension,
    deg(pole divisor) + 1 - genus: the classifier's integer, as a Fraction."""
    return Fraction(_level_invariants(n)[0])


def _bound_24ths(p) -> tuple[int, int, int]:
    """24 times the crude, weak and strong bounds of a profile row, as integers."""
    _, idx, count, _, _, _, ceil_eighths_sum = p
    c12 = 12 * count
    return idx - c12, 24 * ceil_eighths_sum - 2 * idx - c12, 24 * _invariants(p)[0]


def bound_weak(n: int) -> Fraction:
    """The strong bound with the elliptic-point credits dropped; a rational
    lower bound for it."""
    return Fraction(_bound_24ths(group_profile(n))[1], 24)


def bound_crude(n: int) -> Fraction:
    """index/24 - cusps/2: a lower bound for the weak bound that visibly
    grows with the level, so only finitely many levels can stay at
    dimension one."""
    return Fraction(_bound_24ths(group_profile(n))[0], 24)


class Certificate(NamedTuple):
    """One level's verdict with the exact data that justifies it, as a tuple.

    ``bound`` is the strong Riemann-Roch lower bound for the dimension, the
    int deg(pole divisor) + 1 - genus; ``witness`` carries rule-specific
    evidence (JSON-safe values only).
    """

    level: int
    verdict: Verdict
    rule: str
    bound: int
    genus: int
    divisor_degree: int
    witness: dict | None = None

    def to_json_obj(self) -> dict:
        return {
            "level": self.level,
            "verdict": _VERDICT_TEXT[self.verdict],
            "rule": self.rule,
            "strong_bound": str(self.bound),
            "genus": self.genus,
            "divisor_degree": self.divisor_degree,
            "witness": self.witness,
        }


def _weight_two_exclusion(p) -> dict | None:
    """Genus-two endgame: exhibit a holomorphic weight-2 form whose divisor,
    read as a differential, is a sum of two distinct simple points, one of
    them the divisor's support cusp.

    If some differential vanished doubly at the support cusp x, every
    canonical divisor would be equivalent to 2x; ours is x + y with y
    distinct, forcing y ~ x, which a positive-genus curve cannot afford.
    So the Riemann-Roch correction term vanishes and the dimension is
    exactly deg + 1 - genus = 1.  The support is the one cusp class of
    width w > 8, where ceil(w/8) - 1 must be 2.  Returns the witness data,
    or None when any precondition fails.
    """
    n, idx, _, m2, m3, genus, _ = p
    if genus != 2 or m2 != 0 or m3 != 0:
        return None
    classes = cusps(n)
    poles = [c for c in classes if c.width > 8]
    if len(poles) != 1:
        return None
    support = poles[0]
    if -(-support.width // 8) - 1 != 2:
        return None
    quotient = EtaQuotient(n, {1: 2, n: 2})
    orders = [(c, eta_quotient_cusp_order(quotient, c)) for c in classes]
    # Holomorphic cusp form: integral positive order at every cusp.  Eta is
    # zero-free away from cusps, so these orders are the whole divisor.
    if any(o.denominator != 1 or o < 1 for _, o in orders):
        return None
    if sum(o for _, o in orders) != Fraction(idx, 6):
        return None
    # As a differential the order drops by one at each cusp (mu2 = mu3 = 0),
    # leaving degree index/6 - c = 2g - 2 = 2: order 2 at the support cusp
    # is a simple zero there, and the other zero lies at another cusp.
    if next(o for c, o in orders if c == support) != 2:
        return None
    return {
        "support_cusp": _representative_text(support.a, support.d),
        "weight_two_exponents": {"1": 2, str(n): 2},
        "cusp_orders": {_representative_text(c.a, c.d): str(o) for c, o in orders},
    }


@lru_cache(maxsize=4096, typed=True)
def classify(n: int) -> Certificate:
    """Decide whether the level-n space is one-dimensional, with proof data.

    Rules are tried in order: a strong bound above one forces extra forms;
    an empty pole divisor leaves only multiples of the cube of eta; a single
    simple pole on a positive-genus curve admits no nonconstant function;
    and the genus-two exclusion settles level 23.  Anything else is
    Undecided.  Only the last two rules look at individual cusp classes.
    """
    return Certificate._make(_decide(group_profile(n)))


def _decide(p) -> tuple:
    """The rules of ``classify`` on a profile row, as a plain tuple in the
    fields of ``Certificate``: a range scan prints it as it is, and
    ``classify`` and ``classify_range`` make the ``Certificate``."""
    strong, deg = _invariants(p)
    n, _, _, _, _, genus, _ = p
    if strong > 1:
        return n, _STRONG_VERDICT, RULE_STRONG_BOUND, strong, genus, deg, None
    verdict, witness = Verdict.DIM_ONE, None
    if deg == 0:
        rule = RULE_EMPTY_DIVISOR
    elif deg == 1 and genus >= 1:
        a, d, width, _ = pole_divisor(n).rows[0]
        rule = RULE_SIMPLE_POLE
        witness = {"support_cusp": _representative_text(a, d), "width": width}
    elif (witness := _weight_two_exclusion(p)) is not None:
        rule = RULE_CANONICAL_EXCLUSION
    else:
        verdict, rule = Verdict.UNDECIDED, RULE_UNDECIDED
    return n, verdict, rule, strong, genus, deg, witness


def m23_element_orders() -> frozenset[int]:
    """Element orders of the Mathieu group M23."""
    return frozenset((1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23))


class ClassificationReport(NamedTuple):
    """Certificates for every level from lo to n_max; ``classify_range``
    starts at 1.  The headline level lists are read from the certificates
    each time they are asked for."""

    n_max: int
    certificates: tuple[Certificate, ...]
    lo: int = 1

    @property
    def dim_one_levels(self) -> tuple[int, ...]:
        return tuple(
            c.level for c in self.certificates if c.verdict is Verdict.DIM_ONE
        )

    @property
    def undecided_levels(self) -> tuple[int, ...]:
        return tuple(
            c.level for c in self.certificates if c.verdict is Verdict.UNDECIDED
        )

    def matches_m23(self) -> bool | None:
        """Whether the one-dimensional levels are exactly the element orders
        of M23; None unless the range starts at 1 and reaches 23."""
        return self.summary()["matches_m23_element_orders"]

    def summary(self) -> dict:
        """``to_json_obj`` without the certificates."""
        return _summary(self.lo, self.n_max, self.dim_one_levels, self.undecided_levels)

    def to_json_obj(self) -> dict:
        return {**self.summary(), "certificates": [c.to_json_obj() for c in self.certificates]}

    def to_tsv_rows(self) -> Iterator[tuple[str, ...]]:
        """Tab-separated serialization rows, header first, made one at a time."""
        return _tsv_rows(self.certificates)


def _summary(lo: int, hi: int, dim_one_levels, undecided_levels) -> dict:
    """The range report of lo..hi without its certificates.  The M23
    comparison is None unless the range starts at 1 and reaches 23."""
    return {
        "range": [lo, hi],
        "dim_one_levels": list(dim_one_levels),
        "undecided_levels": list(undecided_levels),
        "matches_m23_element_orders":
            frozenset(dim_one_levels) == m23_element_orders() if lo == 1 and hi >= 23 else None,
    }


def _certificate_texts(c) -> tuple[str, ...]:
    """The fields of a certificate row before its witness, as text: the one
    formatter that the JSON, TSV and text writers read."""
    n, verdict, rule, bound, genus, deg, _ = c
    return str(n), _VERDICT_TEXT[verdict], rule, str(bound), str(genus), str(deg)


def _tsv_rows(certificates: Iterable) -> Iterator[tuple[str, ...]]:
    """The header and one row per certificate row.  The witness_level column
    is always empty: no rule names a divisor level, and the column stays so
    that rows keep their shape."""
    yield "level", "verdict", "rule", "strong_bound", "genus", "divisor_degree", "witness_level"
    for c in certificates:
        yield *_certificate_texts(c), ""


def _classify_window(lo: int, hi: int) -> Iterator[tuple[tuple, tuple]]:
    """An iterator of (certificate row, profile row) for the levels lo..hi
    in turn, plain tuples in the fields of ``Certificate`` and
    ``GroupProfile``, each from the uncached kernels.  The profile rows
    come from ``gamma0._profile_window``, which sieves a wide window as it
    is read and factors a narrow one before this returns, so a level it
    refuses raises at the call."""
    return ((_decide(p), p) for p in _profile_window(lo, hi))


def classify_range(n_max: int) -> ClassificationReport:
    _check_int(n_max, "n_max")
    certificates = tuple(Certificate._make(c) for c, _ in _classify_window(1, n_max))
    return ClassificationReport(n_max, certificates)
