"""Seeded inputs for the four benchmark workloads.

Each generator returns a list of items; an item is a dict with a ``group``
label and ``argv``, the list of ``cuspdim`` command lines the item runs in
turn.  The program only ever sees these argument lists.

Every workload is stratified: the seed chooses among inputs of the same
cost class, never the cost class itself, so the work per run barely moves
between seeds while the concrete levels, quotients and samples do.
"""

from __future__ import annotations

import math
import random

from reference import is_prime, prime_power_cusp_count

WORKLOADS = ("scan", "deep", "series", "crosscheck")

# Size knobs per workload: "full" is what the benchmark measures, "tiny" is
# what the self-test runs.
SIZES = {
    "full": {
        "scan_levels": 20000,
        "smooth_items": 30,
        "smooth_max_log10": 4.5,
        "prime_items": 28,
        "semiprime_items": 14,
        "prime_log10": (10.0, 12.0),
        # Ten k=12 levels put the 90th percentile item latency in the middle
        # of one cost cluster rather than on the edge between two.
        "squarefree_ks": (7, 8, 9, 10, 11) * 5 + (12,) * 10,
        "series_items": 120,
        "series_precisions": (40, 60, 80, 100),
        "series_fixed": (
            ("1", "1:24", "500"),
            ("4", "1:-8,2:16,4:-8", "300"),
            ("1", "1:-1", "2000"),
        ),
        "suites": ("eta-law", "cocycle", "character", "rr-identity"),
        "oracle_pairs": 150,
    },
    "tiny": {
        "scan_levels": 30,
        "smooth_items": 3,
        "smooth_max_log10": 2.3,
        "prime_items": 2,
        "semiprime_items": 1,
        "prime_log10": (6.0, 7.0),
        "squarefree_ks": (3, 4),
        "series_items": 4,
        "series_precisions": (20,),
        "series_fixed": (("1", "1:-1", "30"),),
        "suites": ("cocycle",),
        "oracle_pairs": 4,
    },
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def scan(seed: int, size: dict) -> list[dict]:
    """One ``classify 1..N --format json``; the paper's headline scan.  The
    range is fixed (it must start at 1 to reproduce the M23 levels), so the
    seed does not change it.  The item stands for N levels (``count``)."""
    del seed
    n = size["scan_levels"]
    return [
        {"group": "scan", "count": n, "argv": [["classify", f"1..{n}", "--format", "json"]]}
    ]


def _smooth_candidates(low: int, high: int) -> list[tuple[int, int]]:
    """(cusp count, level) for the 7-smooth levels up to 10^18 (prime powers
    of 2, 3, 5 and 7 among them) and the powers of 11 and 13 whose cusp count
    lies in [low, high]."""
    limit = 10**18
    out = []

    def walk(primes, n, count):
        if low <= count <= high:
            out.append((count, n))
        if not primes:
            return
        p, rest = primes[0], primes[1:]
        walk(rest, n, count)
        e = 1
        while n * p**e <= limit:
            walk(rest, n * p**e, count * prime_power_cusp_count(p, e))
            e += 1

    walk((2, 3, 5, 7), 1, 1)
    for p in (11, 13):
        for e in range(1, 18):
            x = prime_power_cusp_count(p, e)
            if low <= x <= high:
                out.append((x, p**e))
    out.sort()
    return out


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _deep_levels(seed: int, size: dict) -> list[tuple[str, int]]:
    rng = _rng("deep", seed)
    levels: list[tuple[str, int]] = []

    # Smooth levels and prime powers: cusp-count targets spaced cubically
    # in log scale (dense near 10^3, sparse toward the top), each filled by a
    # random candidate with up to 5% more cusps than its target.
    k = size["smooth_items"]
    top = size["smooth_max_log10"]
    low = 3.0 if top >= 4 else 1.0
    cands = _smooth_candidates(int(10**low), int(1.05 * 10**top))
    for i in range(k):
        target = 10 ** (low + (top - low) * (i / max(k - 1, 1)) ** 3)
        near = [n for x, n in cands if target <= x <= 1.05 * target]
        # Tiny sizes have gaps wider than 5%; take the next count up there.
        near = near or [next(n for x, n in cands if x >= target)]
        levels.append(("smooth", rng.choice(near)))

    # Large primes and balanced semiprimes: factorization dominates, and trial
    # division costs grow with the square root of the level (the smaller
    # factor for a semiprime), so the exponent is fixed per item and the seed
    # only moves the starting point within one percent.
    lo, hi = size["prime_log10"]
    kp = size["prime_items"]
    for i in range(kp):
        x = lo + (hi - lo) * i / max(kp - 1, 1)
        levels.append(("prime", _next_prime(int(10**x * (1 + rng.random() / 100)))))
    ks = size["semiprime_items"]
    for i in range(ks):
        x = (lo + (hi - lo) * i / max(ks - 1, 1)) / 2
        p = _next_prime(int(10**x * (1 + rng.random() / 100)))
        q = _next_prime(p + 1 + rng.randrange(1000))
        levels.append(("prime", p * q))

    # Squarefree primorial-like levels: k distinct primes from the first k+3,
    # so the cusp count is exactly 2^k for a k fixed per item.
    small_primes = [p for p in range(2, 200) if is_prime(p)]
    for kk in size["squarefree_ks"]:
        chosen = rng.sample(small_primes[: kk + 3], kk)
        levels.append(("squarefree", math.prod(chosen)))

    return levels


def deep(seed: int, size: dict) -> list[dict]:
    """Point queries on large levels: ``classify n`` then ``cusps n --format
    json``; one item per level."""
    return [
        {
            "group": group,
            "level": n,
            "argv": [["classify", str(n)], ["cusps", str(n), "--format", "json"]],
        }
        for group, n in _deep_levels(seed, size)
    ]


def _quotient_shapes(count: int, precisions) -> list[tuple[int, tuple, tuple, int]]:
    """Fixed eta-quotient shapes (lcm, multipliers with gcd 1, exponents,
    precision): one to three factors, exponents of both signs, lcm <= 60.
    They come from a fixed generator, not from the seed, because the cost of
    an expansion depends only on the shape."""
    rng = random.Random("series:shapes")
    shapes = []
    for i in range(count):
        factors = 1 + i % 3
        while True:
            mults = tuple(sorted(rng.sample(range(1, 13), factors)))
            lcm = math.lcm(*mults)
            if math.gcd(*mults) == 1 and lcm <= 60:
                break
        # Alternate signs inside a quotient, from a random start, so every
        # multi-factor quotient mixes a product and an inverse.
        first = rng.randrange(2)
        exps = tuple(
            rng.randint(1, 4) * (1 if (j + first) % 2 == 0 else -1)
            for j in range(factors)
        )
        shapes.append((lcm, mults, exps, precisions[(i // 3) % len(precisions)]))
    return shapes


def series(seed: int, size: dict) -> list[dict]:
    """``qexp etaq N d:r,... P`` over seeded eta quotients (levels <= 60, one
    to three factors, exponents of both signs), plus the fixed cases.

    Each quotient has a fixed shape (multipliers m_i, exponents, precision);
    the seed picks the scale g and the level N, a multiple of g * lcm(m_i)
    up to 60, and the quotient is prod eta(g m_i tau)^(r_i).  Scaling every
    divisor by g moves the exponent grid but not the work, so the seed
    changes the inputs and leaves the cost of each item in place."""
    rng = _rng("series", seed)
    items = []
    for lcm, mults, exps, prec in _quotient_shapes(size["series_items"], size["series_precisions"]):
        g = rng.randint(1, 60 // lcm)
        level = g * lcm * rng.randint(1, 60 // (g * lcm))
        spec = ",".join(f"{g * m}:{r}" for m, r in zip(mults, exps))
        items.append(
            {"group": "seeded", "argv": [["qexp", "etaq", str(level), spec, str(prec)]]}
        )
    for level, spec, prec in size["series_fixed"]:
        items.append({"group": "fixed", "argv": [["qexp", "etaq", level, spec, prec]]})
    return items


def crosscheck(seed: int, size: dict) -> list[dict]:
    """The commands a user runs to trust results: the verification suites
    (seeded where the suite takes a seed) and ``cusps N --oracle`` for one
    level out of each pair (2i-1, 2i), i <= oracle_pairs."""
    rng = _rng("crosscheck", seed)
    items = []
    for suite in size["suites"]:
        argv = ["verify", suite]
        if suite in ("eta-law", "cocycle", "character"):
            argv += ["--seed", str(seed)]
        items.append({"group": "suite", "argv": [argv]})
    for i in range(1, size["oracle_pairs"] + 1):
        n = 2 * i - rng.randrange(2)
        items.append({"group": "oracle", "argv": [["cusps", str(n), "--oracle"]]})
    return items


GENERATORS = {"scan": scan, "deep": deep, "series": series, "crosscheck": crosscheck}


def build(workload: str, seed: int, size_name: str = "full") -> list[dict]:
    return GENERATORS[workload](seed, SIZES[size_name])
