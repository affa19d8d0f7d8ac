"""The benchmark's own arithmetic and output checks.

Nothing here imports ``cuspdim``: the checks recompute what they compare
against by separate routes (Miller-Rabin and Pollard rho instead of trial
division, closed forms per prime power, an integer q-series recurrence
instead of rational series products), so a wrong answer from the program
cannot also be the reference.
"""

from __future__ import annotations

import json
import math
import re

M23_ELEMENT_ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard's rho, Floyd
    cycle detection)."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive integer."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def index_of(n: int) -> int:
    """Index of the level-n group: product of p^e + p^(e-1)."""
    return math.prod(p**e + p ** (e - 1) for p, e in factor(n).items())


def prime_power_cusp_count(p: int, e: int) -> int:
    """Cusps at level p^e: sum over k <= e of phi(p^min(k, e-k))."""
    total = 0
    for k in range(e + 1):
        m = min(k, e - k)
        total += 1 if m == 0 else p**m - p ** (m - 1)
    return total


def cusp_count_of(n: int) -> int:
    return math.prod(prime_power_cusp_count(p, e) for p, e in factor(n).items())


# -- integer eta-quotient expansions ------------------------------------------


def _euler_power(r: int, length: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - x^n)^r to `length` terms by the
    logarithmic-derivative recurrence k a_k = -r sum_m sigma(m) a_{k-m}."""
    sigma = [0] * length
    for d in range(1, length):
        for m in range(d, length, d):
            sigma[m] += d
    a = [0] * length
    a[0] = 1
    for k in range(1, length):
        acc = 0
        for m in range(1, k + 1):
            acc += sigma[m] * a[k - m]
        a[k] = -r * acc // k
    return a


def eta_quotient_reference(exponents: dict[int, int], terms: int):
    """(offset, step, coefficients) of prod eta(delta tau)^r to `terms` grid
    terms, computed over the integers."""
    step = math.gcd(*exponents)
    span = terms * step
    series = [0] * span
    series[0] = 1
    for delta, r in sorted(exponents.items()):
        if r == 0:
            continue
        factor_coeffs = _euler_power(r, (span - 1) // delta + 1)
        out = [0] * span
        for i, ci in enumerate(series):
            if ci:
                for j, cj in enumerate(factor_coeffs):
                    k = i + j * delta
                    if k >= span:
                        break
                    out[k] += ci * cj
        series = out
    offset = sum(d * r for d, r in exponents.items())
    g = math.gcd(offset, 24)
    offset_text = str(offset // g) if g == 24 else f"{offset // g}/{24 // g}"
    return offset_text, str(step), series[::step]


# -- output checks -------------------------------------------------------------
# Each check takes the item (as built by workloads.py) and the captured stdout
# of each of its commands, and returns None when the output is right or a
# short reason when it is not.  Output too malformed to read raises, and the
# caller counts that as a failed item.


def check_scan(item, outputs):
    try:
        doc = json.loads(outputs[0])
    except ValueError:
        return "classify output is not JSON"
    lo, hi = doc.get("range", [None, None])
    if len(doc.get("certificates", ())) != hi - lo + 1:
        return "certificate count does not match the range"
    if doc.get("undecided_levels") != []:
        return "undecided levels present"
    if hi >= 23 and doc.get("dim_one_levels") != M23_ELEMENT_ORDERS:
        return "dim-one levels differ from the M23 element orders"
    if hi >= 23 and doc.get("matches_m23_element_orders") is not True:
        return "matches_m23_element_orders is not true"
    return None


_CLASSIFY_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+\d+\s+\d+\s+\d+\s+\d+\s+\S+\s+(\w+)\s", re.M)


def check_deep(item, outputs):
    n = item["level"]
    row = _CLASSIFY_ROW.search(outputs[0])
    if row is None or int(row.group(1)) != n:
        return "classify table row missing"
    idx = index_of(n)
    if int(row.group(2)) != idx or int(row.group(3)) != cusp_count_of(n):
        return "classify index or cusp count differs from the reference"
    if row.group(4) != "DimAtLeastTwo":
        return f"verdict {row.group(4)} at a level above 23"
    try:
        doc = json.loads(outputs[1])
    except ValueError:
        return "cusps output is not JSON"
    widths = [c["width"] for c in doc["cusps"]]
    if doc["level"] != n or doc["index"] != idx or sum(widths) != idx:
        return "cusp widths do not sum to the reference index"
    if len(widths) != cusp_count_of(n):
        return "cusp count differs from the reference"
    return None


def check_series(item, outputs):
    _, _, level, spec, prec = item["argv"][0]
    exps: dict[int, int] = {}
    for part in spec.split(","):
        d, _, r = part.partition(":")
        exps[int(d)] = int(r)
    lines = outputs[0].splitlines()
    if len(lines) != 2:
        return "qexp output is not two lines"
    offset, step, coeffs = eta_quotient_reference(exps, int(prec))
    if lines[0] != f"offset {offset}, step {step}, {prec} terms":
        return "qexp header differs from the reference"
    if lines[1] != ", ".join(map(str, coeffs)):
        return "coefficients differ from the integer reference"
    return None


def check_crosscheck(item, outputs):
    argv = item["argv"][0]
    lines = outputs[0].splitlines()
    if argv[0] == "verify":
        if not lines or not lines[-1].endswith(" PASS"):
            return f"verify {argv[1]} did not print PASS"
        return None
    if "oracle cross-check: AGREE" not in lines:
        return "oracle did not print AGREE"
    return None


CHECKS = {
    "scan": check_scan,
    "deep": check_deep,
    "series": check_series,
    "crosscheck": check_crosscheck,
}
