"""Command-line surface: classification reports, cusp tables with an
optional brute-force cross-check, exact q-expansions, and the verification
suites.

Exit status contract, decided in ``main`` alone: a command returns 0
when all checks pass and all verdicts are decided, and 1 for a counted
mathematical failure (an Undecided verdict, a residual above tolerance or
uncertifiable, or an oracle disagreement).  Any ``ValueError`` a command
raises, its own or the library's, is a refused input: ``main`` turns it
into the ``parser.error`` of the command or suite, which exits 2 with the
message and its usage line on stderr, as argparse does for what it refuses.
Data sources refuse when called; commands call them before their first
write, so a refusal leaves stdout empty.  An ``ArithmeticError`` is an
internal fault and is not caught.  Output is deterministic given the
inputs and the seed.  ``classify`` makes one pass and keeps no
certificates: TSV and JSON rows are printed as their levels are decided
(so a fault part way leaves them on stdout); the text table keeps one
line per level for its column widths.

Each command and verify suite accepts only the options ``READS`` lists for
it.  A flag is parsed with no default and converted and range-checked by its
argparse ``type=``.  An option no flag set is read through ``_value`` where
the command uses it, from the matching ``CUSPDIM_*`` variable, else the
fallback, through the same conversion; so a flag beats a bad variable,
either failure is a usage error, and a variable is read only in a call that
uses its option: ``cusps`` reads ``CUSPDIM_ORACLE_CUTOFF`` only with
``--oracle``, and ``qexp`` reads ``CUSPDIM_PRECISION`` only for a series
that gives no precision.  A command can thus tell a flag from a default,
and a flag it cannot use in that call exits 2 like any refused input:
``cusps --oracle-cutoff`` without ``--oracle``, and ``qexp --precision``
beside a series that gives its own precision.  A variable is a default, not
a flag, and is never refused for that.  The parser is built once per
process, by the first ``main`` call, and every call reads the variables
afresh.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .classify import Verdict, _certificate_texts, _classify_window, _summary, _tsv_rows
from .gamma0 import _cusp_blocks, _denominator_text, group_profile
from .oracle import ORACLE_CUTOFF, oracle_cusps
from .qseries import EtaQuotient, eta_cubed, eta_expansion, eta_quotient_expansion, unary_theta
from .verify import (
    character_suite,
    cocycle_suite,
    eta_law_suite,
    euler_identity_suite,
    rr_identity_suite,
)

__all__ = ["main"]

ENV_PREFIX = "CUSPDIM_"

# A million levels take 4 to 7 s (``classify 1..1000000 --format tsv``: 6.9, 5.0 and 4.0 s in
# three runs on a shared 2-core host, which took 9.4 to 12.5 s before the profile sieve); larger
# ranges are refused, not left to run for hours.
MAX_RANGE_LEVELS = 10**6
# Likewise a table of more cusp classes than this is refused before it is built.
MAX_CUSP_CLASSES = 10**6
# Likewise a series precision above this, before any product is computed: the widest products
# grow fast (``qexp etaq 12 1:-4,6:3,12:-2 15000 --format tsv``: 9.0 to 9.8 s in three runs on a
# shared 2-core host, Python 3.11).
MAX_SERIES_TERMS = 15000

REPRESENTATIVE_NOTE = (
    "cusp representatives use the least nonnegative numerator coprime to the "
    "class denominator within its residue class; any other reduced fraction "
    "in the class is equally valid"
)


# The options each command and each verify suite reads; it accepts no others.
READS = {
    "classify": ("--format",),
    "cusps": ("--format", "--oracle-cutoff"),
    "qexp": ("--format", "--precision"),
    "eta-law": ("--format", "--tolerance", "--seed"),
    "cocycle": ("--format", "--tolerance", "--seed"),
    "character": ("--format", "--seed"),
    "euler-identity": ("--format", "--precision"),
    "rr-identity": ("--format",),
}


def _option(flag, cast, expected, ok=lambda value: True, fallback=None, **kwargs):
    """A parent parser holding ``flag`` alone, with no default, for every
    parser that reads it, and (dest, default) for ``main``: ``default()``
    reads the ``CUSPDIM_*`` variable, else ``fallback``, at the call and
    gives its value, or None when neither is set.  Both convert with
    ``cast`` and check ``ok``."""
    var = ENV_PREFIX + flag[2:].upper().replace("-", "_")

    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {expected} (flag or {var})")

    def default():
        text = os.environ.get(var, fallback)
        try:
            return None if text is None else parse(text)
        except argparse.ArgumentTypeError as exc:
            # The words argparse uses for a flag's bad value.
            raise ValueError(f"argument {flag}: {exc}") from None

    parent = argparse.ArgumentParser(add_help=False)
    return parent, (parent.add_argument(flag, type=parse, **kwargs).dest, default)


def _build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The parser, the parser of each command and suite by name, and each
    option's default by dest."""
    parser = argparse.ArgumentParser(
        prog="cuspdim",
        description=(
            "Exact invariants of Hecke congruence groups and certified "
            "dimension verdicts for weight-3/2 cusp forms with the cubed "
            "eta multiplier."
        ),
    )
    # Not ``choices``: argparse never checks those against a default.
    formats = ("json", "tsv", "text")
    options = {
        "--format": _option(
            "--format", str, f"one of {', '.join(formats)}", formats.__contains__, "text",
            metavar="{" + ",".join(formats) + "}",
            help="output format (default: text)",
        ),
        "--precision": _option(
            "--precision", int, "an integer >= 16", lambda p: p >= 16, "200",
            help="series precision for numeric work (default: 200, minimum 16)",
        ),
        # No single default: each suite picks its own (see _cmd_verify).
        "--tolerance": _option(
            "--tolerance", float, "a finite number > 0", lambda t: math.isfinite(t) and t > 0,
            help="numeric tolerance (default: each suite's own)",
        ),
        "--seed": _option(
            "--seed", int, "an integer", fallback="0",
            help="seed for randomized suites (default: 0)",
        ),
        "--oracle-cutoff": _option(
            "--oracle-cutoff", int, "an integer >= 1", lambda c: c >= 1, str(ORACLE_CUTOFF),
            help=f"largest level the brute-force oracle accepts (default: {ORACLE_CUTOFF})",
        ),
    }
    parsers = {}

    def add(sub, name, **kw):
        parsers[name] = sub.add_parser(name, parents=[options[f][0] for f in READS[name]], **kw)
        return parsers[name]

    sub = parser.add_subparsers(dest="command", required=True)
    add(sub, "classify", help="dimension verdicts with certificates").add_argument(
        "range", help="level n, or inclusive range a..b"
    )
    p_cusps = add(sub, "cusps", help="cusp classes of one level, with widths")
    p_cusps.add_argument("level", type=int)
    p_cusps.add_argument(
        "--oracle", action="store_true", help="cross-check against brute-force orbit enumeration"
    )
    add(sub, "qexp", help="exact q-expansion coefficients").add_argument(
        "series", nargs="+",
        help="eta PREC | eta3 PREC | theta L R PREC | etaq N d:r[,d:r...] PREC",
    )
    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    for name in ("eta-law", "cocycle", "character", "euler-identity", "rr-identity"):
        add(suites, name)
    return parser, parsers, dict(spec for _, spec in options.values())


def _value(args, dest: str):
    """An option the command reads, read where the command uses it: its
    flag's value, else its default, which reads the ``CUSPDIM_*`` variable
    now (None for ``--tolerance`` when neither is set)."""
    value = getattr(args, dest)
    return _parser[2][dest]() if value is None else value


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_rows_json(key, item_texts, envelope) -> None:
    """Print ``_emit_json`` of ``envelope()`` with a nonempty list under
    ``key`` added, given each list item as its own indented JSON text led
    by a comma and a newline, which the first item is written without.  The
    opening brace is printed first and each item as it arrives; ``envelope``
    is called after the last, and ``key`` must sort before every key of what
    it returns."""
    write, texts = sys.stdout.write, iter(item_texts)
    write(f'{{\n  "{key}": [\n')
    write(next(texts)[2:])
    for text in texts:
        write(text)
    rest = json.dumps(envelope(), indent=2, sort_keys=True)
    write(f"\n  ],\n{rest[2:]}\n")


def _cusp_json(blocks):
    """Each class of the cusp table as an item of ``_emit_rows_json``, from
    its (d, width, numerators) blocks with one f-string per class, d and
    the width formatted once per block: every field is an int or a
    digits-and-slash string, so nothing needs escaping."""
    for d, w, numerators in blocks:
        head = f',\n      "d": {d},\n      "representative": "'
        tail = f'{_denominator_text(d)}",\n      "width": {w}\n    }}'
        for a in numerators:
            yield f',\n    {{\n      "a": {a}{head}{a}{tail}'


def _certificate_json(c) -> str:
    """One certificate row as an item of ``_emit_rows_json``, from
    ``_certificate_texts``; only the witness may need escaping, and JSON
    text holds no raw newline to indent wrongly."""
    n, verdict, rule, bound, genus, deg = _certificate_texts(c)
    witness = "null" if c[6] is None else json.dumps(
        c[6], indent=2, sort_keys=True
    ).replace("\n", "\n      ")
    return (
        f',\n    {{\n      "divisor_degree": {deg},\n      "genus": {genus},\n'
        f'      "level": {n},\n      "rule": "{rule}",\n'
        f'      "strong_bound": "{bound}",\n      "verdict": "{verdict}",\n'
        f'      "witness": {witness}\n    }}'
    )


def _emit_tsv(rows) -> None:
    write = sys.stdout.write
    for row in rows:
        write("\t".join(row) + "\n")


def _parse_range(text: str) -> tuple[int, int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
        if 1 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise ValueError(f"malformed level range {text!r}; expected n or a..b with 1 <= a <= b")


def _cmd_classify(args) -> int:
    fmt = _value(args, "format")
    lo, hi = _parse_range(args.range)
    if hi - lo >= MAX_RANGE_LEVELS:
        raise ValueError(f"range {args.range!r} spans more than {MAX_RANGE_LEVELS} levels")
    dim_one, undecided = [], []
    levels = _classify_window(lo, hi)
    # Read once, not per level: an Enum member is read several times slower than a local.
    at_least_two, one = Verdict.DIM_AT_LEAST_TWO, Verdict.DIM_ONE

    def window():
        # The one pass: each level is tallied as it is decided, then printed.
        for c, p in levels:
            if c[1] is not at_least_two:
                (dim_one if c[1] is one else undecided).append(c[0])
            yield c, p

    if fmt == "json":
        _emit_rows_json(
            "certificates", (_certificate_json(c) for c, _ in window()),
            lambda: _summary(lo, hi, dim_one, undecided),
        )
    elif fmt == "tsv":
        _emit_tsv(_tsv_rows(c for c, _ in window()))
    else:
        # The column widths need the whole range: keep one row per level.
        header = "level index cusps mu2 mu3 genus divdeg bound verdict rule".split()
        widths, table = list(map(len, header)), [header]
        for c, p in window():
            n, verdict, rule, bound, genus, deg = _certificate_texts(c)
            row = (n, *map(str, p[1:6]), deg, bound, verdict, rule)
            widths = list(map(max, widths, map(len, row)))
            table.append(row)
        for row in table:
            print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        print()
        print(f"dim-one levels: {dim_one}")
        if undecided:
            print(f"UNDECIDED levels (rule coverage gap!): {undecided}")
        matches = _summary(lo, hi, dim_one, undecided)["matches_m23_element_orders"]
        if matches is not None:
            print(f"matches M23 element orders: {matches}")
    return 1 if undecided else 0


def _cmd_cusps(args) -> int:
    """The cusp table of one level, streamed as ``_cusp_blocks`` resolves it:
    one write per class, d and the width formatted once per divisor block.
    The table's size, the oracle's cutoff and the table's widths are checked
    before anything is printed; the oracle's widths are compared with the
    profile's full width multiset, which ``_cusp_blocks`` checks only by moments."""
    if args.oracle_cutoff is not None and not args.oracle:
        raise ValueError(f"--oracle-cutoff {args.oracle_cutoff} changes nothing without --oracle")
    fmt = _value(args, "format")
    n = args.level
    profile = group_profile(n)
    if profile.cusp_count > MAX_CUSP_CLASSES:
        raise ValueError(
            f"level {n} has {profile.cusp_count} cusp classes, more than {MAX_CUSP_CLASSES}"
        )

    # The oracle refuses a level above its cutoff before the table is built.
    orbits = oracle_cusps(n, _value(args, "oracle_cutoff")) if args.oracle else None
    blocks = _cusp_blocks(n)
    oracle_verdict = None
    if args.oracle:
        formula_widths = [w for w, count in profile.widths for _ in range(count)]
        orbit_widths = sorted(o.width for o in orbits)
        oracle_verdict = "AGREE" if formula_widths == orbit_widths else "DISAGREE"

    write = sys.stdout.write
    if fmt == "json":
        _emit_rows_json("cusps", _cusp_json(blocks), lambda: {
            "level": n, "index": profile.index, "oracle": oracle_verdict,
            "metadata": {"representative_convention": REPRESENTATIVE_NOTE},
        })
    elif fmt == "tsv":
        write("a\td\trepresentative\twidth\n")
        for d, w, numerators in blocks:
            head, tail = f"\t{d}\t", f"{_denominator_text(d)}\t{w}\n"
            for a in numerators:
                write(f"{a}{head}{a}{tail}")
        if oracle_verdict is not None:
            print(f"oracle\t{oracle_verdict}\t\t")
    else:
        print(f"level {n}: index {profile.index}, {profile.cusp_count} cusp classes")
        for d, w, numerators in blocks:
            head, over, tail = f" d={d:<6d} representative=", _denominator_text(d), f" width={w}\n"
            for a in numerators:
                write(f"  a={a:<4d}{head}{f'{a}{over}':<10s}{tail}")
        print(f"note: {REPRESENTATIVE_NOTE}")
        if oracle_verdict is not None:
            print(f"oracle cross-check: {oracle_verdict}")
    return 0 if oracle_verdict in (None, "AGREE") else 1


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


def _series_terms(prec: int) -> int:
    if prec > MAX_SERIES_TERMS:
        raise ValueError(f"precision {prec} is more than {MAX_SERIES_TERMS} series terms")
    return prec


def _build_series(args):
    """The series ``args.series`` names, to its own precision when it gives
    one, else to the ``--precision`` option, read only then.  A flag beside
    a precision the series gives would change nothing and is refused."""
    words = args.series
    kind, params = words[0], words[1:]
    required = {"eta": 0, "eta3": 0, "theta": 2, "etaq": 2}.get(kind)
    if required is None:
        raise ValueError(f"unknown series kind {kind!r}; expected eta, eta3, theta, or etaq")
    if len(params) not in (required, required + 1):
        raise ValueError(
            f"qexp {kind} takes {required} parameters and an optional precision, "
            f"got {' '.join(words)!r}"
        )
    if len(params) == required:
        precision = _value(args, "precision")
    elif args.precision is None:
        precision = _integer(params[required], "precision")
    else:
        raise ValueError(
            f"--precision {args.precision} changes nothing: the series gives its own precision "
            f"{params[required]!r}"
        )
    prec = _series_terms(precision)
    if kind == "eta":
        return eta_expansion(prec)
    if kind == "eta3":
        return eta_cubed(prec)
    if kind == "theta":
        ell, r = _integer(params[0], "theta index"), _integer(params[1], "theta residue")
        return unary_theta(ell, r, prec)
    level = _integer(params[0], "level")
    # An item without exactly one colon fails to unpack, also with ValueError.
    try:
        pairs = [(int(d), int(r)) for d, r in (item.split(":") for item in params[1].split(","))]
    except ValueError:
        raise ValueError(f"malformed eta quotient {params[1]!r}") from None
    exponents = dict(pairs)
    if len(exponents) < len(pairs):
        raise ValueError(f"a scale repeats in eta quotient {params[1]!r}")
    quotient = EtaQuotient(level, exponents)
    _refuse_unprintable(quotient, prec)
    return eta_quotient_expansion(quotient, prec)


def _too_long_for_text() -> ValueError:
    return ValueError(
        f"a coefficient has more than {sys.get_int_max_str_digits()} decimal digits, "
        "the most this Python converts to text"
    )


def _refuse_unprintable(quotient, prec: int) -> None:
    """Refuse, before expanding it, a quotient of negative powers only whose
    output would hold a coefficient with more decimal digits than the
    interpreter's limit L converts to text; quotients of mixed sign pass.

    Each factor eta(d tau)^(-R) is q^(-dR/24) times prod (1 - q^(dn))^(-R),
    whose coefficients are nonnegative with constant term 1.  In a product
    of such series a coefficient is at least that of any one factor, and in
    that factor at least that of (1 - q^d)^(-R) alone, C(R+J-1, J) at
    q^(dJ).  That is the product of (R-1+t)/t over 1 <= t <= J, each at
    least (R+J-1)/J, so it is at least m^J with m = (R+J-1)//J, and
    m >= 2^(bit_length(m)-1).  With J = (P-1)*step//d, q^(dJ) past the
    offset is grid index dJ/step <= P-1, a printed term.  As log2(10) <
    3.322, 2^ceil(3.322 L) > 10^L has more than L digits, so no refused
    quotient had printable output.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    factors = [(d, r) for d, r in quotient.exponents.items() if r]
    if not limit or any(r > 0 for _, r in factors):
        return
    bits = -(-3322 * limit // 1000)
    step = math.gcd(*(d for d, _ in factors))
    for d, r in factors:
        j = (prec - 1) * step // d
        if j and j * (((j - r - 1) // j).bit_length() - 1) >= bits:
            raise _too_long_for_text()


def _cmd_qexp(args) -> int:
    """The series in the chosen format, each coefficient converted to text
    once, before the first write: a coefficient too long for ``str`` is
    refused with stdout still empty."""
    fmt = _value(args, "format")
    series = _build_series(args)
    try:
        obj = series.to_json_obj()
    except ValueError:
        raise _too_long_for_text() from None
    if fmt == "json":
        _emit_json(obj)
    elif fmt == "tsv":
        rows = [("index", "exponent", "coefficient")]
        rows += [(str(k), str(series.exponent(k)), c) for k, c in enumerate(obj["coeffs"])]
        _emit_tsv(rows)
    else:
        print(f"offset {series.offset}, step {series.step}, {series.precision} terms")
        print(", ".join(obj["coeffs"]))
    return 0


def _cmd_verify(args) -> int:
    # The options READS lists for the suite are its arguments; a tolerance only when set, as each
    # numeric suite owns its default.  The suite is looked up per call, so a test can replace it.
    fmt = _value(args, "format")
    kwargs = {
        k: v for k in ("seed", "tolerance") if k in args and (v := _value(args, k)) is not None
    }
    if "precision" in args:
        kwargs["depth"] = _series_terms(_value(args, "precision"))
    result = {
        "eta-law": eta_law_suite, "cocycle": cocycle_suite, "character": character_suite,
        "euler-identity": euler_identity_suite, "rr-identity": rr_identity_suite,
    }[args.suite](**kwargs)
    if fmt == "json":
        _emit_json(result.to_json_obj())
    elif fmt == "tsv":
        rows = [("check", "status")]
        rows += [tuple(line.rsplit(" ", 1)) for line in result.lines]
        _emit_tsv(rows)
    else:
        for line in result.lines:
            print(line)
        print(result.summary())
    return 0 if result.ok else 1


_parser = None  # what _build_parser returns, once per process


def main(argv=None) -> int:
    global _parser
    parser, parsers, _ = _parser = _parser or _build_parser()
    args, unread = parser.parse_known_args(argv)
    command = {
        "classify": _cmd_classify, "cusps": _cmd_cusps, "qexp": _cmd_qexp, "verify": _cmd_verify,
    }[args.command]
    try:
        if unread:
            raise ValueError(f"unrecognized arguments: {' '.join(unread)}")
        return command(args)
    except ValueError as exc:
        # The usage line of the command or suite, as argparse prints it for a refused option.
        parsers[getattr(args, "suite", args.command)].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
