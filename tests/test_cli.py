import ast
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspdim import cli, gamma0, qseries
from cuspdim.cli import main
from cuspdim.classify import (
    RULE_CANONICAL_EXCLUSION, RULE_SIMPLE_POLE, ClassificationReport, classify, classify_range
)
from cuspdim.gamma0 import cusps, group_profile

import ci_steps
from ci_steps import FROZEN_STDOUT_SHA256


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, argv, quoted):
    """argv exits 2 with nothing on stdout and a message that quotes the
    offending argument."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert captured.out == "", argv
    assert quoted in captured.err, (argv, captured.err)
    assert "invalid literal" not in captured.err, (argv, captured.err)


def test_classify_single_level(capsys):
    code, out, _ = run(capsys, ["classify", "9"])
    assert code == 0
    assert "DimAtLeastTwo" in out
    assert "strong-bound-exceeds-one" in out


def test_classify_range_text_summary(capsys):
    code, out, _ = run(capsys, ["classify", "1..23"])
    assert code == 0
    assert "dim-one levels: [1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23]" in out
    assert "matches M23 element orders: True" in out


def test_classify_range_json(capsys):
    code, out, _ = run(capsys, ["classify", "1..23", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["range"] == [1, 23]
    assert payload["dim_one_levels"] == [1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23]
    assert payload["undecided_levels"] == []
    assert payload["matches_m23_element_orders"] is True
    assert len(payload["certificates"]) == 23
    assert payload["certificates"][22]["rule"] == "weight-two-form-excludes-canonical-class"


def test_classify_partial_range_has_no_reference_comparison(capsys):
    code, out, _ = run(capsys, ["classify", "2..10", "--format", "json"])
    assert code == 0
    assert json.loads(out)["matches_m23_element_orders"] is None
    # 11..30 reaches 23 but does not start at 1
    code, out, _ = run(capsys, ["classify", "11..30"])
    assert code == 0
    assert "dim-one levels: [11, 14, 15, 23]" in out
    assert "matches M23" not in out


def test_classify_tsv(capsys):
    code, out, _ = run(capsys, ["classify", "1..5", "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == [
        "level", "verdict", "rule", "strong_bound", "genus",
        "divisor_degree", "witness_level",
    ]
    assert len(lines) == 6


def test_classify_malformed_range(capsys):
    # "1.." must not be read as level 1, nor "..5" as level 5.
    for bad in ("0..5", "5..2", "x", "3..y", "-1", "1..", "..5", "1..2..3"):
        assert_usage_error(capsys, ["classify", bad], repr(bad))


def test_cusps_text_with_oracle(capsys):
    code, out, _ = run(capsys, ["cusps", "28", "--oracle"])
    assert code == 0
    assert "oracle cross-check: AGREE" in out
    assert "width=28" in out
    assert "representative" in out


def test_cusps_oracle_disagreement(capsys, monkeypatch):
    # One orbit width off: exit 1 with the marker, after every table row.
    real = cli.oracle_cusps

    def skewed(n, cutoff):
        first, *rest = real(n, cutoff)
        return (first._replace(width=first.width + 1), *rest)

    monkeypatch.setattr(cli, "oracle_cusps", skewed)
    for fmt, marker in (
        ("text", "oracle cross-check: DISAGREE\n"),
        ("tsv", "oracle\tDISAGREE\t\t\n"),
        ("json", '"oracle": "DISAGREE"'),
    ):
        _, table, _ = run(capsys, ["cusps", "28", "--format", fmt])
        code, out, _ = run(capsys, ["cusps", "28", "--oracle", "--format", fmt])
        assert code == 1, fmt
        assert marker in out, fmt
        if fmt == "json":
            assert json.loads(out)["cusps"] == json.loads(table)["cusps"]
        else:
            assert out == table + marker, fmt


def test_cusps_oracle_refuses_above_cutoff(capsys):
    assert_usage_error(capsys, ["cusps", "301", "--oracle"], "exceeds cutoff")
    # raising the cutoff makes the same request valid
    code, out, err = run(capsys, ["cusps", "301", "--oracle", "--oracle-cutoff", "310"])
    assert code == 0
    assert "AGREE" in out


def test_cusps_nonpositive_level_is_usage_error(capsys):
    for level in ("0", "-4"):
        assert_usage_error(capsys, ["cusps", level], f"got {level}")


def test_cusps_json_metadata(capsys):
    code, out, _ = run(capsys, ["cusps", "16", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 16
    assert payload["index"] == 24
    assert [c["d"] for c in payload["cusps"]] == [1, 2, 4, 4, 8, 16]
    assert payload["oracle"] is None
    assert "representative" in payload["metadata"]["representative_convention"]


def test_qexp_eta3_json_frozen(capsys):
    code, out, _ = run(capsys, ["qexp", "eta3", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "offset": "1/8",
        "step": "1",
        "coeffs": ["1", "-3", "0", "5", "0", "0", "-7", "0", "0", "0"],
    }


def test_qexp_theta_equals_eta3(capsys):
    code, out_theta, _ = run(capsys, ["qexp", "theta", "2", "1", "40", "--format", "json"])
    assert code == 0
    code, out_eta3, _ = run(capsys, ["qexp", "eta3", "40", "--format", "json"])
    assert code == 0
    assert out_theta == out_eta3


def test_qexp_eta_quotient(capsys):
    code, out, _ = run(capsys, ["qexp", "etaq", "23", "1:2,23:2", "5"])
    assert code == 0
    assert "offset 2, step 1, 5 terms" in out
    assert "1, -2, -1, 2, 1" in out


def test_qexp_eta_quotient_zero_exponent_contributes_nothing(capsys):
    # At 10 terms the scale 3 of a zero exponent once cut eta(6 tau) short.
    for precision in ("4", "10"):
        code, without, _ = run(capsys, ["qexp", "etaq", "12", "6:1", precision])
        assert code == 0
        code, out, _ = run(capsys, ["qexp", "etaq", "12", "6:1,3:0", precision])
        assert (code, out) == (0, without)
    code, out, _ = run(capsys, ["qexp", "etaq", "12", "3:0", "3", "--format", "tsv"])
    assert (code, out) == (0, "index\texponent\tcoefficient\n0\t0\t1\n1\t1\t0\n2\t2\t0\n")


def test_qexp_huge_eta_exponent(capsys, monkeypatch):
    # The growth certificate of eta^r is (1, r - 1) in closed form, so
    # r = 10^12 loops over nothing; past 2^53 it is refused before any lane.
    code, out, _ = run(capsys, ["qexp", "etaq", "1", "1:1000000000000", "5"])
    assert code == 0
    assert "1, -1000000000000, 499999999998500000000000, " in out

    def no_lanes(count):
        raise AssertionError("lanes built for a refused exponent")

    monkeypatch.setattr(qseries, "_pentagonal_coeffs", no_lanes)
    for r in (2**53 + 2, 10**100):
        assert_usage_error(capsys, ["qexp", "etaq", "1", f"1:{r}", "4000"], "too large")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text digit limit"
)
def test_qexp_refuses_a_coefficient_too_long_for_text_before_any_write(capsys):
    # eta^(-10^8) has coefficients past the interpreter's digit limit within
    # 800 terms; each one is converted before the first write, in every format.
    limit = sys.get_int_max_str_digits()
    message = f"a coefficient has more than {limit} decimal digits"
    for fmt in ("text", "json", "tsv"):
        argv = ["qexp", "etaq", "1", "1:-100000000", "800", "--format", fmt]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), fmt
        assert message in err and "set_int_max_str_digits" not in err, err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer-to-text digit limit"
)
def test_qexp_refuses_an_unprintable_negative_quotient_before_expanding(capsys, monkeypatch):
    # The bound of cli._refuse_unprintable for eta^(-R) at J + 1 terms: refused from
    # J * (bit_length((R + J - 1) // J) - 1) >= ceil(3.322 L), which is 2127 at L = 640.
    def no_expansion(quotient, precision):
        raise AssertionError("expanded a refused quotient")

    limit = sys.get_int_max_str_digits()
    message = "decimal digits, the most this Python converts to text"
    # At J = 2, R = 2^1065 gives 2 * 1064.  At J = 1 the q^1 coefficient is R itself, and
    # 10^640 - 1 has 640 digits and bit length 2127: just under the bound, printed.
    over, under = str(2**1065), str(10**640 - 1)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(cli, "eta_quotient_expansion", no_expansion)
            for spec, prec in (("1:-1000000000000", "15000"), ("1:-1000000", "15000"),
                               ("2:-1,4:-10000000", "15000")):
                assert_usage_error(capsys, ["qexp", "etaq", "4", spec, prec], message)
            sys.set_int_max_str_digits(640)
            assert_usage_error(capsys, ["qexp", "etaq", "1", f"1:-{over}", "3"], message)
        code, out, _ = run(capsys, ["qexp", "etaq", "1", f"1:-{under}", "2"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and out.split("\n")[1] == f"1, {under}"
    # A quotient of mixed signs is left to the expansion.
    one = qseries.FracQSeries(0, 1, [1])
    monkeypatch.setattr(cli, "eta_quotient_expansion", lambda quotient, precision: one)
    code, out, _ = run(capsys, ["qexp", "etaq", "2", "1:-1000000000000,2:1", "15000"])
    assert (code, out) == (0, "offset 0, step 1, 1 terms\n1\n")


def test_qexp_tsv_exponents(capsys):
    code, out, _ = run(capsys, ["qexp", "eta", "3", "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["index", "exponent", "coefficient"]
    assert lines[1].split("\t") == ["0", "1/24", "1"]
    assert lines[2].split("\t") == ["1", "25/24", "-1"]


def test_qexp_default_precision_from_config(capsys):
    code, out, _ = run(capsys, ["qexp", "eta", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 200


def test_qexp_usage_errors(capsys):
    for bad, quoted in (
        (["theta", "1", "1", "10"], "got 1"),
        (["theta", "2"], "'theta 2'"),
        (["theta", "2", "1", "0"], "got 0"),
        (["nosuch", "10"], "'nosuch'"),
        (["etaq", "10", "3:1", "5"], "got 3"),
        (["etaq", "10", "3"], "'3'"),
        # a repeated scale is refused, not overwritten by its last exponent
        (["etaq", "4", "1:-8,1:3", "6"], "'1:-8,1:3'"),
        (["eta", "0"], "got 0"),
        (["eta", "10", "20"], "'eta 10 20'"),
        (["etaq", "x", "1:1", "10"], "malformed level 'x'"),
        (["theta", "z", "1", "10"], "malformed theta index 'z'"),
    ):
        assert_usage_error(capsys, ["qexp", *bad], quoted)


def test_series_term_cap_is_refused_before_any_product(capsys, monkeypatch):
    # A precision above the cap exits 2 before any series is expanded, as a
    # positional, as --precision or from CUSPDIM_PRECISION, and for the
    # euler-identity suite's depth.  CI runs that suite at depth 4096.
    assert cli.MAX_SERIES_TERMS >= 4096

    def no_series(*args, **kwargs):
        raise AssertionError(f"series built for a refused precision: {args} {kwargs}")

    for name in ("eta_quotient_expansion", "eta_expansion", "eta_cubed", "unary_theta",
                 "euler_identity_suite"):
        monkeypatch.setattr(cli, name, no_series)
    over = cli.MAX_SERIES_TERMS + 1
    message = f"precision {over} is more than {cli.MAX_SERIES_TERMS} series terms"
    etaq = ["qexp", "etaq", "12", "1:-4,6:3,12:-2"]
    for argv in (
        [*etaq, str(over)],
        [*etaq, "--precision", str(over)],
        ["qexp", "eta3", str(over)],
        ["qexp", "theta", "2", "1", "--precision", str(over)],
        ["verify", "euler-identity", "--precision", str(over)],
    ):
        assert_usage_error(capsys, argv, message)
    monkeypatch.setenv("CUSPDIM_PRECISION", str(over))
    assert_usage_error(capsys, ["qexp", "eta"], message)


def test_verify_euler_identity(capsys):
    code, out, _ = run(capsys, ["verify", "euler-identity"])
    assert code == 0
    assert "cube-vs-theta depth=200 PASS" in out
    assert "eta-quotient-1:3-vs-theta depth=200 PASS" in out
    assert "euler-identity: 2 checks, 0 failures PASS" in out


def test_verify_euler_identity_depth_follows_precision(capsys):
    code, out, _ = run(capsys, ["verify", "euler-identity", "--precision", "64"])
    assert code == 0
    assert "depth=64" in out


def test_verify_unreachable_tolerance_fails(capsys):
    # demanding 1e-20 puts every residual above tolerance: exit 1
    code, out, _ = run(capsys, ["verify", "cocycle", "--tolerance", "1e-20"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("suite, name", [("eta-law", "eta_law_suite"), ("cocycle", "cocycle_suite")])
def test_verify_tolerance_default_is_the_suites(monkeypatch, suite, name):
    # The command passes a tolerance only when one is set, so the suite's
    # own default is the one default.
    seen = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda **kw: seen.append(kw) or real(samples=1, **kw))
    monkeypatch.delenv("CUSPDIM_TOLERANCE", raising=False)
    main(["verify", suite])
    main(["verify", suite, "--tolerance", "1e-11"])
    monkeypatch.setenv("CUSPDIM_TOLERANCE", "1e-12")
    main(["verify", suite])
    assert [kw.get("tolerance") for kw in seen] == [None, 1e-11, 1e-12]


def test_verify_character_seed_reaches_the_suite(monkeypatch):
    # A passing character run prints the same bytes at every seed, so the
    # frozen digests cannot see the seed arrive; this watches for it.
    seen = []
    real = cli.character_suite
    monkeypatch.setattr(
        cli, "character_suite", lambda **kw: seen.append(kw["seed"]) or real(n_max=2, **kw)
    )
    monkeypatch.delenv("CUSPDIM_SEED", raising=False)
    main(["verify", "character"])
    main(["verify", "character", "--seed", "1"])
    monkeypatch.setenv("CUSPDIM_SEED", "1")
    main(["verify", "character"])
    assert seen == [0, 1, 1]


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "euler-identity", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "euler-identity"
    assert payload["ok"] is True


def test_env_defaults_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("CUSPDIM_PRECISION", "32")
    code, out, _ = run(capsys, ["qexp", "eta", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 32
    # an explicit flag beats the environment
    code, out, _ = run(capsys, ["qexp", "eta", "--format", "json", "--precision", "24"])
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 24
    monkeypatch.setenv("CUSPDIM_FORMAT", "json")
    code, out, _ = run(capsys, ["classify", "5"])
    assert code == 0
    json.loads(out)


def test_env_invalid_value_rejected(capsys, monkeypatch):
    monkeypatch.setenv("CUSPDIM_PRECISION", "abc")
    assert_usage_error(capsys, ["qexp", "eta"], "'abc'")


def test_config_validation_rejects_bad_values(capsys, monkeypatch):
    assert_usage_error(capsys, ["qexp", "eta", "--precision", "8"], "'8'")
    assert_usage_error(capsys, ["verify", "eta-law", "--tolerance", "-1"], "'-1'")
    # An infinite tolerance would pass every residual check.
    assert_usage_error(capsys, ["verify", "cocycle", "--tolerance", "inf"], "'inf'")
    monkeypatch.setenv("CUSPDIM_TOLERANCE", "1e999")
    assert_usage_error(capsys, ["verify", "cocycle"], "'1e999'")


@pytest.mark.parametrize(
    "env, argv, flag",
    [
        ({}, ["cusps", "5", "--oracle", "--oracle-cutoff", "0"], "--oracle-cutoff"),
        ({"CUSPDIM_FORMAT": "xml"}, ["classify", "5"], "--format"),
        ({"CUSPDIM_TOLERANCE": "-1"}, ["verify", "cocycle"], "--tolerance"),
        ({"CUSPDIM_SEED": "x"}, ["verify", "character"], "--seed"),
    ],
)
def test_bad_option_or_variable_is_usage_error(capsys, monkeypatch, env, argv, flag):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the message names the flag and its variable
    assert flag in captured.err
    assert "CUSPDIM_" + flag[2:].upper().replace("-", "_") in captured.err


def test_valid_flag_beats_invalid_variable(capsys, monkeypatch):
    monkeypatch.setenv("CUSPDIM_PRECISION", "abc")
    code, out, _ = run(capsys, ["qexp", "eta", "--format", "json", "--precision", "32"])
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 32


# The options each command and each verify suite reads, and so accepts.
READS = {
    "classify": {"--format"},
    "cusps": {"--format", "--oracle-cutoff"},
    "qexp": {"--format", "--precision"},
    "eta-law": {"--format", "--tolerance", "--seed"},
    "cocycle": {"--format", "--tolerance", "--seed"},
    "character": {"--format", "--seed"},
    "euler-identity": {"--format", "--precision"},
    "rr-identity": {"--format"},
}
# cusps reads --oracle-cutoff only with --oracle.
COMMANDS = {
    "classify": ["classify", "5"], "cusps": ["cusps", "5", "--oracle"], "qexp": ["qexp", "eta"],
}
# A valid value of each option, and a variable value that is not.
VALID = {"--format": "tsv", "--precision": "16", "--tolerance": "1", "--seed": "1",
         "--oracle-cutoff": "10"}
BAD = {"CUSPDIM_PRECISION": "abc", "CUSPDIM_TOLERANCE": "-1", "CUSPDIM_SEED": "x",
       "CUSPDIM_ORACLE_CUTOFF": "0"}


@pytest.mark.parametrize("flag", list(VALID))
@pytest.mark.parametrize("name", list(READS))
def test_an_option_is_accepted_exactly_where_it_is_read(capsys, monkeypatch, name, flag):
    for var in [v for v in os.environ if v.startswith("CUSPDIM_")]:
        monkeypatch.delenv(var)
    # Small suites: this test is about the options, not the checks.
    for suite, size in (("eta_law_suite", {"samples": 2}), ("cocycle_suite", {"samples": 2}),
                        ("character_suite", {"n_max": 2}), ("rr_identity_suite", {"n_max": 30})):
        monkeypatch.setattr(cli, suite, functools.partial(getattr(cli, suite), **size))
    argv = [*COMMANDS.get(name, ["verify", name]), flag, VALID[flag]]
    if flag in READS[name]:
        assert run(capsys, argv)[0] == 0, argv
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert captured.out == "", argv
    usage = name if name in COMMANDS else f"verify {name}"
    assert captured.err.startswith(f"usage: cuspdim {usage} "), captured.err
    assert f"error: unrecognized arguments: {flag} {VALID[flag]}" in captured.err


def test_a_variable_is_read_only_by_the_commands_that_read_its_option(capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("CUSPDIM_")]:
        monkeypatch.delenv(var)
    # A command reads a variable only in a call that uses its option: cusps
    # reads the cutoff only with --oracle, and qexp reads the precision only
    # for a series that gives none.
    commands = {
        ("classify", "1..30", "--format", "tsv"): set(),
        ("cusps", "12"): set(),
        ("cusps", "12", "--oracle"): {"CUSPDIM_ORACLE_CUTOFF"},
        ("qexp", "eta", "24"): set(),
        ("qexp", "eta"): {"CUSPDIM_PRECISION"},
        ("verify", "rr-identity"): set(),
    }
    expected = {argv: run(capsys, list(argv)) for argv in commands}
    assert all(code == 0 for code, _, _ in expected.values())
    for var, value in BAD.items():
        monkeypatch.setenv(var, value)
        for argv, reads in commands.items():
            if var in reads:
                assert_usage_error(capsys, list(argv), f"{value!r}")
            else:
                assert run(capsys, list(argv)) == expected[argv], (var, argv)
        monkeypatch.delenv(var)
    # All at once too, as in a stale shell.
    for var, value in BAD.items():
        monkeypatch.setenv(var, value)
    for argv, reads in commands.items():
        if not reads:
            assert run(capsys, list(argv)) == expected[argv], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["cusps", "12", "--oracle-cutoff", "5"],
        ["qexp", "eta", "24", "--precision", "16"],
        ["qexp", "etaq", "4", "1:-8,2:16,4:-8", "12", "--format", "tsv", "--precision", "200"],
    ],
)
def test_a_flag_that_changes_nothing_is_refused(capsys, argv):
    # The cutoff is read only with --oracle, and a series that gives its
    # own precision reads no --precision.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2, argv
    assert captured.out == "", argv
    assert captured.err.startswith(f"usage: cuspdim {argv[0]} "), captured.err
    assert "changes nothing" in captured.err, captured.err


def test_a_variable_is_a_default_not_a_flag(capsys, monkeypatch):
    # Where the flag would be refused, its variable changes nothing; where
    # the command reads the option, the variable is its default.
    for var in [v for v in os.environ if v.startswith("CUSPDIM_")]:
        monkeypatch.delenv(var)
    for var, value, argv in (
        ("CUSPDIM_ORACLE_CUTOFF", "5", ["cusps", "12"]),
        ("CUSPDIM_PRECISION", "16", ["qexp", "eta", "24"]),
    ):
        expected = run(capsys, argv)
        assert expected[0] == 0
        monkeypatch.setenv(var, value)
        assert run(capsys, argv) == expected, var
    assert_usage_error(capsys, ["cusps", "12", "--oracle"], "exceeds cutoff 5")
    assert run(capsys, ["qexp", "eta"])[1].startswith("offset 1/24, step 1, 16 terms\n")


def test_output_is_byte_deterministic(capsys):
    first = run(capsys, ["classify", "1..50", "--format", "json"])
    second = run(capsys, ["classify", "1..50", "--format", "json"])
    assert first == second
    a = run(capsys, ["verify", "eta-law", "--seed", "3"])
    b = run(capsys, ["verify", "eta-law", "--seed", "3"])
    assert a == b


def test_output_bytes_frozen(capsys, monkeypatch):
    for name in ("FORMAT", "PRECISION", "TOLERANCE", "SEED", "ORACLE_CUTOFF"):
        monkeypatch.delenv(f"CUSPDIM_{name}", raising=False)
    for argv, digest in FROZEN_STDOUT_SHA256.items():
        code, out, _ = run(capsys, list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


def test_ci_steps_fails_exactly_the_altered_digest_and_a_late_child(capsys):
    # The script's runner on fast commands: a digest as recorded, one altered,
    # and a child killed at a timeout too short for it.
    fast, altered = ("qexp", "eta", "8"), ("qexp", "theta", "2", "1", "8")
    table = {a: hashlib.sha256(run(capsys, list(a))[1].encode()).hexdigest() for a in (fast, altered)}
    recorded, table[altered] = table[altered], table[fast]
    slow = ("classify", "1..100000")
    checks = [ci_steps.cuspdim_check(argv, stdout=digest) for argv, digest in table.items()]
    assert ci_steps.run([*checks, ci_steps.cuspdim_check(slow, 0.05)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS cuspdim qexp eta 8",
        f"FAIL cuspdim qexp theta 2 1 8: stdout sha256 {recorded}",
        "FAIL cuspdim classify 1..100000: no end within 0.05 s",
    ]


def test_range_scan_builds_no_width_list(capsys, monkeypatch):
    # The bounds read the sum of ceil(w/8) from residues mod 8, and the
    # cusp-table check, run at the levels whose rule reads individual cusp
    # classes, compares moments of the widths: no width multiset is built and
    # the profile's widths are never read.
    def unread(profile):
        raise AssertionError(f"widths of level {profile.level} read on a range scan")

    def unbuilt(n):
        raise AssertionError(f"width multiset of level {n} built on a range scan")

    checked = []
    real = gamma0._divisor_classes

    def record(n, divs):
        checked.append(n)
        return real(n, divs)

    monkeypatch.setattr(gamma0.GroupProfile, "widths", property(unread))
    monkeypatch.setattr(gamma0, "_width_counts", unbuilt)
    monkeypatch.setattr(gamma0, "_divisor_classes", record)
    cusps.cache_clear()
    report = classify_range(2000)
    assert report.matches_m23()
    code, out, _ = run(capsys, ["classify", "1..2000", "--format", "json"])
    assert code == 0
    argv = ("classify", "1..2000", "--format", "json")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_STDOUT_SHA256[argv]
    assert json.loads(out) == report.to_json_obj()
    by_cusp_class = {RULE_SIMPLE_POLE, RULE_CANONICAL_EXCLUSION}
    assert set(checked) == {c.level for c in report.certificates if c.rule in by_cusp_class}
    assert set(checked) == {11, 14, 15, 23}


def test_range_scan_builds_no_fraction(capsys, monkeypatch):
    # From the sieve to the certificate the strong bound is an int.  Level
    # 23's witness compares cusp orders as Fractions, so the range starts
    # above it.
    argv = ["classify", "24..3000", "--format", "json"]
    code, expected, _ = run(capsys, argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built on a range scan")

    monkeypatch.setattr(importlib.import_module("cuspdim.classify"), "Fraction", refuse)
    assert run(capsys, argv) == (0, expected, "")


def test_checks_survive_python_O():
    # An assert vanishes under -O, so no module may use one for a check.
    package = Path(__file__).resolve().parents[1] / "src" / "cuspdim"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert statements at lines {asserts}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    env["PYTHONPATH"] = str(package.parent)
    argv = ("cusps", "120", "--oracle")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cuspdim", *argv], env=env, capture_output=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == FROZEN_STDOUT_SHA256[argv]


def test_one_input_gate():
    # Bad input is refused in one place per layer: only cli.main calls
    # parser.error, and only the two number checks of exact, _check_int and
    # _check_tolerance, test for bool.
    package = Path(__file__).resolve().parents[1] / "src" / "cuspdim"

    def sites(path, match):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return [
            (path.name, getattr(top, "name", "<module>"))
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and match(node)
        ]

    def is_error_call(node):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "error"

    def is_bool_check(node):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        )

    assert sites(package / "cli.py", is_error_call) == [("cli.py", "main")]
    # ... and only main maps an exception to an exit status: no command
    # returns 2 itself, and main has one except clause.
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    tops = {top.name: top for top in cli_tree.body if isinstance(top, ast.FunctionDef)}
    returns_two = [
        name
        for name, top in tops.items()
        if name.startswith("_cmd_")
        for node in ast.walk(top)
        if isinstance(node, ast.Return)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 2
    ]
    assert returns_two == []
    handlers = [node for node in ast.walk(tops["main"]) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    bool_checks = [
        site for path in sorted(package.glob("*.py")) for site in sites(path, is_bool_check)
    ]
    assert bool_checks == [("exact.py", "_check_int"), ("exact.py", "_check_tolerance")]


def test_classify_refuses_oversized_range(capsys, monkeypatch):
    def no_levels(lo, hi):
        raise AssertionError(f"levels {lo}..{hi} computed for a refused range")

    monkeypatch.setattr(cli, "_classify_window", no_levels)
    argv = ["classify", "1..1000001"]
    assert_usage_error(capsys, argv, "'1..1000001' spans more than 1000000 levels")


def test_cusps_refuses_oversized_table(capsys, monkeypatch):
    def no_blocks(n):
        raise AssertionError(f"cusp classes of level {n} enumerated for a refused table")

    monkeypatch.setattr(cli, "_cusp_blocks", no_blocks)
    # 2^60 has 3 * 2^29 cusp classes
    argv = ["cusps", str(2**60), "--format", "json"]
    assert_usage_error(capsys, argv, "has 1610612736 cusp classes, more than 1000000")


def test_cusps_checks_the_table_before_the_first_row(capsys, monkeypatch):
    # Each corruption of level 405 = 3^4 5 is refused, and in no format does
    # any row, header or opening brace reach stdout first: residue 2 of the
    # classes over d = 3 dropped (the count falls); the one class over d = 1
    # moved from width 405 to 406 (sum w rises); and that move with the one
    # class over d = 81 moved from width 5 to 4, which keeps the count,
    # sum w and sum ceil(w/8), so only sum w^2 sees it.
    real = gamma0._divisor_classes
    profile = gamma0.group_profile(405)
    wider = {1: lambda w, residues: (w + 1, residues)}
    corruptions = (
        {3: lambda w, residues: (w, residues[:-1])},
        wider,
        {**wider, 81: lambda w, residues: (w - 1, residues)},
    )
    for changes in corruptions:

        def corrupted(n, divs, changes=changes):
            for d, g, w, residues in real(n, divs):
                yield d, g, *changes.get(d, lambda *block: block)(w, residues)

        monkeypatch.setattr(gamma0, "_divisor_classes", corrupted)
        for fmt in ("json", "tsv", "text"):
            with pytest.raises(ArithmeticError, match="width multiset at level 405"):
                main(["cusps", "405", "--format", fmt])
            assert capsys.readouterr().out == "", fmt
    # The last corruption keeps the three lower moments.
    low = [
        sum(len(residues) * f(w) for _, _, w, residues in corrupted(405, gamma0.divisors(405)))
        for f in (lambda w: 1, lambda w: w, lambda w: -(-w // 8))
    ]
    assert low == [profile.cusp_count, profile.index, profile.ceil_eighths_sum]


def test_factorization_beyond_budget_is_refused():
    # 6 * psi_13: the cofactor psi_13 = 1287836182261 * 2575672364521 is too
    # large for Miller-Rabin and has no factor below the trial budget.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["classify"], ["cusps", "--format", "json"]):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdim", *argv, "19902264388079324315771886"],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "cannot factor 19902264388079324315771886" in proc.stderr


def test_exit_paths_end_without_traceback():
    # A refused input exits 2 with nothing on stdout; an uncertifiable check
    # is a counted failure, exit 1.  Neither reaches the interpreter's
    # traceback.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    unfactorable = "19902264388079324315771886"  # 6 * psi_13
    for argv, code, message in (
        (["cusps", "301", "--oracle"], 2, "level 301 exceeds cutoff 300"),
        (["classify", unfactorable], 2, f"cannot factor {unfactorable}"),
        (["verify", "eta-law", "--tolerance", "1e-300"], 1, ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdim", *argv],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == code, (argv, proc.stderr)
        assert message in proc.stderr and "Traceback" not in proc.stderr, argv
        if code == 2:
            assert proc.stdout == "", argv
        else:
            lines = proc.stdout.splitlines()
            assert len(lines) == 1001 and all(line.endswith(" FAIL") for line in lines)
            assert "worst=" not in lines[-1]


def test_refusal_shows_the_commands_usage(capsys):
    # A refusal by the command reads like one by argparse for that command.
    def stderr_of(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    refused = stderr_of(["cusps", "301", "--oracle"])
    by_argparse = stderr_of(["cusps", "5", "--precision", "3"])
    assert refused.startswith("usage: cuspdim cusps ")
    assert refused.splitlines()[0] == by_argparse.splitlines()[0]
    assert "cuspdim cusps: error: level 301 exceeds cutoff 300" in refused


def test_classify_tsv_refused_part_way_prints_nothing(capsys):
    # The second level of this window cannot be factored; the first can,
    # and in no format does any of it reach stdout: no row, no TSV header,
    # no opening brace of the JSON.
    first = 19902264388079324315771885  # 5 * 41 * 1017139 * 95448327639797723
    for fmt in ("tsv", "json", "text"):
        argv = ["classify", f"{first}..{first + 1}", "--format", fmt]
        assert_usage_error(capsys, argv, f"cannot factor {first + 1}")
    code, out, _ = run(capsys, ["classify", str(first), "--format", "tsv"])
    assert code == 0 and out.count("\n") == 2


def test_undecided_level_exits_one_in_every_format(capsys, monkeypatch):
    # Without the genus-two endgame level 23 is Undecided: a rule coverage
    # gap, counted as a failure in every format.
    monkeypatch.setattr(
        importlib.import_module("cuspdim.classify"), "_weight_two_exclusion", lambda p: None
    )
    code, out, _ = run(capsys, ["classify", "1..30"])
    assert code == 1
    assert out.endswith(
        "UNDECIDED levels (rule coverage gap!): [23]\nmatches M23 element orders: False\n"
    )
    code, out, _ = run(capsys, ["classify", "1..30", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["undecided_levels"] == [23]
    assert payload["matches_m23_element_orders"] is False
    code, out, _ = run(capsys, ["classify", "1..30", "--format", "tsv"])
    assert code == 1
    assert [row for row in out.splitlines() if row.startswith("23\t")] == [
        "23\tUndecided\tundecided\t1\t2\t2\t"
    ]


def test_classify_tsv_rows_are_printed_as_decided(capsys, monkeypatch):
    # Rows leave before the window ends, in TSV and in JSON: an internal
    # fault after the first level still finds its row on stdout.
    def one_then_fault(lo, hi):
        yield classify(lo), group_profile(lo)
        raise ArithmeticError("after the first level")

    monkeypatch.setattr(cli, "_classify_window", one_then_fault)
    with pytest.raises(ArithmeticError, match="after the first level"):
        main(["classify", "1..5", "--format", "tsv"])
    assert capsys.readouterr().out.splitlines()[1].startswith("1\tDimOne\t")
    with pytest.raises(ArithmeticError, match="after the first level"):
        main(["classify", "1..5", "--format", "json"])
    first = cli._certificate_json(classify(1))[2:]  # an item text without its leading ",\n"
    assert capsys.readouterr().out == '{\n  "certificates": [\n' + first


def test_cusps_json_rows_match_json_module(capsys):
    # The block writer against the generic encoder, on every small level and
    # on levels with more than 4096 cusp classes.
    big = (304250263527210, 2**10 * 3**4 * 5**2 * 7, 2**12 * 3**4 * 5**2)
    for n in (*range(1, 3001), *big):
        profile = group_profile(n)
        for oracle in (None, "AGREE") if n <= 3000 else (None,):
            envelope = {
                "level": n,
                "index": profile.index,
                "oracle": oracle,
                "metadata": {"representative_convention": cli.REPRESENTATIVE_NOTE},
            }
            cli._emit_rows_json("cusps", cli._cusp_json(gamma0._cusp_blocks(n)), lambda: envelope)
            rows = [
                {"a": c.a, "d": c.d, "representative": str(c.representative), "width": c.width}
                for c in cusps(n)
            ]
            expected = json.dumps({**envelope, "cusps": rows}, indent=2, sort_keys=True)
            assert capsys.readouterr().out == expected + "\n", n
    assert all(group_profile(n).cusp_count > 4096 for n in big)


def window_report(lo, hi):
    return ClassificationReport(hi, tuple(classify(n) for n in range(lo, hi + 1)), lo)


def test_certificate_json_rows_match_json_module(capsys):
    # The row writer against the generic encoder: matches_m23_element_orders
    # true (1..60) and null (23..23, 9..9, 24..40), the weight-two witness
    # (23) and the simple-pole witnesses (11, 14, 15).
    for lo, hi in ((1, 60), (23, 23), (9, 9), (24, 40), (11, 15)):
        report = window_report(lo, hi)
        expected = json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
        rows = map(cli._certificate_json, report.certificates)

        def envelope():
            assert next(rows, None) is None  # read after the last row
            return report.summary()

        cli._emit_rows_json("certificates", rows, envelope)
        assert capsys.readouterr().out == expected, (lo, hi)
        code, out, _ = run(capsys, ["classify", f"{lo}..{hi}", "--format", "json"])
        assert code == 0 and out == expected, (lo, hi)
    assert [c.witness["width"] for c in map(classify, (11, 14, 15))] == [11, 14, 15]
    assert classify(23).witness is not None


def test_classify_prints_the_library_report(capsys):
    # One schema: the CLI prints the report's JSON object and TSV rows, and
    # classify_range is the report of the range that starts at 1.
    for lo, hi in ((1, 60), (23, 23), (24, 40), (11, 15)):
        code, out, _ = run(capsys, ["classify", f"{lo}..{hi}", "--format", "json"])
        assert code == 0
        assert json.loads(out) == window_report(lo, hi).to_json_obj(), (lo, hi)
    assert classify_range(25).to_json_obj()["range"] == [1, 25]
    code, out, _ = run(capsys, ["classify", "20..30", "--format", "tsv"])
    assert code == 0
    assert out == "".join("\t".join(row) + "\n" for row in window_report(20, 30).to_tsv_rows())


def test_parser_built_once_and_variables_read_per_call(capsys, monkeypatch):
    built = []
    real = cli._build_parser

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_build_parser", spy)
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("CUSPDIM_FORMAT", "json")
    monkeypatch.setenv("CUSPDIM_PRECISION", "20")
    code, out, _ = run(capsys, ["qexp", "eta"])
    assert code == 0 and len(json.loads(out)["coeffs"]) == 20
    monkeypatch.setenv("CUSPDIM_FORMAT", "tsv")
    monkeypatch.setenv("CUSPDIM_PRECISION", "30")
    code, out, _ = run(capsys, ["qexp", "eta"])
    assert code == 0
    assert out.splitlines()[0] == "index\texponent\tcoefficient" and len(out.splitlines()) == 31
    monkeypatch.delenv("CUSPDIM_FORMAT")
    monkeypatch.delenv("CUSPDIM_PRECISION")
    code, out, _ = run(capsys, ["qexp", "eta"])
    assert code == 0 and out.startswith("offset 1/24, step 1, 200 terms\n")
    monkeypatch.setenv("CUSPDIM_PRECISION", "abc")
    assert_usage_error(capsys, ["qexp", "eta"], "'abc'")
    assert built == [1]


def test_large_semiprime_level_does_not_hang():
    # Trial division would run to 10^12 here; Brent's rho splits it at once.
    p, q = 1000000000039, 1000000000061
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUSPDIM_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def run_cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cuspdim", *argv, str(p * q)],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    table = run_cli("classify").splitlines()
    assert table[1].split()[:3] == [str(p * q), str((p + 1) * (q + 1)), "4"]
    payload = json.loads(run_cli("cusps", "--format", "json"))
    assert payload["index"] == (p + 1) * (q + 1)
    assert [(c["d"], c["width"]) for c in payload["cusps"]] == [
        (1, p * q), (p, q), (q, p), (p * q, 1)
    ]
