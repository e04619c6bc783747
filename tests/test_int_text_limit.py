"""Output and input past CPython's int-to-text limit, with the limit left alone.

The session runs under the default limit of 4300 digits (see conftest.py).
Importing the package must not change it, the library must convert
integers of any size to and from text without it, and the CLI must print
the same bytes as an interpreter with no limit, or with the lowest one
CPython accepts.  The oracles are `str()` and `int()` inside
`int_text_unlimited()`.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEFAULT_INT_MAX_STR_DIGITS, checkout_env, int_text_unlimited
from primeconst import cli, exact_arith
from primeconst.constant import enclose, enclose_digits
from primeconst.crosscheck import alpha_build, nondivisor_mean
from primeconst.exact_arith import RationalInterval, format_rational, parse_decimal, parse_rational, to_decimal
from primeconst.recurrence import recover, residuals
from primeconst.sequences import SequenceSpec, load_sequence_file, smallest_nondividing_prime

# Terms of an admissible sequence file, each about 10^5000.
HUGE_TERMS = [10**5000 + k for k in range(4)]


def digit_string(length, seed):
    rng = random.Random(seed)
    return str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(length - 1))


def unlimited_text(n):
    with int_text_unlimited():
        return str(n)


def test_session_runs_under_the_default_limit():
    assert sys.get_int_max_str_digits() == DEFAULT_INT_MAX_STR_DIGITS
    with pytest.raises(ValueError):
        str(10**DEFAULT_INT_MAX_STR_DIGITS)


def python_with_limit(limit, *args):
    """A fresh interpreter with the given int-to-text limit, importing the package from this checkout."""
    return subprocess.run(
        [sys.executable, "-X", f"int_max_str_digits={limit}", *args],
        capture_output=True, text=True, env=checkout_env(), timeout=60,
    )


def test_import_leaves_the_limit_alone():
    proc = python_with_limit(4300, "-c", "import primeconst, primeconst.cli, sys; print(sys.get_int_max_str_digits())")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4300\n", "")


class TestLibrary:
    def test_enclosure_of_twenty_thousand_digits(self):
        enclosure = enclose_digits(SequenceSpec.primes(), 20_000)
        lo, _, product = enclosure.ints
        value = Fraction(lo, product)
        with int_text_unlimited():
            expected_lo = f"{value.numerator}/{value.denominator}"
            truncations = {str(n * 10**20_000 // product) for n in (lo, lo + 1)}
        assert enclosure.lo_text == expected_lo
        (floor_text,) = truncations
        assert enclosure.digits.text == floor_text[0] + "." + floor_text[1:]
        assert enclosure.digits.verified == 20_000

    def test_format_rational(self):
        value = Fraction(-(10**5000 + 3), 3**10_000 + 2)
        with int_text_unlimited():
            expected = f"{value.numerator}/{value.denominator}"
        assert format_rational(value) == expected

    def test_alpha_digits(self):
        alpha = alpha_build(12)
        with int_text_unlimited():
            floor_text = str(alpha.numerator * 10**8192 // alpha.denominator).zfill(8193)
        assert to_decimal(RationalInterval(alpha, alpha), 8192).text == "0." + floor_text[1:]

    @pytest.mark.parametrize("length", [5000, 100_000])
    def test_parse_rational(self, length):
        numerator, denominator = digit_string(length, 1), digit_string(length, 2)
        with int_text_unlimited():
            top, bottom = int(numerator), int(denominator)
        assert parse_rational(f"-{numerator}/{denominator}") == Fraction(-top, bottom)
        assert parse_rational(f" +{numerator} ") == top

    @pytest.mark.parametrize("length", [5000, 100_000])
    def test_parse_decimal(self, length):
        fraction = digit_string(length, 3)
        with int_text_unlimited():
            expected = Fraction(int("3" + fraction), 10**length)
        interval = parse_decimal("3." + fraction)
        assert (interval.lo, interval.width) == (expected, Fraction(1, 10**length))

    def test_load_sequence_file(self, tmp_path):
        path = tmp_path / "huge.txt"
        with int_text_unlimited():
            path.write_text("".join(f"{t}\n" for t in HUGE_TERMS), encoding="utf-8")
        assert load_sequence_file(path) == HUGE_TERMS

    def test_recovery_document(self):
        start = enclose(SequenceSpec.primes(), 1404).interval
        assert start.lo.denominator.bit_length() > 16_000
        run = recover(start, 100_000)
        widths, width = [], start.width
        with int_text_unlimited():
            for m in run.recovered:
                widths.append(f"{width.numerator}/{width.denominator}")
                width *= m
        document = run.to_json_dict()
        assert document["widths"] == widths
        assert document["recovered"] == SequenceSpec.primes().terms(1404)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RationalInterval(Fraction(10**5000), 1),
            lambda: to_decimal(RationalInterval(-(10**5000), 1), 3),
            lambda: exact_arith._check_int(-(10**5000), "count", 0),
            lambda: SequenceSpec.primes().terms(-(10**5000)),
            lambda: recover(parse_decimal("2.9"), -(10**5000)),
            lambda: nondivisor_mean(-(10**5000)),
            lambda: alpha_build(-(10**5000)),
            lambda: smallest_nondividing_prime(-(10**5000)),
            lambda: SequenceSpec.explicit(HUGE_TERMS).terms(10**5000),
            lambda: enclose(SequenceSpec.explicit(HUGE_TERMS), 10**5000),
            lambda: residuals(SequenceSpec.primes(), 5, count=10**5000),
        ],
        ids=["interval order", "nonpositive interval", "check_int", "terms count",
             "max_terms", "mean limit", "alpha terms", "nondividing prime",
             "explicit terms", "insufficient terms", "residual count"],
    )
    def test_error_messages(self, call):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert "1" + "0" * 5000 in str(excinfo.value)
        assert sys.get_int_max_str_digits() == DEFAULT_INT_MAX_STR_DIGITS

    def test_alpha_over_the_cap(self):
        # The message names the count and the exponent 2**(count + 1) by their digits.
        terms = 10**5000
        with int_text_unlimited():
            expected = f"alpha with {terms} terms needs 10**(2**{terms + 1}) as a denominator; the cap is 12 terms"
        with pytest.raises(ValueError) as excinfo:
            alpha_build(terms)
        assert str(excinfo.value) == expected

    def test_sequence_text(self):
        spec = SequenceSpec.explicit(HUGE_TERMS)
        with int_text_unlimited():
            expected = "explicit[" + ",".join(str(t) for t in HUGE_TERMS) + "]"
        assert str(spec) == expected


class TestParseInt:
    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=1, max_value=20_000), seed=st.integers(0, 2**32), zeros=st.integers(0, 5))
    def test_matches_int(self, length, seed, zeros):
        digits = "0" * zeros + digit_string(length, seed)
        with int_text_unlimited():
            expected = int(digits)
        assert exact_arith._parse_int(digits) == expected

    @pytest.mark.parametrize("length", [1, 639, 640, 641, 1280, 1281, 4000, 4301, 16_003])
    def test_around_the_leaf(self, length):
        for digits in ("9" * length, "1" + "0" * (length - 1), digit_string(length, length)):
            with int_text_unlimited():
                expected = int(digits)
            assert exact_arith._parse_int(digits) == expected

    def test_non_ascii_digits(self):
        digits = "٣" * 9000
        with int_text_unlimited():
            expected = int(digits)
        assert exact_arith._parse_int(digits) == expected


class TestParseIntLiteral:
    """`_parse_int_literal` accepts and refuses what int() does in base 10, at any length."""

    @pytest.mark.parametrize(
        "text",
        ["0", "7", " 12 ", "+5", "-5", "-0", "1_000", "٣", "\t-9\n", "0" * 9000 + "1",
         "-" + "9" * 5000, "1_" + "2" * 5000, "x", "", " ", "1__0", "_1", "1_", "0x10",
         "1.0", "+-1", "- 1", "1 2", "1e3"],
        ids=lambda text: repr(text) if len(text) < 20 else f"{text[:3]!r}...{len(text)} chars",
    )
    def test_matches_int(self, text):
        with int_text_unlimited():
            try:
                expected = int(text)
            except ValueError:
                expected = None
        if expected is None:
            with pytest.raises(exact_arith.ParseError):
                exact_arith._parse_int_literal(text)
        else:
            assert exact_arith._parse_int_literal(text) == expected


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) under the default limit, checked equal to a run with no limit."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert sys.get_int_max_str_digits() == DEFAULT_INT_MAX_STR_DIGITS
    with int_text_unlimited():
        unlimited_code = cli.main(argv)
        unlimited = capsys.readouterr()
    assert (code, captured.out, captured.err) == (unlimited_code, unlimited.out, unlimited.err)
    return code, captured.out, captured.err


def json_document(out):
    with int_text_unlimited():
        return json.loads(out)


@pytest.fixture
def huge_sequence_file(tmp_path):
    path = tmp_path / "huge.txt"
    with int_text_unlimited():
        path.write_text("".join(f"{t}\n" for t in HUGE_TERMS), encoding="utf-8")
    return str(path)


class TestCli:
    TINY_DECIMAL = "2." + "0" * 4400 + "1"

    def test_recover_text(self, capsys):
        code, out, err = run_cli(["recover", "--value", self.TINY_DECIMAL], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "recovered:" + " 2" * 1000
        assert out.splitlines()[1:4] == ["count: 1000", "stop: max_terms", "denominator_bound: 5" + "0" * 4400]

    def test_recover_json(self, capsys):
        code, out, err = run_cli(["recover", "--value", self.TINY_DECIMAL, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert json_document(out)["denominator_bound"] == 5 * 10**4400

    def test_alpha_json(self, capsys):
        code, out, _ = run_cli(["alpha", "--terms", "12", "--format", "json"], capsys)
        assert code == 0
        assert json_document(out)["matches_primes"] is True

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_validate_huge_terms(self, capsys, huge_sequence_file, output_format):
        argv = ["validate", "--sequence-file", huge_sequence_file, "--format", output_format]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        if output_format == "json":
            assert json_document(out)["sequence"] == HUGE_TERMS

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_constant_huge_terms(self, capsys, huge_sequence_file, output_format):
        argv = ["constant", "--sequence-file", huge_sequence_file, "--terms", "2", "--format", output_format]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert unlimited_text(HUGE_TERMS[0]) in out

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_recover_enclosure_file(self, capsys, tmp_path, output_format):
        path = tmp_path / "enclosure.json"
        path.write_text(json.dumps(enclose(SequenceSpec.primes(), 1404).to_json_dict()), encoding="utf-8")
        argv = ["recover", "--value", str(path), "--max-terms", "2000", "--format", output_format]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        if output_format == "json":
            assert len(json_document(out)["recovered"]) == 1404
        else:
            assert "count: 1404" in out.splitlines()

    def test_enclosure_of_huge_terms_round_trip(self, capsys, huge_sequence_file, tmp_path):
        # The document's "sequence" field lists the terms as JSON numbers past the limit.
        path = tmp_path / "enclosure.json"
        argv = ["constant", "--sequence-file", huge_sequence_file, "--terms", "2", "--format", "json"]
        code, _, err = run_cli([*argv, "--out", str(path)], capsys)
        assert (code, err) == (0, "")
        assert json_document(path.read_text(encoding="utf-8"))["sequence"] == HUGE_TERMS
        code, out, err = run_cli(["recover", "--value", str(path), "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert json_document(out)["recovered"] == HUGE_TERMS[:2]

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "1_" + "0" * 5000], ids=["digits", "underscore"])
    def test_option_past_the_limit(self, capsys, value):
        code, out, err = run_cli(["recover", "--value", "2.92005", "--max-terms", value], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["recovered: 2 3 5 7 11 13 17", "count: 7"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--sequence-file", "HUGE", "--terms", "BIG"],
            ["constant", "--sequence-file", "HUGE", "--terms", "BIG"],
            ["residuals", "--terms", "5", "--count", "BIG"],
            ["alpha", "--terms", "20000"],
        ],
        ids=["validate", "constant", "residuals", "alpha"],
    )
    def test_error_past_the_limit(self, capsys, huge_sequence_file, argv):
        values = {"HUGE": huge_sequence_file, "BIG": "1" + "0" * 5000}
        code, out, err = run_cli([values.get(arg, arg) for arg in argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_negative_option_past_the_limit(self, capsys):
        code, out, err = run_cli(["mean", "--limit=-" + "9" * 5000], capsys)
        assert (code, out) == (2, "")
        assert err == "error: limit must be >= 1, got -" + "9" * 5000 + "\n"

    def test_invalid_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mean", "--limit", "1__0"])
        assert excinfo.value.code == 2
        assert "argument --limit: invalid int value: '1__0'" in capsys.readouterr().err

    def test_too_few_huge_terms(self, capsys, huge_sequence_file):
        code, out, err = run_cli(["constant", "--sequence-file", huge_sequence_file, "--terms", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: need 6 terms of explicit[" + unlimited_text(HUGE_TERMS[0]))

    def test_enclosure_file_out_of_order(self, capsys, tmp_path):
        path = tmp_path / "enclosure.json"
        path.write_text(json.dumps({"lo": "1" + "0" * 5000, "hi": "1"}), encoding="utf-8")
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "lo=1" + "0" * 5000 + " > hi=1" in err

    def test_negative_huge_term(self, capsys, tmp_path):
        path = tmp_path / "negative.txt"
        path.write_text("2\n-" + "9" * 5000 + "\n", encoding="utf-8")
        code, out, err = run_cli(["validate", "--sequence-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(":2: not a positive integer: -" + "9" * 5000 + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["constant", "--digits", "3000", "--format", "json"],
        ["recover", "--value", "2." + "0" * 700 + "1", "--format", "json"],
        ["validate", "--sequence-file", "HUGE", "--format", "json"],
        ["alpha", "--terms", "12"],
    ],
    ids=["constant", "recover", "validate", "alpha"],
)
def test_lowest_limit_a_caller_can_set(capsys, huge_sequence_file, argv):
    # 640 digits is the lowest limit CPython accepts other than none at all.
    argv = [huge_sequence_file if arg == "HUGE" else arg for arg in argv]
    proc = python_with_limit(640, "-m", "primeconst", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli(argv, capsys)[1]


class TestScopedLift:
    """`cli.main` lifts the limit only while it renders, and always restores it."""

    def test_only_the_rendering_runs_without_the_limit(self, capsys, monkeypatch):
        seen = {}

        def handler(args):
            seen["handler"] = sys.get_int_max_str_digits()

            def text():
                seen["render"] = sys.get_int_max_str_digits()
                return str(10**5000)

            return text, dict, 0

        monkeypatch.setitem(cli._HANDLERS, "mean", handler)
        assert cli.main(["mean", "--limit", "3"]) == 0
        assert capsys.readouterr().out == unlimited_text(10**5000) + "\n"
        assert seen == {"handler": DEFAULT_INT_MAX_STR_DIGITS, "render": 0}
        assert sys.get_int_max_str_digits() == DEFAULT_INT_MAX_STR_DIGITS

    def test_restored_when_rendering_raises(self, capsys, monkeypatch):
        def fail():
            raise RuntimeError("rendering failed")

        monkeypatch.setitem(cli._HANDLERS, "mean", lambda args: (fail, fail, 0))
        assert cli.main(["mean", "--limit", "3"]) == 1
        assert capsys.readouterr().err == "internal error: rendering failed\n"
        assert sys.get_int_max_str_digits() == DEFAULT_INT_MAX_STR_DIGITS

    def test_caller_value_restored(self, capsys):
        with int_text_unlimited():
            sys.set_int_max_str_digits(6000)
            assert cli.main(["constant", "--digits", "5"]) == 0
            assert sys.get_int_max_str_digits() == 6000
        capsys.readouterr()

    def test_interpreter_without_a_limit(self, capsys, monkeypatch):
        # Python 3.10 before 3.10.7 has neither function.
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert cli.main(["constant", "--digits", "5"]) == 0
        assert capsys.readouterr().out.startswith("2.92005\n")
