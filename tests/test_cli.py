"""End-to-end tests of the command line interface."""

import contextlib
import dataclasses
import decimal
import errno
import functools
import io
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import checkout_env, int_text_unlimited
from primeconst import cli, constant, exact_arith, recurrence
from primeconst.constant import ConstantEnclosure, enclose, enclose_digits, interval_from_enclosure_json
from primeconst.exact_arith import ParseError, RationalInterval, format_rational, parse_decimal, parse_rational
from primeconst.recurrence import RecoveryResult, ResidualReport, recover
from primeconst.sequences import SequenceSpec

FIRST_TWENTY_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args + ["--format", "json"], capsys)
    assert code == 0, err
    return json.loads(out)


def console_entry_point():
    """(module, function) of the `primeconst` script declared in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^\[project\.scripts\]\nprimeconst = "([\w.]+):(\w+)"$', text, re.M)
    assert match, "pyproject.toml declares no primeconst console script"
    return match.group(1), match.group(2)


class TestConstantCommand:
    def test_primes_digits_text(self, capsys):
        code, out, err = run_cli(["constant", "--sequence", "primes", "--digits", "12"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2.920050977316"

    def test_primes_terms_json_exact_endpoints(self, capsys):
        doc = run_json(["constant", "--sequence", "primes", "--terms", "3"], capsys)
        assert doc["lo"] == "29/10"
        assert doc["hi"] == "44/15"
        assert doc["terms_used"] == 3
        assert doc["digits"] == "2.9"

    def test_json_schema_keys(self, capsys):
        doc = run_json(["constant", "--sequence", "primes", "--digits", "12"], capsys)
        assert set(doc) == {
            "sequence", "terms_used", "lo", "hi", "digits", "verified_digits", "boundary",
        }
        assert doc["sequence"] == "primes"
        assert doc["terms_used"] == 13
        assert doc["verified_digits"] == 12
        width = parse_rational(doc["hi"]) - parse_rational(doc["lo"])
        assert width.numerator == 1

    def test_naturals_digits_past_the_plan(self, capsys):
        # The planned 132 terms certify only 223 digits of e (digits 225-226
        # are 99); the digits path adds the 133rd term.
        doc = run_json(["constant", "--sequence", "naturals", "--digits", "224"], capsys)
        assert doc["verified_digits"] == 224
        assert doc["terms_used"] == 133

    def test_doubling_digits(self, capsys):
        code, out, _ = run_cli(["constant", "--sequence", "doubling", "--digits", "11"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "3.56797609098"

    def test_naturals_digits(self, capsys):
        code, out, _ = run_cli(["constant", "--sequence", "naturals", "--digits", "15"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2.718281828459045"

    def test_default_sequence_is_primes(self, capsys):
        code, out, _ = run_cli(["constant", "--terms", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2.9"

    def test_sequence_file(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# doubling prefix\n3\n4\n6\n10\n18\n34\n")
        doc = run_json(["constant", "--sequence-file", str(path), "--terms", "5"], capsys)
        assert doc["sequence"] == [3, 4, 6, 10, 18, 34]
        assert doc["digits"].startswith("3.56")

    def test_boundary_reports_boundary_flag(self, capsys):
        doc = run_json(["constant", "--sequence", "boundary", "--terms", "10"], capsys)
        assert doc["boundary"] is True
        assert doc["verified_digits"] == 0
        assert parse_rational(doc["hi"]) == 3

    def test_max_digits_caps_output(self, capsys):
        doc = run_json(
            ["constant", "--sequence", "primes", "--terms", "13", "--max-digits", "5"], capsys
        )
        assert doc["digits"] == "2.92005"
        assert doc["verified_digits"] == 5

    def test_huge_max_digits_renders_as_p_digits(self, capsys):
        # 10**20 places would need a quotient past libmpdec's limits; past P's
        # digit count (2 here) more places change nothing.
        argv = ["constant", "--terms", "3", "--sequence", "naturals", "--max-digits"]
        expected = run_cli(argv + ["2"], capsys)
        assert expected[0] == 0
        assert run_cli(argv + ["100000000000000000000"], capsys) == expected

    def test_terms_and_digits_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["constant", "--sequence", "primes", "--terms", "3", "--digits", "5"])
        assert excinfo.value.code == 2

    def test_requires_terms_or_digits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["constant", "--sequence", "primes"])
        assert excinfo.value.code == 2

    def test_unknown_sequence_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["constant", "--sequence", "mills", "--terms", "3"])
        assert excinfo.value.code == 2

    def test_explicit_sequence_too_short_is_user_error(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2\n3\n")
        code, _, err = run_cli(["constant", "--sequence-file", str(path), "--terms", "2"], capsys)
        assert code == 2
        assert "error:" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "enc.json"
        code, out, _ = run_cli(
            ["constant", "--sequence", "primes", "--terms", "5", "--format", "json",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["terms_used"] == 5

    def test_out_write_failure_is_user_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "enc.txt"
        code, out, err = run_cli(
            ["constant", "--terms", "5", "--out", str(target)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_deterministic_output(self, capsys):
        args = ["constant", "--sequence", "primes", "--digits", "12", "--format", "json"]
        first = run_cli(args, capsys)
        second = run_cli(args, capsys)
        assert first == second


class TestRecoverCommand:
    def test_published_digits(self, capsys):
        doc = run_json(["recover", "--value", "2.920050977316"], capsys)
        assert doc["recovered"] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert doc["stop"] == {"kind": "width_exceeds_one", "step": 13, "straddled": None}
        assert doc["widths"][0] == "1/1000000000000"
        assert doc["warnings"] == []

    def test_from_enclosure_file(self, capsys, tmp_path):
        target = tmp_path / "enc.json"
        assert cli.main(
            ["constant", "--sequence", "primes", "--terms", "20", "--format", "json",
             "--out", str(target)]
        ) == 0
        capsys.readouterr()
        doc = run_json(["recover", "--value", str(target)], capsys)
        assert doc["recovered"] == FIRST_TWENTY_PRIMES
        assert doc["stop"]["kind"] == "width_exceeds_one"

    def test_max_terms(self, capsys):
        doc = run_json(["recover", "--value", "2.920050977316", "--max-terms", "5"], capsys)
        assert doc["recovered"] == [2, 3, 5, 7, 11]
        assert doc["stop"]["kind"] == "max_terms"

    def test_ambiguous_two_digits(self, capsys):
        code, out, _ = run_cli(["recover", "--value", "2.9"], capsys)
        assert code == 0
        assert "recovered: (none)" in out
        assert "ambiguous_floor at step 1 (straddles 3)" in out

    def test_integer_fixed_point_warns(self, capsys):
        code, out, _ = run_cli(["recover", "--value", "3.0"], capsys)
        assert code == 0
        assert "recovered: 3 3 3" in out
        assert "warning:" in out
        doc = run_json(["recover", "--value", "3.0"], capsys)
        assert doc["warnings"]

    def test_malformed_value(self, capsys):
        code, _, err = run_cli(["recover", "--value", "not_a_number"], capsys)
        assert code == 2
        assert "error:" in err

    def test_missing_enclosure_file(self, capsys, tmp_path):
        code, _, err = run_cli(["recover", "--value", str(tmp_path / "absent.json")], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("value", ["", "2." + "9" * 300 + "x"], ids=["empty", "longer-than-a-file-name"])
    def test_neither_a_decimal_nor_a_file(self, capsys, value):
        # Path("") is the working directory, and a name past NAME_MAX makes
        # the file system raise: neither is a file the value names.
        code, out, err = run_cli(["recover", "--value", value], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --value is neither a decimal literal nor an existing file: {value!r}\n"

    def test_junk_enclosure_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(["recover", "--value", str(path)], capsys)
        assert code == 2

    def test_deeply_nested_enclosure_file(self, capsys, tmp_path):
        # The JSON decoder runs out of stack before it sees malformed input.
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "not a valid enclosure document" in err

    def test_non_utf8_enclosure_file(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"lo": "29/10", "hi": "3\xff"}')
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not a valid enclosure document: ")

    def test_enclosure_file_with_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert cli.main(["constant", "--sequence", "primes", "--terms", "20", "--format", "json", "--out", str(plain)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for fmt in ("text", "json"):
            outputs = [run_cli(["recover", "--value", str(path), "--format", fmt], capsys) for path in (plain, marked)]
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0

    @pytest.mark.parametrize("encode", [lambda text: "{\ufeff" + text[1:], lambda text: "\ufeff\ufeff" + text])
    def test_byte_order_mark_inside_an_enclosure_file(self, capsys, tmp_path, encode):
        path = tmp_path / "enc.json"
        path.write_text(encode('{"lo": "29/10", "hi": "3"}'), encoding="utf-8")
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not a valid enclosure document: ")

    def test_utf16_enclosure_file(self, capsys, tmp_path):
        path = tmp_path / "enc.json"
        path.write_text('{"lo": "29/10", "hi": "3"}', encoding="utf-16")
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not a valid enclosure document: ")

    def test_value_error_while_reading_a_document_is_internal(self, capsys, tmp_path, monkeypatch):
        # Only the decoder's and the parser's refusals mean a bad document.
        def explode(*args):
            raise ValueError("synthetic failure")

        path = tmp_path / "enc.json"
        path.write_text('{"lo": "29/10", "hi": "3"}')
        monkeypatch.setattr(cli, "_over_lcm", explode)
        code, out, err = run_cli(["recover", "--value", str(path)], capsys)
        assert (code, out, err) == (1, "", "internal error: synthetic failure\n")

    def test_below_two_value_is_user_error(self, capsys):
        code, _, err = run_cli(["recover", "--value", "1.5"], capsys)
        assert code == 2
        assert "error:" in err


class TestRoundtripCommand:
    def test_primes_text(self, capsys):
        code, out, _ = run_cli(["roundtrip", "--sequence", "primes", "--terms", "25"], capsys)
        assert code == 0
        assert "match_length: 25" in out
        assert "mismatches: 0" in out
        assert "stop: max_terms" in out

    def test_boundary_degenerate(self, capsys):
        doc = run_json(["roundtrip", "--sequence", "boundary", "--terms", "10"], capsys)
        assert doc["match_length"] == 0
        assert doc["degenerate_tail"] is True
        assert doc["stop"]["kind"] == "ambiguous_floor"

    def test_a_wrong_recovered_term_is_an_internal_error(self, capsys, monkeypatch):
        recover_ints = recurrence._recover

        def wrong_third_term(*args):
            run = recover_ints(*args)
            return dataclasses.replace(run, recovered=run.recovered[:2] + (6,) + run.recovered[3:])

        monkeypatch.setattr(recurrence, "_recover", wrong_third_term)
        code, out, err = run_cli(["roundtrip", "--terms", "25"], capsys)
        assert (code, out) == (1, "")
        assert err == "internal error: step 3: recovered 6 but the sequence says 5\n"


class TestResidualsCommand:
    def test_primes_fifty(self, capsys):
        doc = run_json(["residuals", "--sequence", "primes", "--terms", "50"], capsys)
        assert doc["certified"] == 50
        assert doc["denominator_bound"] == 112
        assert doc["min_upper"] == "463/51983"
        assert len(doc["residuals"]) == 50
        for lo_text, hi_text in doc["residuals"]:
            assert 0 < parse_rational(lo_text) and parse_rational(hi_text) < 1

    def test_count_flag(self, capsys):
        doc = run_json(["residuals", "--sequence", "primes", "--terms", "50", "--count", "5"], capsys)
        assert len(doc["residuals"]) == 5
        assert doc["denominator_bound"] >= 1

    def test_count_beyond_certified(self, capsys):
        code, _, err = run_cli(
            ["residuals", "--sequence", "primes", "--terms", "15", "--count", "16"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_boundary_empty(self, capsys):
        doc = run_json(["residuals", "--sequence", "boundary", "--terms", "10"], capsys)
        assert doc["certified"] == 0
        assert doc["residuals"] == []
        assert doc["denominator_bound"] is None

    @pytest.mark.parametrize(
        "argv",
        [["--terms", "1"], ["--sequence", "boundary", "--terms", "5"], ["--terms", "50", "--count", "0"]],
    )
    def test_no_bound_prints_none(self, capsys, argv):
        code, out, err = run_cli(["residuals", *argv], capsys)
        assert (code, err) == (0, "")
        assert {"min_upper: none", "denominator_bound: none"} <= set(out.splitlines())


class TestValidateCommand:
    def test_primes_ok(self, capsys):
        code, out, _ = run_cli(["validate", "--sequence", "primes", "--terms", "100"], capsys)
        assert code == 0
        assert "ok: true" in out

    def test_builtin_requires_terms(self, capsys):
        code, _, err = run_cli(["validate", "--sequence", "primes"], capsys)
        assert code == 2
        assert "--terms" in err

    def test_bad_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n5\n")
        code, out, _ = run_cli(["validate", "--sequence-file", str(path)], capsys)
        assert code == 2
        assert "ok: false" in out
        assert "UpperBoundExceeded at index 1" in out

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"2\n3\n\xff\n")
        code, out, err = run_cli(["validate", "--sequence-file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"2\n3\n5\n7\n")
        marked.write_bytes(b"\xef\xbb\xbf2\n3\n5\n7\n")
        for fmt in ("text", "json"):
            outputs = [
                run_cli(["validate", "--sequence-file", str(path), "--format", fmt], capsys) for path in (plain, marked)
            ]
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0

    def test_file_prefix_with_terms(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\n4\n6\n10\n18\n34\n")
        doc = run_json(["validate", "--sequence-file", str(path), "--terms", "3"], capsys)
        assert doc["terms_checked"] == 3
        assert doc["ok"] is True

    def test_boundary_json(self, capsys):
        doc = run_json(["validate", "--sequence", "boundary", "--terms", "12"], capsys)
        assert doc["ok"] is True
        assert doc["all_tail_equalities"] is True
        assert doc["upper_bound_equalities"] == list(range(1, 12))


class TestMeanCommand:
    def test_small_block(self, capsys):
        doc = run_json(["mean", "--limit", "8"], capsys)
        assert doc["mean"] == "11/4"
        assert doc["decimal"] == "2.75"

    def test_million_block(self, capsys):
        doc = run_json(["mean", "--limit", "1000000"], capsys)
        assert doc["mean"] == "73001/25000"
        assert doc["decimal"] == "2.92004"

    def test_bad_limit(self, capsys):
        code, _, err = run_cli(["mean", "--limit", "0"], capsys)
        assert code == 2


class TestReadmeExamples:
    @pytest.mark.parametrize("command", ["mean --limit 1000000", "alpha --terms 4"])
    def test_text_output(self, capsys, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        expected = re.search(rf"^\$ primeconst {command}\n(.*?\n)(?:\n|```)", readme, re.M | re.S)[1]
        assert run_cli(command.split(), capsys) == (0, expected, "")


class TestAlphaCommand:
    def test_four_terms(self, capsys):
        doc = run_json(["alpha", "--terms", "4"], capsys)
        assert doc["digits"] == "0.00020003000000050000000000000007"
        assert doc["decoded"] == [2, 3, 5, 7]
        assert doc["matches_primes"] is True

    def test_default_twelve_terms(self, capsys):
        doc = run_json(["alpha"], capsys)
        assert doc["terms"] == 12
        assert doc["decoded"] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert doc["matches_primes"] is True

    def test_over_cap(self, capsys):
        code, _, err = run_cli(["alpha", "--terms", "13"], capsys)
        assert code == 2
        assert err == "error: alpha with 13 terms needs 10**(2**14) as a denominator; the cap is 12 terms\n"

    @pytest.mark.parametrize("digits", [30, 5000])
    def test_huge_count_fails_fast(self, capsys, digits):
        # The message names 2**(terms + 1) by its exponent: besides the
        # digits of the count and of count + 1, it has fewer than 200 characters.
        count = "1" + "0" * digits
        count_plus_one = count[:-1] + "1"
        started = time.perf_counter()
        code, out, err = run_cli(["alpha", "--terms", count], capsys)
        elapsed = time.perf_counter() - started
        assert (code, out) == (2, "")
        assert elapsed < 1.0
        assert err == (
            f"error: alpha with {count} terms needs 10**(2**{count_plus_one}) as a denominator; the cap is 12 terms\n"
        )
        assert len(err) - 2 * len(count) < 200


class TestBenchCommand:
    def test_small_sizes(self, capsys):
        doc = run_json(["bench", "--digits", "200", "300"], capsys)
        assert [r["digits_requested"] for r in doc["results"]] == [200, 300]
        for result in doc["results"]:
            assert result["verified_digits"] >= result["digits_requested"]
            assert result["product_decimal_digits"] > result["digits_requested"]
        assert set(doc["timing"]["seconds"]) == {"200", "300"}

    def test_repeated_sizes_run_once(self, capsys):
        doc = run_json(["bench", "--digits", "200", "300", "200"], capsys)
        assert [r["digits_requested"] for r in doc["results"]] == [200, 300]
        assert [list(t) for t in doc["timing"].values()] == [["200", "300"]] * 2
        code, out, _ = run_cli(["bench", "--digits", "150", "150"], capsys)
        assert (code, len(out.splitlines())) == (0, 1)

    def test_product_digits_are_exact(self, capsys):
        doc = run_json(["bench", "--digits", "200", "3000"], capsys)
        for result in doc["results"]:
            product = math.prod(SequenceSpec.primes().terms(result["terms_used"]))
            assert result["product_decimal_digits"] == len(str(product))

    def test_text_reports_time(self, capsys):
        code, out, _ = run_cli(["bench", "--digits", "150"], capsys)
        assert code == 0
        assert "digits=150" in out
        assert "time=" in out
        assert re.search(r" recover_time=\d+\.\d{3}s$", out.strip())

    def test_recovers_every_term(self, capsys):
        doc = run_json(["bench", "--digits", "200", "3000"], capsys)
        for result in doc["results"]:
            assert result["recovered_terms"] == result["terms_used"]
        assert set(doc["timing"]["recover_seconds"]) == {"200", "3000"}


class TestOnlyTheRequestedFormat:
    """Each handler builds only what --format prints: the other renderer is never called."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("renderer of the unused format was called")

    def test_recover_text_skips_the_json_document(self, capsys, monkeypatch):
        expected = run_cli(["recover", "--value", "2.920050977316"], capsys)
        monkeypatch.setattr(RecoveryResult, "to_json_dict", self.refuse)
        assert run_cli(["recover", "--value", "2.920050977316"], capsys) == expected
        assert expected[0] == 0

    def test_residuals_json_skips_the_text_lines(self, capsys, monkeypatch):
        expected = run_cli(["residuals", "--terms", "50", "--format", "json"], capsys)
        monkeypatch.setattr(RationalInterval, "__repr__", self.refuse)
        assert run_cli(["residuals", "--terms", "50", "--format", "json"], capsys) == expected
        assert expected[0] == 0

    def test_constant_text_skips_the_json_document(self, capsys, monkeypatch):
        expected = run_cli(["constant", "--digits", "40"], capsys)
        monkeypatch.setattr(ConstantEnclosure, "to_json_dict", self.refuse)
        assert run_cli(["constant", "--digits", "40"], capsys) == expected
        assert expected[0] == 0

    def test_residuals_text_skips_the_json_document(self, capsys, monkeypatch):
        expected = run_cli(["residuals", "--terms", "50"], capsys)
        monkeypatch.setattr(ResidualReport, "to_json_dict", self.refuse)
        assert run_cli(["residuals", "--terms", "50"], capsys) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize(
        "argv, owner",
        [
            (["residuals", "--terms", "50", "--format", "json"], ResidualReport),
            (["recover", "--value", "2.920050977316", "--format", "json"], RecoveryResult),
        ],
    )
    def test_json_tables_build_no_row_list(self, capsys, monkeypatch, argv, owner):
        # `to_json_dict` is the one place the package builds a table's rows
        # as a list; the CLI streams them instead.
        expected = run_cli(argv, capsys)
        monkeypatch.setattr(owner, "to_json_dict", self.refuse)
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0


class TestRecoveryRendersNoDigits:
    """`roundtrip` and `residuals` recover from the interval and never render its decimal digits."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("decimal digits were rendered")

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "--terms", "2590"],
            ["roundtrip", "--terms", "30", "--format", "json"],
            ["residuals", "--terms", "905", "--count", "10"],
            ["residuals", "--terms", "50", "--format", "json"],
        ],
    )
    def test_digits_are_not_rendered(self, capsys, monkeypatch, argv):
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        for module in (cli, exact_arith, recurrence):
            monkeypatch.setattr(module, "to_decimal", self.refuse, raising=False)
        monkeypatch.setattr(ConstantEnclosure, "digits", property(self.refuse))
        assert run_cli(argv, capsys) == expected


class TestEachFormOnFirstRead:
    """Each path builds only the enclosure form it reads, and parses no large integer from text."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the enclosure's ints were read")

    @staticmethod
    def record(monkeypatch, module, name):
        """The first argument of each call to `module.name`, recorded from now on."""
        calls = []
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "argv", [["roundtrip", "--terms", "2590"], ["residuals", "--terms", "905", "--count", "10"]]
    )
    def test_recovery_builds_no_series(self, capsys, monkeypatch, argv):
        expected = run_cli(argv, capsys)
        calls = self.record(monkeypatch, constant, "_series")
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0 and calls == []

    def test_ints_build_no_series(self, monkeypatch):
        calls = self.record(monkeypatch, constant, "_series")
        lo, hi, product = enclose(SequenceSpec.primes(), 2590).ints
        assert hi == lo + 1 and product == math.prod(SequenceSpec.primes().terms(2590))
        assert calls == []

    def test_digits_build_the_series_once(self, capsys, monkeypatch):
        calls = self.record(monkeypatch, constant, "_series")
        code, out, _ = run_cli(["constant", "--digits", "10000"], capsys)
        assert code == 0 and out.startswith("2.92005097731613")
        assert len(calls) == 1

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_terms_read_no_ints(self, capsys, monkeypatch, output_format):
        argv = ["constant", "--terms", "2590", "--format", output_format]
        expected = run_cli(argv, capsys)
        monkeypatch.setattr(ConstantEnclosure, "ints", property(self.refuse))
        assert run_cli(argv, capsys) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "--terms", "2590"],
            ["residuals", "--terms", "2590", "--count", "10"],
            ["constant", "--terms", "2590"],
            ["constant", "--terms", "2590", "--format", "json"],
            ["bench", "--digits", "10000"],
        ],
    )
    def test_no_large_text_parse(self, capsys, monkeypatch, argv):
        lengths = self.record(monkeypatch, exact_arith, "_parse_int")
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert max(map(len, lengths)) <= exact_arith._LEAF_DIGITS


class UnsteppableFraction(Fraction):
    """A Fraction whose arithmetic raises: one step on it fails."""

    def refuse(self, *args):
        raise AssertionError("a Fraction was stepped")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = refuse


class TestRowsSkipTheFractionReplay:
    """Residual rows and step widths are printed by `exact_arith._lowest_terms_steps`, never from a Fraction."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction view was read")

    @staticmethod
    def forbid_fraction_steps(monkeypatch):
        """Make every Fraction that recurrence.py forms refuse arithmetic, and its Fraction views raise."""
        monkeypatch.setattr(recurrence, "Fraction", UnsteppableFraction)
        for name in ("intervals", "residual_intervals"):
            monkeypatch.setattr(RecoveryResult, name, property(TestRowsSkipTheFractionReplay.refuse))

    def test_the_guard_catches_a_fraction_replay(self, monkeypatch):
        run = recurrence._recover(2920050977316, 2920050977317, 10**12, 5)
        self.forbid_fraction_steps(monkeypatch)
        with pytest.raises(AssertionError, match="a Fraction was stepped"):
            list(run._ends(recurrence._fraction_steps))

    @pytest.mark.parametrize(
        "argv",
        [
            ["residuals", "--terms", "50"],
            ["residuals", "--terms", "50", "--format", "json"],
            ["residuals", "--terms", "905", "--count", "10", "--format", "json"],
            ["residuals", "--sequence", "naturals", "--terms", "20", "--count", "7"],
            ["recover", "--value", "2.920050977316", "--format", "json"],
            ["recover", "--value", "3.0", "--format", "json"],
        ],
    )
    def test_rows_are_printed_without_the_replay(self, capsys, monkeypatch, argv):
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        self.forbid_fraction_steps(monkeypatch)
        assert run_cli(argv, capsys) == expected

    def test_output_ignores_the_current_decimal_context(self, capsys):
        argv = ["residuals", "--terms", "905", "--format", "json"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        with decimal.localcontext() as context:
            context.prec = 5
            context.clear_traps()
            before = (context.prec, context.rounding, context.Emin, context.Emax,
                      context.capitals, context.clamp, dict(context.traps), dict(context.flags))
            actual = run_cli(argv, capsys)
            assert decimal.getcontext() is context
            after = (context.prec, context.rounding, context.Emin, context.Emax,
                     context.capitals, context.clamp, dict(context.traps), dict(context.flags))
        assert after == before
        assert actual == expected
        assert len(json.loads(actual[1])["residuals"]) == 905


class TestBoundFormsNoFraction:
    """The denominator bound is printed from integer numerators, never from the lowest-terms minimum."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the smallest residual upper bound was formed as a Fraction")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_recover_of_a_long_decimal(self, capsys, monkeypatch, fmt):
        value = enclose_digits(SequenceSpec.primes(), 4000).digits.text
        self.check(["recover", "--value", value, "--format", fmt], capsys, monkeypatch)

    def test_roundtrip(self, capsys, monkeypatch):
        self.check(["roundtrip", "--terms", "2590"], capsys, monkeypatch)

    def check(self, argv, capsys, monkeypatch):
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        monkeypatch.setattr(RecoveryResult, "min_residual_upper", property(self.refuse))
        assert run_cli(argv, capsys) == expected


def oracle_interval_from_value(value):
    """The `--value` parser `recover` used before it read integers, kept as the differential oracle.

    It builds lowest-terms Fractions: `parse_decimal` for a decimal, and
    `interval_from_enclosure_json` for an enclosure document.
    """
    try:
        return parse_decimal(value)
    except ParseError:
        pass
    if not os.path.exists(value):
        raise ParseError(f"--value is neither a decimal literal nor an existing file: {value!r}")
    try:
        doc = json.loads(Path(value).read_text(encoding="utf-8"), parse_int=exact_arith._parse_int_literal)
        return interval_from_enclosure_json(doc)
    except (json.JSONDecodeError, ValueError, RecursionError) as exc:
        raise ParseError(f"{value}: not a valid enclosure document: {exc}") from None


def oracle_cmd_recover(args):
    """The `recover` handler on the oracle's interval, through the library's `recover`."""
    run = recover(oracle_interval_from_value(args.value), args.max_terms)
    warnings = []
    if any(b <= a for a, b in zip(run.recovered, run.recovered[1:])):
        warnings.append(
            "recovered terms do not strictly increase; the input encloses "
            "an integer fixed point or an inadmissible value"
        )

    def text():
        bound = run.denominator_bound
        lines = [
            f"recovered: {' '.join(str(t) for t in run.recovered) or '(none)'}",
            f"count: {len(run.recovered)}",
            f"stop: {cli._stop_text(run.stop)}",
            f"denominator_bound: {'none' if bound is None else bound}",
        ]
        lines.extend(f"warning: {w}" for w in warnings)
        return "\n".join(lines)

    return text, lambda: {**run.to_json_dict(), "warnings": warnings}, 0


def outcome(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`, captured without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_recover_matches_oracle(value, cap, fmt):
    argv = ["recover", "--value", value, "--format", fmt] + ([] if cap is None else ["--max-terms", cap])
    actual = outcome(argv)
    with mock.patch.dict(cli._HANDLERS, recover=oracle_cmd_recover):
        expected = outcome(argv)
    assert actual == expected
    return actual


@functools.cache
def primes_text(digits):
    """The prime constant truncated to `digits` digits after the point."""
    return enclose_digits(SequenceSpec.primes(), digits).digits.text[: digits + 2]


@st.composite
def decimal_values(draw):
    """`--value` text of 1-6000 digits: the prime constant or random digits, with or without a point,
    leading and trailing zeros, surrounding whitespace, and now and then a character that spoils it."""
    digits = draw(st.integers(1, 6000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        body = primes_text(6000).replace(".", "")[:digits]
        body = body[:-3] + "".join(rng.choice("0123456789") for _ in body[-3:])
    else:
        body = "".join(rng.choice("0123456789") for _ in range(digits))
    point = draw(st.one_of(st.just(min(1, len(body) - 1)), st.integers(0, len(body) - 1)))
    text = body if point == 0 else f"{body[:point]}.{body[point:]}"
    text = "0" * draw(st.integers(0, 3)) + text + ("0" * draw(st.integers(0, 40)) if point else "")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(".-+e/x ")) + text[at:]
    space = st.sampled_from(("", " ", "\t", "\n", " \r\n"))
    return draw(space) + text + draw(space)


@functools.cache
def cli_document(name, terms):
    """The enclosure document `constant --terms N --format json` writes."""
    return enclose(SequenceSpec.from_name(name), terms).to_json_dict()


@st.composite
def enclosure_documents(draw):
    """The text of an enclosure file: as the CLI writes it, out of lowest terms, signed, with equal or
    swapped ends, a zero denominator, or a missing or non-string end."""
    name = draw(st.sampled_from(("primes", "naturals", "doubling", "boundary")))
    doc = dict(cli_document(name, draw(st.integers(1, 400))))
    ends = ("lo", "hi")
    shapes = ("cli", "scaled", "signed", "equal", "swapped", "zero", "missing", "not_a_string")
    shape = draw(st.sampled_from(shapes))
    if shape == "scaled":
        for end in ends:
            factor = draw(st.integers(1, 10**draw(st.sampled_from((1, 30, 900)))))
            with int_text_unlimited():
                numerator, denominator = map(int, doc[end].split("/"))
                doc[end] = f"{numerator * factor}/{denominator * factor}"
    elif shape == "signed":
        for end in ends:
            doc[end] = draw(st.sampled_from(("", "+", "-"))) + doc[end]
    elif shape == "equal":
        end = draw(st.sampled_from(ends))
        doc["lo"] = doc["hi"] = doc[end]
    elif shape == "swapped":
        doc["lo"], doc["hi"] = doc["hi"], doc["lo"]
    elif shape == "zero":
        end = draw(st.sampled_from(ends))
        doc[end] = doc[end].split("/")[0] + "/0"
    elif shape == "missing":
        del doc[draw(st.sampled_from(ends))]
    elif shape == "not_a_string":
        doc[draw(st.sampled_from(ends))] = draw(st.sampled_from((3, 2.92, None, ["29/10"], {"n": 29})))
    return json.dumps(doc, indent=draw(st.sampled_from((None, 2))))


class TestRecoverEdgeAgainstTheOracle:
    """`recover --value` reads integers; its exit code, stdout and stderr are the Fraction edge's."""

    caps = st.sampled_from((None, "0", "3", "-1"))
    formats = st.sampled_from(("text", "json"))

    @settings(max_examples=120, deadline=None)
    @given(value=decimal_values(), cap=caps, fmt=formats)
    def test_decimals(self, value, cap, fmt):
        assert_recover_matches_oracle(value, cap, fmt)

    @settings(max_examples=120, deadline=None)
    @given(text=enclosure_documents(), cap=caps, fmt=formats)
    def test_documents(self, tmp_path_factory, text, cap, fmt):
        path = tmp_path_factory.getbasetemp() / "recover-edge-document.json"
        path.write_text(text, encoding="utf-8")
        assert_recover_matches_oracle(str(path), cap, fmt)

    @pytest.mark.parametrize(
        "value",
        ["2.920050977316", "3.0", "3", "1.5", "2.", ".5", "", "٣.١٤", "/no/such/enclosure.json"],
    )
    def test_fixed_values(self, value):
        for cap in (None, "0", "-1"):
            for fmt in ("text", "json"):
                assert_recover_matches_oracle(value, cap, fmt)

    def test_errors_keep_their_order(self, tmp_path):
        # A malformed document is reported before the cap, and an
        # out-of-order one in lowest terms, whatever its text.
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps({"lo": "88/30", "hi": "58/20"}))
        code, out, err = assert_recover_matches_oracle(str(swapped), "-1", "text")
        assert (code, out) == (2, "")
        assert "interval endpoints out of order: lo=44/15 > hi=29/10" in err
        code, _, err = assert_recover_matches_oracle("2.92", "-1", "text")
        assert code == 2 and "max_terms must be" in err


class TestRecoverEdgeBuildsNoFraction:
    """`recover --value` hands the recurrence integers: no lowest-terms Fraction or interval on the way."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the recover edge built a lowest-terms Fraction")

    def check(self, argv, monkeypatch):
        expected = outcome(argv)
        assert expected[0] == 0
        fraction_edge = ("parse_decimal", "parse_rational", "interval_from_enclosure_json", "RationalInterval", "recover")
        for name in fraction_edge:
            monkeypatch.setattr(cli, name, self.refuse, raising=False)
        monkeypatch.setattr(RationalInterval, "_lcm_numerators", self.refuse)
        assert outcome(argv) == expected
        return expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_decimal(self, monkeypatch, fmt):
        self.check(["recover", "--value", primes_text(4000), "--format", fmt], monkeypatch)

    def test_cli_written_document(self, monkeypatch, tmp_path):
        path = tmp_path / "enclosure.json"
        path.write_text(json.dumps(cli_document("primes", 1404)))
        _, out, _ = self.check(["recover", "--value", str(path), "--max-terms", "2000"], monkeypatch)
        assert out.startswith("recovered: 2 3 5 7 11 ")

    def test_ten_to_the_five_digits_without_steps(self, monkeypatch):
        value = "2." + "920050977316" * 8334
        started = time.perf_counter()
        _, out, _ = self.check(["recover", "--value", value, "--max-terms", "0"], monkeypatch)
        # Two runs; the Fraction edge spent 0.35-0.55 s on each, in its gcds.
        assert time.perf_counter() - started < 0.5
        assert out.splitlines()[2] == "stop: max_terms"


def joined_residuals_text(spec, report):
    """`residuals` text as one join of its lines, as it was built before the rows were streamed."""
    least = report.run.min_residual_upper
    min_upper = "none" if least is None else format_rational(least)
    bound = report.run.denominator_bound
    rows = report.to_json_dict()["residuals"]
    lines = [
        f"sequence: {spec}",
        f"terms_used: {report.enclosure.terms_used}",
        f"certified: {report.certified}",
        f"count: {len(rows)}",
        f"min_upper: {min_upper}",
        f"denominator_bound: {'none' if bound is None else bound}",
    ]
    lines += [f"residual {step}: [{lo}, {hi}]" for step, (lo, hi) in enumerate(rows, start=1)]
    return "\n".join(lines)


# Texts as the rows hold them: digits, '-' and '/'.
row_texts = st.text(alphabet="0123456789-/", max_size=12)


class TestStreamedOutput:
    """Tables go out row by row, byte for byte what json.dumps and a join of lines give, and `--out` is
    written whole or not at all."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(), st.none(), st.text(max_size=8).filter(lambda s: s != cli._ROWS)), max_size=4),
        at=st.integers(0, 4),
        rows=st.one_of(st.lists(row_texts, max_size=4), st.lists(st.tuples(row_texts, row_texts), max_size=4)),
    )
    def test_json_chunks_match_json_dumps(self, values, at, rows):
        fields = [(f"key{i}", value) for i, value in enumerate(values)]
        fields.insert(min(at, len(fields)), ("rows", cli._ROWS))
        doc = dict(fields)
        expected = json.dumps({**doc, "rows": [list(row) if isinstance(row, tuple) else row for row in rows]}, indent=2)
        assert "".join(cli._json_chunks(doc, iter(rows))) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(("primes", "naturals", "doubling", "boundary")),
        terms=st.integers(1, 60),
        data=st.data(),
    )
    def test_residuals_match_the_whole_renderings(self, name, terms, data):
        spec = SequenceSpec.from_name(name)
        certified = recurrence.residuals(spec, terms).certified
        count = data.draw(st.one_of(st.none(), st.integers(0, certified)))
        argv = ["residuals", "--sequence", name, "--terms", str(terms)]
        if count is not None:
            argv += ["--count", str(count)]
        report = recurrence.residuals(spec, terms, count=count)
        expected_json = json.dumps(report.to_json_dict(), indent=2) + "\n"
        assert outcome(argv + ["--format", "json"]) == (0, expected_json, "")
        assert outcome(argv) == (0, joined_residuals_text(spec, report) + "\n", "")

    @settings(max_examples=40, deadline=None)
    @given(digits=st.integers(1, 300), cap=st.one_of(st.none(), st.integers(0, 300)))
    def test_recover_widths_match_json_dumps(self, digits, cap):
        value = primes_text(300)[: digits + 2]
        argv = ["recover", "--value", value, "--format", "json"]
        if cap is not None:
            argv += ["--max-terms", str(cap)]
        run = recurrence._recover(*cli._ints_from_value(value), cli.DEFAULT_MAX_TERMS if cap is None else cap)
        expected = json.dumps({**run.to_json_dict(), "warnings": []}, indent=2) + "\n"
        assert outcome(argv) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["residuals", "--terms", "20", "--count", "0", "--format", "json"], "residuals"),
            (["recover", "--value", "2.92", "--max-terms", "0", "--format", "json"], "widths"),
        ],
    )
    def test_empty_tables(self, argv, key):
        code, out, err = outcome(argv)
        assert (code, err) == (0, "")
        assert f'\n  "{key}": [],\n' in out
        assert json.loads(out)[key] == []

    @staticmethod
    def fail_after_first_chunk(error):
        def handler(args):
            def render():
                yield "first row"
                raise error

            return render, render, 0

        return handler

    @pytest.mark.parametrize("error, code", [(RuntimeError("synthetic failure"), 1), (ParseError("bad row"), 2)])
    def test_a_failed_render_leaves_the_target_untouched(self, capsys, monkeypatch, tmp_path, error, code):
        monkeypatch.setitem(cli._HANDLERS, "mean", self.fail_after_first_chunk(error))
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")
        assert run_cli(["mean", "--limit", "3", "--out", str(target)], capsys)[0] == code
        assert target.read_bytes() == b"old bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
        target.unlink()
        assert run_cli(["mean", "--limit", "3", "--out", str(target)], capsys)[0] == code
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_render_on_stdout_keeps_its_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "mean", self.fail_after_first_chunk(RuntimeError("synthetic failure")))
        code, out, err = run_cli(["mean", "--limit", "3"], capsys)
        assert (code, out, err) == (1, "first row", "internal error: synthetic failure\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_out_replaces_a_file_with_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ["residuals", "--terms", "120", "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        target = tmp_path / "rows"
        target.write_text("an older and much longer file " * 10**4)
        assert run_cli(argv + ["--out", str(target)], capsys) == (0, "", "")
        assert (code, target.read_text(encoding="utf-8")) == (0, out)
        assert [path.name for path in tmp_path.iterdir()] == ["rows"]

    def test_out_to_devnull_writes_through_it(self, capsys):
        argv = ["residuals", "--terms", "120", "--format", "json", "--out", os.devnull]
        assert run_cli(argv, capsys) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert not list(Path(os.devnull).parent.glob(".primeconst.*.tmp"))

    def test_out_passes_a_temporary_left_by_a_killed_run(self, capsys, tmp_path):
        # A run killed mid-write leaves its temporary behind, and a later run
        # may get the same pid; the old name, pid and all, must not block it.
        expected = run_cli(["mean", "--limit", "8"], capsys)[1]
        stale = tmp_path / f".primeconst.{os.getpid()}.tmp"
        stale.write_text("partial")
        target = tmp_path / "out.txt"
        assert run_cli(["mean", "--limit", "8", "--out", str(target)], capsys) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected
        assert stale.read_text() == "partial"
        assert sorted(path.name for path in tmp_path.iterdir()) == [stale.name, "out.txt"]

    def test_out_takes_the_longest_name_the_directory_allows(self, capsys, tmp_path):
        # The new file's name does not grow with the target's.
        expected = run_cli(["mean", "--limit", "8"], capsys)[1]
        target = tmp_path / ("f" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert run_cli(["mean", "--limit", "8", "--out", str(target)], capsys) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected
        assert [path.name for path in tmp_path.iterdir()] == [target.name]

    def test_an_empty_out_is_refused(self, capsys, monkeypatch, tmp_path):
        # An empty name is no file; it must not fall back to stdout or the working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mean", "--limit", "8", "--out", ""])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (2, "")
        assert "argument --out: expected a file name, got ''" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_out_streams_into_a_fifo(self, capsys, tmp_path):
        argv = ["residuals", "--terms", "120", "--format", "json"]
        expected = run_cli(argv, capsys)[1]
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        assert run_cli(argv + ["--out", str(fifo)], capsys) == (0, "", "")
        reader.join(timeout=60)
        assert received == [expected]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [path.name for path in tmp_path.iterdir()] == ["rows"]

    def test_out_to_a_fifo_closed_early_is_refused(self, capsys, tmp_path):
        # Unlike a closed stdout, a named target that cannot be written is refused.
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)

        def read_a_little():
            with open(fifo, "rb") as stream:
                stream.read(100)

        reader = threading.Thread(target=read_a_little, daemon=True)
        reader.start()
        code, out, err = run_cli(["residuals", "--terms", "300", "--out", str(fifo)], capsys)
        reader.join(timeout=60)
        assert (code, out, err) == (2, "", "error: [Errno 32] Broken pipe\n")

    def test_out_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        argv = ["residuals", "--terms", "120"]
        expected = run_cli(argv, capsys)[1]
        target, link = tmp_path / "rows.txt", tmp_path / "link"
        target.write_text("old bytes\n")
        target.chmod(0o600)
        link.symlink_to(target)
        assert run_cli(argv + ["--out", str(link)], capsys) == (0, "", "")
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text(encoding="utf-8") == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link", "rows.txt"]

    def test_write_protected_out_is_user_error(self, capsys, monkeypatch, tmp_path):
        # os.access stands in for a file mode that the superuser would ignore.
        target = tmp_path / "rows.txt"
        target.write_bytes(b"old bytes\n")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        code, out, err = run_cli(["residuals", "--terms", "50", "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert target.read_bytes() == b"old bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["rows.txt"]

    def test_unwritable_out_of_a_streamed_table_is_user_error(self, capsys, tmp_path):
        # The error names the path as given, not the file written beside it.
        target = tmp_path / "missing" / "rows.json"
        code, out, err = run_cli(["residuals", "--terms", "50", "--format", "json", "--out", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_render_memory_is_bounded_by_the_largest_row(self, tmp_path):
        # The whole table is 55 MB and its largest line, one end of the first
        # row, about 2*10^4 characters; held whole, the table and its JSON
        # encoding peaked at about five times the output.
        target = tmp_path / "rows.json"
        tracemalloc.start()
        try:
            code = cli.main(["residuals", "--terms", "2590", "--format", "json", "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with target.open(encoding="utf-8") as lines:
            largest = max(map(len, lines))
        assert target.stat().st_size > 2000 * largest
        assert peak < 64 * largest


class TestErrorMapping:
    def test_internal_error_exit_one(self, capsys, monkeypatch):
        def explode(args):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._HANDLERS, "mean", explode)
        code, _, err = run_cli(["mean", "--limit", "8"], capsys)
        assert code == 1
        assert "internal error" in err

    def test_unicode_decode_error_is_internal(self, capsys, monkeypatch):
        def explode(args):
            b"\xff".decode("utf-8")

        monkeypatch.setitem(cli._HANDLERS, "mean", explode)
        code, _, err = run_cli(["mean", "--limit", "8"], capsys)
        assert code == 1
        assert err.startswith("internal error: ")

    def test_bare_value_error_is_internal(self, capsys, monkeypatch):
        def explode(args):
            raise ValueError("synthetic failure")

        monkeypatch.setitem(cli._HANDLERS, "mean", explode)
        code, _, err = run_cli(["mean", "--limit", "8"], capsys)
        assert code == 1
        assert "internal error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["constant", "--terms", "0"], "terms_used must be >= 1"),
            (["constant", "--terms", "5", "--max-digits", "0"], "max_digits must be >= 1"),
            (["recover", "--value", "2.92", "--max-terms", "-1"], "max_terms must be"),
            (["residuals", "--terms", "20", "--count", "-1"], "count must be >= 0"),
            (["validate", "--terms", "-1"], "count must be >= 0"),
            (["mean", "--limit", "0"], "limit must be >= 1"),
            (["alpha", "--terms", "0"], "terms must be >= 1"),
            (["bench", "--digits", "0"], "digits must be >= 1"),
            (["constant", "--digits", "0"], "digits must be >= 1, got 0"),
            (["constant", "--digits", "-3"], "digits must be >= 1, got -3"),
        ],
    )
    def test_out_of_range_arguments_exit_two(self, capsys, argv, message):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and message in err

    def test_empty_sequence_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# no terms\n")
        code, _, err = run_cli(["validate", "--sequence-file", str(path)], capsys)
        assert code == 2
        assert "explicit sequence needs at least one term" in err

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


class TestReusedParser:
    """`main` parses with one parser per process; each call gives what a fresh parser gives."""

    @staticmethod
    def outcome(argv, capsys):
        """(exit code, stdout, stderr) of `main`, with bench timings dropped from its JSON."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = captured.out
        if argv[0] == "bench":
            out = {key: value for key, value in json.loads(out).items() if key != "timing"}
        return code, out, captured.err

    def test_a_run_of_calls_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2\n3\n5\n7\n11\n13\n")
        runs = [
            ["constant", "--digits", "30"],
            ["constant", "--sequence", "naturals", "--terms", "9", "--format", "json"],
            ["constant", "--digits", "not-a-number"],
            ["recover", "--value", "2.920050977316", "--format", "json"],
            ["constant", "--sequence", "primes", "--sequence-file", str(path), "--terms", "3"],
            ["residuals", "--sequence-file", str(path), "--terms", "4"],
            ["bench", "--digits", "120", "--format", "json"],
            ["frobnicate"],
            ["constant", "--digits", "30"],
        ]
        shared = [self.outcome(argv, capsys) for argv in runs]
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert shared == [self.outcome(argv, capsys) for argv in runs]
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 2, 0, 2, 0, 0, 2, 0]
        for code, out, err in shared:
            if code == 2:
                assert (out, err[: len("usage: primeconst")]) == ("", "usage: primeconst")
        assert "not allowed with argument" in shared[4][2]
        assert shared[-1] == shared[0]


class TestRealProcess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "primeconst", "constant", "--sequence", "primes",
             "--digits", "12"],
            capture_output=True,
            text=True,
            env=checkout_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "2.920050977316"

    def test_console_script(self):
        # Without an installed script, run the entry point pyproject.toml
        # declares for it, the way the generated wrapper would.
        exe = shutil.which("primeconst")
        if exe is not None:
            command = [exe]
        else:
            module, function = console_entry_point()
            command = [
                sys.executable, "-c",
                f"import sys; from {module} import {function}; sys.exit({function}())",
            ]
        proc = subprocess.run(
            command + ["recover", "--value", "2.920050977316"],
            capture_output=True,
            text=True,
            env=checkout_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("recovered: 2 3 5 7 11 13")

    def test_closed_stdout_exits_quietly(self):
        # As `residuals --terms 3000 | head -c 100` does: the table is far
        # larger than a pipe holds, so the reader leaves while rows are still
        # being written.  That is no refusal: the exit is a shell's 128 +
        # SIGPIPE, and the interpreter's last flush prints nothing either.
        proc = subprocess.Popen(
            [sys.executable, "-m", "primeconst", "residuals", "--terms", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")
        assert head.startswith(b"sequence: primes\nterms_used: 3000\n")
