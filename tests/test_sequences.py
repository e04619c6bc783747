"""Tests for sequence sources, the prime sieve behind them, and admissibility validation."""

import pytest
from hypothesis import given, strategies as st

from primeconst import sequences
from primeconst.exact_arith import InvalidArgument, ParseError
from primeconst.sequences import (
    ExplicitExhausted,
    SequenceKind,
    SequenceSpec,
    ViolationKind,
    load_sequence_file,
    smallest_nondividing_prime,
    validate_bertrand,
)


def trial_division_primes(count):
    """Slow but independent prime generator used as a test oracle."""
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


class TestPrimeSieve:
    """The private sieve, read as `SequenceSpec.terms` reads it."""

    def test_first_eight(self):
        assert SequenceSpec.primes().terms(8) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_matches_trial_division(self):
        assert SequenceSpec.primes().terms(1000) == trial_division_primes(1000)

    def test_growth_across_calls(self, monkeypatch):
        monkeypatch.setattr(sequences, "_sieved", [])
        monkeypatch.setattr(sequences, "_sieve_bound", 0)
        primes = SequenceSpec.primes()
        small = primes.terms(10)
        assert sequences._sieve_bound == 64
        # 18 primes lie below 64; the 19th doubles the bound past the estimate 86.
        assert primes.terms(19)[-1] == 67
        assert sequences._sieve_bound == 128
        assert primes.terms(2000)[-1] == 17389
        assert sequences._sieve_bound == 19268
        assert primes.terms(10) == small

    def test_nth_is_one_based(self):
        primes = SequenceSpec.primes()
        assert primes.terms(1)[-1] == 2
        assert primes.terms(25)[-1] == 97

    def test_input_validation(self):
        with pytest.raises(ValueError):
            SequenceSpec.primes().terms(-1)
        assert SequenceSpec.primes().terms(0) == []

    @pytest.mark.parametrize("bad", [True, False, 3.0])
    def test_rejects_bools_and_floats(self, bad):
        with pytest.raises(TypeError):
            SequenceSpec.primes().terms(bad)

    def test_strictly_increasing_and_gapless(self):
        primes = SequenceSpec.primes().terms(500)
        assert all(a < b for a, b in zip(primes, primes[1:]))
        in_between = set(range(2, primes[-1] + 1)) - set(primes)
        assert all(any(n % p == 0 for p in primes if p * p <= n) for n in in_between)


class TestBuiltinSequences:
    def test_primes_terms(self):
        assert SequenceSpec.primes().terms(8) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_naturals_terms(self):
        assert SequenceSpec.naturals().terms(5) == [2, 3, 4, 5, 6]

    def test_doubling_terms(self):
        assert SequenceSpec.doubling().terms(6) == [3, 4, 6, 10, 18, 34]

    def test_boundary_terms(self):
        assert SequenceSpec.boundary().terms(5) == [2, 3, 5, 9, 17]

    @pytest.mark.parametrize("name", ["primes", "naturals", "doubling", "boundary"])
    def test_term_matches_terms(self, name):
        spec = SequenceSpec.from_name(name)
        listed = spec.terms(12)
        assert [spec.terms(k)[-1] for k in range(1, 13)] == listed

    @pytest.mark.parametrize("method", ["terms"])
    @pytest.mark.parametrize("bad", [True, False, 3.0])
    @pytest.mark.parametrize("name", ["primes", "naturals", "doubling", "boundary"])
    def test_rejects_bools_and_floats(self, name, method, bad):
        with pytest.raises(TypeError):
            getattr(SequenceSpec.from_name(name), method)(bad)

    @pytest.mark.parametrize("method, value, message", [("terms", -1, "count must be >= 0, got -1")])
    def test_range_messages(self, method, value, message):
        for spec in (SequenceSpec.primes(), SequenceSpec.naturals(), SequenceSpec.explicit([2, 3])):
            with pytest.raises(InvalidArgument) as excinfo:
                getattr(spec, method)(value)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", ["naturals", "doubling", "boundary"])
    def test_terms_checks_its_count_once(self, name, monkeypatch):
        spec, checked, check = SequenceSpec.from_name(name), [], sequences._check_int

        def counting_check(*args):
            checked.append(args)
            check(*args)

        offset = {"naturals": None, "doubling": 2, "boundary": 1}[name]
        expected = [k + 1 if offset is None else 2 ** (k - 1) + offset for k in range(1, 51)]
        monkeypatch.setattr(sequences, "_check_int", counting_check)
        assert spec.terms(50) == expected
        assert checked == [(50, "count", 0)]

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            SequenceSpec.from_name("fibonacci")
        with pytest.raises(ValueError):
            SequenceSpec.from_name("explicit")

    def test_labels(self):
        assert SequenceSpec.primes().label() == "primes"
        assert SequenceSpec.explicit([3, 4, 6]).label() == [3, 4, 6]


class TestExplicitSequences:
    def test_terms_and_term(self):
        spec = SequenceSpec.explicit([4, 5, 6])
        assert spec.terms(3) == [4, 5, 6]
        assert spec.terms(2)[-1] == 5

    def test_exhaustion(self):
        spec = SequenceSpec.explicit([4, 5, 6])
        with pytest.raises(ExplicitExhausted, match=r"^explicit sequence has 3 terms, 4 requested$"):
            spec.terms(4)

    def test_rejects_floats_and_bools(self):
        # int() would silently turn these into (2, 3, 5) and (1, 3).
        with pytest.raises(TypeError):
            SequenceSpec.explicit([2.9, 3, 5])
        with pytest.raises(TypeError):
            SequenceSpec.explicit([True, 3])

    def test_requires_terms(self):
        with pytest.raises(ValueError):
            SequenceSpec(SequenceKind.EXPLICIT)
        with pytest.raises(ValueError):
            SequenceSpec(SequenceKind.PRIMES, explicit_terms=(2, 3))


class TestValidateBertrand:
    def test_prime_prefix_ok(self):
        report = validate_bertrand([2, 3, 5, 7, 11])
        assert report.ok
        assert report.terms_checked == 5
        assert report.pairs_checked == 4
        assert report.upper_bound_equalities == (1, 2)
        assert not report.all_tail_equalities

    def test_boundary_is_all_tail_equalities(self):
        report = validate_bertrand(SequenceSpec.boundary().terms(12))
        assert report.ok
        assert report.upper_bound_equalities == tuple(range(1, 12))
        assert report.all_tail_equalities

    def test_upper_bound_exceeded(self):
        report = validate_bertrand([2, 5])
        assert not report.ok
        assert [(v.index, v.kind) for v in report.violations] == [
            (1, ViolationKind.UPPER_BOUND_EXCEEDED)
        ]
        assert report.violations[0].describe() == "UpperBoundExceeded at index 1"

    def test_not_increasing(self):
        report = validate_bertrand([3, 3, 4])
        assert [(v.index, v.kind) for v in report.violations] == [
            (1, ViolationKind.NOT_INCREASING)
        ]

    def test_below_two(self):
        report = validate_bertrand([1, 2, 3])
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (1, ViolationKind.NOT_INTEGER_GE2) in kinds

    def test_non_integer_term(self):
        report = validate_bertrand([2, "3", 5])
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (2, ViolationKind.NOT_INTEGER_GE2) in kinds

    @pytest.mark.parametrize("terms, index", [([True, 3], 1), ([2, False, 3], 2)])
    def test_bool_term_reports_only_its_type(self, terms, index):
        # Compared as ints, True would exceed its pair's bound and False would
        # break the order; a bool is refused as a float is.
        report = validate_bertrand(terms)
        assert [(v.index, v.kind) for v in report.violations] == [(index, ViolationKind.NOT_INTEGER_GE2)]

    def test_violation_in_the_middle(self):
        terms = [2, 3, 5, 9, 20, 21]
        report = validate_bertrand(terms)
        assert [(v.index, v.kind) for v in report.violations] == [
            (4, ViolationKind.UPPER_BOUND_EXCEEDED)
        ]

    def test_too_short(self):
        with pytest.raises(InvalidArgument, match=r"^validation needs at least 2 terms, got 0$"):
            validate_bertrand([])
        with pytest.raises(InvalidArgument, match=r"^validation needs at least 2 terms, got 1$"):
            validate_bertrand([7])

    def test_json_shape(self):
        doc = validate_bertrand([2, 5]).to_json_dict()
        assert doc["ok"] is False
        assert doc["violations"] == [{"index": 1, "kind": "UpperBoundExceeded"}]
        assert doc["pairs_checked"] == 1

    @given(
        start=st.integers(min_value=2, max_value=50),
        seeds=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40),
    )
    def test_generated_admissible_sequences_validate(self, start, seeds):
        terms = [start]
        for seed in seeds:
            a = terms[-1]
            # Draw the next term from the full admissible range [a+1, 2a-1].
            terms.append(a + 1 + seed % (a - 1) if a > 2 else a + 1)
        report = validate_bertrand(terms)
        assert report.ok

    @given(
        prefix_len=st.integers(min_value=2, max_value=30),
        bump=st.integers(min_value=1, max_value=10**6),
    )
    def test_single_oversized_step_is_located(self, prefix_len, bump):
        spec = SequenceSpec.primes()
        terms = spec.terms(prefix_len)
        terms[-1] = 2 * terms[-2] - 1 + bump
        report = validate_bertrand(terms)
        assert not report.ok
        assert any(
            v.index == prefix_len - 1 and v.kind is ViolationKind.UPPER_BOUND_EXCEEDED
            for v in report.violations
        )


class TestSmallestNondividingPrime:
    def test_first_eight(self):
        values = [smallest_nondividing_prime(n) for n in range(1, 9)]
        assert values == [2, 3, 2, 3, 2, 5, 2, 3]

    def test_primorial_inputs(self):
        assert smallest_nondividing_prime(30) == 7
        assert smallest_nondividing_prime(2310) == 13
        assert smallest_nondividing_prime(510510) == 19

    def test_input_validation(self):
        for bad in (0, -4):
            with pytest.raises(InvalidArgument, match="value must be >= 1"):
                smallest_nondividing_prime(bad)
        for bad in (True, 2.5):
            with pytest.raises(TypeError, match="value must be int"):
                smallest_nondividing_prime(bad)

    def test_primorial_divisibility_characterization(self):
        # smallest_nondividing_prime(n) == p_{j+1} where j is the largest k
        # with p_1 * ... * p_k dividing n; checked brute force over a block.
        primes = trial_division_primes(8)
        primorials = []
        running = 1
        for p in primes:
            running *= p
            primorials.append(running)
        for n in range(1, 100001):
            j = 0
            while j < len(primorials) and n % primorials[j] == 0:
                j += 1
            assert smallest_nondividing_prime(n) == primes[j]


class TestSequenceFile:
    def test_loads_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("# header\n3\n\n4  # inline comment\n6\n10\n")
        assert load_sequence_file(path) == [3, 4, 6, 10]

    def test_from_file_builds_explicit_spec(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\n4\n6\n")
        spec = SequenceSpec.from_file(path)
        assert spec.kind is SequenceKind.EXPLICIT
        assert spec.terms(3) == [3, 4, 6]

    def test_rejects_non_integer_line(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\nfour\n")
        with pytest.raises(ParseError, match=":2:"):
            load_sequence_file(path)

    def test_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("3\n0\n")
        with pytest.raises(ParseError):
            load_sequence_file(path)

    @pytest.mark.parametrize(
        "line",
        ["7", "+7", "007", "1_000", "+1_2_3", "\u0663", "-7", "-0", "0", "1__0", "_1", "1_",
         "+-1", "- 1", "1 2", "0x10", "1.0", "1e3", "seven"],
    )
    def test_lines_parse_as_int_does(self, tmp_path, line):
        path = tmp_path / "seq.txt"
        path.write_text(f"2\n{line}\n", encoding="utf-8")
        try:
            expected = int(line)
        except ValueError:
            with pytest.raises(ParseError, match=":2: not an integer"):
                load_sequence_file(path)
            return
        if expected < 1:
            with pytest.raises(ParseError, match=f":2: not a positive integer: {expected}$"):
                load_sequence_file(path)
        else:
            assert load_sequence_file(path) == [2, expected]

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        marked, plain = tmp_path / "marked.txt", tmp_path / "plain.txt"
        marked.write_bytes(b"\xef\xbb\xbf2\n3\n5\n7\n")
        plain.write_bytes(b"2\n3\n5\n7\n")
        assert load_sequence_file(marked) == load_sequence_file(plain) == [2, 3, 5, 7]

    @pytest.mark.parametrize("text, lineno", [("\ufeff\ufeff2\n3\n", 1), ("2\n\ufeff3\n", 2), ("2\ufeff\n3\n", 1)])
    def test_byte_order_mark_elsewhere_is_refused(self, tmp_path, text, lineno):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f":{lineno}: not an integer"):
            load_sequence_file(path)

    def test_utf16_file_is_refused(self, tmp_path):
        # A UTF-16 file starts with its own byte-order mark, which is not UTF-8.
        path = tmp_path / "seq.txt"
        path.write_text("2\n3\n", encoding="utf-16")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_sequence_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_sequence_file(tmp_path / "absent.txt")
