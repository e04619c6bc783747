"""Command line interface.

Subcommands mirror the library: `constant` encloses a sequence constant,
`recover` extracts terms from a value or a saved enclosure, `roundtrip`
and `residuals` certify recovery and denominator bounds, `validate`
checks admissibility, `mean` and `alpha` run the independent
cross-checks, and `bench` times large runs.

Exit codes: 0 on success, 2 for invalid input or a failed validation,
1 for an internal error, 141 (128 + SIGPIPE) when stdout is closed early.
Input is invalid when the package raises an `InputError` or a file named
on the command line cannot be read or written; any other exception is an
internal error.  All output is deterministic for a given invocation except
`bench` timings, which live under a "timing" key.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

from .constant import _enclosure_ends, enclose, enclose_digits
from .crosscheck import alpha_build, nondivisor_mean
from .exact_arith import (
    InputError,
    InvalidArgument,
    ParseError,
    RationalInterval,
    _decimal_ints,
    _lowest_terms_steps,
    _over_lcm,
    _parse_int,
    _parse_int_literal,
    format_rational,
    to_decimal,
)
from .recurrence import StopReason, _recover, residuals, roundtrip
from .sequences import SequenceKind, SequenceSpec, validate_bertrand

__all__ = ["build_parser", "main", "run"]

DEFAULT_MAX_TERMS = 1000
DEFAULT_BENCH_SIZES = (1000, 10000, 100000)

_BUILTIN_SEQUENCES = tuple(kind.value for kind in SequenceKind if kind is not SequenceKind.EXPLICIT)

# What a handler returns: two functions that make the text and the JSON
# document, of which `main` calls only the one `--format` asks for, and the
# exit code.  Each returns its whole output, a text or a dict to encode, or
# an iterable of text chunks, which `main` writes as they come.
_Output = tuple[Callable[[], str | Iterable[str]], Callable[[], dict | Iterable[str]], int]

# Where a JSON document's streamed list goes: `_json_chunks` writes the list
# in place of this value, which no other value of a document can equal.
_ROWS = "\0"


# Refused input, and reading or writing the files named on the command line.
_USER_ERRORS = (InputError, OSError)


def _add_sequence_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--sequence",
        choices=_BUILTIN_SEQUENCES,
        default=None,
        help="built-in sequence (default: primes)",
    )
    group.add_argument(
        "--sequence-file",
        metavar="PATH",
        default=None,
        help="file with one integer term per line; '#' comments allowed",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--out", metavar="PATH", type=_out_path, default=None, help="write output to a file instead of stdout"
    )


def _out_path(text: str) -> str:
    """`--out`'s file name; an empty one names no file, so argparse refuses it."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file name, got ''")
    return text


def _resolve_sequence(args: argparse.Namespace) -> SequenceSpec:
    if args.sequence_file is not None:
        return SequenceSpec.from_file(args.sequence_file)
    return SequenceSpec.from_name(args.sequence or "primes")


def _stop_text(stop: StopReason) -> str:
    if stop.kind == "max_terms":
        return "max_terms"
    if stop.kind == "width_exceeds_one":
        return f"width_exceeds_one at step {stop.step}"
    return f"ambiguous_floor at step {stop.step} (straddles {stop.straddled})"


def _decimal_preview(value, max_digits: int = 12) -> str:
    """Truncated decimal of an exact rational, trailing zeros trimmed."""
    digits = to_decimal(RationalInterval(value, value), max_digits)
    text = digits.text
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeconst",
        description="Exact interval enclosures of sequence constants, "
        "term recovery, and irrationality denominator bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="enclose a sequence constant")
    _add_sequence_flags(p)
    precision = p.add_mutually_exclusive_group(required=True)
    precision.add_argument("--terms", type=int, help="number of series terms to use")
    precision.add_argument(
        "--digits", type=int, help="verified decimal digits to produce (terms are planned)"
    )
    p.add_argument(
        "--max-digits", type=int, default=None, help="cap on printed decimal digits"
    )
    _add_output_flags(p)

    p = sub.add_parser("recover", help="recover sequence terms from a value")
    p.add_argument(
        "--value",
        required=True,
        help="decimal literal (for example 2.920050977316) or path to an enclosure JSON file",
    )
    p.add_argument(
        "--max-terms",
        type=int,
        default=DEFAULT_MAX_TERMS,
        help=f"stop after this many terms (default {DEFAULT_MAX_TERMS})",
    )
    _add_output_flags(p)

    p = sub.add_parser("roundtrip", help="enclose, recover, and compare terms exactly")
    _add_sequence_flags(p)
    p.add_argument("--terms", type=int, required=True, help="series terms for the enclosure")
    p.add_argument(
        "--max-terms", type=int, default=None, help="recovery cap (default: --terms)"
    )
    _add_output_flags(p)

    p = sub.add_parser("residuals", help="certified residuals and denominator bound")
    _add_sequence_flags(p)
    p.add_argument("--terms", type=int, required=True, help="series terms for the enclosure")
    p.add_argument(
        "--count", type=int, default=None, help="residuals to report (default: all certified)"
    )
    _add_output_flags(p)

    p = sub.add_parser("validate", help="check a sequence prefix for admissibility")
    _add_sequence_flags(p)
    p.add_argument(
        "--terms", type=int, default=None, help="prefix length (required for built-ins)"
    )
    _add_output_flags(p)

    p = sub.add_parser("mean", help="average smallest non-dividing prime over a block")
    p.add_argument("--limit", type=int, required=True, help="block is n = 1..limit")
    _add_output_flags(p)

    p = sub.add_parser("alpha", help="digit-packing constant and its decode")
    p.add_argument("--terms", type=int, default=12, help="primes to pack (max 12)")
    _add_output_flags(p)

    p = sub.add_parser("bench", help="time large enclosures and the recovery of their terms")
    p.add_argument(
        "--digits",
        type=int,
        nargs="+",
        default=None,
        help=f"digit sizes to run (default: {' '.join(str(s) for s in DEFAULT_BENCH_SIZES)})",
    )
    _add_output_flags(p)

    # int() refuses digit strings past the int-to-text limit; this parses
    # any length.  Registered under int, argparse still says "invalid int value".
    for p in sub.choices.values():
        p.register("type", int, _parse_int_literal)
    return parser


def _cmd_constant(args: argparse.Namespace) -> _Output:
    spec = _resolve_sequence(args)
    if args.digits is not None:
        enclosure = enclose_digits(spec, args.digits, max_digits=args.max_digits)
    else:
        enclosure = enclose(spec, args.terms, max_digits=args.max_digits)

    def text() -> str:
        lines = [
            enclosure.digits.text,
            f"sequence: {spec}",
            f"terms_used: {enclosure.terms_used}",
            f"lo: {enclosure.lo_text}",
            f"hi: {enclosure.hi_text}",
            f"width: {enclosure.width_text}",
            f"verified_digits: {enclosure.digits.verified}",
            f"boundary: {str(enclosure.digits.boundary).lower()}",
        ]
        return "\n".join(lines)

    return text, enclosure.to_json_dict, 0


def _ints_from_value(value: str) -> tuple[int, int, int]:
    """(lo, hi, D) with [lo/D, hi/D] the interval `--value` names, a decimal or an enclosure document.

    The recurrence needs only floors, so nothing is reduced to lowest terms:
    a decimal goes over 10**k and a document over the lcm of its two
    denominators as written.
    """
    try:
        return _decimal_ints(value)
    except ParseError:
        pass
    # os.path.exists is False, not an error, for "" and for a name too long to be a file.
    if not os.path.exists(value):
        raise ParseError(f"--value is neither a decimal literal nor an existing file: {value!r}")
    try:
        doc = json.loads(Path(value).read_text(encoding="utf-8-sig"), parse_int=_parse_int_literal)
        return _over_lcm(*_enclosure_ends(doc))
    except IsADirectoryError:
        raise ParseError(f"--value is neither a decimal literal nor a file: {value!r} is a directory") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, InputError) as exc:
        raise ParseError(f"{value}: not a valid enclosure document: {exc}") from None


def _cmd_recover(args: argparse.Namespace) -> _Output:
    lo, hi, denominator = _ints_from_value(args.value)
    run = _recover(lo, hi, denominator, args.max_terms)
    warnings: list[str] = []
    if any(b <= a for a, b in zip(run.recovered, run.recovered[1:])):
        warnings.append(
            "recovered terms do not strictly increase; the input encloses "
            "an integer fixed point or an inadmissible value"
        )

    def text() -> str:
        recovered_text = " ".join(str(t) for t in run.recovered) or "(none)"
        bound = run.denominator_bound
        lines = [
            f"recovered: {recovered_text}",
            f"count: {len(run.recovered)}",
            f"stop: {_stop_text(run.stop)}",
            f"denominator_bound: {'none' if bound is None else bound}",
        ]
        lines.extend(f"warning: {w}" for w in warnings)
        return "\n".join(lines)

    def doc() -> Iterable[str]:
        return _json_chunks({**run._json_fields(_ROWS), "warnings": warnings}, run._widths())

    return text, doc, 0


def _cmd_roundtrip(args: argparse.Namespace) -> _Output:
    spec = _resolve_sequence(args)
    report = roundtrip(spec, args.terms, max_terms=args.max_terms)

    def text() -> str:
        lines = [
            f"sequence: {spec}",
            f"terms_used: {report.enclosure.terms_used}",
            f"recovered_count: {len(report.run.recovered)}",
            f"match_length: {len(report.run.recovered)}",
            "mismatches: 0",
            f"stop: {_stop_text(report.run.stop)}",
            f"degenerate_tail: {str(report.enclosure.validation.all_tail_equalities).lower()}",
        ]
        return "\n".join(lines)

    return text, report.to_json_dict, 0


def _cmd_residuals(args: argparse.Namespace) -> _Output:
    spec = _resolve_sequence(args)
    report = residuals(spec, args.terms, count=args.count)
    run = report.run

    def text() -> Iterable[str]:
        min_upper = run.min_residual_upper
        bound = run.denominator_bound
        lines = [
            f"sequence: {spec}",
            f"terms_used: {report.enclosure.terms_used}",
            f"certified: {report.certified}",
            f"count: {len(run.recovered)}",
            f"min_upper: {'none' if min_upper is None else format_rational(min_upper)}",
            f"denominator_bound: {'none' if bound is None else bound}",
        ]
        yield "\n".join(lines)
        for step, (lo, hi) in enumerate(run._ends(_lowest_terms_steps), start=1):
            yield f"\nresidual {step}: [{lo}, {hi}]"

    def doc() -> Iterable[str]:
        return _json_chunks(report._json_fields(_ROWS), run._ends(_lowest_terms_steps))

    return text, doc, 0


def _cmd_validate(args: argparse.Namespace) -> _Output:
    spec = _resolve_sequence(args)
    if spec.kind is not SequenceKind.EXPLICIT and args.terms is None:
        raise InvalidArgument("--terms is required with a built-in sequence")
    terms = spec.terms(len(spec.explicit_terms) if args.terms is None else args.terms)
    report = validate_bertrand(terms)

    def text() -> str:
        lines = [
            f"ok: {str(report.ok).lower()}",
            f"sequence: {spec}",
            f"terms_checked: {report.terms_checked}",
            f"pairs_checked: {report.pairs_checked}",
        ]
        for violation in report.violations:
            lines.append(f"violation: {violation.describe()}")
        equalities = " ".join(str(i) for i in report.upper_bound_equalities) or "(none)"
        lines.append(f"upper_bound_equalities: {equalities}")
        lines.append(f"all_tail_equalities: {str(report.all_tail_equalities).lower()}")
        return "\n".join(lines)

    def doc() -> dict:
        return {"sequence": spec.label(), **report.to_json_dict()}

    return text, doc, 0 if report.ok else 2


def _cmd_mean(args: argparse.Namespace) -> _Output:
    value = nondivisor_mean(args.limit)
    preview = _decimal_preview(value)

    def text() -> str:
        return f"mean: {format_rational(value)}\ndecimal: {preview}\nlimit: {args.limit}"

    def doc() -> dict:
        return {"limit": args.limit, "mean": format_rational(value), "decimal": preview}

    return text, doc, 0


def _cmd_alpha(args: argparse.Namespace) -> _Output:
    alpha = alpha_build(args.terms)
    digits = to_decimal(RationalInterval(alpha, alpha), max_digits=2 ** (args.terms + 1))
    # A point's digits are its truncations floor(alpha * 10**k), so the two floors
    # of `alpha_decode` leave p_i in decimal places 2**i + 1 to 2**(i+1).
    decoded = [_parse_int(digits.fraction_digits[2**i : 2 ** (i + 1)]) for i in range(1, args.terms + 1)]
    expected = SequenceSpec.primes().terms(args.terms)
    matches = decoded == expected

    def text() -> str:
        lines = [
            f"alpha: {digits}",
            f"terms: {args.terms}",
            f"decoded: {' '.join(str(d) for d in decoded)}",
            f"matches_primes: {str(matches).lower()}",
        ]
        return "\n".join(lines)

    def doc() -> dict:
        return {
            "terms": args.terms,
            "alpha": format_rational(alpha),
            "digits": digits.text,
            "decoded": decoded,
            "matches_primes": matches,
        }

    return text, doc, 0 if matches else 1


def _cmd_bench(args: argparse.Namespace) -> _Output:
    sizes = list(dict.fromkeys(args.digits or DEFAULT_BENCH_SIZES))
    spec = SequenceSpec.primes()
    results = []
    timings: dict[str, float] = {}
    recover_timings: dict[str, float] = {}
    lines = []
    for size in sizes:
        started = time.perf_counter()
        enclosure = enclose_digits(spec, size)
        elapsed = time.perf_counter() - started
        terms_used = enclosure.terms_used
        product_digits = enclosure.product_digits
        started = time.perf_counter()
        recovered = len(_recover(*enclosure.ints, terms_used).recovered)
        recover_elapsed = time.perf_counter() - started
        results.append(
            {
                "digits_requested": size,
                "terms_used": terms_used,
                "verified_digits": enclosure.digits.verified,
                "product_decimal_digits": product_digits,
                "recovered_terms": recovered,
            }
        )
        timings[str(size)] = elapsed
        recover_timings[str(size)] = recover_elapsed
        lines.append(
            f"digits={size} terms={terms_used} verified={enclosure.digits.verified} "
            f"product_digits={product_digits} time={elapsed:.3f}s recover_time={recover_elapsed:.3f}s"
        )
    timing = {"seconds": timings, "recover_seconds": recover_timings}
    doc = {"sequence": "primes", "results": results, "timing": timing}
    return lambda: "\n".join(lines), lambda: doc, 0


_HANDLERS = {
    "constant": _cmd_constant,
    "recover": _cmd_recover,
    "roundtrip": _cmd_roundtrip,
    "residuals": _cmd_residuals,
    "validate": _cmd_validate,
    "mean": _cmd_mean,
    "alpha": _cmd_alpha,
    "bench": _cmd_bench,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every call of `main` in this process, built on first use."""
    return build_parser()


def _json_chunks(doc: dict, rows: Iterable) -> Iterable[str]:
    """json.dumps(doc, indent=2) in chunks, with the list of `rows` in place of the value `_ROWS`.

    A row is a text or a pair of texts, each made of digits, '-' and '/'
    only, so '"text"' is its JSON encoding.  The list is a value at the
    document's top level, where indent=2 puts its items 4 spaces in and
    theirs 6.  Each row is yielded as it comes, so the list is never held.
    """
    head, _, tail = json.dumps(doc, indent=2).partition(json.dumps(_ROWS))
    yield head
    opening = separator = "[\n    "
    for row in rows:
        if isinstance(row, tuple):
            lo, hi = row
            yield f'{separator}[\n      "{lo}",\n      "{hi}"\n    ]'
        else:
            yield f'{separator}"{row}"'
        separator = ",\n    "
    yield ("[]" if separator is opening else "\n  ]") + tail


def _write(stream, render: Callable) -> None:
    """Write what `render` returns, a text, a dict as indent-2 JSON or text chunks as they come, and a newline."""
    payload = render()
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2)
    if isinstance(payload, str):
        payload = (payload,)
    for chunk in payload:
        stream.write(chunk)
    stream.write("\n")


def _write_file(path: str, render: Callable) -> None:
    """`_write` to `path`: a regular file whole or not at all, anything else as a stream.

    A regular file, or a name not yet taken, gets a new file beside it (for
    a symlink, beside its target), with the old file's permission bits,
    renamed onto it once whole; on any failure the new file is removed, so
    the old bytes stay or the name stays free, and an error names `path`,
    not the new file.  A write-protected file is refused, as opening it
    would be.  What is not a regular file, such as /dev/null, a FIFO or
    /dev/fd/N, cannot be replaced and is written directly.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as stream:
            _write(stream, render)
        return
    target = os.path.realpath(path)
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    # A name that does not grow with the target's, so it fits wherever the target's does,
    # and is random, so a file left by a killed run whose pid comes back is not in the way.
    temporary = Path(os.path.dirname(target), f".primeconst.{os.urandom(8).hex()}.tmp")
    try:
        stream = open(temporary, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with stream:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            _write(stream, render)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        text, doc, code = handler(args)
        render = doc if args.format == "json" else text
        # A recovered term, a denominator bound, a straddled floor and an
        # explicit term can be longer than the interpreter's int-to-text
        # limit (4300 digits by default), and json.dumps writes an int only
        # through int.__repr__, which obeys it.  So the limit is lifted only
        # while the payload is rendered, which is while it is written, since
        # a table's rows are rendered as they go out.  Python 3.10 before
        # 3.10.7 has none.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            if args.out is not None:
                _write_file(args.out, render)
            else:
                try:
                    _write(sys.stdout, render)
                    sys.stdout.flush()
                except BrokenPipeError:
                    # A reader such as `head` closed stdout: no message, the shell's 128 + SIGPIPE, a quiet exit flush.
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                    return 141
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return code


def run() -> None:
    """Console script entry point."""
    raise SystemExit(main())
