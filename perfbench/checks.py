"""Output checks that do not rely on the code under test.

Each check parses one request's stdout, in either output format, and
compares it with `reference`.  It returns the units the request certified,
(decimal digits, sequence terms), which the rates count, or raises
CheckFailed.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference


class CheckFailed(Exception):
    """A request's output disagrees with the reference."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _ratio(text: str) -> tuple[int, int]:
    numerator, denominator = text.split("/")
    return int(numerator), int(denominator)


def _same_ratio(text: str, numerator: int, denominator: int) -> bool:
    a, b = _ratio(text)
    return a * denominator == numerator * b


def _stop_text(stop: dict) -> str:
    if stop["kind"] == "max_terms":
        return "max_terms"
    if stop["kind"] == "width_exceeds_one":
        return f"width_exceeds_one at step {stop['step']}"
    return f"ambiguous_floor at step {stop['step']} (straddles {stop['straddled']})"


_INTS = {"terms_used", "verified_digits", "count", "recovered_count", "match_length", "mismatches",
         "certified", "terms_checked", "pairs_checked", "limit", "terms"}
_BOOLS = {"boundary", "degenerate_tail", "ok", "all_tail_equalities", "matches_primes"}
_INT_LISTS = {"recovered", "upper_bound_equalities", "decoded"}


def _parse_text(cmd: str, stdout: str) -> dict:
    """The text form as the JSON form's keys and types (stop stays text)."""
    lines = stdout.rstrip("\n").split("\n")
    doc: dict = {"residuals": [], "violations": [], "warnings": []}
    if cmd == "constant":
        doc["digits"] = lines.pop(0)
    for line in lines:
        key, _, value = line.partition(": ")
        if key.startswith("residual "):
            doc["residuals"].append(value[1:-1].split(", "))
        elif key in ("violation", "warning"):
            doc[key + "s"].append(value)
        elif key in _INTS:
            doc[key] = int(value)
        elif key in _BOOLS:
            _require(value in ("true", "false"), f"{key}: {value!r} is not a boolean")
            doc[key] = value == "true"
        elif key in _INT_LISTS:
            doc[key] = [] if value == "(none)" else [int(v) for v in value.split()]
        elif key in ("denominator_bound", "min_upper"):
            # recover prints "none" for a missing bound, residuals prints "None".
            doc[key] = None if value in ("none", "None") else (int(value) if key == "denominator_bound" else value)
        else:
            doc[key] = value
    if cmd == "alpha":
        doc["digits"] = doc.pop("alpha")
    return doc


def _parse(check: dict, stdout: str) -> dict:
    if check["fmt"] == "text":
        return _parse_text(check["cmd"], stdout)
    doc = json.loads(stdout)
    if isinstance(doc.get("stop"), dict):
        doc["stop"] = _stop_text(doc["stop"])
    return doc


def _sequence(check: dict, count: int) -> list[int]:
    return reference.sequence_terms(check["seq"], count, check.get("explicit"))


def _recovery(check: dict, max_terms: int) -> reference.Recovery:
    """The reference recovery, whose terms must be the sequence's own first terms."""
    run = reference.recover(check["lo"], check["hi"], check["den"], max_terms)
    _require(run.terms == _sequence(check, len(run.terms)),
             "reference recovery disagrees with the sequence")
    return run


def _constant(check: dict, doc: dict) -> tuple[int, int]:
    n = doc["terms_used"]
    lo, den = reference.enclosure(_sequence(check, n + 1))
    _require(_same_ratio(doc["lo"], lo, den), "lo differs from the reference enclosure")
    _require(_same_ratio(doc["hi"], lo + 1, den), "hi differs from the reference enclosure")
    if "width" in doc:
        _require(_same_ratio(doc["width"], 1, den), "width is not 1/(a_1 ... a_N)")
    verified = doc["verified_digits"]
    _require(not doc["boundary"], "boundary case")
    if check["digits"] is not None:
        _require(verified >= check["digits"], f"verified {verified} < requested {check['digits']}")
    whole, _, fraction = doc["digits"].partition(".")
    _require(len(fraction) == verified, "digit count differs from verified_digits")
    value = int(whole + fraction)
    scale = 10**verified
    _require(value == lo * scale // den == (lo + 1) * scale // den, "digits are not certified")
    return verified, n


def _recover(check: dict, doc: dict) -> tuple[int, int]:
    run = _recovery(check, check["max_terms"])
    _require(doc["recovered"] == run.terms, "recovered terms differ")
    _require(doc.get("count", len(run.terms)) == len(run.terms), "count differs")
    _require(doc["stop"] == _stop_text(run.stop), f"stop differs: {doc['stop']}")
    _require(doc["denominator_bound"] == run.bound, "denominator bound differs")
    _require(doc["warnings"] == [], "unexpected warnings")
    if "widths" in doc:
        width, widths = check["hi"] - check["lo"], []
        for m in run.terms:
            widths.append(width)
            width *= m
        _require(len(doc["widths"]) == len(widths)
                 and all(_same_ratio(w, v, check["den"]) for w, v in zip(doc["widths"], widths)),
                 "widths differ")
    return check["precision"], len(run.terms)


def _roundtrip(check: dict, doc: dict) -> tuple[int, int]:
    run = _recovery(check, check["terms"])
    n = len(run.terms)
    _require(doc["terms_used"] == check["terms"], "terms_used differs")
    _require(doc["mismatches"] == 0, "mismatches reported")
    _require(doc["recovered_count"] == doc["match_length"] == n, "recovered count differs")
    _require(doc["stop"] == _stop_text(run.stop), f"stop differs: {doc['stop']}")
    terms = _sequence(check, check["terms"] + 1)
    degenerate = all(b == 2 * a - 1 for a, b in zip(terms[1:], terms[2:]))
    _require(doc["degenerate_tail"] == degenerate, "degenerate_tail differs")
    return check["precision"], n


def _residuals(check: dict, doc: dict) -> tuple[int, int]:
    run = _recovery(check, check["terms"])
    certified = len(run.terms)
    count = certified if check["count"] is None else check["count"]
    _require(doc["certified"] == certified, "certified differs")
    _require(doc["count"] == len(doc["residuals"]) == count, "residual count differs")
    for (lo, hi), (r_lo, r_hi) in zip(doc["residuals"], run.residuals):
        _require(_same_ratio(lo, r_lo, check["den"]) and _same_ratio(hi, r_hi, check["den"]),
                 "residual enclosure differs")
    uppers = [Fraction(hi) for _, hi in doc["residuals"]]
    least = min(uppers, default=None)
    _require(doc["min_upper"] == (None if least is None else f"{least.numerator}/{least.denominator}"),
             "min_upper is not the least printed upper bound")
    bound = None if least is None or least <= 0 else least.denominator // least.numerator
    _require(doc["denominator_bound"] == bound, "denominator bound is not floor(1/min upper)")
    return check["precision"], certified


def _validate(check: dict, doc: dict) -> tuple[int, int]:
    n = check["terms"]
    terms = _sequence(check, n)
    equalities = [i for i in range(1, n) if terms[i] == 2 * terms[i - 1] - 1]
    _require(doc["ok"] and doc["violations"] == [], "admissible prefix rejected")
    _require(doc["terms_checked"] == n and doc["pairs_checked"] == n - 1, "counts differ")
    _require(doc["upper_bound_equalities"] == equalities, "equalities differ")
    _require(doc["all_tail_equalities"] == all(i in equalities for i in range(2, n)),
             "all_tail_equalities differs")
    return 0, 0


def _mean(check: dict, doc: dict) -> tuple[int, int]:
    mean = reference.smallest_nondivisor_mean(check["limit"])
    _require(doc["mean"] == f"{mean.numerator}/{mean.denominator}", "mean differs")
    text = str(mean.numerator * 10**12 // mean.denominator).zfill(13)
    preview = f"{text[:-12]}.{text[-12:]}".rstrip("0").rstrip(".")
    _require(doc["decimal"] == preview and doc["limit"] == check["limit"], "decimal preview differs")
    return 0, 0


def _alpha(check: dict, doc: dict) -> tuple[int, int]:
    k = check["terms"]
    _require(doc["decoded"] == reference.first_primes(k) and doc["matches_primes"], "decode differs")
    _require(doc["digits"] == reference.alpha_digits(k) and doc["terms"] == k, "alpha digits differ")
    return 0, 0


_CHECKS = {
    "constant": _constant,
    "recover": _recover,
    "roundtrip": _roundtrip,
    "residuals": _residuals,
    "validate": _validate,
    "mean": _mean,
    "alpha": _alpha,
}


def check(request: dict, code: int, stdout: str) -> tuple[int, int]:
    """(digits, terms) certified by one request; raises CheckFailed on any disagreement."""
    _require(code == 0, f"exit code {code}")
    spec = request["check"]
    try:
        doc = _parse(spec, stdout)
        return _CHECKS[spec["cmd"]](spec, doc)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from None
