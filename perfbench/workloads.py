"""Seeded request plans for the four benchmark workloads.

A plan is a list of requests, each a CLI argv plus what its output is
checked against.  The seed fixes every size within a narrow band, and
for `small-mixed` also each request's output format and the order of the
requests; the program sees only the argv.  The large workloads keep one output format, because
at 10^5 digits text and JSON differ in rendering cost by more than the
benchmark's bounds and seeds would stop being comparable.

Inputs the program reads from files (enclosure documents, sequence
files) are written by the benchmark from its own reference arithmetic,
never by the code under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference

WORKLOADS = ("constant-1e5", "certify-enclosure", "recover-decimal", "small-mixed")
NO_CAP = "100000"


@dataclass
class Plan:
    requests: list[dict]
    # Traced run only: the main call, requests[0], at half size, for growth exponents.
    probe: dict | None = None


def _request(argv: list[str], **check) -> dict:
    return {"argv": argv, "check": check}


class _Inputs:
    """Writes input files into a work directory, numbered in creation order."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0

    def _path(self, suffix: str) -> Path:
        self.count += 1
        return self.workdir / f"input{self.count}{suffix}"

    def enclosure(self, name: str, terms: int, explicit: list[int] | None = None) -> tuple[str, tuple[int, int, int]]:
        """An enclosure document of `terms` terms, in lowest terms as the CLI writes it."""
        lo, den = reference.enclosure(reference.sequence_terms(name, terms + 1, explicit))
        g_lo, g_hi = math.gcd(lo, den), math.gcd(lo + 1, den)
        doc = {
            "sequence": explicit if name == "explicit" else name,
            "terms_used": terms,
            "lo": f"{lo // g_lo}/{den // g_lo}",
            "hi": f"{(lo + 1) // g_hi}/{den // g_hi}",
        }
        path = self._path(".json")
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path), (lo, lo + 1, den)

    def sequence_file(self, terms: list[int]) -> str:
        path = self._path(".txt")
        body = "\n".join(str(t) for t in terms)
        path.write_text(f"# admissible sequence, one term per line\n\n{body}\n", encoding="utf-8")
        return str(path)


def _recover_decimal(name: str, digits: int, fmt: str = "text") -> dict:
    text = reference.truncated_decimal(name, digits)
    value = int(text.replace(".", ""))
    return _recover_request(["--value", text], name, fmt, value, value + 1, 10**digits)


def _recover_request(value_args: list[str], name: str, fmt: str, lo: int, hi: int, den: int,
                     explicit: list[int] | None = None) -> dict:
    return _request(
        ["recover", *value_args, "--max-terms", NO_CAP, "--format", fmt],
        cmd="recover", seq=name, explicit=explicit, fmt=fmt, max_terms=int(NO_CAP),
        **_interval(lo, hi, den),
    )


def _interval(lo: int, hi: int, den: int) -> dict:
    """Check fields for [lo/den, hi/den]; `precision` is its certified digit count."""
    return {"lo": lo, "hi": hi, "den": den, "precision": len(str(den)) - 1}


def _recover_enclosure(inputs: _Inputs, name: str, terms: int, fmt: str = "text",
                       explicit: list[int] | None = None) -> dict:
    path, (lo, hi, den) = inputs.enclosure(name, terms, explicit)
    return _recover_request(["--value", path], name, fmt, lo, hi, den, explicit)


def _sequence_args(name: str, seq_file: str | None) -> list[str]:
    return ["--sequence-file", seq_file] if name == "explicit" else ["--sequence", name]


def _constant(name: str, fmt: str, *, digits: int | None = None, terms: int | None = None,
              seq_file: str | None = None, explicit: list[int] | None = None) -> dict:
    size = ["--digits", str(digits)] if digits is not None else ["--terms", str(terms)]
    return _request(
        ["constant", *_sequence_args(name, seq_file), *size, "--format", fmt],
        cmd="constant", seq=name, explicit=explicit, fmt=fmt, digits=digits,
    )


def _enclosure_check(name: str, terms: int, explicit: list[int] | None) -> dict:
    lo, den = reference.enclosure(reference.sequence_terms(name, terms + 1, explicit))
    return _interval(lo, lo + 1, den)


def _roundtrip(name: str, terms: int, fmt: str, seq_file: str | None = None,
               explicit: list[int] | None = None) -> dict:
    return _request(
        ["roundtrip", *_sequence_args(name, seq_file), "--terms", str(terms), "--format", fmt],
        cmd="roundtrip", seq=name, explicit=explicit, fmt=fmt, terms=terms,
        **_enclosure_check(name, terms, explicit),
    )


def _residuals(name: str, terms: int, fmt: str, rng: random.Random | None = None) -> dict:
    """Residuals of a `terms`-term enclosure; with `rng`, a random --count no larger than certified."""
    argv = ["residuals", "--sequence", name, "--terms", str(terms), "--format", fmt]
    interval = _enclosure_check(name, terms, None)
    count = None
    if rng is not None:
        run = reference.recover(interval["lo"], interval["hi"], interval["den"], terms)
        count = rng.randint(0, len(run.terms))
        argv += ["--count", str(count)]
    return _request(argv, cmd="residuals", seq=name, explicit=None, fmt=fmt, terms=terms,
                    count=count, **interval)


def _validate(name: str, fmt: str, terms: int | None, seq_file: str | None = None,
              explicit: list[int] | None = None) -> dict:
    argv = ["validate", *_sequence_args(name, seq_file), "--format", fmt]
    if terms is not None:
        argv += ["--terms", str(terms)]
    checked = terms if terms is not None else len(explicit or ())
    return _request(argv, cmd="validate", seq=name, explicit=explicit, fmt=fmt, terms=checked)


def _explicit_sequence(rng: random.Random, length: int) -> list[int]:
    """A random admissible sequence: strictly increasing, each step at most 2a - 1."""
    terms = [rng.randint(2, 5)]
    while len(terms) < length:
        a = terms[-1]
        terms.append(a + rng.randint(1, max(1, a // 4)))
    return terms


def _constant_1e5(rng: random.Random, inputs: _Inputs) -> Plan:
    digits = 100_000 + rng.randrange(200)
    return Plan([_constant("primes", "text", digits=digits)], probe=_constant("primes", "text", digits=digits // 2))


def _certify_enclosure(rng: random.Random, inputs: _Inputs) -> Plan:
    digits = 5000 + rng.randrange(25)
    terms = reference.terms_for_digits("primes", digits + 2)
    return Plan(
        [
            _recover_enclosure(inputs, "primes", terms),
            _residuals("primes", 900 + rng.randrange(10), "json"),
            _roundtrip("primes", 2586 + rng.randrange(10), "text"),
        ],
        probe=_recover_enclosure(inputs, "primes", reference.terms_for_digits("primes", digits // 2 + 2)),
    )


def _recover_decimal_plan(rng: random.Random, inputs: _Inputs) -> Plan:
    digits = 4000 + rng.randrange(20)
    return Plan([_recover_decimal("primes", digits)], probe=_recover_decimal("primes", digits // 2))


def _strata(rng: random.Random, count: int, low: int, high: int) -> list[tuple[int, str]]:
    """`count` (size, format) pairs: one size drawn from each of `count` equal slices of [low, high],
    and half the formats text, half JSON, in seeded order.

    Stratified draws keep the mix, and so the cost of a pass, the same from
    seed to seed while the seed still sets every size.
    """
    width = (high - low + 1) / count
    formats = ["text", "json"] * (count // 2) + [rng.choice(("text", "json"))] * (count % 2)
    rng.shuffle(formats)
    return [(low + int(width * (i + rng.random())), formats[i]) for i in range(count)]


def _small_mixed(rng: random.Random, inputs: _Inputs) -> Plan:
    """388 small requests in fixed strata; the seed draws sizes within them, formats and order."""
    explicit = _explicit_sequence(rng, 400)
    seq_file = inputs.sequence_file(explicit)
    requests: list[dict] = []
    for digits, fmt in _strata(rng, 60, 10, 1500):
        requests.append(_constant("primes", fmt, digits=digits))
    for name in ("naturals", "doubling"):
        for digits, fmt in _strata(rng, 20, 10, 600):
            requests.append(_constant(name, fmt, digits=digits))
    for terms, fmt in _strata(rng, 20, 5, 150):
        requests.append(_constant("explicit", fmt, terms=terms, seq_file=seq_file, explicit=explicit))
    for digits, fmt in _strata(rng, 30, 10, 300):
        requests.append(_recover_decimal("primes", digits, fmt))
    for digits, fmt in _strata(rng, 10, 10, 200):
        requests.append(_recover_decimal("naturals", digits, fmt))
    for name in ("primes", "naturals", "doubling"):
        for terms, fmt in _strata(rng, 6, 5, 100):
            requests.append(_recover_enclosure(inputs, name, terms, fmt))
    for terms, fmt in _strata(rng, 6, 5, 100):
        requests.append(_recover_enclosure(inputs, "explicit", terms, fmt, explicit))
    # Doubling terms grow as 2^n, so n terms give about 0.15 n^2 digits: 100 terms is 1500 digits.
    for name, top in (("primes", 300), ("naturals", 300), ("doubling", 100), ("boundary", 60)):
        for terms, fmt in _strata(rng, 10, 5, top):
            requests.append(_roundtrip(name, terms, fmt))
    for terms, fmt in _strata(rng, 10, 5, 150):
        requests.append(_roundtrip("explicit", terms, fmt, seq_file, explicit))
    for name, top in (("primes", 200), ("naturals", 200), ("doubling", 100)):
        for i, (terms, fmt) in enumerate(_strata(rng, 10, 5, top)):
            requests.append(_residuals(name, terms, fmt, rng if i % 2 else None))
    for name in ("primes", "naturals", "doubling", "boundary"):
        for terms, fmt in _strata(rng, 12, 2, 400):
            requests.append(_validate(name, fmt, terms))
    for _, fmt in _strata(rng, 6, 0, 0):
        requests.append(_validate("explicit", fmt, None, seq_file, explicit))
    for terms, fmt in _strata(rng, 6, 2, 400):
        requests.append(_validate("explicit", fmt, terms, seq_file, explicit))
    for limit, fmt in _strata(rng, 40, 1, 20000):
        requests.append(_request(["mean", "--limit", str(limit), "--format", fmt], cmd="mean", fmt=fmt, limit=limit))
    for terms, fmt in _strata(rng, 24, 1, 12):
        requests.append(_request(["alpha", "--terms", str(terms), "--format", fmt], cmd="alpha", fmt=fmt, terms=terms))
    rng.shuffle(requests)
    return Plan(requests)


_BUILDERS = {
    "constant-1e5": _constant_1e5,
    "certify-enclosure": _certify_enclosure,
    "recover-decimal": _recover_decimal_plan,
    "small-mixed": _small_mixed,
}


def build(name: str, seed: int, workdir: Path) -> Plan:
    """The request plan of workload `name` for `seed`; input files go to `workdir`."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), _Inputs(workdir))
