"""Recovery of sequence terms from an enclosure via the floor recurrence.

If F_1 encloses a sequence constant, the map

    F_{n+1} = floor(F_n) * (F_n - floor(F_n) + 1)

peels off one term per step: floor(F_n) is exactly a_n whenever the floor
is certified, because the true value f_n of the constant's n-th shift
satisfies a_n < f_n < a_n + 1.  Each step multiplies the interval width by
the extracted term, so a width-w starting enclosure certifies terms until
the accumulated width product reaches 1.  Recovery is therefore always
finite and the stopping reason is part of the result, not an error.

The residual f_n - a_n lies strictly in (0, 1) for every n.  If the
constant were the rational a/b, every residual would be a multiple of 1/b
and hence at least 1/b; so an interval upper bound u on some residual
certifies that any rational representation needs a denominator of at
least floor(1/u).  `residuals` turns a run of certified steps into that
denominator bound.

The recurrence runs on integers: lo and the width as numerators over one
denominator q, stepped by `_base`, the one loop.  Run one step at a time
that loop is quadratic, n/log(a) full-size steps on n-bit numerators, so
`_recover` runs it on half-size windows instead, the recurrence's analogue
of Lehmer's gcd and of the Knuth-Schoenhage half-gcd (Moeller, Math. Comp.
2008).  A window rounds the interval outward to half its remaining
precision; the steps certified on it, by recursion down to `_LEAF_BITS`,
compose to one map x -> M*x - C*q, with M' = a*M and C' = a*(C + a - 1),
applied once to the full numerators.  That (M, C) is the series' pair
(P, S) of the same terms, so `constant._compose` forms both.  Floors
certified on a window are certified on the interval it contains, and the
last steps, where windows fail, run on the full numerators, so the terms,
the stop and FloorBelowTwo are the one-step loop's.  The smallest residual
upper bound comes, on first read, from a fixed-point pass backward from the
final hi, evaluated exactly at its few candidates by composed maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import starmap

from .constant import ConstantEnclosure, _compose, enclose
from .exact_arith import (
    InputError,
    InvalidArgument,
    RationalInterval,
    _check_int,
    _int_text,
    _lowest_terms_steps,
    format_rational,
)
from .sequences import SequenceSpec

__all__ = [
    "FloorBelowTwo",
    "MismatchDetected",
    "RecoveryResult",
    "ResidualReport",
    "RoundtripReport",
    "StopReason",
    "recover",
    "residuals",
    "roundtrip",
]


class FloorBelowTwo(InputError):
    """Raised when a certified floor is below 2.

    A valid enclosure of an admissible constant can never reach this state,
    so it indicates corrupted input rather than exhausted precision, and it
    is an error even inside `recover`.
    """

    def __init__(self, floor_value: int, step: int) -> None:
        self.floor_value = floor_value
        self.step = step
        super().__init__(
            f"certified floor {_int_text(floor_value)} < 2 at step {step}; "
            "input is not an enclosure of an admissible constant"
        )


class MismatchDetected(RuntimeError):
    """Raised when a recovered term disagrees with the source sequence.

    The mathematics rules this out for certified steps, so it always
    indicates an implementation bug.
    """

    def __init__(self, step: int, recovered: int, expected: int) -> None:
        self.step = step
        self.recovered = recovered
        self.expected = expected
        super().__init__(
            f"step {step}: recovered {_int_text(recovered)} but the sequence says {_int_text(expected)}"
        )


_STOP_KINDS = ("max_terms", "width_exceeds_one", "ambiguous_floor")


@dataclass(frozen=True)
class StopReason:
    """Why recovery stopped.

    kind is one of "max_terms" (the requested count was reached),
    "width_exceeds_one" (the interval can no longer certify any floor),
    or "ambiguous_floor" (the interval straddles `straddled`).  `step` is
    the 1-based step that could not run, None for "max_terms".
    """

    kind: str
    step: int | None = None
    straddled: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _STOP_KINDS:
            raise ValueError(f"unknown stop kind: {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "step": self.step, "straddled": self.straddled}


def _fraction_steps(numerator: int, denominator: int, steps):
    """x after each step x -> a*x + c, for (a, c) in `steps`, from x = numerator/denominator, as Fractions."""
    x = Fraction(numerator, denominator)
    for a, c in steps:
        x = a * x + c if c else a * x
        yield x


@dataclass(frozen=True)
class RecoveryResult:
    """Certified terms from iterating the floor recurrence on [lo/D, hi/D].

    Only the terms, the stop reason, and lo, hi and hi after the last step
    as numerators over D are stored, so the result stays the size of one
    enclosure however many steps ran; the smallest residual upper bound is
    found from them on first read.  Each per-step view steps x -> a*x + c
    for the (a, c) of `_steps`.  The ends go to a stepper: `_fraction_steps`
    for the API's intervals, `exact_arith._lowest_terms_steps` for the
    printed rows, one row at a time; the widths are only printed, so they
    go to the latter.  The rows have their own stepper because converting ints
    to text is the cost (at 10^4 digits a Fraction step by small ints takes
    about 45 us, format_rational of its value 2.2 ms), and the Fraction
    views are not read off the rows, since Fraction(n, q) pays a full-size
    gcd.
    """

    recovered: tuple[int, ...]
    stop: StopReason
    lo_numerator: int
    hi_numerator: int
    denominator: int
    end_numerator: int

    @cached_property
    def min_upper_numerator(self) -> int | None:
        """The smallest residual upper bound, as a numerator over D; None when no step was certified."""
        return _min_upper(self.recovered, self.hi_numerator, self.end_numerator, self.denominator)

    @property
    def min_residual_upper(self) -> Fraction | None:
        """The smallest certified residual upper bound, in lowest terms; its gcd is paid on each read."""
        upper = self.min_upper_numerator
        return None if upper is None else Fraction(upper, self.denominator)

    def _steps(self):
        """(a_{k-1}, a_{k-1} - a_k) for each certified step k, with a_0 = 1."""
        return ((before, before - term) for before, term in zip((1, *self.recovered), self.recovered))

    def _ends(self, stepper):
        """The residuals of lo and of hi at each certified step, as pairs, by `stepper`.

        Each end's residual is r_k = a_{k-1} * r_{k-1} + a_{k-1} - a_k,
        from r_0 = x_1 - 1.
        """
        q = self.denominator
        return zip(*(stepper(n - q, q, self._steps()) for n in (self.lo_numerator, self.hi_numerator)))

    def _widths(self):
        """The printed width entering each certified step: w_k = a_{k-1} * w_{k-1}, from w_0 = w_1."""
        steps = ((before, 0) for before, _ in self._steps())
        return _lowest_terms_steps(self.hi_numerator - self.lo_numerator, self.denominator, steps)

    @property
    def intervals(self) -> tuple[RationalInterval, ...]:
        """The interval the k-th floor was taken from, for each certified step."""
        ends = zip(self.recovered, self._ends(_fraction_steps))
        return tuple(RationalInterval(lo + m, hi + m) for m, (lo, hi) in ends)

    @property
    def residual_intervals(self) -> list[RationalInterval]:
        """Enclosures of f_n - a_n for each certified step."""
        return list(starmap(RationalInterval, self._ends(_fraction_steps)))

    @property
    def denominator_bound(self) -> int | None:
        """Certified lower bound on the denominator of any rational value.

        A rational constant a/b forces every residual to be >= 1/b, so b
        must be at least 1/u for the smallest certified residual upper
        bound u = min_upper_numerator / D; as an integer, b >= D // min_upper_numerator.
        None when no step was certified or u is not positive.
        """
        upper = self.min_upper_numerator
        if upper is None or upper <= 0:
            return None
        return self.denominator // upper

    def _json_fields(self, widths) -> dict:
        """The JSON document, in its field order, with `widths` as the value of "widths"."""
        return {
            "recovered": list(self.recovered),
            "widths": widths,
            "stop": self.stop.to_json_dict(),
            "denominator_bound": self.denominator_bound,
        }

    def to_json_dict(self) -> dict:
        return self._json_fields(list(self._widths()))


def recover(start: RationalInterval, max_terms: int) -> RecoveryResult:
    """Extract certified terms from `start` until a stopping condition.

    The result is what checking, in order, before each step, the requested
    count, then whether the width already reaches 1 (no floor can ever be
    certified again), then floor certification itself would give.
    Ambiguity is a normal stop; a certified floor below 2 raises
    FloorBelowTwo since it cannot arise from a valid enclosure.  The
    recurrence runs on integer numerators over a common denominator, so no
    step pays for a gcd, and on half-size windows (see the module
    docstring), so the cost grows like a large multiplication times a
    logarithm, not like the number of steps times the operand size.
    """
    return _recover(*start._lcm_numerators(), max_terms)


# At or below this many bits of precision a window is stepped by `_base`.
_LEAF_BITS = 3000
# The residual pass keeps this many fractional bits.
_FIXED_BITS = 128
# The smallest residual's exact pass jumps back from the last step over at
# most this many terms: one division by their product, quadratic in CPython,
# in place of forward segment maps that cost products of the whole prefix.
_WALK_BACK = 1024


def _recover(lo: int, hi: int, denominator: int, max_terms: int) -> RecoveryResult:
    """`recover` on [lo/denominator, hi/denominator], where lo <= hi.

    `_windows` finds the terms at full precision.  Where it stops short of
    `max_terms`, the base loop has just failed to step the full-size
    numerators, and the checks of `recover`, in its order, name the stop
    or raise FloorBelowTwo.  The result keeps hi after the last step, from
    which `_min_upper` finds the smallest residual upper bound when it is
    first read.
    """
    _check_int(max_terms, "max_terms", 0)
    recovered, _, _, x, width = _windows(lo, hi - lo, denominator, max_terms, exact=True)
    step = len(recovered) + 1
    if len(recovered) >= max_terms:
        stop = StopReason("max_terms")
    elif width >= denominator:
        stop = StopReason("width_exceeds_one", step=step)
    else:
        m = x // denominator
        if x + width < (m + 1) * denominator:
            raise FloorBelowTwo(m, step=step)
        stop = StopReason("ambiguous_floor", step=step, straddled=m + 1)
    return RecoveryResult(tuple(recovered), stop, lo, hi, denominator, x + width)


def _windows(x: int, width: int, q: int, budget: int, exact: bool = False):
    """Certify up to `budget` steps on [x/q, (x + width)/q] by half-size windows.

    Each pass rounds the interval outward to a window that carries half
    its remaining precision, log2(q / width) bits (all of it at or below
    `_LEAF_BITS`), recovers on that window, by recursion or by `_base`, and
    applies the window's map once to the numerators here.  A window
    contains the interval, so a floor certified on it is certified here.
    Where there is too little to cut, `_base` steps the numerators here.
    A window stops at its first pass without progress.  Returns the terms,
    their map (M, C), under which a numerator x over q becomes M*x - C*q,
    and the final lo and width numerators.

    `exact` marks the caller's own interval at full precision, whose map
    nobody needs, so it is not formed.  A pass without progress there
    hands `_base` the numerators themselves, with a budget that doubles
    after each such pass, so input on which windows keep failing costs
    about what the base loop costs.
    """
    terms: list[int] = []
    M, C = 1, 0
    fallback = 1
    while len(terms) < budget:
        rest = budget - len(terms)
        precision = q.bit_length() - width.bit_length()
        half = precision // 2 if precision > _LEAF_BITS else precision
        window = _outward(x, width, q, half) if x >= 0 and precision > 0 else None
        if window is None:
            found, x, width = _base(x, width, q, rest)
            if not exact:
                wM, wC = _compose(found)
                M, C = wM * M, wM * C + wC
            terms += found
            break
        if precision > _LEAF_BITS:
            found, wM, wC, _, _ = _windows(*window, rest)
        else:
            found, _, _ = _base(*window, rest)
            wM, wC = _compose(found)
        if found:
            x, width = wM * x - wC * q, wM * width
            if not exact:
                M, C = wM * M, wM * C + wC
        elif not exact:
            break
        else:
            asked = min(rest, fallback)
            fallback *= 2
            found, x, width = _base(x, width, q, asked)
            if len(found) < asked:
                terms += found
                break
        terms += found
    return terms, M, C, x, width


def _outward(x: int, width: int, q: int, precision: int):
    """A window around [x/q, (x + width)/q], where 0 <= x, carrying about `precision` bits.

    With X = x / 2^s and q' = q >> s <= q / 2^s, lo becomes
    floor(X) - floor(X/q') - 1 over q', which is below X / (q' + 1) and so
    below lo, and hi becomes ceil((x + width) / 2^s) over q', which is not
    below hi.  An integer lo is kept exact, as (x / q) * q' over q', since
    rounded down it would have the floor below it, and every window on an
    input whose lo stays an integer would fail.  q' keeps the bits of the
    value's integer part beyond `precision`, so each end moves by a few
    units of 2^-precision.  Returns None when there is nothing to cut.
    """
    s = q.bit_length() - precision - max(0, x.bit_length() - q.bit_length())
    if s <= 0:
        return None
    window_q = q >> s
    m, r = divmod(x, q)
    top = x >> s
    window_x = top - top // window_q - 1 if r else m * window_q
    return window_x, -(-(x + width) >> s) - window_x, window_q


def _base(x: int, width: int, q: int, budget: int):
    """The one recurrence loop, on [x/q, (x + width)/q].

    Steps while the floor is certified and at least 2, up to `budget`
    steps, and stops without raising at the first step it cannot take.
    With m, r = divmod(x, q), hi is below m + 1 when width < q - r, and
    the step takes x to m * (x - (m - 1) * q) = m * (r + q) and the width
    to m * width.  Returns the terms and the final lo and width numerators.
    """
    terms: list[int] = []
    while len(terms) < budget:
        m, r = divmod(x, q)
        if m < 2 or width >= q - r:
            break
        terms.append(m)
        x, width = m * (r + q), m * width
    return terms, x, width


def _min_upper(terms: tuple[int, ...], hi: int, last: int, denominator: int) -> int | None:
    """min over k of hi_k - a_k * D, where hi_k is hi after k - 1 steps and `last` hi after all.

    A backward pass in `_FIXED_BITS`-bit fixed point from t = last/D gives
    each residual upper bound hi_k/D - a_k = t_{k+1}/a_k - 1.  Each rounding
    floors, and dividing by a_k >= 2 halves the error carried in, so each
    computed bound lies in (true - 2, true], and the steps within 4 units of
    the smallest are the only candidates for the minimum.  From
    u_k = hi_k - a_k * D = (u_{k+1} + (a_{k+1} - a_k) * D) / a_k, which is
    >= 0, a_{k+1} <= a_k gives u_k <= u_{k+1} / 2, so only the first step and
    those whose term exceeds the one before are candidates.  One pass of
    composed segment maps carries hi forward through them, except that a
    candidate k whose terms from k on number at most `_WALK_BACK` and have at
    most a quarter of D's bits is reached back from `last`, by the inverse
    of their map (M, C): hi_k = (last + C * D) // M.  That division costs
    about D's size times M's, a forward map two products of D by the terms
    before k, so it pays only where M is small.
    """
    if not terms:
        return None
    one = 1 << _FIXED_BITS
    t = (last << _FIXED_BITS) // denominator
    low = None
    candidates: list[tuple[int, int]] = []
    for k in range(len(terms) - 1, -1, -1):
        m = terms[k]
        upper = t // m - one
        t = upper + m * one
        if low is None or upper < low:
            low = upper
            candidates = [(j, u) for j, u in candidates if u <= low + 4]
        if upper <= low + 4 and (k == 0 or m > terms[k - 1]):
            candidates.append((k, upper))
    size, uppers, done = denominator.bit_length(), [], 0
    for k in sorted(k for k, _ in candidates):
        if len(terms) - k <= _WALK_BACK and 4 * sum(map(int.bit_length, terms[k:])) <= size:
            M, C = _compose(terms[k:])
            hi, done = (last + C * denominator) // M, k
        M, C = _compose(terms[done:k])
        hi, done = M * hi - C * denominator, k
        uppers.append(hi - terms[k] * denominator)
    return min(uppers)


@dataclass(frozen=True)
class ResidualReport:
    """Residual enclosures and the denominator bound they certify.

    `enclosure` is the one the residuals come from, and `run` recovers
    exactly the reported rows; the residual enclosures, their smallest
    upper end and the bound are read from it.
    """

    enclosure: ConstantEnclosure
    certified: int
    run: RecoveryResult

    def _json_fields(self, rows) -> dict:
        """The JSON document, in its field order, with `rows` as the value of "residuals"."""
        min_upper = self.run.min_residual_upper
        return {
            "sequence": self.enclosure.sequence.label(),
            "terms_used": self.enclosure.terms_used,
            "certified": self.certified,
            "count": len(self.run.recovered),
            "residuals": rows,
            "min_upper": None if min_upper is None else format_rational(min_upper),
            "denominator_bound": self.run.denominator_bound,
        }

    def to_json_dict(self) -> dict:
        return self._json_fields([list(row) for row in self.run._ends(_lowest_terms_steps)])


def residuals(spec: SequenceSpec, terms_used: int, count: int | None = None) -> ResidualReport:
    """Certified residual enclosures from a `terms_used`-term enclosure of `spec`.

    `count` selects how many leading residuals to report; the default is
    every step the enclosure certifies.  Asking for more than the run
    certifies raises InvalidArgument, since uncertified residuals would
    prove nothing.  A shorter count cuts the one recovery to its first
    `count` steps: hi after them is M*hi - C*P for the map (M, C) of those
    terms, and the cut is the run a recovery stopped at `count` returns.
    """
    _check_int(terms_used, "terms_used", 1)
    if count is not None:
        _check_int(count, "count", 0)
    enclosure = enclose(spec, terms_used)
    lo, hi, denominator = enclosure.ints
    run = _recover(lo, hi, denominator, terms_used)
    certified = len(run.recovered)
    if count is None:
        count = certified
    if count > certified:
        raise InvalidArgument(
            f"enclosure from {terms_used} terms certifies only {certified} "
            f"residuals, {_int_text(count)} requested; increase terms_used"
        )
    if count < certified:
        kept = run.recovered[:count]
        M, C = _compose(kept)
        run = RecoveryResult(kept, StopReason("max_terms"), lo, hi, denominator, M * hi - C * denominator)
    return ResidualReport(enclosure, certified, run)


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of enclosing a sequence constant and recovering the terms back.

    The sequence, the term count and the degenerate tail are the
    `enclosure`'s, the recovered terms and the stop are the `run`'s.  Every
    recovered term matched, so the match length is the recovered count.  A
    degenerate tail, every growth step beyond the first at the upper bound,
    is the shape for which recovery necessarily stops at once.
    """

    enclosure: ConstantEnclosure
    run: RecoveryResult

    def to_json_dict(self) -> dict:
        recovered = len(self.run.recovered)
        return {
            "sequence": self.enclosure.sequence.label(),
            "terms_used": self.enclosure.terms_used,
            "recovered_count": recovered,
            "match_length": recovered,
            "mismatches": 0,
            "stop": self.run.stop.to_json_dict(),
            "degenerate_tail": self.enclosure.validation.all_tail_equalities,
        }


def roundtrip(spec: SequenceSpec, terms_used: int, max_terms: int | None = None) -> RoundtripReport:
    """Enclose the constant of `spec`, recover terms, and compare exactly.

    Every certified recovered term must equal the corresponding term the
    enclosure was built from; any disagreement raises MismatchDetected.  A
    recovery from N terms certifies at most N steps, since after N steps
    the width is (1/P_N) * P_N = 1, so the enclosure's terms cover the run.
    The enclosure [L/P, (L+1)/P] goes to the recurrence as its integers,
    with no gcd.
    """
    _check_int(terms_used, "terms_used", 1)
    max_terms = terms_used if max_terms is None else max_terms
    _check_int(max_terms, "max_terms", 0)
    enclosure = enclose(spec, terms_used)
    run = _recover(*enclosure.ints, max_terms)
    for step, (got, want) in enumerate(zip(run.recovered, enclosure.terms), start=1):
        if got != want:
            raise MismatchDetected(step, got, want)
    return RoundtripReport(enclosure, run)
