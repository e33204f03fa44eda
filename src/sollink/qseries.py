"""Generating series built from the boundary linking numbers.

Three layers: exact rational q-expansions of the boundary linking pairing
(per fixed second index m), a float "minimum over the unit orbit" series whose
coefficients are proportional to the exact ones with one universal constant,
and a numeric two-part evaluator adding a non-holomorphic lattice sum to the
truncated holomorphic part.  Exact data stays in Fraction end to end; floats
appear only in the analytic layer.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, _check_index, _is_int
from .qfield import FieldData, QuadElem, _norm_reps, enumerate_norm_classes
from .cycles import _link_numbers, _LinkCells, _rep_sum
from .special_fn import beta_scaled


def _is_exact_json(value) -> bool:
    """A JSON string or integer; JSON floats are binary and true/false are
    not numbers, so neither may stand for an exact rational."""
    return isinstance(value, str) or _is_int(value)


def _int_digit_limit() -> int:
    """The interpreter's cap on the digits of an int read from or written as
    text, 0 for none; json.loads holds JSON integers to it."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# The digit cap of a rational literal where the interpreter sets none
# (PYTHONINTMAXSTRDIGITS=0, or Python 3.10): CPython's default limit.
_LITERAL_DIGITS_MAX = 4300
# An error names a rejected interior-table value or key by at most this many
# characters of its repr, so a long one still gives a short line.
_QUOTE_MAX = 40


def _quote(value) -> str:
    """repr(value), or for a long value the start of its ascii() form and the
    length of its repr."""
    text = repr(value)
    if len(text) <= _QUOTE_MAX:
        return text
    return f"{ascii(value)[:_QUOTE_MAX]}... ({len(text)} characters)"


def _check_literal_digits(text: str) -> None:
    """InputError when a rational literal spells an integer of more digits
    than _int_digit_limit, or than _LITERAL_DIGITS_MAX where that is 0: the
    longer side of "p/q", or a decimal's digits plus |exponent|.  It reads
    the text before Fraction does, which takes seconds to expand an exponent
    like 1e10000000."""
    limit = _int_digit_limit() or _LITERAL_DIGITS_MAX
    head, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    digits = max(sum(c.isdigit() for c in side) for side in head.split("/"))
    if exponent.isdecimal():
        # int() refuses an exponent longer than the limit, which exceeds it anyway
        digits += int(exponent) if len(exponent) <= limit else limit + 1
    if digits > limit:
        raise InputError(f"rational literal of more than {limit} digits, starting {text[:20]!r}")


def _fraction_from_json(value) -> Fraction:
    if _is_exact_json(value):
        if isinstance(value, str):
            _check_literal_digits(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not a rational literal: {_quote(value)}")


def _unique_keys(pairs) -> dict:
    """json.loads object_pairs_hook: the object as a dict, InputError on a
    repeated key, which plain json.loads would let the last value overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"interior table repeats the key {_quote(key)}")
        out[key] = value
    return out


@dataclass(frozen=True)
class QExpansion:
    """Exact rational q-expansion: coefficient of q^n for n = 1..nmax."""

    d: int
    m: int
    weight: int
    nmax: int
    coeffs: dict  # n -> Fraction, every n in 1..nmax present


def lk_qexpansion(field: FieldData, m: int, nmax: int) -> QExpansion:
    """Boundary linking numbers Lk(C_n, C_m) for n = 1..nmax as a weight-2
    rational q-expansion in the first index."""
    _check_index("m", m)
    _check_index("nmax", nmax)
    column = _link_numbers(field, nmax, (m,))
    coeffs = {n: column[n, m] for n in range(1, nmax + 1)}
    return QExpansion(d=field.d, m=m, weight=2, nmax=nmax, coeffs=coeffs)


def min_series_coeff(field: FieldData, n: int, k_range: int) -> float:
    """Coefficient of q^n of the orbit-minimum series:

        (1/sqrt(2*disc)) * sum over classes mu of norm n, signs s = +-1,
        |k| <= k_range of min(|s mu eps^k|, |s mu' eps^-k|).

    Terms decay like eps^-|k|, so moderate k_range already gives full double
    precision.  The terms do not depend on the sign, so each is evaluated
    once per class and added for both signs.  Summation order is classes,
    then signs, then k ascending, so the float result is deterministic.
    """
    _check_index("norm", n)
    _check_index("k_range", k_range, _K_RANGE_MAX)
    return _orbit_min_sum(field, [(cls.rep.a, cls.rep.b) for cls in enumerate_norm_classes(field, n)], k_range)


def _orbit_min_sum(field: FieldData, reps, k_range: int) -> float:
    """min_series_coeff over the classes with the rep coordinates (a, b) in reps."""
    log_eps = math.log(field.eps.embed())
    total = 0.0
    for a, b in reps:
        rep = QuadElem(field, a, b)
        mu = rep.embed()
        log_mu = math.log(mu)
        # mu' = N(mu)/mu: a + b*w' cancels to 0.0 when eps is large
        log_mu_c = math.log(rep.norm() / mu)
        # min in log space; the min side never overflows
        terms = [math.exp(min(log_mu + k * log_eps, log_mu_c - k * log_eps)) for k in range(-k_range, k_range + 1)]
        for _sign in (1, -1):
            # a plain loop: sum() compensates on Python 3.12+, changing the last bits
            for term in terms:
                total += term
    return total / math.sqrt(2 * field.disc)


@dataclass(frozen=True)
class RatioReport:
    """Per-n ratios of the orbit-minimum coefficient to the exact boundary
    linking number Lk(C_n, C_1), their spread, and the exceptional indices."""

    d: int
    k_range: int
    ratios: dict  # n -> float, for n with Lk != 0
    spread: float
    omitted: tuple  # n with Lk == 0 and min-coefficient ~ 0
    inconsistent: tuple  # n with Lk == 0 but min-coefficient clearly nonzero


def holomorphic_ratio_test(field: FieldData, nmax: int, k_range: int) -> RatioReport:
    """Measure min_series_coeff(n) / Lk(C_n, C_1) for n = 1..nmax.

    The ratio is one constant for every n (and every field); this function
    measures it rather than asserting a value.
    """
    _check_index("nmax", nmax)
    _check_index("k_range", k_range, _K_RANGE_MAX)
    ratios = {}
    omitted, inconsistent = [], []
    ns = range(1, nmax + 1)
    # one sweep, shared by the Lk column and the orbit-minimum sums
    reps = _norm_reps(field, nmax)
    column = _LinkCells(field, {n: _rep_sum(group) for n, group in reps.items()}, ns, (1,))
    for n in ns:
        lk = column[n, 1]
        mn = _orbit_min_sum(field, reps.get(n, ()), k_range)
        if lk == 0:
            (omitted if abs(mn) <= 1e-9 else inconsistent).append(n)
            continue
        ratios[n] = mn / float(lk)
    values = list(ratios.values())
    spread = max(values) - min(values) if len(values) > 1 else 0.0
    return RatioReport(
        d=field.d,
        k_range=k_range,
        ratios=ratios,
        spread=spread,
        omitted=tuple(omitted),
        inconsistent=tuple(inconsistent),
    )


# Caps on the truncations whose cost does not depend on enumeration.
# k_range 10^4 is about 2*10^4 orbit terms per class and n.
_BOX_MAX = 1000
_K_RANGE_MAX = 10_000
# Floor on Im tau: below v of about 2e-17 |q| = exp(-2 pi v) rounds to 1 and
# the holomorphic tail estimate divides by zero; the truncations mean nothing
# long before that.
_IM_TAU_MIN = 1e-8
# Cap on Im tau: near 5e307 the Gaussian exponents overflow and the beta sums
# are nan.  Above about 120, |q| is 0.0 and only the t = b = 0 term is left.
_IM_TAU_MAX = 10**6
# math.exp(-x) is exactly 0.0 for x above about 745.13; eval_W skips the t
# and b whose Gaussian exponent pi*v*t^2/2 or pi*v*disc*b^2/2 exceeds this
# cutoff.
_GAUSS_CUTOFF = 760.0
# Entries kept by _holomorphic_coeffs, one per (field, k_range, n_cut); each
# holds n_cut floats.
_HOLO_CACHE_SIZE = 32
# Gaps combine_interior names before it only counts the rest.
_MISSING_SHOWN = 10


@dataclass(frozen=True)
class WEvalParams:
    """eval_W's inputs: tau in the upper half plane, the unit-power range
    |k| <= k_range of the orbit-minimum coefficients, the half-width box of
    the lattice, and the last holomorphic coefficient n_cut.  Values out of
    range raise InputError when the parameters are built."""

    tau: complex
    k_range: int = 40
    box: int = 12
    n_cut: int = 20

    def __post_init__(self):
        if not cmath.isfinite(self.tau):
            raise InputError(f"tau must be finite, got {self.tau}")
        if not (self.tau.imag > 0):
            raise InputError(f"tau must lie in the upper half plane, got {self.tau}")
        if self.tau.imag < _IM_TAU_MIN:
            raise InputError(f"Im tau must be at least {_IM_TAU_MIN}, got {self.tau.imag!r}")
        if self.tau.imag > _IM_TAU_MAX:
            raise InputError(f"Im tau must be at most {_IM_TAU_MAX}, got {self.tau.imag!r}")
        _check_index("k_range", self.k_range, _K_RANGE_MAX)
        _check_index("box", self.box, _BOX_MAX)
        _check_index("n_cut", self.n_cut)


@functools.lru_cache(maxsize=_HOLO_CACHE_SIZE)
def _holomorphic_coeffs(field: FieldData, k_range: int, n_cut: int) -> tuple:
    """min_series_coeff(field, n, k_range) for n = 1..n_cut, from one sweep
    (qfield._norm_reps).  They do not depend on tau, so eval_W at many tau on
    one field computes them once."""
    reps = _norm_reps(field, n_cut)
    return tuple(_orbit_min_sum(field, reps.get(n, ()), k_range) for n in range(1, n_cut + 1))


@dataclass(frozen=True)
class WEvalReport:
    """eval_W at one tau: the truncated holomorphic sum and the
    non-holomorphic lattice sum, each with a heuristic tail estimate; total is
    their sum."""

    holomorphic: complex
    beta_part: complex
    holo_tail: float
    beta_tail: float

    @property
    def total(self) -> complex:
        return self.holomorphic + self.beta_part


def _beta_sums(field: FieldData, tau: complex, box: int) -> tuple:
    """(sum, shell) of eval_W's lattice: the sum of the terms over |a|, |b| <=
    box, and the sum of their magnitudes over the points with |a| = box or
    |b| = box.

    With t = 2a + s0*b the point a + b*w is (t + b*sqrt(disc))/2, of norm
    (t^2 - disc*b^2)/4, so its term factors as g(t)*h(b) with
    g(t) = e^{pi i tau t^2/2} and h(b) = beta_scaled(pi*v*disc*b^2) *
    e^{-pi i conj(tau) disc b^2/2}, and the box holds the t = s0*b (mod 2)
    with |t - s0*b| <= 2*box.  So the sum is, over b, h(b) times a window of
    g, read from prefix sums of g over each parity of t: one exp per t and
    one per b.  Each factor is kept while its own exponent pi*v*t^2/2 or
    pi*v*disc*b^2/2 is at most _GAUSS_CUTOFF, widened by one against
    rounding.
    """
    v = tau.imag
    q_cut = _GAUSS_CUTOFF / (math.pi * v)
    reach = min(box, math.isqrt(int(2 * q_cut / field.disc)) + 1)
    # the windows of the kept b lie in |t| <= 2*box + s0*reach
    top = min(math.isqrt(int(2 * q_cut)) + 1, 2 * box + field.s0 * reach)
    # g[t + top] = g(t); sums[i] and mags[i] add g(t) and |g(t)| over the
    # t < i - top with t = i - top (mod 2)
    half = 0.5j * math.pi * tau
    g, sums, mags = [], [0j, 0j], [0.0, 0.0]
    for t in range(-top, top + 1):
        g.append(cmath.exp(half * (t * t)))
        sums.append(sums[-2] + g[-1])
        mags.append(mags[-2] + abs(g[-1]))

    def window(prefix, lo, hi):
        """The sum over t = lo, lo + 2, ..., hi in -top..top."""
        if lo < -top:
            lo += (-top - lo + 1) // 2 * 2
        if hi > top:
            hi -= (hi - top + 1) // 2 * 2
        return prefix[hi + top + 2] - prefix[lo + top] if lo <= hi else 0.0

    tilt = -0.5j * math.pi * tau.conjugate()
    width = 2 * box
    # plain loops throughout: sum() compensates on Python 3.12+
    beta_sum, shell_abs = 0j, 0.0
    for b in range(-reach, reach + 1):
        h = beta_scaled(math.pi * v * field.disc * b * b) * cmath.exp(tilt * (field.disc * b * b))
        lo, hi = field.s0 * b - width, field.s0 * b + width
        beta_sum += h * window(sums, lo, hi)
        # the rows a = -box and a = box, and at |b| = box the points between
        ring = window(mags, lo + 2, hi - 2) if abs(b) == box else 0.0
        for t in (lo, hi):
            if -top <= t <= top:
                ring += abs(g[t + top])
        shell_abs += abs(h) * ring
    return beta_sum, shell_abs


def eval_W(field: FieldData, params: WEvalParams) -> WEvalReport:
    """Evaluate the completed series at tau: truncated holomorphic part from
    the orbit-minimum coefficients plus the non-holomorphic lattice sum

        -(sqrt(2)/sqrt(disc*v)) * sum over lattice a + b*w in the box of
            beta(pi*v*disc*b^2) * e^{2 pi i N(lambda) tau}.

    The summand is g(t)*h(b), a function of t = 2a + s0*b times one of b
    (_beta_sums): the lattice sum is theta(tau) times the non-holomorphic
    part of Zagier's weight-3/2 Eisenstein series, as in Hirzebruch-Zagier.
    So it is read from one-dimensional sums, O(#t + #b) work and memory with
    #b <= 2*box + 1 and #t <= 6*box + 1 at any Im tau: the largest lattice,
    box 1000 at the floor Im tau = 1e-8, takes about 10 ms, and its w-eval
    process peaks at about 17 MB, 14 MB of them the import.  Tail fields are
    heuristic upper estimates from the last ring of each truncation.

    The holomorphic coefficients depend on (field, k_range, n_cut) but not on
    tau, so they are computed once per key and kept in a bounded LRU cache
    (_HOLO_CACHE_SIZE entries).  A cached coefficient is the float the same
    min_series_coeff call returns, so the report is bit-identical, warm or
    cold.

    W has period 1 in tau, so Re tau is first reduced mod 1 by math.fmod,
    which is exact and the identity for |Re tau| < 1: any finite Re tau is
    accepted, and none puts its rounding into the phases 2*pi*n*tau.
    """
    tau = complex(math.fmod(params.tau.real, 1.0), params.tau.imag)
    q_abs = math.exp(-2 * math.pi * tau.imag)

    holo = 0.0j
    max_coeff = 0.0
    for n, c in enumerate(_holomorphic_coeffs(field, params.k_range, params.n_cut), start=1):
        max_coeff = max(max_coeff, abs(c))
        holo += c * cmath.exp(2j * math.pi * n * tau)
    # geometric tail with a factor-4 margin for slow coefficient growth
    holo_tail = 4 * max_coeff * q_abs ** (params.n_cut + 1) / (1 - q_abs) ** 2

    prefactor = -math.sqrt(2) / math.sqrt(field.disc * tau.imag)
    beta_sum, shell_abs = _beta_sums(field, tau, params.box)
    return WEvalReport(
        holomorphic=holo,
        beta_part=prefactor * beta_sum,
        holo_tail=holo_tail,
        beta_tail=abs(prefactor) * 2 * shell_abs,
    )


@dataclass(frozen=True)
class InteriorTable:
    """Externally supplied interior intersection numbers against the norm-m
    cycle, indexed by n."""

    m: int
    entries: dict  # n -> Fraction
    provenance: str = ""

    @classmethod
    def from_json(cls, text: str) -> "InteriorTable":
        # JSONDecodeError and an int over the interpreter's digit limit are both
        # ValueError; nesting too deep is RecursionError.  InputError is a
        # ValueError too, and passes unwrapped
        import json

        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except InputError:
            raise
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "m" not in raw or "entries" not in raw:
            raise InputError("interior table needs keys 'm' and 'entries'")
        try:
            m = int(raw["m"]) if _is_exact_json(raw["m"]) else None
        except ValueError:
            m = None
        if m is None:
            raise InputError(f"bad m in interior table: {_quote(raw['m'])}")
        _check_index("interior table m", m)
        if not isinstance(raw["entries"], dict):
            raise InputError("interior table 'entries' must be a JSON object")
        entries = {}
        for key, val in raw["entries"].items():
            try:
                n = int(key)
            except ValueError as exc:
                raise InputError(f"bad index in interior table: {_quote(key)}") from exc
            if n in entries:
                raise InputError(f"interior table repeats n = {n} (key {_quote(key)})")
            entries[n] = _fraction_from_json(val)
        return cls(m=m, entries=entries, provenance=str(raw.get("provenance", "")))


def _check_covers(table: InteriorTable, nmax: int) -> None:
    """InputError naming the first _MISSING_SHOWN n in 1..nmax the table
    lacks and counting the rest.  Those lie in 1..len(entries) +
    _MISSING_SHOWN, so the cost grows with the table, not with nmax."""
    gaps = nmax - sum(1 for n in table.entries if 1 <= n <= nmax)
    if gaps > 0:
        top = min(nmax, len(table.entries) + _MISSING_SHOWN)
        shown = [n for n in range(1, top + 1) if n not in table.entries][:_MISSING_SHOWN]
        more = f" and {gaps - _MISSING_SHOWN} more" if gaps > _MISSING_SHOWN else ""
        raise InputError(f"interior table is missing n = {', '.join(map(str, shown))}{more}")


def combine_interior(table: InteriorTable, field: FieldData, nmax: int) -> QExpansion:
    """Subtract the boundary linking numbers from supplied interior numbers:
    coefficient(n) = interior(n, m) - Lk(C_n, C_m) for n = 1..nmax.

    Lk is this library's linking number, which is -2 times the paper's
    boundary term.  So the combination that is modular is not this
    difference: at m = 1 it is H_D(4n) + Lk(n, 1)/2, with H_D(4n) the
    class-number part of the Hirzebruch-Zagier interior numbers, and
    tests/test_cycles.py::test_closed_form_satisfies_hirzebruch_zagier pins
    it as an Eisenstein series at D in {5, 8, 13, 17}.

    Every n in range must be present in the table (_check_covers), and no
    coefficient may have a numerator or denominator of more digits than
    _int_digit_limit, since it could not be printed.
    """
    _check_index("m", table.m)
    _check_index("nmax", nmax)
    _check_covers(table, nmax)
    column = _link_numbers(field, nmax, (table.m,))
    coeffs = {n: table.entries[n] - column[n, table.m] for n in range(1, nmax + 1)}
    limit = _int_digit_limit()
    if limit:
        bound = 10**limit
        for n, c in coeffs.items():
            if max(abs(c.numerator), c.denominator) >= bound:
                raise InputError(f"the coefficient of q^{n} has more than {limit} digits")
    return QExpansion(d=field.d, m=table.m, weight=2, nmax=nmax, coeffs=coeffs)
