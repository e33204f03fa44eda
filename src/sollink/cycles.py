"""Boundary circles of norm-n cycles and their pairwise linking numbers.

The boundary of the norm-n cycle family meets the cusp cross-section in one
circle family per class of totally positive integers of norm n.  The circle of
class mu runs min' = gcd-many times parallel along the line R*mu, and two
families link inside the Sol cross-section, where the gluing is multiplication
by the conjugate totally positive fundamental unit.  The symplectic form is
<x, y> = (x*y' - x'*y)/sqrt(disc), the w-coordinate of x*y', an integer on
O_K.  Class reps are integers of the field, so the sums here run on their
int coordinates: multiplication by eps' is the matrix field.gluing, by
(eps - 1)' is gluing - I, and each returned value is one Fraction over
field.n_det = N(eps - 1).  Linking numbers come from per-norm sums of the
class reps (_link_cells).  A range of norms 1..nmax reads its reps from one
sweep of a fundamental domain (qfield._norm_reps).  A single norm runs its
own b-scan: boundary_components and a column m > nmax through
enumerate_norm_classes, and the closed form link_boundary_closed through
qfield._norm_coords, the same scan's int rep coordinates, with no element
built.  Only norms with classes give a nonzero row or column, so a table's
cells are filled in for those norms alone, on an all-zero template row, and
assembled into the dict in one pass.  The component-pair double sum the
cells reduce to is the test oracle tests/oracles.link_boundary.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, _check_index
from .qfield import FieldData, NormClass, QuadElem, _norm_coords, _norm_reps, enumerate_norm_classes


@dataclass(frozen=True)
class BoundaryComponent:
    """One circle family on the cusp cross-section: its class, how many
    parallel circles it carries, and the primitive totally positive direction
    of its fiber (equal fibers iff equal labels)."""

    cls: NormClass
    multiplicity: int
    fiber_label: QuadElem


def boundary_components(field: FieldData, n) -> list[BoundaryComponent]:
    """Boundary circle families of the norm-n cycle, one per reduced class."""
    s0, n0 = field.s0, field.n0
    out = []
    for cls in enumerate_norm_classes(field, n):
        a, b = cls.rep.a, cls.rep.b
        mult = math.gcd(a, b)  # the content of the integral rep
        a, b = a // mult, b // mult
        # a + b*w is totally positive iff its trace and its norm are positive
        if not (2 * a + s0 * b > 0 and a * a + s0 * a * b + n0 * b * b > 0):
            raise ConsistencyError("primitive direction escaped the lattice")
        out.append(BoundaryComponent(cls=cls, multiplicity=mult, fiber_label=QuadElem(field, a, b)))
    return out


def _rep_sum(reps) -> tuple[int, int]:
    """(sum of a, sum of b) over the rep coordinates (a, b) in reps."""
    return sum(a for a, _ in reps), sum(b for _, b in reps)


def _link_numbers(field: FieldData, nmax: int, ms) -> dict:
    """Lk(C_n, C_m) for n = 1..nmax and m in ms (ascending), keyed (n, m) in
    that order, from the rep sums of one sweep (qfield._norm_reps), and of its
    own norm-class scan for a column m > nmax."""
    sums = {n: _rep_sum(group) for n, group in _norm_reps(field, nmax).items()}
    for m in ms:
        if m > nmax:
            sums[m] = _rep_sum([(cls.rep.a, cls.rep.b) for cls in enumerate_norm_classes(field, m)])
    return _link_cells(field, sums, range(1, nmax + 1), ms)


def _link_cells(field: FieldData, sums: dict, ns, ms) -> dict:
    """Lk(C_n, C_m) for n in ns and m in ms, keyed (n, m) in that order, from
    sums, the rep sums S_k = (sum of a, sum of b) of each norm k in ns and ms
    that has classes; a norm without a key has none, and S_k = 0.

    The component-pair double sum of 2 * min'(mu) * min'(nu) * <g Jmu, Jnu>
    (tests/oracles.link_boundary, with g division by eps - 1) is bilinear and
    multiplicity * fiber label is the class rep, so
    Lk(n, m) = 2*<S_n/(eps - 1), S_m> with S_k the sum of the reduced norm-k
    reps.  With S_n*(eps - 1)' = p + q*w and S_m = a + b*w the cell is
    2*(q*a - p*b)/N(eps - 1), all integers.

    A norm without classes zeroes its whole row and column, so the cells are
    assembled row by row from one all-zero template row: a row without classes
    is the template itself, and a row with classes is a copy of it with only
    the columns of norms with classes filled in.  Every cell has the
    denominator n_det, so its numerator fixes its value, and each distinct
    value is built once per call.  The keys come from itertools.product and
    the values from the chained rows, so the dict is built in one pass.
    """
    (g00, g01), (g10, g11) = field.gluing
    n_det = field.n_det
    zero = Fraction(0, n_det)
    template = [zero] * len(ms)
    values = {0: zero}
    # the columns that can be nonzero, by their index in ms, with 2*S_m
    cols = [(j, 2 * sums[m][0], 2 * sums[m][1]) for j, m in enumerate(ms) if m in sums]
    rows = []
    for n in ns:
        if n not in sums:
            rows.append(template)
            continue
        x0, x1 = sums[n]
        p, q = g00 * x0 + g01 * x1 - x0, g10 * x0 + g11 * x1 - x1  # (gluing - I) S_n
        row = template.copy()
        for j, a2, b2 in cols:
            num = q * a2 - p * b2
            value = values.get(num)
            if value is None:
                value = values[num] = Fraction(num, n_det)
            row[j] = value
        rows.append(row)
    return dict(zip(itertools.product(ns, ms), itertools.chain.from_iterable(rows)))


@functools.cache
def _check_norm_one(field: FieldData) -> None:
    """ConsistencyError when the field has no norm-1 class.  A pass is cached
    per field, so the n = 1 scan runs once, not on every closed-form call."""
    if not enumerate_norm_classes(field, 1):
        raise ConsistencyError("no norm-1 class; unit bookkeeping is broken")


def link_boundary_closed(field: FieldData, n) -> Fraction:
    """Closed form for m = 1: sum over reduced classes mu of the w-coordinate
    of X = (mu + mu'*eps)/(eps - 1), i.e. 2*X/sqrt(disc).

    On ints: Y = (mu + mu'*eps)*(eps - 1)' = p + q*w and X = Y/N(eps - 1), so
    the result is Fraction(sum of q, N(eps - 1)).  Each X must be a rational
    multiple of sqrt(disc); a nonzero trace 2p + s0*q raises ConsistencyError.
    The sum runs over the int rep coordinates of the norm's b-scan
    (qfield._norm_coords), so no element is built.
    """
    _check_norm_one(field)
    _check_index("norm", n)
    s0 = field.s0
    (g00, g01), (g10, g11) = field.gluing
    total = 0
    for a, b in _norm_coords(field, n):
        # mu*eps' = gluing (a, b), and mu'*eps is its conjugate, with w' = s0 - w
        e0, e1 = g00 * a + g01 * b, g10 * a + g11 * b
        x0, x1 = a + e0 + s0 * e1, b - e1  # mu + mu'*eps
        p, q = g00 * x0 + g01 * x1 - x0, g10 * x0 + g11 * x1 - x1  # Y, as (gluing - I)(x0, x1)
        if 2 * p + s0 * q:
            raise ConsistencyError(f"closed-form term for {QuadElem(field, a, b)!r} is not rational*sqrt(disc)")
        total += q
    return Fraction(total, field.n_det)


@dataclass(frozen=True)
class LinkTable:
    """Lk(C_n, C_m) over Q(sqrt(d)) for all n, m <= nmax, keyed (n, m) with n
    the outer index; n_det = 2 - Tr(eps) is the gluing's N_det."""

    d: int
    nmax: int
    n_det: int
    entries: dict  # (n, m) -> Fraction


def link_table(field: FieldData, nmax: int) -> LinkTable:
    """All pairwise boundary linking numbers for n, m <= nmax."""
    _check_index("nmax", nmax)
    entries = _link_numbers(field, nmax, range(1, nmax + 1))
    return LinkTable(d=field.d, nmax=nmax, n_det=field.n_det, entries=entries)
