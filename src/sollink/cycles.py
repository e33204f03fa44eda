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
class reps, and one constructor builds them all: the read-only view
_LinkCells, which sums the reps of one sweep of a fundamental domain over the
norms 1..nmax (qfield._norm_reps), and those of a column m > nmax from that
norm's own b-scan (qfield._norm_coords).  The linking form has rank 2, so the
view keeps two int pairs per norm with classes and computes each cell when it
is read.  boundary_components runs the per-norm scan through
enumerate_norm_classes.  link_boundary_closed is the cell (n, 1) of one norm:
the same formula, with S_n from that norm's scan (_norm_coords) and S_1 = 1,
so no element is built.  The component-pair double sum the cells reduce to is
the test oracle tests/oracles.link_boundary, and the closed form summed class
by class is tests/oracles.link_boundary_closed_reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, _check_index, _is_int
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
    # a loop: two generator sums cost several times this on the few reps of a norm
    sa = sb = 0
    for a, b in reps:
        sa += a
        sb += b
    return sa, sb


class _LinkCells(Mapping):
    """Lk(C_n, C_m) for n = 1..nmax and m in ms (ascending), keyed (n, m)
    with n the outer index, read-only, computed on access from the rep sums
    of reps, the sweep of the norms 1..nmax (qfield._norm_reps when None),
    and of a column m > nmax from its own scan (qfield._norm_coords).

    The component-pair double sum of 2 * min'(mu) * min'(nu) * <g Jmu, Jnu>
    (tests/oracles.link_boundary, with g division by eps - 1) is bilinear and
    multiplicity * fiber label is the class rep, so
    Lk(n, m) = 2*<S_n/(eps - 1), S_m> with S_k the sum of the reduced norm-k
    reps.  With S_n*(eps - 1)' = p + q*w and S_m = a + b*w the cell is
    2*(q*a - p*b)/N(eps - 1), all integers.  The form has rank 2, so the view
    keeps (p, q) for each row norm with classes and 2*(a, b) for each such
    column norm: O(nmax) ints for nmax^2 cells.  A norm without classes zeroes
    its whole row and column.  Every cell has the denominator n_det, so its
    numerator fixes its value, and each distinct value is one Fraction per
    view.  Keys are pairs of ints.  Equality is the Mapping's, cell by cell:
    between two views over the same keys and n_det it compares numerators,
    row by row, and builds no Fraction.  items(), values() and so == with
    any other Mapping read the cells row by row.
    """

    __slots__ = ("_ns", "_ms", "_n_det", "_zero", "_values", "_rows", "_cols")

    def __init__(self, field: FieldData, nmax: int, ms, reps: dict | None = None):
        (g00, g01), (g10, g11) = field.gluing
        self._ns, self._ms, self._n_det = range(1, nmax + 1), ms, field.n_det
        self._zero = Fraction(0, field.n_det)
        self._values = {0: self._zero}  # numerator -> its shared Fraction
        # summed in one comprehension, so a sweep read here is freed before
        # the factors are built
        sums = {n: _rep_sum(group) for n, group in (_norm_reps(field, nmax) if reps is None else reps).items()}
        sums.update((m, _rep_sum(_norm_coords(field, m))) for m in ms if m > nmax)
        # (gluing - I) S_n per row norm, and (index in ms, 2*S_m) per column norm
        self._rows = {n: (g00 * a + g01 * b - a, g10 * a + g11 * b - b) for n, (a, b) in sums.items() if n <= nmax}
        self._cols = {m: (ms.index(m), 2 * a, 2 * b) for m, (a, b) in sums.items() if m in ms}

    def _value(self, num: int) -> Fraction:
        """The shared Fraction num/n_det."""
        value = self._values.get(num)
        if value is None:
            value = self._values[num] = Fraction(num, self._n_det)
        return value

    def _nums(self, n: int) -> list:
        """The numerators of the cells (n, m) for m in ms, in order, for a row n in 1..nmax."""
        nums = [0] * len(self._ms)
        row = self._rows.get(n)
        if row is not None:
            p, q = row
            for j, a2, b2 in self._cols.values():
                nums[j] = q * a2 - p * b2
        return nums

    def _row(self, n: int) -> list:
        """The cells (n, m) for m in ms, in order, for a row n in 1..nmax."""
        if n not in self._rows:
            return [self._zero] * len(self._ms)
        return list(map(self._value, self._nums(n)))

    def __getitem__(self, key) -> Fraction:
        try:
            n, m = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not (_is_int(n) and _is_int(m) and n in self._ns and m in self._ms):
            raise KeyError(key)
        row, col = self._rows.get(n), self._cols.get(m)
        if row is None or col is None:
            return self._zero
        (p, q), (_, a2, b2) = row, col
        return self._value(q * a2 - p * b2)

    def __eq__(self, other) -> bool:
        # Over the same keys and denominator, two cells are equal iff their
        # numerators are, so the rows compare as int lists.
        if isinstance(other, _LinkCells) and (self._ns, self._ms, self._n_det) == (other._ns, other._ms, other._n_det):
            return all(map(operator.eq, map(self._nums, self._ns), map(other._nums, other._ns)))
        return super().__eq__(other)

    def __iter__(self):
        return itertools.product(self._ns, self._ms)

    def __len__(self) -> int:
        return len(self._ns) * len(self._ms)

    def _cells(self):
        """Every cell in key order, one row at a time."""
        return itertools.chain.from_iterable(map(self._row, self._ns))

    def items(self) -> ItemsView:
        return _RowItems(self)

    def values(self) -> ValuesView:
        return _RowValues(self)

    def __repr__(self) -> str:
        if len(self) > _REPR_CELLS_MAX:
            return f"<{type(self).__name__} of {len(self._ns)} x {len(self._ms)} cells>"
        return repr(dict(self.items()))


# The largest view whose repr is the dict's; a larger one gives a summary,
# so a failing assertion or a log line does not build every cell.
_REPR_CELLS_MAX = 10**4


class _RowItems(ItemsView):
    """A _LinkCells' items, read one row at a time; Mapping.__eq__ and
    dict(view.items()) iterate these."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._cells())


class _RowValues(ValuesView):
    """A _LinkCells' values, read one row at a time."""

    __slots__ = ()

    def __iter__(self):
        return self._mapping._cells()


@functools.cache
def _check_norm_one(field: FieldData) -> None:
    """ConsistencyError when the field has no norm-1 class, whose rep is 1:
    this guards S_1 = 1, the one assumption of link_boundary_closed.  A pass
    is cached per field, so the n = 1 scan runs once, not on every call."""
    if not enumerate_norm_classes(field, 1):
        raise ConsistencyError("no norm-1 class; unit bookkeeping is broken")


def link_boundary_closed(field: FieldData, n) -> Fraction:
    """Lk(C_n, C_1) from the norm-n scan alone: the cell (n, 1) of _LinkCells.

    With S_1 = 1 the cell is 2*<S_n/(eps - 1), 1>, twice the w-coordinate of
    S_n*(eps - 1)' = (gluing - I) S_n over N(eps - 1).  S_n sums the int rep
    coordinates of the norm's b-scan (qfield._norm_coords), so no element is
    built.
    """
    _check_norm_one(field)
    _check_index("norm", n)
    _, (g10, g11) = field.gluing
    a, b = _rep_sum(_norm_coords(field, n))
    return Fraction(2 * (g10 * a + (g11 - 1) * b), field.n_det)


@dataclass(frozen=True)
class LinkTable:
    """Lk(C_n, C_m) over Q(sqrt(d)) for all n, m <= nmax, keyed (n, m) with n
    the outer index; n_det = 2 - Tr(eps) is the gluing's N_det.

    entries computes its nmax^2 cells when they are read, so link_table is
    cheap at any nmax but reading every cell is not.  items() and values()
    read a row at a time, so dict(entries.items()) is the fast copy;
    dict(entries) reads key by key.  == between two views over the same keys
    and n_det compares int numerators; against any other Mapping it reads
    every cell.  Its repr is the dict's up to 10^4 cells and a summary above.
    """

    d: int
    nmax: int
    n_det: int
    entries: Mapping  # (n, m) -> Fraction, a read-only view (_LinkCells)


def link_table(field: FieldData, nmax: int) -> LinkTable:
    """All pairwise boundary linking numbers for n, m <= nmax."""
    _check_index("nmax", nmax)
    entries = _LinkCells(field, nmax, range(1, nmax + 1))
    return LinkTable(d=field.d, nmax=nmax, n_det=field.n_det, entries=entries)
