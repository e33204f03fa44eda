"""Boundary circles of norm-n cycles and their pairwise linking numbers.

The boundary of the norm-n cycle family meets the cusp cross-section in one
circle family per class of totally positive integers of norm n.  The circle of
class mu runs min' = gcd-many times parallel along the line R*mu, and two
families link inside the Sol cross-section, where the gluing is multiplication
by the conjugate totally positive fundamental unit.  The symplectic form is
<x, y> = (x*y' - x'*y)/sqrt(disc), exact and rational on field elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, InputError
from .qfield import FieldData, NormClass, QuadElem, enumerate_norm_classes
from . import sol as _sol


def symplectic_pairing(x: QuadElem, y: QuadElem) -> Fraction:
    """<x, y> = (x*y' - x'*y)/sqrt(disc), the w-coordinate of x*y'."""
    if x.field != y.field:
        raise InputError("pairing requires elements of one field")
    return (x * y.conj()).b


def multiplicity(x: QuadElem) -> int:
    """min over nonzero lattice pairings |<lambda, x>|: gcd(<1, x>, <w, x>) =
    gcd(-b, a) for x = a + b*w, the content of x."""
    return x.content()


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
        a, b = cls.rep.a.numerator, cls.rep.b.numerator
        mult = math.gcd(a, b)  # the content of the integral rep
        a, b = a // mult, b // mult
        # a + b*w is totally positive iff its trace and its norm are positive
        if not (2 * a + s0 * b > 0 and a * a + s0 * a * b + n0 * b * b > 0):
            raise ConsistencyError("primitive direction escaped the lattice")
        out.append(BoundaryComponent(cls=cls, multiplicity=mult, fiber_label=field.element(a, b)))
    return out


@dataclass(frozen=True)
class WLattice:
    """Rank-2 lattice with an integral bilinear form, given by its Gram matrix."""

    gram: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def from_field(cls, field: FieldData) -> "WLattice":
        """Gram matrix of the trace pairing (x, y) = Tr(x*y') on basis (1, w)."""
        return cls(gram=((2, field.s0), (field.s0, 2 * field.n0)))


def _perp_from_gram(gram, x: tuple[int, int]) -> tuple[int, int]:
    gx = (gram[0][0] * x[0] + gram[0][1] * x[1], gram[1][0] * x[0] + gram[1][1] * x[1])
    cand = (-gx[1], gx[0])
    if cand == (0, 0):
        raise InputError("form is degenerate at x")
    g = math.gcd(cand[0], cand[1])
    cand = (cand[0] // g, cand[1] // g)
    orient = x[0] * cand[1] - x[1] * cand[0]
    if orient == 0:
        raise InputError("x is isotropic; its perp line is its own span")
    return cand if orient > 0 else (-cand[0], -cand[1])


def j_perp(field_or_lattice, x):
    """Primitive lattice vector orthogonal to x for the quadratic form,
    oriented so that (x, Jx) is a positive basis.

    Accepts a FieldData with a QuadElem (trace pairing on (1, w)) or a
    WLattice with integer coordinates.
    """
    if isinstance(field_or_lattice, FieldData):
        field = field_or_lattice
        if not isinstance(x, QuadElem) or x.field != field:
            raise InputError("expected an element of the given field")
        if not x.is_integral() or (x.a == 0 and x.b == 0):
            raise InputError("j_perp requires a nonzero integral element")
        lat = WLattice.from_field(field)
        coords = _perp_from_gram(lat.gram, (int(x.a), int(x.b)))
        return field.element(coords[0], coords[1])
    if isinstance(field_or_lattice, WLattice):
        x = (int(x[0]), int(x[1]))
        if x == (0, 0):
            raise InputError("j_perp requires a nonzero vector")
        return _perp_from_gram(field_or_lattice.gram, x)
    raise InputError(f"expected FieldData or WLattice, got {type(field_or_lattice)!r}")


def fiber_coords(x: QuadElem) -> tuple[int, int]:
    """Coordinates of a field element as a fiber homology class.

    The dictionary (a + b*w) -> (b, a) turns the symplectic pairing into the
    standard oriented-area pairing on Z^2, so sol.link_fiber applies verbatim
    to classes written this way (with the gluing conjugated by the same swap).
    """
    if not x.is_integral():
        raise InputError("fiber classes must be integral")
    return (int(x.b), int(x.a))


def link_boundary(field: FieldData, n, m) -> Fraction:
    """Linking number of the norm-n and norm-m boundary families.

    Double sum of min'(mu) * min'(nu) * <g Jmu, Jnu> over component pairs,
    with J the primitive totally positive direction, g division by (eps - 1),
    and a global factor 2 for the two signs of each class.  Same-fiber pairs
    (proportional classes) inherit the positive push-off convention of
    sol.link_fiber.  This is the reference route; tables use _link_numbers.
    """
    comps_n, comps_m = boundary_components(field, n), boundary_components(field, m)
    gm1 = field.eps - 1  # g acts on classes as division by (eps - 1)
    total = Fraction(0)
    for cn in comps_n:
        g_dir = cn.fiber_label / gm1
        for cm in comps_m:
            term = symplectic_pairing(g_dir, cm.fiber_label)
            total += 2 * cn.multiplicity * cm.multiplicity * term
    return total


def _link_numbers(field: FieldData, ns, ms) -> dict:
    """Lk(C_n, C_m) for n in ns and m in ms (both ascending), keyed (n, m) in
    that order.

    The double sum of link_boundary is bilinear and multiplicity * fiber label
    is the class rep, so Lk(n, m) = 2*<S_n/(eps - 1), S_m> with S_k the sum of
    the reduced norm-k reps.  With S_n*(eps - 1)' = p + q*w and S_m = a + b*w
    the cell is 2*(q*a - p*b)/N(eps - 1), all integers.
    """
    comps = {k: boundary_components(field, k) for k in sorted({*ns, *ms})}
    return _link_cells(field, comps, ns, ms)


def _link_cells(field: FieldData, comps: dict, ns, ms) -> dict:
    """_link_numbers from comps, the boundary components of every norm in ns
    and ms, for callers that need the components themselves as well."""
    coords = {}
    for k, cs in comps.items():
        reps = [c.cls.rep for c in cs]
        coords[k] = (sum(r.a.numerator for r in reps), sum(r.b.numerator for r in reps))
    gm1 = field.eps - 1
    den = int(gm1.norm())
    # (eps - 1)' = g_a + g_b*w; w^2 = s0*w - n0
    gc = gm1.conj()
    g_a, g_b, s0, n0 = int(gc.a), int(gc.b), field.s0, field.n0
    out = {}
    for n in ns:
        x_a, x_b = coords[n]
        p, q = x_a * g_a - x_b * g_b * n0, x_a * g_b + x_b * g_a + x_b * g_b * s0
        for m in ms:
            a, b = coords[m]
            out[n, m] = Fraction(2 * (q * a - p * b), den)
    return out


def link_boundary_closed(field: FieldData, n) -> Fraction:
    """Closed form for m = 1: sum over reduced classes mu of the w-coordinate
    of X = (mu + mu'*eps)/(eps - 1), i.e. 2*X/sqrt(disc).

    Each X must be a rational multiple of sqrt(disc); a nonzero trace raises
    ConsistencyError.
    """
    if not enumerate_norm_classes(field, 1):
        raise ConsistencyError("no norm-1 class; unit bookkeeping is broken")
    eps = field.eps
    total = Fraction(0)
    for cls in enumerate_norm_classes(field, n):
        x = (cls.rep + cls.rep.conj() * eps) / (eps - 1)
        if x.trace() != 0:
            raise ConsistencyError(f"closed-form term for {cls.rep!r} is not rational*sqrt(disc)")
        total += x.b
    return total


@dataclass(frozen=True)
class LinkTable:
    d: int
    nmax: int
    n_det: int
    entries: dict  # (n, m) -> Fraction


def link_table(field: FieldData, nmax: int) -> LinkTable:
    """All pairwise boundary linking numbers for n, m <= nmax."""
    if nmax < 1:
        raise InputError(f"nmax must be >= 1, got {nmax}")
    ks = range(1, nmax + 1)
    n_det = _sol.glueing_from_unit(field).n_det
    return LinkTable(d=field.d, nmax=nmax, n_det=n_det, entries=_link_numbers(field, ks, ks))
