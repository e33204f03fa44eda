"""Linking numbers of fiber circles in torus bundles with hyperbolic gluing.

The manifold is (R x T^2)/((s, w) ~ (s+1, f(w))) for f in SL(2,Z) with
|trace f| > 2.  A circle of integer class a in one fiber links a circle of
class b in another (or the same, pushed off in the positive s direction) by
<g a, b> with g = (f^{-1} - I)^{-1} and <x, y> = x1*y2 - x2*y1.  Since
det f = 1, g = (f - I)/(2 - tr f), so the manifold stores only f and the
integer N_det = 2 - tr f.  The cap construction and its fiber-crossing count
give an independent route to the same number and are used as the test oracle.
Caps are built on ints (only an offset may bring in a Fraction), and their
areas have closed forms: <offset, a> for the parallelogram, the integer
<gamma0, f^{-1} gamma0> for twice the triangle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConsistencyError, InputError

if TYPE_CHECKING:  # an annotation only: sol runs without loading qfield
    from .qfield import FieldData

Vec = tuple[int, int]
QVec = tuple[int | Fraction, int | Fraction]
IntMat = tuple[tuple[int, int], tuple[int, int]]


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_mul(m, n):
    return tuple((r[0] * n[0][0] + r[1] * n[1][0], r[0] * n[0][1] + r[1] * n[1][1]) for r in m)


def _sl2_inv(m):
    """Inverse of a determinant-1 matrix: its adjugate."""
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def _det2(u, v):
    """Oriented area pairing <u, v> = u1*v2 - u2*v1."""
    return u[0] * v[1] - u[1] * v[0]


def _primitive(v: Vec) -> tuple[Vec, int]:
    g = math.gcd(v[0], v[1])
    if g == 0:
        raise InputError("zero class has no primitive direction")
    return (v[0] // g, v[1] // g), g


def _int_pair(v, what: str, kinds=(int,)) -> Vec:
    """A class or a gluing row: exactly two entries, each of a type in kinds,
    so bool is not an int (errors._is_int, inlined for the Sol kernels' speed).
    An offset passes kinds=(int, Fraction)."""
    if not isinstance(v, (tuple, list)) or len(v) != 2 or not (type(v[0]) in kinds and type(v[1]) in kinds):
        raise InputError(f"{what} must be two {'integers' if len(kinds) == 1 else 'ints or Fractions'}, got {v!r}")
    return (v[0], v[1])


class SolManifold(NamedTuple):
    f: IntMat
    n_det: int  # det(f^{-1} - I) = 2 - trace(f)


def make_sol(f) -> SolManifold:
    """Validate the gluing matrix (integer, det 1, |trace| > 2) and set N_det."""
    if not isinstance(f, (tuple, list)) or len(f) != 2:
        raise InputError(f"gluing must be a 2x2 matrix, got {f!r}")
    (a, b), (c, d) = (_int_pair(row, "gluing row") for row in f)
    if a * d - b * c != 1:
        raise InputError(f"gluing matrix must have determinant 1, got {a * d - b * c}")
    tr = a + d
    if abs(tr) <= 2:
        raise InputError(f"gluing matrix must be hyperbolic (|trace| > 2), got trace {tr}")
    # det f = 1 gives adj(f^{-1} - I) = f - I and det(f^{-1} - I) = 2 - tr f,
    # so g = (f^{-1} - I)^{-1} = (f - I)/N_det with N_det = 2 - tr f
    return SolManifold(f=((a, b), (c, d)), n_det=2 - tr)


def _gamma0(m: SolManifold, a: Vec) -> Vec:
    """(f - I) a = N_det * g a, an integer pair."""
    fa = _mat_vec(m.f, a)
    return (fa[0] - a[0], fa[1] - a[1])


def glueing_from_unit(field: FieldData) -> SolManifold:
    """The field's cusp at infinity: multiplication by eps' on (1, w)."""
    return make_sol(field.gluing)


def link_fiber(m: SolManifold, a, b) -> Fraction:
    """Linking number of the class-a circle with the class-b circle, b pushed
    off in the positive s direction when the fibers coincide."""
    a, b = _int_pair(a, "class a"), _int_pair(b, "class b")
    return Fraction(_det2(_gamma0(m, a), b), m.n_det)


class CapChain(NamedTuple):
    """Weighted rational 2-chain with boundary a given fiber circle.

    Pieces: a parallelogram translating the offset circle to the origin
    (coefficient 1), a triangle (0, c2, f^{-1} c2) and a monodromy cylinder over
    gamma0, both with coefficient `weight` = 1/N_det, and `fiber_correction`
    copies of the full fiber torus killing the area-form period.
    """

    circle_class: Vec
    base_offset: QVec
    parallelogram: tuple[QVec, ...]  # vertex loop, empty for the zero class
    triangle: tuple[Vec, ...]  # (0, c2, f^{-1} c2), empty for the zero class
    monodromy_class: Vec
    weight: Fraction
    fiber_correction: Fraction
    f: IntMat  # the gluing the cap was built for


def _shoelace(vertices) -> Fraction:
    total = 0
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % len(vertices)]
        total += v[0] * w[1] - v[1] * w[0]
    return Fraction(total, 2)


def build_cap(m: SolManifold, a, offset=(0, 0)) -> CapChain:
    """Rational 2-chain whose boundary is the class-a circle through `offset`,
    normalized to have zero area-form period: fiber_correction is
    -(<offset, a> + <gamma0, f^{-1} gamma0>/(2*N_det)), one Fraction."""
    a = _int_pair(a, "class a")
    offset = _int_pair(offset, "offset", (int, Fraction))
    weight = Fraction(1, m.n_det)
    if a == (0, 0):  # no parallelogram, triangle or cylinder
        return CapChain(a, offset, (), (), (0, 0), weight, Fraction(0), m.f)
    gamma0 = _gamma0(m, a)
    d_vert = _mat_vec(_sl2_inv(m.f), gamma0)
    # oriented so the boundary is (circle through offset) - (circle through 0)
    quad = ((0, 0), offset, (offset[0] + a[0], offset[1] + a[1]), a)
    two_n = 2 * m.n_det
    return CapChain(
        circle_class=a,
        base_offset=offset,
        parallelogram=quad,
        triangle=((0, 0), gamma0, d_vert),
        monodromy_class=gamma0,
        weight=weight,
        fiber_correction=Fraction(-(two_n * _det2(offset, a) + _det2(gamma0, d_vert)), two_n),
        f=m.f,
    )


def area_period(cap: CapChain) -> Fraction:
    """Total signed area-form period of the chain; the monodromy cylinder has
    no fiber-area component and the full fiber torus has period 1."""
    return _shoelace(cap.parallelogram) + cap.weight * _shoelace(cap.triangle) + cap.fiber_correction


def _add_edge(acc: dict, start: QVec, end: QVec, coeff: Fraction) -> None:
    vx, vy = end[0] - start[0], end[1] - start[1]
    if vx == 0 and vy == 0:
        return
    if (vx, vy) < (0, 0):
        start, (vx, vy), coeff = end, (-vx, -vy), -coeff
    if vx.denominator == 1 and vy.denominator == 1:
        cls, mult = _primitive((int(vx), int(vy)))
        key = ("geo", (start[0] % 1, start[1] % 1), cls)
        coeff = coeff * mult
    else:
        key = ("seg", (start[0] % 1, start[1] % 1), (vx, vy))
    acc[key] = acc.get(key, Fraction(0)) + coeff
    if acc[key] == 0:
        del acc[key]


def boundary_cycle(cap: CapChain) -> dict:
    """Formal boundary of the cap as closed fiber geodesics.

    Returns {(basepoint mod Z^2, primitive class): rational multiplicity}.
    Open polygon edges must cancel in pairs; leftovers raise ConsistencyError.
    """
    acc: dict = {}
    for poly, coeff in ((cap.parallelogram, Fraction(1)), (cap.triangle, cap.weight)):
        for i, v in enumerate(poly):
            _add_edge(acc, v, poly[(i + 1) % len(poly)], coeff)
    if cap.monodromy_class != (0, 0):
        # boundary of the cylinder: f^{-1} gamma0 - gamma0, both through 0;
        # f^{-1} gamma0 is the triangle's last vertex
        _add_edge(acc, (0, 0), cap.triangle[2], cap.weight)
        _add_edge(acc, cap.monodromy_class, (0, 0), cap.weight)  # -gamma0
    leftovers = [k for k in acc if k[0] == "seg"]
    if leftovers:
        raise ConsistencyError(f"open boundary segments did not cancel: {leftovers}")
    return {(k[1], k[2]): v for k, v in acc.items()}


def expected_boundary(cap: CapChain) -> dict:
    """The boundary a correct cap must have: the input circle, once."""
    if cap.circle_class == (0, 0):
        return {}
    cls, mult = _primitive(cap.circle_class)
    coeff = Fraction(mult)
    if cls < (0, 0):
        cls, coeff = (-cls[0], -cls[1]), -coeff
    base = (cap.base_offset[0] % 1, cap.base_offset[1] % 1)
    return {(base, cls): coeff}


def cap_intersect(cap: CapChain, m: SolManifold, b, s_b) -> Fraction:
    """Signed count of the cap against a class-b circle in fiber s_b in (0,1).

    Only the monodromy cylinder meets interior fibers; its slice is the
    gamma0 geodesic, which crosses the b geodesic |det| times, each crossing
    contributing sgn(det), so the signed count is det itself.  Parallel
    classes (det 0) contribute nothing (a generic translate is disjoint).
    """
    if type(s_b) not in (int, Fraction):
        raise InputError(f"fiber parameter must be an int or a Fraction, got {s_b!r}")
    # an int or a Fraction has an int numerator and a positive int
    # denominator (1 for an int), so the range check runs on those ints
    if not 0 < s_b.numerator < s_b.denominator:
        raise InputError(f"fiber parameter must lie in (0, 1), got {s_b}")
    if cap.f != m.f:
        raise InputError("cap was built for a different manifold")
    b = _int_pair(b, "class b")
    if cap.monodromy_class == (0, 0) or b == (0, 0):
        return Fraction(0)
    u, cu = _primitive(cap.monodromy_class)
    v, cv = _primitive(b)
    # two primitive geodesics through 0 cross |det| times, each with sign sgn(det);
    # the cylinder's coefficient is the cap's weight 1/N_det
    return Fraction(cu * cv * _det2(u, v), m.n_det)
