"""Boundary circles of special cycles and their pairwise linking numbers."""

from fractions import Fraction

import pytest

from sollink import (
    ConsistencyError,
    InputError,
    WLattice,
    boundary_components,
    fiber_coords,
    glueing_from_unit,
    j_perp,
    link_boundary,
    link_boundary_closed,
    link_fiber,
    link_table,
    make_sol,
    multiplicity,
    symplectic_pairing,
)
from conftest import field
from oracles import enumerate_norm_classes_reference


def test_multiplicity(field5):
    assert multiplicity(field5.one) == 1
    assert multiplicity(field5.element(2, 0)) == 2
    assert multiplicity(field5.element(2, 1)) == 1
    assert multiplicity(field5.element(4, 6)) == 2
    with pytest.raises(InputError):
        multiplicity(field5.element(Fraction(1, 2), 0))
    with pytest.raises(InputError):
        multiplicity(field5.element(0, 0))


def test_boundary_components_d5(field5):
    (c1,) = boundary_components(field5, 1)
    assert (c1.cls.rep.a, c1.cls.rep.b) == (1, 0)
    assert c1.multiplicity == 1 and c1.fiber_label == field5.one

    (c4,) = boundary_components(field5, 4)
    assert (c4.cls.rep.a, c4.cls.rep.b) == (2, 0)
    assert c4.multiplicity == 2 and c4.fiber_label == field5.one

    (c5,) = boundary_components(field5, 5)
    assert (c5.cls.rep.a, c5.cls.rep.b) == (2, 1)
    assert c5.multiplicity == 1 and c5.fiber_label == field5.element(2, 1)

    assert boundary_components(field5, 2) == []
    # the n=1 and n=4 circles run along the same fiber, n=5 does not
    assert c1.fiber_label == c4.fiber_label != c5.fiber_label


@pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 21, 46])
def test_boundary_components_match_fraction_route(d):
    # multiplicity is the content of the rep, the fiber label the rep over it
    f = field(d)
    for n in range(1, 31):
        comps = boundary_components(f, n)
        assert [c.cls for c in comps] == enumerate_norm_classes_reference(f, n)
        for c in comps:
            rep = c.cls.rep
            mult = rep.content()
            assert c.multiplicity == mult
            assert c.fiber_label == f.element(rep.a / mult, rep.b / mult)
            assert c.fiber_label.is_integral() and c.fiber_label.is_totally_positive()


def test_symplectic_pairing(field5):
    w = field5.omega
    assert symplectic_pairing(field5.one, w) == -1
    assert symplectic_pairing(w, field5.one) == 1
    assert symplectic_pairing(w, w) == 0
    x = field5.element(3, 2)
    y = field5.element(-1, 5)
    assert symplectic_pairing(x, y) == 2 * (-1) - 3 * 5  # b*c - a*d
    assert symplectic_pairing(x, y) == -symplectic_pairing(y, x)
    with pytest.raises(InputError):
        symplectic_pairing(x, field(13).one)


def test_j_perp_w_model():
    lat = WLattice(gram=((1, 0), (0, -1)))
    assert j_perp(lat, (1, 0)) == (0, 1)
    assert j_perp(lat, (2, 0)) == (0, 1)
    assert j_perp(lat, (0, 1)) == (-1, 0)
    assert j_perp(lat, (3, -2)) == (-2, 3)
    with pytest.raises(InputError):
        j_perp(lat, (1, 1))  # isotropic
    with pytest.raises(InputError):
        j_perp(WLattice(gram=((0, 1), (1, 0))), (1, 0))
    with pytest.raises(InputError):
        j_perp(lat, (0, 0))


def test_j_perp_field_gram(field5):
    lat = WLattice.from_field(field5)
    assert lat.gram == ((2, 1), (1, -2))
    # orthogonal, opposite norm sign (signature (1,1)), positive orientation
    for x in [(1, 0), (0, 1), (2, 1), (1, -3)]:
        y = j_perp(lat, x)
        g = lat.gram
        pair = sum(g[i][j] * x[i] * y[j] for i in range(2) for j in range(2))
        qx = sum(g[i][j] * x[i] * x[j] for i in range(2) for j in range(2))
        qy = sum(g[i][j] * y[i] * y[j] for i in range(2) for j in range(2))
        assert pair == 0
        assert (qx > 0) == (qy < 0)
        assert x[0] * y[1] - x[1] * y[0] > 0


def test_j_perp_k_model(field5):
    # on the field itself, j is multiplication by +-sqrt(disc) (primitive
    # part); the sign tracks the sign of the norm of x
    y = j_perp(field5, field5.one)
    assert y == field5.element(-1, 2)  # -1 + 2w = sqrt(5)
    assert y * y == 5
    assert j_perp(field5, field5.omega) == -(field5.omega * y)  # norm(w) < 0
    assert j_perp(field5, field5.element(2, 1)) == field5.omega  # sqrt(5)*(2+w) = 5w


def test_fiber_coords(field5):
    w = field5.omega
    assert fiber_coords(field5.one) == (0, 1)
    assert fiber_coords(w) == (1, 0)
    assert fiber_coords(field5.element(2, 3)) == (3, 2)
    with pytest.raises(InputError):
        fiber_coords(field5.element(Fraction(1, 2), 1))
    x, y = field5.element(3, 1), field5.element(-2, 5)
    (xb, xa), (yb, ya) = fiber_coords(x), fiber_coords(y)
    assert symplectic_pairing(x, y) == xb * ya - xa * yb


FROZEN_D5 = {(1, 1): 2, (4, 1): 4, (5, 1): 4, (2, 1): 0}


def test_link_boundary_frozen_values(field5, field13):
    for (n, m), value in FROZEN_D5.items():
        assert link_boundary(field5, n, m) == value
    assert link_boundary(field13, 1, 1) == Fraction(2, 3)
    assert link_boundary(field(17), 1, 1) == Fraction(1, 2)


def test_link_boundary_closed_matches(field5, field13):
    for f in (field5, field13):
        for n in range(1, 16):
            assert link_boundary_closed(f, n) == link_boundary(f, n, 1)


def test_link_boundary_empty_cycle(field5):
    assert link_boundary(field5, 2, 1) == 0
    assert link_boundary(field5, 1, 3) == 0
    assert link_boundary_closed(field5, 7) == 0


def test_link_boundary_rejects(field5):
    with pytest.raises(InputError):
        link_boundary(field5, 0, 1)
    with pytest.raises(InputError):
        link_boundary(field5, 1, -2)
    with pytest.raises(InputError):
        link_boundary_closed(field5, 0)


def test_table_not_symmetric(field13):
    assert link_boundary(field13, 1, 3) == Fraction(22, 3)
    assert link_boundary(field13, 3, 1) == Fraction(4, 3)


def test_denominators_divide_n_det(field13):
    t = link_table(field13, 8)
    assert t.n_det == -9
    for value in t.entries.values():
        assert (t.n_det * value).denominator == 1


@pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 21])
def test_link_table_matches_pointwise(d):
    f = field(d)
    t = link_table(f, 12)
    assert t.d == d and t.nmax == 12
    assert set(t.entries) == {(n, m) for n in range(1, 13) for m in range(1, 13)}
    for (n, m), value in t.entries.items():
        assert value == link_boundary(f, n, m)


def test_matches_sol_model(field5):
    # dividing by eps - 1 in the field and pairing symplectically agrees with
    # the torus-bundle computation once classes are written in fiber coords
    fld = field5
    m = glueing_from_unit(fld)
    swapped = make_sol(((m.f[1][1], m.f[1][0]), (m.f[0][1], m.f[0][0])))
    g1 = fld.eps - 1
    for xa, xb, ya, yb in [(1, 0, 0, 1), (2, 1, 1, 0), (3, -1, 2, 5), (1, 1, 1, 1)]:
        x, y = fld.element(xa, xb), fld.element(ya, yb)
        direct = symplectic_pairing(x / g1, y)
        assert link_fiber(swapped, fiber_coords(x), fiber_coords(y)) == direct
