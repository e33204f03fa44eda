"""Boundary circles of special cycles and their pairwise linking numbers."""

from fractions import Fraction

import pytest

from sollink import (
    ConsistencyError,
    InputError,
    boundary_components,
    glueing_from_unit,
    link_boundary_closed,
    link_fiber,
    link_table,
    make_sol,
)
from conftest import field
from oracles import enumerate_norm_classes_reference, link_boundary, symplectic_pairing


def test_multiplicity(field5):
    # a component's multiplicity is the content of its rep
    assert field5.one.content() == 1
    assert field5.element(2, 0).content() == 2
    assert field5.element(2, 1).content() == 1
    assert field5.element(4, 6).content() == 2
    with pytest.raises(InputError):
        field5.element(Fraction(1, 2), 0).content()
    with pytest.raises(InputError):
        field5.element(0, 0).content()


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
    # the torus-bundle computation once a + b*w is written as the fiber class
    # (b, a), which turns the pairing into the oriented area on Z^2 (the
    # gluing is conjugated by the same swap)
    fld = field5
    m = glueing_from_unit(fld)
    swapped = make_sol(((m.f[1][1], m.f[1][0]), (m.f[0][1], m.f[0][0])))
    g1 = fld.eps - 1
    for xa, xb, ya, yb in [(1, 0, 0, 1), (2, 1, 1, 0), (3, -1, 2, 5), (1, 1, 1, 1)]:
        x, y = fld.element(xa, xb), fld.element(ya, yb)
        direct = symplectic_pairing(x / g1, y)
        assert link_fiber(swapped, (xb, xa), (yb, ya)) == direct
