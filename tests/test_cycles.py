"""Boundary circles of special cycles and their pairwise linking numbers."""

import cmath
import math
import time
from fractions import Fraction
from types import SimpleNamespace

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
from sollink import cycles
from conftest import field
from oracles import (
    HZ_MODULAR_REL_BOUND,
    enumerate_norm_classes_reference,
    gamma0_grid,
    hurwitz_class_number,
    hz_series,
    kronecker,
    link_boundary,
    link_boundary_closed_reference,
    link_table_reference,
    symplectic_pairing,
)


def test_boundary_components_d5(field5):
    (c1,) = boundary_components(field5, 1)
    assert (c1.cls.rep.a, c1.cls.rep.b) == (1, 0)
    assert c1.multiplicity == 1 and c1.fiber_label == field5.element(1)

    (c4,) = boundary_components(field5, 4)
    assert (c4.cls.rep.a, c4.cls.rep.b) == (2, 0)
    assert c4.multiplicity == 2 and c4.fiber_label == field5.element(1)

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
            mult = math.gcd(rep.a, rep.b)
            assert c.multiplicity == mult
            assert c.fiber_label == f.element(rep.a // mult, rep.b // mult) == rep / mult
            assert c.fiber_label.is_totally_positive()


@pytest.mark.parametrize("d", [2, 5, 13, 17, 94])
def test_reps_and_fiber_labels_match_the_public_constructor(d):
    # the library builds these elements without element()'s checks
    f = field(d)
    for n in range(1, 31):
        for c in boundary_components(f, n):
            for x in (c.cls.rep, c.fiber_label):
                assert type(x.a) is int and type(x.b) is int
                built = f.element(x.a, x.b)
                assert x == built and repr(x) == repr(built) and hash(x) == hash(built)


def test_symplectic_pairing(field5):
    w = field5.omega
    one = field5.element(1)
    assert symplectic_pairing(one, w) == -1
    assert symplectic_pairing(w, one) == 1
    assert symplectic_pairing(w, w) == 0
    x = field5.element(3, 2)
    y = field5.element(-1, 5)
    assert symplectic_pairing(x, y) == 2 * (-1) - 3 * 5  # b*c - a*d
    assert symplectic_pairing(x, y) == -symplectic_pairing(y, x)
    with pytest.raises(InputError):
        symplectic_pairing(x, field(13).element(1))


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


@pytest.mark.parametrize("d, nmax", [(2, 60), (3, 60), (5, 60), (13, 60), (17, 60), (21, 60), (46, 60), (94, 6)])
def test_link_boundary_closed_matches_reference(d, nmax):
    # the int closed form against one QuadElem division per class
    f = field(d)
    for n in range(1, nmax + 1):
        value = link_boundary_closed(f, n)
        assert type(value) is Fraction
        assert value == link_boundary_closed_reference(f, n), (d, n)


def test_hurwitz_class_numbers_and_kronecker():
    known = {0: Fraction(-1, 12), 1: 0, 2: 0, 3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
             12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 20: 2, 23: 3, 24: 2, 27: Fraction(4, 3), 28: 2}
    assert {N: hurwitz_class_number(N) for N in known} == known
    # (D/p) for an odd prime p is Euler's criterion D^((p-1)/2) mod p
    for D in (5, 8, 13, 17):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            euler = pow(D, (p - 1) // 2, p)
            assert kronecker(D, p) == {0: 0, 1: 1, p - 1: -1}[euler]
        assert kronecker(D, 2) == (0 if D % 2 == 0 else 1 if D % 8 in (1, 7) else -1)


# D = disc, its field's d, and c_D = 72*zeta_K(-1)
HZ_CASES = [(5, 5, Fraction(12, 5)), (8, 2, Fraction(6)), (13, 13, Fraction(12)), (17, 17, Fraction(24))]


@pytest.mark.parametrize("D, d, c_D", HZ_CASES, ids=[f"D={c[0]}" for c in HZ_CASES])
def test_closed_form_satisfies_hirzebruch_zagier(D, d, c_D):
    # H_D(4n) + Lk(n, 1)/2 is the n-th coefficient of the weight-2 Eisenstein
    # series for Gamma0(D) with character chi_D: an oracle with no unit and no
    # norm-class enumeration (Hirzebruch-Zagier, Invent. Math. 36, 1976)
    f = field(d)
    assert f.disc == D
    for n in range(1, 201):
        h_d = sum(
            hurwitz_class_number((4 * n - x * x) // D)
            for x in range(-2 * n, 2 * n + 1)
            if x * x <= 4 * n and (4 * n - x * x) % D == 0
        )
        divisors = [k for k in range(1, n + 1) if n % k == 0]
        eisenstein = sum(k * (kronecker(D, k) + kronecker(D, n // k)) for k in divisors)
        assert h_d + link_boundary_closed(f, n) / 2 == eisenstein / c_D, n


@pytest.mark.parametrize("d", [2, 3, 5, 13, 29])
def test_hirzebruch_zagier_series_is_modular(d):
    # F_D = -1/12 + sum (H_D(4n) + Lk(n, 1)/2) q^n is a weight-2 form for
    # Gamma0(D) with character chi_D: F(g tau) = chi_D(d_g) (c tau + d_g)^2 F(tau).
    # tau = -d_g/c + 0.017 + i/|c| keeps Im tau and Im g tau near 1/|c|,
    # where 500 terms leave a tail far below the bound
    f = field(d)
    D = f.disc
    coeffs = [float(c) for c in hz_series(f, 500).values()]

    def F(tau):
        return -1 / 12 + sum(c * cmath.exp(2j * math.pi * n * tau) for n, c in enumerate(coeffs, start=1))

    checked = 0
    for c in (D, -D, 2 * D):
        for d_g in (1, 2, 3, 7, -3):
            if math.gcd(c, d_g) != 1:
                continue
            a = pow(d_g, -1, abs(c))
            b = (a * d_g - 1) // c  # a*d_g - b*c = 1
            tau = complex(-d_g / c + 0.017, 1 / abs(c))
            lhs = F((a * tau + b) / (c * tau + d_g))
            rhs = kronecker(D, d_g % D) * (c * tau + d_g) ** 2 * F(tau)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs), (c, d_g, abs(lhs - rhs) / abs(lhs))
            checked += 1
    assert checked >= 6  # d = 3: only d_g = 1 and 7 are prime to 12 and 24


# class number 1, 2 (10, 15, 26, 30, 34, 35, 39, 42, 65) and 3 (79), with
# fundamental units of either norm; D = disc runs up to 316
HZ_MODULAR_FIELDS = [2, 5, 10, 14, 15, 19, 22, 23, 26, 30, 31, 34, 35, 39, 42, 65, 79]


@pytest.mark.parametrize("d", HZ_MODULAR_FIELDS)
def test_hirzebruch_zagier_series_is_modular_at_many_fields(d):
    # the law of test_hirzebruch_zagier_series_is_modular on gamma0_grid,
    # where Im tau and Im g tau are both about 1/|c| for c up to 2D, so
    # 12*D + 100 coefficients leave a tail far below the bound
    f = field(d)
    D = f.disc
    coeffs = [float(c) for c in hz_series(f, 12 * D + 100).values()]

    def F(tau):
        return -1 / 12 + sum(c * cmath.exp(2j * math.pi * n * tau) for n, c in enumerate(coeffs, start=1))

    grid = gamma0_grid(D)
    for (a, b, c, d_g), tau in grid:
        lhs = F((a * tau + b) / (c * tau + d_g))
        rhs = kronecker(D, d_g % D) * (c * tau + d_g) ** 2 * F(tau)
        assert abs(lhs - rhs) <= HZ_MODULAR_REL_BOUND * abs(lhs), (c, d_g, abs(lhs - rhs) / abs(lhs))
    assert len(grid) >= 3  # d = 42 (D = 168): only d_g = 1 is prime to c


def test_link_boundary_empty_cycle(field5):
    assert link_boundary(field5, 2, 1) == 0
    assert link_boundary(field5, 1, 3) == 0
    assert link_boundary_closed(field5, 7) == 0


def test_closed_form_rejects_a_field_without_norm_one_class(monkeypatch):
    # the norm-1 check is cached per field: clear it so it runs on the stub
    f = field(13)
    link_boundary_closed(f, 1)
    monkeypatch.setattr(cycles, "enumerate_norm_classes", lambda field, n: [])
    cycles._check_norm_one.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="no norm-1 class"):
            link_boundary_closed(f, 3)
    finally:
        cycles._check_norm_one.cache_clear()


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


@pytest.mark.parametrize("d", [5, 13, 17])
def test_link_table_cells(d):
    # the view computes a cell only where both norms have classes and shares
    # one Fraction per distinct value; each must still be the double sum, a
    # Fraction, and in row-major order, also where rows without classes
    # dominate (12 of the 40 rows at d = 5 have classes)
    f = field(d)
    t = link_table(f, 40)
    assert list(t.entries) == [(n, m) for n in range(1, 41) for m in range(1, 41)]
    for (n, m), value in t.entries.items():
        assert type(value) is Fraction
        assert value == link_boundary(f, n, m), (n, m)


@pytest.mark.parametrize("nmax", [1, 7, 30])
@pytest.mark.parametrize("d", [2, 5, 13, 94])
def test_link_table_entries_are_a_read_only_view(d, nmax):
    f = field(d)
    entries = link_table(f, nmax).entries
    assert len(entries) == nmax * nmax
    assert list(entries) == [(n, m) for n in range(1, nmax + 1) for m in range(1, nmax + 1)]
    for key in [(0, 1), (nmax + 1, 1), (1, nmax + 1), "1,1"]:
        assert key not in entries
        with pytest.raises(KeyError):
            entries[key]
    with pytest.raises(TypeError):
        entries[1, 1] = Fraction(0)
    shared = {}
    for value in entries.values():
        assert shared.setdefault(value, value) is value
    reference = link_table_reference(f, nmax)
    assert dict(entries) == reference
    assert entries == reference and reference == entries
    # items() and values() read row by row, in key order
    assert list(entries.items()) == list(reference.items())
    assert list(entries.values()) == list(reference.values())
    assert len(entries.items()) == len(entries.values()) == nmax * nmax
    assert ((1, 1), reference[1, 1]) in entries.items() and reference[1, 1] in entries.values()
    assert entries == link_table(f, nmax).entries and entries != link_table(f, nmax + 1).entries
    with pytest.raises(TypeError, match="_LinkCells"):
        hash(link_table(f, nmax))


def test_link_table_repr_is_the_dict_repr():
    assert repr(link_table(field(5), 3)) == (
        "LinkTable(d=5, nmax=3, n_det=-1, entries={(1, 1): Fraction(2, 1), (1, 2): Fraction(0, 1), "
        "(1, 3): Fraction(0, 1), (2, 1): Fraction(0, 1), (2, 2): Fraction(0, 1), (2, 3): Fraction(0, 1), "
        "(3, 1): Fraction(0, 1), (3, 2): Fraction(0, 1), (3, 3): Fraction(0, 1)})"
    )


def test_link_table_repr_summarises_a_large_view():
    f = field(5)
    assert repr(link_table(f, 100).entries) == repr(link_table_reference(f, 100))
    assert repr(link_table(f, 101).entries) == "<_LinkCells of 101 x 101 cells>"


def test_views_compare_as_their_cells():
    # between two views over the same keys and n_det == compares numerators;
    # it must agree with the dict equality of their cells
    f = field(13)
    ns = range(1, 6)
    sums = {1: (1, 0), 3: (4, -2), 4: (0, 3)}
    cases = [
        ({n: (-a, -b) for n, (a, b) in sums.items()}, True),  # S and -S give identical cells
        ({**sums, 5: (0, 0)}, True),  # a zero sum zeroes its row and column, as no key does
        ({**sums, 3: (4, -1)}, False),
        ({1: (1, 0)}, False),
    ]
    view = cycles._LinkCells(f, sums, ns, ns)
    for other_sums, equal in cases:
        other = cycles._LinkCells(f, other_sums, ns, ns)
        assert (view == other) is (other == view) is equal
        assert (dict(view.items()) == dict(other.items())) is equal
    # the same numerators over another denominator are other cells
    halved = cycles._LinkCells(SimpleNamespace(gluing=f.gluing, n_det=2 * f.n_det), sums, ns, ns)
    assert view != halved and dict(view.items()) != dict(halved.items())
    # other keys: the Mapping's comparison, never equal
    assert view != cycles._LinkCells(f, sums, ns, range(1, 5))
    assert view != cycles._LinkCells(f, sums, range(2, 6), ns)


def test_link_table_of_a_hundred_million_cells():
    # the view keeps two int pairs per norm with classes, not nmax^2 cells
    f = field(5)
    start = time.perf_counter()
    t = link_table(f, 10**4)
    assert time.perf_counter() - start < 0.5
    assert t.entries[9973, 1] == link_boundary_closed(f, 9973)


@pytest.mark.parametrize("bad", ["4", float("nan"), 2.5, Fraction(2), Fraction(1, 2)])
def test_norm_consumers_reject_inexact_norms(field5, bad):
    for call in (boundary_components, link_boundary_closed):
        with pytest.raises(InputError, match="^norm must be an int, got "):
            call(field5, bad)


@pytest.mark.parametrize("bad", [2.0, 1.5, True, "3", None])
def test_link_table_rejects_non_int_nmax(field5, bad):
    with pytest.raises(InputError, match="^nmax must be an int, got "):
        link_table(field5, bad)


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
        direct = Fraction(symplectic_pairing(x * g1.conj(), y), g1.norm())  # <x/g1, y>
        assert link_fiber(swapped, (xb, xa), (yb, ya)) == direct
