"""Fiber-circle linking in torus bundles: formula vs geometric oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sollink import (
    ConsistencyError,
    InputError,
    area_period,
    boundary_cycle,
    build_cap,
    cap_intersect,
    expected_boundary,
    glueing_from_unit,
    link_fiber,
    make_sol,
)
from sollink.selftest import _random_class, _random_hyperbolic
from conftest import field
from oracles import build_cap_reference, cap_intersect_reference

F_EXAMPLE = ((2, 1), (1, 1))


def test_example_gluing_data():
    m = make_sol(F_EXAMPLE)
    assert m.n_det == -1
    # Lk(a, b) = <g a, b> = (g a)_1 b_2 - (g a)_2 b_1 reads off the columns of g
    columns = [(link_fiber(m, e, (0, 1)), -link_fiber(m, e, (1, 0))) for e in ((1, 0), (0, 1))]
    assert tuple(zip(*columns)) == ((-1, -1), (-1, 0))


def test_example_linking_values():
    m = make_sol(F_EXAMPLE)
    assert link_fiber(m, (1, 0), (0, 1)) == -1
    assert link_fiber(m, (1, 0), (1, 0)) == 1  # positive push-off self-linking
    assert link_fiber(m, (0, 1), (1, 0)) == 0
    assert link_fiber(m, (0, 0), (3, 4)) == 0


def test_gluing_from_unit_d5():
    m = glueing_from_unit(field(5))
    assert m.f == ((2, -1), (-1, 1))  # multiplication by eps' on (1, w)
    assert m.f[0][0] + m.f[1][1] == field(5).eps.trace()
    assert m.n_det == -1


def test_gluing_from_unit_trace(field13):
    m = glueing_from_unit(field13)
    assert m.f[0][0] + m.f[1][1] == field13.eps.trace() == 11
    assert m.n_det == -9


@pytest.mark.parametrize(
    "bad",
    [
        ((1, 0), (0, 1)),  # trace 2
        ((1, 1), (0, 1)),  # parabolic
        ((2, 0), (0, 1)),  # det 2
        ((0, -1), (1, 0)),  # trace 0
        ((2, 1), (1.0, 1)),  # non-integer entry
        ((1, 2, 3), (4, 5, 6)),  # shape
        ((2, 1),),  # one row
        5,  # not a matrix
        ((2, 1), (1, 1), (0, 1)),  # three rows
    ],
)
def test_make_sol_rejects(bad):
    two_rows = isinstance(bad, tuple) and len(bad) == 2
    with pytest.raises(InputError, match=None if two_rows else "gluing must be a 2x2 matrix"):
        make_sol(bad)


@pytest.mark.parametrize(
    "bad",
    [
        (1.5, 0),
        (1.0, 0),
        (Fraction(3, 2), 0),
        (Fraction(2), 0),
        (1, 0, 0),
        (1,),
        5,
    ],
    ids=["float", "integral-float", "fraction", "integral-fraction", "three-entries", "one-entry", "scalar"],
)
def test_sol_classes_must_be_int_pairs(bad):
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (1, 0))
    with pytest.raises(InputError):
        link_fiber(m, bad, (0, 1))
    with pytest.raises(InputError):
        link_fiber(m, (0, 1), bad)
    with pytest.raises(InputError):
        build_cap(m, bad)
    with pytest.raises(InputError):
        cap_intersect(cap, m, bad, Fraction(1, 3))


@pytest.mark.parametrize(
    "bad",
    [(1, 2, 3), (1,), 5, None, ("x", 0), (0.1, 0), (Fraction(1, 2), 1.0), {0: 1, 1: 2}],
    ids=["three-entries", "one-entry", "scalar", "none", "string", "float", "fraction-and-float", "dict"],
)
def test_build_cap_rejects_malformed_offset(bad):
    m = make_sol(F_EXAMPLE)
    with pytest.raises(InputError, match="offset must be two ints or Fractions"):
        build_cap(m, (1, 0), offset=bad)
    with pytest.raises(InputError):
        build_cap(m, (0, 0), offset=bad)


def test_cap_matches_fraction_reference():
    # fields against Fraction vertices and shoelace areas, the crossing count
    # against the lattice points of the half-open parallelogram
    rng = random.Random(31)
    for i in range(300):
        m = _random_hyperbolic(rng)
        a = (0, 0) if i % 25 == 0 else _random_class(rng, -7, 7)
        off = (Fraction(rng.randint(-9, 9), rng.randint(1, 8)), Fraction(rng.randint(-9, 9), rng.randint(1, 8)))
        if i % 3 == 0:
            off = (rng.randint(-3, 3), rng.randint(-3, 3))
        cap, ref = build_cap(m, a, off), build_cap_reference(m, a, off)
        assert cap == ref, (m.f, a, off)
        assert type(cap.fiber_correction) is Fraction
        b = _random_class(rng, -7, 7)
        counted = cap_intersect(cap, m, b, Fraction(1, 3))
        assert type(counted) is Fraction
        assert counted == cap_intersect_reference(ref, b) == link_fiber(m, a, b), (m.f, a, b)


def test_cap_example_structure():
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (1, 0))
    assert cap.monodromy_class == (1, 1)  # N * g * (1,0) = -(-1,-1)
    assert cap.weight == -1
    assert area_period(cap) == 0
    assert boundary_cycle(cap) == expected_boundary(cap)
    assert expected_boundary(cap) == {(((Fraction(0), Fraction(0))), (1, 0)): 1}


def test_cap_with_offset_and_content():
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (2, 4), offset=(Fraction(1, 4), Fraction(1, 2)))
    assert area_period(cap) == 0
    bd = boundary_cycle(cap)
    assert bd == expected_boundary(cap)
    ((base, cls),) = bd
    assert base == (Fraction(1, 4), Fraction(1, 2))
    assert cls == (1, 2) and bd[(base, cls)] == 2  # content-2 class


def test_cap_zero_class():
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (0, 0))
    assert boundary_cycle(cap) == {} == expected_boundary(cap)
    assert area_period(cap) == 0
    assert cap_intersect(cap, m, (1, 0), Fraction(1, 2)) == 0


def test_cap_intersect_hand_count():
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (1, 0))
    # cylinder slice is the (1,1) geodesic with coefficient -1; one transverse
    # crossing with (0,1) of sign +1
    assert cap_intersect(cap, m, (0, 1), Fraction(1, 3)) == -1
    assert cap_intersect(cap, m, (1, 1), Fraction(1, 3)) == 0  # parallel
    assert cap_intersect(cap, m, (2, 2), Fraction(2, 3)) == 0


def test_cap_intersect_validation():
    m = make_sol(F_EXAMPLE)
    cap = build_cap(m, (1, 0))
    # the range check reads a Fraction's numerator and denominator, and
    # Fraction(1) has denominator 1
    for bad_s in (0, 1, Fraction(3, 2), -1, Fraction(0), Fraction(1), Fraction(-1, 3)):
        with pytest.raises(InputError):
            cap_intersect(cap, m, (0, 1), bad_s)
    # the offset rule of build_cap: an int or a Fraction, nothing that converts
    for bad_s in ("1/3", float("nan"), float("inf"), None, 0.5, True):
        with pytest.raises(InputError, match="fiber parameter must be an int or a Fraction"):
            cap_intersect(cap, m, (0, 1), bad_s)
    other = make_sol(((3, 1), (2, 1)))  # different N_det
    with pytest.raises(InputError):
        cap_intersect(cap, other, (0, 1), Fraction(1, 2))
    # same N_det = -1, different gluing: Lk = 0 there, so a wrong answer would be -1
    f1, f2 = make_sol(((2, 1), (1, 1))), make_sol(((1, 1), (1, 2)))
    assert f1.n_det == f2.n_det and link_fiber(f2, (1, 0), (0, 1)) == 0
    with pytest.raises(InputError, match="different manifold"):
        cap_intersect(build_cap(f1, (1, 0)), f2, (0, 1), Fraction(1, 3))
    with pytest.raises(InputError, match="different manifold"):
        cap_intersect(build_cap(f1, (0, 0)), f2, (0, 1), Fraction(1, 3))


def test_oracle_equivalence_random():
    rng = random.Random(20240817)
    for _ in range(40):
        m = _random_hyperbolic(rng)
        a, b = _random_class(rng), _random_class(rng)
        cap = build_cap(m, a)
        assert cap_intersect(cap, m, b, Fraction(1, 7)) == link_fiber(m, a, b)


def test_linking_denominator_divides_n_det():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_hyperbolic(rng)
        a, b = _random_class(rng), _random_class(rng)
        assert (m.n_det * link_fiber(m, a, b)).denominator == 1


def test_asymmetry_identity_example():
    # <g a, b> + <a, g b> = (tr f - 2) <g a, g b>
    m = make_sol(F_EXAMPLE)
    assert link_fiber(m, (1, 0), (0, 1)) - link_fiber(m, (0, 1), (1, 0)) == (3 - 2) * Fraction(-1)


vec = st.tuples(st.integers(min_value=-10, max_value=10), st.integers(min_value=-10, max_value=10))


@given(st.integers(min_value=0, max_value=2**32 - 1), vec, vec, vec)
@settings(max_examples=60, deadline=None)
def test_link_is_bilinear(seed, a, b, c):
    m = _random_hyperbolic(random.Random(seed))
    left = link_fiber(m, a, (b[0] + c[0], b[1] + c[1]))
    assert left == link_fiber(m, a, b) + link_fiber(m, a, c)


@given(st.integers(min_value=0, max_value=2**32 - 1), vec, vec)
@settings(max_examples=40, deadline=None)
def test_cap_closure_property(seed, a, off):
    if a == (0, 0):
        return
    m = _random_hyperbolic(random.Random(seed))
    cap = build_cap(m, a, offset=(Fraction(off[0], 7), Fraction(off[1], 7)))
    assert area_period(cap) == 0
    assert boundary_cycle(cap) == expected_boundary(cap)


# Records as they read at the commit where they were frozen dataclasses: repr,
# equality, hashing by the field tuple, and no assignment to a field.
SOL_FIELDS = ("f", "n_det")
CAP_FIELDS = (
    "circle_class",
    "base_offset",
    "parallelogram",
    "triangle",
    "monodromy_class",
    "weight",
    "fiber_correction",
    "f",
)
RECORD_REPRS = {
    ((1, 2), (0, 0)): "CapChain(circle_class=(1, 2), base_offset=(0, 0), "
    "parallelogram=((0, 0), (0, 0), (1, 2), (1, 2)), triangle=((0, 0), (3, 1), (2, -1)), "
    "monodromy_class=(3, 1), weight=Fraction(-1, 1), fiber_correction=Fraction(-5, 2), f=((2, 1), (1, 1)))",
    ((0, 0), (0, 0)): "CapChain(circle_class=(0, 0), base_offset=(0, 0), parallelogram=(), triangle=(), "
    "monodromy_class=(0, 0), weight=Fraction(-1, 1), fiber_correction=Fraction(0, 1), f=((2, 1), (1, 1)))",
    ((3, -1), (Fraction(1, 3), 0)): "CapChain(circle_class=(3, -1), base_offset=(Fraction(1, 3), 0), "
    "parallelogram=((0, 0), (Fraction(1, 3), 0), (Fraction(10, 3), -1), (3, -1)), "
    "triangle=((0, 0), (2, 3), (-1, 4)), monodromy_class=(2, 3), weight=Fraction(-1, 1), "
    "fiber_correction=Fraction(35, 6), f=((2, 1), (1, 1)))",
}


def _check_record(record, fields, rebuilt, other):
    assert record == rebuilt and record != other
    assert hash(record) == hash(rebuilt) == hash(tuple(getattr(record, name) for name in fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_sol_records_are_pinned():
    m = make_sol(F_EXAMPLE)
    assert repr(m) == "SolManifold(f=((2, 1), (1, 1)), n_det=-1)"
    _check_record(m, SOL_FIELDS, make_sol(F_EXAMPLE), make_sol(((3, 1), (2, 1))))
    for (a, offset), text in RECORD_REPRS.items():
        cap = build_cap(m, a, offset)
        assert repr(cap) == text
        _check_record(cap, CAP_FIELDS, build_cap(m, a, offset), build_cap(m, (1, 1), offset))
