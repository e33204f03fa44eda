"""Field arithmetic, units, and norm-class enumeration against brute force."""

import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sollink import (
    InputError,
    NormClass,
    enumerate_norm_classes,
    is_squarefree,
    make_field,
    reduce_totally_positive,
)
from sollink.qfield import (
    _TABLE_MAX,
    _TABLE_PRIMES,
    _WHEEL_MODULI,
    _enumeration_steps,
    _norm_reps,
    _residue_table,
    _scan_length,
    _sieve_plan,
    _wheel,
)
from conftest import field
from oracles import brute_force_norm_solutions, enumerate_norm_classes_reference, gluing_reference, pell_units

# (d, eps0 coords, eps0 norm, eps coords) on the (1, w) basis
KNOWN_UNITS = [
    (2, (1, 1), -1, (3, 2)),
    (3, (2, 1), 1, (2, 1)),
    (5, (0, 1), -1, (1, 1)),
    (6, (5, 2), 1, (5, 2)),
    (13, (1, 1), -1, (4, 3)),
    (17, (3, 2), -1, (25, 16)),
    (21, (2, 1), 1, (2, 1)),
]


@pytest.mark.parametrize("d,eps0,norm,eps", KNOWN_UNITS)
def test_known_fundamental_units(d, eps0, norm, eps):
    f = field(d)
    assert (f.eps0.a, f.eps0.b) == eps0
    assert f.eps0_norm == norm
    assert (f.eps.a, f.eps.b) == eps


@pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 17, 21, 94])
def test_units_match_pell_oracle(d):
    f = field(d)
    (a0, b0, n0), (a1, b1) = pell_units(d)
    assert (f.eps0.a, f.eps0.b, f.eps0_norm) == (a0, b0, n0)
    assert (f.eps.a, f.eps.b) == (a1, b1)


def test_unit_basic_properties(field5):
    assert abs(field5.eps0.norm()) == 1
    assert field5.eps.norm() == 1
    assert field5.eps.is_totally_positive()
    assert not field5.eps0.is_totally_positive()  # norm -1 for d=5
    assert field5.eps > 1


@pytest.mark.parametrize("bad", [1, 4, 12, 18, 0, -5])
def test_make_field_rejects_bad_d(bad):
    with pytest.raises(InputError):
        make_field(bad)


def test_make_field_rejects_an_int_subclass():
    class Int(int):
        pass

    with pytest.raises(InputError, match="^d must be an integer > 1, got 5$"):
        make_field(Int(5))


def test_make_field_rejects_oversized_d_quickly():
    start = time.perf_counter()
    with pytest.raises(InputError, match="at most"):
        make_field(10**17 + 3)
    assert time.perf_counter() - start < 0.1


def test_is_squarefree():
    assert [d for d in range(2, 20) if is_squarefree(d)] == [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
    assert not is_squarefree(0) and not is_squarefree(-5)


def _times_eps_power(f, x, k):
    """x * eps^k, by |k| multiplications with eps or eps' = 1/eps."""
    unit = f.eps if k >= 0 else f.eps.conj()
    for _ in range(abs(k)):
        x = x * unit
    return x


def test_arithmetic_identities(field5):
    w = field5.omega
    assert w * w == -field5.n0 + field5.s0 * w
    sqrt_disc = 2 * w - field5.s0
    assert sqrt_disc * sqrt_disc == field5.disc
    x = field5.element(3, 7)
    assert x * x.conj() == x.norm()
    assert x + x.conj() == x.trace()
    assert (x * x * x) / x == x * x
    assert (field5.element(1) / w) * w == 1  # w is a unit at d = 5
    assert field5.eps * field5.eps.conj() == 1


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0, "1", True, None])
def test_element_takes_ints_only(field5, bad):
    with pytest.raises(InputError, match="^element coordinates must be ints, got "):
        field5.element(bad, 1)
    with pytest.raises(InputError, match="^element coordinates must be ints, got "):
        field5.element(1, bad)


@pytest.mark.parametrize("d", [2, 5, 13])
def test_division_is_exact_in_the_ring(d):
    f = field(d)
    assert f.element(4, 6) / 2 == f.element(2, 3)
    with pytest.raises(InputError, match="is not an integer of the field"):
        f.element(1, 1) / 2
    with pytest.raises(ZeroDivisionError):
        f.element(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        f.element(1, 1) / f.element(0)
    x, y = f.element(3, -2), f.element(-5, 4)
    assert (x * y) / y == x and (x * y) / x == y
    for z in (x + y, x - y, x * y, x.conj(), (x * y) / y, 1 - x, 2 * y):
        assert type(z.a) is int and type(z.b) is int
    assert type(x.norm()) is int and type(x.trace()) is int


def test_sign_is_exact():
    f = field(5)
    # 682/305 is a continued-fraction convergent of sqrt(5); the difference is
    # ~1e-5 and must still get the exact sign right
    x = (2 * f.omega - f.s0) * 305 - 682  # 305*sqrt(5) - 682
    assert x.sign() == (1 if 5 * 305**2 > 682**2 else -1)
    assert (-x).sign() == -x.sign()
    assert f.element(0).sign() == 0


def test_norm_classes_d5():
    f = field(5)
    assert [(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, 1)] == [(1, 0)]
    assert enumerate_norm_classes(f, 2) == []
    assert enumerate_norm_classes(f, 3) == []
    assert [(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, 4)] == [(2, 0)]
    assert [(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, 5)] == [(2, 1)]
    with pytest.raises(InputError):
        enumerate_norm_classes(f, 0)
    with pytest.raises(InputError):
        enumerate_norm_classes(f, -3)


# none of these is an int norm: a string must not be parsed, a float must not
# be rounded or compared, and a Fraction is not taken even when it is whole
@pytest.mark.parametrize("bad", ["4", float("nan"), 2.5, 4.0, True, None, Fraction(2), Fraction(1, 2)])
def test_enumeration_rejects_inexact_norms(bad):
    with pytest.raises(InputError, match="^norm must be an int, got "):
        enumerate_norm_classes(field(5), bad)


def test_brute_force_box_d5(field5):
    ones = brute_force_norm_solutions(field5, 1, 20)
    coords = {(x.a, x.b) for x in ones}
    assert (1, 0) in coords  # 1
    assert (1, 1) in coords  # eps
    assert (2, 3) in coords or (3, 2) in coords  # eps^2 = 2 + 3w
    fours = {(x.a, x.b) for x in brute_force_norm_solutions(field5, 4, 20)}
    assert (2, 0) in fours and (2, 2) in fours  # 2 and 2*eps


def test_reduction_lands_in_domain(field5):
    x = _times_eps_power(field5, field5.element(2, 1), 5)
    r = reduce_totally_positive(field5, x)
    assert (r.a, r.b) == (2, 1)
    assert reduce_totally_positive(field5, r) == r
    with pytest.raises(InputError):
        reduce_totally_positive(field5, field5.element(-1))


@pytest.mark.parametrize("d", [5, 13])
def test_enumeration_matches_brute_force(d):
    # acceptance covers six fields; keep a quick version at module level
    f = field(d)
    eps_f = f.eps.embed()
    for n in range(1, 21):
        bound = int(n**0.5 * (eps_f + 1)) + 2
        brute = brute_force_norm_solutions(f, n, bound)
        reduced = {(r.a, r.b) for r in (reduce_totally_positive(f, x) for x in brute)}
        listed = {(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, n)}
        assert reduced == listed, f"d={d} n={n}"


# 3, 7, 21 and 79 have a fundamental unit of norm +1, on both bases
@pytest.mark.parametrize("d", [2, 3, 5, 7, 13, 21, 46, 79, 94])
def test_eps_sq_coordinates(d):
    f = field(d)
    big_t, big_u = f.eps_sq
    assert big_t * big_t - f.disc * big_u * big_u == 4  # norm(eps^2) = 1
    assert (big_t - f.s0 * big_u) % 2 == 0
    assert f.element((big_t - f.s0 * big_u) // 2, big_u) == f.eps * f.eps
    # the cusp gluing: multiplication by eps' on (1, w), and N(eps - 1)
    assert f.gluing == gluing_reference(f)
    assert f.n_det == (f.eps - 1).norm()


# (d, n) at which the residue table engages and one of its primes divides
# disc or n: 11 | disc = 4*209, n = 11*19 and n = 11^2 with 13 | disc = 247
TABLE_PAIRS = ((209, 23), (58, 209), (247, 121))


# The reference scans every b: 2.2e5 of them at d=94, n=1 and 1.7e6 at n=60,
# so the large-unit fields take a few norms: at d=94 empty, two classes and
# the squares 4 and 9; at the others (n=1 scans 1.1e5-3.3e5) n = 1 and 8
@pytest.mark.parametrize(
    "d, ns",
    [pytest.param(d, range(1, 61), id=str(d)) for d in (2, 3, 5, 13, 17, 21, 46)]
    + [pytest.param(94, (1, 2, 3, 4, 5, 9), id="94")]
    + [pytest.param(d, (1, 8), id=str(d)) for d in (89, 113, 179, 251, 389)]
    + [pytest.param(d, (n,), id=f"{d}-{n}") for d, n in TABLE_PAIRS],
)
def test_enumeration_matches_fraction_reference(d, ns):
    f = field(d)
    for n in ns:
        if (d, n) in TABLE_PAIRS:
            _, _, primes = _sieve_plan(f.disc, 4 * n, _scan_length(f, n))
            assert math.prod(primes) > 1, f"no residue table at d={d} n={n}"
        got, want = enumerate_norm_classes(f, n), enumerate_norm_classes_reference(f, n)
        assert got == want and repr(got) == repr(want), f"d={d} n={n}"


def test_d151_norm_one_is_the_unit_class():
    # the totally positive units are the powers of eps, and 1 is the only one
    # in the domain; the b range has 1.4e8 values, the wheel visits about 2e6
    f = field(151)
    start = time.perf_counter()
    assert enumerate_norm_classes(f, 1) == [NormClass(rep=f.element(1))]
    assert time.perf_counter() - start < 10


def _scan_reps(f, n):
    return [(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, n)]


# every squarefree d < 200 whose eps has trace at most 10^6 (104 fields)
SWEEP_FIELDS = [d for d in range(2, 200) if is_squarefree(d) and field(d).eps.trace() <= 10**6]


@pytest.mark.parametrize(
    "ds, nmax",
    [pytest.param(SWEEP_FIELDS, 40, id="d<200-40")]
    + [pytest.param([d], 2000, id=f"{d}-2000") for d in (2, 5, 13)]
    + [pytest.param([94], 100, id="94-100")],
)
def test_norm_rep_sums_match_the_per_norm_scans(ds, nmax):
    # the sweep's rep lists, so the rep sums a table reads, are the per-norm
    # scans' reps, in their order
    for d in ds:
        f = field(d)
        reps = _norm_reps(f, nmax)
        assert set(reps) <= set(range(1, nmax + 1))
        for n in range(1, nmax + 1):
            assert reps.get(n, []) == _scan_reps(f, n), (d, n)


@pytest.mark.parametrize("d", [d for d in SWEEP_FIELDS if field(d).eps.trace() <= 10**4])
def test_norm_rep_sums_keep_the_domain_edge(d):
    # 1 + eps, of norm 2 + Tr(eps), lies on the edge x/x' = eps: the sweep
    # meets it as 1 + eps' (ratio 1/eps, b < 0) and moves it by eps
    f = field(d)
    n = 2 + f.eps.trace()
    one_plus_eps = f.eps + 1
    assert (one_plus_eps.a, one_plus_eps.b) in _scan_reps(f, n)
    assert _norm_reps(f, n)[n] == _scan_reps(f, n)


@pytest.mark.parametrize("d", [5, 13, 41, 94, 97])
@pytest.mark.parametrize("nmax", [400, 4000])
def test_class_count_estimate(d, nmax):
    # the budget charges each class its orbit sum, counting the classes up to
    # nmax as ceil(nmax*ln(Tr eps)/sqrt(disc)): at nmax 400 it reads 197, 267,
    # 520, 316 and 758 against 172, 269, 525, 318 and 778 classes
    f = field(d)
    classes = sum(map(len, _norm_reps(f, nmax).values()))
    estimate = math.ceil(nmax * math.log(f.eps.trace()) / math.sqrt(f.disc))
    assert abs(classes - estimate) <= 0.15 * estimate
    rows = math.isqrt(nmax * (f.eps.trace() - 2) // f.disc)
    assert _enumeration_steps(f, nmax) == 8 * (2 * rows + 1) + estimate
    assert _enumeration_steps(f, nmax, k_range=60) == 8 * (2 * rows + 1) + estimate * (1 + 40 + 3 * 121)


@st.composite
def norm_solutions(draw):
    """(d, b, t) with b >= 0 and t^2 = disc*b^2 + 4n for an integer n >= 1."""
    d = draw(st.sampled_from([2, 3, 5, 13, 46, 94, 151, 389]))
    disc = field(d).disc
    b = draw(st.integers(min_value=0, max_value=10**6))
    # disc = 0 or 1 mod 4, so t^2 = disc*b^2 mod 4 iff t = disc*b mod 2
    t = math.isqrt(disc * b * b) + 1
    t += (t - disc * b) % 2 + 2 * draw(st.integers(min_value=0, max_value=10**4))
    return d, b, t


# explicit n divisible by each wheel modulus (with b prime to it where one
# exists), and n sharing a prime with disc
@given(norm_solutions())
@example((5, 4, 12))  # n = 16
@example((94, 4, 80))  # n = 96
@example((13, 1, 7))  # n = 9
@example((94, 1, 22))  # n = 27
@example((5, 1, 5))  # n = 5
@example((389, 1, 23))  # n = 35
@example((2, 1, 6))  # n = 7
@example((151, 1, 32))  # n = 105
@example((3, 1, 10))  # n = 22
@example((389, 1, 31))  # n = 143
@example((389, 1, 21))  # n = 13
@example((94, 1, 34))  # n = 195
@example((13, 1, 9))  # n = 17
@example((151, 1, 48))  # n = 425
@example((2, 1, 4))  # n = 2, disc = 8
@example((46, 1, 46))  # n = 483 = 3*7*23, disc = 8*23
@example((151, 1, 302))  # n = 22650 = 2*3*5^2*151, disc = 4*151
@example((389, 1, 389))  # n = 37733 = 97*389, disc = 389
@settings(max_examples=40, deadline=None)
def test_wheel_keeps_every_solution(sol):
    d, b, t = sol
    disc = field(d).disc
    n4 = t * t - disc * b * b
    assert n4 > 0 and n4 % 4 == 0
    # the wheel depends on the length only through how many factors fold in,
    # which changes at 4 times each prefix product of the moduli
    prefixes = [math.prod(_WHEEL_MODULI[:k]) for k in range(len(_WHEEL_MODULI) + 1)]
    for length in {max(b + 1, 4 * m) for m in prefixes}:
        residues, m = _wheel(_sieve_plan(disc, n4, length)[0])
        assert b % m in set(residues), (d, n4 // 4, b, length)


def _table_choices():
    """Every prime list the residue table can take: for each wheel modulus M,
    a nonempty prefix of the table primes prime to M with product at most
    _TABLE_MAX."""
    choices = set()
    for k in range(len(_WHEEL_MODULI) + 1):
        m = math.prod(_WHEEL_MODULI[:k])
        free = [p for p in _TABLE_PRIMES if m % p]
        for j in range(1, len(free) + 1):
            if math.prod(free[:j]) <= _TABLE_MAX:
                choices.add(tuple(free[:j]))
    return choices


TABLE_CHOICES = _table_choices()


def test_table_choices_cover_the_plan():
    # every plan over a grid of norms and lengths picks one of TABLE_CHOICES;
    # the largest are 11*13*17*19 and 13*17*19*23
    assert max(map(math.prod, TABLE_CHOICES)) == 13 * 17 * 19 * 23
    for d in (5, 94, 151, 209):
        disc = field(d).disc
        for n in (1, 2, 9, 11, 2431):
            for length in (255, 256, 3000, 10**5, 10**7, 10**9, 10**12):
                _, visits, primes = _sieve_plan(disc, 4 * n, length)
                assert not primes or tuple(primes) in TABLE_CHOICES
                assert math.prod(primes) <= max(visits, 1)


# explicit n divisible by table primes and discs sharing primes with them,
# with b divisible by 11 in the last
@given(norm_solutions())
@example((389, 3, 115))  # n = 2431 = 11*13*17
@example((389, 5, 441))  # n = 46189 = 11*13*17*19
@example((23, 2, 46))  # n = 437 = 19*23, disc = 4*23
@example((209, 96, 1406))  # n = 12673 = 19*23*29, disc = 4*11*19
@example((143, 1, 44))  # n = 341 = 11*31, disc = 4*11*13
@example((437, 1, 57))  # n = 703 = 19*37, disc = 19*23
@example((143, 11, 286))  # n = 3146 = 2*11^2*13, b = 11
@settings(max_examples=40, deadline=None)
def test_residue_table_keeps_every_solution(sol):
    d, b, t = sol
    disc = field(d).disc
    n4 = t * t - disc * b * b
    assert n4 > 0 and n4 % 4 == 0
    for primes in TABLE_CHOICES:
        ok, q_mod = _residue_table(disc, n4, list(primes))
        assert len(ok) == q_mod == math.prod(primes)
        assert ok[b % q_mod] == 1, (d, n4 // 4, b, primes)


def test_residue_table_marks_exactly_the_admissible_residues():
    # against a direct test of each x: disc*x^2 + n4 a square modulo each prime
    for d, n in ((5, 1), (143, 2431), (209, 437), (94, 9)):
        disc, n4 = field(d).disc, 4 * n
        for primes in ((11,), (11, 13), (17, 19), (13, 17, 19)):
            ok, q_mod = _residue_table(disc, n4, list(primes))
            want = [
                int(all(any((disc * x * x + n4 - y * y) % p == 0 for y in range(p)) for p in primes))
                for x in range(q_mod)
            ]
            assert list(ok) == want, (d, n, primes)


@pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 21, 46])
def test_square_norm_excludes_the_eps_squared_boundary(d):
    # x = k*eps has x/x' = eps^2 exactly: k is the class rep, k*eps is not
    f = field(d)
    for k in range(1, 8):
        reps = [c.rep for c in enumerate_norm_classes(f, k * k)]
        assert f.element(k) in reps and k * f.eps not in reps


small_fields = st.sampled_from([2, 3, 5, 13, 17])
coords = st.integers(min_value=-8, max_value=8)


@given(small_fields, coords, coords, coords, coords)
@settings(max_examples=80, deadline=None)
def test_norm_is_multiplicative(d, a1, b1, a2, b2):
    f = field(d)
    x, y = f.element(a1, b1), f.element(a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()


@given(small_fields, coords, coords, coords, coords)
@settings(max_examples=80, deadline=None)
def test_conjugation_is_a_ring_map(d, a1, b1, a2, b2):
    f = field(d)
    x, y = f.element(a1, b1), f.element(a2, b2)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(small_fields, coords, coords)
@settings(max_examples=80, deadline=None)
def test_sign_agrees_with_float_embedding(d, a, b):
    f = field(d)
    x = f.element(a, b)
    emb = x.embed()
    if abs(emb) > 1e-6:
        assert x.sign() == (1 if emb > 0 else -1)


def test_conjugate_embedding_does_not_cancel():
    # eps' = 1/eps is about 2.9e-10 at d = 151, where a + b*w' cancels to 0.0
    eps = field(151).eps
    assert abs(eps.embed(conjugate=True) * eps.embed() - 1) <= 1e-15


@given(small_fields, coords, coords)
@settings(max_examples=80, deadline=None)
def test_embeddings_multiply_to_the_norm(d, a, b):
    x = field(d).element(a, b)
    assert x.embed() * x.embed(conjugate=True) == pytest.approx(x.norm(), rel=1e-12, abs=1e-9)


@given(small_fields, coords, coords, st.integers(min_value=-4, max_value=4))
@settings(max_examples=80, deadline=None)
def test_reduction_is_orbit_invariant(d, a, b, k):
    f = field(d)
    x = f.element(a, b)
    if not x.is_totally_positive():
        return
    assert reduce_totally_positive(f, _times_eps_power(f, x, k)) == reduce_totally_positive(f, x)


def test_cross_field_operations_rejected():
    with pytest.raises(InputError):
        field(5).element(1) + field(13).element(1)


class _IntSubclass(int):
    pass


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.lt, operator.le, operator.gt, operator.ge]
)
def test_foreign_operands_raise_type_error(field5, op):
    # an int operand is a value of type exactly int (errors._is_int)
    x = field5.element(1, 1)
    for other in (1.5, True, _IntSubclass(1)):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    one = field5.element(1)
    assert one == 1 and one != True and one != _IntSubclass(1)  # noqa: E712
