"""Acceptance gate: one test per shipped guarantee, with pinned tolerances and
time limits.  Each test is a single pass/fail line under pytest -v."""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from sollink import (
    WEvalParams,
    beta_fn,
    boundary_components,
    build_cap,
    cap_intersect,
    area_period,
    boundary_cycle,
    enumerate_norm_classes,
    eval_W,
    expected_boundary,
    holomorphic_ratio_test,
    link_boundary_closed,
    link_fiber,
    link_table,
    make_field,
    reduce_totally_positive,
)
from sollink.qfield import is_squarefree
from sollink.selftest import _random_class, _random_hyperbolic
from conftest import field
from oracles import (
    A_profile,
    Ap_profile,
    B_profile,
    Bp_profile,
    WPoint,
    brute_force_norm_solutions,
    link_boundary,
    orbit_action,
    pell_units,
    phi_profile,
    quad_form,
    reduce_totally_positive_ints,
)
from test_special_fn import beta_quad


def test_criterion_01_sol_linking_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(100):
        m = _random_hyperbolic(rng)
        a = _random_class(rng, -10, 10)
        b = _random_class(rng, -10, 10)
        cap = build_cap(m, a)
        assert link_fiber(m, a, b) == cap_intersect(cap, m, b, Fraction(1, 3))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: 100 random gluings, formula == cap count ({elapsed:.2f}s)")


def test_criterion_02_closed_form_cross_validation():
    start = time.perf_counter()
    for d in (5, 13, 17):
        f = field(d)
        for n in range(1, 31):
            assert link_boundary(f, n, 1) == link_boundary_closed(f, n)
    assert link_boundary(field(5), 1, 1) == 2
    assert link_boundary(field(5), 4, 1) == 4
    assert link_boundary(field(5), 5, 1) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: double-sum == closed form, d in (5, 13, 17), n <= 30 ({elapsed:.2f}s)")


def test_criterion_03_rationality_and_integrality():
    checked = 0
    for d in (5, 13, 17):
        table = link_table(field(d), 30)
        for value in table.entries.values():
            assert isinstance(value, Fraction)
            assert (table.n_det * value).denominator == 1
            checked += 1
    print(f"\nPASS criterion 3: {checked} table entries rational with N_det * entry integral")


def test_criterion_04_ratio_constancy():
    start = time.perf_counter()
    for d in (5, 13):
        report = holomorphic_ratio_test(field(d), 20, 80)
        assert report.inconsistent == ()
        values = list(report.ratios.values())
        assert values, "no nonempty cycles in range"
        mean = sum(values) / len(values)
        assert report.spread / abs(mean) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: min-series/Lk ratio constant to 1e-8, d in (5, 13) ({elapsed:.2f}s)")


def test_criterion_05_unit_group_against_pell():
    checked = 0
    for d in range(2, 100):
        if not is_squarefree(d):
            continue
        f = make_field(d)
        smallest, smallest_tp = pell_units(d)
        assert (int(f.eps0.a), int(f.eps0.b), f.eps0_norm) == smallest
        assert (int(f.eps.a), int(f.eps.b)) == smallest_tp
        checked += 1
    print(f"\nPASS criterion 5: fundamental and totally positive units match Pell scan, {checked} fields")


def _box_bound(f, nmax: int) -> int:
    """Box radius certainly containing every reduced representative of norm
    <= nmax: reps have 0 <= b <= sqrt(nmax (Tr eps^2 - 2) / disc) and
    a = (t - s0 b)/2 with t^2 = disc b^2 + 4 norm."""
    tr2 = int((f.eps * f.eps).trace())
    b_max = math.isqrt(nmax * (tr2 - 2) // f.disc) + 1
    t_max = math.isqrt(f.disc * b_max * b_max + 4 * nmax) + 1
    return (t_max + b_max) // 2 + 1


def test_criterion_06_norm_class_enumeration():
    for d in (2, 3, 5, 13, 17, 21):
        f = field(d)
        bound = _box_bound(f, 50)
        buckets = {n: set() for n in range(1, 51)}
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                # a + b*w is totally positive iff its trace and its norm are positive
                n = a * a + f.s0 * a * b + f.n0 * b * b
                if 2 * a + f.s0 * b > 0 and 1 <= n <= 50:
                    buckets[n].add(reduce_totally_positive_ints(f, a, b))
        for n in range(1, 51):
            enumerated = {(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, n)}
            assert enumerated == buckets[n], f"d={d} n={n}"
    print("\nPASS criterion 6: enumeration == reduced box search, d in (2,3,5,13,17,21), n <= 50")


def test_criterion_06_matches_per_n_oracle():
    # direct use of the stated oracle on a smaller grid, as a belt-and-braces
    # check that the box bucketing above equals it
    for d in (2, 21):
        f = field(d)
        for n in (1, 4, 9, 12):
            bound = _box_bound(f, n)
            reduced = {
                (r.a, r.b)
                for r in (reduce_totally_positive(f, x) for x in brute_force_norm_solutions(f, n, bound))
            }
            assert reduced == {(c.rep.a, c.rep.b) for c in enumerate_norm_classes(f, n)}


def test_criterion_07_special_function_identities():
    rng = random.Random(77)
    h = 1e-4
    for _ in range(50):
        x2 = rng.uniform(-2.2, 2.2)
        x3 = rng.choice([-1, 1]) * rng.uniform(0.2, 1.6)
        p = WPoint(x2, x3)
        fd = -(B_profile(orbit_action(-h, p)) - B_profile(orbit_action(h, p))) / (2 * h)
        a = A_profile(p)
        assert abs(fd - a) <= 1e-5 * max(abs(a), 1e-9)

    hp = 1e-3
    for _ in range(50):
        x2 = rng.uniform(-2.0, 2.0)
        x3 = rng.choice([-1, 1]) * rng.uniform(0.2, 1.6)
        if abs(abs(x2) - abs(x3)) < 0.2:
            continue
        p = WPoint(x2, x3)
        for profile in (B_profile, Bp_profile):
            f0 = profile(p)
            d22 = (profile(WPoint(x2 + hp, x3)) - 2 * f0 + profile(WPoint(x2 - hp, x3))) / hp**2
            d33 = (profile(WPoint(x2, x3 + hp)) - 2 * f0 + profile(WPoint(x2, x3 - hp))) / hp**2
            lhs = -(d22 - d33) / (4 * math.pi) + math.pi * quad_form(p) * f0
            assert abs(lhs - 2 * f0) <= 1e-3 * max(abs(2 * f0), 1e-6)

    delta = 1e-9
    for x2 in (0.4, 1.0, 1.7, -0.8, 2.3):
        lim = 0.5 * x2 * math.exp(-math.pi * x2 * x2)
        for side in (1, -1):
            p = WPoint(x2, side * delta)
            assert abs(A_profile(p) - side * lim) <= 1e-8 and abs(Ap_profile(p) + side * lim) <= 1e-8
        above, _ = phi_profile(WPoint(x2, delta))
        below, _ = phi_profile(WPoint(x2, -delta))
        assert abs(above - below) <= 1e-8

    points = [0.0] + [0.01 * (30 / 0.01) ** (i / 18) for i in range(19)]
    assert len(points) == 20
    for s in points:
        assert abs(beta_fn(s) - beta_quad(s)) <= 1e-10
    print("\nPASS criterion 7: flow derivative, PDE, jump cancellation, beta quadrature")


def test_criterion_08_numeric_stability_at_i():
    base = WEvalParams(tau=1j, k_range=60, box=40, n_cut=20)
    fine = WEvalParams(tau=1j, k_range=120, box=80, n_cut=40)
    f = field(5)
    a, b = eval_W(f, base), eval_W(f, fine)
    dh = abs(a.holomorphic - b.holomorphic)
    db = abs(a.beta_part - b.beta_part)
    assert dh < 1e-8 and db < 1e-8
    print(f"\nPASS criterion 8: doubling truncation moves components by {dh:.2e}, {db:.2e}")


def test_criterion_09_cap_normalization():
    rng = random.Random(909)
    for _ in range(50):
        m = _random_hyperbolic(rng)
        a = _random_class(rng, -10, 10)
        offset = (Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4))
        cap = build_cap(m, a, offset=offset)
        assert area_period(cap) == 0
        assert boundary_cycle(cap) == expected_boundary(cap)
    print("\nPASS criterion 9: 50 random caps close up with zero area period")


CLI_RUNS = (
    ("qexp", "--d", "5", "--nmax", "10"),
    ("lk-table", "--d", "13", "--nmax", "4", "--format", "csv"),
    ("w-eval", "--d", "5", "--tau", "0.25+1.5i", "--format", "json"),
)


def test_criterion_10_cli_determinism():
    for args in CLI_RUNS:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "sollink.cli", *args],
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"run of {args} not byte-identical"
    print(f"\nPASS criterion 10: {len(CLI_RUNS)} CLI configs byte-identical across repeat runs")
