"""Exact q-expansions, the orbit-minimum series, and the completed evaluation."""

import cmath
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sollink import (
    InputError,
    InteriorTable,
    WEvalParams,
    boundary_components,
    build_cap,
    cap_intersect,
    combine_interior,
    enumerate_norm_classes,
    eval_W,
    holomorphic_ratio_test,
    link_boundary_closed,
    link_fiber,
    link_table,
    lk_qexpansion,
    make_sol,
    min_series_coeff,
)
import oracles
import sollink.cycles
import sollink.qfield
import sollink.qseries
from conftest import field
from oracles import beta_lattice_reference, link_boundary, min_series_coeff_reference

D5_M1 = {1: Fraction(2), 2: Fraction(0), 3: Fraction(0), 4: Fraction(4), 5: Fraction(4)}


def test_min_series_frozen_value(field5):
    assert min_series_coeff(field5, 1, 60) == pytest.approx(math.sqrt(2), abs=1e-10)
    assert min_series_coeff(field5, 2, 60) == 0.0  # no classes of norm 2


def test_min_series_k_range_converged(field5, field13):
    for f, n in [(field5, 1), (field5, 4), (field13, 3)]:
        assert abs(min_series_coeff(f, n, 40) - min_series_coeff(f, n, 80)) < 1e-12


def test_min_series_rejects(field5):
    with pytest.raises(InputError):
        min_series_coeff(field5, 0, 40)
    with pytest.raises(InputError):
        min_series_coeff(field5, 1, 0)


@pytest.mark.parametrize("bad", ["4", float("nan"), 2.5, Fraction(2), Fraction(1, 2)])
def test_min_series_rejects_inexact_norms(field5, bad):
    with pytest.raises(InputError, match="^norm must be an int, got "):
        min_series_coeff(field5, bad, 40)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3", None])
def test_series_functions_reject_non_int_indices(field5, bad):
    # a float m matches no norm, so it would give all-zero coefficients
    table = InteriorTable(m=1, entries={n: Fraction(n) for n in range(1, 4)})
    calls = {
        "m": [
            lambda: lk_qexpansion(field5, bad, 3),
            lambda: combine_interior(InteriorTable(m=bad, entries=table.entries), field5, 3),
        ],
        "nmax": [
            lambda: lk_qexpansion(field5, 1, bad),
            lambda: holomorphic_ratio_test(field5, bad, 40),
            lambda: combine_interior(table, field5, bad),
        ],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(InputError, match=f"^{name} must be an int, got "):
                fn()


class _Int(int):
    """An int subclass: a value the library does not take for an int."""

    def __repr__(self):
        return f"_Int({int(self)})"


def _index(name: str) -> tuple[str, str]:
    return f"{name} must be an int, got {{!r}}", f"{name} must be >= 1, got 0"


_SOL = make_sol(((2, 1), (1, 1)))
_CAP = build_cap(_SOL, (1, 0))

# Every public entry point that takes an integer, with v in one integer slot:
# (call, the message for a v that is not an int, {} standing for repr(v), and
# the message for v = 0, or None where 0 is a valid coordinate).
INTEGER_SLOTS = {
    "enumerate_norm_classes": (lambda v: enumerate_norm_classes(field(5), v), *_index("norm")),
    "boundary_components": (lambda v: boundary_components(field(5), v), *_index("norm")),
    "link_boundary_closed": (lambda v: link_boundary_closed(field(5), v), *_index("norm")),
    "link_table": (lambda v: link_table(field(5), v), *_index("nmax")),
    "lk_qexpansion-m": (lambda v: lk_qexpansion(field(5), v, 3), *_index("m")),
    "lk_qexpansion-nmax": (lambda v: lk_qexpansion(field(5), 1, v), *_index("nmax")),
    "min_series_coeff-n": (lambda v: min_series_coeff(field(5), v, 5), *_index("norm")),
    "min_series_coeff-k_range": (lambda v: min_series_coeff(field(5), 1, v), *_index("k_range")),
    "holomorphic_ratio_test-nmax": (lambda v: holomorphic_ratio_test(field(5), v, 5), *_index("nmax")),
    "holomorphic_ratio_test-k_range": (lambda v: holomorphic_ratio_test(field(5), 3, v), *_index("k_range")),
    "combine_interior-m": (
        lambda v: combine_interior(InteriorTable(m=v, entries={1: Fraction(1)}), field(5), 1),
        *_index("m"),
    ),
    "combine_interior-nmax": (
        lambda v: combine_interior(InteriorTable(m=1, entries={1: Fraction(1)}), field(5), v),
        *_index("nmax"),
    ),
    "WEvalParams-k_range": (lambda v: WEvalParams(tau=1j, k_range=v), *_index("k_range")),
    "WEvalParams-box": (lambda v: WEvalParams(tau=1j, box=v), *_index("box")),
    "WEvalParams-n_cut": (lambda v: WEvalParams(tau=1j, n_cut=v), *_index("n_cut")),
    "element-a": (lambda v: field(5).element(v, 1), "element coordinates must be ints, got ({!r}, 1)", None),
    "element-b": (lambda v: field(5).element(1, v), "element coordinates must be ints, got (1, {!r})", None),
    "make_sol": (
        lambda v: make_sol(((v, 1), (1, 2))),
        "gluing row must be two integers, got ({!r}, 1)",
        "gluing matrix must have determinant 1, got -1",
    ),
    "link_fiber-a": (lambda v: link_fiber(_SOL, (v, 0), (0, 1)), "class a must be two integers, got ({!r}, 0)", None),
    "link_fiber-b": (lambda v: link_fiber(_SOL, (1, 0), (0, v)), "class b must be two integers, got (0, {!r})", None),
    "build_cap-a": (lambda v: build_cap(_SOL, (1, v)), "class a must be two integers, got (1, {!r})", None),
    "build_cap-offset": (
        lambda v: build_cap(_SOL, (1, 0), (v, 0)),
        "offset must be two ints or Fractions, got ({!r}, 0)",
        None,
    ),
    "cap_intersect": (
        lambda v: cap_intersect(_CAP, _SOL, (v, 1), Fraction(1, 3)),
        "class b must be two integers, got ({!r}, 1)",
        None,
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, "3", _Int(2), 0], ids=["True", "2.0", "str", "int-subclass", "0"])
@pytest.mark.parametrize("entry", list(INTEGER_SLOTS))
def test_integer_inputs_follow_one_rule(entry, value):
    # one rule everywhere: only a value of type int is an int, so True is not
    # 1 and 2.0 is not 2, and an index below 1 gets one message
    call, not_int, at_zero = INTEGER_SLOTS[entry]
    message = at_zero if type(value) is int and value == 0 else not_int.format(value)
    if message is None:
        call(value)
        return
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("d", [2, 5, 13, 94])
def test_min_series_matches_reference(monkeypatch, d):
    # one enumeration per norm for both routes: d = 94 scans about 3 s per pass
    classes = {}

    def enumerate_once(f, n):
        if n not in classes:
            classes[n] = sollink.qfield.enumerate_norm_classes(f, n)
        return classes[n]

    monkeypatch.setattr(sollink.qseries, "enumerate_norm_classes", enumerate_once)
    monkeypatch.setattr(oracles, "enumerate_norm_classes", enumerate_once)
    f = field(d)
    for n in range(1, 21):
        for k_range in (1, 60, 300):
            assert min_series_coeff(f, n, k_range) == min_series_coeff_reference(f, n, k_range)


def test_ratio_report_d5(field5):
    report = holomorphic_ratio_test(field5, 10, 60)
    assert report.d == 5 and report.k_range == 60
    assert set(report.ratios) == {1, 4, 5, 9}
    assert report.omitted == (2, 3, 6, 7, 8, 10)
    assert report.inconsistent == ()
    assert report.spread <= 1e-8
    assert report.ratios[1] == pytest.approx(math.sqrt(2) / 2, abs=1e-10)


@pytest.mark.parametrize("d", [46, 94, 151, 389])
def test_min_series_is_accurate_at_large_units(d):
    # each ratio is min_series_coeff(n, 60) / Lk(n, 1), from one sweep of the
    # norms.  A conjugate embedded as a + b*w' cancels when eps is large (to
    # 0.0 for eps itself at d = 151) and cost up to 5e-8 here.
    report = holomorphic_ratio_test(field(d), 12, 60)
    assert report.ratios and report.inconsistent == ()
    for n, ratio in report.ratios.items():
        assert abs(math.sqrt(2) * ratio - 1) <= 1e-14, (n, ratio)


def test_ratio_test_enumerates_each_norm_once(monkeypatch, field13):
    # the ratio test and a cold-cache eval_W read every norm from one sweep
    # and run no per-norm scan, yet give the per-norm route's floats
    calls = Counter()

    def counting(f, n):
        calls[n] += 1
        return sollink.qfield.enumerate_norm_classes(f, n)

    monkeypatch.setattr(sollink.qseries, "enumerate_norm_classes", counting)
    monkeypatch.setattr(sollink.cycles, "enumerate_norm_classes", counting)
    sollink.qseries._holomorphic_coeffs.cache_clear()
    report = holomorphic_ratio_test(field13, 12, 40)
    eval_W(field13, WEvalParams(tau=0.3 + 1j, k_range=40, n_cut=12))
    assert calls == {}
    monkeypatch.undo()
    coeffs = [min_series_coeff(field13, n, 40) for n in range(1, 13)]
    assert sollink.qseries._holomorphic_coeffs(field13, 40, 12) == tuple(coeffs)
    lks = [link_boundary_closed(field13, n) for n in range(1, 13)]
    assert report.ratios == {n: c / float(lk) for n, c, lk in zip(range(1, 13), coeffs, lks) if lk}
    assert report.omitted == tuple(n for n, lk in zip(range(1, 13), lks) if not lk)


def test_ratio_constant_shared_between_fields(field5, field13):
    r5 = holomorphic_ratio_test(field5, 8, 60)
    r13 = holomorphic_ratio_test(field13, 8, 60)
    assert r13.inconsistent == ()
    common = math.sqrt(2) / 2
    for rep in (r5, r13):
        for value in rep.ratios.values():
            assert value == pytest.approx(common, abs=1e-9)


def test_lk_qexpansion_values(field5):
    series = lk_qexpansion(field5, 1, 5)
    assert series.d == 5 and series.m == 1 and series.weight == 2 and series.nmax == 5
    assert series.coeffs == D5_M1
    with pytest.raises(InputError):
        lk_qexpansion(field5, 0, 5)
    with pytest.raises(InputError):
        lk_qexpansion(field5, 1, 0)


def test_qexpansion_csv_golden(field5):
    # the csv rendering of a q-expansion lives in the CLI, as streamed chunks
    from sollink.cli import _render_qexp

    assert "".join(_render_qexp("csv", lk_qexpansion(field5, 1, 5))) == (
        "n,value,tail_estimate\n1,2,0\n2,0,0\n3,0,0\n4,4,0\n5,4,0\n"
    )


def test_interior_table_round_trip():
    table = InteriorTable(m=1, entries={1: Fraction(3, 2), 2: Fraction(-1)}, provenance="by hand")
    text = json.dumps({"m": "1", "entries": {"1": "3/2", "2": -1}, "provenance": "by hand"})
    assert InteriorTable.from_json(text) == table


def test_interior_table_validation():
    with pytest.raises(InputError):
        InteriorTable.from_json("[]")
    with pytest.raises(InputError):
        InteriorTable.from_json('{"m": 0, "entries": {}}')
    with pytest.raises(InputError):
        InteriorTable.from_json('{"m": 1, "entries": {"one": "1"}}')
    with pytest.raises(InputError):
        InteriorTable.from_json('{"m": 1, "entries": {"1": "3//4"}}')
    # JSON floats are inexact and true/false are not numbers
    for entry in ("0.1", "2.0", "true", "false", "null"):
        with pytest.raises(InputError, match="not a rational literal"):
            InteriorTable.from_json('{"m": 1, "entries": {"1": %s}}' % entry)
    # a JSON string m is read by int(): "1.5" and "x" are not ints
    for m in ("1.5", "1.0", "true", '"1.5"', '"x"'):
        with pytest.raises(InputError, match="bad m"):
            InteriorTable.from_json('{"m": %s, "entries": {}}' % m)
    # judged from the literal: Fraction alone does not expand it within 20 s
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        with pytest.raises(InputError, match="more than .* digits"):
            InteriorTable.from_json('{"m": 1, "entries": {"1": "1e100000000"}}')


def test_combine_interior(field5):
    zero = InteriorTable(m=1, entries={n: Fraction(0) for n in range(1, 6)})
    combined = combine_interior(zero, field5, 5)
    assert combined.coeffs == {n: -v for n, v in D5_M1.items()}
    assert combined.m == 1 and combined.weight == 2

    lk_as_interior = InteriorTable(m=1, entries=dict(D5_M1))
    assert all(v == 0 for v in combine_interior(lk_as_interior, field5, 5).coeffs.values())


def test_combine_interior_linearity(field13):
    t1 = InteriorTable(m=2, entries={n: Fraction(n, 3) for n in range(1, 5)})
    t2 = InteriorTable(m=2, entries={n: Fraction(-n) for n in range(1, 5)})
    c1 = combine_interior(t1, field13, 4)
    c2 = combine_interior(t2, field13, 4)
    for n in range(1, 5):
        assert c1.coeffs[n] - c2.coeffs[n] == t1.entries[n] - t2.entries[n]


def test_combine_interior_missing_entries(field5):
    sparse = InteriorTable(m=1, entries={1: Fraction(0), 4: Fraction(0)})
    with pytest.raises(InputError, match=r"missing n = 2, 3, 5"):
        combine_interior(sparse, field5, 5)


@pytest.mark.parametrize(
    "nmax, tail",
    [(11, ""), (12, " and 1 more"), (100_000, " and 99989 more")],
    ids=["ten-missing", "eleven-missing", "99999-missing"],
)
def test_combine_interior_names_at_most_ten_missing_indices(field5, nmax, tail):
    # the first ten gaps are named and the rest counted, so the message stays one short line
    sparse = InteriorTable(m=1, entries={1: Fraction(0)})
    message = f"interior table is missing n = 2, 3, 4, 5, 6, 7, 8, 9, 10, 11{tail}"
    with pytest.raises(InputError, match=f"^{message}$"):
        combine_interior(sparse, field5, nmax)


@pytest.mark.parametrize("d,m", [(5, 17), (5, 19), (13, 17), (2, 7), (3, 13), (7, 9), (94, 9)])
def test_columns_beyond_nmax_match_link_boundary(d, m):
    # the rows come from the table sweep, the column from its own norm-class scan
    f = field(d)
    expected = {n: link_boundary(f, n, m) for n in range(1, 6)}
    assert lk_qexpansion(f, m, 5).coeffs == expected
    interior = InteriorTable(m=m, entries={n: Fraction(n, 7) for n in range(1, 6)})
    combined = combine_interior(interior, f, 5).coeffs
    assert combined == {n: Fraction(n, 7) - expected[n] for n in range(1, 6)}


def test_tables_read_their_norms_from_one_sweep(monkeypatch, field5):
    # one sweep of the norms 1..nmax per table or column, and one per-norm
    # scan for a column past nmax or a lone closed-form norm
    sweeps, scans = Counter(), Counter()

    def sweep(f, nmax):
        sweeps[nmax] += 1
        return sollink.qfield._norm_reps(f, nmax)

    def scan(f, n):
        scans[n] += 1
        return sollink.qfield._norm_coords(f, n)

    monkeypatch.setattr(sollink.cycles, "_norm_reps", sweep)
    monkeypatch.setattr(sollink.qseries, "_norm_reps", sweep)
    monkeypatch.setattr(sollink.cycles, "_norm_coords", scan)
    interior = InteriorTable(m=3, entries={n: Fraction(n, 7) for n in range(1, 41)})
    for call in (
        lambda: link_table(field5, 40),
        lambda: lk_qexpansion(field5, 3, 40),
        lambda: combine_interior(interior, field5, 40),
        lambda: holomorphic_ratio_test(field5, 40, 5),
    ):
        sweeps.clear()
        call()
        assert (sweeps, scans) == ({40: 1}, {})
    sweeps.clear()
    lk_qexpansion(field5, 50, 10)
    assert (sweeps, scans) == ({10: 1}, {50: 1})
    # a lone norm: its own scan and no sweep (the cached norm-1 check runs
    # through enumerate_norm_classes)
    sweeps.clear()
    scans.clear()
    link_boundary_closed(field5, 9973)
    assert (sweeps, scans) == ({}, {9973: 1})


def test_eval_params_validation():
    with pytest.raises(InputError):
        WEvalParams(tau=1.0 + 0.0j)
    with pytest.raises(InputError):
        WEvalParams(tau=0.5 - 1.0j)
    with pytest.raises(InputError, match="^k_range must be >= 1, got 0$"):
        WEvalParams(tau=1j, k_range=0)
    with pytest.raises(InputError, match="^box must be >= 1, got 0$"):
        WEvalParams(tau=1j, box=0)
    with pytest.raises(InputError, match="^n_cut must be >= 1, got 0$"):
        WEvalParams(tau=1j, n_cut=0)
    with pytest.raises(InputError, match="box must be at most 1000"):
        WEvalParams(tau=1j, box=1001)
    with pytest.raises(InputError, match="k_range must be at most 10000"):
        WEvalParams(tau=1j, k_range=10_001)
    assert WEvalParams(tau=1j, k_range=10_000, box=1000).box == 1000
    for tiny in (1e-320, 1e-17, 9.9e-9):
        with pytest.raises(InputError, match="Im tau must be at least 1e-08"):
            WEvalParams(tau=complex(-0.5, tiny))
    assert WEvalParams(tau=1e-8j).tau == 1e-8j
    for huge in (1e6 + 1, 1e307, 1e308):
        with pytest.raises(InputError, match="Im tau must be at most 1000000"):
            WEvalParams(tau=complex(0, huge))
    assert WEvalParams(tau=1e6j).tau == 1e6j
    # any finite Re tau: eval_W reduces it mod 1
    for far in (1e6 + 1, -1e7, 1e308, -1e6, 1e6):
        assert WEvalParams(tau=complex(far, 1)).tau.real == far


@pytest.mark.parametrize("v", [1e-3, 1e-8])
def test_eval_W_reduces_re_tau_mod_1(field5, v):
    # W has period 1 in tau; unreduced, 999999.25 moved beta_part by 8.4e-7
    # at v = 1e-3 and by 3.8e3 (of about 1.6e8) at v = 1e-8
    near = eval_W(field5, WEvalParams(tau=complex(0.25, v), box=1000))
    far = eval_W(field5, WEvalParams(tau=complex(999999.25, v), box=1000))
    assert repr(far) == repr(near)


def test_series_functions_share_the_k_range_bounds(field5):
    for series in (lambda k: min_series_coeff(field5, 1, k), lambda k: holomorphic_ratio_test(field5, 3, k)):
        with pytest.raises(InputError, match="^k_range must be at most 10000, got 10001$"):
            series(10_001)
        with pytest.raises(InputError, match="^k_range must be >= 1, got 0$"):
            series(0)
    assert holomorphic_ratio_test(field5, 3, 10_000).k_range == 10_000


def test_truncations_must_be_ints(field5):
    # a float truncation would reach range() as a TypeError, and True would
    # count as 1; the check runs before eval_W's coefficient cache sees a key
    with pytest.raises(InputError, match="^k_range must be an int, got 2.0$"):
        min_series_coeff(field5, 1, 2.0)
    with pytest.raises(InputError, match="^k_range must be an int, got 1.5$"):
        holomorphic_ratio_test(field5, 3, 1.5)
    for name, bad in [("box", 2.5), ("k_range", 1.5), ("n_cut", 2.5), ("n_cut", True)]:
        with pytest.raises(InputError, match=f"^{name} must be an int, got {bad}$"):
            WEvalParams(tau=1j, **{name: bad})


HOLO_TAUS = [0.25 + 0.6j, 1.3j, -0.4 + 2.0j, 0.17 + 0.8j]
# (20, 20) shares n_cut with (60, 20) but not its coefficients at d = 2 and 5,
# so a key without k_range would fail; (60, 21) differs from (60, 20) in n_cut
HOLO_KEYS = [(20, 5), (60, 20), (61, 20), (60, 21), (20, 20)]


@pytest.mark.parametrize("d", [2, 5, 13, 94])
def test_eval_w_holomorphic_matches_reference_cold_and_warm(monkeypatch, d):
    classes = {}

    def enumerate_once(f, n):
        if n not in classes:
            classes[n] = sollink.qfield.enumerate_norm_classes(f, n)
        return classes[n]

    monkeypatch.setattr(sollink.qseries, "enumerate_norm_classes", enumerate_once)
    monkeypatch.setattr(oracles, "enumerate_norm_classes", enumerate_once)
    f = field(d)
    cache = sollink.qseries._holomorphic_coeffs
    expected = {
        (key, tau): oracles.holomorphic_reference(f, tau, *key) for key in HOLO_KEYS for tau in HOLO_TAUS
    }

    def holomorphic(key, tau):
        report = eval_W(f, WEvalParams(tau=tau, k_range=key[0], n_cut=key[1], box=1))
        return report.holomorphic, report.holo_tail

    for (key, tau), value in expected.items():
        cache.cache_clear()
        assert holomorphic(key, tau) == value, ("cold", key, tau)
    # warm: every key and tau with all the other keys in the cache
    cache.cache_clear()
    for _ in range(2):
        for (key, tau), value in expected.items():
            assert holomorphic(key, tau) == value, ("warm", key, tau)
    assert cache.cache_info().currsize == len(HOLO_KEYS)


def test_holomorphic_cache_is_bounded(field5):
    cache = sollink.qseries._holomorphic_coeffs
    maxsize = cache.cache_info().maxsize
    assert maxsize == sollink.qseries._HOLO_CACHE_SIZE
    cache.cache_clear()
    for k_range in range(1, maxsize + 6):
        eval_W(field5, WEvalParams(tau=1j, k_range=k_range, n_cut=1, box=1))
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize


def test_rejected_params_add_no_cache_entry(field5):
    cache = sollink.qseries._holomorphic_coeffs
    cache.cache_clear()
    for bad in [{"box": 2.5}, {"k_range": 1.5}, {"n_cut": 2.5}, {"n_cut": True}, {"n_cut": 0}, {"k_range": 10_001}]:
        with pytest.raises(InputError):
            eval_W(field5, WEvalParams(tau=1j, **bad))
    assert cache.cache_info().currsize == 0


def assert_beta_matches_reference(report, f, tau, box):
    """beta_part within 1e-13 and beta_tail within 1e-12 relative of the
    point-by-point lattice sum: eval_W's one-dimensional sums add the same
    terms in another order."""
    beta, tail = beta_lattice_reference(f, tau, box)
    assert abs(report.beta_part - beta) <= 1e-13 * abs(beta)
    assert abs(report.beta_tail - tail) <= 1e-12 * tail


# 0.3+0.05i keeps nearly the whole box up to box 40, 8i keeps a handful of points
@pytest.mark.parametrize("d", [2, 3, 5, 13, 94])
@pytest.mark.parametrize("box", [1, 7, 40])
@pytest.mark.parametrize("tau", [0.25 + 0.6j, 1.3j, -0.4 + 2.0j, 3.7 + 2.5j, 0.3 + 0.05j, 8j])
def test_beta_lattice_matches_reference(d, box, tau):
    report = eval_W(field(d), WEvalParams(tau=tau, box=box, n_cut=1))
    assert_beta_matches_reference(report, field(d), tau, box)


def test_beta_lattice_matches_reference_box_120(field5):
    # the Gaussian cutoff keeps |t| <= 99 and |b| <= 44, strictly inside the box
    tau = 0.3 + 0.05j
    report = eval_W(field5, WEvalParams(tau=tau, box=120, n_cut=1))
    assert_beta_matches_reference(report, field5, tau, 120)


def test_eval_w_cost_does_not_grow_with_box(field5):
    tau = 0.3 + 1j
    start = time.perf_counter()
    report = eval_W(field5, WEvalParams(tau=tau, box=1000))
    elapsed = time.perf_counter() - start
    assert report.beta_part == eval_W(field5, WEvalParams(tau=tau, box=40)).beta_part
    assert elapsed < 0.5


def test_eval_w_builds_only_reachable_columns(field5, monkeypatch):
    # pi*v*disc*b^2/2 <= 760 bounds |b| by isqrt(96) + 1 = 10 at d = 5,
    # v = 1, so 21 columns of the 2001 in the box
    calls = 0
    real = sollink.qseries.beta_scaled

    def counting(s):
        nonlocal calls
        calls += 1
        return real(s)

    monkeypatch.setattr(sollink.qseries, "beta_scaled", counting)
    report = eval_W(field5, WEvalParams(tau=0.3 + 1j, box=1000, n_cut=1))
    assert calls == 21
    assert_beta_matches_reference(report, field5, 0.3 + 1j, 40)


# (tau, box, #t, #b): the t and b within the Gaussian cutoff, widened by one,
# with |b| <= box and |t| <= 2*box + |b|.  The cutoff binds at 0.3+1i and
# -0.4+2i, inside box 40, so the oracle sums that box; the box binds at
# 0.3+0.05i (|t| <= 99 and |b| <= 44 otherwise)
@pytest.mark.parametrize(
    "tau, box, ts, bs",
    [(0.3 + 1j, 1000, 45, 21), (0.3 + 0.05j, 7, 43, 15), (-0.4 + 2j, 40, 33, 15)],
)
def test_eval_w_takes_one_exp_per_t_and_per_b(field5, monkeypatch, tau, box, ts, bs):
    calls = 0

    def counting(z):
        nonlocal calls
        calls += 1
        return cmath.exp(z)

    monkeypatch.setattr(sollink.qseries, "cmath", SimpleNamespace(exp=counting, isfinite=cmath.isfinite))
    report = eval_W(field5, WEvalParams(tau=tau, box=box, n_cut=1))
    assert calls == 1 + ts + bs  # one holomorphic phase at n_cut 1
    assert_beta_matches_reference(report, field5, tau, min(box, 40))


# A process that only imports sollink peaks at about 14 MB; the 2-D lattice
# these sums replaced kept about 2*10^6 terms here, for 1.4 s and 93 MB
FLOOR_CALL = """
import time
from sollink import WEvalParams, eval_W, make_field
field = make_field(5)
start = time.perf_counter()
eval_W(field, WEvalParams(tau=0.3 + 1e-8j, box=1000))
elapsed = time.perf_counter() - start
status = open("/proc/self/status").read()
print(elapsed, next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:")))
"""


def test_eval_w_floor_call_stays_small():
    # the largest lattice: Im tau at its floor and box 1000
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak from")
    proc = subprocess.run([sys.executable, "-c", FLOOR_CALL], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    elapsed, peak_kb = proc.stdout.split()
    assert int(peak_kb) < 40 * 1024
    assert float(elapsed) < 1.0  # about 0.01 s


# class number 1 (2, 5, 13) and 2 (10, 65), on both bases
@pytest.mark.parametrize("d", [2, 5, 13, 10, 65])
def test_beta_half_completes_the_class_number_series(d):
    # Hirzebruch-Zagier: G = sum_{n >= 0} H_D(4n) q^n - sqrt(2)*beta_part is a
    # weight-2 form for Gamma0(D) with character chi_D, since beta_part is
    # -theta(tau)/sqrt(2) times the non-holomorphic part of Zagier's
    # weight-3/2 Eisenstein series at D*tau/4.  It reads neither Lk nor the
    # holomorphic half, so it checks the beta half alone
    f = field(d)
    D = f.disc
    coeffs = [float(h) for h in oracles.class_number_series(f, 12 * D + 100)]

    def G(tau):
        holo = 0j
        for n, c in enumerate(coeffs):
            holo += c * cmath.exp(2j * math.pi * n * tau)
        return holo - math.sqrt(2) * eval_W(f, WEvalParams(tau=tau, box=1000, n_cut=1)).beta_part

    for (a, b, c, d_g), tau in oracles.gamma0_grid(D):
        lhs = G((a * tau + b) / (c * tau + d_g))
        rhs = oracles.kronecker(D, d_g % D) * (c * tau + d_g) ** 2 * G(tau)
        assert abs(lhs - rhs) <= oracles.HZ_MODULAR_REL_BOUND * abs(lhs), (c, d_g, abs(lhs - rhs) / abs(lhs))


def test_eval_w_period_one(field5):
    base = eval_W(field5, WEvalParams(tau=0.21 + 0.9j))
    shifted = eval_W(field5, WEvalParams(tau=1.21 + 0.9j))
    assert abs(base.holomorphic - shifted.holomorphic) < 1e-10
    assert abs(base.beta_part - shifted.beta_part) < 1e-10


def test_eval_w_large_v_limit(field5):
    # as v grows only the lambda = 0 term of the lattice sum survives
    report = eval_W(field5, WEvalParams(tau=0.3 + 50j, box=4, n_cut=2))
    expect = -math.sqrt(2) / math.sqrt(5 * 50) / (8 * math.pi)
    assert abs(report.holomorphic) < 1e-130  # |q| = e^{-100 pi} ~ 1e-137
    assert report.beta_part.real == pytest.approx(expect, rel=1e-12)
    assert report.beta_part.imag == pytest.approx(0.0, abs=1e-15)


def test_eval_w_truncation_within_tails(field5):
    p = WEvalParams(tau=0.17 + 0.8j, k_range=40, box=12, n_cut=14)
    fine = WEvalParams(tau=p.tau, k_range=80, box=24, n_cut=28)
    a, b = eval_W(field5, p), eval_W(field5, fine)
    assert abs(a.holomorphic - b.holomorphic) <= a.holo_tail
    assert abs(a.beta_part - b.beta_part) <= a.beta_tail
    assert abs(a.total - b.total) <= a.holo_tail + a.beta_tail


def test_eval_w_deterministic(field5):
    p = WEvalParams(tau=0.5 + 1.0j)
    r1, r2 = eval_W(field5, p), eval_W(field5, p)
    assert (r1.holomorphic, r1.beta_part, r1.holo_tail, r1.beta_tail) == (
        r2.holomorphic,
        r2.beta_part,
        r2.holo_tail,
        r2.beta_tail,
    )


def test_eval_w_nonzero_components(field13):
    report = eval_W(field13, WEvalParams(tau=0.25 + 0.6j))
    assert report.holomorphic != 0 and report.beta_part != 0
    assert cmath.isfinite(report.total)
    assert report.holo_tail > 0 and report.beta_tail >= 0
