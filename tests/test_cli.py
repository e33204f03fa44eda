"""End-to-end command-line behavior: outputs, formats, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sollink import cli
from sollink.cycles import link_table
from sollink.errors import ConsistencyError, InputError
from sollink.qfield import _scan_length, make_field
from sollink.qseries import InteriorTable, combine_interior, lk_qexpansion
from oracles import lk_table_output_reference, qexp_output_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def test_field_info_text(capsys):
    code, out, err = run(capsys, "field-info", "--d", "5")
    assert code == 0 and err == ""
    assert "d: 5" in out and "disc: 5" in out
    assert "totally positive unit: 3/2 + 1/2*sqrt(5)" in out
    assert "gluing N_det: -1" in out


def test_field_info_json(capsys):
    code, out, _ = run(capsys, "field-info", "--d", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["disc"] == 13 and payload["n_det"] == -9
    assert payload["eps0_norm"] == -1


def test_field_info_rejects_non_squarefree(capsys):
    code, out, err = run(capsys, "field-info", "--d", "12")
    assert code == 2 and out == "" and "error:" in err


def test_w_eval_reports_a_bad_d_before_a_bad_tau(capsys):
    # main builds the field before any handler checks its own flags
    assert run(capsys, "w-eval", "--d", "4", "--tau", "abc") == (2, "", "error: d must be squarefree, got 4\n")


def test_field_info_rejects_oversized_d(capsys):
    code, out, err = run(capsys, "field-info", "--d", "100000000000000003")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sol_link_example(capsys):
    code, out, err = run(capsys, "sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "0,1")
    assert (code, out, err) == (0, "-1\n", "")


def test_sol_link_json(capsys):
    code, out, _ = run(capsys, "sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "1,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["link"] == "1"


def test_sol_link_rejects_parabolic(capsys):
    code, _, err = run(capsys, "sol-link", "--f", "1,1,0,1", "--a", "1,0", "--b", "0,1")
    assert code == 2 and "error:" in err


def test_sol_link_rejects_malformed_vector(capsys):
    code, _, err = run(capsys, "sol-link", "--f", "2,1,1,1", "--a", "1", "--b", "0,1")
    assert code == 2 and "--a needs 2 comma-separated integers" in err


def test_sol_cap_checks(capsys):
    code, out, _ = run(capsys, "sol-cap", "--f", "2,1,1,1", "--a", "1,0")
    assert code == 0
    assert "area period: 0" in out
    assert "boundary check: ok" in out
    assert "oracle probes: 5/5 agree" in out


def test_sol_cap_reports_inconsistency(capsys, monkeypatch):
    monkeypatch.setattr("sollink.sol.area_period", lambda cap: 1)
    code, out, err = run(capsys, "sol-cap", "--f", "2,1,1,1", "--a", "1,0")
    assert code == 1 and out == ""
    assert err.startswith("inconsistency:")


def test_sol_link_rejects_non_integer_vector(capsys):
    code, out, err = run(capsys, "sol-link", "--f", "2,1,1,1", "--a", "1,x", "--b", "0,1")
    assert (code, out, err) == (2, "", "error: --a needs integers, got '1,x'\n")


@pytest.mark.parametrize(
    "target, stub, message",
    [
        ("boundary_cycle", lambda cap: {}, "inconsistency: cap boundary does not match the requested circle\n"),
        ("cap_intersect", lambda *args: 7, "inconsistency: oracle mismatch on probe (1, 0): 1 != 7\n"),
    ],
    ids=["boundary", "probe"],
)
def test_sol_cap_reports_each_failed_check(capsys, monkeypatch, target, stub, message):
    monkeypatch.setattr(f"sollink.sol.{target}", stub)
    assert run(capsys, "sol-cap", "--f", "2,1,1,1", "--a", "1,0") == (1, "", message)


def test_boundary_text(capsys):
    code, out, _ = run(capsys, "boundary", "--d", "5", "--n", "4")
    assert code == 0
    assert "multiplicity 2" in out
    code, out, _ = run(capsys, "boundary", "--d", "5", "--n", "2")
    assert code == 0 and out == "no norm-2 classes\n"


def test_boundary_json(capsys):
    code, out, _ = run(capsys, "boundary", "--d", "5", "--n", "5", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["components"] == [
        {"rep": "5/2 + 1/2*sqrt(5)", "coords": ["2", "1"], "multiplicity": 1, "fiber": ["2", "1"]}
    ]


def test_lk_table_csv(capsys):
    code, out, _ = run(capsys, "lk-table", "--d", "5", "--nmax", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,value"
    assert "1,1,2" in lines and "4,1,4" in lines and "2,3,0" in lines
    assert len(lines) == 1 + 16


def test_lk_table_default_json(capsys):
    code, out, _ = run(capsys, "lk-table", "--d", "13", "--nmax", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["entries"]["1,1"] == "2/3"
    assert payload["entries"]["1,3"] == "22/3"
    assert payload["entries"]["3,1"] == "4/3"


QEXP_GOLDEN = {
    "d": 5,
    "m": 1,
    "weight": 2,
    "nmax": 5,
    "coeffs": {"1": "2", "2": "0", "3": "0", "4": "4", "5": "4"},
}


def test_qexp_golden_json(capsys):
    code, out, _ = run(capsys, "qexp", "--d", "5", "--nmax", "5")
    assert code == 0
    assert json.loads(out) == QEXP_GOLDEN


def test_qexp_json_round_trip(capsys):
    code, out, _ = run(capsys, "qexp", "--d", "13", "--nmax", "6")
    assert code == 0 and '"1": "2/3"' in out and out.endswith("}\n")
    raw = json.loads(out)
    assert (raw["d"], raw["m"], raw["weight"], raw["nmax"]) == (13, 1, 2, 6)
    assert {int(n): Fraction(c) for n, c in raw["coeffs"].items()} == lk_qexpansion(make_field(13), 1, 6).coeffs


def test_qexp_csv_and_text(capsys):
    code, out, _ = run(capsys, "qexp", "--d", "5", "--nmax", "2", "--format", "csv")
    assert code == 0 and out == "n,value,tail_estimate\n1,2,0\n2,0,0\n"
    code, out, _ = run(capsys, "qexp", "--d", "5", "--nmax", "5", "--format", "csv")
    assert code == 0 and out == "n,value,tail_estimate\n1,2,0\n2,0,0\n3,0,0\n4,4,0\n5,4,0\n"
    code, out, _ = run(capsys, "qexp", "--d", "5", "--nmax", "2", "--format", "text")
    assert code == 0 and out == "q^1: 2\nq^2: 0\n"


GOLDEN_STDOUT = {
    "field-info --d 13": (
        "d: 13\n"
        "disc: 13\n"
        "integer basis: 1, w = (1 + sqrt(d))/2\n"
        "fundamental unit: 3/2 + 1/2*sqrt(13) (norm -1)\n"
        "totally positive unit: 11/2 + 3/2*sqrt(13)\n"
        "unit trace: 11\n"
        "gluing N_det: -9\n"
    ),
    # s0 = 0 and a large unit
    "field-info --d 94 --format json": (
        "{\n"
        '  "d": 94,\n'
        '  "disc": 376,\n'
        '  "omega": "sqrt(d)",\n'
        '  "eps0": "2143295 + 221064*sqrt(94)",\n'
        '  "eps0_norm": 1,\n'
        '  "eps": "2143295 + 221064*sqrt(94)",\n'
        '  "eps_trace": "4286590",\n'
        '  "n_det": -4286588\n'
        "}\n"
    ),
    # a fundamental unit of norm -1 with s0 = 0
    "field-info --d 2": (
        "d: 2\n"
        "disc: 8\n"
        "integer basis: 1, w = sqrt(d)\n"
        "fundamental unit: 1 + 1*sqrt(2) (norm -1)\n"
        "totally positive unit: 3 + 2*sqrt(2)\n"
        "unit trace: 6\n"
        "gluing N_det: -4\n"
    ),
    "boundary --d 5 --n 4": "class 2  multiplicity 2  fiber (1, 0)\n",
    # halves in str with b != 0
    "boundary --d 5 --n 11": (
        "class 7/2 + 1/2*sqrt(5)  multiplicity 1  fiber (3, 1)\n"
        "class 4 + 1*sqrt(5)  multiplicity 1  fiber (3, 2)\n"
    ),
    "boundary --d 13 --n 3 --format json": (
        "{\n"
        '  "d": 13,\n'
        '  "n": 3,\n'
        '  "components": [\n'
        "    {\n"
        '      "rep": "5/2 + 1/2*sqrt(13)",\n'
        '      "coords": [\n        "2",\n        "1"\n      ],\n'
        '      "multiplicity": 1,\n'
        '      "fiber": [\n        "2",\n        "1"\n      ]\n'
        "    },\n"
        "    {\n"
        '      "rep": "4 + 1*sqrt(13)",\n'
        '      "coords": [\n        "3",\n        "2"\n      ],\n'
        '      "multiplicity": 1,\n'
        '      "fiber": [\n        "3",\n        "2"\n      ]\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    "sol-cap --f 5,2,2,1 --a 3,-1 --format json": (
        "{\n"
        '  "f": [\n    5,\n    2,\n    2,\n    1\n  ],\n'
        '  "circle_class": [\n    3,\n    -1\n  ],\n'
        '  "weight": "-1/4",\n'
        '  "monodromy_class": [\n    10,\n    6\n  ],\n'
        '  "fiber_correction": "14",\n'
        '  "area_period": "0",\n'
        '  "boundary_check": "ok",\n'
        '  "oracle_probes": "5/5 agree"\n'
        "}\n"
    ),
    "lk-table --d 13 --nmax 3 --format text": (
        "Lk(C1, C1) = 2/3\n"
        "Lk(C1, C2) = 0\n"
        "Lk(C1, C3) = 22/3\n"
        "Lk(C2, C1) = 0\n"
        "Lk(C2, C2) = 0\n"
        "Lk(C2, C3) = 0\n"
        "Lk(C3, C1) = 4/3\n"
        "Lk(C3, C2) = 0\n"
        "Lk(C3, C3) = 26/3\n"
    ),
    "w-eval --d 13 --tau 0.25+0.6i --box 12 --n-cut 8": (
        "tau: 0.25 + 0.6i\n"
        "holomorphic: 2.663282530179339e-07 + 0.010856259725734278i\n"
        "beta: -0.020147820924748802 - 0.0009289825529788796i\n"
        "total: -0.020147554596495785 + 0.009927277172755399i\n"
        "holo tail estimate: 7.269057244288268e-15\n"
        "beta tail estimate: 1.6653081995399082e-223\n"
    ),
    "w-eval --d 13 --tau 0.25+0.6i --box 12 --n-cut 8 --format json": (
        "{\n"
        '  "d": 13,\n'
        '  "tau": "0.25 + 0.6i",\n'
        '  "holomorphic": {\n    "re": 2.663282530179339e-07,\n    "im": 0.010856259725734278\n  },\n'
        '  "beta": {\n    "re": -0.020147820924748802,\n    "im": -0.0009289825529788796\n  },\n'
        '  "total": {\n    "re": -0.020147554596495785,\n    "im": 0.009927277172755399\n  },\n'
        '  "holo_tail": 7.269057244288268e-15,\n'
        '  "beta_tail": 1.6653081995399082e-223\n'
        "}\n"
    ),
    "sol-link --f 2,1,1,1 --a 1,0 --b 0,1 --format json": (
        '{\n  "f": [\n    2,\n    1,\n    1,\n    1\n  ],\n  "a": [\n    1,\n'
        '    0\n  ],\n  "b": [\n    0,\n    1\n  ],\n  "link": "-1"\n}\n'
    ),
    "sol-cap --f 2,1,1,1 --a 1,0": (
        "circle class: (1, 0)\nweight: -1\nmonodromy class: (1, 1)\n"
        "fiber correction: 1/2\narea period: 0\nboundary check: ok\n"
        "oracle probes: 5/5 agree\n"
    ),
    # no classes: an empty list in json
    "boundary --d 5 --n 2 --format json": '{\n  "d": 5,\n  "n": 2,\n  "components": []\n}\n',
    "lk-table --d 13 --nmax 3": (
        '{\n  "d": 13,\n  "nmax": 3,\n  "n_det": -9,\n  "entries": {\n'
        '    "1,1": "2/3",\n    "1,2": "0",\n    "1,3": "22/3",\n'
        '    "2,1": "0",\n    "2,2": "0",\n    "2,3": "0",\n'
        '    "3,1": "4/3",\n    "3,2": "0",\n    "3,3": "26/3"\n  }\n}\n'
    ),
    "qexp --d 5 --nmax 5": (
        '{\n  "d": 5,\n  "m": 1,\n  "weight": 2,\n  "nmax": 5,\n'
        '  "coeffs": {\n    "1": "2",\n    "2": "0",\n    "3": "0",\n'
        '    "4": "4",\n    "5": "4"\n  }\n}\n'
    ),
    "field-info --d 5 --format json": (
        '{\n  "d": 5,\n  "disc": 5,\n  "omega": "(1 + sqrt(d))/2",\n'
        '  "eps0": "1/2 + 1/2*sqrt(5)",\n  "eps0_norm": -1,\n'
        '  "eps": "3/2 + 1/2*sqrt(5)",\n  "eps_trace": "3",\n'
        '  "n_det": -1\n}\n'
    ),
    "ratio-test --d 5 --nmax 12": (
        "n=1 ratio=0.7071067811865471\nn=4 ratio=0.7071067811865471\n"
        "n=5 ratio=0.7071067811865475\nn=9 ratio=0.7071067811865475\n"
        "n=11 ratio=0.7071067811865478\n"
        "spread: 6.661338147750939e-16\n"
        "omitted (zero linking): 2, 3, 6, 7, 8, 10, 12\n"
    ),
    "ratio-test --d 5 --nmax 12 --format json": (
        '{\n  "d": 5,\n  "k_range": 80,\n  "ratios": {\n'
        '    "1": 0.7071067811865471,\n    "4": 0.7071067811865471,\n'
        '    "5": 0.7071067811865475,\n    "9": 0.7071067811865475,\n'
        '    "11": 0.7071067811865478\n  },\n'
        '  "spread": 6.661338147750939e-16,\n  "omitted": [\n    2,\n'
        "    3,\n    6,\n    7,\n    8,\n    10,\n    12\n  ],\n"
        '  "inconsistent": []\n}\n'
    ),
    # every suite's verdict and detail, and the summary line
    "self-test --seed 0": (
        "ok   sol-oracle: 100 random gluings agree exactly\n"
        "ok   sol-bilinear: 60 linearity probes agree exactly\n"
        "ok   sol-conjugation: 60 conjugations agree exactly\n"
        "ok   sol-asymmetry: 60 asymmetry probes agree exactly\n"
        "ok   caps: 50 random caps close exactly\n"
        "ok   beta: value at 0, monotone decay, branch agreement\n"
        "ok   ratio-quick: spread 3.33e-16 over 4 ratios\n"
        "7/7 suites passed (seed 0)\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    assert run(capsys, *argv.split()) == (0, GOLDEN_STDOUT[argv], "")


# The CLI's bytes pinned by sha256, group by group.  A group runs its calls
# in-process in order, with "$t" standing for the directory of the
# PIN_INTERIOR files.  A "stdout" group hashes the joined stdout of its calls,
# each of which must exit 0 with an empty stderr; a "stderr" group hashes each
# call's stderr followed by "exit N\n".  Every group must end within
# PIN_BOUND_S.  A change that moves bytes recaptures the hash here and lists
# it in CHANGES.md.
PIN_BOUND_S = 60.0
PIN_INTERIOR = {
    "interior.json": '{"m": 2, "entries": {"1": "1/3", "2": "-2", "3": "0", "4": "5/7", "5": "1", "6": "-1/2"}}\n',
    "interior_m0.json": '{"m": 0, "entries": {"1": "1"}}\n',
    "interior_mtrue.json": '{"m": true, "entries": {"1": "1"}}\n',
    "interior_mstr.json": '{"m": "2", "entries": {"1": "1"}}\n',
}
BYTE_PINS = {
    # seeds 0-4: the seeds vary only the Sol gluings, classes and caps drawn;
    # every suite's draws, verdict and detail stay byte-identical (a failing
    # suite prints a FAIL line and exits 1, and either fails the group)
    "Self-test": (
        "stdout",
        [f"self-test --seed {seed}" for seed in range(5)],
        "171ea94719781a3a0759e2a49388ab155a6372341fce737b3747507c574c8613",
    ),
    # lk-table at the largest nmax the CLI accepts (10^6 cells)
    "Largest link table": (
        "stdout",
        ["lk-table --d 5 --nmax 1000 --format csv"],
        "21fe38234ff4cac06fb1186ec4ad50b8552ec42b13760b0d5f96d1d9bb9c1077",
    ),
    # field-info and boundary json over both bases (s0 = 0, 1), units of
    # either norm and a large unit (d = 94), so the rendering of units, reps
    # and fibers stays byte-identical
    "Field and boundary rendering": (
        "stdout",
        [
            argv
            for d in (2, 3, 5, 13, 17, 94)
            for argv in [f"field-info --d {d} --format json"]
            + [f"boundary --d {d} --n {n} --format json" for n in (1, 3, 4, 11, 12)]
        ],
        "b07798487d5cde22bfe3cada0d3834975900be24abcfa0fd806e2e0d45eff7a6",
    ),
    # boundary at d = 151 and d = 389, n = 1 (b ranges of 1.4e8 and 1e6):
    # the budget charges the b the residue wheel visits, so both run (the
    # single class rep 1 each)
    "Large-field boundary": (
        "stdout",
        ["boundary --d 151 --n 1 --format json", "boundary --d 389 --n 1"],
        "b34df4f013586c78d4861a6b3c11d2d9f8b145fa0b2d0540fec10cd8348bc79d",
    ),
    # range commands at large units, which the closed-form budget admits
    # since one sweep serves every norm: lk-table at d = 151 (eps about
    # 3.5e9), qexp at d = 94 up to nmax 2000 and w-eval at d = 151
    "Large-unit ranges": (
        "stdout",
        [
            "lk-table --d 151 --nmax 20 --format csv",
            "qexp --d 94 --nmax 2000",
            "w-eval --d 151 --tau 0.3+1i --n-cut 40",
        ],
        "bfdeb427191d5814fe5b51b7b54dc4be26122fc7025b33e2bdc3e5e3c5379c2a",
    ),
    # sol-link text and sol-cap json over ten gluings of either trace sign
    # and three classes, the zero class among them, so linking numbers and
    # cap records stay byte-identical
    "Sol rendering": (
        "stdout",
        [
            argv
            for f in ("2,1,1,1", "3,1,2,1", "-2,1,1,-1", "-3,-1,-2,-1", "5,2,2,1", "1,1,1,2", "0,1,-1,3", "0,-1,1,-3", "4,-1,1,0", "7,3,2,1")
            for a in ("0,0", "2,-1", "-3,5")
            for argv in (f"sol-link --f={f} --a={a} --b=1,2", f"sol-cap --f={f} --a={a} --format json")
        ],
        "ff476b64d386946ae377731e87f0c1610cd03dd16314157c35bc3de30373d30f",
    ),
    # qexp at m = 3, combine over an interior table and lk-table, each in
    # json, csv and text over four fields (d = 94 has a large unit), so
    # every format of the three table commands stays byte-identical
    "Table rendering": (
        "stdout",
        [
            argv
            for d in (2, 5, 13, 94)
            for fmt in ("json", "csv", "text")
            for argv in (
                f"qexp --d {d} --m 3 --nmax 12 --format {fmt}",
                f"combine --d {d} --interior $t/interior.json --nmax 6 --format {fmt}",
                f"lk-table --d {d} --nmax 8 --format {fmt}",
            )
        ],
        "4d8b581092462c99362563dd1f00df2f4c837f69b2d006690c95f3822439d16e",
    ),
    # the fields the table sweep must get right beyond "Table rendering":
    # unit norm +1 on both bases (d = 3, 6, 7, 21, 79) and class numbers
    # 2 and 3 (d = 10, 79) at nmax 40, a column past nmax (m = 50 has no
    # classes, m = 55 has), and large units (d = 151 and d = 94 up to
    # nmax 300)
    "Table sweep fields": (
        "stdout",
        [f"lk-table --d {d} --nmax 40 --format csv" for d in (3, 6, 7, 10, 21, 79)]
        + ["qexp --d 5 --m 50 --nmax 10", "qexp --d 5 --m 55 --nmax 10", "qexp --d 151 --nmax 1", "qexp --d 94 --nmax 300"],
        "25109b958b90dc953b685afb8d3b3e903513bdd1ab3a85583f6dd80d2f223d6c",
    ),
    # w-eval text over both bases (s0 = 0, 1) and a large unit (d = 94),
    # boxes that clip the beta sums (3) and hold all of them (40), and
    # Im tau from 0.05 to 2.5, plus one json call per field, so every float
    # of the completed series stays bit-identical; 3.7+2.5i is evaluated at
    # its Re tau mod 1
    "Series rendering": (
        "stdout",
        [
            argv
            for d in (2, 5, 13, 94)
            for argv in [
                f"w-eval --d {d} --tau={tau} --box {box} --n-cut 12"
                for tau in ("0.25+0.6i", "-0.4+2i", "0.3+0.05i", "3.7+2.5i", "0.1+0.15i")
                for box in (3, 40)
            ]
            + [f"w-eval --d {d} --tau=-0.2+0.9i --format json"]
        ],
        "57cafa4c652c2ce42c13f29eb2f8605fb13a8dc3f61279ab8aa0c1ba040d2954",
    ),
    # malformed input to every subcommand, bad indices, truncations, d, tau
    # and interior tables, so every error message stays byte-identical
    "CLI error rendering": (
        "stderr",
        [
            "field-info --d 0",
            "field-info --d 1",
            "field-info --d -5",
            "field-info --d 4",
            "field-info --d 1000001",
            "field-info --d 5 --format csv",
            "sol-link --f 1,2,3,4 --a 1,0 --b 0,1",
            "sol-link --f 1,0,0,1 --a 1,0 --b 0,1",
            "sol-link --f 2,1,1,1 --a 1 --b 0,1",
            "sol-link --f 2,1,1,1 --a x,0 --b 0,1",
            "sol-cap --f 2,1,1,1 --a 1,2,3",
            "boundary --d 5 --n 0",
            "boundary --d 13 --n -3",
            "boundary --d 12 --n 1",
            "lk-table --d 5 --nmax 0",
            "lk-table --d 5 --nmax -2",
            "lk-table --d 5 --nmax 1001",
            "qexp --d 5 --nmax 0",
            "qexp --d 5 --m 0 --nmax 3",
            "qexp --d 5 --m -1 --nmax 3",
            "ratio-test --d 5 --nmax 0",
            "ratio-test --d 5 --nmax 3 --k-range 0",
            "ratio-test --d 5 --nmax 3 --k-range 10001",
            "w-eval --d 5 --tau 0.3+1i --box 0",
            "w-eval --d 5 --tau 0.3+1i --box 1001",
            "w-eval --d 5 --tau 0.3+1i --k-range 0",
            "w-eval --d 5 --tau 0.3+1i --k-range 10001",
            "w-eval --d 5 --tau 0.3+1i --n-cut 0",
            "w-eval --d 5 --tau 0.3+1i --n-cut -1",
            "w-eval --d 5 --tau 0.3-1i",
            "w-eval --d 5 --tau abc",
            "w-eval --d 5 --tau nan+1i",
            "combine --d 5 --interior $t/interior_m0.json --nmax 1",
            "combine --d 5 --interior $t/interior_mtrue.json --nmax 1",
            "combine --d 5 --interior $t/interior_mstr.json --nmax 3",
            "combine --d 5 --interior $t/interior_mstr.json --nmax 1 --m 1",
            "combine --d 5 --interior $t/interior_mstr.json --nmax 0",
            "combine --d 5 --interior $t/interior_mstr.json --nmax 10",
            "combine --d 5 --interior $t/interior_mstr.json --nmax 11",
        ],
        "82671175f8f21fd76a6f22f9f304a960961478321fb658ca494373097123ef2c",
    ),
    # every byte of two tables large enough that most cells share a value
    "lk-table --d 5 --nmax 100 --format csv": (
        "stdout",
        ["lk-table --d 5 --nmax 100 --format csv"],
        "6d27a5afc942f04bf400d2449e6611af424fe14244308035830f11207572939e",
    ),
    "lk-table --d 17 --nmax 60 --format csv": (
        "stdout",
        ["lk-table --d 17 --nmax 60 --format csv"],
        "7318bba2b5b4c22e7d62111d8f83dea6e8bc8f5a46cdfc326e22d8e65877c732",
    ),
}


@pytest.mark.parametrize("group", list(BYTE_PINS))
def test_byte_pins(tmp_path, group):
    stream, argvs, sha256 = BYTE_PINS[group]
    for name, text in PIN_INTERIOR.items():
        (tmp_path / name).write_bytes(text.encode())
    chunks, total = [], 0.0
    for argv in argvs:
        code, out, err, elapsed = call([token.replace("$t", str(tmp_path)) for token in argv.split()])
        total += elapsed
        if stream == "stdout":
            assert (code, err) == (0, ""), argv
            chunks.append(out)
        else:
            chunks.append(f"{err}exit {code}\n")
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == sha256
    assert total < PIN_BOUND_S


def test_every_subcommand_has_pinned_stdout():
    """A subcommand without pinned stdout bytes, in BYTE_PINS or GOLDEN_STDOUT,
    fails here."""
    pinned = {argv.split()[0] for argv in GOLDEN_STDOUT}
    pinned |= {argv.split()[0] for stream, argvs, _ in BYTE_PINS.values() if stream == "stdout" for argv in argvs}
    assert set(cli._COMMANDS) <= pinned, set(cli._COMMANDS) - pinned


def test_ratio_test_at_a_large_unit():
    # ratio-test at d = 151, where eps is about 3.5e9 and its conjugate
    # 2.9e-10: the orbit-minimum series takes each conjugate as N(mu)/mu, so
    # the ratios agree to float noise (a + b*w' cancelled to a spread of
    # 3.4e-8); the norms 1..40 come from one sweep of the symmetric domain
    code, out, err, elapsed = call(["ratio-test", "--d", "151", "--nmax", "40", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["spread"] <= 1e-14
    assert elapsed < PIN_BOUND_S


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "field-info", "--d", "5", "--format", "csv")
    assert code == 2 and "csv is not available" in err


def test_w_eval_runs(capsys):
    code, out, _ = run(capsys, "w-eval", "--d", "5", "--tau", "0.5+1.0i", "--box", "6", "--n-cut", "4")
    assert code == 0
    assert "holomorphic:" in out and "beta:" in out and "tail estimate" in out


def test_w_eval_json_deterministic(capsys):
    argv = ("w-eval", "--d", "5", "--tau", "1.25i", "--box", "5", "--n-cut", "3", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["tau"] == "0.0 + 1.25i"
    assert payload["beta"]["re"] < 0


BAD_TAU = {
    "1.0": "--tau must have positive imaginary part",
    "0.5-2i": "--tau must have positive imaginary part",
    "abc": "--tau must look like RE+IMi",
    "1+0i": "--tau must have positive imaginary part",
    "nan+1i": "tau must be finite",
    "0+1e400i": "tau must be finite",
    "inf+1i": "tau must be finite",
    "1+infi": "tau must be finite",
    "-0.5+1e-320i": "Im tau must be at least 1e-08",
    "0+1e-17i": "Im tau must be at least 1e-08",
    "0.0+1e308i": "Im tau must be at most 1000000",
}


@pytest.mark.parametrize("bad_tau", list(BAD_TAU))
def test_w_eval_rejects_bad_tau(capsys, bad_tau):
    code, out, err = run(capsys, "w-eval", "--d", "5", f"--tau={bad_tau}")
    assert code == 2 and out == "" and "error:" in err
    assert BAD_TAU[bad_tau] in err


@pytest.mark.parametrize("far", ["1e308", "-1e7"])
def test_w_eval_reduces_re_tau_mod_1(capsys, far):
    # W has period 1 in tau: any finite Re tau is read mod 1
    code, out, err = run(capsys, "w-eval", "--d", "5", f"--tau={far}+1i")
    near = run(capsys, "w-eval", "--d", "5", f"--tau={math.fmod(float(far), 1.0)!r}+1i")
    assert (code, err) == (0, "") and near[0] == 0
    assert out.splitlines()[1:] == near[1].splitlines()[1:]


@pytest.mark.parametrize(
    "split, joined",
    [
        ("w-eval --d 5 --tau -0.2+0.5i --box 6 --n-cut 4", "w-eval --d 5 --tau=-0.2+0.5i --box 6 --n-cut 4"),
        ("w-eval --d 13 --tau -.25+1i --format json", "w-eval --d 13 --tau=-.25+1i --format json"),
        ("sol-link --f -2,1,1,-1 --a -1,0 --b 0,1", "sol-link --f=-2,1,1,-1 --a=-1,0 --b=0,1"),
        ("sol-link --f 2,1,1,1 --a 1,0 --b -3,2 --format json", "sol-link --f 2,1,1,1 --a 1,0 --b=-3,2 --format json"),
        ("sol-cap --f -3,1,-1,0 --a -1,2", "sol-cap --f=-3,1,-1,0 --a=-1,2"),
    ],
)
def test_signed_value_after_its_flag(capsys, split, joined):
    # a value that starts with '-' and a digit or '.' may also follow its flag
    code, out, err = run(capsys, *split.split())
    assert (code, err) == (0, "") and out
    assert run(capsys, *joined.split()) == (code, out, err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--tau", "-1x"), "error: --tau must look like RE+IMi, got '-1x'"),
        (("--tau=-x",), "error: --tau must look like RE+IMi, got '-x'"),
        (("--tau", "-x"), "argument --tau: expected one argument"),
        (("--tau", "--"), "error:"),
    ],
)
def test_signed_value_errors(capsys, argv, message):
    code, out, err = run(capsys, "w-eval", "--d", "5", *argv)
    assert (code, out) == (2, "") and message in err


def test_help_after_a_signed_value(capsys):
    code, out, err = run(capsys, "w-eval", "--d", "5", "--tau", "-0.5+1i", "-h")
    assert (code, err) == (0, "") and out.startswith("usage: sollink w-eval")


@pytest.mark.parametrize(
    "flag, value, message",
    [("--box", "1001", "box must be at most 1000"), ("--k-range", "10001", "k_range must be at most 10000")],
)
def test_w_eval_rejects_oversized_truncation(capsys, flag, value, message):
    code, out, err = run(capsys, "w-eval", "--d", "5", "--tau", "0.5+1i", flag, value)
    assert (code, out) == (2, "") and err == f"error: {message}, got {value}\n"


# The budget charges the sweep behind a range of norms its rows and points and
# a lone norm the b its residue wheel visits: 1.3e26 at d=991, n=1 (a b range
# of 1.2e28), 9.9e14 for lk-table d=991 up to nmax 20, 1.4e15 up to n = 40,
# 4.5e13 for m = 10^30 at d=5.  Every range command holds at most 10^6
# entries.  The orbit-minimum sums of ratio-test and w-eval at k-range 10^4
# up to n = 2*10^4 at d = 5 are charged 5.9e8 steps (about 80 s each before
# they were charged).
OVER_BUDGET = {
    ("boundary", "--d", "991", "--n", "1"): "need more than 30000000 steps",
    ("lk-table", "--d", "94", "--nmax", "2000"): "gives 4000000 cells, more than 1000000",
    ("lk-table", "--d", "991", "--nmax", "20"): "need more than 30000000 steps",
    ("qexp", "--d", "5", "--nmax", str(10**18)): f"norms up to n = {10**18} give more than 1000000 entries",
    ("qexp", "--d", "13", "--nmax", str(10**18)): f"norms up to n = {10**18} give more than 1000000 entries",
    ("qexp", "--d", "5", "--nmax", "3", "--m", str(10**30)): "need more than 30000000 steps",
    ("ratio-test", "--d", "991", "--nmax", "40"): "need more than 30000000 steps",
    ("w-eval", "--d", "991", "--tau", "0+1i", "--n-cut", "40"): "need more than 30000000 steps",
    ("ratio-test", "--d", "5", "--nmax", "20000", "--k-range", "10000"): "need more than 30000000 steps",
    ("w-eval", "--d", "5", "--tau", "0.1+1i", "--k-range", "10000", "--n-cut", "20000"): "need more than 30000000 steps",
}


@pytest.mark.parametrize("argv", sorted(OVER_BUDGET))
def test_over_budget_scans_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
    assert OVER_BUDGET[argv] in err


def test_combine_counts_the_table_m_in_the_budget(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 10**30, "entries": {"1": "0"}}), encoding="utf-8")
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    assert (code, out) == (2, "") and f"up to n = {10**30}" in err


def test_budget_charges_the_visited_b_not_the_b_range(capsys):
    # the b range at d=151, n=1 has 1.4e8 values, the wheel visits 2.1e6 of
    # them; 1 is the only totally positive unit in the domain
    code, out, err = run(capsys, "boundary", "--d", "151", "--n", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert [c["rep"] for c in json.loads(out)["components"]] == ["1"]


@pytest.mark.parametrize("d", [5, 13, 94])
def test_budget_accepts_what_the_b_range_count_accepts(d):
    # a norm is never charged more than its b range, so an input within
    # the budget by that count stays within it
    field = make_field(d)
    nmax, steps = 0, 0
    while steps + _scan_length(field, nmax + 1) <= cli._SCAN_BUDGET:
        nmax += 1
        steps += _scan_length(field, nmax)
    cli._check_scan_budget(field, nmax)


# The largest nmax of ratio-test and n-cut of w-eval the budget admits, at
# the default k-range (80 and 60) and at 10^4.  It charges each class of the
# sweep its orbit sum, and the classes per norm grow with ln(Tr eps)/sqrt(disc):
# 0.49 at d = 5, 1.89 at d = 97.  As subprocesses each top takes 3-6 s.
ORBIT_TOPS = {
    3: {"ratio-test": (143050, 1246), "w-eval": (185537, 1246)},
    5: {"ratio-test": (116518, 1015), "w-eval": (151125, 1015)},
    13: {"ratio-test": (86073, 750), "w-eval": (111638, 750)},
    41: {"ratio-test": (44020, 384), "w-eval": (57087, 384)},
    97: {"ratio-test": (27208, 260), "w-eval": (34778, 260)},
}
ORBIT_ARGV = {"ratio-test": ["ratio-test", "--nmax"], "w-eval": ["w-eval", "--tau=0.1+1i", "--n-cut"]}


def default_k_range(command):
    return cli._build_parser().parse_args([*ORBIT_ARGV[command], "1", "--d", "5"]).k_range


@pytest.mark.parametrize("d", [3, 5, 13])
def test_default_k_range_binds_first(d):
    # at its default k-range the orbit sums of each subcommand bind before
    # the sweep alone and the entries cap
    field = make_field(d)
    for command, (top, _) in ORBIT_TOPS[d].items():
        k_range = default_k_range(command)
        cli._check_scan_budget(field, top + 1)
        cli._check_scan_budget(field, top, k_range=k_range)
        with pytest.raises(InputError, match=f"up to n = {top + 1} at d = {d} need more than 30000000 steps"):
            cli._check_scan_budget(field, top + 1, k_range=k_range)


@pytest.mark.parametrize("d", [5, 13, 41, 97])
@pytest.mark.parametrize("command", sorted(ORBIT_ARGV))
def test_one_past_the_orbit_top_exits_2_at_once(capsys, d, command):
    field = make_field(d)
    for k_range, top in zip((default_k_range(command), 10**4), ORBIT_TOPS[d][command]):
        cli._check_scan_budget(field, top, k_range=k_range)
        start = time.perf_counter()
        code, out, err = run(capsys, *ORBIT_ARGV[command], str(top + 1), "--k-range", str(k_range), "--d", str(d))
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err == f"error: norm-class scans up to n = {top + 1} at d = {d} need more than 30000000 steps\n"


def test_range_commands_hold_at_most_a_million_entries():
    field = make_field(5)
    cli._check_scan_budget(field, 10**6)
    with pytest.raises(InputError, match="norms up to n = 1000001 give more than 1000000 entries"):
        cli._check_scan_budget(field, 10**6 + 1)


def test_lk_table_at_a_large_unit_runs(capsys):
    # d = 151: eps has trace 3.5e9, and the sweep up to nmax 20 has 2e4 rows
    start = time.perf_counter()
    code, out, err = run(capsys, "lk-table", "--d", "151", "--nmax", "20", "--format", "csv")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    cells = [f"{n},{m},{v}" for (n, m), v in link_table(make_field(151), 20).entries.items()]
    assert out == "\n".join(["n,m,value", *cells]) + "\n"


def test_orbit_budget_at_the_largest_k_range(capsys):
    field = make_field(5)
    cli._check_scan_budget(field, 1015, k_range=10**4)
    with pytest.raises(InputError, match="up to n = 1016 at d = 5 need more than 30000000 steps"):
        cli._check_scan_budget(field, 1016, k_range=10**4)
    # an oversized k-range is named by the library's own check
    code, out, err = run(capsys, "ratio-test", "--d", "5", "--nmax", "1500", "--k-range", "10001")
    assert (code, out) == (2, "") and err == "error: k_range must be at most 10000, got 10001\n"


def test_ratio_test_rejects_oversized_k_range(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "ratio-test", "--d", "5", "--nmax", "5", "--k-range", "10001")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and err == "error: k_range must be at most 10000, got 10001\n"


def test_ratio_test_reports_inconsistent_indices(capsys, monkeypatch):
    from sollink import qseries

    report = qseries.RatioReport(d=5, k_range=80, ratios={1: 0.5}, spread=0.0, omitted=(), inconsistent=(2, 3))
    monkeypatch.setattr(qseries, "holomorphic_ratio_test", lambda field, nmax, k_range: report)
    code, out, err = run(capsys, "ratio-test", "--d", "5", "--nmax", "3")
    assert (code, err) == (1, "")
    assert out == "n=1 ratio=0.5\nspread: 0.0\nINCONSISTENT (zero linking, nonzero series): 2, 3\n"


def test_ratio_test_text(capsys):
    code, out, _ = run(capsys, "ratio-test", "--d", "5", "--nmax", "6", "--k-range", "60")
    assert code == 0
    assert "n=1 ratio=0.70710678" in out
    assert "spread:" in out
    assert "omitted (zero linking): 2, 3, 6" in out


def test_combine_round_trip(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_text(
        json.dumps({"m": 1, "entries": {str(n): "0" for n in range(1, 6)}}), encoding="utf-8"
    )
    code, out, _ = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "5")
    assert code == 0
    assert json.loads(out)["coeffs"] == {"1": "-2", "2": "0", "3": "0", "4": "-4", "5": "-4"}


def test_combine_m_mismatch(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 2, "entries": {"1": "0"}}), encoding="utf-8")
    code, _, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1", "--m", "1")
    assert code == 2 and "does not match" in err


def test_combine_missing_file(capsys):
    code, _, err = run(capsys, "combine", "--d", "5", "--interior", "/nonexistent.json", "--nmax", "1")
    assert code == 2 and "cannot read interior table" in err


def test_combine_rejects_non_utf8_file(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_bytes(b'\xff\xfe{"m": 1}')
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    assert (code, out) == (2, "") and err.startswith("error: cannot read interior table:") and err.count("\n") == 1


# an index given twice: as another spelling of the same int, or as the same key
INTERIOR_REPEATED_KEY = '{"m": 1, "entries": {"1": "2", "1": "5", "2": "0"}}'


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"m": 1, "entries": {"1": "2", "01": "5", "2": "0"}}), "repeats n = 1 (key '01')"),
        (json.dumps({"m": 1, "entries": {"1": "2", " 1 ": "5", "2": "0"}}), "repeats n = 1 (key ' 1 ')"),
        (INTERIOR_REPEATED_KEY, "repeats the key '1'"),
        ('{"m": 1, "m": 2, "entries": {"1": "2", "2": "0"}}', "repeats the key 'm'"),
    ],
    ids=["leading-zero", "spaces", "same-key", "same-m"],
)
def test_combine_rejects_a_repeated_index(tmp_path, capsys, text, message):
    table = tmp_path / "interior.json"
    table.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "2")
    assert (code, out) == (2, "")
    assert err == f"error: interior table {message}\n"


def test_combine_incomplete_table(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": {"1": "5"}}), encoding="utf-8")
    code, _, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "3")
    assert code == 2 and "missing n = 2, 3" in err


def test_combine_counts_the_missing_indices_past_ten(tmp_path, capsys, monkeypatch):
    # the gaps are found before the scan budget is planned, at a cost that
    # does not grow with nmax, and also at an nmax over the budget
    def unplanned(*args):
        raise AssertionError("the scan budget was planned for a table with gaps")

    monkeypatch.setattr(cli, "_check_scan_budget", unplanned)
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": {"1": "5"}}), encoding="utf-8")
    for nmax in (100000, 10**18):
        code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", str(nmax))
        assert (code, out) == (2, "")
        assert err == f"error: interior table is missing n = 2, 3, 4, 5, 6, 7, 8, 9, 10, 11 and {nmax - 11} more\n"


# Whole interior files that json.loads rejects with RecursionError or, over the
# interpreter's integer digit limit (4300 by default), with a plain ValueError.
BIG_INT = "7" * 5000
INTERIOR_TOO_DEEP = "[" * 200_000
INTERIOR_BIG_ENTRY = '{"m": 1, "entries": {"1": %s}}' % BIG_INT
INTERIOR_BIG_M = '{"m": %s, "entries": {"1": "1"}}' % BIG_INT
INT_DIGITS_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(BIG_INT)


@pytest.mark.parametrize(
    "entries",
    [
        ["1", "2"],
        {"1": None},
        {"1": 0.1},
        {"1": True},
        pytest.param(INTERIOR_TOO_DEEP, id="too-deep"),
        pytest.param(INTERIOR_BIG_ENTRY, id="big-int-entry"),
        pytest.param(INTERIOR_BIG_M, id="big-int-m"),
    ],
)
def test_combine_rejects_malformed_interior(tmp_path, capsys, entries):
    """`entries` is the entries of an m = 1 table, or a str holding the whole file."""
    table = tmp_path / "interior.json"
    text = entries if isinstance(entries, str) else json.dumps({"m": 1, "entries": entries})
    table.write_text(text, encoding="utf-8")
    # nmax 1: a well-formed {"1": ...} table would be complete, so only the entry fails
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    if code == 0 and BIG_INT in text and not INT_DIGITS_LIMITED:
        return  # without the digit limit the big int is a valid rational
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Interior entries that spell integers over the digit limit: three literals,
# the last of which Fraction alone does not expand within 20 s, and one that parses
# but whose coefficient 1/77...7 - Lk(1, 1) has a 4301-digit numerator
@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300, reason="default digit limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("1e5000", "rational literal of more than 4300 digits, starting '1e5000'"),
        ("1e-5000", "rational literal of more than 4300 digits, starting '1e-5000'"),
        ("1/" + "7" * 4300, "the coefficient of q^1 has more than 4300 digits"),
        ("1e100000000", "rational literal of more than 4300 digits, starting '1e100000000'"),
    ],
    ids=["exp-5000", "exp-minus-5000", "long-denominator", "exp-10^8"],
)
def test_combine_rejects_entries_over_the_digit_limit(tmp_path, capsys, entry, message, fmt):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": {"1": entry, "2": "0", "3": "0"}}), encoding="utf-8")
    start = time.perf_counter()
    result = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "3", "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", f"error: {message}\n")


@pytest.fixture
def no_digit_limit():
    """The interpreter's int digit limit switched off, as PYTHONINTMAXSTRDIGITS=0
    does; Python 3.10 has no limit to switch off."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("entry", ["1e100000000", "1e-100000000", "1e5000"])
def test_combine_caps_literals_without_a_digit_limit(tmp_path, capsys, no_digit_limit, entry):
    # with no limit set, the literal cap falls back to CPython's default
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": {"1": entry, "2": "0", "3": "0"}}), encoding="utf-8")
    start = time.perf_counter()
    result = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "3")
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", f"error: rational literal of more than 4300 digits, starting {entry!r}\n")


@pytest.mark.parametrize(
    "entries, start",
    [
        ({"1": "a" * 100_000}, "not a rational literal: 'aaaa"),
        ({"1": "\u20ac" * 100_000}, "not a rational literal: '\\u20ac"),
        ({"1": ["1"] * 100_000}, "not a rational literal: ['1', "),
        ({"x" * 100_000: "1"}, "bad index in interior table: 'xxxx"),
    ],
    ids=["letters", "non-ascii", "array", "index"],
)
def test_combine_quotes_a_bounded_prefix_of_a_long_value(tmp_path, capsys, entries, start):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": entries}), encoding="utf-8")
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {start}") and err.endswith(" characters)\n") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 200


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "field-info", "--d", "5", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1


ENOSPC = "[Errno 28] No space left on device"


def _raise_enospc(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing, reason", [("write", ENOSPC), ("flush", ENOSPC), ("closed", "stdout is closed")])
def test_unwritable_stdout_exits_2(capsys, monkeypatch, failing, reason):
    stdout = None
    if failing != "closed":
        stdout = io.StringIO()
        setattr(stdout, failing, _raise_enospc)
    monkeypatch.setattr(sys, "stdout", stdout)
    code, out, err = run(capsys, "field-info", "--d", "5")
    assert (code, out, err) == (2, "", f"error: cannot write output: {reason}\n")


@pytest.mark.parametrize("stdout, reason", [("full", ENOSPC), ("closed", "stdout is closed")])
def test_unwritable_stdout_in_a_fresh_interpreter(stdout, reason):
    """The one error line is all a call prints: nothing is left for the
    interpreter to flush, and fail on, at exit."""
    argv = [sys.executable, "-m", "sollink.cli", "lk-table", "--d", "5", "--nmax", "60"]
    if stdout == "closed":
        proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True, timeout=60, preexec_fn=lambda: os.close(1))
    elif os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    else:
        pytest.skip("no /dev/full")
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write output: {reason}\n")


def test_output_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "qexp", "--d", "13", "--nmax", "4")
    target = tmp_path / "series.json"
    code2 = cli.main(["qexp", "--d", "13", "--nmax", "4", "--output", str(target)])
    capsys.readouterr()
    assert code == code2 == 0
    assert target.read_bytes().decode("utf-8") == out


@pytest.mark.parametrize("dest", ["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("nmax", [1, 2, 37])
@pytest.mark.parametrize("command", ["lk-table", "qexp", "combine"])
def test_streamed_output_matches_the_whole_string(tmp_path, capsys, command, nmax, fmt, dest):
    """The range commands write one row at a time; the bytes are those of the
    whole-string renderer (tests/oracles.render_reference)."""
    f = make_field(13)
    argv = [command, "--d", "13", "--nmax", str(nmax), "--format", fmt]
    if command == "lk-table":
        expected = lk_table_output_reference(link_table(f, nmax), fmt)
    elif command == "qexp":
        argv += ["--m", "3"]
        expected = qexp_output_reference(lk_qexpansion(f, 3, nmax), fmt)
    else:
        interior = tmp_path / "interior.json"
        interior.write_text(json.dumps({"m": 2, "entries": {str(n): f"{n}/7" for n in range(1, nmax + 1)}}))
        argv += ["--interior", str(interior)]
        table = InteriorTable(m=2, entries={n: Fraction(n, 7) for n in range(1, nmax + 1)})
        expected = qexp_output_reference(combine_interior(table, f, nmax), fmt)
    if dest == "output":
        argv += ["--output", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if dest == "output":
        assert out == ""
        out = (tmp_path / "out").read_bytes().decode("utf-8")
    assert out == expected


def test_lk_table_renders_a_plain_dict_table(monkeypatch, capsys):
    # lk-table reads its cells through entries.items(), so a LinkTable whose
    # entries is a plain dict renders the same bytes
    code, expected, _ = run(capsys, "lk-table", "--d", "13", "--nmax", "6", "--format", "text")
    def as_dict(f, nmax):
        table = link_table(f, nmax)
        return dataclasses.replace(table, entries=dict(table.entries))

    monkeypatch.setattr("sollink.cycles.link_table", as_dict)
    assert run(capsys, "lk-table", "--d", "13", "--nmax", "6", "--format", "text") == (code, expected, "")


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_lk_table_streams_in_bounded_memory(monkeypatch, fmt):
    # tracemalloc peak of the call on Python 3.11: 36.4 MiB (json), 16.2 MiB
    # (csv) and 17.8 MiB (text) when the whole table and the whole output
    # string were built, 0.11 MiB in every format written one row at a time
    monkeypatch.setattr(sys, "stdout", _Discard())
    argv = ["lk-table", "--d", "5", "--format", fmt, "--nmax"]
    assert cli.main(argv + ["1"]) == 0  # the imports and the field, before tracing
    tracemalloc.start()
    try:
        code = cli.main(argv + ["300"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


def test_self_test_passes(capsys):
    code, out, _ = run(capsys, "self-test", "--seed", "0")
    assert code == 0
    assert "7/7 suites passed (seed 0)" in out
    assert "FAIL" not in out


def test_self_test_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr("sollink.selftest.run_suites", lambda seed: [("stub", False, "boom")])
    code, out, _ = run(capsys, "self-test")
    assert code == 1 and "FAIL stub: boom" in out


def test_self_test_json(capsys, monkeypatch):
    code, out, err = run(capsys, "self-test", "--seed", "0", "--format", "json")
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert list(payload) == ["seed", "suites", "passed", "total"]
    assert payload["seed"] == 0 and payload["passed"] == payload["total"] == 7
    assert all(list(suite) == ["name", "ok", "detail"] and suite["ok"] is True for suite in payload["suites"])
    verdicts = [("stub", False, "boom"), ("other", True, "fine")]
    monkeypatch.setattr("sollink.selftest.run_suites", lambda seed: verdicts)
    code, out, _ = run(capsys, "self-test", "--seed", "3", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "seed": 3,
        "suites": [{"name": "stub", "ok": False, "detail": "boom"}, {"name": "other", "ok": True, "detail": "fine"}],
        "passed": 1,
        "total": 2,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("field-info", "--d=--"),
        ("sol-link", "--f=--", "--a", "1,0", "--b", "0,1"),
        ("ratio-test", "--d", "5", "--nmax", "3", "--k-range=--"),
        ("qexp", "--d", "5", "--nmax", "3", "--format=--"),
    ],
    ids=["field-info-d", "sol-link-f", "ratio-test-k-range", "qexp-format"],
)
def test_double_dash_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "error:" in err


def test_unknown_command(capsys):
    code = cli.main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_missing_required_flag(capsys):
    code = cli.main(["qexp", "--d", "5"])
    capsys.readouterr()
    assert code == 2


# argvs for the lean parser: help, missing and unknown commands, an option
# before the command, missing and repeated flags, unrecognized arguments, bad
# types and choices, '--' in several places, and calls that run
PARSER_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("sol-link", "-h"),
    ("boundary", "--help"),
    ("no-such-command",),
    ("--format", "json", "field-info", "--d", "5"),
    ("--", "field-info", "--d", "5"),
    ("sol-link", "--f", "2,1,1,1", "--a", "1,0"),
    ("lk-table", "--d", "5"),
    ("sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "0,1", "--zzz"),
    ("field-info", "--d", "5", "extra"),
    ("boundary", "--d", "five", "--n", "1"),
    ("self-test", "--seed", "x"),
    ("field-info", "--d", "5", "--format", "xml"),
    ("field-info", "--d", "5", "--output"),
    ("qexp", "--d", "5", "--nmax", "3", "--m"),
    ("sol-link", "--f", "2,1,1,1", "--a", "1,0", "--a", "0,1", "--b", "0,1"),
    ("sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "0,1", "--"),
    ("sol-link", "--", "--f", "2,1,1,1"),
    ("field-info", "--d=--"),
    ("field-info", "--d", "5", "--format", "csv"),
    ("sol-cap", "--f", "-2,1,1,-1", "--a", "2,-1", "--format", "json"),
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_lean_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    """main() builds only the subparser argv[0] names; its stdout, stderr and
    exit code are those of main() on the full parser."""
    built = []
    lean = cli._build_parser

    def recorded(only=None):
        built.append(only)
        return lean(only)

    monkeypatch.setattr(cli, "_build_parser", recorded)
    got = run(capsys, *argv)
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: lean())
    assert got == run(capsys, *argv)


def test_command_list_matches_the_full_parser():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert tuple(sub.choices) == tuple(cli._COMMANDS)
    for name in cli._COMMANDS:
        (sub,) = [a for a in cli._build_parser(name)._actions if a.dest == "command"]
        assert tuple(sub.choices) == (name,)


# The CLI's exit-code contract under fuzzed argv and interior files.
#
# Each of the ten subcommands runs in-process with flags drawn from bounded
# ranges plus their edges (0, negatives, each cap and cap + 1), junk strings,
# tau texts with nan/inf/huge/tiny parts, and malformed or mistyped interior
# tables.  Every call must return 0 or 2 (1 is a failed cross-check), raise
# nothing, print nothing to stdout on exit 2, print no nan or inf on exit 0,
# and finish within CALL_BUDGET_S.  The draws keep each call far below the
# scan budget: d stays small, and large norms are drawn only well past the
# budget, where the CLI exits 2 at once (m = 10^30, and n = 10^20; at
# m = 10^16 the wheel visits 8e5-8e7 b, under the budget for most d).

CALL_BUDGET_S = 3.0
NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

JUNK = st.one_of(
    st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "-h", " 7 ", "1,2", "nan", "inf"]),
    st.text(max_size=6),
)


def mostly(common, *rare):
    """`common` in four draws of 4 + len(rare), else one of `rare`.  (one_of
    merges repeated strategies, so the weights go through sampled_from.)"""
    return st.sampled_from([common] * 4 + list(rare)).flatmap(lambda s: s)


def ints(lo, hi, *edges):
    """Integer text, mostly from [lo, hi], else one of `edges` or junk."""
    rare = [st.sampled_from(edges).map(str)] if edges else []
    return mostly(st.integers(lo, hi).map(str), *rare, JUNK)


def listed(elements, min_size, max_size):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


# squarefree d in 2..30, and the edges around them and around the cap 10^6
D = mostly(
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30]).map(str),
    st.sampled_from([-3, 0, 1, 4, 10**6, 10**6 + 1]).map(str),
    JUNK,
)
GLUING = mostly(
    st.sampled_from(["2,1,1,1", "5,2,2,1", "3,1,2,1", "-3,1,-1,0", "1,2,1,3", "7,-2,-3,1"]),
    st.sampled_from(["1,1,0,1", "2,0,0,1", "0,-1,1,0", "-1,0,0,-1"]),  # parabolic, det 2, elliptic, trace -2
    listed(st.integers(-6, 6), 3, 5),
    JUNK,
)
CLASS = mostly(listed(st.integers(-9, 9), 2, 2), listed(st.integers(-9, 9) | st.just(10**30), 1, 3), JUNK)
IM_TAU = mostly(
    st.floats(0.05, 3).map(repr),
    st.sampled_from(["0", "-1", "9.9e-9", "1e-320", "5e-324", "1e308", "1e400", "nan", "inf"]),
)
RE_TAU = mostly(
    st.floats(-2, 2).map(repr),
    st.sampled_from(["1e6", "-1000000.5", "1e308", "nan", "inf", "-inf"]),
)


def tau(im):
    return mostly(st.builds("{}+{}i".format, RE_TAU, im), im.map("{}i".format), JUNK)


def flag(name, values, optional=False):
    """Strategy for a list of (flag, text) pairs; an optional flag may be left out."""
    if optional:
        values = st.none() | values
    return values.map(lambda v: [] if v is None else [(name, v)])


# Im tau = 1e-8, the floor, is half the Im tau drawn, with every box: there
# the beta sums run over |t| <= 3*box and |b| <= box, about 10 ms at box 1000.
TAU_AND_BOX = st.tuples(tau(IM_TAU | st.just("1e-8")), st.none() | ints(-2, 60, 1000, 1001)).map(
    lambda tb: [("--tau", tb[0])] + ([] if tb[1] is None else [("--box", tb[1])])
)
K_RANGE = ints(-2, 80, 10_000, 10_001, 10**6)

INTERIOR_VALID = {"m": 1, "entries": {str(n): f"{n}/3" for n in range(1, 13)}}
INTERIOR_FILES = [
    json.dumps(INTERIOR_VALID),
    json.dumps({**INTERIOR_VALID, "m": 4, "provenance": "fuzz"}),
    json.dumps({**INTERIOR_VALID, "m": 10**30}),
    json.dumps({**INTERIOR_VALID, "m": 0}),
    json.dumps({**INTERIOR_VALID, "m": 1.0}),
    json.dumps({**INTERIOR_VALID, "m": True}),
    json.dumps({"m": 1, "entries": ["1", "2"]}),
    json.dumps({"m": 1, "entries": None}),
    json.dumps({"m": 1, "entries": {"1": 0.1}}),
    json.dumps({"m": 1, "entries": {"1": None}}),
    json.dumps({"m": 1, "entries": {"1": "1/0"}}),
    json.dumps({"m": 1, "entries": {"x": "1"}}),
    json.dumps({"entries": {"1": "1"}}),
    "[1, 2]",
    "{",
    "",
    b'\xff\xfe{"m": 1}',
    INTERIOR_TOO_DEEP,
    INTERIOR_BIG_ENTRY,
    INTERIOR_BIG_M,
    INTERIOR_REPEATED_KEY,
]


@pytest.fixture(scope="module")
def interior_paths(tmp_path_factory):
    """The paths of INTERIOR_FILES, then an absent file and a directory."""
    root = tmp_path_factory.mktemp("interior")
    paths = []
    for i, content in enumerate(INTERIOR_FILES):
        path = root / f"table{i}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        paths.append(str(path))
    return paths + [str(root / "missing.json"), str(root)]


def flags_for(command, interior_paths):
    """Strategy for the (flag, text) pairs of one subcommand."""
    groups = {
        "field-info": [flag("--d", D)],
        "sol-link": [flag("--f", GLUING), flag("--a", CLASS), flag("--b", CLASS)],
        "sol-cap": [flag("--f", GLUING), flag("--a", CLASS)],
        "boundary": [flag("--d", D), flag("--n", ints(-3, 60, 10**6, 10**20))],
        # the cells cap itself (nmax 1000) renders 10^6 lines in about 5 s
        "lk-table": [flag("--d", D), flag("--nmax", ints(-2, 12, 1001, 10**9))],
        "qexp": [flag("--d", D), flag("--nmax", ints(-2, 40, 10**9)), flag("--m", ints(-2, 40, 10**30), True)],
        "w-eval": [
            flag("--d", D),
            TAU_AND_BOX,
            flag("--k-range", K_RANGE, True),
            flag("--n-cut", ints(-2, 30, 10**9), True),
        ],
        "ratio-test": [flag("--d", D), flag("--nmax", ints(-2, 12, 10**9)), flag("--k-range", K_RANGE, True)],
        "combine": [
            flag("--d", D),
            flag("--interior", mostly(st.sampled_from(interior_paths[:2]), st.sampled_from(interior_paths))),
            flag("--nmax", ints(-2, 12, 10**9)),
            flag("--m", ints(-2, 5), True),
        ],
        "self-test": [flag("--seed", ints(-5, 50, 2**64), True)],
    }[command]
    groups.append(flag("--format", st.sampled_from(["json", "csv", "text", "xml"]), True))
    return st.tuples(*groups).map(lambda gs: [pair for g in gs for pair in g])


COMMANDS = ["field-info", "sol-link", "sol-cap", "boundary", "lk-table", "qexp", "w-eval", "ratio-test", "combine", "self-test"]


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_cli_contract_under_fuzzing(interior_paths, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    pairs = data.draw(flags_for(command, interior_paths), label="flags")
    # --flag=value, so that a drawn value starting with '-' stays a value
    argv = [command] + [f"{name}={value}" for name, value in pairs]
    code, out, err, elapsed = call(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "", argv
    else:
        assert not NONFINITE.search(out), (argv, out)
    assert elapsed < CALL_BUDGET_S, (argv, elapsed)
