"""End-to-end command-line behavior: outputs, formats, exit codes."""

import json
import time

import pytest

from sollink import cli
from sollink.errors import ConsistencyError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    monkeypatch.setattr(cli.sol, "area_period", lambda cap: 1)
    code, out, err = run(capsys, "sol-cap", "--f", "2,1,1,1", "--a", "1,0")
    assert code == 1 and out == ""
    assert err.startswith("inconsistency:")


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


def test_qexp_csv_and_text(capsys):
    code, out, _ = run(capsys, "qexp", "--d", "5", "--nmax", "2", "--format", "csv")
    assert code == 0 and out == "n,value,tail_estimate\n1,2,0\n2,0,0\n"
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
    "boundary --d 5 --n 4": "class 2  multiplicity 2  fiber (1, 0)\n",
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
        "beta tail estimate: 1.6653081995399195e-223\n"
    ),
    "w-eval --d 13 --tau 0.25+0.6i --box 12 --n-cut 8 --format json": (
        "{\n"
        '  "d": 13,\n'
        '  "tau": "0.25 + 0.6i",\n'
        '  "holomorphic": {\n    "re": 2.663282530179339e-07,\n    "im": 0.010856259725734278\n  },\n'
        '  "beta": {\n    "re": -0.020147820924748802,\n    "im": -0.0009289825529788796\n  },\n'
        '  "total": {\n    "re": -0.020147554596495785,\n    "im": 0.009927277172755399\n  },\n'
        '  "holo_tail": 7.269057244288268e-15,\n'
        '  "beta_tail": 1.6653081995399195e-223\n'
        "}\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, argv):
    assert run(capsys, *argv.split()) == (0, GOLDEN_STDOUT[argv], "")


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
    "1e308+1i": "|Re tau| must be at most 1000000 (W has period 1 in tau, so reduce Re tau mod 1)",
    "-1e7+1i": "|Re tau| must be at most 1000000 (W has period 1 in tau, so reduce Re tau mod 1)",
}


@pytest.mark.parametrize("bad_tau", list(BAD_TAU))
def test_w_eval_rejects_bad_tau(capsys, bad_tau):
    # --tau=... so that a leading minus sign is not taken for a flag
    code, out, err = run(capsys, "w-eval", "--d", "5", f"--tau={bad_tau}")
    assert code == 2 and out == "" and "error:" in err
    assert BAD_TAU[bad_tau] in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--box", "1001", "box must be at most 1000"), ("--k-range", "10001", "k_range must be at most 10000")],
)
def test_w_eval_rejects_oversized_truncation(capsys, flag, value, message):
    code, out, err = run(capsys, "w-eval", "--d", "5", "--tau", "0.5+1i", flag, value)
    assert (code, out) == (2, "") and err == f"error: {message}, got {value}\n"


OVER_BUDGET = {
    ("boundary", "--d", "151", "--n", "1"): "need more than 30000000 steps",
    ("lk-table", "--d", "94", "--nmax", "2000"): "gives 4000000 cells, more than 1000000",
    ("lk-table", "--d", "94", "--nmax", "200"): "need more than 30000000 steps",
    ("qexp", "--d", "5", "--nmax", str(10**18)): "need more than 30000000 steps",
    ("qexp", "--d", "5", "--nmax", "3", "--m", str(10**16)): "need more than 30000000 steps",
    ("ratio-test", "--d", "94", "--nmax", "100"): "need more than 30000000 steps",
    ("w-eval", "--d", "94", "--tau", "0+1i", "--n-cut", "40"): "need more than 30000000 steps",
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
    table.write_text(json.dumps({"m": 10**16, "entries": {"1": "0"}}), encoding="utf-8")
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    assert (code, out) == (2, "") and "up to n = 10000000000000000" in err


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


def test_combine_incomplete_table(tmp_path, capsys):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": {"1": "5"}}), encoding="utf-8")
    code, _, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "3")
    assert code == 2 and "missing n = 2, 3" in err


@pytest.mark.parametrize("entries", [["1", "2"], {"1": None}, {"1": 0.1}, {"1": True}])
def test_combine_rejects_malformed_interior(tmp_path, capsys, entries):
    table = tmp_path / "interior.json"
    table.write_text(json.dumps({"m": 1, "entries": entries}), encoding="utf-8")
    # nmax 1: a well-formed {"1": ...} table would be complete, so only the entry fails
    code, out, err = run(capsys, "combine", "--d", "5", "--interior", str(table), "--nmax", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_output_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "qexp", "--d", "13", "--nmax", "4")
    target = tmp_path / "series.json"
    code2 = cli.main(["qexp", "--d", "13", "--nmax", "4", "--output", str(target)])
    capsys.readouterr()
    assert code == code2 == 0
    assert target.read_bytes().decode("utf-8") == out


def test_self_test_passes(capsys):
    code, out, _ = run(capsys, "self-test", "--seed", "0")
    assert code == 0
    assert "12/12 suites passed (seed 0)" in out
    assert "FAIL" not in out


def test_self_test_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(cli.selftest, "run_suites", lambda seed: [("stub", False, "boom")])
    code, out, _ = run(capsys, "self-test")
    assert code == 1 and "FAIL stub: boom" in out


def test_unknown_command(capsys):
    code = cli.main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_missing_required_flag(capsys):
    code = cli.main(["qexp", "--d", "5"])
    capsys.readouterr()
    assert code == 2
