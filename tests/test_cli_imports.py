"""A CLI call imports only the layers its subcommand runs, and the library
needs nothing outside the standard library.

Each case runs in a fresh interpreter, which lists the modules it has loaded
once the call returns.
"""

import subprocess
import sys

import pytest

PROBE = """
import sys
from sollink import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stdout.flush()
print(*sorted(sys.modules), sep="\\n", file=sys.stderr)
sys.exit(code)
"""


# Every layer imported and three subcommands run, in an interpreter whose
# modules are listed once site has run, so only what sollink loads is listed.
STDLIB_PROBE = """
import sys
before = set(sys.modules)
import sollink
from sollink import cli, cycles, errors, qfield, qseries, selftest, sol, special_fn
codes = [
    cli.main(argv)
    for argv in (
        ["self-test", "--format", "json"],
        ["w-eval", "--d", "5", "--tau", "0.3+1i", "--format", "json"],
        ["lk-table", "--d", "5", "--nmax", "3", "--format", "csv"],
    )
]
sys.stdout.flush()
print(*codes, file=sys.stderr)
print(*sorted(set(sys.modules) - before), sep="\\n", file=sys.stderr)
"""


def loaded(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_importing_the_cli_loads_no_layer():
    modules = loaded()
    assert {m for m in modules if m.startswith("sollink.")} == {"sollink.cli", "sollink.errors"}
    assert not modules & {"dataclasses", "json"}


@pytest.mark.parametrize(
    "argv, runs, skips",
    [
        (("sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "0,1"), {"sol"}, {"qfield", "cycles", "qseries", "special_fn", "selftest"}),
        (("boundary", "--d", "5", "--n", "4"), {"cycles"}, {"sol", "qseries", "special_fn", "selftest"}),
        (("sol-cap", "--f", "2,1,1,1", "--a", "1,0"), {"sol"}, {"qfield", "cycles", "qseries", "special_fn", "selftest"}),
        (("qexp", "--d", "5", "--nmax", "4"), {"cycles", "qseries"}, {"sol", "selftest"}),
        (("field-info", "--d", "5"), {"qfield"}, {"sol", "cycles", "qseries", "special_fn", "selftest"}),
    ],
)
def test_a_subcommand_loads_only_its_layers(argv, runs, skips):
    modules = loaded(*argv)
    assert {f"sollink.{layer}" for layer in runs} <= modules
    assert not modules & {f"sollink.{layer}" for layer in skips}


@pytest.mark.parametrize(
    "argv",
    [("sol-link", "--f", "2,1,1,1", "--a", "1,0", "--b", "0,1"), ("sol-cap", "--f", "2,1,1,1", "--a", "1,0")],
    ids=["sol-link", "sol-cap"],
)
def test_sol_commands_load_no_dataclasses(argv):
    # the Sol records are NamedTuples and sol does not import qfield
    assert "dataclasses" not in loaded(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("qexp", "--d", "5", "--nmax", "4", "--format", "text"),
        ("w-eval", "--d", "5", "--tau", "0.3+1i"),
        ("ratio-test", "--d", "5", "--nmax", "4"),
        ("self-test",),
    ],
    ids=["qexp", "w-eval", "ratio-test", "self-test"],
)
def test_text_output_loads_no_json(argv):
    # only --format json and the interior-table parser load json
    assert "json" not in loaded(*argv)


def test_the_library_loads_only_the_standard_library():
    # the north star: sollink is stdlib-only, so every module its layers and
    # subcommands load is sollink's own or the standard library's
    proc = subprocess.run([sys.executable, "-c", STDLIB_PROBE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, *modules = proc.stderr.splitlines()
    assert codes.split() == ["0", "0", "0"]
    tops = {m.partition(".")[0] for m in modules}
    assert "sollink" in tops
    assert {m for m in tops if m != "sollink" and m not in sys.stdlib_module_names} == set()
