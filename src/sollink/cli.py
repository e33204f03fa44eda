"""Command-line front end.

Every subcommand prints a deterministic rendering of one library call: byte
identical across runs for identical flags (and seed).  Exit codes: 0 success,
1 computational inconsistency (a cross-check or exactness assertion failed),
2 usage error.

Each subcommand is declared once, by the _command decorator on its handler,
and imports the layers and stdlib modules it runs when it runs, so a call
loads only what it uses and a usage error exits before any layer is loaded.
main builds the field of a --d subcommand as args.field, so a bad --d is
reported before the handler checks its own flags.  A handler runs every
check and builds its result before it returns its exit code and its output as
an iterable of text chunks, so a failing call prints nothing.  It renders
through _render, or for a range command through _render_rows, which formats
a fixed number of lines per chunk; both load json only for --format json.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections.abc import Iterable

from .errors import ConsistencyError, InputError, _check_index


def parse_tau(text: str) -> complex:
    """Parse 'RE+IMi' (also accepts 'IMi'); the imaginary part must be > 0."""
    import re

    # only the trailing i is the imaginary unit: 'inf' and 'nan' keep theirs
    try:
        value = complex(re.sub(r"i(?=\s*\)?\s*\Z)", "j", text.replace(" ", "")))
    except ValueError:
        raise InputError(f"--tau must look like RE+IMi, got {text!r}") from None
    if not value.imag > 0:
        raise InputError(f"--tau must have positive imaginary part, got {text!r}")
    return value


def _parse_ints(text: str, count: int, flag: str) -> tuple:
    parts = text.split(",")
    if len(parts) != count:
        raise InputError(f"{flag} needs {count} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"{flag} needs integers, got {text!r}") from None


# A-priori work caps.  A call is charged its steps in closed form
# (qfield._enumeration_steps: the enumeration, and for ratio-test and w-eval
# the orbit-minimum sums of each class), and a range command holds at most
# _CELLS_MAX entries (lk-table's nmax^2 cells, the others' nmax or n-cut).
_SCAN_BUDGET = 3 * 10**7
_CELLS_MAX = 10**6


def _check_scan_budget(field, nmax: int, m: int = 0, k_range: int = 0) -> None:
    """InputError when the norms 1..nmax give more than _CELLS_MAX entries,
    or enumerating them and m, with the orbit sums of their classes at
    k_range, takes more than _SCAN_BUDGET steps; values out of range are left
    to the library's checks, which a caller runs first for k_range."""
    from .qfield import _enumeration_steps

    if nmax > _CELLS_MAX:
        raise InputError(f"norms up to n = {nmax} give more than {_CELLS_MAX} entries")
    if _enumeration_steps(field, nmax, m, k_range) > _SCAN_BUDGET:
        raise InputError(f"norm-class scans up to n = {max(nmax, m)} at d = {field.d} need more than {_SCAN_BUDGET} steps")


# argparse reads a value that starts with '-' as an option unless it is a plain
# negative number, so `--tau -0.2+0.5i` or `--f -2,1,1,-1` would lose their
# value; main() joins these flags with such a value, as in `--tau=-0.2+0.5i`.
_SIGNED_FLAGS = ("--tau", "--f", "--a", "--b")


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each of _SIGNED_FLAGS joined to a following token that
    starts with '-' and then a digit or '.'."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_FLAGS and len(token) > 1 and token[0] == "-" and token[1] in "0123456789.":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _complex_str(z: complex) -> str:
    op = "+" if z.imag >= 0 else "-"
    return f"{z.real!r} {op} {abs(z.imag)!r}i"


# name -> (help, flags, d, tables, handler), filled by _command in the order
# the handlers below are declared: the order of the parser's usage and help.
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, help: str, *flags: tuple, d: bool = False, tables: bool = False):
    """Register the decorated handler as subcommand `name`.  Each flag is an
    (option, argparse keywords) pair; `d` adds the required --d, whose field
    main passes as args.field, and with `tables` csv is allowed and json is
    the default format."""

    def register(run):
        _COMMANDS[name] = (help, flags, d, tables, run)
        return run

    return register


def _render(fmt: str, payload, lines) -> tuple[str]:
    """The output as one chunk: `payload` as indented JSON for --format json,
    else `lines`, one a line."""
    if fmt == "json":
        import json

        return (json.dumps(payload, indent=2) + "\n",)
    return ("\n".join(lines) + "\n",)


# Lines of a range command's output written per chunk.
_LINES_PER_CHUNK = 1000


def _render_rows(fmt: str, head: dict, name: str, csv_head: str, lines) -> Iterable[str]:
    """The output of a range command, _LINES_PER_CHUNK of `lines` per chunk,
    each line in the format: for json a `"key": "value"` line of the object
    `name`, after the int values of `head`; for csv a line after the
    `csv_head` line; for text a line.  The chunks join to the bytes of the
    whole string (for json, json.dumps of the payload with indent=2, and a
    newline) without building it.  Keys and values are digits, signs, commas
    and slashes, so no json line needs an escape."""
    if fmt == "json":
        import json

        # head without its closing "\n}", then the object's opening line
        start, sep, end = json.dumps(head, indent=2)[:-2] + f',\n  "{name}": {{\n', ",\n", "\n  }\n}\n"
    else:
        start, sep, end = f"{csv_head}\n" if fmt == "csv" else "", "\n", "\n"
    yield start
    lines, before = iter(lines), ""
    while chunk := list(itertools.islice(lines, _LINES_PER_CHUNK)):
        yield before + sep.join(chunk)
        before = sep
    yield end


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with `only`, a subcommand name, it holds that one
    subparser.  Its usage still lists every subcommand, so a call that names
    `only` first parses and fails with the same text as on the full parser."""
    parser = argparse.ArgumentParser(
        prog="sollink",
        description="Exact linking numbers of fiber circles in Sol manifolds "
        "and of cycle boundaries over real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if only is not None:
        # the full parser's usage line, which "unrecognized arguments" prints
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in _COMMANDS if only is None else (only,):
        help_text, flags, d, tables, run = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run, tables=tables)
        if d:
            p.add_argument("--d", type=int, required=True, help="squarefree field discriminant parameter")
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.add_argument("--output", default=None, help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json" if tables else "text")
    return parser


_GLUING = ("--f", dict(required=True, help="gluing matrix a,b,c,d (row major)"))
_NMAX = ("--nmax", dict(type=int, required=True))


@_command("field-info", "ring, discriminant, and unit data", d=True)
def _run_field_info(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    field = args.field
    basis = "(1 + sqrt(d))/2" if field.s0 else "sqrt(d)"
    payload = {
        "d": field.d,
        "disc": field.disc,
        "omega": basis,
        "eps0": str(field.eps0),
        "eps0_norm": field.eps0_norm,
        "eps": str(field.eps),
        "eps_trace": str(field.eps.trace()),
        "n_det": field.n_det,
    }
    lines = [
        f"d: {field.d}",
        f"disc: {field.disc}",
        f"integer basis: 1, w = {basis}",
        f"fundamental unit: {field.eps0} (norm {field.eps0_norm})",
        f"totally positive unit: {field.eps}",
        f"unit trace: {field.eps.trace()}",
        f"gluing N_det: {field.n_det}",
    ]
    return 0, _render(args.format, payload, lines)


@_command(
    "sol-link",
    "exact linking number of two fiber circles",
    _GLUING,
    ("--a", dict(required=True, help="first circle class x,y")),
    ("--b", dict(required=True, help="second circle class u,v")),
)
def _run_sol_link(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import sol

    f = _parse_ints(args.f, 4, "--f")
    a = _parse_ints(args.a, 2, "--a")
    b = _parse_ints(args.b, 2, "--b")
    m = sol.make_sol((f[:2], f[2:]))
    value = sol.link_fiber(m, a, b)
    payload = {"f": list(f), "a": list(a), "b": list(b), "link": str(value)}
    return 0, _render(args.format, payload, [str(value)])


_CAP_PROBES = ((1, 0), (0, 1), (1, 1), (2, 1), (1, -2))


@_command(
    "sol-cap",
    "cap chain for a fiber circle, with closure and oracle checks",
    _GLUING,
    ("--a", dict(required=True, help="circle class x,y")),
)
def _run_sol_cap(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from fractions import Fraction

    from . import sol

    f = _parse_ints(args.f, 4, "--f")
    a = _parse_ints(args.a, 2, "--a")
    m = sol.make_sol((f[:2], f[2:]))
    cap = sol.build_cap(m, a)
    period = sol.area_period(cap)
    if period != 0:
        raise ConsistencyError(f"cap area period is {period}, expected 0")
    if sol.boundary_cycle(cap) != sol.expected_boundary(cap):
        raise ConsistencyError("cap boundary does not match the requested circle")
    for probe in _CAP_PROBES:
        direct = sol.link_fiber(m, a, probe)
        counted = sol.cap_intersect(cap, m, probe, Fraction(1, 3))
        if direct != counted:
            raise ConsistencyError(f"oracle mismatch on probe {probe}: {direct} != {counted}")
    probes = f"{len(_CAP_PROBES)}/{len(_CAP_PROBES)} agree"
    payload = {
        "f": list(f),
        "circle_class": list(cap.circle_class),
        "weight": str(cap.weight),
        "monodromy_class": list(cap.monodromy_class),
        "fiber_correction": str(cap.fiber_correction),
        "area_period": str(period),
        "boundary_check": "ok",
        "oracle_probes": probes,
    }
    lines = [
        f"circle class: {cap.circle_class}",
        f"weight: {cap.weight}",
        f"monodromy class: {cap.monodromy_class}",
        f"fiber correction: {cap.fiber_correction}",
        f"area period: {period}",
        "boundary check: ok",
        f"oracle probes: {probes}",
    ]
    return 0, _render(args.format, payload, lines)


@_command(
    "boundary",
    "boundary circle families of the norm-n cycle",
    ("--n", dict(type=int, required=True, help="cycle norm index")),
    d=True,
)
def _run_boundary(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import cycles

    _check_index("--n", args.n)
    _check_scan_budget(args.field, 0, args.n)
    comps = cycles.boundary_components(args.field, args.n)
    payload = {
        "d": args.d,
        "n": args.n,
        "components": [
            {
                "rep": str(c.cls.rep),
                "coords": [str(c.cls.rep.a), str(c.cls.rep.b)],
                "multiplicity": c.multiplicity,
                "fiber": [str(c.fiber_label.a), str(c.fiber_label.b)],
            }
            for c in comps
        ],
    }
    lines = [
        f"class {c.cls.rep}  multiplicity {c.multiplicity}  fiber ({c.fiber_label.a}, {c.fiber_label.b})"
        for c in comps
    ]
    return 0, _render(args.format, payload, lines or [f"no norm-{args.n} classes"])


@_command("lk-table", "all pairwise boundary linking numbers up to nmax", _NMAX, d=True, tables=True)
def _run_lk_table(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import cycles

    if args.nmax > 0 and args.nmax * args.nmax > _CELLS_MAX:
        raise InputError(f"--nmax {args.nmax} gives {args.nmax * args.nmax} cells, more than {_CELLS_MAX}")
    _check_scan_budget(args.field, args.nmax)
    table = cycles.link_table(args.field, args.nmax)
    line = {"json": '    "{},{}": "{}"', "csv": "{},{},{}", "text": "Lk(C{}, C{}) = {}"}[args.format].format
    lines = (line(n, m, v) for (n, m), v in table.entries.items())  # in key order, n the outer index
    head = {"d": table.d, "nmax": table.nmax, "n_det": table.n_det}
    return 0, _render_rows(args.format, head, "entries", "n,m,value", lines)


def _render_qexp(fmt: str, q) -> Iterable[str]:
    """qexp and combine: the coefficients of q^1 .. q^nmax."""
    line = {"json": '    "{}": "{}"', "csv": "{},{},0", "text": "q^{}: {}"}[fmt].format
    lines = (line(n, q.coeffs[n]) for n in range(1, q.nmax + 1))
    head = {"d": q.d, "m": q.m, "weight": q.weight, "nmax": q.nmax}
    return _render_rows(fmt, head, "coeffs", "n,value,tail_estimate", lines)


@_command(
    "qexp",
    "exact q-expansion of boundary linking numbers against a fixed m",
    ("--m", dict(type=int, default=1)),
    _NMAX,
    d=True,
    tables=True,
)
def _run_qexp(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import qseries

    _check_scan_budget(args.field, args.nmax, args.m)
    q = qseries.lk_qexpansion(args.field, args.m, args.nmax)
    return 0, _render_qexp(args.format, q)


@_command(
    "w-eval",
    "numeric two-part evaluation of the completed series",
    ("--tau", dict(required=True, help="upper half plane point, RE+IMi")),
    ("--k-range", dict(type=int, default=60, dest="k_range")),
    ("--box", dict(type=int, default=40)),
    ("--n-cut", dict(type=int, default=20, dest="n_cut")),
    d=True,
)
def _run_w_eval(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import qseries

    tau = parse_tau(args.tau)
    params = qseries.WEvalParams(tau=tau, k_range=args.k_range, box=args.box, n_cut=args.n_cut)
    _check_scan_budget(args.field, args.n_cut, k_range=args.k_range)
    rep = qseries.eval_W(args.field, params)
    payload = {
        "d": args.d,
        "tau": _complex_str(tau),
        "holomorphic": {"re": rep.holomorphic.real, "im": rep.holomorphic.imag},
        "beta": {"re": rep.beta_part.real, "im": rep.beta_part.imag},
        "total": {"re": rep.total.real, "im": rep.total.imag},
        "holo_tail": rep.holo_tail,
        "beta_tail": rep.beta_tail,
    }
    lines = [
        f"tau: {_complex_str(tau)}",
        f"holomorphic: {_complex_str(rep.holomorphic)}",
        f"beta: {_complex_str(rep.beta_part)}",
        f"total: {_complex_str(rep.total)}",
        f"holo tail estimate: {rep.holo_tail!r}",
        f"beta tail estimate: {rep.beta_tail!r}",
    ]
    return 0, _render(args.format, payload, lines)


@_command(
    "ratio-test",
    "min-series / linking-number ratios and their spread",
    _NMAX,
    ("--k-range", dict(type=int, default=80, dest="k_range")),
    d=True,
)
def _run_ratio_test(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import qseries

    # the library's check, before the budget charges k_range
    _check_index("k_range", args.k_range, qseries._K_RANGE_MAX)
    _check_scan_budget(args.field, args.nmax, k_range=args.k_range)
    report = qseries.holomorphic_ratio_test(args.field, args.nmax, args.k_range)
    ratios = sorted(report.ratios.items())
    payload = {
        "d": report.d,
        "k_range": report.k_range,
        "ratios": {str(n): r for n, r in ratios},
        "spread": report.spread,
        "omitted": list(report.omitted),
        "inconsistent": list(report.inconsistent),
    }
    lines = [f"n={n} ratio={r!r}" for n, r in ratios]
    lines.append(f"spread: {report.spread!r}")
    if report.omitted:
        lines.append(f"omitted (zero linking): {', '.join(map(str, report.omitted))}")
    if report.inconsistent:
        lines.append(f"INCONSISTENT (zero linking, nonzero series): {', '.join(map(str, report.inconsistent))}")
    return (1 if report.inconsistent else 0), _render(args.format, payload, lines)


@_command(
    "combine",
    "subtract boundary linking from supplied interior numbers",
    ("--interior", dict(required=True, help="interior table JSON file")),
    _NMAX,
    ("--m", dict(type=int, default=None, help="must match the table's m if given")),
    d=True,
    tables=True,
)
def _run_combine(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import qseries

    try:
        with open(args.interior, encoding="utf-8") as fh:
            table = qseries.InteriorTable.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read interior table: {exc}") from exc
    if args.m is not None and args.m != table.m:
        raise InputError(f"--m {args.m} does not match the table's m = {table.m}")
    qseries._check_covers(table, args.nmax)
    _check_scan_budget(args.field, args.nmax, table.m)
    q = qseries.combine_interior(table, args.field, args.nmax)
    return 0, _render_qexp(args.format, q)


@_command("self-test", "run all randomized cross-check suites", ("--seed", dict(type=int, default=0)))
def _run_self_test(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import selftest

    verdicts = selftest.run_suites(args.seed)
    passed = sum(1 for _, ok, _ in verdicts if ok)
    payload = {
        "seed": args.seed,
        "suites": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in verdicts],
        "passed": passed,
        "total": len(verdicts),
    }
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in verdicts]
    lines.append(f"{passed}/{len(verdicts)} suites passed (seed {args.seed})")
    return (0 if passed == len(verdicts) else 1), _render(args.format, payload, lines)


def _print_error(line: str) -> None:
    """Print line to stderr; one that cannot take it loses it, not the exit code."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    argv = _join_signed_values(sys.argv[1:] if argv is None else argv)
    # a call that names its subcommand first builds only that subparser; any
    # other argv gets the full parser, as the metavar would change the
    # "argument command:" of its errors
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(only).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if value == []:  # argparse before 3.13 reads --flag=-- as [] and skips the flag's type
                raise InputError(f"--{name.replace('_', '-')} needs a value, got '--'")
        if args.format == "csv" and not args.tables:
            raise InputError(f"--format csv is not available for {args.command}")
        if _COMMANDS[args.command][2]:  # the subcommand takes --d
            from .qfield import make_field

            args.field = make_field(args.d)
        code, chunks = args.run(args)
    except InputError as exc:
        _print_error(f"error: {exc}")
        return 2
    except ConsistencyError as exc:
        _print_error(f"inconsistency: {exc}")
        return 1
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:  # started with stdout closed
            raise OSError("stdout is closed")
        else:
            # a flush here reports a full or broken stdout, not one at exit
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        _print_error(f"error: cannot write output: {exc}")
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
