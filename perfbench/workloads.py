"""The four workloads: seeded job lists, how each job runs, how it is checked.

A job is one call into the library (or one CLI subprocess).  `build(name,
seed)` returns the fields a workload needs and its job list; the same seed
gives the same jobs.  `run_job` is the only code inside the timed region.
`verify_job` checks a job's result by an independent route after timing ends
and returns None or the reason it failed.  Why each workload exists, and
which layer it loads, is in README.md.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from sollink import cycles, qfield, qseries, selftest, sol
from sollink.special_fn import beta_scaled
from tracer import TRACE_MARK

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(".perfbench_work")  # relative to ROOT, where the CLI ops run
CLI_TRACED = Path(__file__).resolve().parent / "cli_traced.py"

# exact-small-unit: link_table sizes per core field.  The largest take about
# 0.2-0.3 s each.  The twelve smaller ones cost about the same (~45 ms) and
# hold the p90 rank, so p90 hardly moves when jobs swap places.
SMALL_CORE = {5: (34, 35, 36, 37, 100), 13: (26, 27, 28, 29, 80), 17: (22, 23, 24, 25, 60)}
# Squarefree d < 60 besides the core whose n=1 scan bound is at most 10.
SMALL_POOL = (2, 3, 6, 7, 11, 14, 21, 23, 29, 34, 38, 39, 42, 47, 51, 53)
SMALL_QEXP_NMAX = 40
# exact-large-unit: n=1 scan bounds 1.1e5-3.3e5 (BIG) and 2.5e3-2.8e4 (MID).
# d=151 (1.4e8 for n=1, over 20 s) cannot finish within a run with the b-scan.
LARGE_BIG = (89, 94, 113, 179, 251, 389)
LARGE_MID = (46, 58, 67, 103, 109, 118, 129, 134, 157, 177, 190)
# n is drawn from {g, g+1}: the scan cost grows like sqrt(n), so the cost of a
# pass hardly depends on the seed.
N_GRID = (8, 11, 14, 17, 20, 23, 26, 29)
BIG_GRID = (8, 23)
NUMERIC_FIELDS = (5, 13, 17)
W_PARAMS = {"k_range": 60, "box": 40, "n_cut": 20}  # the CLI defaults
CLI_FIELDS = (5, 13, 17, 2, 3, 6, 7, 11, 14, 21, 23, 29)
CLI_TIMEOUT_S = 60.0
HANG_TIMEOUT_S = 1.0  # per-call budget for the oversized --d op
ORACLE_TOL = 1e-12
RATIO_SPREAD_TOL = 1e-8

NONFINITE = re.compile(r"(?i)\b(nan|inf)")
TRACEBACK = "Traceback (most recent call last)"


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict
    known_defect: str = ""  # the ROADMAP defect this op exposes, if any

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return "cli " + " ".join(self.params["argv"])
        args = ", ".join(f"{k}={v}" for k, v in self.params.items() if k != "pairs")
        return f"{self.kind}({args})"


@dataclass(frozen=True)
class CliOutcome:
    code: int | None  # None when the call timed out
    stdout: str
    stderr: str

    def same_as(self, other: "CliOutcome") -> bool:
        # stderr is not compared: traced and untraced tracebacks differ in frames
        return (self.code, self.stdout) == (other.code, other.stdout)


@dataclass
class Context:
    """Fields built during set-up, plus state shared by runs and checks."""

    fields: dict
    tracer: object = None  # set while a traced pass runs
    tables: dict = field(default_factory=dict)  # d -> reference LinkTable
    holo_ref: dict = field(default_factory=dict)  # (d, k_range, n_cut) -> doubled-truncation coefficients
    err_over_bound: list = field(default_factory=list)


# --- job lists -------------------------------------------------------------


def _hyperbolic(rng: random.Random) -> tuple:
    """A hyperbolic SL(2, Z) gluing: a product of 2-4 unit shears with entries <= 30."""
    while True:
        m = ((1, 0), (0, 1))
        for i in range(rng.randint(2, 4)):
            x = rng.choice((-3, -2, -1, 1, 2, 3))
            s = ((1, x), (0, 1)) if i % 2 == 0 else ((1, 0), (x, 1))
            m = tuple(tuple(sum(m[r][k] * s[k][c] for k in range(2)) for c in range(2)) for r in range(2))
        if abs(m[0][0] + m[1][1]) > 2 and max(abs(e) for row in m for e in row) <= 30:
            return m


def _class(rng: random.Random, bound: int = 6) -> tuple[int, int]:
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            return v


def _tau(rng: random.Random) -> complex:
    return complex(round(rng.uniform(-0.5, 0.5), 4), round(rng.uniform(0.15, 2.0), 4))


def _small_unit(rng: random.Random, seed: int):
    # m and the sweep starts are drawn from strata, so that the cost of a pass
    # and the job at p50 (a closed sweep) hardly depend on the seed.
    pick = rng.choice(SMALL_POOL)
    jobs = [Job("link_table", {"d": d, "nmax": nmax}) for d, sizes in SMALL_CORE.items() for nmax in sizes]
    for d in (*SMALL_CORE, pick):
        jobs += [Job("qexp", {"d": d, "m": 1 + 3 * i // 2 + rng.randint(0, 1), "nmax": SMALL_QEXP_NMAX}) for i in range(8)]
        for i in range(8):
            lo = 1 + 3 * i + rng.randint(0, 2)
            jobs.append(Job("closed", {"d": d, "lo": lo, "hi": lo + 20}))
    for _ in range(33):
        pairs = tuple((_class(rng), _class(rng)) for _ in range(20))
        jobs.append(Job("sol", {"f": _hyperbolic(rng), "pairs": pairs, "s_b": Fraction(rng.randint(1, 6), 7)}))
    return (*SMALL_CORE, pick), jobs


def _large_unit(rng: random.Random, seed: int):
    jobs = []
    for fields, grid in ((LARGE_MID, N_GRID), (LARGE_BIG, BIG_GRID)):
        for d in fields:
            jobs += [Job("boundary", {"d": d, "n": g + rng.randint(0, 1)}) for g in grid]
    jobs.append(Job("link_table", {"d": 94, "nmax": 4}))
    jobs.append(Job("qexp", {"d": 94, "m": rng.choice((2, 3)), "nmax": 3}))
    return (*LARGE_MID, *LARGE_BIG), jobs


def _numeric(rng: random.Random, seed: int):
    jobs = [Job("eval_W", {"d": d, "tau": _tau(rng), **W_PARAMS}) for d in NUMERIC_FIELDS for _ in range(10)]
    jobs += [Job("ratio", {"d": d, "nmax": 20, "k_range": 80}) for d in NUMERIC_FIELDS]
    return NUMERIC_FIELDS, jobs


def _cli(argv, check, expect=0, known_defect="", timeout=CLI_TIMEOUT_S, **spec) -> Job:
    return Job("cli", {"argv": tuple(argv), "check": check, "expect": expect, "timeout": timeout, **spec}, known_defect)


def _interior_text(rng: random.Random, m: int, nmax: int) -> str:
    entries = {str(n): str(Fraction(rng.randint(-40, 40), rng.randint(1, 6))) for n in range(1, nmax + 1)}
    return json.dumps({"m": m, "entries": entries, "provenance": "perfbench"})


def _cli_mix(rng: random.Random, seed: int):
    """Every subcommand twice with valid input, malformed input with its
    contract exit code 2, and the known contract defects (also exit 2)."""
    jobs = [_cli(["-c", "import sollink.cli"], "startup")]
    for rep in range(2):
        d = rng.choice(CLI_FIELDS)
        jobs.append(_cli(["field-info", f"--d={d}", "--format=json"], "field-info", d=d))
        f, a, b = _hyperbolic(rng), _class(rng), _class(rng)
        flat = ",".join(str(e) for row in f for e in row)
        jobs.append(_cli(["sol-link", f"--f={flat}", f"--a={a[0]},{a[1]}", f"--b={b[0]},{b[1]}"], "sol-link", f=f, a=a, b=b))
        f, a = _hyperbolic(rng), _class(rng)
        flat = ",".join(str(e) for row in f for e in row)
        jobs.append(_cli(["sol-cap", f"--f={flat}", f"--a={a[0]},{a[1]}", "--format=json"], "sol-cap", f=f, a=a))
        d, n = rng.choice(CLI_FIELDS), rng.randint(1, 30)
        jobs.append(_cli(["boundary", f"--d={d}", f"--n={n}", "--format=json"], "boundary", d=d, n=n))
        d = rng.choice(CLI_FIELDS)
        jobs.append(_cli(["lk-table", f"--d={d}", "--nmax=8"], "lk-table", d=d, nmax=8))
        d, m = rng.choice(CLI_FIELDS), rng.randint(1, 6)
        jobs.append(_cli(["qexp", f"--d={d}", f"--m={m}", "--nmax=10"], "qexp", d=d, m=m, nmax=10))
        d, tau = rng.choice(NUMERIC_FIELDS), _tau(rng)
        tau_text = f"{tau.real}{tau.imag:+}i"
        argv = ["w-eval", f"--d={d}", f"--tau={tau_text}", "--k-range=30", "--box=12", "--n-cut=10", "--format=json"]
        jobs.append(_cli(argv, "w-eval", d=d, tau=tau_text, k_range=30, box=12, n_cut=10))
        d = rng.choice(CLI_FIELDS)
        argv = ["ratio-test", f"--d={d}", "--nmax=10", "--k-range=40", "--format=json"]
        jobs.append(_cli(argv, "ratio-test", d=d, nmax=10, k_range=40))
        d, m = rng.choice(CLI_FIELDS), rng.randint(1, 4)
        path = WORKDIR / f"interior_{rep}.json"
        jobs.append(
            _cli(["combine", f"--d={d}", f"--interior={path}", "--nmax=6"], "combine", d=d, nmax=6, path=path,
                 text=_interior_text(rng, m, 8))
        )
        jobs.append(_cli(["self-test", f"--seed={seed + rep}"], "self-test", seed=seed + rep))
    missing = WORKDIR / "interior_missing.json"
    jobs += [
        _cli(["field-info", f"--d={4 * rng.randint(1, 50)}"], "error", expect=2),
        _cli(["sol-link", "--f=1,2,3,4", "--a=1,0", "--b=0,1"], "error", expect=2),
        _cli(["w-eval", "--d=5", f"--tau={rng.uniform(-0.5, 0.5):.3f}-0.5i"], "error", expect=2),
        _cli(["lk-table", "--d=5", f"--nmax={-rng.randint(0, 5)}"], "error", expect=2),
        _cli(["boundary", "--d=13", f"--n={-rng.randint(0, 5)}"], "error", expect=2),
        _cli(["qexp", "--d=5"], "error", expect=2),
        _cli(["field-info", "--d=5", "--format=csv"], "error", expect=2),
        _cli(["combine", "--d=5", f"--interior={missing}", "--nmax=5"], "error", expect=2, path=missing,
             text=json.dumps({"m": 1, "entries": {"1": "3", "2": "1/2"}})),
    ]
    listed = WORKDIR / "interior_list.json"
    jobs += [
        _cli(["combine", "--d=5", f"--interior={listed}", "--nmax=3"], "error", expect=2, path=listed,
             text=json.dumps({"m": 1, "entries": ["1", "2", "3"]}),
             known_defect="combine with list-valued entries: traceback, exit 1"),
        _cli(["w-eval", "--d=5", "--tau=nan+1i"], "error", expect=2,
             known_defect="w-eval --tau nan+1i: exit 0 printing nan"),
        _cli(["w-eval", "--d=5", "--tau=0+1e400i"], "error", expect=2,
             known_defect="w-eval --tau 0+1e400i: exit 0 printing nan"),
        _cli(["field-info", "--d=100000000000000003"], "error", expect=2, timeout=HANG_TIMEOUT_S,
             known_defect="field-info with an oversized --d: hangs in is_squarefree"),
    ]
    return (), jobs


WORKLOADS = {
    "exact-small-unit": _small_unit,
    "exact-large-unit": _large_unit,
    "numeric-series": _numeric,
    "cli-mix": _cli_mix,
}


def build(name: str, seed: int):
    """(field parameters, jobs) of a workload; the same seed gives the same jobs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seed)


def prepare(jobs) -> None:
    """Write the input files the CLI ops read."""
    for job in jobs:
        if "text" in job.params:
            (ROOT / WORKDIR).mkdir(exist_ok=True)
            (ROOT / job.params["path"]).write_text(job.params["text"], encoding="utf-8")


def cleanup(jobs) -> None:
    for job in jobs:
        if "path" in job.params:
            (ROOT / job.params["path"]).unlink(missing_ok=True)
    if (ROOT / WORKDIR).is_dir() and not any((ROOT / WORKDIR).iterdir()):
        (ROOT / WORKDIR).rmdir()


# --- running ---------------------------------------------------------------


def _run_cli(ctx: Context, p: dict) -> CliOutcome:
    argv = list(p["argv"])
    if p["check"] == "startup":
        cmd = [sys.executable, *argv]
    elif ctx.tracer is not None:
        cmd = [sys.executable, str(CLI_TRACED), *argv]
    else:
        cmd = [sys.executable, "-m", "sollink.cli", *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=p["timeout"], cwd=ROOT)
    except subprocess.TimeoutExpired:
        return CliOutcome(None, "", "")
    stderr = proc.stderr
    if ctx.tracer is not None and TRACE_MARK in stderr:
        head, _, tail = stderr.partition(TRACE_MARK)
        snap, _, rest = tail.partition("\n")
        ctx.tracer.merge(json.loads(snap))
        stderr = head + rest
    return CliOutcome(proc.returncode, proc.stdout, stderr)


def run_job(ctx: Context, job: Job):
    p = job.params
    kind = job.kind
    if kind == "cli":
        return _run_cli(ctx, p)
    if kind == "sol":
        m = sol.make_sol(p["f"])
        return [
            (sol.link_fiber(m, a, b), sol.cap_intersect(sol.build_cap(m, a), m, b, p["s_b"])) for a, b in p["pairs"]
        ]
    f = ctx.fields[p["d"]]
    if kind == "link_table":
        return cycles.link_table(f, p["nmax"])
    if kind == "qexp":
        return qseries.lk_qexpansion(f, p["m"], p["nmax"])
    if kind == "closed":
        return [cycles.link_boundary_closed(f, n) for n in range(p["lo"], p["hi"])]
    if kind == "boundary":
        return cycles.boundary_components(f, p["n"])
    if kind == "eval_W":
        params = qseries.WEvalParams(tau=p["tau"], k_range=p["k_range"], box=p["box"], n_cut=p["n_cut"])
        return qseries.eval_W(f, params)
    if kind == "ratio":
        return qseries.holomorphic_ratio_test(f, p["nmax"], p["k_range"])
    raise ValueError(f"unknown job kind {kind!r}")


def same_result(job: Job, a, b) -> bool:
    return a.same_as(b) if job.kind == "cli" else a == b


# --- verification ----------------------------------------------------------


def _table(ctx: Context, d: int, nmax: int):
    """A link_table covering 1..nmax for field d, built once per run."""
    t = ctx.tables.get(d)
    if t is None or t.nmax < nmax:
        t = ctx.tables[d] = cycles.link_table(ctx.fields.get(d) or qfield.make_field(d), nmax)
    return t


def _integral(values, n_det: int) -> str | None:
    for v in values:
        if (n_det * v).denominator != 1:
            return f"N_det*{v} is not integral (N_det={n_det})"
    return None


def _check_link_table(ctx, p, table):
    f = ctx.fields[p["d"]]
    if table.nmax != p["nmax"] or len(table.entries) != p["nmax"] ** 2:
        return "wrong table shape"
    for n in range(1, table.nmax + 1):
        closed = cycles.link_boundary_closed(f, n)
        if table.entries[(n, 1)] != closed:
            return f"Lk({n}, 1) = {table.entries[(n, 1)]} but the closed form gives {closed}"
    if ctx.tables.get(p["d"]) is None or ctx.tables[p["d"]].nmax < table.nmax:
        ctx.tables[p["d"]] = table
    return _integral(table.entries.values(), table.n_det)


def _check_qexp(ctx, p, q):
    table = _table(ctx, p["d"], max(p["m"], p["nmax"]))
    for n in range(1, p["nmax"] + 1):
        if q.coeffs[n] != table.entries[(n, p["m"])]:
            return f"coefficient {n} = {q.coeffs[n]} but the table has {table.entries[(n, p['m'])]}"
    return _integral(q.coeffs.values(), table.n_det)


def _check_closed(ctx, p, values):
    table = _table(ctx, p["d"], p["hi"] - 1)
    for n, v in zip(range(p["lo"], p["hi"]), values, strict=True):
        if v != table.entries[(n, 1)]:
            return f"closed form at n={n} is {v} but the double sum gives {table.entries[(n, 1)]}"
    return None


def _check_sol(ctx, p, values):
    n_det = sol.make_sol(p["f"]).n_det
    for (a, b), (direct, counted) in zip(p["pairs"], values, strict=True):
        if direct != counted:
            return f"a={a} b={b}: link_fiber {direct} != cap count {counted}"
    return _integral([direct for direct, _ in values], n_det)


def _check_boundary(ctx, p, comps):
    f = ctx.fields[p["d"]]
    for c in comps:
        rep = c.cls.rep
        if rep.norm() != p["n"]:
            return f"class rep {rep} has norm {rep.norm()}, not {p['n']}"
        if not rep.is_totally_positive():
            return f"class rep {rep} is not totally positive"
        if qfield.reduce_totally_positive(f, rep) != rep:
            return f"class rep {rep} is not reduced"
        if c.fiber_label * c.multiplicity != rep:
            return f"multiplicity * fiber label != {rep}"
    return None


def reference_W(ctx: Context, d: int, tau: complex, k_range: int, box: int, n_cut: int) -> complex:
    """The completed series with every truncation doubled: the min-series
    coefficients from the library at 2*k_range, and the lattice sum written
    out here in floats over a box of 2*box."""
    f = ctx.fields[d]
    coeffs = ctx.holo_ref.get((d, k_range, n_cut))
    if coeffs is None:
        coeffs = [qseries.min_series_coeff(f, n, 2 * k_range) for n in range(1, 2 * n_cut + 1)]
        ctx.holo_ref[(d, k_range, n_cut)] = coeffs
    holo = sum(c * cmath.exp(2j * math.pi * n * tau) for n, c in enumerate(coeffs, start=1))
    u, v = tau.real, tau.imag
    rt = math.sqrt(f.d)
    w = (1 + rt) / 2 if f.s0 else rt
    w_conj = f.s0 - w
    lattice = 0j
    for a in range(-2 * box, 2 * box + 1):
        for b in range(-2 * box, 2 * box + 1):
            x, y = a + b * w, a + b * w_conj
            norm = a * a + a * b * f.s0 + b * b * f.n0
            mag = beta_scaled(math.pi * v * f.disc * b * b) * math.exp(-math.pi * v * (x * x + y * y))
            lattice += mag * cmath.exp(2j * math.pi * norm * u)
    return holo - math.sqrt(2) / math.sqrt(f.disc * v) * lattice


def _check_eval_w(ctx, p, rep):
    values = (rep.holomorphic, rep.beta_part)
    if not all(cmath.isfinite(z) for z in values) or not math.isfinite(rep.holo_tail + rep.beta_tail):
        return "non-finite result"
    ref = reference_W(ctx, p["d"], p["tau"], p["k_range"], p["box"], p["n_cut"])
    err = abs(rep.total - ref)
    bound = rep.holo_tail + rep.beta_tail + ORACLE_TOL
    ctx.err_over_bound.append(err / bound)
    if err > bound:
        return f"|W - reference| = {err:.3e} exceeds holo_tail + beta_tail + {ORACLE_TOL} = {bound:.3e}"
    return None


def _check_ratio(ctx, p, rep):
    if rep.inconsistent:
        return f"zero linking but nonzero series at n={rep.inconsistent}"
    if not rep.ratios or not rep.spread <= RATIO_SPREAD_TOL:
        return f"ratio spread {rep.spread:.3e} over {len(rep.ratios)} ratios exceeds {RATIO_SPREAD_TOL}"
    return None


def cli_flags(job: Job, out: CliOutcome) -> dict:
    """Contract breaches of one CLI op, by kind."""
    return {
        "timeouts": out.code is None,
        "exit_mismatch": out.code is not None and out.code != job.params["expect"],
        "tracebacks": TRACEBACK in out.stderr,
        "nonfinite_out": bool(NONFINITE.search(out.stdout)),
    }


def _diff(got: dict, want: dict) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: CLI printed {got.get(key)!r}, library gives {value!r}"
    return None


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _cli_expected(p: dict) -> dict | str:
    """The library's value for a valid CLI op, as the CLI's JSON keys (or text)."""
    check = p["check"]
    if check == "startup":
        return ""
    if check == "sol-link":
        return str(sol.link_fiber(sol.make_sol(p["f"]), p["a"], p["b"])) + "\n"
    if check == "sol-cap":
        cap = sol.build_cap(sol.make_sol(p["f"]), p["a"])
        return {
            "circle_class": list(cap.circle_class),
            "weight": str(cap.weight),
            "monodromy_class": list(cap.monodromy_class),
            "fiber_correction": str(cap.fiber_correction),
            "area_period": str(sol.area_period(cap)),
            "boundary_check": "ok",
        }
    if check == "self-test":
        verdicts = selftest.run_suites(p["seed"])
        lines = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in verdicts]
        passed = sum(ok for _, ok, _ in verdicts)
        return "\n".join(lines + [f"{passed}/{len(verdicts)} suites passed (seed {p['seed']})"]) + "\n"
    f = qfield.make_field(p["d"])
    if check == "field-info":
        return {
            "d": f.d,
            "disc": f.disc,
            "eps0": str(f.eps0),
            "eps0_norm": f.eps0_norm,
            "eps": str(f.eps),
            "eps_trace": str(f.eps.trace()),
            "n_det": sol.glueing_from_unit(f).n_det,
        }
    if check == "boundary":
        comps = cycles.boundary_components(f, p["n"])
        return {
            "components": [
                {
                    "rep": str(c.cls.rep),
                    "coords": [str(c.cls.rep.a), str(c.cls.rep.b)],
                    "multiplicity": c.multiplicity,
                    "fiber": [str(c.fiber_label.a), str(c.fiber_label.b)],
                }
                for c in comps
            ]
        }
    if check == "lk-table":
        table = cycles.link_table(f, p["nmax"])
        return {"n_det": table.n_det, "entries": {f"{n},{m}": str(v) for (n, m), v in table.entries.items()}}
    if check == "qexp":
        q = qseries.lk_qexpansion(f, p["m"], p["nmax"])
        return {"coeffs": {str(n): str(v) for n, v in q.coeffs.items()}}
    if check == "combine":
        table = qseries.InteriorTable.from_json(p["text"])
        q = qseries.combine_interior(table, f, p["nmax"])
        return {"m": q.m, "coeffs": {str(n): str(v) for n, v in q.coeffs.items()}}
    if check == "w-eval":
        tau = complex(p["tau"].replace("i", "j"))
        rep = qseries.eval_W(f, qseries.WEvalParams(tau=tau, k_range=p["k_range"], box=p["box"], n_cut=p["n_cut"]))
        return {
            "holomorphic": _complex_json(rep.holomorphic),
            "beta": _complex_json(rep.beta_part),
            "total": _complex_json(rep.total),
            "holo_tail": rep.holo_tail,
            "beta_tail": rep.beta_tail,
        }
    if check == "ratio-test":
        rep = qseries.holomorphic_ratio_test(f, p["nmax"], p["k_range"])
        return {"ratios": {str(n): rep.ratios[n] for n in sorted(rep.ratios)}, "spread": rep.spread}
    raise ValueError(f"unknown CLI check {check!r}")


def _check_cli(ctx, p, out: CliOutcome, job: Job):
    flags = [name for name, hit in cli_flags(job, out).items() if hit]
    if flags:
        return f"{', '.join(flags)} (exit {out.code}, expected {p['expect']})"
    if p["check"] == "error":
        return None if out.stdout == "" else "printed to stdout on a usage error"
    want = _cli_expected(p)
    if isinstance(want, str):
        return None if out.stdout == want else f"stdout {out.stdout[:80]!r} != library {want[:80]!r}"
    try:
        got = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return _diff(got, want)


_CHECKS = {
    "link_table": _check_link_table,
    "qexp": _check_qexp,
    "closed": _check_closed,
    "sol": _check_sol,
    "boundary": _check_boundary,
    "eval_W": _check_eval_w,
    "ratio": _check_ratio,
}


def verify_job(ctx: Context, job: Job, result) -> str | None:
    """None if the result is right, else why not."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if job.kind == "cli":
        return _check_cli(ctx, job.params, result, job)
    return _CHECKS[job.kind](ctx, job.params, result)
