"""sollink benchmark: the command that runs it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; NAME is one of WORKLOADS or `all`.
Each workload runs in a fresh child interpreter (worker.py), one child at a
time, against the sources in src/.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics from a
run whose passes alternate untraced and traced.  Lines before it are the
human-readable report and a stamp of the machine state.  README.md explains
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("exact-small-unit", "exact-large-unit", "numeric-series", "cli-mix")
END_TO_END = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5  # set-up-only children per run, after one that warms the bytecode cache
GRACE_S = 120.0  # a worker must finish within --seconds plus this


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(args: list[str], timeout: float) -> tuple[float, str]:
    """Start a worker and return (seconds until it printed READY, its later stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SOLLINK_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as an installed package does
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else b""
        setup_s = perf_counter() - t0
        if line != b"READY\n":
            raise RuntimeError(f"worker did not get ready (first line {line!r})")
        rest, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup_s, rest.decode()


def _tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile): p90, or the highest percentile with 10 values beyond it."""
    n = len(sorted_values)
    rank = max(1, min(math.ceil(0.9 * n), n - 10))
    return sorted_values[rank - 1], 100.0 * rank / n


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    load_before = os.getloadavg()[0]
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []  # (set-up seconds, bare interpreter start timed just before)
    if not trace:
        for i in range(SETUP_SAMPLES + 1):
            bare = reference.spawn()
            setup_s, _ = _spawn(args + ["--setup-only"], GRACE_S)
            if i:
                setups.append((setup_s, bare))
    bare = reference.spawn()
    setup_s, out = _spawn(args, seconds + GRACE_S)
    setups.append((setup_s, bare))
    report = json.loads(out.strip().splitlines()[-1])
    report["stamp"] = {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "seed": seed,
        "workload": name,
        "seconds": seconds,
        "trace": trace,
    }
    for suffix, scale in (("", reference.SPAWN_NOMINAL_S), ("_raw", None)):
        job_ms = sorted(t * 1e3 for t in report["job_medians" + suffix + "_s"])
        p_tail, pct = _tail(job_ms)
        report["end_to_end" + suffix] = {
            "wall_s": statistics.median(report["untraced_walls" + suffix]),
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": p_tail,
            "setup_s": statistics.median(s * (scale / b if scale else 1) for s, b in setups),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
    report["tail_percentile"] = pct
    report["setup_samples"] = len(setups)
    report["correct"] = report["failed"] == report["known_failed"]
    return report


_NOTES = {
    "wall_s": lambda r: f"median of {len(r['untraced_walls'])} passes over {r['jobs']} jobs",
    "job_p50_ms": lambda r: f"median of {r['jobs']} per-job medians",
    "job_p90_ms": lambda r: f"p{r['tail_percentile']:.0f} of {r['jobs']} per-job medians",
    "setup_s": lambda r: f"median of {r['setup_samples']} set-ups",
    "peak_rss_mb": lambda r: "child ru_maxrss (not scaled)",
}


def _print_report(r: dict) -> None:
    e = r["end_to_end"]
    print(f"== {r['workload']}  seed {r['stamp']['seed']}  {r['stamp']['seconds']:g} s  trace {r['stamp']['trace']}")
    print("stamp " + json.dumps(r["stamp"]))
    if not r["stamp"]["trace"]:
        raw = r["end_to_end_raw"]
        print(f"  {'metric':12s} {'scaled':>10s} {'raw':>10s}")
        for key, unit in END_TO_END.items():
            print(f"  {key:12s} {e[key]:10.4f} {raw[key]:10.4f} {unit:3s} {_NOTES[key](r)}")
        print("  passes_s     " + " ".join(f"{w:.3f}" for w in r["untraced_walls_raw"]) + " (raw)")
        print("  reference_s  " + " ".join(f"{w:.5f}" for w in r["reference_s"]))
    ratio = r["failed"] / r["attempted"]
    print(f"  fail_ratio   {ratio:10.4f}     {r['failed']} of {r['attempted']} ops failed")
    if r["stamp"]["trace"]:
        traced = statistics.median(r["traced_walls_raw"])
        print(f"  raw wall_s {traced:.4f} s traced, {statistics.median(r['untraced_walls_raw']):.4f} s untraced")
        for key, value in r["layer"].items():
            print(f"  {key:40s} {value:14.4f} {PER_LAYER[key][0]}")
    for f in r["failures"]:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{f['ops']}: {f['op']}: {f['reason']} [{tag}]")
    if not r["failures"]:
        verdict = "ok"
    elif r["correct"]:
        verdict = f"ok apart from {r['known_failed']} failed known-defect ops"
    else:
        verdict = "FAILED"
    print(f"  verdict      {verdict}")


def _metrics(r: dict) -> dict:
    if r["stamp"]["trace"]:
        return {k: {"value": r["layer"][k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    return {k: {"value": r["end_to_end"][k], "unit": unit} for k, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sollink" / "__init__.py").is_file():
        print(f"error: no sollink sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        _print_report(r)
    if len(reports) == 1:
        metrics = _metrics(reports[0])
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in _metrics(r).items()}
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
