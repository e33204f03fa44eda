"""One workload in a fresh interpreter; started by run.py, not by hand.

Set-up (imports and make_field for the workload's fields) ends with a line
"READY" on stdout, which run.py times.  Then the job list runs in passes
until --seconds is used up, each job timed on its own.  With --trace 1 the
passes alternate untraced and traced.  After timing ends every job's first
result is verified, and every later pass is checked against the first.  The
last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from time import perf_counter

import reference
import workloads
from sollink import qfield
from tracer import CLI_SUBCOMMANDS, Tracer, layer_metrics

MIN_PASSES = 3  # untraced passes; a traced run also makes at least 2 traced ones
REF_EVERY = 10  # time the reference again after 10 times its duration of jobs


def _run_passes(ctx, jobs, seconds, tracer, ref):
    """Run the job list in passes; return the first result of each job, how
    many later passes disagreed with it, untraced seconds per job and pass,
    and per pass its wall time, median reference time and trace snapshot."""
    first = [None] * len(jobs)
    changed = [0] * len(jobs)
    times = [[] for _ in jobs]
    walls = {False: [], True: []}
    refs = {False: [], True: []}
    snaps = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        # Every pass starts from the same collector state, and the results kept
        # for verification are not scanned by the program's collections.
        gc.collect()
        gc.freeze()
        if traced:
            tracer.reset()
            tracer.install()
            ctx.tracer = tracer
        t_pass = perf_counter()
        wall = since_ref = 0.0
        ref_times = [ref()]
        for j, job in enumerate(jobs):
            if since_ref >= REF_EVERY * ref_times[-1]:
                ref_times.append(ref())
                since_ref = 0.0
            t0 = perf_counter()
            try:
                result = workloads.run_job(ctx, job)
            except Exception as exc:  # a failing job is counted, not fatal
                result = exc
            dt = perf_counter() - t0
            wall += dt
            since_ref += dt
            if not traced:
                times[j].append(dt)
            if first[j] is None:
                first[j] = result
            elif not workloads.same_result(job, result, first[j]):
                changed[j] += 1
        ref_times.append(ref())
        if traced:
            tracer.uninstall()
            ctx.tracer = None
            snaps.append(tracer.snapshot())
        walls[traced].append(wall)
        refs[traced].append(statistics.median(ref_times))
        now = perf_counter()
        enough = len(walls[False]) >= MIN_PASSES and (tracer is None or len(walls[True]) >= 2)
        if enough and now - start + (now - t_pass) > seconds:
            return first, changed, times, walls, refs, snaps


def tally(ctx, jobs, first, changed, n_passes):
    """Verify each job's first result; return (ops attempted, ops failed,
    failed ops that are listed known defects, one record per failing job)."""
    attempted = failed = known_failed = 0
    failures = []
    for job, result, n_changed in zip(jobs, first, changed):
        try:
            reason = workloads.verify_job(ctx, job, result)
        except Exception as exc:  # a check that cannot run is a failed check
            reason = f"verification raised {exc!r}"
        n_failed = n_passes if reason else n_changed
        if n_changed and not reason:
            reason = f"result changed in {n_changed} of {n_passes} passes"
        attempted += n_passes
        failed += n_failed
        if reason:
            known_failed += n_failed if job.known_defect else 0
            failures.append({"op": job.label, "reason": reason, "known_defect": job.known_defect, "ops": n_failed})
    return attempted, failed, known_failed, failures


def _cli_metrics(jobs, first, times) -> dict:
    out = {f"cli.{sub}.p50_ms": 0.0 for sub in CLI_SUBCOMMANDS}
    flags = {"cli.exit_mismatch": 0, "cli.tracebacks": 0, "cli.nonfinite_out": 0, "cli.timeouts": 0}
    startup = []
    by_sub = {}
    for job, result, t in zip(jobs, first, times):
        if job.kind != "cli":
            continue
        check = job.params["check"]
        if check == "startup":
            startup += t
        elif check != "error":
            by_sub.setdefault(check, []).extend(t)
        if isinstance(result, workloads.CliOutcome):
            for name, hit in workloads.cli_flags(job, result).items():
                flags[f"cli.{name}"] += hit
    for sub, samples in by_sub.items():
        out[f"cli.{sub}.p50_ms"] = statistics.median(samples) * 1e3
    out["cli.startup_ms"] = statistics.median(startup) * 1e3 if startup else 0.0
    out.update(flags)
    return out


def _median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    field_ds, jobs = workloads.build(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    fields = {d: qfield.make_field(d) for d in field_ds}
    setup_snap = None
    if tracer:
        tracer.uninstall()
        setup_snap = tracer.snapshot()
    ctx = workloads.Context(fields=fields)
    workloads.prepare(jobs)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        ref, nominal = reference.FOR_WORKLOAD[args.workload]
        first, changed, times, walls, refs, snaps = _run_passes(ctx, jobs, args.seconds, tracer, ref)
        # A timed-out call lasts its budget whatever the machine's speed, so it is not scaled.
        fixed = [isinstance(r, workloads.CliOutcome) and r.code is None for r in first]
        scale = [nominal / r for r in refs[False]]
        scaled = [[t * (1.0 if fix else k) for t, k in zip(ts, scale)] for ts, fix in zip(times, fixed)]
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        n_passes = len(walls[False]) + len(walls[True])
        attempted, failed, known_failed, failures = tally(ctx, jobs, first, changed, n_passes)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "jobs": len(jobs),
            "untraced_walls": [sum(pass_times) for pass_times in zip(*scaled)],
            "untraced_walls_raw": walls[False],
            "traced_walls_raw": walls[True],
            "reference_s": refs[False],
            "job_medians_s": [statistics.median(ts) for ts in scaled],
            "job_medians_raw_s": [statistics.median(ts) for ts in times],
            "attempted": attempted,
            "failed": failed,
            "known_failed": known_failed,
            "failures": failures,
            "peak_rss_kb": peak_kb,
        }
        if tracer:
            layer = _median_metrics([layer_metrics(s) for s in snaps])
            setup = layer_metrics(setup_snap)
            for key in ("qfield.make_field.calls", "qfield.make_field.self_ms"):
                layer[key] += setup[key]
            layer["qseries.eval_W.err_over_bound_max"] = max(ctx.err_over_bound, default=0.0)
            layer.update(_cli_metrics(jobs, first, times))
            layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
            report["layer"] = layer
        print(json.dumps(report), flush=True)
        return 0
    finally:
        workloads.cleanup(jobs)


if __name__ == "__main__":
    sys.exit(main())
