"""Tests of the benchmark itself: right results pass verification, a
deliberately corrupted result is counted as failed, and the tracer counts
and restores what it wraps.

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import dataclasses
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
import worker  # noqa: E402
from sollink import cycles, qfield  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

Job = workloads.Job


def _corrupt_table(t):
    entries = dict(t.entries)
    entries[(2, 3)] += Fraction(1, 7)
    return dataclasses.replace(t, entries=entries)


def _corrupt_qexp(q):
    return dataclasses.replace(q, coeffs={**q.coeffs, 3: q.coeffs[3] + 1})


def _corrupt_boundary(comps):
    c = comps[0]
    rep = c.cls.rep * c.cls.rep.field.eps  # same class, no longer reduced
    cls = dataclasses.replace(c.cls, rep=rep)
    return [dataclasses.replace(c, cls=cls, fiber_label=rep / c.multiplicity)] + comps[1:]


CASES = [
    (Job("link_table", {"d": 13, "nmax": 6}), _corrupt_table),
    (Job("qexp", {"d": 5, "m": 4, "nmax": 8}), _corrupt_qexp),
    (Job("closed", {"d": 5, "lo": 3, "hi": 9}), lambda v: v[:2] + [v[2] + 2] + v[3:]),
    (
        Job("sol", {"f": ((2, 1), (1, 1)), "pairs": (((1, 0), (0, 1)), ((2, -1), (1, 3))), "s_b": Fraction(1, 3)}),
        lambda v: [v[0], (v[1][0], v[1][1] + 1)],
    ),
    (Job("boundary", {"d": 46, "n": 9}), _corrupt_boundary),
    (
        Job("eval_W", {"d": 5, "tau": complex(0.2, 0.3), "k_range": 20, "box": 10, "n_cut": 10}),
        lambda r: dataclasses.replace(r, beta_part=r.beta_part + 1e-6),
    ),
    (Job("ratio", {"d": 5, "nmax": 8, "k_range": 40}), lambda r: dataclasses.replace(r, spread=1e-3)),
]


class VerificationTest(unittest.TestCase):
    def setUp(self):
        self.ctx = workloads.Context(fields={d: qfield.make_field(d) for d in (5, 13, 46)})

    def test_right_results_pass_and_corrupted_ones_fail(self):
        for job, corrupt in CASES:
            with self.subTest(job=job.label):
                result = workloads.run_job(self.ctx, job)
                self.assertIsNone(workloads.verify_job(self.ctx, job, result))
                self.assertIsNotNone(workloads.verify_job(self.ctx, job, corrupt(result)))

    def test_corrupted_result_counts_as_failed_ops(self):
        jobs = [job for job, _ in CASES]
        first = [workloads.run_job(self.ctx, job) for job in jobs]
        first[1] = CASES[1][1](first[1])
        changed = [0] * len(jobs)
        changed[3] = 1  # one later pass disagreed with the first
        attempted, failed, known, failures = worker.tally(self.ctx, jobs, first, changed, n_passes=4)
        self.assertEqual((attempted, failed, known), (4 * len(jobs), 4 + 1, 0))
        self.assertEqual([f["ops"] for f in failures], [4, 1])

    def test_cli_outcome_checks(self):
        job = workloads._cli(["sol-link", "--f=2,1,1,1", "--a=1,0", "--b=0,1"], "sol-link",
                             f=((2, 1), (1, 1)), a=(1, 0), b=(0, 1))
        good = workloads._run_cli(self.ctx, job.params)
        self.assertIsNone(workloads.verify_job(self.ctx, job, good))
        for bad in (
            dataclasses.replace(good, stdout="-2\n"),
            dataclasses.replace(good, code=1),
            dataclasses.replace(good, stdout="nan\n"),
            dataclasses.replace(good, stderr="Traceback (most recent call last):\n"),
            workloads.CliOutcome(None, "", ""),
        ):
            self.assertIsNotNone(workloads.verify_job(self.ctx, job, bad))

    def test_known_defect_ops_are_listed(self):
        _, jobs = workloads.build("cli-mix", 0)
        self.assertEqual(sum(1 for job in jobs if job.known_defect), 4)
        self.assertTrue(all(job.params["expect"] == 2 for job in jobs if job.known_defect))

    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 3), workloads.build(name, 3))


class TracerTest(unittest.TestCase):
    def test_counts_and_restores(self):
        field = qfield.make_field(5)
        original = cycles.link_table
        tracer = Tracer()
        tracer.install()
        try:
            table = cycles.link_table(field, 6)
        finally:
            tracer.uninstall()
        self.assertIs(cycles.link_table, original)
        self.assertIs(cycles.enumerate_norm_classes, qfield.enumerate_norm_classes)
        m = layer_metrics(tracer.snapshot())
        comps = sum(len(cycles.boundary_components(field, n)) for n in range(1, 7))
        self.assertEqual(m["cycles.link_table.calls"], 1)
        self.assertEqual(m["cycles.link_table.cells"], len(table.entries))
        self.assertEqual(m["cycles.boundary_components.calls"], 6)
        self.assertEqual(m["qfield.enumerate.calls"], 6)
        self.assertEqual(m["cycles.pairings"], comps**2)
        self.assertGreater(m["cycles.link_table.self_ms"], 0)


if __name__ == "__main__":
    unittest.main()
