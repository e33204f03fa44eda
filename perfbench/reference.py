"""Fixed reference work that calibrates timings against the machine's speed.

On a shared 2-vCPU machine the same job list took anywhere from 3.6 s to
5.8 s in runs a few minutes apart, because neighbours change how fast this
machine runs.  A run therefore also times a reference that never calls
sollink, interleaved with the jobs, and reports each time scaled by

    NOMINAL_S / (median reference time measured around it)

where NOMINAL_S is a round figure near the reference's median time on a
2-vCPU Xeon with Python 3.11.7, so the scaled figures read roughly as
seconds on that machine.  A change to sollink cannot move the reference; a
slower or faster machine moves both.  The raw times are reported next to the
scaled ones.

Neighbours slow different kinds of work by different amounts, so each
workload has a reference made of the kind of work its hot loop does.
"""

from __future__ import annotations

import cmath
import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

SPAWN_NOMINAL_S = 0.060  # scales set-up times against a bare interpreter start
CLI_IMPORTS = "import argparse, cmath, concurrent.futures, dataclasses, fractions, json"


def _fractions() -> None:
    """Small Fraction expressions, like the QuadElem arithmetic of the pairings."""
    acc = 0
    for i in range(1, 420):
        t = (Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, 5)) / Fraction(i + 1, 3)
        acc += t.numerator % 7


def _scan() -> None:
    """A perfect-square scan over b, like the norm-class b-scan."""
    disc, n, hits = 376, 5, 0
    for b in range(20000):
        t_sq = disc * b * b + 4 * n
        t = math.isqrt(t_sq)
        if t * t == t_sq and (t - b) % 2 == 0:
            hits += 1


def _lattice() -> None:
    """A Gaussian-weighted lattice sum with erfc and complex phases."""
    w = (1 + math.sqrt(5)) / 2
    u, v = 0.25, 0.5
    z = 0j
    for a in range(-9, 10):
        for b in range(-9, 10):
            fa, fb = Fraction(a), Fraction(b)
            x, y = float(fa) + float(fb) * w, float(fa) + float(fb) * (1 - w)
            s = math.pi * v * 5 * b * b
            mag = (2 * math.exp(-s) - 2 * math.sqrt(math.pi * s) * math.erfc(math.sqrt(s))) * math.exp(
                -math.pi * v * (x * x + y * y)
            )
            z += mag * cmath.exp(2j * math.pi * float(fa * fa + fa * fb - fb * fb) * u)


def _cli_start() -> None:
    """An interpreter that imports the standard modules sollink.cli needs."""
    subprocess.run([sys.executable, "-c", CLI_IMPORTS], check=True)


def spawn() -> float:
    """Seconds to start a bare interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


def _timed(kernel):
    def run() -> float:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0

    return run


# (reference, its nominal seconds) per workload
FOR_WORKLOAD = {
    "exact-small-unit": (_timed(_fractions), 0.004),
    "exact-large-unit": (_timed(_scan), 0.004),
    "numeric-series": (_timed(_lattice), 0.004),
    "cli-mix": (_timed(_cli_start), 0.080),
}
