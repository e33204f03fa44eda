"""Randomized internal cross-checks, runnable from the CLI.

Every suite checks one identity two independent ways (algebraic formula vs
geometric count, one branch of the beta kernel vs the other, the orbit-minimum
series vs exact linking numbers) over a fixed number of trials and returns
(ok, detail); _SUITES names the suites, and nothing here depends on stored
expected values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import sol
from .qfield import make_field
from .qseries import holomorphic_ratio_test
from .special_fn import beta_fn, beta_scaled


def _random_hyperbolic(rng: random.Random) -> sol.SolManifold:
    """Random hyperbolic gluing as a short product of unit shears, rejecting
    small traces and large entries."""
    while True:
        m = ((1, 0), (0, 1))
        for i in range(rng.randint(2, 4)):
            x = rng.choice([-3, -2, -1, 1, 2, 3])
            shear = ((1, x), (0, 1)) if i % 2 == 0 else ((1, 0), (x, 1))
            m = sol._mat_mul(m, shear)
        tr = m[0][0] + m[1][1]
        if abs(tr) > 2 and max(abs(e) for row in m for e in row) <= 30:
            return sol.make_sol(m)


def _random_class(rng: random.Random, lo: int = -5, hi: int = 5) -> tuple[int, int]:
    while True:
        v = (rng.randint(lo, hi), rng.randint(lo, hi))
        if v != (0, 0):
            return v


def check_sol_oracle(rng: random.Random) -> tuple[bool, str]:
    """link_fiber vs the cap construction's fiber-crossing count."""
    for _ in range(trials := 100):
        m = _random_hyperbolic(rng)
        a, b = _random_class(rng), _random_class(rng)
        cap = sol.build_cap(m, a)
        direct = sol.link_fiber(m, a, b)
        counted = sol.cap_intersect(cap, m, b, Fraction(1, 3))
        if direct != counted:
            return False, f"f={m.f} a={a} b={b}: {direct} != {counted}"
    return True, f"{trials} random gluings agree exactly"


def check_sol_bilinear(rng: random.Random) -> tuple[bool, str]:
    for _ in range(trials := 60):
        m = _random_hyperbolic(rng)
        a, b, c = _random_class(rng), _random_class(rng), _random_class(rng)
        s = rng.randint(-4, 4)
        left = sol.link_fiber(m, (a[0] + s * c[0], a[1] + s * c[1]), b)
        right = sol.link_fiber(m, a, b) + s * sol.link_fiber(m, c, b)
        if left != right:
            return False, f"f={m.f} a={a} b={b} c={c} s={s}"
    return True, f"{trials} linearity probes agree exactly"


def check_sol_conjugation(rng: random.Random) -> tuple[bool, str]:
    """Linking numbers only depend on the conjugacy class of the gluing."""
    for _ in range(trials := 60):
        m = _random_hyperbolic(rng)
        h = _random_hyperbolic(rng).f  # any SL(2,Z) element works as h
        m2 = sol.make_sol(sol._mat_mul(sol._mat_mul(h, m.f), sol._sl2_inv(h)))
        a, b = _random_class(rng), _random_class(rng)
        if sol.link_fiber(m, a, b) != sol.link_fiber(m2, sol._mat_vec(h, a), sol._mat_vec(h, b)):
            return False, f"f={m.f} h={h} a={a} b={b}"
    return True, f"{trials} conjugations agree exactly"


def check_sol_asymmetry(rng: random.Random) -> tuple[bool, str]:
    """<g a, b> + <a, g b> = (tr f - 2) <g a, g b>."""
    for _ in range(trials := 60):
        m = _random_hyperbolic(rng)
        a, b = _random_class(rng), _random_class(rng)
        ga, gb = (tuple(Fraction(x, m.n_det) for x in sol._gamma0(m, v)) for v in (a, b))
        tr = m.f[0][0] + m.f[1][1]
        left = sol._det2(ga, b) + sol._det2(a, gb)
        right = (tr - 2) * sol._det2(ga, gb)
        if left != right:
            return False, f"f={m.f} a={a} b={b}: {left} != {right}"
    return True, f"{trials} asymmetry probes agree exactly"


def check_caps(rng: random.Random) -> tuple[bool, str]:
    """Caps close up: zero area-form period and exactly the input boundary."""
    for _ in range(trials := 50):
        m = _random_hyperbolic(rng)
        a = _random_class(rng, -6, 6)
        offset = (Fraction(rng.randint(-3, 3), 4), Fraction(rng.randint(-3, 3), 4))
        cap = sol.build_cap(m, a, offset)
        if sol.area_period(cap) != 0:
            return False, f"f={m.f} a={a}: nonzero area period"
        if sol.boundary_cycle(cap) != sol.expected_boundary(cap):
            return False, f"f={m.f} a={a}: wrong boundary"
    return True, f"{trials} random caps close exactly"


def check_beta(rng: random.Random) -> tuple[bool, str]:
    """Value at 0, positivity/decay, and agreement of the two scaled branches."""
    if abs(beta_fn(0.0) - 1 / (8 * math.pi)) > 1e-15:
        return False, "beta(0) != 1/(8 pi)"
    prev = beta_fn(0.0)
    for s in [0.1 * k for k in range(1, 60)]:
        cur = beta_fn(s)
        if not 0 < cur < prev:
            return False, f"not strictly decreasing at s={s}"
        prev = cur
    for s in (79.5, 80.0, 80.5):
        direct = beta_fn(s) * math.exp(s)
        scaled = beta_scaled(s + 1e-9) if s >= 80 else beta_scaled(s)
        if abs(direct - scaled) / direct > 1e-10:
            return False, f"branch mismatch at s={s}"
    return True, "value at 0, monotone decay, branch agreement"


def check_ratio_quick(rng: random.Random) -> tuple[bool, str]:
    """The min-series / linking-number ratio is constant across n."""
    report = holomorphic_ratio_test(make_field(5), nmax=10, k_range=60)
    if report.inconsistent:
        return False, f"zero linking but nonzero series at n={report.inconsistent}"
    if report.spread > 1e-8:
        return False, f"spread {report.spread:.2e}"
    return True, f"spread {report.spread:.2e} over {len(report.ratios)} ratios"


# suite name -> check, in run order: the checks share one generator, so the
# order fixes each suite's draws for a seed
_SUITES = {
    "sol-oracle": check_sol_oracle,
    "sol-bilinear": check_sol_bilinear,
    "sol-conjugation": check_sol_conjugation,
    "sol-asymmetry": check_sol_asymmetry,
    "caps": check_caps,
    "beta": check_beta,
    "ratio-quick": check_ratio_quick,
}


def run_suites(seed: int) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for each suite, run in order on one generator."""
    rng = random.Random(seed)
    return [(name, *check(rng)) for name, check in _SUITES.items()]
