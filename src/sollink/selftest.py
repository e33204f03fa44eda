"""Randomized internal cross-checks, runnable from the CLI.

Every suite checks one identity two independent ways (algebraic formula vs
geometric count, closed form vs finite difference) over a fixed number of
trials and returns (ok, detail); _SUITES names the suites, and nothing here
depends on stored expected values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import sol
from .qfield import make_field
from .qseries import holomorphic_ratio_test
from .special_fn import (
    A_profile,
    Ap_profile,
    B_profile,
    Bp_profile,
    WPoint,
    beta_fn,
    beta_scaled,
    orbit_action,
    quad_form,
)


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


def _sample_point(rng: random.Random, off_cone: bool = False) -> WPoint:
    while True:
        x2 = rng.choice([-1, 1]) * rng.uniform(0.2, 1.5)
        x3 = rng.choice([-1, 1]) * rng.uniform(0.2, 1.2)
        if not off_cone or abs(abs(x2) - abs(x3)) >= 0.15:
            return WPoint(x2, x3)


def check_flow_derivative(rng: random.Random) -> tuple[bool, str]:
    """-X23 B = A and -X23 B' = A' by central differences along the orbit."""
    h = 1e-4
    worst = 0.0
    for _ in range(trials := 50):
        p = _sample_point(rng, off_cone=True)
        for fn, dfn in ((B_profile, A_profile), (Bp_profile, Ap_profile)):
            plus = fn(orbit_action(-h, p))
            minus = fn(orbit_action(h, p))
            lhs = -(plus - minus) / (2 * h)
            rhs = dfn(p)
            err = abs(lhs - rhs) / max(abs(rhs), 1e-9)
            worst = max(worst, err)
            if err > 1e-5:
                return False, f"p={p} {fn.__name__}: rel err {err:.2e}"
    return True, f"max rel err {worst:.2e} over {trials} points"


def check_pde(rng: random.Random) -> tuple[bool, str]:
    """(-1/4pi)(d22 - d33) F + pi (x,x) F = 2 F for F in {B, B'}."""
    h = 1e-3
    worst = 0.0
    for _ in range(trials := 50):
        p = _sample_point(rng, off_cone=True)
        for fn in (B_profile, Bp_profile):
            f0 = fn(p)
            d22 = (fn(WPoint(p.x2 + h, p.x3)) - 2 * f0 + fn(WPoint(p.x2 - h, p.x3))) / (h * h)
            d33 = (fn(WPoint(p.x2, p.x3 + h)) - 2 * f0 + fn(WPoint(p.x2, p.x3 - h))) / (h * h)
            lhs = -(d22 - d33) / (4 * math.pi) + math.pi * quad_form(p) * f0
            err = abs(lhs - 2 * f0) / max(abs(2 * f0), 1e-6)
            worst = max(worst, err)
            if err > 1e-3:
                return False, f"p={p} {fn.__name__}: rel err {err:.2e}"
    return True, f"max rel err {worst:.2e} over {trials} points"


def check_jump_cancellation(rng: random.Random) -> tuple[bool, str]:
    """A + A' and B + B' extend continuously across x3 = 0.

    At x3 = +-delta, A is within O(delta) of its one-sided limit
    +-(1/2) x2 e^{-pi x2^2} and A' of the opposite one, so the sums differ
    across the wall by O(delta) only."""
    delta = 1e-9
    for _ in range(trials := 40):
        x2 = rng.choice([-1, 1]) * rng.uniform(0.2, 1.5)
        lim = 0.5 * x2 * math.exp(-math.pi * x2 * x2)
        up, down = WPoint(x2, delta), WPoint(x2, -delta)
        a_up, a_down, ap_up, ap_down = A_profile(up), A_profile(down), Ap_profile(up), Ap_profile(down)
        lim_err = max(abs(a_up - lim), abs(a_down + lim), abs(ap_up + lim), abs(ap_down - lim))
        if lim_err > 1e-8:
            return False, f"x2={x2}: one-sided limits off by {lim_err:.2e}"
        a_gap = abs((a_up + ap_up) - (a_down + ap_down))
        b_gap = abs((B_profile(up) + Bp_profile(up)) - (B_profile(down) + Bp_profile(down)))
        if a_gap > 1e-8 or b_gap > 1e-10:
            return False, f"x2={x2}: gaps {a_gap:.2e}, {b_gap:.2e}"
    return True, f"{trials} crossings continuous"


def check_cone_continuity(rng: random.Random) -> tuple[bool, str]:
    """B' vanishes continuously at the light cone."""
    delta = 1e-6
    for _ in range(trials := 40):
        x2 = rng.choice([-1, 1]) * rng.uniform(0.3, 1.5)
        s3 = rng.choice([-1, 1])
        inside = WPoint(x2, s3 * (abs(x2) - delta))
        outside = WPoint(x2, s3 * (abs(x2) + delta))
        if abs(Bp_profile(inside)) > 1e-6 or Bp_profile(outside) != 0.0:
            return False, f"x2={x2}"
    return True, f"{trials} cone approaches continuous"


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
    for s in (29.5, 30.0, 30.5):
        direct = beta_fn(s) * math.exp(s)
        scaled = beta_scaled(s + 1e-9) if s >= 30 else beta_scaled(s)
        if abs(direct - scaled) / direct > 1e-7:
            return False, f"branch mismatch at s={s}"
    return True, "value at 0, monotone decay, branch agreement"


def check_orbit_invariance(rng: random.Random) -> tuple[bool, str]:
    for _ in range(trials := 40):
        p = _sample_point(rng)
        s = rng.uniform(-2, 2)
        if abs(quad_form(orbit_action(s, p)) - quad_form(p)) > 1e-10:
            return False, f"p={p} s={s}"
    return True, f"{trials} orbit moves preserve the form"


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
    "flow-derivative": check_flow_derivative,
    "pde": check_pde,
    "jump-cancellation": check_jump_cancellation,
    "cone-continuity": check_cone_continuity,
    "beta": check_beta,
    "orbit-invariance": check_orbit_invariance,
    "ratio-quick": check_ratio_quick,
}


def run_suites(seed: int) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) for each suite, run in order on one generator."""
    rng = random.Random(seed)
    return [(name, *check(rng)) for name, check in _SUITES.items()]
