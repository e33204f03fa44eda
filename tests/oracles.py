"""Independent brute-force oracles used to validate the library.

Units come from a per-coefficient Pell scan (no continued fractions), so
agreement is a real cross-check.  The norm-class enumeration and the beta
lattice sum are the exact-element routes: every candidate or lattice point is
a QuadElem, tested, embedded and normed on its own.  The orbit-minimum
coefficient evaluates every term once per sign, over the library's classes.
Boundary linking numbers come from the component-pair double sum, and norm
solutions from an unreduced box search.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from sollink.cycles import boundary_components
from sollink.errors import InputError
from sollink.qfield import FieldData, NormClass, QuadElem, Rat, enumerate_norm_classes
from sollink.special_fn import beta_scaled

_B_CAP = 10**6  # d=94 needs b = 221064; nothing below 100 needs more


def _disc_s0(d: int) -> tuple[int, int]:
    return (d, 1) if d % 4 == 1 else (4 * d, 0)


def _unit_coords(d: int, t: int, b: int) -> tuple[int, int]:
    """(a, b) coordinates on the (1, w) basis of the unit with trace t."""
    s0 = _disc_s0(d)[1]
    assert (t - s0 * b) % 2 == 0
    return ((t - s0 * b) // 2, b)


def pell_units(d: int) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """((a, b, norm) of the smallest unit > 1, (a, b) of the smallest totally
    positive unit > 1), by scanning b = 1, 2, ... and solving
    t^2 = disc*b^2 +- 4 with a perfect-square test.

    Units u = (t + b*sqrt(disc))/2 > 1 are strictly increasing in b (and, at
    equal b, the -4 branch is the smaller), so the first hit is the minimal
    unit.  Minimality of the totally positive generator follows: any unit
    v > 1 equals u^k (else v*u^-k would be a unit strictly between 1 and u),
    and u^k is totally positive iff norm(u)^k = 1, so the smallest totally
    positive one is u itself when norm(u) = 1 and u^2 when norm(u) = -1.
    The square is computed here with plain integer arithmetic: u^2 has scan
    parameters T = disc*b^2 - 2, B = t*b.
    """
    disc, s0 = _disc_s0(d)
    for b in range(1, _B_CAP + 1):
        base = disc * b * b
        for norm, t_sq in ((-1, base - 4), (1, base + 4)):
            if t_sq < 0:
                continue
            t = math.isqrt(t_sq)
            if t * t != t_sq or (t - s0 * b) % 2:
                continue
            first = (*_unit_coords(d, t, b), norm)
            if norm == 1:
                return first, _unit_coords(d, t, b)
            return first, _unit_coords(d, disc * b * b - 2, t * b)
    raise RuntimeError(f"no unit with b <= {_B_CAP} for d={d}")


def min_series_coeff_reference(field, n: int, k_range: int) -> float:
    """min_series_coeff with every exp(min(...)) term evaluated for each sign,
    summed classes, then signs, then k ascending."""
    log_eps = math.log(field.eps.embed())
    total = 0.0
    for cls in enumerate_norm_classes(field, n):
        log_mu = math.log(cls.rep.embed())
        log_mu_c = math.log(cls.rep.embed(conjugate=True))
        for _sign in (1, -1):
            for k in range(-k_range, k_range + 1):
                total += math.exp(min(log_mu + k * log_eps, log_mu_c - k * log_eps))
    return total / math.sqrt(2 * field.disc)


def beta_lattice_reference(field, tau: complex, box: int) -> tuple[complex, float]:
    """(beta_part, beta_tail) of eval_W with one QuadElem per lattice point
    a + b*w, |a|, |b| <= box, summed a-outer, b-inner."""
    u, v = tau.real, tau.imag
    prefactor = -math.sqrt(2) / math.sqrt(field.disc * v)
    beta_sum = 0.0j
    shell_abs = 0.0
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            lam = field.element(a, b)
            x, y = lam.embed(), lam.embed(conjugate=True)
            s = math.pi * v * field.disc * b * b
            mag = beta_scaled(s) * math.exp(-math.pi * v * (x * x + y * y))
            term = mag * cmath.exp(2j * math.pi * float(lam.norm()) * u)
            beta_sum += term
            if max(abs(a), abs(b)) == box:
                shell_abs += abs(mag)
    return prefactor * beta_sum, abs(prefactor) * 2 * shell_abs


def enumerate_norm_classes_reference(field, n: int) -> list:
    """enumerate_norm_classes for an integer n >= 1 with Fraction sign tests:
    each b-scan survivor becomes a QuadElem that must be totally positive and
    satisfy x/x' < eps^2."""
    t2m2 = int((field.eps * field.eps).trace()) - 2
    b_max = math.isqrt(n * t2m2 // field.disc)
    e2 = field.eps * field.eps
    out = []
    for b in range(0, b_max + 1):
        t_sq = field.disc * b * b + 4 * n
        t = math.isqrt(t_sq)
        if t * t != t_sq:
            continue
        if (t - field.s0 * b) % 2:
            continue
        x = field.element((t - field.s0 * b) // 2, b)
        if not x.is_totally_positive():
            continue
        # domain: b >= 0 gives x >= x'; exclude ratio exactly eps^2
        if (e2 * x.conj() - x).sign() <= 0:
            continue
        out.append(NormClass(rep=x))
    out.sort(key=lambda c: (c.rep.a, c.rep.b))
    return out


def brute_force_norm_solutions(field: FieldData, n: Rat, bound: int) -> list[QuadElem]:
    """Every totally positive a + b*w with norm n and |a|, |b| <= bound.

    Unreduced box search; the oracle counterpart of enumerate_norm_classes.
    """
    n = Fraction(n)
    if n <= 0:
        raise InputError(f"norm must be positive, got {n}")
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            x = field.element(a, b)
            if x.norm() == n and x.is_totally_positive():
                out.append(x)
    out.sort(key=lambda x: (x.a, x.b))
    return out


def symplectic_pairing(x: QuadElem, y: QuadElem) -> Fraction:
    """<x, y> = (x*y' - x'*y)/sqrt(disc), the w-coordinate of x*y'."""
    if x.field != y.field:
        raise InputError("pairing requires elements of one field")
    return (x * y.conj()).b


def link_boundary(field: FieldData, n, m) -> Fraction:
    """Linking number of the norm-n and norm-m boundary families.

    Double sum of min'(mu) * min'(nu) * <g Jmu, Jnu> over component pairs,
    with J the primitive totally positive direction, g division by (eps - 1),
    and a global factor 2 for the two signs of each class.  Same-fiber pairs
    (proportional classes) inherit the positive push-off convention of
    sol.link_fiber.  This is the reference route; tables use _link_numbers.
    """
    comps_n, comps_m = boundary_components(field, n), boundary_components(field, m)
    gm1 = field.eps - 1  # g acts on classes as division by (eps - 1)
    total = Fraction(0)
    for cn in comps_n:
        g_dir = cn.fiber_label / gm1
        for cm in comps_m:
            term = symplectic_pairing(g_dir, cm.fiber_label)
            total += 2 * cn.multiplicity * cm.multiplicity * term
    return total
