"""Numeric kernel profiles on the signature (1,1) plane.

Points carry coordinates (x2, x3) with quadratic form (x, x) = x2^2 - x3^2.
The even/odd kernel pair (A, B) and its singular counterpart (A', B') satisfy,
away from x3 = 0 and the light cone:

    A  = -X23 B,   A' = -X23 B',   with (X23 F)(p) = d/ds F(orbit_action(-s, p)) at s = 0,
    (-1/4pi)(d22 - d33) F + pi (x,x) F = 2 F   for F in {B, B'},

and the jump of A across x3 = 0 cancels against the jump of A', so A + A' and
B + B' extend continuously.  These identities are enforced numerically by the
test suite and the self-test command.

Every profile returns a plain float.  On x3 = 0, where A and A' jump, each
returns 0.0, the mean of its two one-sided limits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError

_SQRT_PI = math.sqrt(math.pi)


class WPoint(NamedTuple):
    x2: float
    x3: float


def gamma_half(a: float) -> float:
    """Incomplete gamma of index 1/2: integral of e^-u u^-1/2 from a to infinity,
    equal to sqrt(pi) * erfc(sqrt(a))."""
    if a < 0:
        raise InputError(f"argument must be >= 0, got {a}")
    return _SQRT_PI * math.erfc(math.sqrt(a))


def quad_form(p: WPoint) -> float:
    return p.x2 * p.x2 - p.x3 * p.x3


def orbit_action(s: float, p: WPoint) -> WPoint:
    """Hyperbolic rotation by s: preserves (x, x)."""
    ch, sh = math.cosh(s), math.sinh(s)
    return WPoint(p.x2 * ch + p.x3 * sh, p.x2 * sh + p.x3 * ch)


def A_profile(p: WPoint) -> float:
    """Odd kernel component; tends to +-(1/2) x2 e^{-pi x2^2} as x3 -> 0+-
    and is 0.0, the mean of those limits, on x3 = 0."""
    x2, x3 = p.x2, p.x3
    if x3 == 0:
        return 0.0
    sgn = math.copysign(1.0, x3)
    return 0.5 / _SQRT_PI * x2 * sgn * gamma_half(2 * math.pi * x3 * x3) * math.exp(-math.pi * (x2 * x2 - x3 * x3))


def B_profile(p: WPoint) -> float:
    """Even kernel component; continuous, not C^1 across x3 = 0."""
    x2, x3 = p.x2, p.x3
    term1 = -math.exp(-math.pi * (x2 * x2 + x3 * x3)) / (2 * math.sqrt(2) * math.pi)
    term2 = 0.5 / _SQRT_PI * abs(x3) * gamma_half(2 * math.pi * x3 * x3) * math.exp(-math.pi * (x2 * x2 - x3 * x3))
    return term1 + term2


def Bp_profile(p: WPoint) -> float:
    """Singular even counterpart: (1/2) min(|x2-x3|, |x2+x3|) e^{-pi (x,x)}
    inside the positive cone x2^2 > x3^2, zero outside and on the cone."""
    q = quad_form(p)
    if q <= 0:
        return 0.0
    return 0.5 * min(abs(p.x2 - p.x3), abs(p.x2 + p.x3)) * math.exp(-math.pi * q)


def Ap_profile(p: WPoint) -> float:
    """Singular odd counterpart -sgn(x2 x3) * Bp; inside the cone it tends to
    -+(1/2) x2 e^{-pi x2^2} as x3 -> 0+-, opposite to A, and is 0.0 on x3 = 0."""
    if p.x3 == 0:
        return 0.0
    sgn = math.copysign(1.0, p.x2 * p.x3) if p.x2 != 0 else 0.0
    return -sgn * Bp_profile(p)


def phi_profile(p: WPoint) -> tuple[float, float]:
    """Combined profiles (A + A', B + B'); the jumps of A and A' across x3 = 0
    cancel, so both extend continuously."""
    return A_profile(p) + Ap_profile(p), B_profile(p) + Bp_profile(p)


def beta_fn(s: float) -> float:
    """beta(s) = (1/16pi) * integral_1^inf e^{-st} t^{-3/2} dt, closed form
    (1/16pi)(2 e^{-s} - 2 sqrt(pi s) erfc(sqrt(s))); beta(0) = 1/(8 pi)."""
    if s < 0:
        raise InputError(f"argument must be >= 0, got {s}")
    return (2 * math.exp(-s) - 2 * math.sqrt(math.pi * s) * math.erfc(math.sqrt(s))) / (16 * math.pi)


def beta_scaled(s: float) -> float:
    """e^s * beta(s), stable for large s (used when the e^{-s} factor is folded
    into a larger exponent elsewhere)."""
    if s < 0:
        raise InputError(f"argument must be >= 0, got {s}")
    if s <= 30:
        return beta_fn(s) * math.exp(s)
    # sqrt(pi s) e^s erfc(sqrt(s)) = 1 - 1/(2s) + 3/(4s^2) - ... ; the leading 2s
    # cancel, so sum the asymptotic series for the difference directly.
    total = 0.0
    term = 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) / (2 * s)
        total += term
        if abs(term) < 1e-18:
            break
    return -2 * total / (16 * math.pi)
