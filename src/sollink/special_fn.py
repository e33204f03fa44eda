"""The beta kernel of the completed series' lattice sum.

beta(s) = (1/16pi) * integral_1^inf e^{-st} t^{-3/2} dt weighs each lattice
term of eval_W; beta_scaled is e^s * beta(s), which eval_W folds into its
Gaussian exponent.  Both return plain floats.
"""

from __future__ import annotations

import math

from .errors import InputError


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
    # the closed form stays within 3e-12 relative up to s = 80, where the
    # 11-term series below reaches 2e-13; at s = 30 the series is off by 6e-9
    if s <= 80:
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
