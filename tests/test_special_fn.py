"""Kernel profiles checked against quadrature, known values, and their defining
differential identities."""

import math

import pytest
from scipy.integrate import quad

from sollink import InputError, beta_fn, beta_scaled
from conftest import field
from oracles import (
    A_profile,
    Ap_profile,
    B_profile,
    Bp_profile,
    WPoint,
    gamma_half,
    orbit_action,
    phi_profile,
    quad_form,
)

SQRT_PI = math.sqrt(math.pi)


_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)


def gamma_half_quad(a: float) -> float:
    # u = t^2 removes the endpoint singularity of e^-u u^-1/2
    val, err = quad(lambda t: 2 * math.exp(-t * t), math.sqrt(a), math.inf, **_QUAD_OPTS)
    assert err < 1e-10  # scipy's estimate is conservative
    return val


def beta_quad(s: float) -> float:
    # t = 1/x^2 maps the tail integral of e^{-st} t^{-3/2} to 2 int_0^1 e^{-s/x^2} dx
    val, err = quad(lambda x: 2 * math.exp(-s / (x * x)) if x > 0 else 0.0, 0, 1, **_QUAD_OPTS)
    assert err < 1e-10
    return val / (16 * math.pi)


def beta_scaled_quad(s: float) -> float:
    val, err = quad(lambda t: math.exp(-s * (t - 1)) * t ** -1.5, 1, math.inf, **_QUAD_OPTS)
    assert err < 1e-10
    return val / (16 * math.pi)


def test_gamma_half_against_quadrature():
    for a in [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]:
        assert gamma_half(a) == pytest.approx(gamma_half_quad(a), abs=1e-10)


def test_gamma_half_known_values():
    assert gamma_half(0.0) == pytest.approx(SQRT_PI, abs=1e-15)
    assert gamma_half(1.0) == pytest.approx(0.2788055852806619, abs=1e-15)
    # leading asymptotics e^-a / sqrt(a)
    assert gamma_half(25.0) == pytest.approx(math.exp(-25) / 5, rel=0.03)
    with pytest.raises(InputError):
        gamma_half(-0.1)


def test_beta_against_quadrature():
    points = [0.0] + [0.01 * (30 / 0.01) ** (i / 19) for i in range(20)]
    for s in points:
        assert beta_fn(s) == pytest.approx(beta_quad(s), abs=1e-10)


def test_beta_known_values():
    assert beta_fn(0.0) == pytest.approx(1 / (8 * math.pi), abs=1e-15)
    # large-s decay e^-s / (16 pi s), with -3/(2s) correction (~15% at s = 10)
    assert beta_fn(10.0) == pytest.approx(math.exp(-10) / (160 * math.pi), rel=0.14)
    values = [beta_fn(s) for s in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
    with pytest.raises(InputError):
        beta_fn(-1.0)


def test_beta_scaled_branches():
    for s in [0.0, 1.0, 10.0, 29.9, 30.0, 79.9, 80.0]:
        assert beta_scaled(s) == pytest.approx(beta_fn(s) * math.exp(s), rel=1e-13)
    # across the series switchover the two branches must agree
    assert beta_scaled(30.0 + 1e-9) == pytest.approx(beta_scaled(30.0), rel=1e-7)
    assert beta_scaled(80.0 + 1e-9) == pytest.approx(beta_scaled(80.0), rel=1e-11)
    # both branches against direct quadrature of the e^{s}-scaled integrand,
    # through s = 30, where an 11-term series is still off by 6e-9, and the
    # switch at 80
    for s in [25.0, 29.9, 30.0, 30.0001, 31.0, 35.0, 40.0, 50.0, 65.0, 78.65, 79.9, 80.0, 80.0001,
              81.0, 90.0, 100.0, 150.0, 250.0, 400.0, 700.0, 1000.0]:
        assert beta_scaled(s) == pytest.approx(beta_scaled_quad(s), rel=1e-11)
    assert beta_scaled(100.0) == pytest.approx(1 / (16 * math.pi * 100), rel=0.02)
    with pytest.raises(InputError):
        beta_scaled(-2.0)


def test_wpoint_is_pinned():
    p = WPoint(1.25, -0.75)
    assert repr(p) == "WPoint(x2=1.25, x3=-0.75)"
    assert p == WPoint(1.25, -0.75) and p != WPoint(1.25, 0.75)
    assert hash(p) == hash(WPoint(1.25, -0.75)) == hash((1.25, -0.75))
    for name in ("x2", "x3"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0.0)


def test_quad_form_and_orbit():
    p = WPoint(1.25, -0.75)
    assert quad_form(p) == pytest.approx(1.25**2 - 0.75**2, abs=1e-15)
    q = orbit_action(0.4, p)
    assert quad_form(q) == pytest.approx(quad_form(p), abs=1e-12)
    r = orbit_action(-0.4, q)
    assert (r.x2, r.x3) == (pytest.approx(p.x2, abs=1e-12), pytest.approx(p.x3, abs=1e-12))
    for p in FD_POINTS:
        for s in (-2.0, -0.7, 0.4, 1.3, 2.0):
            assert quad_form(orbit_action(s, p)) == pytest.approx(quad_form(p), abs=1e-10)


def test_a_profile_values_and_jump():
    p = WPoint(1.0, 0.5)
    expect = 0.5 / SQRT_PI * 1.0 * gamma_half(2 * math.pi * 0.25) * math.exp(-math.pi * 0.75)
    assert A_profile(p) == pytest.approx(expect, abs=1e-15)
    assert A_profile(WPoint(1.0, -0.5)) == -A_profile(p)

    assert A_profile(WPoint(1.0, 0.0)) == 0.0  # mean of the one-sided limits
    lim = 0.5 * math.exp(-math.pi)
    assert A_profile(WPoint(1.0, 1e-9)) == pytest.approx(lim, abs=1e-8)
    assert A_profile(WPoint(1.0, -1e-9)) == pytest.approx(-lim, abs=1e-8)


def test_b_profile_values():
    assert B_profile(WPoint(0.0, 0.0)) == pytest.approx(-1 / (2 * math.sqrt(2) * math.pi), abs=1e-15)
    p = WPoint(1.0, 0.5)
    assert B_profile(p) == B_profile(WPoint(1.0, -0.5))
    assert B_profile(p) == B_profile(WPoint(-1.0, 0.5))


def test_bp_profile_cone_support():
    assert Bp_profile(WPoint(1.0, 2.0)) == 0.0
    assert Bp_profile(WPoint(1.0, 1.0)) == 0.0
    # B' vanishes continuously at the light cone, from either side
    delta = 1e-6
    for x2 in [0.3, 0.75, 1.5, -0.45, -1.2]:
        for s3 in (1, -1):
            assert abs(Bp_profile(WPoint(x2, s3 * (abs(x2) - delta)))) <= 1e-6
            assert Bp_profile(WPoint(x2, s3 * (abs(x2) + delta))) == 0.0
    p = WPoint(1.0, 0.5)
    assert Bp_profile(p) == pytest.approx(0.5 * 0.5 * math.exp(-math.pi * 0.75), abs=1e-15)
    assert Bp_profile(WPoint(-1.0, 0.5)) == Bp_profile(p)


def test_b_profile_is_the_beta_weight():
    # B(p) = -2*sqrt(2)*beta_scaled(2*pi*x3^2)*e^{-pi(x2^2 + x3^2)}: the lattice
    # weight of eval_W's beta half
    grid = [i / 8 for i in range(-16, 17)]
    for x2 in grid:
        for x3 in grid:
            expected = -2 * math.sqrt(2) * beta_scaled(2 * math.pi * x3 * x3) * math.exp(-math.pi * (x2 * x2 + x3 * x3))
            assert B_profile(WPoint(x2, x3)) == pytest.approx(expected, rel=1e-9, abs=0)


@pytest.mark.parametrize("d", [2, 5, 13])
def test_bp_profile_is_the_orbit_minimum_term(d):
    # at p = sqrt(v)*((l + l')/sqrt(2), (l - l')/sqrt(2)), B' is the orbit-minimum
    # term (1/2)*sqrt(2v)*min(|l|, |l'|)*e^{-2 pi v N(l)} inside the positive
    # cone N(l) > 0, and 0 outside it
    f = field(d)
    for v in (0.01, 0.003):
        for a in range(-30, 31):
            for b in range(-30, 31):
                lam = f.element(a, b)
                x, xc = lam.embed(), lam.embed(conjugate=True)
                p = WPoint(math.sqrt(v) * (x + xc) / math.sqrt(2), math.sqrt(v) * (x - xc) / math.sqrt(2))
                if lam.norm() <= 0:
                    assert Bp_profile(p) == 0.0
                    continue
                expected = 0.5 * math.sqrt(2 * v) * min(abs(x), abs(xc)) * math.exp(-2 * math.pi * v * lam.norm())
                assert Bp_profile(p) == pytest.approx(expected, rel=1e-9, abs=0), (a, b)


def test_ap_profile_values():
    p = WPoint(1.0, 0.5)
    assert Ap_profile(p) == pytest.approx(-Bp_profile(p), abs=1e-18)
    assert Ap_profile(WPoint(1.0, -0.5)) == -Ap_profile(p)
    assert Ap_profile(WPoint(1.0, 2.0)) == 0.0  # outside the cone

    assert Ap_profile(WPoint(1.0, 0.0)) == 0.0  # mean of the one-sided limits
    lim = 0.5 * math.exp(-math.pi)
    assert Ap_profile(WPoint(1.0, 1e-9)) == pytest.approx(-lim, abs=1e-8)
    assert Ap_profile(WPoint(1.0, -1e-9)) == pytest.approx(lim, abs=1e-8)
    assert Ap_profile(WPoint(0.0, 0.0)) == 0.0


def test_jump_cancellation_exact():
    for x2 in [0.3, 1.0, -1.7, 2.4]:
        assert A_profile(WPoint(x2, 0.0)) == Ap_profile(WPoint(x2, 0.0)) == 0.0
        combined, _ = phi_profile(WPoint(x2, 0.0))
        assert combined == 0.0
        lim = 0.5 * x2 * math.exp(-math.pi * x2 * x2)
        for side in (1, -1):
            p = WPoint(x2, side * 1e-9)
            assert A_profile(p) == pytest.approx(side * lim, abs=1e-8)
            assert Ap_profile(p) == pytest.approx(-side * lim, abs=1e-8)


def test_phi_profile_continuity():
    delta = 1e-9
    for x2 in [0.5, 1.3, -2.0, 0.2, -0.85]:
        above, above_b = phi_profile(WPoint(x2, delta))
        below, below_b = phi_profile(WPoint(x2, -delta))
        at, at_b = phi_profile(WPoint(x2, 0.0))
        assert abs(above - at) < 1e-8
        assert abs(below - at) < 1e-8
        assert abs(above_b - at_b) <= 1e-10
        assert abs(below_b - at_b) <= 1e-10


FD_POINTS = [
    WPoint(0.8, 0.45),
    WPoint(1.5, -0.9),
    WPoint(-1.1, 0.6),
    WPoint(0.4, 1.3),
    WPoint(2.0, 0.25),
    WPoint(-0.7, -1.6),
    # just past CONE_MARGIN from the light cone, inside and outside it
    WPoint(1.2, 1.04),
    WPoint(-0.9, -0.74),
    WPoint(-0.34, 0.5),
    WPoint(0.2, -0.36),
]

# how close to the light cone, where B' is not smooth, its identities are checked
CONE_MARGIN = 0.15


def _x23(profile, p: WPoint, h: float = 1e-4) -> float:
    """(X23 F)(p) = d/ds F(orbit_action(-s, p)) at s = 0, by central difference."""
    return (profile(orbit_action(-h, p)) - profile(orbit_action(h, p))) / (2 * h)


def test_flow_derivative_gives_a():
    for p in FD_POINTS:
        lhs = -_x23(B_profile, p)
        rhs = A_profile(p)
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-14)


def test_flow_derivative_gives_ap():
    for p in FD_POINTS:
        if abs(abs(p.x2) - abs(p.x3)) < CONE_MARGIN:
            continue  # B' is not smooth on the cone
        lhs = -_x23(Bp_profile, p)
        rhs = Ap_profile(p)
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-14)


def _pde_residual(profile, p: WPoint, h: float = 1e-3) -> tuple[float, float]:
    """Return (L F, 2 F) with L = (-1/4pi)(d22 - d33) + pi (x, x)."""
    f0 = profile(p)
    d22 = (profile(WPoint(p.x2 + h, p.x3)) - 2 * f0 + profile(WPoint(p.x2 - h, p.x3))) / h**2
    d33 = (profile(WPoint(p.x2, p.x3 + h)) - 2 * f0 + profile(WPoint(p.x2, p.x3 - h))) / h**2
    return (-(d22 - d33) / (4 * math.pi) + math.pi * quad_form(p) * f0, 2 * f0)


def test_pde_eigenfunctions():
    for p in FD_POINTS:
        for profile in (B_profile, Bp_profile):
            if profile is Bp_profile and abs(abs(p.x2) - abs(p.x3)) < CONE_MARGIN:
                continue
            lhs, rhs = _pde_residual(profile, p)
            assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-9)


def test_profiles_decay():
    far = WPoint(6.0, 0.3)
    for profile in (A_profile, B_profile, Bp_profile, Ap_profile):
        assert abs(profile(far)) < 1e-40
