"""Independent brute-force oracles used to validate the library.

Units come from a per-coefficient Pell scan (no continued fractions), so
agreement is a real cross-check.  The norm-class enumeration, the m = 1 closed
form and the beta lattice sum are the exact-element routes: every candidate,
class or lattice point is a QuadElem, tested, embedded and normed on its own.
The orbit-minimum coefficient evaluates every term once per sign, over the
library's classes, and eval_W's holomorphic half recomputes it per call.
The cusp gluing is the matrix of the QuadElem products eps'*1 and eps'*w.
Boundary linking numbers come from the component-pair double sum, and a whole
table from the dict builder that filled every cell before tables became views
(link_cells_reference).  The CLI's range commands have their whole-string
renderer here (render_reference), the byte oracle of their streamed output.
Norm solutions come from an unreduced box search.  Caps come with Fraction vertices and
shoelace areas, and their crossing count from the lattice points of a
half-open parallelogram.  Hurwitz class numbers count reduced binary quadratic
forms, for the Hirzebruch-Zagier identity and series and for the class-number
series that eval_W's beta half completes to a modular form.

The theta kernel pair (A, B) and its singular counterpart (A', B') live here
as closed-form profiles on the signature (1,1) plane, for the tests of their
defining identities; no library route reads them.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

from sollink import sol
from sollink.cycles import boundary_components, link_boundary_closed
from sollink.errors import ConsistencyError, InputError
from sollink.qfield import FieldData, NormClass, QuadElem, _norm_reps, enumerate_norm_classes
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
        mu = cls.rep.embed()
        log_mu = math.log(mu)
        log_mu_c = math.log(cls.rep.norm() / mu)
        for _sign in (1, -1):
            for k in range(-k_range, k_range + 1):
                total += math.exp(min(log_mu + k * log_eps, log_mu_c - k * log_eps))
    return total / math.sqrt(2 * field.disc)


def holomorphic_reference(field, tau: complex, k_range: int, n_cut: int) -> tuple[complex, float]:
    """(holomorphic, holo_tail) of eval_W with every coefficient from
    min_series_coeff_reference, n ascending, nothing kept between calls."""
    q_abs = math.exp(-2 * math.pi * tau.imag)
    holo = 0.0j
    max_coeff = 0.0
    for n in range(1, n_cut + 1):
        c = min_series_coeff_reference(field, n, k_range)
        max_coeff = max(max_coeff, abs(c))
        holo += c * cmath.exp(2j * math.pi * n * tau)
    return holo, 4 * max_coeff * q_abs ** (n_cut + 1) / (1 - q_abs) ** 2


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
    t2m2 = (field.eps * field.eps).trace() - 2
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


def brute_force_norm_solutions(field: FieldData, n: int, bound: int) -> list[QuadElem]:
    """Every totally positive a + b*w with norm n and |a|, |b| <= bound.

    Unreduced box search; the oracle counterpart of enumerate_norm_classes.
    """
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


def gluing_reference(field: FieldData) -> tuple[tuple[int, int], tuple[int, int]]:
    """The matrix of multiplication by eps' on the basis (1, w), its columns
    the QuadElem products eps'*1 and eps'*w."""
    c1 = field.eps.conj()
    c2 = c1 * field.omega
    return ((c1.a, c2.a), (c1.b, c2.b))


def symplectic_pairing(x: QuadElem, y: QuadElem) -> int:
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
    sol.link_fiber.  This is the reference route; tables use cycles._LinkCells.
    The pairing is linear, so <g Jmu, Jnu> = <Jmu*(eps - 1)', Jnu>/N(eps - 1).
    """
    comps_n, comps_m = boundary_components(field, n), boundary_components(field, m)
    gm1 = field.eps - 1  # g acts on classes as division by (eps - 1)
    gc, den = gm1.conj(), gm1.norm()
    total = Fraction(0)
    for cn in comps_n:
        g_dir = cn.fiber_label * gc  # N(eps - 1) * g Jmu
        for cm in comps_m:
            term = Fraction(symplectic_pairing(g_dir, cm.fiber_label), den)
            total += 2 * cn.multiplicity * cm.multiplicity * term
    return total


def link_cells_reference(field: FieldData, sums: dict, ns, ms) -> dict:
    """The dict of Lk(C_n, C_m) for n in ns and m in ms, keyed (n, m) in that
    order, from the rep sums S_k = (sum of a, sum of b) of the norms with
    classes in sums, as tables were built before cycles._LinkCells: an
    all-zero template row, copied for a row with classes and filled in at the
    columns with classes, one Fraction per distinct numerator, and the dict
    assembled in one pass."""
    (g00, g01), (g10, g11) = field.gluing
    n_det = field.n_det
    zero = Fraction(0, n_det)
    template = [zero] * len(ms)
    values = {0: zero}
    cols = [(j, 2 * sums[m][0], 2 * sums[m][1]) for j, m in enumerate(ms) if m in sums]
    rows = []
    for n in ns:
        if n not in sums:
            rows.append(template)
            continue
        x0, x1 = sums[n]
        p, q = g00 * x0 + g01 * x1 - x0, g10 * x0 + g11 * x1 - x1  # (gluing - I) S_n
        row = template.copy()
        for j, a2, b2 in cols:
            num = q * a2 - p * b2
            value = values.get(num)
            if value is None:
                value = values[num] = Fraction(num, n_det)
            row[j] = value
        rows.append(row)
    return dict(zip(itertools.product(ns, ms), itertools.chain.from_iterable(rows)))


def link_table_reference(field: FieldData, nmax: int) -> dict:
    """link_cells_reference over n, m <= nmax, from the rep sums of one sweep."""
    sums = {n: (sum(a for a, _ in reps), sum(b for _, b in reps)) for n, reps in _norm_reps(field, nmax).items()}
    ns = range(1, nmax + 1)
    return link_cells_reference(field, sums, ns, ns)


def render_reference(fmt: str, payload, lines, csv=()) -> str:
    """A CLI output as one string: `payload` as indented JSON for --format
    json, the `csv` lines for --format csv, else `lines`, one a line."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(csv if fmt == "csv" else lines) + "\n"


def lk_table_output_reference(table, fmt: str) -> str:
    """The bytes `sollink lk-table` prints for `table` in format fmt."""
    entries = dict(table.entries).items()
    cells = {f"{n},{m}": str(v) for (n, m), v in entries}
    payload = {"d": table.d, "nmax": table.nmax, "n_det": table.n_det, "entries": cells}
    lines = [f"Lk(C{n}, C{m}) = {v}" for (n, m), v in entries]
    csv = ["n,m,value"] + [f"{n},{m},{v}" for (n, m), v in entries]
    return render_reference(fmt, payload, lines, csv)


def qexp_output_reference(q, fmt: str) -> str:
    """The bytes `sollink qexp` and `sollink combine` print for the
    q-expansion q in format fmt."""
    ns = range(1, q.nmax + 1)
    coeffs = {str(n): str(q.coeffs[n]) for n in ns}
    payload = {"d": q.d, "m": q.m, "weight": q.weight, "nmax": q.nmax, "coeffs": coeffs}
    lines = [f"q^{n}: {q.coeffs[n]}" for n in ns]
    csv = ["n,value,tail_estimate"] + [f"{n},{q.coeffs[n]},0" for n in ns]
    return render_reference(fmt, payload, lines, csv)


def link_boundary_closed_reference(field: FieldData, n) -> Fraction:
    """cycles.link_boundary_closed with one QuadElem per class: the sum of the
    w-coordinates of X = (mu + mu'*eps)/(eps - 1), each checked to have trace 0.
    X = Y/N(eps - 1) with Y = (mu + mu'*eps)*(eps - 1)' in O_K."""
    if not enumerate_norm_classes(field, 1):
        raise ConsistencyError("no norm-1 class; unit bookkeeping is broken")
    eps = field.eps
    gc, den = (eps - 1).conj(), (eps - 1).norm()
    total = Fraction(0)
    for cls in enumerate_norm_classes(field, n):
        y = (cls.rep + cls.rep.conj() * eps) * gc
        if y.trace() != 0:
            raise ConsistencyError(f"closed-form term for {cls.rep!r} is not rational*sqrt(disc)")
        total += Fraction(y.b, den)
    return total


def _shoelace(vertices) -> Fraction:
    if len(vertices) < 3:
        return Fraction(0)
    total = Fraction(0)
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % len(vertices)]
        total += v[0] * w[1] - v[1] * w[0]
    return total / 2


def build_cap_reference(m, a, offset=(0, 0)):
    """sol.build_cap with Fraction vertices and the fiber correction read off
    the shoelace areas of the parallelogram and the weighted triangle."""
    offset = (Fraction(offset[0]), Fraction(offset[1]))
    weight = Fraction(1, m.n_det)
    if a == (0, 0):
        return sol.CapChain(a, offset, (), (), (0, 0), weight, Fraction(0), m.f)
    fa = (m.f[0][0] * a[0] + m.f[0][1] * a[1], m.f[1][0] * a[0] + m.f[1][1] * a[1])
    gamma0 = (fa[0] - a[0], fa[1] - a[1])
    c2 = (Fraction(gamma0[0]), Fraction(gamma0[1]))
    (p, q), (r, s) = m.f
    d_vert = (s * c2[0] - q * c2[1], -r * c2[0] + p * c2[1])  # f^{-1} c2
    zero = (Fraction(0), Fraction(0))
    quad = (zero, offset, (offset[0] + a[0], offset[1] + a[1]), (Fraction(a[0]), Fraction(a[1])))
    tri = (zero, c2, d_vert)
    period = _shoelace(quad) + weight * _shoelace(tri)
    return sol.CapChain(a, offset, quad, tri, gamma0, weight, -period, m.f)


def cap_intersect_reference(cap, b) -> Fraction:
    """Signed crossings of the cap's monodromy slice (the gamma0 geodesic)
    with the class-b geodesic, times the cap's weight.

    On the torus the two closed geodesics cross once per point of Z^2 in the
    half-open parallelogram {t*gamma0 + s*b : 0 <= t, s < 1}, each crossing
    with the sign of det(gamma0, b); those points are counted one by one.
    """
    g = cap.monodromy_class
    det = g[0] * b[1] - g[1] * b[0]
    if det == 0:
        return Fraction(0)
    sgn = 1 if det > 0 else -1
    xs, ys = (0, g[0], b[0], g[0] + b[0]), (0, g[1], b[1], g[1] + b[1])
    count = 0
    for kx in range(min(xs), max(xs) + 1):
        for ky in range(min(ys), max(ys) + 1):
            # k = t*gamma0 + s*b with t = det(k, b)/det and s = det(gamma0, k)/det
            t_num, s_num = sgn * (kx * b[1] - ky * b[0]), sgn * (g[0] * ky - g[1] * kx)
            count += 0 <= t_num < abs(det) and 0 <= s_num < abs(det)
    return cap.weight * sgn * count


def quad_sign(p: int, q: int, disc: int) -> int:
    """Exact sign of p + q*sqrt(disc) for a non-square disc > 0: the sign of
    p when p^2 > disc*q^2, else the sign of q (equality only at p = q = 0)."""
    lead = p * p - disc * q * q
    if lead == 0:
        return 0
    lead_term = p if lead > 0 else q
    return (lead_term > 0) - (lead_term < 0)


def reduce_totally_positive_ints(field: FieldData, a: int, b: int) -> tuple[int, int]:
    """The integer coordinates of a + b*w, totally positive, scaled by powers
    of eps into 1 <= x/x' < eps^2, on ints.

    x/x' >= 1 iff b >= 0, since x - x' = b*sqrt(disc).  With
    e = eps^2*x' - x = e_a + e_b*w, x/x' < eps^2 iff e > 0, and
    2e = (2*e_a + s0*e_b) + e_b*sqrt(disc).
    """
    s0, n0, disc = field.s0, field.n0, field.disc

    def mul(x, y):
        return (x[0] * y[0] - n0 * x[1] * y[1], x[0] * y[1] + x[1] * y[0] + s0 * x[1] * y[1])

    eps = (field.eps.a, field.eps.b)
    eps_inv = (eps[0] + s0 * eps[1], -eps[1])  # eps' = 1/eps
    e2 = mul(eps, eps)
    x = (a, b)
    while x[1] < 0:
        x = mul(x, eps)
    while True:
        e = mul(e2, (x[0] + s0 * x[1], -x[1]))
        if quad_sign(2 * (e[0] - x[0]) + s0 * (e[1] - x[1]), e[1] - x[1], disc) > 0:
            return x
        x = mul(x, eps_inv)


def kronecker(D: int, k: int) -> int:
    """Kronecker symbol (D/k) for a discriminant D and an integer k >= 1."""
    out = 1
    while k % 2 == 0:
        k //= 2
        if D % 2 == 0:
            return 0
        out *= 1 if D % 8 in (1, 7) else -1
    # Jacobi symbol (D/k) for odd k, by quadratic reciprocity
    a = D % k
    while a:
        while a % 2 == 0:
            a //= 2
            if k % 8 in (3, 5):
                out = -out
        a, k = k, a
        if a % 4 == 3 and k % 4 == 3:
            out = -out
        a %= k
    return out if k == 1 else 0


def hurwitz_class_number(N: int) -> Fraction:
    """H(N): reduced positive definite forms (a, b, c) of discriminant -N, each
    counted once, except a(x^2 + y^2) with weight 1/2 and a(x^2 + xy + y^2)
    with weight 1/3.  H(0) = -1/12 and H(N) = 0 unless N = 0, 3 (mod 4)."""
    if N == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    b = N % 2
    while 3 * b * b <= N:  # reduced forms have 3b^2 <= 3a^2 <= 4ac - b^2 = N
        ac, rem = divmod(b * b + N, 4)
        a = max(b, 1)
        while not rem and a * a <= ac:
            if ac % a == 0:
                c = ac // a
                weight = Fraction(1, 2) if (b == 0 and a == c) else Fraction(1, 3) if b == a == c else 1
                # -b is a different reduced form unless b = 0, b = a or a = c
                total += weight * (1 if b in (0, a) or a == c else 2)
            a += 1
        b += 2
    return total


def class_number_series(field: FieldData, nmax: int) -> list:
    """[H_D(4n) for n = 0..nmax], D = disc, with H_D(N) the sum of
    H((N - x^2)/D) over the x with x^2 <= N and x^2 = N (mod D); H_D(0) =
    H(0) = -1/12."""
    D = field.disc
    hurwitz = {}
    out = []
    for n in range(nmax + 1):
        h_d = Fraction(0)
        for x in range(-math.isqrt(4 * n), math.isqrt(4 * n) + 1):
            N, rem = divmod(4 * n - x * x, D)
            if not rem:
                if N not in hurwitz:
                    hurwitz[N] = hurwitz_class_number(N)
                h_d += hurwitz[N]
        out.append(h_d)
    return out


def hz_series(field: FieldData, nmax: int) -> dict:
    """n -> H_D(4n) + Lk(n, 1)/2 for n = 1..nmax (class_number_series).
    With constant term -1/12 this is the Hirzebruch-Zagier series F_D, a
    weight-2 form for Gamma0(D) with character chi_D."""
    h_d = class_number_series(field, nmax)
    return {n: h_d[n] + link_boundary_closed(field, n) / 2 for n in range(1, nmax + 1)}


# Relative bound of the weight-2 law on gamma0_grid
HZ_MODULAR_REL_BOUND = 1e-11


def gamma0_grid(D: int) -> list:
    """((a, b, c, d), tau) for c in (D, -D, 2D) and d in (1, 2, 3, 7, -3)
    prime to c, with ad - bc = 1 and tau = -d/c + 0.3/|c| + i/|c|, where Im
    tau and Im g tau are both about 1/|c|.  A weight-2 form F for Gamma0(D)
    with character chi_D has F(g tau) = kronecker(D, d mod D) (c tau + d)^2
    F(tau) there."""
    out = []
    for c in (D, -D, 2 * D):
        for d in (1, 2, 3, 7, -3):
            if math.gcd(c, d) != 1:
                continue
            a = pow(d, -1, abs(c))
            out.append(((a, (a * d - 1) // c, c, d), complex(-d / c + 0.3 / abs(c), 1 / abs(c))))
    return out


# Kernel profiles on the signature (1,1) plane.  Points carry coordinates
# (x2, x3) with quadratic form (x, x) = x2^2 - x3^2.  Away from x3 = 0 and the
# light cone the pair satisfies
#
#     A  = -X23 B,   A' = -X23 B',   (X23 F)(p) = d/ds F(orbit_action(-s, p)) at s = 0,
#     (-1/4pi)(d22 - d33) F + pi (x,x) F = 2 F   for F in {B, B'},
#
# and the jump of A across x3 = 0 cancels against the jump of A', so A + A'
# and B + B' extend continuously.  On x3 = 0, where A and A' jump, each
# returns 0.0, the mean of its two one-sided limits.

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
