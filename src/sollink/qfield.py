"""Exact arithmetic in the ring of integers O_K of a real quadratic field Q(sqrt(d)).

Elements are a + b*w with int coordinates, where w = (1+sqrt(d))/2 for
d = 1 mod 4 and w = sqrt(d) otherwise, so (1, w) is a Z-basis of O_K and
division is exact division in O_K.  Everything here is exact; no floats are
consulted for sign tests, reduction, or enumeration.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, InputError, _check_index, _is_int


# Largest accepted d.  Trial division in is_squarefree and the continued
# fraction in fundamental_unit grow with d: below this bound a field builds in
# at most about 0.1 s, far above it the unit's period can exceed the step bound.
_D_MAX = 10**6


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    if d % 4 == 0:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        p += 1
    return True


class FieldData:
    """A real quadratic field Q(sqrt(d)) together with its unit data.

    Attributes: d, disc, s0 = trace(w), n0 = norm(w), eps0 (fundamental unit),
    eps0_norm (+1 or -1), eps (totally positive fundamental unit) and eps_sq,
    the integers (T, U) with eps^2 = (T + U*sqrt(disc))/2.  Instances are
    immutable after construction.

    The cusp section at infinity, R^2/O_K glued by eps', is read from here by
    every layer: gluing is the int matrix of multiplication by eps' on the
    basis (1, w), and n_det = 2 - Tr(eps) = N(eps - 1) = det(gluing - I).
    The monodromy is eps; for SL2(O_K) it is eps0^2 (diag(u, 1/u) acts by
    z -> u^2*z), so where N(eps0) = +1 (d = 3, 6, 7, 79, ...) the SL2(O_K)
    cusp section is the 2-fold cover of this one.
    """

    def __init__(self, d: int):
        if not _is_int(d) or d <= 1:
            raise InputError(f"d must be an integer > 1, got {d!r}")
        if d > _D_MAX:
            raise InputError(f"d must be at most {_D_MAX}, got {d}")
        if not is_squarefree(d):
            raise InputError(f"d must be squarefree, got {d}")
        self.d = d
        if d % 4 == 1:
            self.disc = d
            self.s0 = 1  # w + w' = 1
            self.n0 = (1 - d) // 4  # w * w'
        else:
            self.disc = 4 * d
            self.s0 = 0
            self.n0 = -d
        self.eps0 = fundamental_unit(self)
        self.eps0_norm = self.eps0.norm()
        self.eps = self.eps0 if self.eps0_norm == 1 else self.eps0 * self.eps0
        # a + b*w = (2a + s0*b + b*sqrt(disc))/2, so T = trace(eps^2), U = its b
        e2 = self.eps * self.eps
        self.eps_sq = (e2.trace(), e2.b)
        # eps' = c0 + c1*w maps 1 to eps' and w to eps'*w = -c1*n0 + (c0 + c1*s0)*w
        c0, c1 = self.eps.a + self.eps.b * self.s0, -self.eps.b
        self.gluing = ((c0, -c1 * self.n0), (c1, c0 + c1 * self.s0))
        self.n_det = 2 - self.eps.trace()

    def element(self, a: int, b: int = 0) -> "QuadElem":
        """The integer a + b*w; InputError unless a and b are ints."""
        if not (_is_int(a) and _is_int(b)):
            raise InputError(f"element coordinates must be ints, got ({a!r}, {b!r})")
        return QuadElem(self, a, b)

    @property
    def omega(self) -> "QuadElem":
        return self.element(0, 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldData) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("FieldData", self.d))

    def __repr__(self) -> str:
        return f"FieldData(d={self.d})"


def make_field(d: int) -> FieldData:
    """Validate d (squarefree, 1 < d <= 10**6) and build the field with its unit data."""
    return FieldData(d)


def _sign(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r) for a non-square r > 0."""
    if p >= 0 and q >= 0:
        return int(p > 0 or q > 0)
    if p <= 0 and q <= 0:
        return -1
    # mixed signs: the larger of p^2 and r*q^2 wins
    lead = p * p - r * q * q
    return (lead > 0) - (lead < 0) if p > 0 else (lead < 0) - (lead > 0)


def _coerced(op):
    """QuadElem operator whose other operand is an int or an element of the
    same field; anything else gives NotImplemented."""

    @functools.wraps(op)
    def wrapper(self, other):
        if _is_int(other):
            other = QuadElem(self.field, other, 0)
        elif not isinstance(other, QuadElem):
            return NotImplemented
        elif self.field != other.field:
            raise InputError("elements belong to different fields")
        return op(self, other)

    return wrapper


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class QuadElem:
    """a + b*w with int coordinates; <=, > and >= derive from < and ==."""

    field: FieldData
    a: int
    b: int

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadElem):
            return self.field == other.field and self.a == other.a and self.b == other.b
        if _is_int(other):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # rational integers hash like their int value, so x == k implies
        # hash(x) == hash(k)
        if self.b == 0:
            return hash(self.a)
        return hash((self.field.d, self.a, self.b))

    @_coerced
    def __add__(self, other):
        return QuadElem(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return QuadElem(self.field, self.a - other.a, self.b - other.b)

    @_coerced
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return QuadElem(self.field, -self.a, -self.b)

    @_coerced
    def __mul__(self, other):
        # w^2 = -n0 + s0*w
        f = self.field
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        cross = b1 * b2
        return QuadElem(f, a1 * a2 - cross * f.n0, a1 * b2 + a2 * b1 + cross * f.s0)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other):
        """Exact quotient self*other'/N(other) in O_K; InputError if it is not integral."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        num = self * other.conj()
        (a, ra), (b, rb) = divmod(num.a, n), divmod(num.b, n)
        if ra or rb:
            raise InputError(f"{self} / {other} is not an integer of the field")
        return QuadElem(self.field, a, b)

    def conj(self) -> "QuadElem":
        # w' = s0 - w
        return QuadElem(self.field, self.a + self.b * self.field.s0, -self.b)

    def norm(self) -> int:
        f = self.field
        return self.a * self.a + self.a * self.b * f.s0 + self.b * self.b * f.n0

    def trace(self) -> int:
        return 2 * self.a + self.b * self.field.s0

    def sign(self) -> int:
        """Exact sign under the real embedding with sqrt(d) > 0."""
        # 2*self = trace + b*sqrt(disc) in both discriminant cases
        return _sign(self.trace(), self.b, self.field.disc)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conj().sign() > 0

    def embed(self, conjugate: bool = False) -> float:
        """Float value under the chosen real embedding (for numerics only).

        The embedding of smaller magnitude is N(x) divided by the other: as
        a + b*w it cancels, to 0.0 for eps' at d = 151.  x is the larger one
        iff b*trace >= 0, since x^2 - x'^2 = b*trace*sqrt(disc)."""
        f = self.field
        b_trace = self.b * self.trace()
        if b_trace and conjugate == (b_trace > 0):
            return self.norm() / self.embed(not conjugate)
        w = (f.s0 + math.sqrt(f.disc)) / 2
        if conjugate:
            w = f.s0 - w
        return float(self.a) + float(self.b) * w

    @_coerced
    def __lt__(self, other):
        return (self - other).sign() < 0

    def __str__(self) -> str:
        """p + q*sqrt(d), with the halves p = trace/2 and q = b/2 when w = (1+sqrt(d))/2."""
        if self.field.s0:
            p, q = Fraction(self.trace(), 2), Fraction(self.b, 2)
        else:
            p, q = self.a, self.b
        if q == 0:
            return str(p)
        if p == 0:
            return f"{q}*sqrt({self.field.d})"
        op = "+" if q > 0 else "-"
        return f"{p} {op} {abs(q)}*sqrt({self.field.d})"

    def __repr__(self) -> str:
        return f"QuadElem(d={self.field.d}, a={self.a}, b={self.b})"


def fundamental_unit(field: FieldData) -> QuadElem:
    """Smallest unit > 1 of the ring of integers, by continued fractions of w.

    Runs the standard (P, Q) recurrence for the quadratic irrational
    (P + sqrt(d))/Q starting at w and returns the first convergent p/q whose
    associated element (p - q*s0) + q*w has norm +-1.
    """
    d = field.d
    rt = math.isqrt(d)
    pp, qq = field.s0, field.s0 + 1
    p_prev, p_cur = 0, 1  # p_{-2}, p_{-1}
    q_prev, q_cur = 1, 0  # q_{-2}, q_{-1}; first step yields p0 = a0, q0 = 1
    for _ in range(200000):
        a_k = (pp + rt) // qq
        p_prev, p_cur = p_cur, a_k * p_cur + p_prev
        q_prev, q_cur = q_cur, a_k * q_cur + q_prev
        u = field.element(p_cur - q_cur * field.s0, q_cur)
        if abs(u.norm()) == 1:
            if not u > 1:
                raise ConsistencyError(f"continued fraction produced unit {u} <= 1")
            return u
        pp = a_k * qq - pp
        qq_next, rem = divmod(d - pp * pp, qq)
        if rem:
            raise ConsistencyError("continued fraction state left Z (invalid d?)")
        qq = qq_next
    raise ConsistencyError(f"no unit found for d={d} within iteration bound")


@dataclass(frozen=True)
class NormClass:
    """Orbit of a totally positive integer of norm n under the totally
    positive units, tagged by its reduced representative."""

    rep: QuadElem


def reduce_totally_positive(field: FieldData, x: QuadElem) -> QuadElem:
    """Scale x by powers of eps into the half-open domain 1 <= x/x' < eps^2."""
    if not x.is_totally_positive():
        raise InputError("reduction requires a totally positive element")
    eps = field.eps
    eps_inv = eps.conj()  # norm(eps) = 1
    e2 = eps * eps
    while (x - x.conj()).sign() < 0:  # x/x' < 1
        x = x * eps
    while (e2 * x.conj() - x).sign() <= 0:  # x/x' >= eps^2
        x = x * eps_inv
    return x


def _scan_length(field: FieldData, n: int) -> int:
    """Length of the b range in enumerate_norm_classes for the integer n >= 1,
    an upper bound on the b it visits: b_max + 1 with
    b_max = isqrt(n*(Tr(eps^2) - 2)/disc)."""
    return math.isqrt(n * (field.eps_sq[0] - 2) // field.disc) + 1


# Prime powers the wheel folds in, in this order; no wheel holds more residues
# than _WHEEL_MAX.
_WHEEL_MODULI = (64, 9, 5, 7, 11, 13, 17)
_WHEEL_MAX = 1 << 16
# Primes the residue table draws on, in this order, skipping those in the
# wheel; its modulus stays within _TABLE_MAX, and as the wheel holds at most
# 11, 13 and 17, a prime past 29 would never join (19*23*29*31 > 2^17).
_TABLE_PRIMES = (11, 13, 17, 19, 23, 29)
_TABLE_MAX = 1 << 17
# The squares modulo each modulus of either stage.
_SQUARES = {q: frozenset(x * x % q for x in range(q)) for q in {*_WHEEL_MODULI, *_TABLE_PRIMES}}


def _admissible(q: int, disc_q: int, n4_q: int) -> tuple[int, ...]:
    """The x mod q for which disc*x^2 + n4 is a square modulo q, given disc
    and n4 reduced mod q."""
    squares = _SQUARES[q]
    return tuple(x for x in range(q) if (disc_q * x * x + n4_q) % q in squares)


def _sieve_plan(disc: int, n4: int, length: int) -> tuple[list[tuple[int, tuple[int, ...]]], int, list[int]]:
    """(wheel, visits, table): the two sieve stages of a b-scan of the given
    length for t^2 = disc*b^2 + n4.

    wheel lists the moduli q the residue wheel folds in, each with its
    admissible residues (_admissible); they fold in while the scan has at
    least 4*M*q steps, M the product so far, so a short scan keeps the plain
    wheel, and while the CRT list stays within _WHEEL_MAX residues.  visits,
    the residue count times ceil(length/M), bounds the b the wheel visits.
    table lists the primes of the residue table, those of _TABLE_PRIMES that
    do not divide M, taken while their product Q stays within _TABLE_MAX and
    within visits, so the table is never longer than the scan it filters; a
    scan the wheel leaves alone (M = 1) gets no table.
    """
    wheel, m, count = [], 1, 1
    for q in _WHEEL_MODULI:
        if 4 * m * q > length:
            break
        ok = _admissible(q, disc % q, n4 % q)
        if count * len(ok) > _WHEEL_MAX:
            break
        wheel.append((q, ok))
        m *= q
        count *= len(ok)
    visits = count * -(-length // m)
    table, q_mod = [], 1
    if m > 1:
        cap = min(_TABLE_MAX, visits)
        for p in _TABLE_PRIMES:
            if m % p == 0:
                continue
            if q_mod * p > cap:
                break
            table.append(p)
            q_mod *= p
    return wheel, visits, table


def _wheel(wheel: list[tuple[int, tuple[int, ...]]]) -> tuple[list[int], int]:
    """(residues, M) for a plan's wheel: M is the product of its moduli and the
    residues, by CRT, are the b mod M admissible modulo each of them."""
    residues, m = [0], 1
    for q, ok in wheel:
        # CRT: x = r mod m and x = s mod q give x = r + m*((s - r)/m mod q)
        inv = pow(m, -1, q)
        residues = [r + m * ((s - r) * inv % q) for r in residues for s in ok]
        m *= q
    return residues, m


def _residue_table(disc: int, n4: int, primes: list[int]) -> tuple[bytearray, int]:
    """(ok, Q): Q is the product of the primes, and ok[x] is 1 iff
    disc*x^2 + n4 is a square modulo each of them, for 0 <= x < Q.

    Each residue class s mod p that is not admissible is zeroed by one
    strided slice assignment, so the table is built at C speed.
    """
    q_mod = math.prod(primes)
    ok = bytearray(b"\x01") * q_mod
    for p in primes:
        zeros = bytes(q_mod // p)
        for s in set(range(p)).difference(_admissible(p, disc % p, n4 % p)):
            ok[s::p] = zeros
    return ok, q_mod


def enumerate_norm_classes(field: FieldData, n: int) -> list[NormClass]:
    """All classes of totally positive integers of norm n, one reduced
    representative each, sorted by coordinates.

    n is a positive int; anything else, bool and Fraction included, raises
    InputError.

    A representative x = a + b*w = (t + b*sqrt(disc))/2 in the domain has
    trace t and t^2 = disc*b^2 + 4n with 0 <= b <= sqrt(n*(Tr(eps^2) - 2)/disc),
    so a finite integer scan with a perfect-square test is exhaustive.  The
    scan runs on ints and builds an element only for each returned rep:

    - x is totally positive without a test: x + x' = t > 0 and x*x' = n > 0.
    - With eps^2 = (T + U*sqrt(disc))/2, the domain bound x/x' < eps^2 reads
      4*(eps^2*x' - x) = P + Q*sqrt(disc) > 0, where P = T*t - U*b*disc - 2t
      and Q = U*t - T*b - 2b; its sign is decided exactly on integers.
      b >= 0 gives the other bound x >= x'.

    The scan is sieved in two stages, planned by _sieve_plan:

    1. A residue wheel (_wheel) visits only the b whose class mod M makes
       disc*b^2 + 4n a square modulo each prime power factor of M, for M
       dividing 64*9*5*7*11*13*17.  Factors fold in only while the scan is at
       least 4*M*q long, so scans shorter than 256 run unsieved, and the
       residue list is capped at _WHEEL_MAX entries.
    2. A residue table (_residue_table) modulo Q, a product of the primes from
       11 to 29 that M leaves out, passes on to the square test only the
       visited b with ok[b % Q] = 1, that is with disc*b^2 + 4n a square
       modulo each prime of Q.  Q stays within 2^17 and within the number of
       b the wheel visits, so building the table costs less than the scan it
       filters; a scan the wheel leaves alone gets no table.

    Both stages are exhaustive: a perfect square is a square modulo every
    modulus, so no b the plain scan accepts is skipped, and the output is the
    same as the unsieved scan's.
    """
    _check_index("norm", n)
    # the scan built a and b as ints, so the reps skip element()'s checks
    return [NormClass(QuadElem(field, a, b)) for a, b in _norm_coords(field, n)]


def _norm_coords(field: FieldData, n: int) -> list[tuple[int, int]]:
    """The coordinates (a, b) of the reps a + b*w that
    enumerate_norm_classes(field, n) returns, in its order, for an int n >= 1
    the caller has checked: its sieved b-scan, with no element built."""
    disc, s0 = field.disc, field.s0
    big_t, big_u = field.eps_sq
    n4 = 4 * n
    length = _scan_length(field, n)
    wheel, _, primes = _sieve_plan(disc, n4, length)
    bs = range(length)
    if wheel:
        residues, step = _wheel(wheel)
        bs = itertools.chain.from_iterable(range(r, length, step) for r in residues)
    if primes:
        ok, q_mod = _residue_table(disc, n4, primes)
        bs = (b for b in bs if ok[b % q_mod])
    coords = []
    for b in bs:
        t_sq = disc * b * b + n4
        t = math.isqrt(t_sq)
        if t * t != t_sq or (t - s0 * b) % 2:
            continue
        # exclude the ratio eps^2 itself: the domain is half open
        if _sign(big_t * t - big_u * b * disc - 2 * t, big_u * t - big_t * b - 2 * b, disc) <= 0:
            continue
        coords.append(((t - s0 * b) // 2, b))
    coords.sort()
    return coords


def _norm_reps(field: FieldData, nmax: int) -> dict[int, list[tuple[int, int]]]:
    """{n: reps} for every n in 1..nmax that has classes, reps being the
    coordinates (a, b) of the reps a + b*w that enumerate_norm_classes(field, n)
    returns, in its order, from one sweep of a fundamental domain instead of
    one b-scan per norm.

    The sweep walks the points x = (t + b*sqrt(disc))/2 of the symmetric
    domain eps^-1 <= x/x' < eps, which, like 1 <= x/x' < eps^2, holds one
    point of each orbit under eps^Z.  With eps = (T + U*sqrt(disc))/2, T its
    trace and U > 0:

    - The edge x/x' = eps is the ray of 1 + eps, where
      b*sqrt(disc)/t = (eps - 1)/(eps + 1) = (T - 2)/(U*sqrt(disc)).  So the
      domain is the exact int inequality t*(T - 2) > |b|*disc*U for b >= 0
      (x/x' < eps, strict) and t*(T - 2) >= |b|*disc*U for b < 0
      (x/x' >= eps^-1).
    - Rows: on the edge of row b the norm (t^2 - disc*b^2)/4 is
      b^2*disc/(T - 2), the least in the row, so only the rows
      |b| <= sqrt(nmax*(T - 2)/disc) hold a point of norm at most nmax.
    - Row b runs t from its edge up to isqrt(4*nmax + disc*b^2), in steps of
      2 with t = s0*b mod 2, the points of O_K; each point gives its norm
      directly, with no square test.
    - Each point is totally positive: the edge gives t > 0 and
      |b|*sqrt(disc) <= t*(eps - 1)/(eps + 1) < t, so x + x' = t > 0 and
      x*x' = n > 0.
    - A point with b >= 0 has 1 <= x/x' < eps and is its class's rep as it
      is.  One with b < 0 has eps^-1 <= x/x' < 1, and its rep is x*eps, whose
      ratio is eps^2 times as large.
    """
    disc, s0 = field.disc, field.s0
    big_t, big_u = field.eps.trace(), field.eps.b
    reps = collections.defaultdict(list)
    rows = math.isqrt(nmax * (big_t - 2) // disc)
    for b in range(-rows, rows + 1):
        db2 = disc * b * b
        reach = abs(b) * disc * big_u
        t_lo = -(-reach // (big_t - 2)) if b < 0 else reach // (big_t - 2) + 1
        t_lo += (t_lo - s0 * b) % 2
        for t in range(t_lo, math.isqrt(4 * nmax + db2) + 1, 2):
            x_t, x_b = t, b
            if b < 0:
                # x*eps = ((T*t + U*disc*b) + (U*t + T*b)*sqrt(disc))/4
                x_t, x_b = (big_t * t + big_u * disc * b) // 2, (big_u * t + big_t * b) // 2
            reps[(t * t - db2) >> 2].append(((x_t - s0 * x_b) // 2, x_b))
    for group in reps.values():
        group.sort()
    return dict(reps)


def _enumeration_steps(field: FieldData, nmax: int, m: int = 0, k_range: int = 0) -> int:
    """Steps, in b of a sieved scan (about 0.19 us each), to enumerate the
    norms 1..nmax, sum the orbit minima of their classes at |k| <= k_range,
    and enumerate one norm m > nmax, in closed form:

    - 8 for each of the sweep's 2*rows + 1 rows (_norm_reps), as a row with
      its isqrt and big-int edge takes 1.1-1.4 us;
    - 1 for each of its points, ceil(nmax*ln(Tr(eps))/sqrt(disc)).  The
      domain's area over the lattice covolume is nmax*ln(eps)/sqrt(disc),
      which this bounds, and the point count, the number of classes, stays
      within 15% of it: 3% over at d = 97, 13% under at d = 5 (nmax 400);
    - with k_range >= 1, 3 for each of the 2*k_range + 1 terms of each
      point's orbit sum (qseries._orbit_min_sum), as a term takes
      0.51-0.60 us, and 40 more per point, as a class at k_range 1 takes
      4-9 us, the per-norm call included;
    - then the b that m's residue wheel visits, never more than its b range.
    """
    steps = 0
    if nmax > 0:
        rows = math.isqrt(nmax * (field.eps.trace() - 2) // field.disc)
        points = math.ceil(nmax * math.log(field.eps.trace()) / math.sqrt(field.disc))
        steps = 8 * (2 * rows + 1) + points
        if k_range > 0:
            steps += points * (40 + 3 * (2 * k_range + 1))
    if m > max(nmax, 0):
        length = _scan_length(field, m)
        steps += min(length, _sieve_plan(field.disc, 4 * m, length)[1])
    return steps
