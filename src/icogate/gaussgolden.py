"""Arithmetic in Z[i,phi], the ring of integers of Q(i,phi).

Elements are written w + x*phi + y*i + z*i*phi over the Z-basis
{1, phi, i, i*phi} and stored as the int tuple (w, x, y, z).  That is
the quaternion (w + x*phi) + (y + z*phi)*i with no j or k part, so
products run through golden's Hamilton kernel, in its entry
_hamilton_i that leaves those parts out.  The quartic field norm is
nonnegative and the ring is norm-Euclidean, which is what makes GCDs
(and hence the two-squares machinery built on top) effective.  The
norm-Euclidean property itself is re-verified here by a finite grid
computation over exact rationals: every coset of the unit cube contains
a lattice point of norm < 1, as certified by an effective perturbation
bound evaluated at finitely many grid points.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import MalformedInput
from .golden import GoldenInt, _balancing_power, _hamilton_i, phi_power

__all__ = [
    "quartic_norm",
    "euclid_divmod_ne",
    "gcd_ne",
    "canonical_associate_ne",
    "norm_upper_bound",
    "verify_norm_euclidean",
]


def quartic_norm(alpha: tuple[int, ...]) -> int:
    """The norm down to Q: the Z[phi] norm g0^2 + g0 g1 - g1^2 of
    g = alpha * complex_conj(alpha) = |w + x phi|^2 + |y + z phi|^2."""
    w, x, y, z = alpha
    g0 = w * w + x * x + y * y + z * z
    g1 = (2 * w + x) * x + (2 * y + z) * z
    return g0 * g0 + g0 * g1 - g1 * g1


def _times_conj_tower(alpha: tuple[int, ...], beta: tuple[int, ...]
                      ) -> tuple[int, ...]:
    # alpha * complex_conj(beta) * golden_conj(beta * complex_conj(beta));
    # dividing the result by quartic_norm(beta) gives alpha/beta in Q(i,phi)
    w, x, y, z = beta
    bc = (w, x, -y, -z)
    g0, g1, _, _ = _hamilton_i(beta, bc)  # in Z[phi], totally nonnegative
    return _hamilton_i(_hamilton_i(alpha, bc), (g0 + g1, -g1, 0, 0))


def euclid_divmod_ne(alpha: tuple[int, ...], beta: tuple[int, ...]
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division with remainder under the quartic norm: (q, r) with
    alpha = q*beta + r and quartic_norm(r) < quartic_norm(beta).

    The exact quotient in Q(i,phi) is rounded componentwise, leaving a
    fraction f = alpha/beta - q with coordinates in [-1/2, 1/2] and a
    remainder of norm N(beta) * N(f).  If the rounded quotient misses
    (the cube does contain points of norm at least 1), shifting one
    component of q by one, in the direction of that component's
    fractional part, works.  verify_norm_euclidean(6, 1/12) == [] (the
    selftest's norm-Euclidean check) certifies that rule: every f lies
    within 1/12 per coordinate of a grid point g of spacing 1/6, and
    the bound is below 1 around g or around g shifted by -sign(g_i) in
    one coordinate with g_i != 0, where sign(f_i) = sign(g_i).
    """
    n = quartic_norm(beta)
    if n == 0:
        raise ZeroDivisionError("euclid_divmod_ne by zero")
    q0 = []
    fsign = []
    for c in _times_conj_tower(alpha, beta):
        q, rem2 = divmod(2 * c, 2 * n)  # floor at half-integer resolution
        # nearest integer (half-up), remembering which side the
        # fraction was on
        if rem2 >= n:
            q0.append(q + 1)
            fsign.append(-1)
        else:
            q0.append(q)
            fsign.append(1 if rem2 > 0 else 0)
    candidates = [tuple(q0)]
    for i in range(4):
        if fsign[i]:
            shifted = list(q0)
            shifted[i] += fsign[i]
            candidates.append(tuple(shifted))
    for q in candidates:
        r = tuple(a - b for a, b in zip(alpha, _hamilton_i(q, beta)))
        if quartic_norm(r) < n:
            return q, r
    raise AssertionError("norm-Euclidean division failed, against the "
                         "verify_norm_euclidean certificate; arithmetic bug")


def canonical_associate_ne(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Distinguished associate: the unit multiple of least key
    (max |coordinate|, coordinates), so associates share it.

    The units are i^a phi^e: a unit u has u*conj(u) = phi^(2m), a
    totally positive unit of Z[phi], so u/phi^m has all conjugates of
    absolute value 1 and is a root of unity, and of the cyclotomic
    fields of degree at most 4 Q(i, sqrt5) holds only Q and Q(i).  For
    alpha = A + B*i, g = alpha*conj(alpha) = A^2 + B^2 has
    s(g) = s(A)^2 + s(B)^2 under each real embedding s; i permutes A
    and B up to sign, and phi^e scales the plus embeddings by phi^e and
    the minus ones by phi^-e.  So by golden.canonical_associate's bounds
    on one coordinate, at e = n_b + t, for n_b the real balance point of
    g*phi^(2e) and K = quartic_norm(alpha)^(1/4), the largest coordinate
    M of alpha*phi^e has K*phi^(|t| - 2)/sqrt2 <= M <= K*phi^|t|.  Some
    e has |t| <= 1/2 and M <= K*phi^(1/2), which M exceeds once
    |t| > 5/2 + log_phi(sqrt2) = 3.22, and n0 = _balancing_power(g) // 2
    lies within 3/4 of n_b, so n0 - 8 .. n0 + 8 holds every minimizer.
    The scan multiplies by phi as (w, x, y, z) -> (x, w + x, z, y + z)
    and by i as (w, x, y, z) -> (-y, -z, w, x)."""
    if not any(alpha):
        return alpha
    w, x, y, z = alpha
    g0, g1, _, _ = _hamilton_i(alpha, (w, x, -y, -z))
    p = phi_power(_balancing_power(GoldenInt(g0, g1)) // 2 - 8)
    w, x, y, z = _hamilton_i(alpha, (p.a, p.b, 0, 0))
    best = None
    for _ in range(17):
        m = max(abs(w), abs(x), abs(y), abs(z))  # the same for all four
        if best is None or m <= best[0]:
            for v in ((w, x, y, z), (-y, -z, w, x), (-w, -x, -y, -z),
                      (y, z, -w, -x)):
                if best is None or (m, v) < best:
                    best = (m, v)
        w, x, y, z = x, w + x, z, y + z
    return best[1]


def gcd_ne(alpha: tuple[int, ...], beta: tuple[int, ...]) -> tuple[int, ...]:
    """GCD under the norm-Euclidean division, canonicalized."""
    if not any(alpha) and not any(beta):
        raise MalformedInput("gcd_ne(0, 0) is undefined")
    while any(beta):
        _, r = euclid_divmod_ne(alpha, beta)
        alpha, beta = beta, r
    return canonical_associate_ne(alpha)


# --- the effective perturbation bound and the grid verification ---

def _bound_parts(w, x, y, z, r):
    """The five degree-graded pieces of the perturbation bound.

    For any beta with coordinates bounded by r in absolute value,
    N(alpha + beta) <= p0 + p1 + p2 + p3 + p4.  Jointly homogeneous of
    degree 4 in (w, x, y, z, r), so integer inputs give integer output
    (used by the exact verification path).
    """
    p0 = abs(quartic_norm((w, x, y, z)))
    p1 = 2 * r * (abs(2 * w**3 + 3 * w**2 * x - w * x**2 - x**3
                      + 2 * w * y**2 + x * y**2 + 2 * w * y * z
                      + 3 * w * z**2 - x * z**2 - 4 * x * y * z)
                  + abs(w**3 - w**2 * x - 3 * w * x**2 + 2 * x**3
                        + w * y**2 + 3 * x * y**2 - 4 * w * y * z
                        - 2 * x * y * z - w * z**2 + 2 * x * z**2)
                  + abs(2 * w**2 * y + 2 * w * x * y + 3 * x**2 * y
                        + 2 * y**3 + w**2 * z - 4 * w * x * z - x**2 * z
                        + 3 * y**2 * z - y * z**2 - z**3)
                  + abs(w**2 * y - 4 * w * x * y - x**2 * y + y**3
                        + 3 * w**2 * z - 2 * w * x * z + 2 * x**2 * z
                        - y**2 * z - 3 * y * z**2 + 2 * z**3))
    p2 = r**2 * (abs(6 * w**2 + 6 * w * x - x**2 + 2 * y**2
                     + 2 * y * z + 3 * z**2)
                 + abs(6 * w**2 - 4 * w * x - 6 * x**2 + 2 * y**2
                       - 8 * y * z - 2 * z**2)
                 + abs(-w**2 - 6 * w * x + 6 * x**2 + 3 * y**2
                       - 2 * y * z + 2 * z**2)
                 + abs(2 * w**2 + 2 * w * x + 3 * x**2 + 6 * y**2
                       + 6 * y * z - z**2)
                 + abs(2 * w**2 - 8 * w * x - 2 * x**2 + 6 * y**2
                       - 4 * y * z - 6 * z**2)
                 + abs(3 * w**2 - 2 * w * x + 2 * x**2 - 6 * y * z
                       + 6 * z**2 - y**2)
                 + abs(8 * w * y + 4 * x * y + 4 * w * z - 8 * x * z)
                 + abs(4 * w * y + 12 * x * y - 8 * w * z - 4 * x * z)
                 + abs(4 * w * y - 8 * x * y + 12 * w * z - 4 * x * z)
                 + abs(-8 * w * y - 4 * x * y - 4 * w * z + 8 * x * z))
    p3 = 2 * r**3 * (abs(w + x) + 2 * abs(3 * w - x) + 2 * abs(w + 3 * x)
                     + 2 * abs(2 * x - w) + 3 * abs(2 * w + x)
                     + 2 * abs(w - 2 * x) + 2 * abs(2 * z - y)
                     + 2 * abs(y + 3 * z) + 2 * abs(y - 2 * z)
                     + 2 * abs(3 * y - z) + 4 * abs(2 * y + z))
    p4 = 40 * r**4
    return p0, p1, p2, p3, p4


def norm_upper_bound(alpha, r):
    """Upper bound on N(alpha + beta) over all beta with coordinates
    at most r in absolute value.  Works over any numeric type."""
    w, x, y, z = alpha
    return sum(_bound_parts(w, x, y, z, r))


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def verify_norm_euclidean(grid_n: int, r) -> list[tuple[Fraction, ...]]:
    """Replicate the finite check that Z[i,phi] is norm-Euclidean.

    Covers the cube [-1/2, 1/2]^4 with a grid of spacing 1/grid_n and
    balls of radius r around each grid point; a grid point passes if the
    perturbation bound is < 1 there or at one of its four
    single-component sign-shifts.  Returns the failing points (an empty
    list is the interesting outcome).

    All arithmetic is exact: coordinates and r are scaled to integers
    by the common denominator and the homogeneous bound is compared
    against scale^4.
    """
    if grid_n < 1:
        raise MalformedInput("grid_n must be at least 1")
    r = Fraction(r)
    if r < 0:
        raise MalformedInput("r must be nonnegative")
    scale = lcm(2 * grid_n, r.denominator)
    rs = int(r * scale)
    limit = scale**4
    step = scale // grid_n  # spacing in scaled units (2*grid_n | scale)
    half = scale // 2
    axis = [j * step - half for j in range(grid_n + 1)]
    violations = []
    for w in axis:
        for x in axis:
            for y in axis:
                for z in axis:
                    if _grid_point_ok(w, x, y, z, rs, scale, limit):
                        continue
                    violations.append(tuple(Fraction(c, scale)
                                            for c in (w, x, y, z)))
    return violations


def _grid_point_ok(w: int, x: int, y: int, z: int, rs: int,
                   scale: int, limit: int) -> bool:
    if sum(_bound_parts(w, x, y, z, rs)) < limit:
        return True
    pts = ((w - _sign(w) * scale, x, y, z),
           (w, x - _sign(x) * scale, y, z),
           (w, x, y - _sign(y) * scale, z),
           (w, x, y, z - _sign(z) * scale))
    return any(sum(_bound_parts(*p, rs)) < limit for p in pts)
