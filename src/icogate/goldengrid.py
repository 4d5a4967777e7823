"""Searches over Z[phi] embeddings posed as integer lattice problems.

An element x = a + b*phi is the lattice point (a, b), and its two real
embeddings sigma_pm(x) = a + b*sigma_pm(phi) are linear forms in it, so
both synthesis searches are lattice-point problems: general synthesis
wants the norms s = x0^2 + x1^2 in a band of the (sigma_+, sigma_-)
plane (n = 2), diagonal synthesis the pairs (x0, x1) of a shell
(n = 4).  Each caller normalises its region to unit size, bounds it
by an ellipsoid |L z - c| <= r in the coordinates z of
Z[phi]^(n/2) = Z^n, scales L and c to integers at a scale grid_scale
picks, and hands the integer basis and centre to
scaled_ellipsoid_points, which solves the problem exactly with
lattice.lattice_points.  Each search is a LatticeFamily, one
problem per power of eta, so it rounds its few mpf constants with
fixed_point once and scales them by the exact eta^k in integers.

The ellipsoid may hold points outside the region, so each caller then
decides its region's own predicates in integers, point by point.  A
test on the sign of an element of Z[phi] is exact (golden.sign_plus,
golden.sign_minus).  A test against a real bound of the region is
made at the one scale 2^p of the working precision p: the point's
plus embedding as the integer (a << p) + b * phi_fixed(p), the bound
as an integer at that scale (fixed_point of its mpf value, or a
product of such integers and exact ones).  The caller proves in its
docstring a margin tol that bounds the integer value's error, and
keeps every point whose integer test value is at least -tol, so no
point of the region is lost; points are ordered by integer keys, then
by coordinates.  What is kept near an edge is a candidate, and the
caller's exact check of its result decides it.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from mpmath import mp

from .errors import MalformedInput
from .lattice import lattice_points

__all__ = ["LatticeFamily", "fixed_point", "grid_scale", "phi_fixed",
           "scaled_ellipsoid_points"]


def scaled_ellipsoid_points(basis, center, scale: int, radius_sq: int,
                            start=None):
    """Every z in Z^n with max_j |z_j| <= bound and
    |L z - c| <= sqrt(radius_sq) + 1/257, and possibly some points
    outside, for forms L and a centre c the caller has already scaled
    to integers at S = 2^scale, with scale >= grid_scale(n, bound).

    basis[j] is the image of the j-th unit vector of Z^n and center
    that of c, each integer within 2 of S times the exact value.  For
    |z_j| <= bound each component of basis z - center is then within
    2 (n bound + 1) of S (L z - c), so the scaled point moves by at
    most 2 sqrt(n) (n bound + 1) < S / 2^16.  The integer radius
    isqrt(radius_sq S^2) + 1 + S / 256 exceeds S sqrt(radius_sq) by
    S / 256, which absorbs that drift and leaves the 1/257.

    start, a transform to begin the reduction from, is passed on to
    lattice_points.  Returns (points, transform) as lattice_points
    does: the points as a lazy, re-iterable enumeration, so a caller
    that needs only to know whether the ellipsoid holds a point stops
    at the first, and one that needs them all later enumerates them
    again without a second reduction.
    """
    r = isqrt(radius_sq << (2 * scale)) + 1 + (1 << (scale - 8))
    return lattice_points(basis, center, r * r, start)


class LatticeFamily:
    """The problems k = 0, 1, 2, ... of one search, one region scaled
    by powers of eta.  A subclass checks its inputs and fixes what its
    problems share when it is built, sets top, the problem its search
    probes first, and step, and proves that eta maps each solution of
    problem k to a lattice point of problem k + step.  Its pose(k)
    gives problem k as (basis, center, scale, radius_sq, data) for
    scaled_ellipsoid_points, data being what its caller reads besides
    the points.  problem(k) reduces problem k once, when first asked
    for, from the transform the last reduction left (None before the
    first), and keeps it, so a problem that a probe reduced is
    enumerated again, not reduced again, when it is solved; the
    points, which callers order by their own keys, do not depend on
    the start.
    """

    __slots__ = ("transform", "_problems", "top")

    def __init__(self, top: int):
        self.transform, self._problems, self.top = None, {}, top

    def problem(self, k: int):
        """(points, data) of problem k, the points lazy and re-iterable;
        k must be a nonnegative int (MalformedInput)."""
        if not isinstance(k, int) or k < 0:
            raise MalformedInput(f"k must be a nonnegative int, got {k!r}")
        if k not in self._problems:
            basis, center, scale, radius_sq, data = self.pose(k)
            points, self.transform = scaled_ellipsoid_points(
                basis, center, scale, radius_sq, self.transform)
            self._problems[k] = points, data
        return self._problems[k]

    def search(self, cap: int):
        """Every k <= cap in increasing order but those an empty probe
        covers: per residue mod step, from min(top, cap) down in steps
        of step, the first problem that holds no point."""
        top, step, last_empty = min(self.top, cap), self.step, {}
        for k in range(top, top - step, -1):
            while k >= 0 and next(iter(self.problem(k)[0]), None) is not None:
                k -= step
            last_empty[k % step] = k
        return (k for k in range(cap + 1) if k > last_empty[k % step])


def grid_scale(n: int, bound: int) -> int:
    """The scale exponent e for scaled_ellipsoid_points on Z^n with
    |z_j| <= bound: 2 n (n bound + 1) < 2^(e - 16)."""
    return (2 * n * (n * bound + 1)).bit_length() + 16


def fixed_point(x, scale: int) -> int:
    """The integer nearest x * 2^scale, for an mpf x taken as exact: off
    by at most 1/2."""
    return int(mp.nint(mp.ldexp(x, scale)))


@lru_cache(maxsize=16)
def phi_fixed(scale: int) -> int:
    """floor(phi * 2^scale) for phi = (1 + sqrt 5) / 2, from an integer
    square root: off by less than 1, so (a << scale) + b * phi_fixed(scale)
    is the plus embedding of a + b*phi at scale 2^scale, off by less
    than |b|."""
    return ((1 << scale) + isqrt(5 << (2 * scale))) >> 1

