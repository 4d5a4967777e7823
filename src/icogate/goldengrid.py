"""Searches over Z[phi] embeddings posed as integer lattice problems.

An element x = a + b*phi is the lattice point (a, b), and its two real
embeddings sigma_pm(x) = a + b*sigma_pm(phi) are linear forms in it, so
both synthesis searches are lattice-point problems: general synthesis
wants the norms s = x0^2 + x1^2 in a band of the (sigma_+, sigma_-)
plane (n = 2), diagonal synthesis the pairs (x0, x1) of a shell
(n = 4).  Each caller normalises its region to unit size, bounds it by
an ellipsoid |L z - c| <= r in the coordinates z of Z[phi]^(n/2) = Z^n,
and hands L, c and r to ellipsoid_points, which scales them to integers
and solves the problem exactly with lattice.lattice_points.  The
ellipsoid may hold points outside the region; callers keep the region's
own checks.
"""

from __future__ import annotations

from mpmath import mp

from .lattice import lattice_points

__all__ = ["ellipsoid_points"]


def ellipsoid_points(forms, center, radius, bound, start=None):
    """Every z in Z^n with |L z - c| <= radius and max_j |z_j| <= bound,
    and possibly some points outside.

    forms holds the n rows of L (row i gives the coefficients of the
    linear form L_i on z), center the n reals c_i; all are taken as the
    exact values of the mpf numbers given.  L and c are scaled by
    S = 2^e and rounded to the integer basis and centre of a lattice
    problem (basis[j] is the image of the j-th unit vector of Z^n).
    For |z_j| <= bound each component of the rounded S (L z - c) is off
    by at most (n bound + 1) / 2: a half for each coefficient times
    |z_j|, and a half for the centre.  So the scaled point moves by at
    most sqrt(n) (n bound + 1) / 2, and e is picked so that this is
    below S / 2^16.  The integer radius is S radius + S / 256, which
    absorbs that drift; the rest of the margin covers a caller whose L,
    c and radius carry working-precision rounding.

    start is passed on to lattice_points as a warm start.  Returns
    (points, transform) as lattice_points does.
    """
    n = len(forms)
    e = (n * (n * (int(bound) + 1) + 1)).bit_length() + 16
    basis = [[int(mp.nint(mp.ldexp(row[j], e))) for row in forms]
             for j in range(n)]
    scaled_center = [int(mp.nint(mp.ldexp(c, e))) for c in center]
    r = int(mp.ceil(mp.ldexp(radius, e))) + (1 << (e - 8))
    return lattice_points(basis, scaled_center, r * r, start)
