"""Exact integer lattice points in an ellipsoid.

lattice_points takes a problem already scaled to integers (a basis of
Z^n's image, a centre and a squared radius, all integers) and yields
every lattice point inside, found by LLL reduction and Fincke-Pohst
enumeration in exact integer arithmetic, so no bound is ever rounded.
goldengrid poses the Z[phi] searches of the synthesis layers as such
problems.
"""

from __future__ import annotations

from math import isqrt
from operator import add, mul

__all__ = ["lattice_points"]


def lattice_points(basis, center, radius_sq, start=None):
    """Every integer y with |sum_i y_i basis[i] - center|^2 <= radius_sq.

    basis holds n linearly independent integer vectors of length n,
    center is an integer vector and radius_sq an integer, so the answer
    is exact: the basis is LLL-reduced in integer arithmetic and the
    ellipsoid enumerated depth-first (Fincke-Pohst) over the exact
    Gram-Schmidt data of the reduced basis.  When start is given (a
    unimodular transform returned by an earlier call on a nearby basis)
    the reduction begins from start * basis, which is nearly reduced
    already.

    Returns (points, transform): the points as tuples in the original
    basis coordinates, in no particular order, and the unimodular
    transform U with U * basis the reduced basis.  points is a one-pass
    iterator that finds each point only when it reaches it, so a probe
    that reads one point enumerates no further.
    """
    n = len(basis)
    if start is None:
        start = [[int(i == j) for j in range(n)] for i in range(n)]
    cols = list(zip(*basis))
    rows = [[sum(map(mul, row, col)) for col in cols] for row in start]
    rows, transform, d, lam = _lll(rows, [list(r) for r in start])
    transform = transform[1:]
    # lam_c[j] = d_{j-1} <center, b*_j>, by the same recurrence that
    # gives the lambda of a basis vector
    lam_c = [0] * (n + 1)
    for j in range(1, n + 1):
        u = sum(map(mul, center, rows[j]))
        for i in range(1, j):
            u = (d[i] * u - lam_c[i] * lam[j][i]) // d[i - 1]
        lam_c[j] = u
    return _fincke_pohst(d, lam, lam_c, radius_sq, transform), transform


def _lll(b, h):
    """Integral LLL with delta = 99/100 (Cohen, GTM 138, Alg. 2.6.7).

    Reduces the rows of b, applying every row operation to the rows of
    h as well.  Returns 1-based (b, h, d, lam): d[j] is the Gram
    determinant of the first j rows (d[0] = 1), and lam[k][j] =
    d[j] * mu_kj, both integers, so B_j = d[j] / d[j-1] is the squared
    length of the j-th Gram-Schmidt vector.  The size reduction of row
    k against row l (REDI) and the swap of rows k - 1 and k (SWAPI)
    are written out in the loop."""
    n = len(b)
    b, h = [None] + b, [None] + h
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    k, kmax = 1, 0
    while k <= n:
        lam_k = lam[k]
        if k > kmax:
            kmax = k
            bk = b[k]
            for j in range(1, k + 1):
                u = sum(map(mul, bk, b[j]))
                lam_j = lam[j]
                for i in range(1, j):
                    u = (d[i] * u - lam_k[i] * lam_j[i]) // d[i - 1]
                if j < k:
                    lam_k[j] = u
                else:
                    d[k] = u
            if d[k] == 0:
                raise ValueError("lattice basis is linearly dependent")
        # size-reduce row k against rows k - 1, ..., 1; after the first,
        # swap rows k - 1 and k instead when they fail Lovasz's test
        for l in range(k - 1, 0, -1):
            dl, lkl = d[l], lam_k[l]
            if 2 * abs(lkl) > dl:
                q = (2 * lkl + dl) // (2 * dl)
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                h[k] = [x - q * y for x, y in zip(h[k], h[l])]
                lkl = lam_k[l] = lkl - q * dl
                lam_l = lam[l]
                for i in range(1, l):
                    lam_k[i] -= q * lam_l[i]
            if l == k - 1 and (100 * d[k] * d[l - 1]
                               < 99 * dl * dl - 100 * lkl * lkl):
                b[k], b[l] = b[l], b[k]
                h[k], h[l] = h[l], h[k]
                lam_l = lam[l]
                for j in range(1, l):
                    lam_k[j], lam_l[j] = lam_l[j], lam_k[j]
                new_d = (d[l - 1] * d[k] + lkl * lkl) // dl
                dk = d[k]
                for i in range(k + 1, kmax + 1):
                    lam_i = lam[i]
                    t = lam_i[k]
                    lam_i[k] = (dk * lam_i[l] - lkl * t) // dl
                    lam_i[l] = (new_d * t + lkl * lam_i[k]) // dk
                d[l] = new_d
                k = max(2, l)
                break
        else:
            k += 1
    return b, h, d, lam


def _fincke_pohst(d, lam, lam_c, radius_sq, transform):
    """Yield sum_j y_j transform[j - 1], the point in the original basis
    coordinates, for every coordinate vector [y_1, ..., y_n] with

        sum_j (d_j y_j - N_j)^2 / (d_j d_{j-1}) <= radius_sq,
        N_j = lam_c[j] - sum_{k > j} lam[k][j] y_k,

    which is |sum_j y_j b_j - center|^2 <= radius_sq written over the
    Gram-Schmidt basis.  Everything is scaled by the common denominator
    P = prod_j d_j d_{j-1}, so each level's range comes from one isqrt
    and no bound is rounded.  The point is carried down the levels as
    the partial sum over k >= j, so a leaf costs one vector addition."""
    n = len(d) - 1
    den = [d[j] * d[j - 1] for j in range(n + 1)]
    p = 1
    for j in range(1, n + 1):
        p *= den[j]
    weight = [p // den[j] if j else 0 for j in range(n + 1)]
    y = [0] * (n + 1)

    def descend(j, budget, partial):
        nj = lam_c[j] - sum(lam[k][j] * y[k] for k in range(j + 1, n + 1))
        r = isqrt(budget // weight[j])
        dj = d[j]
        lo, hi = -((r - nj) // dj), (nj + r) // dj
        row = transform[j - 1]
        if j == 1:
            point = tuple(a + lo * b for a, b in zip(partial, row))
            for _ in range(lo, hi + 1):
                yield point
                point = tuple(map(add, point, row))
            return
        for v in range(lo, hi + 1):
            e = dj * v - nj
            y[j] = v
            yield from descend(j - 1, budget - e * e * weight[j],
                               [a + v * b for a, b in zip(partial, row)])

    yield from descend(n, radius_sq * p, [0] * n)
