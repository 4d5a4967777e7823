"""Enumeration of Z[phi] elements by their pair of real embeddings,
and of integer lattice points in an ellipsoid.

An element x = c + d*phi is a lattice point (c, d), and the conditions
sigma_plus(x) in [A, B], sigma_minus(x) in [A', B'] are four linear
constraints on (c, d).  Taken literally that region is usually a very
thin, very long parallelogram (a norm band of general synthesis is
about eps * sigma_plus(eta^k) wide on the plus side and
sigma_minus(eta^k) on the minus side), and a bounding-box scan would
be hopeless.  Substituting x = phi^t * y with t chosen to balance the
two widths turns the region into a roughly square one, and the
substitution is an exact integer change of basis, so nothing is lost.

enumerate_region materializes a whole rectangle, and stream_center_out
walks an unboundedly large band lazily in exact order of
|sigma_plus(x) - center|, by splitting the band into slabs of a few
thousand points and merging them center-outward.  lattice_points
solves the n-dimensional version once the caller has scaled it to
integers: every y in Z^n with |sum_i y_i b_i - c|^2 <= R^2, found by
LLL reduction and Fincke-Pohst enumeration in exact integer
arithmetic; diagonal synthesis poses each shell as one such problem in
Z[phi]^2 = Z^4.

The rectangle enumerators do their floating arithmetic at the ambient
mpmath precision; run them under mp.workprec sized for the magnitudes
involved.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterator

from mpmath import mp, mpf

from .golden import GoldenInt, _phi_embedded, embed, phi_power
from .lattice import _slack

__all__ = ["enumerate_region", "stream_center_out", "lattice_points"]


@lru_cache(maxsize=512)
def _phi_pow_embedded(t: int, prec: int):
    """Both embeddings of phi^t, memoized, accurate to a few roundings.

    The small embedding is never formed as a difference of huge
    coordinates (that cancels catastrophically); phi is a unit, so
    sigma_plus(phi^t) * sigma_minus(phi^t) = (-1)^t turns the accurate
    big embedding into an equally accurate small one."""
    big = embed(phi_power(abs(t)), "plus", prec)  # positive coords
    with mp.workprec(prec):
        if t >= 0:
            return big, (1 / big if t % 2 == 0 else -1 / big)
        return 1 / big, (big if t % 2 == 0 else -big)


def _box_points(plus_lo, plus_hi, minus_lo, minus_hi):
    """Integer (a, b) with a + b*phi inside the embedding rectangle.

    Row scan over b = (sigma_plus - sigma_minus)/sqrt(5); assumes the
    caller already balanced the rectangle, so only a handful of rows
    survive.  Intervals are padded outward (see lattice._slack)."""
    php = _phi_embedded("plus", mp.prec)
    phm = _phi_embedded("minus", mp.prec)
    r5 = php - phm
    b_lo = int(mp.ceil((plus_lo - minus_hi) / r5 - _slack(plus_lo, minus_hi)))
    b_hi = int(mp.floor((plus_hi - minus_lo) / r5 + _slack(plus_hi, minus_lo)))
    for b in range(b_lo, b_hi + 1):
        bp = b * php
        bm = b * phm
        lo = max(plus_lo - bp, minus_lo - bm)
        hi = min(plus_hi - bp, minus_hi - bm)
        pad = _slack(plus_lo, plus_hi, bp, bm)
        a_lo = int(mp.ceil(lo - pad))
        a_hi = int(mp.floor(hi + pad))
        for a in range(a_lo, a_hi + 1):
            yield (a, b)


def _balance_exp(plus_width, minus_width) -> int:
    if plus_width <= 0 or minus_width <= 0:
        return 0
    # mp.mag is the binary exponent up to one ulp, which is all the
    # accuracy a rescaling exponent needs; ln2 / (2 ln phi) = 0.72021...
    return round((mp.mag(plus_width) - mp.mag(minus_width)) * 0.7202100452)


def enumerate_region(plus_lo, plus_hi, minus_lo, minus_hi
                     ) -> list[GoldenInt]:
    """All x in Z[phi] with sigma_plus(x) in [plus_lo, plus_hi] and
    sigma_minus(x) in [minus_lo, minus_hi].

    Boundary points may be included spuriously by one ulp; callers that
    care filter with the exact sign tests.
    """
    plus_lo, plus_hi = mpf(plus_lo), mpf(plus_hi)
    minus_lo, minus_hi = mpf(minus_lo), mpf(minus_hi)
    if plus_hi < plus_lo or minus_hi < minus_lo:
        return []
    t = _balance_exp(plus_hi - plus_lo, minus_hi - minus_lo)
    pt = phi_power(t)
    pp, pm = _phi_pow_embedded(t, mp.prec)
    yp_lo, yp_hi = plus_lo / pp, plus_hi / pp
    ym_lo, ym_hi = minus_lo / pm, minus_hi / pm
    if pm < 0:
        ym_lo, ym_hi = ym_hi, ym_lo
    return [GoldenInt(a, b) * pt
            for a, b in _box_points(yp_lo, yp_hi, ym_lo, ym_hi)]


def stream_center_out(plus_lo, plus_hi, minus_lo, minus_hi,
                      center=None, slab_points: int = 2000
                      ) -> Iterator[GoldenInt]:
    """Yield the elements of the band ordered by |sigma_plus(x) - center|.

    The ordering is globally exact: slabs of sigma_plus-width covering
    about slab_points lattice points each are enumerated alternately to
    the right and left of the center, and a point is released only once
    every slab that could hold a closer one has been loaded.
    """
    plus_lo, plus_hi = mpf(plus_lo), mpf(plus_hi)
    minus_lo, minus_hi = mpf(minus_lo), mpf(minus_hi)
    if plus_hi < plus_lo or minus_hi < minus_lo:
        return
    if center is None:
        center = (plus_lo + plus_hi) / 2
    else:
        center = mpf(center)
    minus_width = minus_hi - minus_lo
    plus_width = plus_hi - plus_lo
    # Expected points per unit of sigma_plus is minus_width / sqrt(5)
    # (covolume of the embedded lattice).
    density = minus_width / mp.sqrt(5)
    slab_w = slab_points / density if density > 0 else plus_width
    slab_w = max(min(slab_w, plus_width), plus_width / 4096, mp.eps)

    seen: set[GoldenInt] = set()
    pending: list[tuple[mpf, tuple[int, int], GoldenInt]] = []
    k = 0
    while True:
        radius = (k + 1) * slab_w
        fresh = []
        for lo, hi in ((center + k * slab_w, center + radius),
                       (center - radius, center - k * slab_w)):
            lo, hi = max(lo, plus_lo), min(hi, plus_hi)
            if hi < lo:
                continue
            for x in enumerate_region(lo, hi, minus_lo, minus_hi):
                if x not in seen:
                    seen.add(x)
                    dist = abs(embed(x, "plus", mp.prec) - center)
                    fresh.append((dist, (x.a, x.b), x))
        pending.extend(fresh)
        pending.sort(key=lambda item: (item[0], item[1]))
        done = center - radius < plus_lo and center + radius > plus_hi
        cut = 0
        while cut < len(pending) and (done or pending[cut][0] <= radius):
            yield pending[cut][2]
            cut += 1
        pending = pending[cut:]
        if done and not pending:
            return
        k += 1


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
    transform U with U * basis the reduced basis.
    """
    n = len(basis)
    if start is None:
        start = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = [[_dot(row, col) for col in zip(*basis)] for row in start]
    rows, transform, d, lam = _lll(rows, [list(r) for r in start])
    transform = transform[1:]
    # lam_c[j] = d_{j-1} <center, b*_j>, by the same recurrence that
    # gives the lambda of a basis vector
    lam_c = [0] * (n + 1)
    for j in range(1, n + 1):
        u = _dot(center, rows[j])
        for i in range(1, j):
            u = (d[i] * u - lam_c[i] * lam[j][i]) // d[i - 1]
        lam_c[j] = u
    columns = list(zip(*transform))
    points = [tuple(_dot(y, col) for col in columns)
              for y in _fincke_pohst(d, lam, lam_c, radius_sq)]
    return points, transform


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lll(b, h):
    """Integral LLL with delta = 99/100 (Cohen, GTM 138, Alg. 2.6.7).

    Reduces the rows of b, applying every row operation to the rows of
    h as well.  Returns 1-based (b, h, d, lam): d[j] is the Gram
    determinant of the first j rows (d[0] = 1), and lam[k][j] =
    d[j] * mu_kj, both integers, so B_j = d[j] / d[j-1] is the squared
    length of the j-th Gram-Schmidt vector."""
    n = len(b)
    b, h = [None] + b, [None] + h
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        new_d = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k]
        d[k - 1] = new_d

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = _dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
            if d[k] == 0:
                raise ValueError("lattice basis is linearly dependent")
        if k > 1:
            reduce(k, k - 1)
            if (100 * d[k] * d[k - 2]
                    < 99 * d[k - 1] ** 2 - 100 * lam[k][k - 1] ** 2):
                swap(k)
                k = max(2, k - 1)
                continue
            for l in range(k - 2, 0, -1):
                reduce(k, l)
        k += 1
    return b, h, d, lam


def _fincke_pohst(d, lam, lam_c, radius_sq):
    """Yield every coordinate vector [y_1, ..., y_n] with

        sum_j (d_j y_j - N_j)^2 / (d_j d_{j-1}) <= radius_sq,
        N_j = lam_c[j] - sum_{k > j} lam[k][j] y_k,

    which is |sum_j y_j b_j - center|^2 <= radius_sq written over the
    Gram-Schmidt basis.  Everything is scaled by the common denominator
    P = prod_j d_j d_{j-1}, so each level's range comes from one isqrt
    and no bound is rounded."""
    n = len(d) - 1
    den = [d[j] * d[j - 1] for j in range(n + 1)]
    p = 1
    for j in range(1, n + 1):
        p *= den[j]
    weight = [p // den[j] if j else 0 for j in range(n + 1)]
    y = [0] * (n + 1)

    def descend(j, budget):
        nj = lam_c[j] - sum(lam[k][j] * y[k] for k in range(j + 1, n + 1))
        r = isqrt(budget // weight[j])
        dj = d[j]
        for v in range(-((r - nj) // dj), (nj + r) // dj + 1):
            e = dj * v - nj
            y[j] = v
            if j == 1:
                yield y[1:]
            else:
                yield from descend(j - 1, budget - e * e * weight[j])

    yield from descend(n, radius_sq * p)
