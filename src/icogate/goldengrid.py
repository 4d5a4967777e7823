"""Enumeration of Z[phi] elements by their pair of real embeddings.

An element x = c + d*phi is a lattice point (c, d), and the conditions
sigma_plus(x) in [A, B], sigma_minus(x) in [A', B'] are four linear
constraints on (c, d).  Taken literally that region is usually a very
thin, very long parallelogram (the synthesis search bands have
sigma_plus width ~ eps*eta^{m/2} against sigma_minus width ~ 2), and a
bounding-box scan would be hopeless.  Substituting x = phi^t * y with
t chosen to balance the two widths turns the region into a roughly
square one, and the substitution is an exact integer change of basis,
so nothing is lost.

Two entry points: enumerate_region materializes a whole region, and
stream_center_out walks an unboundedly large band lazily in exact
order of |sigma_plus(x) - center|, by splitting the band into slabs of
a few thousand points and merging them center-outward.

All floating arithmetic happens at the ambient mpmath precision; run
under mp.workprec sized for the magnitudes involved.
"""

from __future__ import annotations

from typing import Iterator

from mpmath import mp, mpf

from .golden import GoldenInt, _phi_embedded, embed, phi_power
from .lattice import _slack

__all__ = ["enumerate_region", "stream_center_out"]

_POW_EMBED_CACHE: dict[tuple[int, int], tuple] = {}


def _phi_pow_embedded(t: int, prec: int):
    """Both embeddings of phi^t, memoized, accurate to a few roundings.

    The small embedding is never formed as a difference of huge
    coordinates (that cancels catastrophically); phi is a unit, so
    sigma_plus(phi^t) * sigma_minus(phi^t) = (-1)^t turns the accurate
    big embedding into an equally accurate small one."""
    key = (prec, t)
    val = _POW_EMBED_CACHE.get(key)
    if val is None:
        big = embed(phi_power(abs(t)), "plus", prec)  # positive coords
        with mp.workprec(prec):
            if t >= 0:
                val = (big, (1 / big if t % 2 == 0 else -1 / big))
            else:
                val = (1 / big, (big if t % 2 == 0 else -big))
        _POW_EMBED_CACHE[key] = val
    return val


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
