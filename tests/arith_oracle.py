"""Reference arithmetic for the exact layer's integer kernels.

GoldenQuat keeps its coordinates as eight ints, golden.gcd and
canonical_associate run on int pairs, and canonical_associate_ne forms
its candidates as coordinate maps.  The functions here are the object
versions they replaced (commit fc78430), verbatim apart from taking
the quaternion as an argument and spelling GoldenQuat's own product,
scaling, negation and reduced norm through GoldenInt operators: every
step builds GoldenInt and GaussGoldenInt values.  Both must agree
exactly on every input.
"""

from icogate.gaussgolden import I_UNIT, GaussGoldenInt
from icogate.golden import (PHI, SQRT5_IRREDUCIBLE, ZERO, GoldenInt,
                            _balancing_power, _round_div, exact_div,
                            phi_power)
from icogate.errors import MalformedInput
from icogate.icosian import GoldenQuat


# --- golden.py ---

def euclid_divmod(x, y):
    n = y.norm()
    if n == 0:
        raise ZeroDivisionError("euclid_divmod by zero")
    t = x * y.conj()
    q = GoldenInt(_round_div(t.a, n), _round_div(t.b, n))
    return q, x - q * y


def gcd(x, y):
    if not x and not y:
        raise MalformedInput("gcd(0, 0) is undefined")
    while y:
        _, r = euclid_divmod(x, y)
        x, y = y, r
    return canonical_associate(x)


def _assoc_key(x):
    return (max(abs(x.a), abs(x.b)), 0 if x.a > 0 else 1,
            0 if x.b >= 0 else 1, x.a, x.b)


def _positive(x):
    return -x if x.a < 0 or (x.a == 0 and x.b < 0) else x


def canonical_associate(x):
    if not x:
        return ZERO
    w = x * phi_power(_balancing_power(x) - 8)
    window = []
    for _ in range(17):
        window.append(_positive(w))
        w = w * PHI
    out = min(window, key=_assoc_key)
    if out == GoldenInt(2, 1):  # the norm-5 ramified class
        return SQRT5_IRREDUCIBLE
    return out


# --- icosian.py ---

def quat_mul(p, q):
    a0, a1, a2, a3 = p.parts()
    b0, b1, b2, b3 = q.parts()
    return GoldenQuat(
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def quat_scale(q, s):
    x0, x1, x2, x3 = q.parts()
    return GoldenQuat(x0 * s, x1 * s, x2 * s, x3 * s)


def nrd(q):
    x0, x1, x2, x3 = q.parts()
    return x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3


def _content(q):
    g = ZERO
    for x in q.parts():
        if x != ZERO:
            g = x if g == ZERO else gcd(g, x)
    return g


def _flat_key(q):
    flat = q.coords()
    return (sum(abs(v) for v in flat), flat)


def _sign_fixed(q):
    for v in q.coords():
        if v > 0:
            return q
        if v < 0:
            return GoldenQuat(*(-x for x in q.parts()))
    return q


def canonical(q):
    g = _content(q)
    if g == ZERO:
        raise MalformedInput("zero quaternion has no projective class")
    if g != GoldenInt(1):
        q = GoldenQuat(*(exact_div(x, g) for x in q.parts()))
    q = quat_scale(q, phi_power(_balancing_power(nrd(q)) // 2 - 8))
    window = []
    for _ in range(17):
        window.append(_sign_fixed(q))
        q = quat_scale(q, PHI)
    return min(window, key=_flat_key)


# --- gaussgolden.py ---

_PHI_NE = GaussGoldenInt(0, 1, 0, 0)
_PHI_NE_INV = GaussGoldenInt(-1, 1, 0, 0)


def _assoc_candidates(alpha):
    for p in (_PHI_NE_INV, GaussGoldenInt(1), _PHI_NE):
        base = alpha * p
        yield base
        yield base * I_UNIT
        yield -base
        yield -(base * I_UNIT)


def canonical_associate_ne(alpha):
    if not alpha:
        return alpha

    def key(v):
        c = v.coords()
        return (max(abs(u) for u in c), c)

    current = alpha
    while True:
        best = min(_assoc_candidates(current), key=key)
        if key(best) >= key(current):
            return current
        current = best
