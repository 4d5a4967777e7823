"""Reference arithmetic for the exact layer's integer kernels.

GoldenQuat keeps its coordinates as eight ints, golden.gcd and
canonical_associate run on int pairs, and Z[i, phi] elements are
(w, x, y, z) int tuples multiplied by golden's Hamilton kernel.  The
functions here are the object versions they replaced, verbatim apart
from dropping unused helpers, taking the quaternion as an argument,
spelling GoldenQuat's own product, scaling, negation and reduced norm
through GoldenInt operators, and computing the quartic norm down the
tower as N(alpha * complex_conj(alpha)): every step builds GoldenInt
and GaussGoldenInt values.  Two are not: canonical_associate_ne here
is a brute force over the unit multiples in a window four times as
wide as gaussgolden's, centred by exact integer bisection, and
intfactor.trial_divide skips runs of primes by one gcd each, while
trial_divide here is the prime-by-prime walk it replaced.  Both sides
must agree exactly on every input.
"""

from icogate.golden import (PHI, SQRT5_IRREDUCIBLE, ZERO, GoldenInt,
                            _balancing_power, _round_div, exact_div,
                            phi_power)
from icogate.errors import MalformedInput
from icogate.icosian import GoldenQuat
from icogate.intfactor import small_primes


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


# --- intfactor.py ---

def trial_divide(n):
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    out = {}
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return out, n


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

class GaussGoldenInt:
    """An element w + x*phi + (y + z*phi)*i of Z[i,phi], stored as a
    pair of GoldenInt (real and imaginary golden parts)."""

    __slots__ = ("re", "im")

    def __init__(self, w, x=0, y=0, z=0):
        self.re = GoldenInt(w, x)
        self.im = GoldenInt(y, z)

    @classmethod
    def from_golden(cls, re, im=ZERO):
        out = cls.__new__(cls)
        out.re = re
        out.im = im
        return out

    def coords(self):
        return (self.re.a, self.re.b, self.im.a, self.im.b)

    def __repr__(self):
        return "GaussGoldenInt({}, {}, {}, {})".format(*self.coords())

    def __hash__(self):
        return hash(self.coords())

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __neg__(self):
        return GaussGoldenInt.from_golden(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussGoldenInt.from_golden(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussGoldenInt.from_golden(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussGoldenInt.from_golden(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def complex_conj(self):
        return GaussGoldenInt.from_golden(self.re, -self.im)

    def golden_conj(self):
        return GaussGoldenInt.from_golden(self.re.conj(), self.im.conj())


I_UNIT = GaussGoldenInt(0, 0, 1, 0)


def _coerce(v):
    if isinstance(v, GaussGoldenInt):
        return v
    if isinstance(v, GoldenInt):
        return GaussGoldenInt.from_golden(v, ZERO)
    if isinstance(v, int):
        return GaussGoldenInt(v, 0, 0, 0)
    return None


def quartic_norm(alpha):
    t = alpha * alpha.complex_conj()
    assert not t.im
    return t.re.norm()


def exact_div_ne(alpha, beta):
    """alpha / beta when beta divides alpha exactly, else None."""
    n = quartic_norm(beta)
    if n == 0:
        raise ZeroDivisionError("division by zero in Z[i,phi]")
    coords = _times_conj_tower(alpha, beta).coords()
    if any(c % n for c in coords):
        return None
    return GaussGoldenInt(*(c // n for c in coords))


def _times_conj_tower(alpha, beta):
    bc = beta.complex_conj()
    g = beta * bc
    return alpha * bc * g.golden_conj()


def euclid_divmod_ne(alpha, beta):
    n = quartic_norm(beta)
    if n == 0:
        raise ZeroDivisionError("euclid_divmod_ne by zero")
    t = _times_conj_tower(alpha, beta).coords()
    q0 = []
    fsign = []
    for c in t:
        q, rem2 = divmod(2 * c, 2 * n)
        if rem2 > n:
            q0.append(q + 1)
            fsign.append(-1)
        elif rem2 == n:
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
    for cand in candidates:
        q = GaussGoldenInt(*cand)
        r = alpha - q * beta
        if quartic_norm(r) < n:
            return q, r
    raise AssertionError("norm-Euclidean division failed")


def gcd_ne(alpha, beta):
    if not alpha and not beta:
        raise MalformedInput("gcd_ne(0, 0) is undefined")
    while beta:
        _, r = euclid_divmod_ne(alpha, beta)
        alpha, beta = beta, r
    return canonical_associate_ne(alpha)


def _balance(alpha):
    """The least e at which g*phi^(2e), for g = alpha*complex_conj(alpha)
    in Z[phi], has its plus embedding at least its minus one: sigma_plus
    - sigma_minus of a + b*phi is b*sqrt5, and g is totally positive, so
    b grows with e.  Bisection over a range that the bit length of g
    bounds (the ratio of the embeddings is at most sigma_plus(g)^2)."""
    g = (alpha * alpha.complex_conj()).re
    lo = -(max(abs(g.a), abs(g.b)).bit_length() + 8)
    hi = -lo
    assert (g * phi_power(2 * lo)).b < 0 <= (g * phi_power(2 * hi)).b
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (g * phi_power(2 * mid)).b < 0:
            lo = mid
        else:
            hi = mid
    return hi


def canonical_associate_ne(alpha):
    """Brute force: the least (max |coordinate|, coordinates) over the
    unit multiples alpha * i^a * phi^e with e within 32 of the balance
    point, four times the reach of gaussgolden's window."""
    if not alpha:
        return alpha
    centre = _balance(alpha)
    candidates = []
    for e in range(centre - 32, centre + 33):
        v = alpha * phi_power(e)
        for _ in range(4):
            candidates.append(v)
            v = v * I_UNIT
    return min(candidates,
               key=lambda v: (max(abs(u) for u in v.coords()), v.coords()))
