"""Arithmetic in Z[phi], the ring of integers of Q(sqrt 5).

Elements are written a + b*phi with phi^2 = phi + 1.  The two real
embeddings send phi to (1+sqrt5)/2 and (1-sqrt5)/2; we call them "plus"
and "minus" throughout.  The field norm N(a+b*phi) = a^2 + ab - b^2 can
be negative; the ring is Euclidean with respect to |N|, and its units are
+-phi^n.

The compiler leans on one particular element, eta = 7 + 5*phi of norm 59,
so a few eta-specific helpers (valuation, exact division) live here too.

_hamilton is the one product kernel of the rings above Z[phi]: the
icosians multiply through it as flat 8-int quaternions, and Z[i, phi],
their sub-ring x0 + x1*i of 4-int tuples, through _hamilton_i, the
same kernel without the j and k terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from mpmath import mp, mpf

from .errors import InertPrime, MalformedInput
from .intfactor import factor_int, tonelli_shanks

__all__ = [
    "GoldenInt",
    "GoldenFactorization",
    "PHI",
    "ETA",
    "ONE",
    "ZERO",
    "SQRT5_IRREDUCIBLE",
    "norm",
    "embed",
    "sign_plus",
    "sign_minus",
    "euclid_divmod",
    "gcd",
    "canonical_associate",
    "unit_decompose",
    "split_prime",
    "factor",
    "eta_valuation",
    "eta_power",
    "phi_power",
]

_PHI_FLOAT = (1.0 + 5.0**0.5) / 2.0


class GoldenInt:
    """An element a + b*phi of Z[phi].  a and b must be integers
    (operator.index); anything else raises MalformedInput."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        try:
            self.a = index(a)
            self.b = index(b)
        except TypeError:
            raise MalformedInput(
                f"not an integer coordinate: {a!r}, {b!r}") from None

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*phi"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*phi"

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __add__(self, other) -> GoldenInt:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> GoldenInt:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> GoldenInt:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GoldenInt(other.a - self.a, other.b - self.b)

    def __mul__(self, other) -> GoldenInt:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return GoldenInt(a * c + bd, a * d + b * c + bd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenInt:
        if n < 0:
            raise ValueError("negative powers leave the ring")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> GoldenInt:
        """Galois conjugate: phi -> 1 - phi, so a + b*phi -> (a+b) - b*phi."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b - self.b * self.b


def _coerce(x) -> GoldenInt | None:
    if isinstance(x, GoldenInt):
        return x
    if isinstance(x, int):
        return GoldenInt(x, 0)
    return None


ZERO = GoldenInt(0, 0)
ONE = GoldenInt(1, 0)
PHI = GoldenInt(0, 1)
ETA = GoldenInt(7, 5)  # norm 59
# The representative used for the ramified prime: 5 = (-1 + 2 phi)^2.
SQRT5_IRREDUCIBLE = GoldenInt(-1, 2)


def _hamilton(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The Hamilton product of two flat quaternions over Z[phi], each
    the tuple (a0, b0, a1, b1, a2, b2, a3, b3) of x0 + x1*i + x2*j +
    x3*k with xn = an + bn*phi.

    Split each into integer quaternions, p = A + B*phi and
    q = C + D*phi; with phi^2 = phi + 1, p*q = (AC + BD) +
    ((A + B)(C + D) - AC)*phi, three integer Hamilton products."""
    a0, b0, a1, b1, a2, b2, a3, b3 = p
    c0, d0, c1, d1, c2, d2, c3, d3 = q
    r0, r1, r2, r3 = _int_hamilton(a0, a1, a2, a3, c0, c1, c2, c3)
    s0, s1, s2, s3 = _int_hamilton(b0, b1, b2, b3, d0, d1, d2, d3)
    t0, t1, t2, t3 = _int_hamilton(a0 + b0, a1 + b1, a2 + b2, a3 + b3,
                                   c0 + d0, c1 + d1, c2 + d2, c3 + d3)
    return (r0 + s0, t0 - r0, r1 + s1, t1 - r1,
            r2 + s2, t2 - r2, r3 + s3, t3 - r3)


def _hamilton_i(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """_hamilton on the sub-ring x0 + x1*i, each element the tuple
    (a0, b0, a1, b1): the same split over phi, with the j and k terms,
    which vanish there, left out, so the three integer products are
    products of Gaussian integers."""
    a0, b0, a1, b1 = p
    c0, d0, c1, d1 = q
    r0, r1 = a0 * c0 - a1 * c1, a0 * c1 + a1 * c0
    s0, s1 = b0 * d0 - b1 * d1, b0 * d1 + b1 * d0
    e0, e1, f0, f1 = a0 + b0, a1 + b1, c0 + d0, c1 + d1
    t0, t1 = e0 * f0 - e1 * f1, e0 * f1 + e1 * f0
    return (r0 + s0, t0 - r0, r1 + s1, t1 - r1)


def _int_hamilton(a0, a1, a2, a3, b0, b1, b2, b3):
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def norm(x: GoldenInt) -> int:
    """Field norm a^2 + ab - b^2 (can be negative)."""
    return x.norm()


@lru_cache(maxsize=64)
def _phi_embedded(which: str, precision_bits: int):
    """phi under the requested embedding, memoized per precision (embed
    sits on the hot path of lattice scans)."""
    with mp.workprec(precision_bits):
        root = mp.sqrt(5)
        return (1 + root) / 2 if which == "plus" else (1 - root) / 2


def embed(x: GoldenInt, which: str = "plus", precision_bits: int = 64):
    """Real embedding of x as an mpf at the requested precision.

    which = "plus" sends phi to (1+sqrt5)/2, "minus" to (1-sqrt5)/2.
    """
    if which not in ("plus", "minus"):
        raise MalformedInput(f"unknown embedding {which!r}")
    p = _phi_embedded(which, precision_bits)
    with mp.workprec(precision_bits):
        return mpf(x.a) + mpf(x.b) * p


def sign_plus(x: GoldenInt) -> int:
    """Exact sign of the plus embedding, by integer arithmetic only."""
    return _sign_of(2 * x.a + x.b, x.b)


def sign_minus(x: GoldenInt) -> int:
    """Exact sign of the minus embedding."""
    return _sign_of(2 * x.a + x.b, -x.b)


def _sign_of(u: int, v: int) -> int:
    # sign of u + v*sqrt(5)
    if u >= 0 and v >= 0:
        return 1 if (u or v) else 0
    if u <= 0 and v <= 0:
        return -1
    if u > 0:  # v < 0
        return 1 if u * u > 5 * v * v else -1
    return 1 if 5 * v * v > u * u else -1


def exact_div(x: GoldenInt, y: GoldenInt) -> GoldenInt | None:
    """x / y when y divides x exactly, else None."""
    n = y.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero in Z[phi]")
    t = x * y.conj()
    if t.a % n or t.b % n:
        return None
    return GoldenInt(t.a // n, t.b // n)


def euclid_divmod(x: GoldenInt, y: GoldenInt) -> tuple[GoldenInt, GoldenInt]:
    """Division with remainder: x = q*y + r and |N(r)| < |N(y)|.

    q rounds both coordinates of the exact quotient x/y = x*conj(y)/N(y)
    to nearest, and that always suffices.  r = y*f where f = x/y - q
    has both coordinates in [-1/2, 1/2], and N is multiplicative, so
    |N(r)| = |N(y)| * |N(f)|.  On that square N(a + b*phi) =
    a^2 + ab - b^2 has no interior extremum (it is indefinite), and on
    the edges it ranges over [-5/16, 5/16], reached at (1/2, 1/4) and
    (-1/4, 1/2).  Hence |N(r)| <= 5/16 |N(y)|.
    """
    if not y:
        raise ZeroDivisionError("euclid_divmod by zero")
    qa, qb, ra, rb = _divmod_pair(x.a, x.b, y.a, y.b)
    return GoldenInt(qa, qb), GoldenInt(ra, rb)


def _divmod_pair(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """euclid_divmod on int pairs: (q, r) for x = a + b*phi and the
    nonzero y = c + d*phi, flattened."""
    n = c * c + c * d - d * d
    # x * conj(y) = (a + b phi)((c + d) - d phi)
    qa = _round_div(a * (c + d) - b * d, n)
    qb = _round_div(b * c - a * d, n)
    # r = x - q*y
    qbd = qb * d
    return qa, qb, a - qa * c - qbd, b - qa * d - qb * c - qbd


def _round_div(num: int, den: int) -> int:
    # nearest integer to num/den, half away from zero, exact in integers
    if den < 0:
        num, den = -num, -den
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def gcd(x: GoldenInt, y: GoldenInt) -> GoldenInt:
    """Greatest common divisor, canonicalized (see canonical_associate)."""
    if not x and not y:
        raise MalformedInput("gcd(0, 0) is undefined")
    return canonical_associate(GoldenInt(*_gcd_pair(x.a, x.b, y.a, y.b)))


def _gcd_pair(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """A gcd of a + b*phi and c + d*phi, up to a unit, by Euclid's
    algorithm on int pairs."""
    while c or d:
        _, _, ra, rb = _divmod_pair(a, b, c, d)
        a, b, c, d = c, d, ra, rb
    return a, b


def canonical_associate(x: GoldenInt) -> GoldenInt:
    """The distinguished associate of x among +-phi^n multiples.

    Chosen to minimize max(|a|, |b|), preferring a > 0 and then b >= 0
    on ties.  One exception by convention: the ramified class above 5
    gets the representative -1 + 2*phi, matching how its square is
    usually written.

    The minimum lies in the window of phi^(n0 - 8) .. phi^(n0 + 8)
    around n0 = _balancing_power(x).  Write M = max(|a|, |b|) and L for
    the larger of the two embeddings of a + b*phi.  From
    b = (sigma_plus - sigma_minus)/sqrt5 and
    a = (sigma_plus/phi + sigma_minus*phi)/sqrt5 follows M <= L, and
    from |a + b*phi| and |a - b/phi| being at most phi^2*M follows
    L <= phi^2*M.  Multiplying by phi^n scales the two embeddings by
    phi^n and phi^-n, so at distance d from the real balance point the
    larger embedding is sqrt|N(x)| * phi^d.  The power nearest the
    balance point therefore has M <= sqrt|N(x)| * phi^(1/2), and every
    power at d > 5/2 has M >= sqrt|N(x)| * phi^(d - 2), which is larger.
    So every associate of minimal M lies within 5/2 of the balance
    point; several can share it (1, phi and 1 + phi all have M = 1), and
    the rest of the key picks one of them.  n0 lies within 1/2 of the
    balance point, up to float round-off, so the window holds them all.
    The scan multiplies by phi as (a, b) -> (b, a + b); the key is the
    total order max(|a|, |b|), then a > 0, then b >= 0, then (a, b),
    taken after the sign that makes a > 0, or a = 0 and b > 0.
    """
    if not x:
        return ZERO
    w = x * phi_power(_balancing_power(x) - 8)
    a, b = w.a, w.b
    best = None
    for _ in range(17):
        pa, pb = (-a, -b) if a < 0 or (a == 0 and b < 0) else (a, b)
        key = (max(abs(pa), abs(pb)), pa <= 0, pb < 0, pa, pb)
        if best is None or key < best:
            best = key
        a, b = b, a + b
    if best[3:] == (2, 1):  # the norm-5 ramified class
        return SQRT5_IRREDUCIBLE
    return GoldenInt(best[3], best[4])


def phi_power(n: int) -> GoldenInt:
    """phi^n for any integer n, from Fibonacci numbers:
    phi^n = F(n-1) + F(n)*phi and phi^-n = (-1)^n (F(n+1) - F(n)*phi)."""
    f, g = _fibonacci_pair(abs(n))
    if n >= 0:
        return GoldenInt(g - f, f)
    sign = -1 if n & 1 else 1
    return GoldenInt(sign * g, -sign * f)


def _fibonacci_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling: F(2k) = F(k) (2 F(k+1) - F(k))
    and F(2k+1) = F(k)^2 + F(k+1)^2, one bit of n at a time."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


def _log_abs_plus(x: GoldenInt) -> float:
    """log |sigma_plus(x)| for an x whose plus embedding is the larger.

    Then max(|a|, |b|) <= |a + b*phi| (see canonical_associate), so the
    53 leading bits of a and b fix the value to a relative 2^-50 and
    nothing cancels, however large the integers.
    """
    scale = max(max(abs(x.a), abs(x.b)).bit_length() - 53, 0)
    v = abs((x.a >> scale) + (x.b >> scale) * _PHI_FLOAT)
    return math.log(v) + scale * math.log(2)


def _balancing_power(x: GoldenInt) -> int:
    """The integer nearest the real n at which the two embeddings of
    x*phi^n have equal size, for nonzero x.

    |sigma_plus(x)| >= |sigma_minus(x)| exactly when b(2a + b) >= 0,
    since sigma_plus^2 - sigma_minus^2 = sqrt5 * b(2a + b).  Only the
    larger embedding's log is taken in floats, where it cannot cancel;
    the smaller one's is log|N(x)| minus that, as N(x) is their product.
    """
    if x.b * (2 * x.a + x.b) >= 0:
        lp = _log_abs_plus(x)
        lm = math.log(abs(x.norm())) - lp
    else:
        lm = _log_abs_plus(x.conj())
        lp = math.log(abs(x.norm())) - lm
    # phi^n scales |sigma_plus| by phi^n and |sigma_minus| by phi^-n
    return round((lm - lp) / (2 * math.log(_PHI_FLOAT)))


def unit_decompose(u: GoldenInt) -> tuple[int, int]:
    """Write a unit as sign * phi^n, returning (sign, n).

    phi^n balances at -n, and for a unit the balancing power is exact up
    to float round-off (log|N| = 0), so n is -_balancing_power(u); its
    two neighbours are tried as well.
    """
    if abs(u.norm()) != 1:
        raise MalformedInput(f"{u!r} is not a unit")
    n = -_balancing_power(u)
    for m in (n, n - 1, n + 1):
        cand = phi_power(m)
        if u == cand:
            return (1, m)
        if u == -cand:
            return (-1, m)
    raise AssertionError(f"unit decomposition failed for {u!r}")


def split_prime(p: int) -> GoldenInt:
    """An irreducible factor of p in Z[phi].

    Primes p = +-2 (mod 5) are inert (raises InertPrime); p = 5 ramifies
    as (-1 + 2 phi)^2; the rest split, found by solving x^2 - x - 1 = 0
    mod p (complete the square to (x - 1/2)^2 = 5/4) and taking a gcd
    with x - phi.
    """
    if p == 5:
        return SQRT5_IRREDUCIBLE
    if p % 5 in (2, 3):
        raise InertPrime(p)
    inv2 = pow(2, p - 2, p)
    # complete the square: (x - 1/2)^2 = 1 + 1/4 mod p.  Taking the
    # smaller of the two square roots fixes which prime above p we get.
    root = tonelli_shanks((1 + inv2 * inv2) % p, p)
    root = min(root, p - root)
    x = (inv2 + root) % p
    g = gcd(GoldenInt(p, 0), GoldenInt(x, -1))
    assert abs(g.norm()) == p, "split_prime gcd landed on the wrong divisor"
    return g


@dataclass(frozen=True)
class GoldenFactorization:
    """unit * prod(factors[i] ** multiplicities[i]) = value, exactly."""

    unit: GoldenInt
    factors: tuple[tuple[GoldenInt, int], ...]

    def value(self) -> GoldenInt:
        out = self.unit
        for f, m in self.factors:
            out = out * f**m
        return out


def factor(x: GoldenInt, primes: dict[int, int] | None = None
           ) -> GoldenFactorization:
    """Factor x into canonical irreducibles (plus a unit in front).

    Works through the rational prime factorization of N(x): inert primes
    divide x directly, split primes contribute via split_prime and its
    conjugate.  primes, |N(x)|'s factorization from factor_int or
    sots.decide, is taken as given when a caller has it already; without
    it factor_int may give up with Abandoned.  The AssertionError on a
    leftover non-unit guards that primes is all of |N(x)|'s factorization.
    """
    if not x:
        raise MalformedInput("cannot factor 0")
    n = abs(x.norm())
    out: list[tuple[GoldenInt, int]] = []
    rest = x
    if n > 1:
        for p in sorted(factor_int(n) if primes is None else primes):
            if p == 5:
                pi_list = [SQRT5_IRREDUCIBLE]
            elif p % 5 in (2, 3):
                pi_list = [GoldenInt(p, 0)]
            else:
                pi = split_prime(p)
                # split_prime's gcd is canonical; its conjugate is no associate
                pi_list = [pi, canonical_associate(pi.conj())]
            for pi in pi_list:
                mult = 0
                while True:
                    d = exact_div(rest, pi)
                    if d is None:
                        break
                    rest = d
                    mult += 1
                if mult:
                    out.append((pi, mult))
    if abs(rest.norm()) != 1:
        raise AssertionError(f"leftover non-unit {rest!r} factoring {x!r}")
    out.sort(key=lambda fm: (abs(fm[0].norm()), fm[0].a, fm[0].b))
    return GoldenFactorization(unit=rest, factors=tuple(out))


def eta_valuation(x: GoldenInt) -> int:
    """Largest k with eta^k | x."""
    if not x:
        raise MalformedInput("eta_valuation(0) is undefined")
    k = 0
    while True:
        d = exact_div(x, ETA)
        if d is None:
            return k
        x = d
        k += 1


@lru_cache(maxsize=256, typed=True)
def eta_power(m: int) -> GoldenInt:
    """eta^m as an exact element, memoized: a search asks for the same
    few powers at every shell, pair and band, and a GoldenInt is never
    changed once built."""
    return ETA**m
