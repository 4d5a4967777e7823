"""Writing elements of Z[phi] as sums of two squares.

Deciding needs only integers: x = a + b*phi != 0 is a sum of two squares
iff it is totally nonnegative and every rational prime p = 11, 19
(mod 20) has an even exponent in N(x) and an even exponent in gcd(a, b).
Such a p splits as pi*pi' with residue field F_p, where -1 is not a
square, so pi and pi' each need even multiplicity; v_pi + v_pi' =
v_p(N(x)) and min(v_pi, v_pi') = v_p(gcd(a, b)), so both are even
exactly when those two exponents are.  Every other irreducible is a sum
of two squares up to a unit, and the leftover unit of a totally
nonnegative x is totally positive, i.e. phi^(2n), a square.  decide
applies this test; the certificate below is built only for x that pass.

Part of the test needs no Pollard rho.  If x = s^2 + t^2, then x is
the norm of s + ti from Q(i, sqrt5) to Q(sqrt5), so N(x) is its norm
to Q, taken through Q(i) instead: (s + ti)(s' + t'i) = A + Bi with
A = ss' - tt' and B = st' + s't in Z (' the Galois conjugate), and
N(x) = A^2 + B^2.  So every prime p = 3 (mod 4) has an even exponent
in N(x), and the odd part of N(x) is 1 (mod 4).  screen rejects x with
UnsupportedResidue (i) when the odd part of N(x) is 3 (mod 4), before
any division, and (ii) when a prime p = 3 (mod 4) below 10^5 has an
odd exponent, after trial division and before decide runs rho on the
cofactor.  The verdict is the one decide gives: an inert prime (3, 7
mod 20) has an even exponent, its norm being p^2, so the odd exponent
belongs to some p = 11 or 19 (mod 20).  A cofactor 3 (mod 4) is caught
by (i) or (ii).

The certificate goes through Z[i,phi]: if s^2 + t^2 = x then (s + ti)
is a factor of x there, so candidates come from GCDs of x with elements
of the form r + i*c.  Per irreducible u the recipe depends on the
residue class of its associated prime p modulo 20.  Per-irreducible
representations compose by the two-squares product identity, and the
leftover unit, phi^(2n) for an x that passed decide, is absorbed as the
square of phi^n.
"""

from __future__ import annotations

import math

from .errors import NotRepresentable, UnsupportedResidue
from .gaussgolden import gcd_ne
from .golden import (
    ONE,
    PHI,
    ZERO,
    GoldenInt,
    _totally_nonnegative,
    exact_div,
    factor,
    norm,
    phi_power,
    unit_decompose,
)
from .intfactor import factor_cofactor, tonelli_shanks, trial_divide

__all__ = ["screen", "decide", "sots_exact"]

# residue classes mod 20 of the split primes whose irreducibles are
# not sums of two squares
_BAD_RESIDUES = (11, 19)


def _even_root(p: int, a: int) -> int:
    # even square root of a mod p (p odd, so one of x, p-x is even)
    x = tonelli_shanks(a % p, p)
    return x if x % 2 == 0 else p - x


def _even_nonquintic_root(p: int) -> int:
    """A lift x of a square root of -5 mod p with x even and 5 not
    dividing x.  Adding multiples of p preserves the root mod p while
    cycling parity and the residue mod 5, so a suitable lift always
    exists among x0 + j*p for small j."""
    x0 = tonelli_shanks(-5 % p, p)
    for j in range(10):
        x = x0 + j * p
        if x % 2 == 0 and x % 5:
            return x
        x = (p - x0) + j * p
        if x % 2 == 0 and x % 5:
            return x
    raise AssertionError("no valid lift of sqrt(-5); arithmetic bug")


def _piece(u: GoldenInt, p: int) -> tuple[GoldenInt, GoldenInt]:
    """(s, t) with s^2 + t^2 an associate of u, whose associated prime
    is p (the exact value is whatever the GCD produces; callers
    reconcile units globally)."""
    if p == 2:
        return (ONE, ONE)
    if p == 5:
        return (PHI, ONE)  # phi^2 + 1 = 2 + phi = sqrt5 * phi
    cls = p % 20
    if cls in _BAD_RESIDUES:
        raise UnsupportedResidue(
            f"associated prime {p} = {cls} (mod 20) has no decomposition")
    if p % 4 == 1:
        probe = (_even_root(p, -1), 0, 1, 0)  # x + i
    else:  # cls in (3, 7)
        probe = (_even_nonquintic_root(p), 0, -1, 2)  # x + i*(-1 + 2*phi)
    w, x, y, z = gcd_ne((u.a, u.b, 0, 0), probe)
    s, t = GoldenInt(w, x), GoldenInt(y, z)
    v = s * s + t * t
    q = exact_div(u, v) if v else None
    if q is None or abs(norm(q)) != 1:
        raise AssertionError(f"two-squares gcd failed for {u!r} (p={p})")
    return (s, t)


def screen(x: GoldenInt) -> tuple[dict[int, int], int]:
    """trial_divide(N(x)) for a totally nonnegative x that passes rules
    (i) and (ii) of the module docstring; NotRepresentable otherwise,
    with UnsupportedResidue for the rules.  Rule (i) runs before any
    division, and no Pollard rho runs."""
    if not x:
        return {}, 1
    if not _totally_nonnegative(x.a, x.b):
        raise NotRepresentable(f"{x!r} is not totally nonnegative")
    n = norm(x)  # positive: x is totally positive
    if n // (n & -n) % 4 == 3:
        raise UnsupportedResidue(f"{x!r}: the odd part of N(x) = {n} is "
                                 "3 (mod 4)")
    primes, m = trial_divide(n)
    for p, e in primes.items():
        if e % 2 and p % 4 == 3:
            raise UnsupportedResidue(
                f"{x!r}: {p} = 3 (mod 4) has odd exponent {e} in N(x)")
    return primes, m


def decide(x: GoldenInt, screened: tuple[dict[int, int], int] | None = None
           ) -> dict[int, int]:
    """The factorization {p: e} of |N(x)| when x is a sum of two squares
    (the module docstring's test); NotRepresentable otherwise, with
    UnsupportedResidue for the residue obstruction.  Abandoned
    propagates from factoring the norm.  screened, when given, is
    screen(x) from a caller that has already screened x."""
    primes = factor_cofactor(*(screen(x) if screened is None else screened))
    content = math.gcd(x.a, x.b)
    for p, e in primes.items():
        if p % 20 not in _BAD_RESIDUES:
            continue
        v = 0
        while content % p == 0:
            content //= p
            v += 1
        if e % 2 or v % 2:
            raise UnsupportedResidue(
                f"{x!r}: an irreducible over {p} = {p % 20} (mod 20) "
                "has odd multiplicity")
    return primes


def _represent(x: GoldenInt, primes: dict[int, int]
               ) -> tuple[GoldenInt, GoldenInt]:
    """Compose the pieces of x's odd-multiplicity factors by
    (s,t)*(s',t') = (ss'-tt', st'+ts') and absorb the leftover unit;
    primes is |N(x)|'s factorization, which x has passed."""
    square = ONE
    s_acc, t_acc = ONE, ZERO
    for u, mult in factor(x, primes).factors:
        square = square * u ** (mult // 2)
        if mult % 2 == 0:
            continue
        n = abs(norm(u))  # p, or p^2 for an inert p
        s, t = _piece(u, n if n in primes else math.isqrt(n))
        s_acc, t_acc = s_acc * s - t_acc * t, s_acc * t + t_acc * s
    s, t = s_acc * square, t_acc * square
    ratio = exact_div(x, s * s + t * t)
    if ratio is None or abs(norm(ratio)) != 1:
        raise AssertionError("two-squares value is not an associate")
    sign, m = unit_decompose(ratio)
    if sign < 0 or m % 2:
        raise AssertionError(f"{x!r} passed decide with leftover unit "
                             f"{ratio!r}")
    shift = phi_power(m // 2)
    return (s * shift, t * shift)


def sots_exact(x: GoldenInt, *, primes: dict[int, int] | None = None
               ) -> tuple[GoldenInt, GoldenInt]:
    """(s, t) with s^2 + t^2 = x exactly, or NotRepresentable.

    primes, when given, is decide(x) from a caller that has already
    decided x, so its norm is not factored twice.
    """
    if primes is None:
        primes = decide(x)
    if not x:
        return (ZERO, ZERO)
    return _represent(x, primes)
