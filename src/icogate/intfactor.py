"""Rational integer helpers: primality, factoring, square roots mod p.

Nothing here is specific to the golden ring; these are the standard
building blocks (deterministic Miller-Rabin below 2^64, Brent's variant
of Pollard rho, Tonelli-Shanks) tuned for the moderate sizes produced by
norm computations, with an explicit effort budget so callers can treat a
stuck factorization as a skippable candidate instead of a hang.
"""

from __future__ import annotations

import math

from .errors import Abandoned, NonResidue

# Verifying these witnesses suffices for all n < 3.18 * 10^23, which
# covers every 64-bit input and then some (3.3 * 10^24 needs 41 too).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIME_BOUND = 100_000
_small_primes: list[int] | None = None
# trial_divide's runs of consecutive small primes, each with its product
_BLOCK_LENGTH = 32
_prime_blocks: list[tuple[int, tuple[int, ...]]] | None = None

# Iteration budget for a full Pollard rho factorization: the one effort
# limit under which synthesis abandons a candidate.
RHO_ITERATION_BUDGET = 2_000_000


def small_primes() -> list[int]:
    """Primes below 10^5 via a cached sieve."""
    global _small_primes
    if _small_primes is None:
        bound = _SMALL_PRIME_BOUND
        sieve = bytearray([1]) * bound
        sieve[0] = sieve[1] = 0
        for i in range(2, int(bound**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _small_primes = [i for i in range(bound) if sieve[i]]
    return _small_primes


def _blocks() -> list[tuple[int, tuple[int, ...]]]:
    """(product, run) for the small primes in runs of _BLOCK_LENGTH,
    built on first use."""
    global _prime_blocks
    if _prime_blocks is None:
        primes = small_primes()
        runs = (tuple(primes[i:i + _BLOCK_LENGTH])
                for i in range(0, len(primes), _BLOCK_LENGTH))
        _prime_blocks = [(math.prod(run), run) for run in runs]
    return _prime_blocks


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin: exact below 2^64; above it, 40 rounds on the first
    40 primes as bases."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    bases = _MR_WITNESSES if n < (1 << 64) else small_primes()[:40]
    return not any(witness(a) for a in bases)


def _brent_rho(n: int, c: int, budget: int) -> tuple[int, int]:
    """One Brent cycle hunt on y -> y^2 + c from y = 2. Returns
    (factor, iterations_used).

    The factor may equal n on failure of this particular c.
    """
    if n % 2 == 0:
        return 2, 0
    y = 2
    m = 128
    g = r = q = 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            used += 1
            if used >= budget:
                break
    return g, used


def trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({p: e}, m) with n = m * prod p^e, for a positive integer n: the
    primes below 10^5 with their exponents, and the cofactor m, which
    holds each of its primes with its full exponent in n (m is 1 or a
    prime when the division stops at p^2 > m).

    The result is that of dividing by each prime in turn until p^2
    exceeds what is left, dict order included.  But a run of primes
    that one gcd with its product shows prime to n is skipped whole,
    and in the other runs only the primes dividing that gcd are tried:
    a skipped prime changes nothing, and the stop it would have made
    is made at the next prime tried, in its run or the next."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    for product, run in _blocks():
        if run[0] * run[0] > n:
            break
        g = math.gcd(n, product)
        if g == 1:
            continue
        for p in run:
            if g % p:
                continue
            if p * p > n:
                return out, n
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            g //= p
            if g == 1:
                break
    return out, n


def factor_cofactor(primes: dict[int, int], m: int) -> dict[int, int]:
    """primes with the factorization of the cofactor m added, for
    (primes, m) = trial_divide(n): Brent-Pollard rho on m, trying
    c = 1, 2, ... per cofactor.  A composite square is split at its root
    first, since rho needs about sqrt(p) steps to split p^2.  Raises
    Abandoned if the rho budget runs out, so norm-level callers can
    simply skip the candidate that produced an unlucky cofactor."""
    out = dict(primes)
    stack = [m]
    remaining = RHO_ITERATION_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack += (root, root)
            continue
        g, c = m, 0
        while g == m:
            if remaining <= 0:
                raise Abandoned(f"rho budget exhausted on cofactor {m}")
            c += 1
            g, used = _brent_rho(m, c, remaining)
            remaining -= max(used, 1)
            if g in (0, 1):
                g = m
        stack.append(g)
        stack.append(m // g)
    return out


def factor_int(n: int) -> dict[int, int]:
    """Factor a positive integer into {prime: multiplicity}: trial
    division below 10^5, then factor_cofactor (which may raise
    Abandoned)."""
    return factor_cofactor(*trial_divide(n))


def tonelli_shanks(a: int, p: int) -> int:
    """Square root of a modulo a prime p; raises NonResidue when a has
    no root.  The cost is polynomial in log p, so any prime that
    factoring produced is affordable."""
    if p == 2:
        return a % 2
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise NonResidue(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Write p - 1 = q * 2^s with q odd, then walk the 2-Sylow subgroup.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:
                raise NonResidue(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r
