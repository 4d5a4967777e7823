"""Tests for the Z[i,phi] layer and the norm-Euclidean verification.

Elements are (w, x, y, z) tuples for w + x*phi + (y + z*phi)*i; the
ring laws are checked on the tuple product golden._hamilton_i, and
divisibility against the object arithmetic of arith_oracle."""

import math
import random
from fractions import Fraction

import pytest

import arith_oracle as oracle
from icogate.errors import MalformedInput
from icogate.gaussgolden import (
    canonical_associate_ne,
    euclid_divmod_ne,
    gcd_ne,
    norm_upper_bound,
    quartic_norm,
    verify_norm_euclidean,
)
from icogate.golden import GoldenInt, _hamilton_i, norm

ZERO_NE = (0, 0, 0, 0)
ONE_NE = (1, 0, 0, 0)
PHI_NE = (0, 1, 0, 0)
I_NE = (0, 0, 1, 0)


def rand_ne(rng, bound=12):
    return tuple(rng.randint(-bound, bound) for _ in range(4))


def add(a, b):
    return tuple(u + v for u, v in zip(a, b))


def neg(a):
    return tuple(-u for u in a)


def complex_conj(a):
    w, x, y, z = a
    return (w, x, -y, -z)


def golden_conj(a):
    # phi -> 1 - phi on both golden parts
    w, x, y, z = a
    return (w + x, -x, y + z, -z)


def exact_div(alpha, beta):
    """alpha / beta when beta divides alpha exactly, else None, by the
    object arithmetic of the oracle."""
    d = oracle.exact_div_ne(oracle.GaussGoldenInt(*alpha),
                            oracle.GaussGoldenInt(*beta))
    return None if d is None else d.coords()


def test_ring_identities():
    assert _hamilton_i(I_NE, I_NE) == neg(ONE_NE)
    assert _hamilton_i(PHI_NE, PHI_NE) == add(PHI_NE, ONE_NE)
    assert (_hamilton_i(I_NE, PHI_NE) == _hamilton_i(PHI_NE, I_NE)
            == (0, 0, 0, 1))
    a = (1, 2, 3, 4)
    assert add(a, neg(a)) == ZERO_NE
    assert _hamilton_i(a, ONE_NE) == _hamilton_i(ONE_NE, a) == a
    assert _hamilton_i(a, ZERO_NE) == ZERO_NE


def test_quartic_norm_examples():
    assert quartic_norm((1, 0, 0, 0)) == 1
    assert quartic_norm((0, 0, 1, 0)) == 1
    assert quartic_norm((1, 0, 1, 0)) == 4


def test_quartic_norm_multiplicative():
    rng = random.Random(41)
    for _ in range(1000):
        a, b = rand_ne(rng), rand_ne(rng)
        assert (quartic_norm(_hamilton_i(a, b))
                == quartic_norm(a) * quartic_norm(b))


def test_quartic_norm_matches_tower_norm():
    # N(alpha) = N_golden(alpha * conj(alpha)), computed independently
    rng = random.Random(43)
    for _ in range(500):
        a = rand_ne(rng)
        t0, t1, t2, t3 = _hamilton_i(a, complex_conj(a))
        assert t2 == t3 == 0
        assert quartic_norm(a) == norm(GoldenInt(t0, t1))


def test_conjugations_are_ring_maps():
    rng = random.Random(47)
    for _ in range(200):
        a, b = rand_ne(rng), rand_ne(rng)
        for conj in (complex_conj, golden_conj):
            assert conj(_hamilton_i(a, b)) == _hamilton_i(conj(a), conj(b))
            assert conj(add(a, b)) == add(conj(a), conj(b))
            assert conj(conj(a)) == a
    # golden_conj sends phi to 1 - phi, the other root of x^2 - x - 1
    assert golden_conj(PHI_NE) == (1, -1, 0, 0)


def test_basis_discriminant_is_400():
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def trace(v):  # sum over the four embeddings
        return 4 * v[0] + 2 * v[1]

    gram = [[Fraction(trace(_hamilton_i(bi, bj))) for bj in basis]
            for bi in basis]
    # determinant by fraction-free elimination
    det = Fraction(1)
    for c in range(4):
        pivot = next(r for r in range(c, 4) if gram[r][c])
        if pivot != c:
            gram[c], gram[pivot] = gram[pivot], gram[c]
            det = -det
        det *= gram[c][c]
        for r in range(c + 1, 4):
            f = gram[r][c] / gram[c][c]
            for k in range(c, 4):
                gram[r][k] -= f * gram[c][k]
    assert det == 400


def test_euclid_divmod_ne_examples():
    a = (3, -1, 2, 7)
    q, r = euclid_divmod_ne(a, ONE_NE)
    assert (q, quartic_norm(r)) == (a, 0)

    two = (2, 0, 0, 0)
    q, r = euclid_divmod_ne((1, 0, 1, 0), two)
    assert (1, 0, 1, 0) == add(_hamilton_i(q, two), r)
    assert quartic_norm(r) < 16

    q, r = euclid_divmod_ne(ZERO_NE, a)
    assert q == r == ZERO_NE

    with pytest.raises(ZeroDivisionError):
        euclid_divmod_ne(a, ZERO_NE)


def test_euclid_divmod_ne_contract():
    rng = random.Random(53)
    for _ in range(1000):
        a, b = rand_ne(rng), rand_ne(rng)
        if not any(b):
            continue
        q, r = euclid_divmod_ne(a, b)
        assert a == add(_hamilton_i(q, b), r)
        assert quartic_norm(r) < quartic_norm(b)


def test_gcd_ne_examples():
    a = (2, 3, -1, 0)
    assert gcd_ne(a, ZERO_NE) == canonical_associate_ne(a)

    one_plus_i = (1, 0, 1, 0)
    g = gcd_ne(one_plus_i, (2, 0, 0, 0))
    assert quartic_norm(g) == 4
    assert exact_div(g, one_plus_i) is not None

    assert quartic_norm(gcd_ne((2, 0, 0, 0), (3, 0, 0, 0))) == 1

    with pytest.raises(MalformedInput):
        gcd_ne(ZERO_NE, ZERO_NE)


def test_gcd_ne_against_brute_force():
    rng = random.Random(59)
    pairs = []
    while len(pairs) < 3:
        g = rand_ne(rng, 1)
        x = _hamilton_i(g, rand_ne(rng, 1))
        y = _hamilton_i(g, rand_ne(rng, 1))
        if (any(x) and any(y) and quartic_norm(x) <= 10**4
                and quartic_norm(y) <= 10**4):
            pairs.append((x, y))
    for x, y in pairs:
        g = gcd_ne(x, y)
        assert exact_div(x, g) is not None
        assert exact_div(y, g) is not None
        qx, qy = quartic_norm(x), quartic_norm(y)
        qg = math.gcd(qx, qy)
        best = 1
        for w in range(-10, 11):
            for xx in range(-10, 11):
                for yy in range(-10, 11):
                    for zz in range(-10, 11):
                        d = (w, xx, yy, zz)
                        nd = quartic_norm(d)
                        if nd == 0 or qg % nd:
                            continue
                        if (exact_div(x, d) is not None
                                and exact_div(y, d) is not None):
                            assert exact_div(g, d) is not None
                            best = max(best, nd)
        assert quartic_norm(g) == best


def test_canonical_associate_ne():
    rng = random.Random(61)
    for _ in range(100):
        a = rand_ne(rng, 9)
        if not any(a):
            continue
        c = canonical_associate_ne(a)
        assert canonical_associate_ne(c) == c
        u = exact_div(a, c)
        assert u is not None and quartic_norm(u) == 1
        assert max(map(abs, c)) <= max(map(abs, a))


def test_canonical_associate_ne_agrees_on_associates():
    alpha = (10, -2, 40, 0)  # 10 - 2*phi + 40i
    # a walk one phi step at a time stops at (-40, 0, 10, -2) from alpha
    # but reaches (-40, -40, 8, 6) from alpha*phi
    assert (canonical_associate_ne(alpha)
            == canonical_associate_ne(_hamilton_i(alpha, PHI_NE)))


def test_norm_upper_bound_examples():
    assert norm_upper_bound((0, 0, 0, 0), 0) == 0
    assert norm_upper_bound((0.5, 0, 0, 0), 0) == pytest.approx(0.0625)
    rng = random.Random(67)
    for _ in range(50):
        a = rand_ne(rng, 5)
        assert norm_upper_bound(a, 0) == quartic_norm(a)


def test_norm_upper_bound_dominates_perturbed_norm():
    rng = random.Random(71)
    for _ in range(200):
        a = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6))
                  for _ in range(4))
        r = Fraction(1, rng.randint(2, 12))
        bound = norm_upper_bound(a, r)
        d = tuple(Fraction(rng.randint(-100, 100), 100) * r for _ in range(4))
        perturbed = tuple(ai + di for ai, di in zip(a, d))
        assert norm_upper_bound(perturbed, 0) <= bound


def test_verify_norm_euclidean_proof_grid():
    assert verify_norm_euclidean(6, Fraction(1, 12)) == []


def test_verify_norm_euclidean_coarse_grid_fails():
    violations = verify_norm_euclidean(1, Fraction(1, 2))
    assert violations  # 40 r^4 = 2.5 alone exceeds 1
    for p in violations:
        assert all(abs(c) <= Fraction(1, 2) for c in p)


def test_verify_norm_euclidean_zero_radius():
    violations = verify_norm_euclidean(6, 0)
    corner = (Fraction(1, 2),) * 4
    # corner norm is 1/4 < 1, so the corner must pass
    assert norm_upper_bound(corner, 0) == Fraction(1, 4)
    assert corner not in violations
