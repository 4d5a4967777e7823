"""The exact layer's integer kernels against the object arithmetic they
replaced (arith_oracle.py): results must agree exactly."""

import random

import pytest

import arith_oracle as oracle
from arith_oracle import GaussGoldenInt
from icogate import sots
from icogate.gaussgolden import (canonical_associate_ne, euclid_divmod_ne,
                                 gcd_ne, quartic_norm)
from icogate.golden import (ETA, GoldenInt, _hamilton_i, canonical_associate,
                            euclid_divmod, gcd, phi_power)
from icogate.icosian import (RHO, SIGMA, TAU, GateWord, GoldenQuat,
                             canonical, word_to_quat)
from icogate.intfactor import is_probable_prime, trial_divide

RAMIFIED = GoldenInt(2, 1)  # 2 + phi = sqrt5 * phi, the class above 5


def _int(rng):
    """Zero, or a signed integer of up to 3, 20, 64 or 300 bits."""
    if rng.random() < 0.15:
        return 0
    bits = rng.choice((3, 20, 64, 300))
    return rng.randint(-2**bits, 2**bits)


def _golden(rng):
    """A random element: plain coordinates, a unit +-phi^n, the ramified
    class times a unit, or a small element times a large unit."""
    kind = rng.randrange(4)
    if kind == 0:
        return GoldenInt(_int(rng), _int(rng))
    unit = rng.choice((1, -1)) * phi_power(rng.randint(-300, 300))
    if kind == 1:
        return unit
    if kind == 2:
        return RAMIFIED * unit
    return GoldenInt(rng.randint(-9, 9), rng.randint(-9, 9)) * unit


def _quat(rng):
    return GoldenQuat(*(_golden(rng) for _ in range(4)))


def test_quaternion_product_and_norm_match_oracle():
    rng = random.Random(71)
    for _ in range(300):
        p, q, s = _quat(rng), _quat(rng), _golden(rng)
        assert p * q == oracle.quat_mul(p, q)
        assert p.nrd() == oracle.nrd(p)
        assert p * s == s * p == oracle.quat_scale(p, s)
        x0, x1, x2, x3 = p.parts()
        assert p.conjugate() == GoldenQuat(x0, -x1, -x2, -x3)
        assert -p == GoldenQuat(-x0, -x1, -x2, -x3)
        assert p - q == GoldenQuat(*(u - v for u, v in zip(p.parts(),
                                                           q.parts())))


def _assert_trial_divide_matches_oracle(n):
    got, want = trial_divide(n), oracle.trial_divide(n)
    # dict equality ignores order, so the items are compared as lists
    assert (list(got[0].items()), got[1]) == (list(want[0].items()),
                                              want[1]), n


def test_trial_divide_matches_oracle_on_seeded_inputs():
    rng = random.Random(103)
    for _ in range(300):
        if rng.random() < 0.5:
            n = rng.randrange(1, 2**80)
        else:
            # mostly small primes, a few of them repeated, times a
            # random cofactor
            n = 1
            for _ in range(rng.randint(1, 8)):
                p = rng.choice((2, 3, 5, 11, 19, 59, 131, 137, 99991))
                n *= p if n * p < 2**60 else 1
            n *= rng.randrange(1, 2**80 // n)
        _assert_trial_divide_matches_oracle(n)


@pytest.mark.parametrize("n", [
    1, 2, 3, 4, 99991, 99991**2, 99989 * 99991, 2**61 - 1,
    99991 * (2**61 - 1), (10**5 + 3)**2,
    # the walk stops inside the first run of 32 primes (2 ... 131):
    # at 101, which divides nothing, and at 127, which divides n
    2 * 3 * 10007, 2 * 127,
])
def test_trial_divide_matches_oracle_on_planted_inputs(n):
    _assert_trial_divide_matches_oracle(n)


def test_canonical_matches_oracle():
    rng = random.Random(73)
    quats = [RHO, SIGMA, TAU, GoldenQuat(RAMIFIED, 0, 0, 0),
             GoldenQuat(0, 0, 0, -phi_power(-40))]
    for _ in range(150):
        q = _quat(rng)
        if any(q.coords()):
            quats.append(q)
    for _ in range(60):
        # a word's quaternion times a scalar that leaves a content:
        # a power of 2, eta, the ramified class or a unit
        letters = "t".join("".join(rng.choice("rs") for _ in range(3))
                           for _ in range(rng.randint(1, 40)))
        scalar = rng.choice((GoldenInt(2**rng.randint(1, 5)), ETA,
                             RAMIFIED, -phi_power(rng.randint(-200, 200))))
        quats.append(word_to_quat(GateWord.parse(letters)) * scalar)
    for q in quats:
        assert canonical(q) == oracle.canonical(q), q


def test_gcd_and_canonical_associate_match_oracle():
    rng = random.Random(79)
    pairs = [(GoldenInt(0), RAMIFIED),
             (RAMIFIED * phi_power(7), GoldenInt(5)),
             (ETA * phi_power(-90), ETA * RAMIFIED)]
    for _ in range(300):
        x, y = _golden(rng), _golden(rng)
        if rng.random() < 0.3:  # a common factor
            g = _golden(rng)
            x, y = x * g, y * g
        if x or y:
            pairs.append((x, y))
    for x, y in pairs:
        assert gcd(x, y) == oracle.gcd(x, y), (x, y)
        assert canonical_associate(x) == oracle.canonical_associate(x), x
        if y:
            assert euclid_divmod(x, y) == oracle.euclid_divmod(x, y), (x, y)


def test_canonical_associate_ne_matches_oracle():
    rng = random.Random(83)
    units = [GaussGoldenInt.from_golden(phi_power(e))
             for e in (-30, -1, 0, 1, 30)]
    alphas = [GaussGoldenInt(0), GaussGoldenInt.from_golden(RAMIFIED),
              GaussGoldenInt.from_golden(GoldenInt(0), -RAMIFIED)]
    for _ in range(200):
        if rng.random() < 0.5:
            alpha = GaussGoldenInt(*(_int(rng) for _ in range(4)))
        else:
            alpha = GaussGoldenInt.from_golden(_golden(rng), _golden(rng))
        alphas.append(alpha)
        small = GaussGoldenInt(*(rng.randint(-9, 9) for _ in range(4)))
        alphas.append(small * rng.choice(units))
    for alpha in alphas:
        assert (canonical_associate_ne(alpha.coords())
                == oracle.canonical_associate_ne(alpha).coords()), alpha


def _ne(rng):
    """A random element of Z[i, phi] with coordinates up to 2^80."""
    return GaussGoldenInt(*(rng.randint(-2**80, 2**80) for _ in range(4)))


def test_gauss_golden_product_matches_oracle():
    rng = random.Random(89)
    for _ in range(300):
        if rng.random() < 0.5:
            a, b = _ne(rng), _ne(rng)
        else:
            a = GaussGoldenInt.from_golden(_golden(rng), _golden(rng))
            b = GaussGoldenInt.from_golden(_golden(rng), _golden(rng))
        assert _hamilton_i(a.coords(), b.coords()) == (a * b).coords(), (a, b)
        assert quartic_norm(a.coords()) == oracle.quartic_norm(a), a


def _assert_ne_matches_oracle(a, b):
    assert (gcd_ne(a.coords(), b.coords())
            == oracle.gcd_ne(a, b).coords()), (a, b)
    assert (canonical_associate_ne(a.coords())
            == oracle.canonical_associate_ne(a).coords()), a
    if b:
        q, r = oracle.euclid_divmod_ne(a, b)
        assert (euclid_divmod_ne(a.coords(), b.coords())
                == (q.coords(), r.coords())), (a, b)


def test_gcd_and_divmod_ne_match_oracle_on_random_elements():
    rng = random.Random(97)
    pairs = [(GaussGoldenInt(0), GaussGoldenInt(1, 0, 1, 0)),
             (GaussGoldenInt(2, 3, -1, 0), GaussGoldenInt(0))]
    for _ in range(200):
        a, b = _ne(rng), _ne(rng)
        if rng.random() < 0.3:  # a common factor
            g = GaussGoldenInt(*(rng.randint(-2**20, 2**20)
                                 for _ in range(4)))
            a, b = a * g, b * g
        pairs.append((a, b))
    for _ in range(50):
        # a/b = q + e/2 with e in {0, 1}^4: exact halves, where the
        # rounding must go up
        half = GaussGoldenInt(*(rng.randint(-2**20, 2**20)
                                for _ in range(4)))
        e = GaussGoldenInt(*(rng.randint(0, 1) for _ in range(4)))
        q = GaussGoldenInt(*(rng.randint(-2**20, 2**20) for _ in range(4)))
        if half:
            pairs.append((q * half * 2 + half * e, half * 2))
    for a, b in pairs:
        _assert_ne_matches_oracle(a, b)


def test_gcd_ne_matches_oracle_on_sots_probes(monkeypatch):
    # the (u, probe) pairs sots._piece hands to gcd_ne: x + i or
    # x + i*sqrt5 against an irreducible above p, over every good class;
    # N(p phi^2j) = p^2, so decide's answer {p: 2} is passed rather than
    # left to Pollard rho on p^2
    calls = []

    def recording_gcd_ne(alpha, beta):
        calls.append((alpha, beta))
        return gcd_ne(alpha, beta)

    monkeypatch.setattr(sots, "gcd_ne", recording_gcd_ne)
    rng = random.Random(101)
    seen = {cls: 0 for cls in (1, 3, 7, 9, 13, 17)}
    pieces = 0
    while min(seen.values()) < 6:
        p = rng.randrange(3, 2**rng.choice((10, 30, 60)))
        if p % 20 not in seen or not is_probable_prime(p):
            continue
        seen[p % 20] += 1
        pieces += 2 if p % 5 in (1, 4) else 1  # split, or inert
        x = GoldenInt(p) * phi_power(2 * rng.randint(-10, 10))
        s, t = sots.sots_exact(x, primes={p: 2})
        assert s * s + t * t == x
    assert len(calls) == pieces
    for alpha, beta in calls:
        _assert_ne_matches_oracle(GaussGoldenInt(*alpha),
                                  GaussGoldenInt(*beta))
