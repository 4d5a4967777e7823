"""The exact layer's integer kernels against the object arithmetic they
replaced (arith_oracle.py): results must agree exactly."""

import random

import arith_oracle as oracle
from icogate.gaussgolden import GaussGoldenInt, canonical_associate_ne
from icogate.golden import (ETA, GoldenInt, canonical_associate,
                            euclid_divmod, gcd, phi_power)
from icogate.icosian import (RHO, SIGMA, TAU, GateWord, GoldenQuat,
                             canonical, word_to_quat)

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
        assert (canonical_associate_ne(alpha)
                == oracle.canonical_associate_ne(alpha)), alpha
