"""Tests for the PU(2) numerics layer."""

import random

import pytest
from mpmath import mp, mpc, mpf

from icogate.errors import HypothesisViolation, MalformedInput
from icogate.golden import _int_hamilton
from icogate.unitary import (
    ProjUnitary,
    distance,
    named_gate,
    parse_complex,
    precision_for,
    quaternion_distance,
    to_alpha_beta,
    to_quaternion,
    tune_diagonals,
    tuning_constant,
    u_of_alpha_beta,
    u_of_theta,
)


def rand_su2(rng, bits=96):
    with mp.workprec(bits):
        t = mpf(rng.random()) * mp.pi / 2
        p1 = mpf(rng.random()) * 2 * mp.pi - mp.pi
        p2 = mpf(rng.random()) * 2 * mp.pi - mp.pi
        alpha = mp.cos(t) * mp.expj(p1)
        beta = mp.sin(t) * mp.expj(p2)
    return u_of_alpha_beta(alpha, beta, bits)


def test_distance_examples():
    ident = u_of_theta(0)
    assert distance(ident, ident) == 0
    assert float(distance(ident, u_of_theta(mp.pi / 2))) == pytest.approx(1.0)
    # projectively equal pair at distance ~0
    a = u_of_theta(0.3)
    b = ProjUnitary([[-v for v in row] for row in a.entries])
    assert float(distance(a, b)) < 1e-15


def test_distance_ignores_scalar():
    g = named_gate("H")
    scaled = ProjUnitary([[3j * v for v in row] for row in g.entries])
    assert float(distance(g, scaled)) < 1e-15


def test_distance_rejects_nan_and_non_unitary():
    ident = u_of_theta(0)
    with pytest.raises(MalformedInput):
        distance(ident, ProjUnitary([[mpf("nan"), 0], [0, 1]]))
    # |tr| = 3 > 2 sqrt|det| = 2.83: far beyond round-off, not clamped
    with pytest.raises(MalformedInput):
        distance(ident, ProjUnitary([[1, 0], [0, 2]]))
    # entries that are not numbers are malformed, not a TypeError
    for rows in ([1, 2], [[1, 2], [3, None]], [[1, 2], [3, "x"]]):
        with pytest.raises(MalformedInput):
            ProjUnitary(rows)


def test_metric_axioms():
    rng = random.Random(5)
    mats = [rand_su2(rng) for _ in range(12)]
    tol = mpf(2) ** (-96 + 16)
    for a in mats:
        assert distance(a, a) < tol
    for a, b in zip(mats, mats[1:]):
        assert abs(distance(a, b) - distance(b, a)) < tol
    for a, b, c in zip(mats, mats[1:], mats[2:]):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + tol


def test_bi_invariance():
    rng = random.Random(9)
    for _ in range(25):
        a, b, u = (rand_su2(rng) for _ in range(3))
        base = distance(a, b)
        tol = mpf(2) ** (-96 + 16)
        assert abs(distance(u @ a, u @ b) - base) < tol
        assert abs(distance(a @ u, b @ u) - base) < tol


def test_u_of_theta_examples():
    assert float(distance(u_of_theta(0), named_gate("Z") @ named_gate("Z"))) \
        < 1e-15
    # period pi projectively
    with mp.workprec(128):
        shifted = mpf("0.7") + mp.pi
    assert float(distance(u_of_theta(0.7), u_of_theta(shifted))) < 1e-15
    with mp.workprec(128):
        eighth = mp.pi / 8
    assert float(distance(u_of_theta(eighth), named_gate("T"))) < 1e-15


def test_to_alpha_beta_convention():
    rng = random.Random(13)
    for _ in range(50):
        g = rand_su2(rng)
        alpha, beta = to_alpha_beta(g)
        with mp.workprec(96):
            # unit det representative
            assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) < mpf(2) ** -80
            anchor = alpha if abs(alpha) >= abs(beta) else beta
            assert -mp.pi / 2 < mp.arg(anchor) <= mp.pi / 2
        # round trip is projectively the same matrix
        assert float(distance(g, u_of_alpha_beta(alpha, beta, 96))) < 1e-25


def test_quaternion_distance_matches_matrix_distance():
    # a scaled real quaternion q against a unit target, and the matrix
    # distance between their 2x2 images as the reference; includes q
    # near the target and near its negative
    rng = random.Random(17)
    bits = 160
    for i in range(60):
        g = rand_su2(rng, bits)
        with mp.workprec(bits):
            v = to_quaternion(g)
            if i % 3 == 0:
                q = [x + mpf(rng.uniform(-1, 1)) * 1e-20 for x in v]
            else:
                q = [mpf(rng.uniform(-1, 1)) for _ in range(4)]
            q = [x * (-1 if i % 2 else 1) * mpf(rng.uniform(0.1, 1e6))
                 for x in q]
            rows = ((mpc(q[0], q[1]), mpc(q[2], q[3])),
                    (mpc(-q[2], q[3]), mpc(q[0], -q[1])))
            d = quaternion_distance(v, q)
            ref = distance(g, ProjUnitary(rows, bits))
            assert abs(d ** 2 - ref ** 2) < mpf(2) ** (8 - bits)
    with pytest.raises(MalformedInput):
        quaternion_distance(v, [0, 0, 0, 0])
    # a NaN radicand is not round-off and must not read as distance 0
    for g, q in (((mp.nan, 0, 0, 0), (1, 0, 0, 0)),
                 ((1, 0, 0, 0), (mp.inf, 0, 0, 0))):
        with pytest.raises(MalformedInput):
            quaternion_distance(g, q)


def test_to_alpha_beta_antidiagonal():
    alpha, beta = to_alpha_beta(named_gate("X"))
    assert abs(alpha) < 1e-30
    assert abs(beta) > 0.9


def test_to_quaternion_turns_products_into_hamilton_products():
    # the map behind the rho twist: the unit quaternion of g @ h is, up
    # to sign, the Hamilton product of those of g and h
    rng = random.Random(29)
    bits = 160
    for _ in range(20):
        g, h = rand_su2(rng, bits), rand_su2(rng, bits)
        with mp.workprec(bits):
            product = _int_hamilton(*to_quaternion(g), *to_quaternion(h))
            want = to_quaternion(g @ h)
            sign = 1 if mp.fdot(product, want) > 0 else -1
            assert max(abs(x - sign * y)
                       for x, y in zip(product, want)) < mpf(2) ** -140


def test_tune_diagonals_identical_pair():
    g = u_of_alpha_beta(0.6, parse_complex("0.8i"))
    t = tune_diagonals(to_quaternion(g), to_quaternion(g))
    assert abs(t.theta1) < 1e-25 and abs(t.theta2) < 1e-25


def test_tune_diagonals_reads_gamma2_at_any_scale():
    # synthesis passes the central quaternion unnormalised, at norm
    # eta^(k/2); the angles and the hypotheses must not see the scale
    rng = random.Random(31)
    checked = 0
    with mp.workprec(96):
        while checked < 20:
            g1 = to_quaternion(rand_su2(rng))
            g2 = to_quaternion(rand_su2(rng))
            scale = mpf(rng.uniform(1e-3, 1e6))
            scaled = [scale * x for x in g2]
            try:
                want = tune_diagonals(g1, g2)
            except HypothesisViolation:
                with pytest.raises(HypothesisViolation):
                    tune_diagonals(g1, scaled)
                continue
            got = tune_diagonals(g1, scaled)
            assert abs(got.theta1 - want.theta1) < mpf(2) ** -80
            assert abs(got.theta2 - want.theta2) < mpf(2) ** -80
            checked += 1


def test_tune_diagonals_recovers_phases():
    with mp.workprec(96):
        a = mpf("0.62") * mp.expj(mpf("0.35"))
        b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf("-1.1"))
        g1 = u_of_alpha_beta(a, b, 96)
        g2 = u_of_alpha_beta(a * mp.expj(mpf("0.4")),
                             b * mp.expj(mpf("-0.9")), 96)
        t = tune_diagonals(to_quaternion(g1), to_quaternion(g2))
        tuned = u_of_theta(t.theta1, 96) @ g2 @ u_of_theta(t.theta2, 96)
        assert float(distance(g1, tuned)) < 1e-24


def test_tune_diagonals_hypothesis_violations():
    nearly_diag = u_of_alpha_beta(mpf("0.9999"),
                                  mp.sqrt(1 - mpf("0.9999") ** 2))
    with pytest.raises(HypothesisViolation):
        tune_diagonals(to_quaternion(nearly_diag),
                       to_quaternion(nearly_diag))
    g1 = u_of_alpha_beta(0.1, parse_complex("0.99498743710662i"))
    g2 = u_of_alpha_beta(0.8, 0.6)
    with pytest.raises(HypothesisViolation):
        tune_diagonals(to_quaternion(g1), to_quaternion(g2))


def test_tuning_bound_on_random_pairs():
    """Measured tuned distance stays below C * ||a1|-|a2||."""
    rng = random.Random(21)
    c = tuning_constant()
    checked = 0
    while checked < 1000:
        with mp.workprec(96):
            r1 = mpf(rng.uniform(0.0, 0.99)) ** 0.5
            r2 = r1 + mpf(rng.uniform(-0.4, 0.4))
            if not 0 <= r2 < 1:
                continue
            if min(r1, r2) ** 2 >= 1 - mpf("0.05") ** 2:
                continue
            e = abs(r1 - r2)
            if e < 1e-6:
                continue
            g1 = u_of_alpha_beta(
                r1 * mp.expj(rng.uniform(-3, 3)),
                mp.sqrt(1 - r1**2) * mp.expj(rng.uniform(-3, 3)), 96)
            g2 = u_of_alpha_beta(
                r2 * mp.expj(rng.uniform(-3, 3)),
                mp.sqrt(1 - r2**2) * mp.expj(rng.uniform(-3, 3)), 96)
            t = tune_diagonals(to_quaternion(g1), to_quaternion(g2))
            tuned = u_of_theta(t.theta1, 96) @ g2 @ u_of_theta(t.theta2, 96)
            assert distance(g1, tuned) < c * e
        checked += 1


def test_precision_for():
    assert precision_for(1e-10) >= 3 * 33 + 96
    assert precision_for(0.5) >= 96
    for eps in (0, None, "1e-3"):
        with pytest.raises(MalformedInput):
            precision_for(eps)


def test_named_gates():
    h = named_gate("H")
    assert float(distance(h @ h, u_of_theta(0))) < 1e-15
    t = named_gate("T")
    t8 = t
    for _ in range(7):
        t8 = t8 @ t
    assert float(distance(t8, u_of_theta(0))) < 1e-15  # T^8 ~ identity
    s = named_gate("S")
    assert float(distance(s @ s, named_gate("Z"))) < 1e-15
    x, y, z = (named_gate(n) for n in "XYZ")
    assert float(distance(x @ y, z)) < 1e-15  # up to phase
    for args in (("Q",), ("H", "x"), (None,)):
        with pytest.raises(MalformedInput):
            named_gate(*args)


def test_parse_complex():
    with mp.workprec(64):
        assert parse_complex("1") == 1
        assert parse_complex("-0.5") == mpf("-0.5")
        assert parse_complex("1/2") == mpf("0.5")
        assert parse_complex("i") == mpc(0, 1)
        assert parse_complex("-i") == mpc(0, -1)
        assert parse_complex("2i") == mpc(0, 2)
        assert parse_complex("0.5+0.25i") == mpc(0.5, 0.25)
        assert parse_complex("1/2-1/4i") == mpc(0.5, -0.25)
        assert parse_complex("1e-3", 64) == mpf("0.001")
    for bad in ("", "one", "1+2", "i i", "1/0.5"):
        with pytest.raises(MalformedInput):
            parse_complex(bad)
