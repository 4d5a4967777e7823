"""solve_shell and candidate_norms against mpf filters of their regions.

shell_oracle holds the filters, and the mpf ellipsoid solve_shell used
before it posed its shells in integers.  The searches decide in
integers alone and keep every point within tol of an edge, so each must
return every point the filters keep, add only points within tol of an
edge, and order its points by its integer keys, then by coordinates
(shell_oracle's assert_covers_shell and assert_covers_norms).  The
shells are seeded: eps log-uniform in [1e-10, 0.3], theta uniform,
exactly 0 or within 1e-2 of the quarter turn, |alpha| uniform or
1/sqrt(2), and m (k for the norms) from about the first shell whose
region holds one lattice point to a few shells past it, each at the
working precision synthesis uses for its eps.  The deep shells take
eps = 1e-20 and 1e-30 with m from one before that first shell to one
after it.  The ellipsoid-edge cases put pairs on or near the edge of
solve_shell's ellipsoid: theta = 0, sin(theta) = +-(1 - eps^2), and
theta a few eps from the quarter turn.
"""

import math
import random

import pytest
from mpmath import mp, mpf

from icogate.diagonal import DiagonalTarget, solve_shell
from icogate.general import CentralBand, candidate_norms
from icogate.golden import (ETA, ZERO, embed, eta_power, sign_minus,
                            sign_plus)
from icogate.unitary import precision_for
from shell_oracle import (assert_covers_norms, assert_covers_shell,
                          oracle_norms, oracle_shell)


with mp.workprec(512):
    SQRT_HALF = 1 / mp.sqrt(2)


def diagonal_cases(count, seed):
    rng = random.Random(seed)
    # theta = 0: x0 = eta lies exactly on the slab edge r = h
    cases = [(0.0, 0.3, 2), (0.0, 0.05, 2)]
    while len(cases) < count:
        eps = 10 ** rng.uniform(-10, math.log10(0.3))
        kind = rng.random()
        if kind < 0.15:
            theta = 0.0
        elif kind < 0.3:
            theta = rng.choice((-1, 1)) * (math.pi / 2
                                          - 10 ** rng.uniform(-4, -2))
        else:
            theta = rng.uniform(-1.55, 1.55)
        # the shell's region holds about 59^m eps^3 cos(theta) points
        first = math.log(1 / (eps ** 3 * math.cos(theta))) / math.log(59)
        m = max(0, math.floor(first) + rng.randint(-1, 2))
        cases.append((theta, eps, m))
    return cases


def deep_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        eps = (1e-20, 1e-30)[len(cases) % 2]
        theta = rng.uniform(-1.55, 1.55)
        first = math.log(1 / (eps ** 3 * math.cos(theta))) / math.log(59)
        cases.append((theta, eps, math.floor(first) + rng.randint(-1, 1)))
    return cases


def norm_cases(count, seed):
    rng = random.Random(seed)
    # s = 0 lies exactly on the strict band edge, then just inside it
    cases = [(0, 0.5, 0.5), (0, 0.5, 0.5000001)]
    while len(cases) < count:
        eps = 10 ** rng.uniform(-10, math.log10(0.3))
        # |alpha|^2 = 1/2 to working precision, as for H: s and
        # eta^k - s tie in distance from the band centre
        if rng.random() < 0.2:
            abs_alpha = SQRT_HALF
        else:
            abs_alpha = rng.uniform(0.05, 0.95)
        # the band holds about 59^k eps points
        k = max(0, math.floor(math.log(1 / eps) / math.log(59))
                + rng.randint(0, 2))
        cases.append((k, abs_alpha, eps))
    return cases


def check_shell(theta, eps, m):
    target = DiagonalTarget(theta, eps)
    assert_covers_shell(solve_shell(target, m), target, theta, eps, m,
                        oracle_shell(theta, eps, m))


@pytest.mark.parametrize("theta,eps,m", diagonal_cases(64, 1))
def test_solve_shell_replays_mpf_filters(theta, eps, m):
    with mp.workprec(precision_for(eps)):
        check_shell(theta, eps, m)


@pytest.mark.parametrize("theta,eps,m", [
    (theta, eps, m) for theta, eps, m in diagonal_cases(64, 1)
    if abs(theta) < math.pi / 2 - 2 * math.asin(eps / math.sqrt(2))])
def test_solve_shell_pairs_meet_the_dropped_tests(theta, eps, m):
    # below pi/2 - delta, cos(delta) = 1 - eps^2, the residual's disks
    # and the slab imply the tests solve_shell no longer makes: x1's
    # disks, the upper slab r <= h, the cap x1 sin(theta) <= h (1 - eps^2)
    # and the band |x1 - mu| <= w, whose edges mu +- w = h sin(theta +-
    # delta) bound the cap's x1-range.  A pair kept less than 72 u H
    # below the slab widens that range by less than 2 tol / sin(delta).
    with mp.workprec(precision_for(eps)):
        p = mp.prec
        target = DiagonalTarget(theta, eps)
        got = solve_shell(target, m)
        tol = mp.ldexp(((target.problem(m)[1] >> (2 * p)) + 3) << 6, -p)
        eta_m = eta_power(m)
        with mp.workprec(2 * p):
            e, t = mpf(eps), mpf(theta)
            s, c = mp.sin(t), mp.cos(t)
            h = embed(ETA, "plus", 2 * p) ** (mpf(m) / 2)
            cap = h * (1 - e ** 2)
            mu = cap * s
            sin_delta = e * mp.sqrt(2 - e ** 2)
            w = h * c * sin_delta
            for x0, x1 in got:
                z1 = eta_m - x1 * x1
                assert sign_plus(z1) >= 0 and sign_minus(z1) >= 0
                x1p = embed(x1, "plus", 2 * p)
                r = embed(x0, "plus", 2 * p) * c + x1p * s
                slack = tol if r >= cap else 2 * tol / sin_delta
                margins = [cap - x1p * s, w - abs(x1p - mu), h - r]
                assert min(margins) >= -slack, (x0, x1)


@pytest.mark.parametrize("theta,eps,m", [(0.0, 0.1, 3)] + deep_cases(12, 3))
def test_solve_shell_replays_deep_and_odd_shells(theta, eps, m):
    # m = 32 .. 53: the integer eta powers and their square roots carry
    # their error through the deepest shells searches reach; at
    # theta = 0 with m odd no x0 lies on the slab edge
    with mp.workprec(precision_for(eps)):
        check_shell(theta, eps, m)


@pytest.mark.parametrize("k,abs_alpha,eps", norm_cases(40, 2))
def test_candidate_norms_replays_mpf_filters(k, abs_alpha, eps):
    with mp.workprec(precision_for(eps)):
        got = list(candidate_norms(CentralBand(abs_alpha, eps), k))
        assert_covers_norms(got, k, abs_alpha, eps,
                            oracle_norms(k, abs_alpha, eps))


@pytest.mark.parametrize("eps,m,bits", [
    (0.3, 0, 200), (0.3, 2, 160), (0.05, 2, 160), (0.1, 2, 131),
    (0.01, 4, 131),
])
def test_solve_shell_replays_the_cap_corner(eps, m, bits):
    # sin(theta) = 1 - eps^2 puts (0, eta^{m/2}) on the edges of the
    # slab and the disk at once, where the cap meets the circle; whether
    # the mpf slab keeps it is decided by rounding
    with mp.workprec(bits):
        theta = mp.asin(1 - mpf(eps) ** 2)
        check_shell(theta, eps, m)


@pytest.mark.parametrize("eps,m,bits", [
    (0.01, 4, 100), (0.01, 4, 107), (0.003, 6, 107), (0.003, 6, 114),
])
def test_solve_shell_replays_the_disk_edge(eps, m, bits):
    # a small theta puts (eta^{m/2}, 0) inside the slab with a zero
    # residual: the disk's edge alone, which the mpf test keeps or
    # drops by rounding (here it keeps it at 100 and 114 bits)
    with mp.workprec(bits):
        theta = mpf(eps) / 10
        check_shell(theta, eps, m)


def corner_cases():
    # (side, j, eps, m): theta = side (pi/2 - j eps), 0 when j = 0, and
    # side asin(1 - eps^2) when j is None
    cases = []
    for eps, ms in ((0.05, (2, 3, 4)), (0.01, (4, 5)), (1e-3, (6, 7))):
        cases += [(1, 0, eps, m) for m in ms]
        cases += [(side, j, eps, m) for side in (1, -1)
                  for j in (None, 1, 1.42, 2) for m in ms]
    return cases


@pytest.mark.parametrize("side,j,eps,m", corner_cases())
def test_solve_shell_replays_the_ellipsoid_edge(side, j, eps, m):
    # in solve_shell's normalised plus coordinates r' and t' the
    # ellipsoid's plus disk passes through (1, 0) and (-1, +-1), and a
    # pair there with a zero residual has its minus side on the minus
    # disk's edge too: it lies on the edge of the whole ellipsoid.
    # (eta^{m/2}, 0) is at (1, 0) when theta = 0, and (0, +-eta^{m/2})
    # at (-1, +-1) when sin(theta) = +-(1 - eps^2); a few eps from the
    # quarter turn the cap's corners hold pairs near (-1, +-1)
    with mp.workprec(precision_for(eps)):
        e = mpf(eps)
        if j is None:
            theta = side * mp.asin(1 - e ** 2)
        else:
            theta = side * (mp.pi / 2 - j * e) if j else mpf(0)
        target = DiagonalTarget(theta, eps)
        got = solve_shell(target, m)
        assert_covers_shell(got, target, theta, eps, m,
                            oracle_shell(theta, eps, m))
        if m % 2 == 0 and not j:
            edge = eta_power(m // 2)
            corner = (ZERO, side * edge) if j is None else (edge, ZERO)
            assert corner in got
