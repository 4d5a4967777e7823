"""The exact lattice solver, the integer-posed ellipsoid entry and the
norm band that general synthesis enumerates with them, each against a
scan that uses no lattice reduction, and the LLL reduction against its
definition over the rationals."""

import itertools
import random
from fractions import Fraction

import pytest
from mpmath import mp

from band_oracle import band_scan
from icogate.general import CentralBand, candidate_norms
from icogate.goldengrid import grid_scale, scaled_ellipsoid_points
from icogate.lattice import _lll, lattice_points
from icogate.unitary import precision_for


def _inverse_and_det(rows):
    """Exact inverse (None when singular) and determinant of an integer
    matrix, by Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None, 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [v - m[r][c] * w for v, w in zip(m[r], m[c])]
    return [row[n:] for row in m], det


def _box(basis, center, radius_sq):
    """Ranges of each y_i over the ellipsoid: x = y B runs over
    center + v with |v|^2 <= radius_sq, and y = x B^-1."""
    inv, _ = _inverse_and_det(basis)
    n = len(basis)
    ranges = []
    for i in range(n):
        col = [inv[j][i] for j in range(n)]
        mid = sum(c * x for c, x in zip(center, col))
        reach = float(sum(c * c for c in col) * radius_sq) ** 0.5
        ranges.append(range(int(mid - reach) - 1, int(mid + reach) + 2))
    return ranges


def brute_points(basis, center, radius_sq):
    """Every y with |sum_i y_i basis[i] - center|^2 <= radius_sq, by a
    scan of a box that holds the ellipsoid."""
    n = len(basis)
    out = []
    for y in itertools.product(*_box(basis, center, radius_sq)):
        x = [sum(y[i] * basis[i][j] for i in range(n)) for j in range(n)]
        if sum((a - c) ** 2 for a, c in zip(x, center)) <= radius_sq:
            out.append(y)
    return sorted(out)


def small_box(basis, radius_sq):
    """Whether the basis is nonsingular and its ellipsoids fit in a
    brute-force box of at most 40,000 points."""
    if not _inverse_and_det(basis)[1]:
        return False
    size = 1
    for r in _box(basis, [0] * len(basis), radius_sq):
        size *= len(r)
    return size <= 40000


def random_problem(rng, n, span, radius_sq):
    while True:
        basis = [[rng.randint(-span, span) for _ in range(n)]
                 for _ in range(n)]
        if small_box(basis, radius_sq):
            center = [rng.randint(-3 * span, 3 * span) for _ in range(n)]
            return basis, center


@pytest.mark.parametrize("n,span,radius_sq", [
    (2, 9, 50), (2, 40, 2000), (3, 6, 60), (4, 5, 40), (4, 12, 300)])
def test_lattice_points_match_brute_force(n, span, radius_sq):
    rng = random.Random(n * 1000 + span)
    total = 0
    for _ in range(12):
        basis, center = random_problem(rng, n, span, radius_sq)
        points, transform = lattice_points(basis, center, radius_sq)
        points = list(points)
        expected = brute_points(basis, center, radius_sq)
        assert sorted(points) == expected
        total += len(expected)
        assert abs(_inverse_and_det(transform)[1]) == 1  # unimodular
    assert total > 12


def test_lattice_points_warm_start_agrees_with_cold_start():
    rng = random.Random(41)
    for n in (2, 4):
        basis, center = random_problem(rng, n, 8, 120)
        _, transform = lattice_points(basis, center, 120)
        for _ in range(5):
            nearby = [[v + rng.randint(-1, 1) for v in row] for row in basis]
            if not small_box(nearby, 120):
                continue
            cold = list(lattice_points(nearby, center, 120)[0])
            warm = list(lattice_points(nearby, center, 120, transform)[0])
            assert sorted(warm) == sorted(cold)
            assert sorted(cold) == brute_points(nearby, center, 120)


def test_lattice_points_yield_lazily():
    # a probe reads one point of a ball holding about 9 * 10^5; the
    # points are one pass over the one reduction, an iterator that
    # resumes where the probe stopped
    points, _ = lattice_points([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               [0, 0, 0], 60 ** 2)
    assert iter(points) is points
    first = next(points)
    assert len(first) == 3
    assert next(points) != first


def _gram_schmidt(rows):
    """The squared lengths B_j of the rows' Gram-Schmidt vectors and
    the coefficients mu[k][j], over the rationals."""
    star, mu, lengths = [], [], []
    for row in rows:
        v, coeffs = [Fraction(x) for x in row], []
        for w, b in zip(star, lengths):
            coeffs.append(sum(x * y for x, y in zip(row, w)) / b)
            v = [x - coeffs[-1] * y for x, y in zip(v, w)]
        star.append(v)
        mu.append(coeffs)
        lengths.append(sum(x * x for x in v))
    return lengths, mu


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lll_reduces_cold_and_warm(n):
    """_lll, from the identity and from the transform a nearby basis
    left (lattice_points's start), returns a unimodular transform U
    with U * basis its rows, rows that are size-reduced,
    2 |lam_kj| <= d_j, and meet Lovasz's condition at delta = 99/100;
    d and lam are the rows' exact Gram-Schmidt data, checked over the
    rationals, and lattice_points returns the same U."""
    rng = random.Random(n * 31)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(30):
        span = 2 ** rng.choice((3, 12, 40))
        basis = [[rng.randint(-span, span) for _ in range(n)]
                 for _ in range(n)]
        if not _inverse_and_det(basis)[1]:
            continue
        nearby = [[v + rng.randint(-span // 8, span // 8) for v in row]
                  for row in basis]
        starts = [identity]
        if _inverse_and_det(nearby)[1]:
            starts.append(lattice_points(nearby, [0] * n, 1)[1])
        for start in starts:
            rows = [[sum(a * b for a, b in zip(row, col))
                     for col in zip(*basis)] for row in start]
            b, h, d, lam = _lll(rows, [list(r) for r in start])
            b, h = b[1:], h[1:]
            assert abs(_inverse_and_det(h)[1]) == 1
            assert b == [[sum(a * c for a, c in zip(row, col))
                          for col in zip(*basis)] for row in h]
            assert lattice_points(basis, [0] * n, 1, start)[1] == h
            lengths, mu = _gram_schmidt(b)
            for k in range(n):
                assert d[k + 1] == d[k] * lengths[k]
                for j in range(k):
                    assert lam[k + 1][j + 1] == d[j + 1] * mu[k][j]
                    assert 2 * abs(lam[k + 1][j + 1]) <= d[j + 1]
                if k:
                    lovasz = Fraction(99, 100) - mu[k][k - 1] ** 2
                    assert lengths[k] >= lovasz * lengths[k - 1]


@pytest.mark.parametrize("basis", [
    [[1, 2], [2, 4]],
    [[1, 0, 2, 0], [0, 3, 1, 1], [1, 3, 3, 1], [5, -2, 0, 7]]])
def test_lattice_points_dependent_basis_raises(basis):
    with pytest.raises(ValueError):
        lattice_points(basis, [0] * len(basis), 10)


@pytest.mark.parametrize("n,bound", [(2, 40), (4, 5)])
def test_scaled_ellipsoid_points_hold_the_exact_ellipsoid(n, bound):
    # forms L = A / den and centre c = C / den with |L z - c|^2 <= 3 about
    # bound wide, posed at grid_scale with every integer off by up to 2
    # (a rounding and a seeded offset), must keep every z of the box
    # |z_j| <= bound in the exact ellipsoid, boundary points included
    rng = random.Random(n * 100 + bound)
    scale = grid_scale(n, bound)
    den = 4 * bound

    def posed(v):
        return (2 * (v << scale) + den) // (2 * den) + rng.randint(-1, 1)

    inside_total = 0
    for _ in range(8):
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if not _inverse_and_det(a)[1]:
            continue
        z0 = [rng.randint(-bound, bound) for _ in range(n)]
        c = [sum(a[i][j] * z0[j] for j in range(n)) + rng.randint(-den, den)
             for i in range(n)]
        basis = [[posed(a[i][j]) for i in range(n)] for j in range(n)]
        points, _ = scaled_ellipsoid_points(basis, [posed(v) for v in c],
                                            scale, 3)
        found = set(points)
        for z in itertools.product(range(-bound, bound + 1), repeat=n):
            dist_sq = sum((sum(a[i][j] * z[j] for j in range(n)) - c[i]) ** 2
                          for i in range(n))
            if dist_sq <= 3 * den * den:
                inside_total += 1
                assert z in found, (a, c, z)
    assert inside_total > 8


@pytest.mark.parametrize("k,abs_alpha,eps", [
    (6, 0.6, 1e-8), (8, 0.31, 1e-12), (10, 0.77, 1e-15), (12, 0.5, 1e-19)])
def test_candidate_norms_thin_bands_match_row_scan(k, abs_alpha, eps):
    # the minus side is 10^4 to 10^12 times wider than the plus side
    with mp.workprec(precision_for(eps)):
        got = list(candidate_norms(CentralBand(abs_alpha, eps), k))
        expected = band_scan(k, abs_alpha, eps)
    assert expected
    assert got == expected
