"""Reference filters for replaying the grid searches, and the checks
that hold the searches to them.

diagonal.solve_shell and general.candidate_norms decide and order their
points in integers alone, keeping every point within a margin tol of
an edge.  The functions here decide the same regions in mpf: every
point that ellipsoid_points returns is embedded at working precision,
tested with mpf comparisons and sorted by mpf keys.  oracle_norms is
the filter as it stood before the integer decisions (commit 522b15f),
verbatim.  oracle_shell keeps a pair of shell m when its residual
eta^m - x0^2 - x1^2 is totally nonnegative, by exact signs, and its
overlap x0 cos(theta) + x1 sin(theta) is at least h (1 - eps^2): the
pair is within eps of u(theta).  ellipsoid_points is goldengrid's mpf
entry as it stood at commit ac28085, verbatim: it rounds mpf forms to
an integer lattice problem at its own scale.  Each side's ellipsoid
holds every point the filters keep.

assert_covers_shell and assert_covers_norms check a search's output
against such a reference: it holds every point the reference keeps,
each point it adds lies within tol of an edge of the region, and its
order is the sort by the search's integer keys, then by coordinates.
The edges, and the true values the integer keys stand for, are
recomputed in mpf at twice the working precision.
"""

from mpmath import mp, mpf

from icogate.general import CentralBand
from icogate.golden import (ETA, PHI, GoldenInt, embed, eta_power,
                            sign_minus, sign_plus)
from icogate.goldengrid import fixed_point, phi_fixed
from icogate.lattice import lattice_points


def ellipsoid_points(forms, center, radius, bound, start=None):
    """Every z in Z^n with |L z - c| <= radius and max_j |z_j| <= bound,
    and possibly some points outside.

    forms holds the n rows of L (row i gives the coefficients of the
    linear form L_i on z), center the n reals c_i; all are taken as the
    exact values of the mpf numbers given.  L and c are scaled by
    S = 2^e and rounded to the integer basis and centre of a lattice
    problem (basis[j] is the image of the j-th unit vector of Z^n).
    For |z_j| <= bound each component of the rounded S (L z - c) is off
    by at most (n bound + 1) / 2: a half for each coefficient times
    |z_j|, and a half for the centre.  So the scaled point moves by at
    most sqrt(n) (n bound + 1) / 2, and e is picked so that this is
    below S / 2^16.  The integer radius is S radius + S / 256, which
    absorbs that drift; the rest of the margin covers a caller whose L,
    c and radius carry working-precision rounding.

    start is passed on to lattice_points as a warm start.  Returns
    (points, transform) as lattice_points does.
    """
    n = len(forms)
    e = (n * (n * (int(bound) + 1) + 1)).bit_length() + 16
    basis = [[fixed_point(row[j], e) for row in forms] for j in range(n)]
    scaled_center = [fixed_point(c, e) for c in center]
    r = int(mp.ceil(mp.ldexp(radius, e))) + (1 << (e - 8))
    points, transform = lattice_points(basis, scaled_center, r * r, start)
    return list(points), transform


def _eta_pow(m_half_exp, which):
    base = embed(ETA, which, mp.prec)
    return mp.power(base, mpf(m_half_exp) / 2)


def _shell(theta, eps, m, prec):
    with mp.workprec(prec):
        theta, eps = mpf(theta), mpf(eps)
        hp = _eta_pow(m, "plus")
        hm = _eta_pow(m, "minus")
        s, c = mp.sin(theta), mp.cos(theta)
        cap = hp * (1 - eps ** 2)
    return hp, hm, s, c, cap


def _shell_forms(theta, eps, m, prec):
    """The search ellipsoid of one shell as linear forms on Z^4.

    On the plus side (sigma_+ x0, sigma_+ x1) lies in the eps-cap, whose
    rotated coordinates r = x0 cos(theta) + x1 sin(theta) and
    t = x1 cos(theta) - x0 sin(theta) satisfy r in [h (1 - eps^2), h]
    and |t| <= h eps sqrt(2 - eps^2); on the minus side
    (sigma_- x0, sigma_- x1) lies in the disk of radius
    (sigma_- eta)^{m/2}.  Normalising the rectangle and the disk to
    unit size, their product sits inside |L z - c| <= sqrt(3) for four
    linear forms L_i of z = (a0, b0, a1, b1), and a qualifying z has
    every |z_j| <= h.

    Returns (forms, center) for ellipsoid_points.
    """
    hp, hm, s, c, cap = _shell(theta, eps, m, prec)
    with mp.workprec(prec):
        eps = mpf(eps)
        half_r = (hp - cap) / 2
        t_max = hp * eps * mp.sqrt(2 - eps ** 2)
        php = embed(PHI, "plus", prec)
        phm = embed(PHI, "minus", prec)
        # L_i as coefficients on z: r and t over the rectangle's
        # half-sides, then sigma_- x0 and sigma_- x1 over the disk radius
        r0, r1 = c / half_r, s / half_r
        t0, t1 = -s / t_max, c / t_max
        g = 1 / hm
        forms = [(r0, r0 * php, r1, r1 * php),
                 (t0, t0 * php, t1, t1 * php),
                 (g, g * phm, 0, 0),
                 (0, 0, g, g * phm)]
        center = ((hp + cap) / 2 / half_r, 0, 0, 0)
    return forms, center


def oracle_shell(theta, eps, m):
    """solve_shell(DiagonalTarget(theta, eps), m) by exact disks and an
    mpf slab and keys."""
    hp, hm, s, c, cap = _shell(theta, eps, m, mp.prec)
    forms, center = _shell_forms(theta, eps, m, mp.prec)
    points, _ = ellipsoid_points(forms, center, mp.sqrt(3), hp)
    eta_m = eta_power(m)
    mu = cap * s
    out = []
    for a0, b0, a1, b1 in points:
        x0, x1 = GoldenInt(a0, b0), GoldenInt(a1, b1)
        y = eta_m - x0 * x0 - x1 * x1
        if sign_plus(y) < 0 or sign_minus(y) < 0:
            continue
        x1p = embed(x1, "plus", mp.prec)
        overlap = embed(x0, "plus", mp.prec) * c + x1p * s
        if overlap >= cap:
            out.append(((abs(x1p - mu), (a1, b1), -overlap, (a0, b0)),
                        (x0, x1)))
    out.sort(key=lambda item: item[0])
    return [pair for _, pair in out]


def oracle_norms(k, abs_alpha, epsilon):
    """list(candidate_norms(CentralBand(abs_alpha, epsilon), k)) by mpf
    filters and keys."""
    a = mpf(abs_alpha)
    eps = mpf(epsilon)
    ek = eta_power(k)
    hp = embed(ek, "plus", mp.prec)
    hm = embed(ek, "minus", mp.prec)
    center = a * a * hp
    half = eps * a * hp
    lo = max(center - half, mpf(0))
    hi = min(hp, center + half)
    w_plus, w_minus = (hi - lo) / 2, hm / 2
    php = embed(PHI, "plus", mp.prec)
    phm = embed(PHI, "minus", mp.prec)
    forms = [(1 / w_plus, php / w_plus), (1 / w_minus, phm / w_minus)]
    points, _ = ellipsoid_points(forms, ((lo + hi) / 2 / w_plus, 1),
                                 mp.sqrt(2), hp + hm)
    found = []
    for c, d in points:
        s = GoldenInt(c, d)
        if sign_plus(s) < 0 or sign_minus(s) < 0:
            continue
        r = ek - s
        if sign_plus(r) < 0 or sign_minus(r) < 0:
            continue
        dist = abs(embed(s, "plus", mp.prec) - center)
        if dist < half:
            found.append((dist, (c, d), s))
    found.sort(key=lambda item: item[:2])
    return [s for _, _, s in found]


def _plus_p(x, p):
    """x's plus embedding at scale 2^p, as the searches take it."""
    return (x.a << p) + x.b * phi_fixed(p)


def assert_covers_shell(got, target, theta, eps, m, want):
    """got, solve_shell(target, m), holds every pair of want, which
    oracle_shell or a brute force gives; every pair it adds has a
    totally nonnegative residual and lies within tol = 64 u H of the
    slab's edge, or has a zero residual; and it is sorted by the
    integer band key at scale 2^4p, the pair's coordinates of x1, the
    integer overlap at 2^2p (decreasing) and those of x0.  Each integer
    key is within tol of its true value."""
    p = mp.prec
    assert len(set(got)) == len(got)
    want = set(want)
    assert want <= set(got)
    hp_2p = target.problem(m)[1]
    mu_4p = hp_2p * target.accuracy.cap_p * target.s_p
    keys = {}
    for x0, x1 in got:
        x1p = _plus_p(x1, p)
        keys[x0, x1] = (abs((x1p << 3 * p) - mu_4p), (x1.a, x1.b),
                        -(_plus_p(x0, p) * target.c_p + x1p * target.s_p),
                        (x0.a, x0.b))
    assert got == sorted(got, key=keys.__getitem__)
    tol = mp.ldexp(((hp_2p >> (2 * p)) + 3) << 6, -p)
    eta_m = eta_power(m)
    with mp.workprec(2 * p):
        e, theta = mpf(eps), mpf(theta)
        s, c = mp.sin(theta), mp.cos(theta)
        h = embed(ETA, "plus", 2 * p) ** (mpf(m) / 2)
        cap = h * (1 - e ** 2)
        mu = cap * s
        for x0, x1 in got:
            x0p, x1p = embed(x0, "plus", 2 * p), embed(x1, "plus", 2 * p)
            r = x0p * c + x1p * s
            band_key, _, overlap_key, _ = keys[x0, x1]
            assert abs(mp.ldexp(band_key, -4 * p) - abs(x1p - mu)) <= tol
            assert abs(mp.ldexp(-overlap_key, -2 * p) - r) <= tol
            if (x0, x1) in want:
                continue
            y = eta_m - x0 * x0 - x1 * x1
            signs = [sign_plus(y), sign_minus(y)]
            assert min(signs) >= 0 and r - cap >= -tol
            assert 0 in signs or r - cap <= tol, (x0, x1)


def assert_covers_norms(got, k, abs_alpha, epsilon, want):
    """got, list(candidate_norms(CentralBand(abs_alpha, epsilon), k)),
    holds every s of want, which oracle_norms or a scan gives; every s
    it adds lies within tol = 64 u H of the band's edge; and it is
    sorted by the integer distance from the band centre at scale 2^2p,
    then by coordinates.  Each integer distance is within tol of the
    true one."""
    p = mp.prec
    a, eps = mpf(abs_alpha), mpf(epsilon)
    assert len(set(got)) == len(got)
    want = set(want)
    assert want <= set(got)
    center_2p = CentralBand(a, eps).problem(k)[1][1]
    keys = {s: (abs((_plus_p(s, p) << p) - center_2p), s.a, s.b)
            for s in got}
    assert got == sorted(got, key=keys.__getitem__)
    ek = eta_power(k)
    with mp.workprec(2 * p):
        hp = embed(ek, "plus", 2 * p)
        tol = mp.ldexp((int(hp) + 2) << 6, -p)
        center, half = a * a * hp, eps * a * hp
        for s in got:
            dist = abs(embed(s, "plus", 2 * p) - center)
            assert abs(mp.ldexp(keys[s][0], -2 * p) - dist) <= tol
            if s not in want:
                assert abs(dist - half) <= tol, s
