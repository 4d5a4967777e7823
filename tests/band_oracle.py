"""Reference for general.candidate_norms that uses no lattice reduction.

The band's box is rescaled by an exact power of phi until its two
embedding widths are about equal, then scanned row by row in b over
s = phi^t (a + b*phi); every row's a-range is padded by 2 on each side,
and the box and band are decided by the same exact sign tests and
numeric band test that candidate_norms applies.  Run it under the
working precision of the call it checks.
"""

from mpmath import mp, mpf

from icogate.golden import (GoldenInt, embed, eta_power, phi_power,
                            sign_minus, sign_plus)


def band(k, abs_alpha, eps):
    """(center, half, lo, hi, hm) of shell k: the band
    |sigma_plus(s) - center| < half, its plus-side interval [lo, hi]
    clamped to [0, sigma_plus(eta^k)] and the minus-side width
    hm = sigma_minus(eta^k)."""
    ek = eta_power(k)
    hp = embed(ek, "plus", mp.prec)
    center = mpf(abs_alpha) ** 2 * hp
    half = mpf(eps) * mpf(abs_alpha) * hp
    lo, hi = max(center - half, mpf(0)), min(hp, center + half)
    return center, half, lo, hi, embed(ek, "minus", mp.prec)


def band_scan(k, abs_alpha, eps):
    """Every candidate norm of shell k, sorted as candidate_norms yields
    them: by |sigma_plus(s) - |alpha|^2 eta^k|, then by coordinates."""
    ek = eta_power(k)
    center, half, lo, hi, hm = band(k, abs_alpha, eps)
    php = embed(GoldenInt(0, 1), "plus", mp.prec)
    phm = embed(GoldenInt(0, 1), "minus", mp.prec)
    # s = phi^t y scales sigma_plus by php^t and sigma_minus by phm^t
    t = int(mp.nint(mp.log((hi - lo) / hm) / (2 * mp.log(php))))
    p_lo, p_hi = lo / php ** t, hi / php ** t
    m_lo, m_hi = sorted((mpf(0), hm / phm ** t))
    # y = a + b*phi has b = (sigma_plus(y) - sigma_minus(y)) / sqrt(5)
    r5 = php - phm
    found = []
    for b in range(int(mp.floor((p_lo - m_hi) / r5)) - 2,
                   int(mp.ceil((p_hi - m_lo) / r5)) + 3):
        a_lo = max(p_lo - b * php, m_lo - b * phm)
        a_hi = min(p_hi - b * php, m_hi - b * phm)
        for a in range(int(mp.floor(a_lo)) - 2, int(mp.ceil(a_hi)) + 3):
            s = phi_power(t) * GoldenInt(a, b)
            if sign_plus(s) < 0 or sign_minus(s) < 0:
                continue
            if sign_plus(ek - s) < 0 or sign_minus(ek - s) < 0:
                continue
            dist = abs(embed(s, "plus", mp.prec) - center)
            if dist < half:
                found.append((dist, (s.a, s.b), s))
    found.sort(key=lambda item: item[:2])
    return [s for _, _, s in found]
