"""Synthesis of diagonal rotations u(theta) = diag(e^{i theta}, e^{-i theta}).

The approximating quaternion gamma = (x0, x1, x2, x3) must satisfy
x0^2 + x1^2 + x2^2 + x3^2 = eta^m exactly with (x0 + i x1)/eta^{m/2}
close to e^{i theta}.  Searching shortest-first in m, each shell's
candidate pairs (x0, x1) in Z[phi]^2 = Z^4 are the lattice points of
one 4-dimensional ellipsoid around the plus-side eps-cap times the
minus-side disk (solve_shell, enumerated exactly by
goldengrid.ellipsoid_points), so the work per shell tracks the number of
pairs rather than the eps^(-1/2) values x1 can take alone.  (x2, x3)
is a sum-of-two-squares certificate for the exact residual.  Success
at exponent m gives a word with exactly m taus, and m lands at
(1+o(1))*log_59(1/eps^3) because each residual has a roughly constant
chance of being representable.

Each shell needs cos(theta) > 0, so that the fidelity slab on x0 is a
plus-embedding interval.  synth_diagonal folds theta into
[-pi/2, pi/2) and snaps to the C60 element u(pi/2) before any shell
when theta is near the quarter turn, which covers the folded angle
-pi/2.  A residual is skipped when its factorization runs out of the
Pollard-rho budget, the only abandonment rule.

All operations here expect to run under mp.workprec(precision_for(eps))
or wider; synth_diagonal sets that up itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from mpmath import mp, mpf

from .errors import (Abandoned, BudgetExhausted, MalformedInput,
                     NotInGroup, NotRepresentable)
from .golden import (ETA, PHI, GoldenInt, embed, eta_power, sign_minus,
                     sign_plus)
from .goldengrid import ellipsoid_points, fixed_point, margin_sorted, phi_fixed
from .icosian import GateWord, GoldenQuat, exact_synthesize
from .sots import sots_exact
from .unitary import precision_for, quaternion_distance

__all__ = ["DiagonalProblem", "solve_shell", "solve_x23", "synth_diagonal"]


@dataclass(frozen=True)
class DiagonalProblem:
    """One shell of the search: approximate u(theta) to epsilon with a
    quaternion of reduced norm eta^m_exp; theta must have
    cos(theta) > 0."""

    theta: object
    epsilon: object
    m_exp: int

    def __post_init__(self):
        eps = mpf(self.epsilon)
        if not 0 < eps < 1:
            raise MalformedInput("epsilon must be in (0, 1)")
        if self.m_exp < 0:
            raise MalformedInput("m_exp must be nonnegative")
        if not mp.cos(mpf(self.theta)) > 0:
            raise MalformedInput("theta must be folded so cos(theta) > 0")


@lru_cache(maxsize=256)
def _eta_pow(m_half_exp: int, which: str, prec: int):
    """(sigma eta)^(m_half_exp / 2) at precision prec."""
    with mp.workprec(prec):
        return mp.power(embed(ETA, which, prec), mpf(m_half_exp) / 2)


@lru_cache(maxsize=128)
def _shell(prob: DiagonalProblem, prec: int):
    """Real quantities shared by every row of one search shell."""
    with mp.workprec(prec):
        theta, eps, m = mpf(prob.theta), mpf(prob.epsilon), prob.m_exp
        hp = _eta_pow(m, "plus", prec)
        hm = _eta_pow(m, "minus", prec)
        s, c = mp.sin(theta), mp.cos(theta)
        cap = hp * (1 - eps ** 2)
        mu = cap * s
        w = hp * abs(c) * mp.sqrt(2 - eps ** 2) * eps
    return hp, hm, s, c, cap, mu, w


def solve_shell(prob: DiagonalProblem, warm: dict | None = None
                ) -> list[tuple[GoldenInt, GoldenInt]]:
    """Every pair (x0, x1) of one shell, in the order the search tries
    them.  For h = (sigma_+ eta)^{m/2} a pair qualifies when

        sigma_pm(eta^m - x1^2) >= 0,  sigma_pm(eta^m - x1^2 - x0^2) >= 0
        x1 sin(theta) <= h (1 - eps^2)
        |x1 - h (1 - eps^2) sin(theta)| <= h cos(theta) sqrt(2-eps^2) eps
        h (1 - eps^2) <= x0 cos(theta) + x1 sin(theta) <= h

    (the disks, the cap, the band and the fidelity slab; x0 and x1
    stand for their plus embeddings after the first line).  Pairs are
    sorted by |x1 - h (1 - eps^2) sin(theta)| (x1 nearest the band
    centre first), then by decreasing trace overlap x0 cos(theta) +
    x1 sin(theta), so the first x0 of an x1 gives the smallest
    distance; ties go by coordinates.

    The candidates are the points of Z[phi]^2 = Z^4 inside one
    ellipsoid (see _shell_forms) that holds every qualifying pair.
    warm, a dict shared by the shells of one search, carries the
    lattice reduction from shell to shell: each shell's reduction
    starts from the transform the previous one left there.

    Every decision is the one the mpf form of these tests makes at the
    working precision p (h, sin, cos and the other bounds being the mpf
    values of _shell, the embeddings mpf(a) + mpf(b) * phi), made in
    integers where that is certain:

    - The disks are exact signs of eta^m - x1^2 and eta^m - x1^2 - x0^2.
      A zero residual, which occurs only at (x0, x1) = (+-eta^{m/2}, 0)
      or (0, +-eta^{m/2}), is a tie and runs the mpf test.  Off a tie
      the exact sign is the mpf answer whenever
      (sigma_+ eta)^m 59^{m/2} 2^5 (m + 17) < 2^p: a nonzero residual z
      has |sigma_+ z| |sigma_- z| = |N(z)| >= 1, and the embedding the
      other disk accepts is at most (sigma eta)^m, so the one under test
      is at least 1/(sigma_+ eta)^m away from 0, while the mpf tests
      round within (5m + 116) 2^-p 59^{m/2} of it (the minus embedding
      loses the size of the coordinates, up to h, to cancellation).  At
      precision_for(eps) and eps >= 1e-10 that covers every shell up
      to ten past log_59(1/eps^3), where searches end; past it, a
      residual inside the mpf rounding gets the exact answer.
    - The cap, band and slab tests and both sort keys are made at scale
      2^p (goldengrid).  After the disks, |sigma_pm x| <= h for x = x0,
      x1, so both coordinates of x are at most h in size and, with
      H = floor(h) + 2 and u = 2^-p, the mpf plus embedding is within
      9 u H of the true one (phi off by 3 u, three roundings).  A
      product with sin or cos is then within 11 u H, and a test value
      (a slab edge minus the overlap, the cap minus x1 sin, the band
      half-width minus |x1 - mu|) or key within 23 u H.  The integer
      embedding is within H 2^p u of the true one and each scaled bound
      within 1/2, so an integer test value is within 5 u H of the
      true value, and of the mpf value within tol = 64 u H (tol << p
      for the products at scale 2^2p).  A point farther than tol from
      an edge takes the integer answer; one within tol (x0 = eta at
      theta = 0, m = 2 lies exactly on the slab edge) runs the mpf
      test, and margin_sorted computes the mpf keys of neighbours
      within 2 tol.
    """
    sh = hp, hm, s, c, cap, mu, w = _shell(prob, mp.prec)
    forms, center = _shell_forms(prob, mp.prec)
    points, transform = ellipsoid_points(
        forms, center, mp.sqrt(3), hp, warm.get("transform") if warm else None)
    if warm is not None:
        warm["transform"] = transform
    p = mp.prec
    phi_p = phi_fixed(p)
    s_p, c_p, mu_p, w_p = (fixed_point(v, p) for v in (s, c, mu, w))
    cap_2p, hp_2p = fixed_point(cap, 2 * p), fixed_point(hp, 2 * p)
    tol = (int(hp) + 2) << 6
    tol_2p = tol << p
    eta_m = eta_power(prob.m_exp)
    x1_of = itemgetter(2, 3)
    points.sort(key=x1_of)
    rows = []
    for (a1, b1), group in groupby(points, key=x1_of):
        x1 = GoldenInt(a1, b1)
        z1 = eta_m - x1 * x1
        disk = min(sign_plus(z1), sign_minus(z1))
        if disk < 0:
            continue
        x1p = (a1 << p) + b1 * phi_p
        x1s = x1p * s_p
        below_cap = cap_2p - x1s
        in_band = w_p - abs(x1p - mu_p)
        if below_cap < -tol_2p or in_band < -tol:
            continue
        if ((disk == 0 or below_cap <= tol_2p or in_band <= tol)
                and not _mpf_x1_test(x1, sh)):
            continue
        pairs = []
        for a0, b0, _, _ in group:
            x0 = GoldenInt(a0, b0)
            z0 = z1 - x0 * x0
            disk = min(sign_plus(z0), sign_minus(z0))
            if disk < 0:
                continue
            overlap = ((a0 << p) + b0 * phi_p) * c_p + x1s
            lo, hi = overlap - cap_2p, hp_2p - overlap
            if lo < -tol_2p or hi < -tol_2p:
                continue
            if ((disk == 0 or lo <= tol_2p or hi <= tol_2p)
                    and not _mpf_x0_test(prob, x0, x1, sh)):
                continue
            pairs.append((-overlap, (a0, b0), x0))
        if pairs:
            pairs = margin_sorted(
                pairs, tol_2p,
                lambda pair, x1=x1: -(embed(pair[2], "plus", p) * c
                                      + embed(x1, "plus", p) * s))
            rows.append((abs(x1p - mu_p), (a1, b1), x1, pairs))
    rows = margin_sorted(rows, tol,
                         lambda row: abs(embed(row[2], "plus", p) - mu))
    return [(x0, x1) for _, _, x1, pairs in rows for _, _, x0 in pairs]


def _mpf_x1_test(x1: GoldenInt, sh) -> bool:
    """solve_shell's tests on x1 alone, in mpf at working precision."""
    hp, hm, s, c, cap, mu, w = sh
    x1p = embed(x1, "plus", mp.prec)
    x1m = embed(x1, "minus", mp.prec)
    return (x1p * s <= cap and abs(x1p) <= hp and abs(x1m) <= hm
            and abs(x1p - mu) <= w)


def _mpf_x0_test(prob: DiagonalProblem, x0: GoldenInt, x1: GoldenInt,
                 sh) -> bool:
    """solve_shell's tests on x0 given x1, in mpf at working precision."""
    hp, hm, s, c, cap, mu, w = sh
    ep = _eta_pow(2 * prob.m_exp, "plus", mp.prec)
    em = _eta_pow(2 * prob.m_exp, "minus", mp.prec)
    x1p = embed(x1, "plus", mp.prec)
    x1m = embed(x1, "minus", mp.prec)
    sp = mp.sqrt(max(mpf(0), ep - x1p ** 2))
    sm = mp.sqrt(max(mpf(0), em - x1m ** 2))
    x0p = embed(x0, "plus", mp.prec)
    x0m = embed(x0, "minus", mp.prec)
    # cos(theta) > 0: the fidelity slab is a plus-side interval
    return (cap - x1p * s <= x0p * c <= hp - x1p * s
            and abs(x0p) <= sp and abs(x0m) <= sm)


def _shell_forms(prob: DiagonalProblem, prec: int):
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

    Returns (forms, center) for goldengrid.ellipsoid_points.
    """
    hp, hm, s, c, cap, mu, w = _shell(prob, prec)
    with mp.workprec(prec):
        eps = mpf(prob.epsilon)
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


def solve_x23(m_exp: int, x0: GoldenInt, x1: GoldenInt
              ) -> tuple[GoldenInt, GoldenInt] | None:
    """Certificate (x2, x3) with x0^2 + x1^2 + x2^2 + x3^2 = eta^m_exp,
    or None when the residual is not a sum of two squares.  Abandoned
    factorizations propagate for the caller to count."""
    residual = eta_power(m_exp) - x0 * x0 - x1 * x1
    try:
        x2, x3 = sots_exact(residual)
    except NotRepresentable:
        return None
    assert x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 == eta_power(m_exp)
    return x2, x3


def _fold_theta(theta):
    """Reduce mod pi (projective period) into [-pi/2, pi/2).

    The remainder is taken with as many extra bits as theta has integer
    bits, so it is accurate to working precision however large theta
    is; angles below 1 fold exactly as at working precision."""
    with mp.workprec(mp.prec + max(0, mp.mag(theta))):
        t = mp.fmod(mpf(theta), mp.pi)
    t = +t
    if t < -mp.pi / 2:
        t += mp.pi
    elif t >= mp.pi / 2:
        t -= mp.pi
    return t


def synth_diagonal(theta, epsilon, *, m_cap: int | None = None,
                   precision_bits: int | None = None,
                   stats: dict | None = None
                   ) -> tuple[GoldenQuat, GateWord, object]:
    """Approximate u(theta) to distance < epsilon, shortest shell first.

    Returns (quaternion, word, achieved distance).  The quaternion
    satisfies nrd = eta^m exactly for the winning exponent m; the word
    factors its primitive part, so its tau-count is at most m (less
    when the solution has golden content, e.g. the identity at theta=0).
    achieved is measured on the quaternion, which the word equals up to
    a scalar, against the unit quaternion (cos t, sin t, 0, 0) of the
    folded angle t; only a candidate within epsilon is factored.
    Raises BudgetExhausted if no shell up to the cap (default
    ceil(log_59(1/eps^3)) + 12) produces a verified approximation.

    When ``stats`` is given, its "abandoned" entry is incremented for
    every residual whose factorization ran out of its Pollard-rho
    budget, so callers can report how much work was discarded.
    """
    eps = mpf(epsilon)
    if not 0 < eps < 1:
        raise MalformedInput("epsilon must be in (0, 1)")
    if not mp.isfinite(theta):
        raise MalformedInput(f"theta must be finite, got {theta}")
    bits = precision_bits or precision_for(float(eps))
    with mp.workprec(bits):
        t = _fold_theta(theta)
        target = (mp.cos(t), mp.sin(t), mpf(0), mpf(0))
        # u(+-pi/2) = diag(i, -i) projectively, a C60 element.  Snap to
        # it whenever it is already close enough; this covers exact
        # cos(theta) = 0 and the nearby regime where the search bands
        # (whose widths scale with cos(theta)) degenerate.
        q = GoldenQuat(0, 1, 0, 0)
        achieved = quaternion_distance(target, q.to_vector(bits))
        if achieved < eps:
            return q, exact_synthesize(q), achieved
        if m_cap is None:
            m_cap = int(mp.ceil(3 * mp.log(1 / eps) / mp.log(59))) + 12
        warm: dict = {}
        for m in range(m_cap + 1):
            prob = DiagonalProblem(t, eps, m)
            for x0, x1 in solve_shell(prob, warm):
                try:
                    pair = solve_x23(m, x0, x1)
                except Abandoned:
                    if stats is not None:
                        stats["abandoned"] = stats.get("abandoned", 0) + 1
                    continue
                if pair is None:
                    continue
                q = GoldenQuat(x0, x1, *pair)
                achieved = quaternion_distance(target, q.to_vector(bits))
                if achieved < eps:
                    try:
                        return q, exact_synthesize(q), achieved
                    except NotInGroup:
                        continue
    raise BudgetExhausted(
        f"no approximation of u({theta}) within {epsilon} "
        f"up to eta-exponent {m_cap}")
