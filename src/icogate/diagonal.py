"""Synthesis of diagonal rotations u(theta) = diag(e^{i theta}, e^{-i theta}).

The approximating quaternion gamma = (x0, x1, x2, x3) must satisfy
x0^2 + x1^2 + x2^2 + x3^2 = eta^m exactly with (x0 + i x1)/eta^{m/2}
close to e^{i theta}.  Searching shortest-first in m, each shell's
candidates are the pairs (x0, x1) in Z[phi]^2 = Z^4 within eps of
u(theta) whose residual eta^m - x0^2 - x1^2 is totally nonnegative
(solve_shell).  They are kept from the lattice points of one
4-dimensional ellipsoid around a disk about the plus-side eps-cap
times the minus-side disk, enumerated exactly by
goldengrid.scaled_ellipsoid_points, so the work per shell tracks the
number of pairs rather than the eps^(-1/2) values x1 can take alone.
(x2, x3) is a sum-of-two-squares certificate for the exact residual.
Success at exponent m gives a word with exactly m taus, and m lands at
(1+o(1))*log_59(1/eps^3) because each residual has a roughly constant
chance of being representable.

Each shell is posed for a folded angle, cos(theta) > 0: synth_diagonal
folds theta into [-pi/2, pi/2) and first returns the nearest C60
element, a 0-tau word, when it is within eps (C60Table.snap);
u(pi/2) is one, so the folded angle -pi/2 snaps at distance 0.  A
residual is skipped when its factorization runs out of the Pollard-rho
budget, the only abandonment rule.

A search is posed once, as a DiagonalTarget, at the working precision
p that mp.prec holds then; synth_diagonal sets it to precision_for(eps)
itself.  What eps and p fix (the accept margin, both searches' default
caps, the top shell and the cap's integer constants) is built once per
(eps, p) and shared by every search there (_Accuracy).  sin(theta)
and cos(theta), computed once per search in mpf, measure the C60 snap
and are rounded to scale 2^p; each shell is posed and decided from
them in integers alone (goldengrid).  The integer ellipsoid needs
p >= 2 log2(1/eps) + 32, which precision_for(eps) exceeds by
log2(1/eps) + 64; a target or a search asked for less is rejected.

Most shells below the one that succeeds hold no pair, and the search
skips them unsolved.  Shell m + 2's h and h_minus are shell m's times
sigma_+(eta) and sigma_-(eta) > 0, the factors by which eta scales the
embeddings of x0 and x1, so L_{m+2}(eta z) = L_m(z) with the same
centre (solve_shell's forms).  A pair of shell m lies inside L_m's
radius sqrt(2) + 1/257 with both embeddings of x0 and x1 at most h in
size, so those of eta x0 and eta x1 are at most h_{m+2}, and their
coordinates too, within the bound grid_scale is given for shell m + 2:
eta z is among shell m + 2's lattice points.  So when shell M's
integer ellipsoid holds none, solve_shell returns [] for every m <= M
of M's parity, and synth_diagonal searches the target's shells in
steps of 2 (goldengrid.LatticeFamily.search), probing down from the
highest whose ellipsoid volume, (5 pi^2 / 16) sqrt(2 - eps^2) 59^m
eps^3 by the determinant of L_m, is at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from mpmath import mp, mpf

from .errors import (Abandoned, BudgetExhausted, MalformedInput,
                     NotRepresentable)
from .golden import GoldenInt, _totally_nonnegative, eta_power
from .goldengrid import LatticeFamily, fixed_point, grid_scale, phi_fixed
from .icosian import GateWord, GoldenQuat, exact_synthesize, generate_c60
from .sots import sots_exact
from .unitary import precision_for, quaternion_distance

__all__ = ["SynthReport", "DiagonalTarget", "solve_shell", "synth_diagonal"]


def _top_shell(eps) -> int:
    """The highest shell whose ellipsoid has volume at most 1,
    (5 pi^2 / 16) sqrt(2 - eps^2) 59^m eps^3 by the determinant of L_m,
    at the working precision: where synth_diagonal's probes start."""
    return int(mp.floor(-mp.log(
        5 * mp.pi ** 2 / 16 * mp.sqrt(2 - eps ** 2) * eps ** 3, 59)))


class _Accuracy:
    """The part of a search that epsilon and the working precision p
    fix, whatever the angle: built once per (eps, p) by _accuracy and
    shared by every search there, such as synth_general's two outer
    diagonals for all of its central candidates; the one home of the
    accept margin and the default caps that both searches use.

    eps must lie in (0, 1) and p be at least 2 log2(1/eps) + 32, the
    floor of the integer ellipsoid (solve_shell; MalformedInput),
    checked here alone.  within is eps less the margin 2^(5 - p) / eps
    by which a distance measured at precision p may be off near eps,
    so a word measured below it is truly within eps.  k_cap and m_cap,
    the default central and diagonal shell caps, are
    ceil(log_59(1/eps)) + 12 and ceil(log_59(1/eps^3)) + 12, and top is
    _top_shell(eps).  epsilon is read exactly, as eps^2 = eps2 / 2^k2,
    so cap_p = floor((1 - eps^2) 2^p) and sin_delta_p =
    floor(eps sqrt(2 - eps^2) 2^p), cos(delta) and sin(delta) for the
    cap's half-angle delta, are off by less than 1.  root_eta and
    root_59 are sqrt(sigma_+ eta) and sqrt(59) at scale 2^2p, each
    within 1 below.
    """

    __slots__ = ("within", "k_cap", "m_cap", "top", "eps2", "k2", "cap_p",
                 "sin_delta_p", "root_eta", "root_59")

    def __init__(self, eps, p: int):
        if not 0 < eps < 1:
            raise MalformedInput("epsilon must be in (0, 1)")
        # with eps = man 2^exp, the least p with man^2 2^(p - 32) >= 2^(-2 exp)
        man, exp = eps.man_exp
        floor = 33 - 2 * exp - (man * man).bit_length()
        if p < floor:
            raise MalformedInput(f"epsilon {mp.nstr(eps, 3)} needs at least "
                                 f"{floor} bits of working precision, got {p}")
        with mp.workprec(p):
            self.within = eps - mp.ldexp(1, 5 - p) / eps
            log_inv = mp.log(1 / eps)
            self.k_cap, self.m_cap = (int(mp.ceil(x / mp.log(59))) + 12
                                      for x in (log_inv, 3 * log_inv))
            self.top = _top_shell(eps)
        eps2, k2 = self.eps2, self.k2 = man * man, -2 * exp
        self.cap_p = (((1 << k2) - eps2) << p) >> k2
        self.sin_delta_p = isqrt(
            (eps2 * ((2 << k2) - eps2) << (2 * p)) >> (2 * k2))
        two_p = 2 * p
        sigma_eta = (7 << two_p) + 5 * phi_fixed(two_p)
        self.root_eta = isqrt(sigma_eta << two_p)
        self.root_59 = isqrt(59 << (2 * two_p))


@lru_cache(maxsize=32)
def _accuracy(eps, p: int) -> _Accuracy:
    return _Accuracy(eps, p)


class DiagonalTarget(LatticeFamily):
    """One search: approximate u(theta) to epsilon, posed once at the
    working precision p = mp.prec for every shell of it (solve_shell).

    Its shells' pairs are those within eps of u(theta) whose residual
    is totally nonnegative.  theta must have cos(theta) > 0
    (MalformedInput), and accuracy, the search's _Accuracy, checks eps
    and p; it gives the top shell, and eta-scaling proves step = 2
    (the module docstring).  s_p and c_p are sin(theta) and
    cos(theta), computed in mpf, at scale 2^p; sin_cos, when given,
    is that pair already computed at p, so a caller that measured
    against it computes neither again.  r_num and t_num are the
    coefficients of (c, s) and (-s, c) on z = (a0, b0, a1, b1), that
    is (c, c phi, s, s phi) and (-s, -s phi, c, c phi) with phi its
    plus embedding, at scale 2^2p: shell 0's plus-side forms up to the
    factors 2 / eps^2 and 1 / sin(delta).
    """

    __slots__ = ("p", "accuracy", "s_p", "c_p", "r_num", "t_num")
    step = 2

    def __init__(self, theta, epsilon, sin_cos=None):
        p = self.p = mp.prec
        try:
            theta, eps = mpf(theta), mpf(epsilon)
        except (TypeError, ValueError):
            raise MalformedInput("theta and epsilon must be real") from None
        self.accuracy = _accuracy(eps, p)
        super().__init__(self.accuracy.top)
        s, c = (mp.sin(theta), mp.cos(theta)) if sin_cos is None else sin_cos
        if not c > 0:
            raise MalformedInput("theta must be folded so cos(theta) > 0")
        s_p = self.s_p = fixed_point(s, p)
        c_p = self.c_p = fixed_point(c, p)
        phi_p = phi_fixed(p)
        self.r_num = (c_p << p, c_p * phi_p, s_p << p, s_p * phi_p)
        self.t_num = (-s_p << p, -s_p * phi_p, c_p << p, c_p * phi_p)

    def pose(self, m: int):
        """Shell m's integer ellipsoid as solve_shell poses it, with h
        at scale 2^2p as its data."""
        accuracy, p, two_p = self.accuracy, self.p, 2 * self.p
        k, odd = divmod(m, 2)
        eta_k = eta_power(k)
        hp_2p = (eta_k.a << two_p) + eta_k.b * phi_fixed(two_p)
        if odd:
            hp_2p = (hp_2p * accuracy.root_eta) >> two_p
            root_59 = 59 ** k * accuracy.root_59
        else:
            root_59 = 59 ** k << two_p
        e = grid_scale(4, (hp_2p >> two_p) + 1)
        eps2, k2 = accuracy.eps2, accuracy.k2
        r_den, t_den = 5 * hp_2p * eps2, 5 * hp_2p * accuracy.sin_delta_p
        g = (hp_2p << e) // root_59
        # the minus embedding of phi is 1 - phi
        g_phi = (hp_2p * ((1 << two_p) - phi_fixed(two_p)) << e) // (
            root_59 << two_p)
        basis = [((r << (k2 + 3 + e)) // r_den, (t << (e + p + 2)) // t_den,
                  g3, g4)
                 for r, t, g3, g4 in zip(self.r_num, self.t_num,
                                         (g, g_phi, 0, 0), (0, 0, g, g_phi))]
        center = ((((8 << k2) - 5 * eps2) << e) // (5 * eps2), 0, 0, 0)
        return basis, center, e, hp_2p


def solve_shell(target: DiagonalTarget, m: int
                ) -> list[tuple[GoldenInt, GoldenInt]]:
    """Every pair (x0, x1) of shell m of target, and the pairs within
    rounding of its edge, in the order the search tries them.  For
    h = (sigma_+ eta)^{m/2} a pair qualifies when

        sigma_pm(eta^m - x0^2 - x1^2) >= 0
        x0 cos(theta) + x1 sin(theta) >= h (1 - eps^2)

    (the residual's disks and the fidelity slab; x0 and x1 stand for
    their plus embeddings in the second): completed by any (x2, x3),
    the quaternion is within eps of u(theta).  The disks imply x1's
    own, sigma_pm(eta^m - x1^2) >= 0, and the overlap
    x0 cos(theta) + x1 sin(theta) is at most |(x0, x1)| <= h, so the
    plus side (x0, x1) lies in the eps-cap of the disk of radius h,
    between the angles theta +- delta, cos(delta) = 1 - eps^2.  Pairs
    are sorted by |x1 - mu| for mu = h (1 - eps^2) sin(theta), the
    midpoint of h sin(theta +- delta) (x1 nearest the cap's centre
    first), then by decreasing overlap, so the first x0 of an x1 gives
    the smallest distance; both keys are exact integers (below), and
    their true ties go by coordinates.

    m must be a nonnegative int (MalformedInput, LatticeFamily.problem).

    The shell is posed in integers.  With k = floor(m/2), h is the plus
    embedding of the exact eta^k at scale 2^2p, (a << 2p) + b phi_2p,
    times root_eta >> 2p when m is odd; 1/h_minus = h / 59^{m/2} needs
    no minus embedding, so nothing cancels.  The slab's edge h cap_p is
    floored to scale 2^2p, and mu = h cap_p s_p kept whole at 2^4p.

    The candidates are the points of Z[phi]^2 = Z^4 inside one
    ellipsoid.  On the plus side (sigma_+ x0, sigma_+ x1) lies in the
    eps-cap.  In its rotated coordinates r = x0 c + x1 s and
    t = x1 c - x0 s, normalised as r' = 2 r / (h eps^2) -
    (2 - eps^2) / eps^2 and t' = t / (h sin(delta)), the slab is
    r' >= -1, and |x|^2 <= h^2 gives t'^2 <= 1 and
    r' <= 1 - a t'^2 with a = 2 - eps^2.  The cap lies in the disk
    (r' + 1/4)^2 + t'^2 <= 25/16, which passes through (1, 0) and
    (-1, +-1): the sum is convex in r', is 9/16 + t'^2 at r' = -1,
    and at r' = 1 - a t'^2 is 25/16 + t'^2 (a^2 t'^2 - 5a/2 + 1),
    at most 25/16 since a t'^2 <= a <= 5/2 - 1/a for 1/2 <= a <= 2.
    On the minus side (sigma_- x0, sigma_- x1) lies in the disk of
    radius h_minus.  Scaling the plus disk by 4/5 and the minus disk to
    unit size, their product sits inside |L z - c| <= sqrt(2), where
    L's rows are r_num 8 / (5 h eps^2), t_num 4 / (5 h sin(delta)),
    (1, phi_-, 0, 0) / h_minus and (0, 0, 1, phi_-) / h_minus, and
    c = ((8 - 5 eps^2) / (5 eps^2), 0, 0, 0); a qualifying z has every
    |z_j| <= h.  Each integer of the basis and the centre handed to
    goldengrid.scaled_ellipsoid_points at scale 2^e is one floor
    division of the target's constants by h, by 59^{m/2} or by eps2,
    and lies within 2 of 2^e times the exact entry.  The floor loses
    less than 1.  c_p and s_p are off by at most 3/2 units of 2^-p and
    their phi products by 7/2, which moves a plus-row entry by less
    than 2^(e + 3 - p) / (h eps^2) < 2^(27 - p) / eps^2; that is below
    1/2 when p >= 2 log2(1/eps) + 32.  h and 59^{m/2} are off by a
    relative 2^(2 - 2p), which moves an entry by less than 1/2 while
    h < 2^(2p - 28), true of every shell a search reaches.  A pair
    within its disks that misses the slab by xi < 72 u H (every pair
    kept below) has r' >= -1 - e with e = 2 xi / (h eps^2) <
    2^(10 - p) / eps^2 <= 2^-22 (H <= 4h), and t'^2 <= 1 + e, since
    t^2 <= h^2 - r^2 and sin(delta)^2 >= eps^2.  At r' = -1 - e the
    plus disk's sum is at most (3/4 + e)^2 + 1 + e, and at
    r' = 1 - a t'^2 at most 25/16 + (1 + e) a^2 e, both below
    25/16 + 4 e (1 + e); so |L z - c|^2 < 2 + 3e, and the pair lies
    inside the entry's radius sqrt(2) + 1/257.

    The disks are exact signs of eta^m - x0^2 - x1^2, computed once per
    point, and a zero residual is kept.  Within the disks both
    coordinates of x0 and x1 are at most h in size; with u = 2^-p and
    H = (h's integer >> 2p) + 3 >= h + 1, the integer slab value (the
    overlap minus cap) and each key are within 15 u H / 2 of the exact
    ones (the embedding is off by less than u H, s_p and c_p by 3u/2,
    cap_p by u, h by a relative 2^(2 - 2p)).  A pair is kept when its
    slab value is at least -tol, tol = 64 u H (tol << p at scale
    2^2p): so is every qualifying pair, and every pair within its
    disks whose slab value, computed in mpf at precision p, is at
    least 0, since that value is within 23 u H of the exact one and so
    within 31 u H < tol of the integer one.  Whether a pair near the
    edge is close enough is left to the exact distance synth_diagonal
    measures.
    """
    points, hp_2p = target.problem(m)
    p, cap_p = target.p, target.accuracy.cap_p
    cap_2p = (hp_2p * cap_p) >> p
    s_p, c_p, phi_p = target.s_p, target.c_p, phi_fixed(p)
    mu_4p = hp_2p * cap_p * s_p
    floor_2p = cap_2p - (((hp_2p >> (2 * p)) + 3) << (6 + p))
    eta_m = eta_power(m)
    ea, eb = eta_m.a, eta_m.b
    kept = []
    for a0, b0, a1, b1 in points:
        # y = eta^m - x0^2 - x1^2, with x^2 = a^2 + b^2 + (2 a b + b^2) phi
        bb0, bb1 = b0 * b0, b1 * b1
        ya = ea - a0 * a0 - bb0 - a1 * a1 - bb1
        yb = eb - 2 * (a0 * b0 + a1 * b1) - bb0 - bb1
        if not _totally_nonnegative(ya, yb):
            continue
        x1p = (a1 << p) + b1 * phi_p
        overlap = ((a0 << p) + b0 * phi_p) * c_p + x1p * s_p
        if overlap >= floor_2p:
            kept.append((abs((x1p << 3 * p) - mu_4p), a1, b1, -overlap,
                         a0, b0))
    kept.sort()
    return [(GoldenInt(a0, b0), GoldenInt(a1, b1))
            for _, a1, b1, _, a0, b0 in kept]


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


@dataclass(frozen=True)
class SynthReport:
    """What synth_diagonal and general.synth_general return: the word,
    the exact quaternion achieved was measured on (the word up to a
    Z[phi] scalar) and where its taus went: central_tau and outer_tau
    count the pieces before seam cancellation (word.tau_count can be
    smaller), k is the central shell (0 without one), abandoned_count
    the factorizations that ran out of their Pollard-rho budget."""

    word: GateWord
    quaternion: GoldenQuat
    achieved: object
    central_tau: int
    outer_tau: tuple[int, int]
    k: int
    abandoned_count: int

    @property
    def tau_count(self) -> int:
        return self.word.tau_count

    def __iter__(self):
        """(quaternion, word, achieved), for the benchmark's unpacking
        alone (bench/run.py, bench/test_check.py); delete this once the
        benchmark reads fields."""
        return iter((self.quaternion, self.word, self.achieved))


def synth_diagonal(theta, epsilon, *, m_cap: int | None = None,
                   precision_bits: int | None = None) -> SynthReport:
    """Approximate u(theta) to distance < epsilon, shortest shell first.

    Returns a SynthReport, its word the one outer piece.  The nearest
    C60 element, when within epsilon, comes first: a 0-tau word and the
    table's element, whose nrd is a unit times a power of 4.  Otherwise
    the quaternion has nrd = eta^m exactly for the winning exponent m;
    the word factors its primitive part, so its tau-count is at most m.
    It lies in the icosian order, so it is a word (super golden gates,
    Parzanchevski-Sarnak): exact_synthesize cannot refuse it.
    achieved is measured on the quaternion, which the word equals up to
    a scalar, against the unit quaternion (cos t, sin t, 0, 0) of the
    folded angle t at the working precision, and only a candidate
    measured below _Accuracy.within, and so truly within epsilon, is
    returned.  Raises BudgetExhausted if no shell up to m_cap (default
    _Accuracy.m_cap) produces a verified approximation.
    The search runs at precision_bits, precision_for(epsilon) when
    None; fewer than 2 log2(1/eps) + 32 raise MalformedInput.
    abandoned_count counts the residuals skipped for their rho budget.
    """
    try:
        eps = mpf(epsilon)
        if not mp.isfinite(mpf(theta)):
            raise MalformedInput(f"theta must be finite, got {theta}")
    except (TypeError, ValueError):
        raise MalformedInput("theta and epsilon must be real") from None
    if m_cap is not None and (not isinstance(m_cap, int) or m_cap < 0):
        raise MalformedInput("m_cap must be a nonnegative int")
    if precision_bits is not None and not isinstance(precision_bits, int):
        raise MalformedInput("precision_bits must be an int")
    bits = precision_for(eps) if precision_bits is None else precision_bits
    with mp.workprec(bits):
        accuracy = _accuracy(mpf(eps), bits)
        t = _fold_theta(theta)
        s, c = mp.sin(t), mp.cos(t)
        target = (c, s, mpf(0), mpf(0))
        snapped = generate_c60().snap(target, accuracy.within)
        if snapped is not None:
            q, seg, achieved = snapped
            return SynthReport(GateWord((seg,)), q, achieved, 0, (0, 0), 0, 0)
        if m_cap is None:
            m_cap = accuracy.m_cap
        posed = DiagonalTarget(t, eps, (s, c))
        abandoned = 0
        for m in posed.search(m_cap):
            eta_m = eta_power(m)
            for x0, x1 in solve_shell(posed, m):
                try:
                    x2, x3 = sots_exact(eta_m - x0 * x0 - x1 * x1)
                except Abandoned:
                    abandoned += 1
                    continue
                except NotRepresentable:
                    continue
                assert x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 == eta_m
                q = GoldenQuat(x0, x1, x2, x3)
                achieved = quaternion_distance(target, q.to_vector(bits))
                if achieved < accuracy.within:
                    word = exact_synthesize(q)
                    return SynthReport(word, q, achieved, 0,
                                       (word.tau_count, 0), 0, abandoned)
    raise BudgetExhausted(
        f"no approximation of u({theta}) within {epsilon} "
        f"up to eta-exponent {m_cap}")
