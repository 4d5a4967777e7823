"""Synthesis of arbitrary projective unitaries over the gate set.

A generic target g = u(alpha, beta) is approximated as u(theta1) *
gamma * u(theta2): the central gamma is a quaternion of reduced norm
eta^k chosen so that |alpha(gamma)| matches |alpha(g)| to epsilon, and
the two diagonal rotations that align the phases are synthesized by the
diagonal pipeline.  The central norm candidates s = x0^2 + x1^2 live in
a planar lattice band of width ~ eta^k * epsilon, enumerated exactly as
one 2-D lattice problem (candidate_norms).  The band first contains
representable points when 59^k * epsilon reaches O(1), so k lands at
log_59(1/eps) + O(1): one third of the tau budget, with the remaining
two thirds split between the diagonal words.  Band k + 1 is eta times
band k, so one probe of a band that finds no lattice point proves every
band below it empty, and the search skips them (candidate_norms).

Targets that are already close to a diagonal rotation (or to a diagonal
times the antidiagonal unit j) skip the sandwich and go straight to the
diagonal pipeline; targets whose alpha pins one of the tuning lemma's
hypotheses (|alpha| near 1 or near 0) are first multiplied by rho,
which moves |alpha| into [(1 - eps0)/sqrt(2), (1 + eps0)/sqrt(2)], and
the word for rho^-1 is appended at the end.

From the parsed matrix to the word the target is one real unit
4-vector (unitary.to_quaternion); the rho twist is a Hamilton product
and the tuning lemma reads its phases from 4-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

from mpmath import mp, mpf

from .diagonal import SynthReport, synth_diagonal
from .errors import (Abandoned, BudgetExhausted, MalformedInput,
                     NotRepresentable, PrecisionInsufficient)
from .golden import GoldenInt, _int_hamilton, _sign_of, embed, eta_power
from .goldengrid import LatticeFamily, fixed_point, grid_scale, phi_fixed
from .icosian import (ONE_QUAT, RHO, GateWord, GoldenQuat,
                      exact_synthesize, generate_c60)
from .sots import decide, screen, sots_exact
from .unitary import (DELTA, EPSILON0, ProjUnitary, near_unit_circle,
                      precision_for, quaternion_distance, require_unitary,
                      to_quaternion, tune_diagonals)

__all__ = ["SynthConfig", "SynthReport", "CentralBand", "candidate_norms",
           "build_central", "synth_general"]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for synth_general.

    Both modes run one search at epsilon.  Default mode returns only a
    word measured below 1.5 * epsilon (a couple of shells past the
    first nonempty band make the tuning term negligible, so this costs
    O(1) extra taus).  Strict mode returns only a word measured below
    epsilon less the margin 2^(5 - p) / epsilon by which a distance
    measured at precision p, the larger of the target's and the working
    precision, may be off near epsilon (synth_diagonal), so a strict
    word is truly within epsilon.
    Either mode raises BudgetExhausted when no word meets its goal up
    to k_cap.  delta and epsilon0 are the tuning lemma's constants, the
    same for every search.
    """

    epsilon: float
    strict: bool = False
    k_cap: int | None = None
    delta: ClassVar[float] = DELTA
    epsilon0: ClassVar[float] = EPSILON0

    def __post_init__(self):
        if not 0 < self.epsilon < self.delta:
            raise MalformedInput("need 0 < epsilon < delta")
        if self.k_cap is not None and (not isinstance(self.k_cap, int)
                                       or self.k_cap < 0):
            raise MalformedInput("k_cap must be a nonnegative int")


class CentralBand(LatticeFamily):
    """The norm bands of one central search, posed once, when built, at
    the working precision p = mp.prec then, whatever the band
    (candidate_norms).  |alpha| = a and epsilon must lie in (0, 1), and
    eps a above 2^(20 - p), the hypothesis of candidate_norms' rounding
    bounds (MalformedInput).

    Band k's box is sigma_plus(s) in hp [lo, hi] and sigma_minus(s) in
    [0, hm], for hp and hm the embeddings of eta^k and
    [lo, hi] = [max(0, a^2 - eps a), min(1, a^2 + eps a)] (width
    hi - lo); a2 and ea are a^2 and eps a in mpf.  inv_w_p and mid_p
    are 2 / width and (lo + hi) / width at scale 2^p, from mpf, each
    off by 1/2 from its mpf value.  top is the highest band whose
    ellipse has area at most 1, pi (hi - lo) hp hm / (2 sqrt 5) with
    hp hm = 59^k, where search's probes start, and eta-scaling proves
    step = 1 (candidate_norms).
    """

    __slots__ = ("p", "a2", "ea", "inv_w_p", "mid_p")
    step = 1

    def __init__(self, abs_alpha, epsilon):
        p = self.p = mp.prec
        a, eps = mpf(abs_alpha), mpf(epsilon)
        if not 0 < a < 1:
            raise MalformedInput("abs_alpha must be in (0, 1)")
        if not 0 < eps < 1:
            raise MalformedInput("epsilon must be in (0, 1)")
        a2, ea = self.a2, self.ea = a * a, eps * a
        if ea <= mp.ldexp(1, 20 - p):
            raise MalformedInput(f"epsilon * |alpha| needs more than {p} bits")
        lo, hi = max(mpf(0), a2 - ea), min(mpf(1), a2 + ea)
        width = hi - lo
        self.inv_w_p = fixed_point(2 / width, p)
        self.mid_p = fixed_point((lo + hi) / width, p)
        super().__init__(int(mp.floor(
            mp.log(2 * mp.sqrt(5) / (mp.pi * width), 59))))

    def pose(self, k: int):
        """Band k's integer ellipse as candidate_norms poses it; its data
        are eta^k and, at scale 2^p, the band's centre a^2 hp and reach,
        its half-width eps a hp plus candidate_norms' tol, for
        hp = sigma_plus(eta^k)."""
        p, two_p = self.p, 2 * self.p
        ek = eta_power(k)
        phi_2p = phi_fixed(two_p)
        hp_2p = (ek.a << two_p) + ek.b * phi_2p
        # hm = 59^k / hp <= hp bounds the minus side
        e = grid_scale(2, 2 * (hp_2p >> two_p) + 2)
        inv_w_p, norm_2p = self.inv_w_p, 59 ** k << two_p
        # the forms ((a + b phi) / hp - (lo + hi) / 2) 2 / width and
        # (a + b (1 - phi)) 2 / hm - 1, with 2 / hm = 2 hp / 59^k
        basis = [[(inv_w_p << (e + p)) // hp_2p,
                  (hp_2p << (e + 1)) // norm_2p],
                 [(inv_w_p * phi_2p << e) // (hp_2p << p),
                  (hp_2p * ((1 << two_p) - phi_2p) << (e + 1))
                  // (norm_2p << two_p)]]
        center = [(self.mid_p << e) >> p, 1 << e]
        with mp.workprec(p):
            hp = embed(ek, "plus", p)
            reach = fixed_point(self.ea * hp, p) + ((int(hp) + 2) << 6)
            return basis, center, e, 2, (ek, fixed_point(self.a2 * hp, p),
                                         reach)


def candidate_norms(band: CentralBand, k: int) -> Iterator[GoldenInt]:
    """Norm candidates s = x0^2 + x1^2 for a central element at shell k:
    band k of a target's CentralBand.

    Yields every s in Z[phi] with both embeddings inside
    [0, embedding of eta^k] and sigma_plus(s) in the band
    |sigma_plus(s) - |alpha|^2 eta^k| < eps * |alpha| * eta^k, and
    those within rounding of the band's edges (below), nearest the band
    center first by the distance at scale 2^p, ties by coordinates.
    The band's box, normalised to the square [-1, 1]^2 in the
    embeddings of s = a + b*phi, lies in the disk of radius sqrt(2),
    whose lattice points goldengrid.scaled_ellipsoid_points finds
    exactly.  The disk is posed in integers (CentralBand.pose): from
    sigma_plus(eta^k) at scale 2^2p, read off the exact eta^k,
    59^k = sigma_plus(eta^k) sigma_minus(eta^k), and the target's
    2 / width and (lo + hi) / width of the normalised box [lo, hi] of
    sigma_plus(s) / sigma_plus(eta^k), rounded from mpf to scale 2^p
    once per target (CentralBand).  Each integer is one floor division
    and lies within 2 of 2^e times the entry of the forms that the mpf
    width and midpoint give while sigma_plus(eta^k) < 2^(p - 24): the
    floor loses less than 1, and a rounding at scale 2^p moves an entry
    by at most 2^(e - p - 1) phi, with e at most
    log2 sigma_plus(eta^k) + 23.  The working-precision rounding of
    that width and midpoint, and the tol below, move a kept point's
    normalised coordinates by less than 2^(10 - p) / (eps |alpha|),
    inside the 1/257 radius margin while eps |alpha| > 2^(20 - p).
    Both conditions hold on every band synth_general searches.

    The band and the sort key are taken at scale 2^p (goldengrid), the
    box by exact signs of s and eta^k - s.  Only the integer distance
    from the band centre is computed for every point; the points within
    the band's tolerance are sorted by it, and the box is decided on
    their coordinates as each is reached, so a caller that stops at
    its first good candidate leaves the rest undecided, and a GoldenInt
    is built only for an s yielded.  Inside the box both
    coordinates of s are at most sigma_plus(eta^k) in size; with H its
    floor plus 2 and u = 2^-p, the integer test value is within 24 u H
    of the exact one (the mpf centre and half-width within 11 u H each,
    the integer distance |(a << p) + b phi_fixed(p) - centre_p| within
    (H + 1/2) u of |sigma_plus(s) - centre|) and within 13 u H of the
    same test made in mpf at precision p.  Every s whose integer test
    value is at least -tol, tol = 64 u H, is yielded (s = 0 on the
    strict edge of band 0 at |alpha| = eps = 0.5 included): every s in
    the band, and every s the mpf test keeps.

    Band k + 1 is eta times band k: eta^k, the centre and the half-width
    grow by the embeddings of eta, so the forms L_k that normalise band
    k's box satisfy L_{k+1}(eta z) = L_k(z), with the same centre.  A
    candidate s of band k lies in L_k's disk up to working-precision
    rounding, inside the 1/257 margin, and eta s has both embeddings
    within those of eta^{k+1}, so coordinates within the bound
    grid_scale is given for band k + 1: eta s is among band k + 1's
    lattice points.  So when band K's integer ellipse holds none, every
    band k <= K is empty, and synth_general searches the bands in steps
    of 1 (LatticeFamily.search).
    """
    points, (ek, center_p, reach) = band.problem(k)
    p = band.p
    phi_p = phi_fixed(p)
    near = sorted((dist, c, d) for c, d in points
                  if (dist := abs((c << p) + d * phi_p - center_p)) <= reach)
    for _, c, d in near:
        # the signs of both embeddings of s = c + d phi and of eta^k - s
        u, ra, rb = 2 * c + d, ek.a - c, ek.b - d
        v = 2 * ra + rb
        if (_sign_of(u, d) >= 0 and _sign_of(u, -d) >= 0
                and _sign_of(v, rb) >= 0 and _sign_of(v, -rb) >= 0):
            yield GoldenInt(c, d)


def build_central(k: int, s: GoldenInt) -> GoldenQuat:
    """Quaternion with reduced norm exactly eta^k and x0^2 + x1^2 = s.

    Raises NotRepresentable when s or eta^k - s is not a sum of two
    squares, so the caller can move on to the next candidate; both are
    screened before rho runs on either, and decided, s first, before
    either certificate is built.  Abandoned propagates for the caller
    to count.
    """
    rest = eta_power(k) - s
    s_screened, rest_screened = screen(s), screen(rest)
    s_primes = decide(s, s_screened)
    rest_primes = decide(rest, rest_screened)
    x0, x1 = sots_exact(s, primes=s_primes)
    x2, x3 = sots_exact(rest, primes=rest_primes)
    return GoldenQuat(x0, x1, x2, x3)


def synth_general(g: ProjUnitary, cfg: SynthConfig) -> SynthReport:
    """Approximate g over the gate set to the configured accuracy.

    Routing, cheapest first, the same in both modes: snap to the
    nearest C60 element (a 0-tau word, C60Table.nearest) when it is
    within epsilon; peel off a diagonal rotation (or a diagonal times
    the antidiagonal unit j) when the remainder is below epsilon / 2;
    otherwise run the sandwich search, twisting by rho first whenever
    |alpha| sits too close to 0 or 1 for the tuning lemma.  The outer
    diagonals get budget 0.6 * epsilon each.  A word, the snap's
    included, is returned only when its measured distance meets the
    mode's goal (SynthConfig); a route whose word misses it falls
    through to the next.

    The twist is decided on |alpha| = hypot(g0, g1) and epsilon0 at
    the larger precision, the values tune_diagonals tests, so no
    central candidate breaks the lemma's hypotheses: an untwisted
    |alpha_1| has |alpha_1|^2 below 1 - epsilon0^2 by the twist test
    itself, a twisted one has |alpha_1|^2 within epsilon0 of 1/2, and
    the band puts |alpha_2|^2 within epsilon |alpha_1| of
    |alpha_1|^2 (candidate_norms), so ||alpha_1| - |alpha_2|| < epsilon
    < delta, as SynthConfig requires.  A candidate either completes to
    a word or raises: NotRepresentable (build_central) and
    BudgetExhausted (an outer diagonal) skip it, and Abandoned is
    counted and skips it.  An outer diagonal's abandoned_count is added
    when it returns, so one that raises BudgetExhausted goes uncounted
    (no input is known to reach that).

    Every distance is measured against g as a unit quaternion, at the
    larger of g's and the working precision.
    achieved is taken on the report's quaternion, the exact product of
    the pieces (the snap's element; the diagonal's, times j on the
    j-route; q1 * central * q2, times conj(rho) when twisted), which the
    word equals up to a Z[phi] scalar.

    exact_synthesize cannot refuse a central candidate: an icosian with
    nrd eta^k, it is a word (super golden gates, Parzanchevski-Sarnak).

    Raises BudgetExhausted when no word meets the goal up to central
    shell k_cap, PrecisionInsufficient when the target matrix is stored
    too coarsely to certify distances at epsilon, and MalformedInput
    when it is not a scalar multiple of a unitary.
    """
    require_unitary(g)
    eps = mpf(cfg.epsilon)
    bits = precision_for(eps)
    if mpf(2) ** (-(g.precision_bits // 2)) > eps / 8:
        raise PrecisionInsufficient(
            f"target stored at {g.precision_bits} bits cannot certify "
            f"distances at {mp.nstr(eps, 3)}")
    wbits = max(g.precision_bits, bits)
    table = generate_c60()
    with mp.workprec(wbits):
        target = to_quaternion(ProjUnitary(g.entries, wbits))
        best_q, best_seg, best_d = table.nearest(target)
        goal = (eps - mp.ldexp(1, 5 - wbits) / eps if cfg.strict
                else mpf("1.5") * eps)

    def measure(h, q):
        with mp.workprec(wbits):
            return quaternion_distance(h, q)

    with mp.workprec(bits):
        if best_d < min(eps, goal):
            return SynthReport(GateWord((best_seg,)), best_q, best_d, 0,
                               (0, 0), 0, 0)

        abandoned = 0

        # g itself, then g j^-1 = (g2, g3, -g0, -g1), as a diagonal
        # rotation times a C60 tail
        g0, g1, g2, g3 = target
        j_quat = GoldenQuat(0, 0, 1, 0)
        routes = ((target, ONE_QUAT, ""),
                  ((g2, g3, -g0, -g1), j_quat, table.j_word))
        for h, tail_quat, tail_seg in routes:
            # the distance from the unit h to the nearest diagonal
            # rotation, (h0, h1, 0, 0) / |(h0, h1)|
            with mp.workprec(wbits):
                d_h = mp.sqrt(max(0, 1 - mp.hypot(h[0], h[1])))
            if d_h < eps / 2:
                diag = synth_diagonal(mp.atan2(h[1], h[0]), eps - d_h,
                                      precision_bits=bits)
                abandoned += diag.abandoned_count
                word = diag.word.concat(GateWord((tail_seg,)))
                product = diag.quaternion * tail_quat
                achieved = measure(target, product.to_vector(wbits))
                if achieved < goal:
                    return SynthReport(word, product, achieved, 0,
                                       (word.tau_count, 0), 0, abandoned)

        g_work, tail = target, None
        with mp.workprec(wbits):
            abs_a = mp.hypot(g0, g1)
            if abs_a <= mpf(EPSILON0) or near_unit_circle(abs_a):
                # rho has reduced norm 4, so target * rho / 2 is a unit
                g_work = tuple(x / 2 for x in _int_hamilton(
                    *target, *RHO.to_vector(wbits)))
                tail = GateWord((table.rho_inverse_word,))
                abs_a = mp.hypot(g_work[0], g_work[1])

        k_cap = cfg.k_cap
        if k_cap is None:
            k_cap = int(mp.ceil(mp.log(1 / eps) / mp.log(59))) + 12
        outer_eps = mpf("0.6") * eps
        bands = CentralBand(abs_a, eps)
        for k in bands.search(k_cap):
            for s in candidate_norms(bands, k):
                try:
                    q = build_central(k, s)
                    with mp.workprec(wbits):
                        tuned = tune_diagonals(g_work, q.to_vector(wbits))
                    central = exact_synthesize(q)
                    d1 = synth_diagonal(tuned.theta1, outer_eps,
                                        precision_bits=bits)
                    abandoned += d1.abandoned_count
                    d2 = synth_diagonal(tuned.theta2, outer_eps,
                                        precision_bits=bits)
                    abandoned += d2.abandoned_count
                except Abandoned:
                    abandoned += 1
                    continue
                except (NotRepresentable, BudgetExhausted):
                    continue
                word = d1.word.concat(central).concat(d2.word)
                product = d1.quaternion * q * d2.quaternion
                if tail is not None:
                    word = word.concat(tail)
                    product = product * RHO.conjugate()
                achieved = measure(target, product.to_vector(wbits))
                if achieved < goal:
                    return SynthReport(word, product, achieved,
                                       central.tau_count,
                                       (d1.tau_count, d2.tau_count), k,
                                       abandoned)
    raise BudgetExhausted(
        f"no approximation within {cfg.epsilon} up to central shell {k_cap}")
