"""Synthesis of diagonal rotations u(theta) = diag(e^{i theta}, e^{-i theta}).

The approximating quaternion gamma = (x0, x1, x2, x3) must satisfy
x0^2 + x1^2 + x2^2 + x3^2 = eta^m exactly with (x0 + i x1)/eta^{m/2}
close to e^{i theta}.  Searching shortest-first in m, the candidate
pairs (x1, x0) come from enumerating Z[phi] elements whose two real
embeddings lie in a rectangle (goldengrid), and (x2, x3) is a
sum-of-two-squares certificate for the exact residual.  Success at
exponent m gives a word with exactly m taus, and m lands at
(1+o(1))*log_59(1/eps^3) because each residual has a roughly constant
chance of being representable.

Each shell needs cos(theta) > 0: the fidelity slab on x0 is then a
plus-embedding interval, so every search region is a rectangle.
synth_diagonal folds theta into [-pi/2, pi/2) and snaps to the C60
element u(pi/2) before any shell when theta is near the quarter turn,
which covers the folded angle -pi/2.  A residual is skipped when its
factorization runs out of the Pollard-rho budget, the only abandonment
rule.

All operations here expect to run under mp.workprec(precision_for(eps))
or wider; synth_diagonal sets that up itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from mpmath import mp, mpf

from .errors import (Abandoned, BudgetExhausted, MalformedInput,
                     NoPeelingCandidate, NotInGroup, NotRepresentable)
from .golden import ETA, GoldenInt, embed, eta_power
from .goldengrid import enumerate_region, stream_center_out
from .icosian import GateWord, GoldenQuat, evaluate_word, exact_synthesize
from .sots import sots_exact
from .unitary import distance, precision_for, u_of_theta

__all__ = ["DiagonalProblem", "solve_x1", "solve_x0", "solve_x23",
           "synth_diagonal"]


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


def _eta_pow(m_half_exp: int, which: str):
    base = embed(ETA, which, mp.prec)
    return mp.power(base, mpf(m_half_exp) / 2)


@lru_cache(maxsize=128)
def _shell(prob: DiagonalProblem, prec: int):
    """Real quantities shared by every row of one search shell."""
    with mp.workprec(prec):
        theta, eps, m = mpf(prob.theta), mpf(prob.epsilon), prob.m_exp
        hp = _eta_pow(m, "plus")
        hm = _eta_pow(m, "minus")
        s, c = mp.sin(theta), mp.cos(theta)
        cap = hp * (1 - eps ** 2)
        mu = cap * s
        w = hp * abs(c) * mp.sqrt(2 - eps ** 2) * eps
        ep = _eta_pow(2 * m, "plus")
        em = _eta_pow(2 * m, "minus")
    return hp, hm, s, c, cap, mu, w, ep, em


def solve_x1(prob: DiagonalProblem) -> Iterator[GoldenInt]:
    """Stream x1 = c + d*phi satisfying, for h = eta^{m/2}:

        x1 sin(theta) <= h (1 - eps^2)
        |sigma_+ x1| <= h,   |sigma_- x1| <= (sigma_- eta)^{m/2}
        |x1 - h (1 - eps^2) sin(theta)| <= h |cos(theta)| sqrt(2-eps^2) eps

    ordered center-out from the band midpoint.  Enumeration covers the
    rectangle rows only; the first inequality (which cuts the band only
    when theta is within about eps of a quarter turn) and any spurious
    boundary points are enforced by the numeric recheck before a value
    is yielded.
    """
    hp, hm, s, c, cap, mu, w, ep, em = _shell(prob, mp.prec)
    plus_lo, plus_hi = max(mu - w, -hp), min(mu + w, hp)
    for x in stream_center_out(plus_lo, plus_hi, -hm, hm, center=mu):
        xp = embed(x, "plus", mp.prec)
        xm = embed(x, "minus", mp.prec)
        if (xp * s <= cap and abs(xp) <= hp and abs(xm) <= hm
                and abs(xp - mu) <= w):
            yield x


def solve_x0(prob: DiagonalProblem, x1: GoldenInt) -> list[GoldenInt]:
    """All x0 = a + b*phi satisfying, for h = eta^{m/2}:

        h (1 - eps^2) <= x0 cos(theta) + x1 sin(theta) <= h
        |sigma_pm x0| <= sqrt(max(0, (sigma_pm eta)^m - (sigma_pm x1)^2))

    sorted by decreasing trace overlap x0 cos(theta) + x1 sin(theta), so
    the first candidate gives the smallest distance."""
    hp, hm, s, c, cap, mu, w, ep, em = _shell(prob, mp.prec)
    x1p = embed(x1, "plus", mp.prec)
    x1m = embed(x1, "minus", mp.prec)
    sp = mp.sqrt(max(mpf(0), ep - x1p ** 2))
    sm = mp.sqrt(max(mpf(0), em - x1m ** 2))
    lo_f = cap - x1p * s
    hi_f = hp - x1p * s
    # cos(theta) > 0, so the fidelity slab is a plus-embedding interval
    plus_lo = max(-sp, lo_f / c)
    plus_hi = min(sp, hi_f / c)
    out = []
    for x in enumerate_region(plus_lo, plus_hi, -sm, sm):
        xp = embed(x, "plus", mp.prec)
        xm = embed(x, "minus", mp.prec)
        overlap = xp * c + x1p * s
        if (lo_f <= xp * c <= hi_f and abs(xp) <= sp and abs(xm) <= sm):
            out.append((overlap, (x.a, x.b), x))
    out.sort(key=lambda item: (-item[0], item[1]))
    return [x for _, _, x in out]


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
        target = u_of_theta(t, bits)
        # u(+-pi/2) = diag(i, -i) projectively, a C60 element.  Snap to
        # it whenever it is already close enough; this covers exact
        # cos(theta) = 0 and the nearby regime where the search bands
        # (whose widths scale with cos(theta)) degenerate.
        q = GoldenQuat(0, 1, 0, 0)
        word = exact_synthesize(q)
        achieved = distance(target, evaluate_word(word, bits))
        if achieved < eps:
            return q, word, achieved
        if m_cap is None:
            m_cap = int(mp.ceil(3 * mp.log(1 / eps) / mp.log(59))) + 12
        for m in range(m_cap + 1):
            prob = DiagonalProblem(t, eps, m)
            for x1 in solve_x1(prob):
                for x0 in solve_x0(prob, x1):
                    try:
                        pair = solve_x23(m, x0, x1)
                    except Abandoned:
                        if stats is not None:
                            stats["abandoned"] = stats.get("abandoned", 0) + 1
                        continue
                    if pair is None:
                        continue
                    q = GoldenQuat(x0, x1, *pair)
                    try:
                        word = exact_synthesize(q)
                    except (NotInGroup, NoPeelingCandidate):
                        continue
                    achieved = distance(target, evaluate_word(word, bits))
                    if achieved < eps:
                        return q, word, achieved
    raise BudgetExhausted(
        f"no approximation of u({theta}) within {epsilon} "
        f"up to eta-exponent {m_cap}")
