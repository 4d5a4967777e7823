"""Seeded inputs for the three workloads.

Every input is built here, outside the timed region, from the workload
seed alone; the program under test only ever sees the finished targets.

deep-headline   u(pi/8) at eps = 1e-6, 1e-7, 1e-8 through synth_diagonal
                and H at 1e-6, 1e-7 through synth_general; the same for
                every seed.
haar-shallow    64 Haar-random SU(2) targets at eps = 1e-3 through
                synth_general.  |alpha|^2 is uniform under the Haar
                measure, so it is drawn once in each of 64 equal strata
                (in seeded order) and the phases of alpha and beta
                uniformly: every target is Haar-distributed while the
                mix of near-diagonal, generic and near-antidiagonal
                targets, which decides the route and most of the cost,
                is the same for every seed.
exact-words     42 random {rho, sigma, tau} words, two of each tau-count
                30..50, each {r, s} segment between taus a random
                non-scalar element, through word_to_quat ->
                exact_synthesize.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from check import word_product, working_bits

WORKLOADS = ("deep-headline", "haar-shallow", "exact-words")

HAAR_TARGETS = 64
HAAR_EPS = 1e-3
WORD_TAUS = range(30, 51)
WORDS_PER_TAU = 2


@dataclass(frozen=True)
class Target:
    """One compile operation.  kind is "diagonal" (theta given),
    "general" (matrix rows given) or "exact" (word given)."""

    label: str
    kind: str
    epsilon: float | None = None
    bits: int | None = None
    theta: object = None
    rows: tuple | None = None
    word: str | None = None


def _diagonal(label: str, num: int, den: int, eps: float) -> Target:
    bits = working_bits(eps)
    with mp.workprec(bits):
        theta = mp.pi * num / den
    return Target(label, "diagonal", eps, bits, theta=theta)


def _hadamard(eps: float) -> Target:
    bits = working_bits(eps)
    with mp.workprec(bits):
        r = 1 / mp.sqrt(2)
        rows = ((mpc(r), mpc(r)), (mpc(r), mpc(-r)))
    return Target(f"H@{eps:g}", "general", eps, bits, rows=rows)


def deep_headline(seed: int) -> list[Target]:
    del seed  # the headline gates are fixed
    return ([_diagonal(f"u(pi/8)@{eps:g}", 1, 8, eps)
             for eps in (1e-6, 1e-7, 1e-8)]
            + [_hadamard(eps) for eps in (1e-6, 1e-7)])


def haar_shallow(seed: int) -> list[Target]:
    rng = random.Random(seed)
    bits = working_bits(HAAR_EPS)
    strata = list(range(HAAR_TARGETS))
    rng.shuffle(strata)
    out = []
    for i, stratum in enumerate(strata):
        a2 = (stratum + rng.random()) / HAAR_TARGETS
        pa = rng.uniform(-math.pi, math.pi)
        pb = rng.uniform(-math.pi, math.pi)
        with mp.workprec(bits):
            ra = mp.sqrt(mpf(a2))
            rb = mp.sqrt(1 - mpf(a2))
            alpha = ra * mp.expj(mpf(pa))
            beta = rb * mp.expj(mpf(pb))
            rows = ((alpha, beta), (-mp.conj(beta), mp.conj(alpha)))
        out.append(Target(f"haar{i}", "general", HAAR_EPS, bits, rows=rows))
    return out


def _is_scalar(q) -> bool:
    return all(x == (0, 0) for x in q[1:])


def _segment(rng: random.Random) -> str:
    """A random {r, s} word of length 1..6 that is not a scalar, so no
    tau-segment-tau triple collapses to a multiple of eta."""
    while True:
        seg = "".join(rng.choice("rs") for _ in range(rng.randint(1, 6)))
        if not _is_scalar(word_product(seg)):
            return seg


def exact_words(seed: int) -> list[Target]:
    rng = random.Random(seed)
    counts = [t for t in WORD_TAUS for _ in range(WORDS_PER_TAU)]
    rng.shuffle(counts)
    out = []
    for i, taus in enumerate(counts):
        segs = [_segment(rng) for _ in range(taus + 1)]
        word = "t".join(f"({s})" for s in segs)
        out.append(Target(f"word{i}", "exact", word=word))
    return out


def build(workload: str, seed: int) -> list[Target]:
    return {"deep-headline": deep_headline, "haar-shallow": haar_shallow,
            "exact-words": exact_words}[workload](seed)
