"""A brute-force optimality oracle for diagonal targets at shallow eps.

Every group element with at most 2 taus is one of the 60 + 3,600 +
212,400 words c0, c0 tau c1 and c0 tau c1 tau c2 over C60, where c1 is
not the one element for which tau c1 tau has eta-content (that word
collapses to C60).  They are built as float unit quaternions.  For a
diagonal target u(theta) = (cos theta, sin theta, 0, 0) the distance to
a unit q is sqrt(1 - r |cos(theta - a)|), with (q0, q1) = r (cos a,
sin a), so only the elements with r > 1 - eps^2 can lie within eps, and
only those with a within acos(1 - eps^2) of theta mod pi; each level
keeps those elements sorted by a and scans the window around theta.
Every float distance within 1e-9 of eps is measured again in mpf on the
exact product.  The fewest taus of any word within eps is compared with
synth_diagonal's word.
"""

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache

from mpmath import mp, mpf

from icogate.diagonal import synth_diagonal
from icogate.icosian import TAU, canonical, generate_c60, tau_count
from icogate.unitary import quaternion_distance

EPSILONS = (0.1, 0.12, 0.15, 0.2, 0.3)
R_MIN = 1 - max(EPSILONS) ** 2
CHECK_BITS = 128


def _float_unit(q):
    v = [float(x) for x in q.to_vector(64)]
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


def _mul(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
            x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
            x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
            x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0)


class _Level:
    """The elements of one level with r > R_MIN, sorted by their angle a
    in [0, pi), each with the index tuple that rebuilds it exactly."""

    def __init__(self, entries):
        entries.sort()
        self.angles = [a for a, _, _ in entries]
        self.entries = entries

    def window(self, theta, half):
        """Entries whose angle is within half of theta mod pi."""
        lo, hi = (theta - half) % math.pi, (theta + half) % math.pi
        if lo <= hi:
            return self.entries[bisect_left(self.angles, lo):
                                bisect_right(self.angles, hi)]
        return (self.entries[bisect_left(self.angles, lo):]
                + self.entries[:bisect_right(self.angles, hi)])


def _keep(entries, q, index):
    r = math.hypot(q[0], q[1])
    if r > R_MIN:
        entries.append((math.atan2(q[1], q[0]) % math.pi, r, index))


@lru_cache(maxsize=None)
def levels():
    """The three levels, and the element counts per level."""
    table = list(generate_c60())
    c60 = [_float_unit(q) for q, _ in table]
    tau = _float_unit(TAU)
    # the one c1 with eta | tau c1 tau
    backtrack = [i for i, (q, _) in enumerate(table)
                 if tau_count(canonical(TAU * q * TAU)) < 2]
    assert len(backtrack) == 1
    counts = [0, 0, 0]
    out = [[], [], []]
    for i, c in enumerate(c60):
        _keep(out[0], c, (i,))
    counts[0] = len(c60)
    tau_c = [_mul(tau, c) for c in c60]
    one = {}
    for i, c in enumerate(c60):
        for j, tc in enumerate(tau_c):
            q = one[i, j] = _mul(c, tc)
            _keep(out[1], q, (i, j))
    counts[1] = len(one)
    for (i, j), x in one.items():
        if j == backtrack[0]:
            continue
        x0, x1, x2, x3 = x
        for k, (y0, y1, y2, y3) in enumerate(tau_c):
            # only (q0, q1) of the product is needed
            _keep(out[2], (x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
                           x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2), (i, j, k))
            counts[2] += 1
    return [_Level(entries) for entries in out], counts


def _exact(index):
    table = list(generate_c60())
    q = table[index[0]][0]
    for i in index[1:]:
        q = q * TAU * table[i][0]
    return q


def _within(level, theta, eps):
    """Whether some element of level lies strictly within eps of
    u(theta); float distances within 1e-9 of eps are measured in mpf."""
    floor = 1 - eps * eps
    # the 1e-6 keeps the window edge clear of float round-off
    for a, r, index in level.window(theta, math.acos(floor) + 1e-6):
        d = math.sqrt(max(0.0, 1 - r * abs(math.cos(theta - a))))
        if abs(d - eps) < 1e-9:
            with mp.workprec(CHECK_BITS):
                target = (mp.cos(theta), mp.sin(theta), mpf(0), mpf(0))
                d_exact = quaternion_distance(
                    target, _exact(index).to_vector(CHECK_BITS))
                if d_exact < mpf(eps):
                    return True
        elif d < eps:
            return True
    return False


def fewest_taus(theta, eps):
    """The fewest taus of any word within eps of u(theta), or 3 when no
    word with at most 2 taus is."""
    assert eps <= max(EPSILONS)
    for taus, level in enumerate(levels()[0]):
        if _within(level, theta, eps):
            return taus
    return 3


def seeded_targets(count=200, seed=11):
    rng = random.Random(seed)
    return [(rng.uniform(-1.5, 1.5), rng.choice(EPSILONS))
            for _ in range(count)]


def oracle_pairs():
    """(fewest taus, synth_diagonal taus) for every seeded target."""
    return [(fewest_taus(theta, eps), synth_diagonal(theta, eps)[1].tau_count)
            for theta, eps in seeded_targets()]


def test_levels_hold_every_element_with_at_most_two_taus():
    _, counts = levels()
    assert counts == [60, 3600, 212400]


def test_oracle_finds_the_c60_snap_and_a_one_tau_word():
    # u(1.1) @ 0.3: (rsrsrr) lies at 0.2285; u(0.88558) @ 0.15: a 1-tau
    # word lies at 0.0485
    assert fewest_taus(1.1, 0.3) == 0
    assert fewest_taus(0.88558, 0.15) == 1


def test_no_target_beats_the_oracle_and_c60_hits_cost_no_tau():
    pairs = oracle_pairs()
    counts = Counter(pairs)
    assert all(taus >= fewest for fewest, taus in pairs), counts
    assert all(taus == 0 for fewest, taus in pairs if fewest == 0), counts
    assert counts[0, 0] > 0 and sum(counts.values()) == 200
