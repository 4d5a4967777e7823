"""End-to-end acceptance checks.

Each test exercises one headline claim at its stated tolerance and
prints a single PASS/FAIL line (visible even under capture), so a full
run reads as a checklist.  These are deliberately slower and more
adversarial than the unit suites; everything here goes through public
entry points only.
"""

import json
import random
import statistics
import time
from fractions import Fraction

from mpmath import mp, mpf

from icogate.cli import main
from icogate.errors import InertPrime, NotRepresentable
from icogate.general import SynthConfig, synth_general
from icogate.goldengrid import enumerate_region
from icogate.golden import (ETA, GoldenInt, PHI, eta_valuation, exact_div,
                            factor, sign_minus, sign_plus, split_prime)
from icogate.icosian import (TAU, GateWord, canonical, exact_synthesize,
                             generate_c60, word_to_quat)
from icogate.sots import sots_exact
from icogate.unitary import (distance, tune_diagonals, tuning_constant,
                             u_of_alpha_beta, u_of_theta)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_1_t_gate_reproduction(capsys):
    """synth-diag pi/8 at 1e-10: achieved <= 1.5e-10, tau <= 22, < 5 min."""
    start = time.perf_counter()
    code = main(["synth-diag", "--theta", "pi/8", "--eps", "1e-10",
                 "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    tau = payload["word"]["tau_count"]
    achieved = payload["achieved"]
    ok = (code == 0 and achieved <= 1.5e-10 and tau <= 22 and elapsed < 300)
    report(capsys, 1, ok,
           f"synth-diag pi/8 @ 1e-10: tau {tau}, achieved {achieved:.3g}, "
           f"{elapsed:.0f}s")


def test_criterion_2_h_gate_reproduction(capsys):
    """synth --gate H at 1e-10: central <= 12, outer <= 22 each,
    total <= 1.5e-10, < 15 min."""
    start = time.perf_counter()
    code = main(["synth", "--gate", "H", "--eps", "1e-10", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    central = payload["central_tau"]
    outer = payload["outer_tau"]
    achieved = payload["achieved"]
    ok = (code == 0 and central <= 12 and max(outer) <= 22
          and achieved <= 1.5e-10 and elapsed < 900)
    report(capsys, 2, ok,
           f"synth H @ 1e-10: central {central}, outer {tuple(outer)}, "
           f"achieved {achieved:.3g}, {elapsed:.0f}s")


def test_criterion_3_scaling_law(capsys):
    """Median tau-count within the 7/3 law (wide slack) and the proven
    distance bound on every run, 30 random targets per epsilon."""
    rng = random.Random(20260825)
    c = tuning_constant()
    details = []
    ok = True
    for eps in (1e-3, 1e-6):
        taus = []
        for _ in range(30):
            with mp.workprec(220):
                a = mp.sqrt(mpf(rng.random())) \
                    * mp.expj(mpf(rng.uniform(-3.14, 3.14)))
                b = mp.sqrt(1 - abs(a) ** 2) \
                    * mp.expj(mpf(rng.uniform(-3.14, 3.14)))
                g = u_of_alpha_beta(a, b, 220)
            r = synth_general(g, SynthConfig(eps))
            taus.append(r.word.tau_count)
            if not r.achieved < (c + 2) * mpf(eps):
                ok = False
        med = statistics.median(taus)
        limit = 1.3 * (7 / 3) * 3 * mp.log(1 / mpf(eps)) / mp.log(59) + 10
        if not med <= limit:
            ok = False
        details.append(f"eps {eps:g}: median tau {med:g} (limit {float(limit):.1f})")
    report(capsys, 3, ok, "; ".join(details))


def _random_reduced_word(rng, k):
    """A k-tau word whose quaternion stays content-free (no seam of the
    word collapses through tau^2 = -eta), found by rejection."""
    while True:
        segs = [_segment(rng, allow_empty=True)]
        for _ in range(k):
            segs.append(_segment(rng, allow_empty=False))
        if rng.random() < 0.5:
            segs[-1] = ""
        word = GateWord(tuple(segs)) if k else GateWord((segs[0],))
        q = word_to_quat(word)
        if eta_valuation(canonical(q).nrd()) == word.tau_count:
            return word


def _segment(rng, allow_empty):
    length = rng.randint(0 if allow_empty else 1, 6)
    return "".join(rng.choice("rs") for _ in range(length))


def _peel_oracle(q):
    """All c in C60 with q*c*tau divisible by eta, by trial division."""
    return [c for c, _ in generate_c60()
            if all(exact_div(x, ETA) is not None
                   for x in (q * (c * TAU)).parts())]


def test_criterion_4_exact_roundtrip(capsys):
    """200 random reduced words, k <= 30: refactoring is projectively
    exact with the same tau-count and a unique peeling at every step."""
    rng = random.Random(424242)
    start = time.perf_counter()
    ok = True
    checked = 0
    for _ in range(200):
        k = rng.randint(0, 30)
        word = _random_reduced_word(rng, k)
        q = word_to_quat(word)
        again = exact_synthesize(q)
        if again.tau_count != word.tau_count:
            ok = False
        if canonical(word_to_quat(again)) != canonical(q):
            ok = False
        gamma = canonical(q)
        for _ in range(word.tau_count):
            cands = _peel_oracle(gamma)
            if len(cands) != 1:
                ok = False
                break
            gamma = canonical(gamma * (cands[0] * TAU))
        checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(capsys, 4, ok,
           f"{checked} reduced words round-tripped, unique peeling, "
           f"{elapsed:.0f}s")


def test_criterion_5_norm_euclidean(capsys):
    """verify-ne at the published grid: zero violations, under a minute."""
    start = time.perf_counter()
    code = main(["verify-ne", "--n", "6", "--r", "1/12", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (code == 0 and not payload["violations"] and elapsed < 60)
    report(capsys, 5, ok,
           f"grid 6, radius 1/12: {len(payload['violations'])} violations, "
           f"{elapsed:.1f}s")


def _embedding_box(bound):
    bmax = int(2 * bound / 5 ** 0.5) + 2
    amax = int(bound + bmax * 1.7) + 2
    big = GoldenInt(bound)
    out = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            x = GoldenInt(a, b)
            if (sign_plus(big - x) >= 0 and sign_plus(big + x) >= 0
                    and sign_minus(big - x) >= 0 and sign_minus(big + x) >= 0):
                out.append(x)
    return out


def test_criterion_6_ring_and_sots_oracles(capsys):
    """Factoring round-trips, split_prime classification, and exhaustive
    two-squares agreement with brute force on the 40-box."""
    rng = random.Random(606060)
    ok = True
    notes = []

    trips = 0
    while trips < 1000:
        x = GoldenInt(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if not x or abs(x.norm()) > 10 ** 6:
            continue
        if factor(x).value() != x:
            ok = False
            break
        trips += 1
    notes.append(f"{trips} factor round-trips")

    primes = [p for p in range(2, 1000)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    for p in primes:
        if p % 5 in (2, 3):
            try:
                split_prime(p)
                ok = False
            except InertPrime:
                pass
        else:
            g = split_prime(p)
            if abs(g.norm()) != (5 if p == 5 else p):
                ok = False
    notes.append(f"{len(primes)} primes classified")

    # a representable x*phi in the 40-box has parts with squared
    # embeddings <= 40*phi < 81, so box(9) makes the table exhaustive
    # for both x and x*phi membership queries
    squares = {s * s for s in _embedding_box(9)}
    table = set()
    big = GoldenInt(140)
    for s2 in squares:
        for t2 in squares:
            v = s2 + t2
            if (sign_plus(big - v) >= 0 and sign_minus(big - v) >= 0):
                table.add(v)
    box = _embedding_box(40)
    both = 0
    for x in box:
        if not x:
            continue
        try:
            s, t = sots_exact(x)
            got = s * s + t * t == x
        except NotRepresentable:
            got = False
        if got != (x in table):
            ok = False
            break
        if x in table and x * PHI in table:
            both += 1  # the golden-twist dichotomy forbids this
    if both:
        ok = False
    notes.append(f"{len(box)} elements vs brute-force table, "
                 f"{both} dichotomy violations")

    report(capsys, 6, ok, "; ".join(notes))


def _rational(rng, lo, hi):
    """An integer, or a fraction with a small denominator, in [lo, hi]."""
    den = rng.choice((1, 1, 2, 3, 7, 64))
    return Fraction(rng.randint(lo * den, hi * den), den)


def _interval(rng, narrow):
    width = (Fraction(1, rng.choice((1, 4, 64, 512))) if narrow
             else Fraction(rng.randint(4, 16)))
    lo = _rational(rng, -8, 8)
    return lo, lo + width


def _grid_scan(plus, minus):
    """Every a + b*phi with sigma_plus in plus and sigma_minus in minus,
    by a full scan of a box that provably contains them, tested with
    exact integer signs."""
    big_p = max(abs(v) for v in plus)
    big_m = max(abs(v) for v in minus)
    # b*sqrt5 = sigma_plus - sigma_minus and 2a + b = sigma_plus + sigma_minus
    b_max = int((big_p + big_m) / 2) + 1
    a_max = int((big_p + big_m + b_max) / 2) + 1
    tests = []
    for sign, (lo, hi) in ((sign_plus, plus), (sign_minus, minus)):
        tests.append((sign, lo.numerator, lo.denominator, 1))
        tests.append((sign, hi.numerator, hi.denominator, -1))
    out = set()
    for b in range(-b_max, b_max + 1):
        for a in range(-a_max, a_max + 1):
            x = GoldenInt(a, b)
            if all(sign(direction * (x * den - num)) >= 0
                   for sign, num, den, direction in tests):
                out.add(x)
    return out


def test_criterion_7_lattice_oracle(capsys):
    """500 random rectangles in the embedding plane, with integer or
    rational endpoints and strongly unbalanced plus/minus widths, give
    goldengrid.enumerate_region exactly the points of a full scan."""
    rng = random.Random(777)
    ok = True
    points = unbalanced = 0
    for trial in range(500):
        shape = trial % 3  # narrow plus, narrow minus, or both random
        narrow_plus = shape == 0 or (shape == 2 and rng.random() < 0.5)
        plus = _interval(rng, narrow_plus)
        narrow_minus = shape == 1 or (shape == 2 and rng.random() < 0.5)
        minus = _interval(rng, narrow_minus)
        widths = sorted((plus[1] - plus[0], minus[1] - minus[0]))
        unbalanced += widths[1] >= 64 * widths[0]
        with mp.workprec(96):
            got = enumerate_region(*(mpf(v.numerator) / v.denominator
                                     for v in plus + minus))
        expected = _grid_scan(plus, minus)
        points += len(expected)
        if len(got) != len(set(got)) or set(got) != expected:
            ok = False
            break
    report(capsys, 7, ok and points > 500,
           f"{trial + 1} rectangles ({unbalanced} with width ratio >= 64, "
           f"{points} points) against full box scans")


def test_criterion_8_tuning_bound(capsys):
    """1000 hypothesis-satisfying pairs obey d < C * ||a1| - |a2||."""
    rng = random.Random(88888)
    c = tuning_constant()
    ok = True
    worst = mpf(0)
    with mp.workprec(160):
        done = 0
        while done < 1000:
            m1 = mpf(rng.uniform(0.02, 0.97))
            m2 = mpf(rng.uniform(0.02, 0.97))
            if abs(m1 - m2) >= mpf("0.5") or abs(m1 - m2) < mpf("1e-6"):
                continue
            gs = []
            for m in (m1, m2):
                a = m * mp.expj(mpf(rng.uniform(-3.14, 3.14)))
                b = mp.sqrt(1 - m ** 2) * mp.expj(mpf(rng.uniform(-3.14, 3.14)))
                gs.append(u_of_alpha_beta(a, b, 160))
            tuned = tune_diagonals(gs[0], gs[1])
            d = distance(gs[0], u_of_theta(tuned.theta1, 160) @ gs[1]
                         @ u_of_theta(tuned.theta2, 160))
            ratio = d / (c * abs(m1 - m2))
            worst = max(worst, ratio)
            if not ratio < 1:
                ok = False
            done += 1
    report(capsys, 8, ok,
           f"1000 tuned pairs, worst d / (C * gap) = {mp.nstr(worst, 3)}")
