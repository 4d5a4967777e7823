"""End-to-end acceptance checks.

Each test exercises one headline claim at its stated tolerance and
prints a single PASS/FAIL line (visible even under capture), so a full
run reads as a checklist.  These are deliberately slower and more
adversarial than the unit suites; everything here goes through public
entry points only.
"""

import json
import math
import random
import statistics
import time

from mpmath import mp, mpf

from band_oracle import band, band_scan
from peel_oracle import peel_oracle
from icogate.cli import main
from icogate.errors import InertPrime, NotRepresentable
from icogate.general import (CentralBand, SynthConfig, candidate_norms,
                             synth_general)
from icogate.golden import (GoldenInt, PHI, eta_valuation, factor,
                            sign_minus, sign_plus, split_prime)
from icogate.icosian import (TAU, GateWord, canonical, exact_synthesize,
                             word_to_quat)
from icogate.sots import sots_exact
from icogate.unitary import (distance, precision_for, to_quaternion,
                             tune_diagonals, tuning_constant,
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
            cands = peel_oracle(gamma)
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


def test_criterion_7_lattice_oracle(capsys):
    """500 seeded norm bands (k, |alpha|, eps) of general synthesis,
    most of them far narrower on the plus side than on the minus side,
    give general.candidate_norms exactly the points of an exact row
    scan that uses no lattice reduction, in the same order."""
    rng = random.Random(777)
    ok = True
    points = unbalanced = 0
    for trial in range(500):
        k = rng.randint(0, 10)
        abs_alpha = rng.uniform(0.05, 0.95)
        # a band holds about 0.9 eps |alpha| 59^k points: aim for 0.5-300
        count = math.exp(rng.uniform(math.log(0.5), math.log(300)))
        eps = min(0.9, count / (0.9 * abs_alpha * 59 ** k))
        with mp.workprec(precision_for(eps)):
            _, _, lo, hi, hm = band(k, abs_alpha, eps)
            widths = sorted((hi - lo, hm))
            unbalanced += widths[1] >= 64 * widths[0]
            got = list(candidate_norms(CentralBand(abs_alpha, eps), k))
            expected = band_scan(k, abs_alpha, eps)
        points += len(expected)
        if got != expected:
            ok = False
            break
    report(capsys, 7, ok and points > 5000 and 3 * unbalanced >= 500,
           f"{trial + 1} bands ({unbalanced} with width ratio >= 64, "
           f"{points} points) against exact row scans")


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
            tuned = tune_diagonals(to_quaternion(gs[0]),
                                   to_quaternion(gs[1]))
            d = distance(gs[0], u_of_theta(tuned.theta1, 160) @ gs[1]
                         @ u_of_theta(tuned.theta2, 160))
            ratio = d / (c * abs(m1 - m2))
            worst = max(worst, ratio)
            if not ratio < 1:
                ok = False
            done += 1
    report(capsys, 8, ok,
           f"1000 tuned pairs, worst d / (C * gap) = {mp.nstr(worst, 3)}")
