import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import icogate.diagonal
from icogate.diagonal import (DiagonalTarget, _fold_theta, _top_shell,
                              solve_shell, synth_diagonal)
from icogate.errors import (BudgetExhausted, MalformedInput, NotInGroup,
                            NotRepresentable)
from icogate.golden import (GoldenInt, embed, eta_power, eta_valuation,
                            sign_minus, sign_plus)
from icogate.icosian import GoldenQuat, canonical, evaluate_word
from icogate.sots import sots_exact
from icogate.unitary import distance, precision_for, u_of_theta
from test_goldengrid import _inverse_and_det

BITS = 160


def cap_x1_range(theta, eps, hp):
    """The plus embeddings x1 takes on the eps-cap of the disk of radius
    hp around angle theta: hp sin over [theta - delta, theta + delta]
    within the quarter turns, cos(delta) = 1 - eps^2."""
    delta = mp.acos(1 - eps ** 2)
    return (hp * mp.sin(max(theta - delta, -mp.pi / 2)),
            hp * mp.sin(min(theta + delta, mp.pi / 2)))


def totally_nonnegative(x):
    return sign_plus(x) >= 0 and sign_minus(x) >= 0


def brute_x1(theta, eps, m):
    """Direct scan of a safely oversized (a, b) box for the x1 of the
    cap's x1-range, widened by a rounding margin, with eta^m - x1^2
    totally nonnegative: every x1 of a pair within eps is among them."""
    theta, eps = mpf(theta), mpf(eps)
    hp = mp.power(embed(eta_power(1), "plus", mp.prec), mpf(m) / 2)
    hm = mp.power(abs(embed(eta_power(1), "minus", mp.prec)), mpf(m) / 2)
    lo, hi = cap_x1_range(theta, eps, hp)
    slack = mp.ldexp(hp, 8 - mp.prec)
    eta_m = eta_power(m)
    box_d = int(mp.floor((hp + hm) / mp.sqrt(5))) + 2
    box_a = int(mp.floor(hp + box_d * 1.7)) + 2
    out = set()
    for a in range(-box_a, box_a + 1):
        for b in range(-box_d, box_d + 1):
            x = GoldenInt(a, b)
            if (lo - slack <= embed(x, "plus", mp.prec) <= hi + slack
                    and totally_nonnegative(eta_m - x * x)):
                out.add(x)
    return out


def x0_box(theta, m):
    """Every (a, b) of the shell's x0 scans, as (x, x_plus * cos(theta),
    |x_plus|, |x_minus|).  Each x1's box grows with the square roots of
    its slack, which are largest, sqrt(ep) and sqrt(em), at x1 = 0, so
    this one box holds them all, and it is embedded only once."""
    ep = mp.power(embed(eta_power(1), "plus", mp.prec), m)
    em = mp.power(abs(embed(eta_power(1), "minus", mp.prec)), m)
    sp, sm = mp.sqrt(ep), mp.sqrt(em)
    c = mp.cos(mpf(theta))
    box_d = int(mp.floor((sp + sm) / mp.sqrt(5))) + 2
    box_a = int(mp.floor(sp + box_d * 1.7)) + 2
    out = []
    for a in range(-box_a, box_a + 1):
        for b in range(-box_d, box_d + 1):
            x = GoldenInt(a, b)
            xp = embed(x, "plus", mp.prec)
            out.append((x, xp * c, abs(xp), abs(embed(x, "minus", mp.prec))))
    return out


def brute_x0(theta, eps, m, x1, box):
    """The x0 of x0_box that make (x0, x1) a pair of shell m: the
    residual eta^m - x0^2 - x1^2 totally nonnegative, by exact signs,
    and the overlap at least h (1 - eps^2), at the same precision the
    solver uses.  mpf disks widened by a rounding margin pick the x0
    whose signs are taken."""
    theta, eps = mpf(theta), mpf(eps)
    hp = mp.power(embed(eta_power(1), "plus", mp.prec), mpf(m) / 2)
    s = mp.sin(theta)
    x1p = embed(x1, "plus", mp.prec)
    x1m = embed(x1, "minus", mp.prec)
    ep = mp.power(embed(eta_power(1), "plus", mp.prec), m)
    em = mp.power(abs(embed(eta_power(1), "minus", mp.prec)), m)
    slack = mp.ldexp(hp, 8 - mp.prec)
    sp = mp.sqrt(max(mpf(0), ep - x1p ** 2)) + slack
    sm = mp.sqrt(max(mpf(0), em - x1m ** 2)) + slack
    lo_f = hp * (1 - eps ** 2) - x1p * s
    z1 = eta_power(m) - x1 * x1
    return {x for x, xpc, xp, xm in box
            if lo_f <= xpc and xp <= sp and xm <= sm
            and totally_nonnegative(z1 - x * x)}


def brute_pairs(theta, eps, m):
    """The pairs within eps with a totally nonnegative residual, in the
    search order: x1 by distance from the centre of the cap's x1-range,
    then x0 by decreasing trace overlap, ties by coordinates."""
    theta, eps = mpf(theta), mpf(eps)
    hp = mp.power(embed(eta_power(1), "plus", mp.prec), mpf(m) / 2)
    s, c = mp.sin(theta), mp.cos(theta)
    mu = hp * (1 - eps ** 2) * s
    box = x0_box(theta, m)
    out = []
    for x1 in brute_x1(theta, eps, m):
        x1p = embed(x1, "plus", mp.prec)
        for x0 in brute_x0(theta, eps, m, x1, box):
            overlap = embed(x0, "plus", mp.prec) * c + x1p * s
            out.append(((abs(x1p - mu), (x1.a, x1.b), -overlap, (x0.a, x0.b)),
                        (x0, x1)))
    out.sort(key=lambda item: item[0])
    return [pair for _, pair in out]


@pytest.mark.parametrize("theta,eps,m", [
    (0.4, 0.3, 0), (0.4, 0.3, 1), (0.4, 0.3, 2), (0.4, 0.3, 3),
    (0.3926990817, 0.15, 0), (0.3926990817, 0.15, 1),
    (0.3926990817, 0.15, 2), (0.3926990817, 0.15, 3),
    (0.3926990817, 0.15, 4),
])
def test_solve_x1_matches_brute_force(theta, eps, m):
    """Every x1 that solve_shell pairs lies in the cap's x1-range with
    eta^m - x1^2 totally nonnegative, each x1 forms one run of pairs,
    and the runs go centre-out."""
    with mp.workprec(BITS):
        pairs = solve_shell(DiagonalTarget(theta, eps), m)
        got = [x1 for i, (_, x1) in enumerate(pairs)
               if i == 0 or pairs[i - 1][1] != x1]
        assert len(got) == len(set(got))
        assert set(got) <= brute_x1(theta, eps, m)
        # center-out ordering, ties up to representation noise
        mu = (mp.power(embed(eta_power(1), "plus", mp.prec), mpf(m) / 2)
              * (1 - mpf(eps) ** 2) * mp.sin(theta))
        dists = [abs(embed(x, "plus", mp.prec) - mu) for x in got]
        assert all(d1 - d2 <= mp.mpf(2) ** -60
                   for d1, d2 in zip(dists, dists[1:]))
        if m >= 2:
            assert got


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_solve_x0_matches_brute_force(m):
    """For every x1 of the cap's x1-range, solve_shell pairs it with
    exactly the x0 of the x0 scan, by decreasing trace overlap."""
    with mp.workprec(BITS):
        pairs = solve_shell(DiagonalTarget(0.4, 0.35), m)
        assert pairs == brute_pairs(0.4, 0.35, m)
        if m >= 1:
            assert pairs


@pytest.mark.parametrize("theta,eps,m", [
    (0.4, 0.3, 0), (0.4, 0.3, 1), (0.4, 0.3, 2),
    (0.3926990817, 0.15, 0), (0.3926990817, 0.15, 1),
    (0.3926990817, 0.15, 2),
    (-0.5, 0.3, 2), (-0.5, 0.05, 3),
    # within 1e-3 of the quarter turn: cos(theta) = 9e-4
    (1.5698963268, 0.05, 4),
    # cap half-width h eps sqrt(2 - eps^2) = 0.99, below one lattice
    # spacing; the ellipsoid is held only by the radius margin
    (0.68, 0.012, 3),
    # theta = 0: x0 = eta lies exactly on the slab edge r = h
    (0, 0.3, 2), (0, 0.05, 2),
])
def test_solve_shell_matches_brute_force(theta, eps, m):
    with mp.workprec(BITS):
        pairs = solve_shell(DiagonalTarget(theta, eps), m)
        assert pairs == brute_pairs(theta, eps, m)
        if m >= 2:
            assert pairs


def test_solve_shell_keeps_pairs_past_the_old_band():
    # past pi/2 - delta, cos(delta) = 1 - eps^2, the eps-cap reaches
    # x1 = h at the quarter turn, above h sin(theta + delta), the edge of
    # the band |x1 - mu| <= w that once cut pairs within eps
    theta, eps, m = 1.5698963268, 0.05, 4
    with mp.workprec(BITS):
        pairs = solve_shell(DiagonalTarget(theta, eps), m)
        want = brute_pairs(theta, eps, m)
        assert set(want) <= set(pairs)
        hp = mp.power(embed(eta_power(1), "plus", mp.prec), mpf(m) / 2)
        edge = hp * mp.sin(theta + mp.acos(1 - mpf(eps) ** 2))
        assert any(embed(x1, "plus", mp.prec) > edge for _, x1 in want)


def test_solve_shell_warm_start_agrees():
    # one search's shells through one target, each reduced from the
    # previous shell's transform; through a target whose shells were all
    # probed first, top down, so each is solved from the probe's
    # reduction; and each through a fresh target
    with mp.workprec(precision_for(1e-6)):
        theta, eps = mp.pi / 8, mpf("1e-6")
        reused = DiagonalTarget(theta, eps)
        probed = DiagonalTarget(theta, eps)
        for m in range(11, -1, -1):
            next(iter(probed.problem(m)[0]), None)
        for m in range(12):
            fresh = solve_shell(DiagonalTarget(theta, eps), m)
            assert solve_shell(reused, m) == fresh
            assert solve_shell(probed, m) == fresh
            assert reused.transform is not None


# synth_diagonal completes a pair (x0, x1) of shell m by
# sots_exact(eta^m - x0^2 - x1^2), skipping it on NotRepresentable


def test_zero_residual_certificate():
    # eta^0 - 1^2 - 0^2 = 0
    assert sots_exact(GoldenInt(0)) == (GoldenInt(0), GoldenInt(0))


def test_unit_residual_certificate():
    # eta^0 - 0 - 0 = 1 = 1^2 + 0^2
    x2, x3 = sots_exact(GoldenInt(1))
    assert x2 * x2 + x3 * x3 == GoldenInt(1)


def test_eta_residual_not_representable():
    # eta has norm 59 = 3 mod 4 to odd multiplicity: not a sum of two
    # squares, so the m=1 shell with x0 = x1 = 0 has no certificate
    with pytest.raises(NotRepresentable):
        sots_exact(eta_power(1))


def test_negative_residual_not_representable():
    # eta^0 - 2^2 < 0 in both embeddings
    with pytest.raises(NotRepresentable):
        sots_exact(GoldenInt(1 - 4))


def test_fold_theta_period_and_range():
    with mp.workprec(96):
        for t in [0, 0.3, -0.3, 1.5, 2.8, -2.9]:
            base = _fold_theta(t)
            assert -mp.pi / 2 <= base < mp.pi / 2
            for k in (-2, -1, 1, 2):
                assert abs(_fold_theta(t + k * mp.pi) - base) < mpf(2) ** -80
        assert _fold_theta(mp.pi / 2) == -mp.pi / 2


def test_synth_large_angle_reports_true_distance():
    # folding 1e400 mod pi needs ~1330 more bits than the working
    # precision; achieved must be the distance to u(1e400) itself
    theta = mpf("1e400")
    report = synth_diagonal(theta, 1e-3)
    with mp.workprec(2000):
        true = distance(u_of_theta(theta, 2000),
                        evaluate_word(report.word, 2000))
    assert true < 1e-3
    assert abs(report.achieved - true) < mpf(2) ** -60


def test_problem_validation():
    with pytest.raises(MalformedInput):
        DiagonalTarget(0.1, 0)
    with pytest.raises(MalformedInput):
        DiagonalTarget(0.1, 1.5)
    for m in (-1, 2.5, "2"):
        with pytest.raises(MalformedInput):
            solve_shell(DiagonalTarget(0.1, 0.5), m)
        with pytest.raises(MalformedInput):
            synth_diagonal(0.3, 1e-3, m_cap=m)
        with pytest.raises(MalformedInput):
            synth_diagonal(0.3, 1e-3, precision_bits=m)
    with pytest.raises(MalformedInput):
        synth_diagonal(0.3, 1e-3, precision_bits=200.5)
    with pytest.raises(MalformedInput):
        DiagonalTarget(mp.pi, 0.5)  # cos < 0: not folded


@pytest.mark.parametrize("eps,floor", [
    (1e-3, 52), (2.0 ** -10, 52), (0.5, 34), (0.3, 36), (1e-6, 72),
    (1e-10, 99),
])
def test_precision_floor(eps, floor):
    # the floor is the least p >= 2 log2(1/eps) + 32, read from eps's
    # exact mantissa; at it the reported distance is the word's own
    assert floor == math.ceil(2 * math.log2(1 / eps) + 32)
    for bits in (0, 8, floor - 1):
        with pytest.raises(MalformedInput):
            synth_diagonal(0.4, eps, precision_bits=bits)
    with mp.workprec(floor - 1), pytest.raises(MalformedInput):
        DiagonalTarget(0.4, eps)
    with mp.workprec(floor):
        DiagonalTarget(0.4, eps)
    report = synth_diagonal(0.4, eps, precision_bits=floor)
    with mp.workprec(300):
        true = distance(u_of_theta(mpf(0.4), 300),
                        evaluate_word(report.word, 300))
    assert true < eps
    assert abs(report.achieved - true) < mpf(2) ** (-floor // 2)


def solved_shells(monkeypatch, theta, eps):
    """The shells synth_diagonal(theta, eps) solves, in order, and the
    word it returns."""
    solved = []

    def counted(target, m):
        solved.append(m)
        return solve_shell(target, m)

    monkeypatch.setattr(icogate.diagonal, "solve_shell", counted)
    report = synth_diagonal(theta, eps)
    monkeypatch.undo()
    return solved, report.word


def assert_skipped_shells_empty(theta, eps, solved):
    """Each shell is solved at most once, in increasing order, and every
    shell below the last that the search skipped holds no pair."""
    assert solved == sorted(set(solved))
    with mp.workprec(precision_for(eps)):
        target = DiagonalTarget(_fold_theta(mpf(theta)), eps)
        for m in set(range(max(solved, default=-1))) - set(solved):
            assert solve_shell(target, m) == [], m


def test_synth_solves_every_shell_through_solve_shell(monkeypatch):
    # shells 6 and 5 are probed empty, which covers 0 to 6; shell 7 wins
    solved, word = solved_shells(monkeypatch, mp.pi / 8, 1e-4)
    assert_skipped_shells_empty(mp.pi / 8, 1e-4, solved)
    assert solved == [7]
    assert word.tau_count == 7


def unprobed_shells(theta, eps):
    """The shells up to the top one that synth_diagonal's probes leave
    to solve_shell, with the target's search driven directly up to the
    top shell."""
    with mp.workprec(precision_for(eps)):
        target = DiagonalTarget(_fold_theta(mpf(theta)), eps)
        top = _top_shell(mpf(eps))
        return list(target.search(top))


@pytest.mark.parametrize("theta, eps", [
    (0.3, 1e-6), (mpf(0), 1e-6), (mp.pi / 4 + 5e-4, 1e-3),
    (mp.atan(mp.phi), 1e-4), (-1.2, 1e-5),
])
def test_probes_skip_only_empty_shells(monkeypatch, theta, eps):
    solved, word = solved_shells(monkeypatch, theta, eps)
    if theta == 0:
        # the snap returns the identity before any shell is posed
        assert solved == [] and word.tau_count == 0
        solved = unprobed_shells(theta, eps)
    assert_skipped_shells_empty(theta, eps, solved)
    assert solved and word.tau_count <= solved[-1]


# the first shells with pairs; shell m + 2's ellipsoid holds 1e4 to 4e4
# lattice points
@pytest.mark.parametrize("theta, eps, shells", [
    (0.3, 0.02, (2, 3)), (0, 0.02, (2, 3)), (0, 0.05, (1, 2)),
    (mp.pi / 4 - 1e-7, 0.02, (2, 3)), (mp.atan(mp.phi), 5e-3, (3, 4)),
    (mp.atan(mp.phi), 0.05, (1, 2)),
])
def test_eta_maps_each_shell_into_the_next_but_one(theta, eps, shells):
    """eta (x0, x1) is a lattice point of shell m + 2's integer ellipsoid
    for every pair of shell m: the proof that lets a probe skip shells."""
    eta = eta_power(1)
    with mp.workprec(precision_for(eps)):
        target = DiagonalTarget(theta, eps)
        total = 0
        for m in shells:
            pairs = solve_shell(target, m)
            points = set(target.problem(m + 2)[0])
            for x0, x1 in pairs:
                y0, y1 = eta * x0, eta * x1
                assert (y0.a, y0.b, y1.a, y1.b) in points, (m, x0, x1)
            total += len(pairs)
        assert total > 0


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-20, 4.2e-5, 8.9e-13])
def test_top_shell_is_the_last_with_volume_at_most_one(eps):
    """_top_shell(eps) is the highest shell whose ellipsoid, as
    DiagonalTarget.pose(m) poses it at scale 2^e, has volume at most 1:
    the 4-ball's (pi^2 / 2) radius_sq^2 times 2^(4e) over the exact
    determinant of the integer basis.  So its constant cannot drift
    from the pose; at 4.2e-5 and 8.9e-13 the top shell's volume is
    above 25/36, so a constant 36/25 times too large moves the top."""
    with mp.workprec(precision_for(eps)):
        target = DiagonalTarget(0.3, eps)
        top = _top_shell(mpf(eps))

        def volume(m):
            basis, _, e, radius_sq, _ = target.pose(m)
            return (mp.pi ** 2 / 2 * radius_sq ** 2 * mp.ldexp(1, 4 * e)
                    / abs(_inverse_and_det(basis)[1]))

        assert volume(top) <= 1 < volume(top + 1)


def test_degenerate_angles_probe_without_listing_a_shell():
    """At theta = 0 and 1e-30 every even shell's ellipsoid holds a long
    run of lattice points; the probes stop at the first, so they stay
    small under a 1 GB address-space limit.  synth_diagonal snaps both
    angles to the identity before any shell is posed, so the probes are
    driven directly, from the top shell down."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from mpmath import mp, mpf\n"
        "from icogate.diagonal import DiagonalTarget\n"
        "from icogate.unitary import precision_for\n"
        "with mp.workprec(precision_for(1e-20)):\n"
        "    target = DiagonalTarget(mpf(sys.argv[1]), 1e-20)\n"
        "    for m in range(int(sys.argv[2]), -1, -1):\n"
        "        if next(iter(target.problem(m)[0]), None) is not None:\n"
        "            print(m)\n")
    with mp.workprec(precision_for(1e-20)):
        top = _top_shell(mpf("1e-20"))
    path = str(Path(icogate.__file__).parents[1])
    for theta in ("0", "1e-30"):
        proc = subprocess.run(
            [sys.executable, "-c", code, theta, str(top)],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert set(range(0, top + 1, 2)) <= set(map(int, proc.stdout.split()))


def test_synth_identity_at_zero():
    report = synth_diagonal(0, 1e-3)
    assert report.tau_count == 0
    assert report.achieved == 0
    assert canonical(report.quaternion) == canonical(GoldenQuat(1, 0, 0, 0))


def test_synth_snaps_to_quarter_turn():
    # u(pi/2) = diag(i, -i) is in C60; nearby angles snap to it
    report = synth_diagonal(mp.pi / 2, 1e-6)
    assert report.tau_count == 0
    assert report.achieved < 1e-12
    report2 = synth_diagonal(mp.pi / 2 + 1e-9, 1e-6)
    assert report2.tau_count == 0
    assert report2.achieved < 1e-6


def test_synth_pi_over_4():
    report = synth_diagonal(mp.pi / 4, 1e-4)
    assert report.achieved < 1e-4
    assert report.tau_count >= 1


def test_synth_word_and_quat_agree():
    bits = precision_for(1e-5)
    report = synth_diagonal(-0.3, 1e-5)
    q, word, achieved = report.quaternion, report.word, report.achieved
    assert achieved < 1e-5
    with mp.workprec(bits):
        gap = distance(evaluate_word(word, bits), q.to_unitary(bits))
        assert gap < mpf(2) ** (-bits // 2)
        # the raw search result has nrd exactly eta^m; the word factors
        # its primitive part, whose eta-valuation is the tau-count
        m = eta_valuation(q.nrd())
        assert q.nrd() == eta_power(m)
        assert word.tau_count == eta_valuation(canonical(q).nrd())
        assert word.tau_count <= m
    # achieved is measured on q; recompute it from the word at twice
    # the working precision
    with mp.workprec(2 * bits):
        true = distance(u_of_theta(-0.3, 2 * bits),
                        evaluate_word(word, 2 * bits))
        assert abs(true - achieved) < mpf(2) ** (-bits // 2)


def test_synth_verifies_against_target():
    # the winner must satisfy the advertised bound, not just the shell
    # feasibility conditions
    for theta, eps in [(0.7, 1e-3), (1.2, 1e-3)]:
        report = synth_diagonal(theta, eps)
        assert report.achieved < eps


def test_synth_budget_exhaustion():
    with pytest.raises(BudgetExhausted):
        synth_diagonal(0.4, 1e-6, m_cap=1)


def test_synth_lets_not_in_group_propagate(monkeypatch):
    # a candidate is in Z[phi]^4 with nrd eta^m, so it is a word (super
    # golden gates) and a refusal from exact_synthesize is an error,
    # not a skip
    def refuse(q):
        raise NotInGroup(f"{canonical(q)!r} is not in the gate group")

    monkeypatch.setattr(icogate.diagonal, "exact_synthesize", refuse)
    with pytest.raises(NotInGroup):
        synth_diagonal(0.7, 1e-3)


def test_synth_epsilon_below_the_float_range():
    # precision_for(mpf("1e-400")) is 4083 bits; the m = 0 shell is
    # searched and the cap ends the search
    with pytest.raises(BudgetExhausted):
        synth_diagonal(0.3, mpf("1e-400"), m_cap=0)


def test_synth_rejects_bad_epsilon():
    with pytest.raises(MalformedInput):
        synth_diagonal(0.3, 0)
    with pytest.raises(MalformedInput):
        synth_diagonal(0.3, 1.0)


def test_tau_count_tracks_epsilon():
    # log_59(1/eps^3) for eps 1e-3 is about 5.1; the count should land
    # near 7/3 of... the shell exponent itself, i.e. single digits, and
    # never above the cap that the m-loop enforces
    taus = []
    for theta in (0.35, 0.8, 1.1, -0.6):
        report = synth_diagonal(theta, 1e-3)
        assert report.achieved < 1e-3
        taus.append(report.tau_count)
    cap = int(mp.ceil(3 * mp.log(10 ** 3) / mp.log(59))) + 12
    assert all(t <= cap for t in taus)
    taus.sort()
    assert taus[len(taus) // 2] <= 13


def test_synth_deep_t_gate():
    # a 35-tau word; achieved is recomputed from the word at
    # twice the working precision
    eps = mpf("1e-20")
    bits = precision_for(eps)
    with mp.workprec(2 * bits):
        theta = mp.pi / 8
    report = synth_diagonal(theta, eps)
    with mp.workprec(2 * bits):
        true = distance(u_of_theta(theta, 2 * bits),
                        evaluate_word(report.word, 2 * bits))
        assert true < eps
        assert abs(true - report.achieved) < mpf(2) ** (-bits // 2)
