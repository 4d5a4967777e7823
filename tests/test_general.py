import math
import random

import pytest
from mpmath import mp, mpf

from icogate import (diagonal, general, goldengrid, icosian, intfactor,
                     lattice, sots)
from icogate.diagonal import synth_diagonal
from icogate.errors import (Abandoned, BudgetExhausted, MalformedInput,
                            NotInGroup, NotRepresentable,
                            PrecisionInsufficient)
from icogate.general import (CentralBand, SynthConfig, build_central,
                             candidate_norms, synth_general)
from icogate.golden import GoldenInt, ZERO, embed, eta_power, sign_minus, sign_plus
from icogate.sots import decide
from icogate.icosian import (RHO, GateWord, GoldenQuat, canonical,
                             evaluate_word, exact_synthesize, generate_c60,
                             word_to_quat)
from icogate.unitary import (ProjUnitary, distance, named_gate,
                             precision_for, tuning_constant, u_of_alpha_beta,
                             u_of_theta)
from shell_oracle import assert_covers_norms

BITS = 160


def brute_norms(k, abs_alpha, eps):
    """Scan a safely oversized (e, f) box against the candidate_norms
    constraints: exact sign checks for the box, numeric band."""
    a = mpf(abs_alpha)
    eps = mpf(eps)
    ek = eta_power(k)
    hp = embed(ek, "plus", mp.prec)
    center = a * a * hp
    half = eps * a * hp
    box_f = int(mp.floor(2 * hp / mp.sqrt(5))) + 2
    box_e = int(mp.floor(hp + box_f * 1.7)) + 2
    out = set()
    for e in range(-box_e, box_e + 1):
        for f in range(-box_f, box_f + 1):
            s = GoldenInt(e, f)
            d = ek - s
            if sign_plus(s) < 0 or sign_minus(s) < 0:
                continue
            if sign_plus(d) < 0 or sign_minus(d) < 0:
                continue
            if abs(embed(s, "plus", mp.prec) - center) < half:
                out.add(s)
    return out


@pytest.mark.parametrize("k,abs_alpha,eps", [
    (0, 0.7071067811865476, 0.5),
    (0, 0.999, 0.05),
    (1, 0.7071067811865476, 0.2),
    (2, 0.31, 0.05),
    (2, 0.83, 0.02),
    # s = 0 lies exactly on the strict band edge, which keeps it as a
    # point within tol of the edge, then just inside it
    (0, 0.5, 0.5), (0, 0.5, 0.5000001),
])
def test_candidate_norms_matches_brute_force(k, abs_alpha, eps):
    # every norm of the scan, only edge points beside it, in the order
    # of the integer distance from the band centre
    with mp.workprec(BITS):
        got = list(candidate_norms(CentralBand(abs_alpha, eps), k))
        assert_covers_norms(got, k, abs_alpha, eps,
                            brute_norms(k, abs_alpha, eps))


def test_candidate_norms_alpha_near_one_includes_unit():
    # |alpha| -> 1 puts sigma_plus = 1 itself inside the band at k = 0
    with mp.workprec(BITS):
        assert GoldenInt(1, 0) in set(
            candidate_norms(CentralBand(0.9999, 0.01), 0))


def test_candidate_norms_validates_input():
    # a band family checks |alpha| and epsilon when it is built, before
    # any band is posed or any candidate asked for
    with mp.workprec(BITS):
        for abs_alpha in (1.0, 0.0, math.nan):
            with pytest.raises(MalformedInput):
                CentralBand(abs_alpha, 0.1)
        for eps in (0.0, -0.1, 1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(MalformedInput):
                CentralBand(0.5, eps)


def test_central_band_checks_its_precision():
    """A band needs eps |alpha| > 2^(20 - p), the hypothesis of
    candidate_norms' rounding bounds: at 24 bits eps 1e-5 is refused,
    as DiagonalTarget refuses it, and at 60 bits the edge
    eps |alpha| = 2^-40 is refused and 2^-39 is not."""
    with mp.workprec(24):
        with pytest.raises(MalformedInput):
            CentralBand(0.5, 1e-5)
        with pytest.raises(MalformedInput):
            diagonal.DiagonalTarget(0.3, 1e-5)
    with mp.workprec(60):
        with pytest.raises(MalformedInput):
            CentralBand(0.5, 2.0 ** -39)
        assert CentralBand(0.5, 2.0 ** -38).p == 60


def test_problem_checks_k_in_both_families():
    with mp.workprec(BITS):
        families = (diagonal.DiagonalTarget(0.1, 0.5), CentralBand(0.5, 0.1))
        for family in families:
            for k in (-1, 2.5, "2"):
                with pytest.raises(MalformedInput):
                    family.problem(k)


@pytest.mark.parametrize("make, eps", [
    (lambda eps: diagonal.DiagonalTarget(0.3, eps), 1e-6),
    (lambda eps: CentralBand(0.31, eps), 1e-5)])
def test_each_family_poses_at_its_own_precision(make, eps):
    """A family poses every problem at the working precision it was
    built at: asked first under another precision, problem(k) gives the
    points and data it gives under its own."""
    p1 = precision_for(eps)
    for p2 in (p1 - 24, p1 + 40):
        with mp.workprec(p1):
            home, away = make(eps), make(eps)
            k = home.top + home.step
            points, data = home.problem(k)
            want = list(points), data
        with mp.workprec(p2):
            points, data = away.problem(k)
            got = list(points), data
        assert want[0] and got == want, p2


@pytest.mark.parametrize("k,abs_alpha,eps", [
    (0, 0.9999, 0.01), (1, None, 0.2), (2, None, 0.05),
    (2, 0.31, 0.05), (3, 0.83, 0.02),
    (3, 0.999, 0.01),
])
def test_eta_maps_each_band_into_the_next(k, abs_alpha, eps):
    """eta s is a lattice point of band k + 1's integer ellipse for every
    candidate s of band k, the tie |alpha|^2 = 1/2 (None) included: the
    proof that lets a probe skip bands."""
    eta = eta_power(1)
    with mp.workprec(BITS):
        a = mp.sqrt(mpf(1) / 2) if abs_alpha is None else mpf(abs_alpha)
        e = mpf(eps)
        band = CentralBand(a, e)
        got = list(candidate_norms(band, k))
        points = set(band.problem(k + 1)[0])
        for s in got:
            t = eta * s
            assert (t.a, t.b) in points, s
        assert got


@pytest.mark.parametrize("seed, eps", [(None, 1e-4), (None, 1e-7),
                                       (3, 1e-3), (4, 1e-5)])
def test_probes_skip_only_empty_bands(monkeypatch, seed, eps):
    """synth_general solves each band at most once, in increasing order,
    and every band below the first it solves holds no candidate; H
    (seed None) has the exact tie |alpha|^2 = 1/2."""
    bits = precision_for(eps)
    if seed is None:
        g = named_gate("H", bits)
    else:
        g = haar_target(random.Random(seed), bits)
    solved = []
    real = general.candidate_norms

    def counted(band, k):
        solved.append((band, k))
        return real(band, k)

    monkeypatch.setattr(general, "candidate_norms", counted)
    synth_general(g, SynthConfig(eps))
    monkeypatch.undo()
    ks = [k for _, k in solved]
    assert ks and ks == sorted(set(ks))
    band = solved[0][0]
    assert all(b is band for b, _ in solved)
    for k in range(ks[0]):
        assert list(candidate_norms(band, k)) == [], k


def shell_family(theta, eps):
    """A diagonal target's family of shells, the top shell, the step
    eta-scaling proves and the solve of shell m on a fresh family."""
    theta = diagonal._fold_theta(mpf(theta))

    def solve(m):
        return diagonal.solve_shell(diagonal.DiagonalTarget(theta, eps), m)

    target = diagonal.DiagonalTarget(theta, eps)
    return target, diagonal._top_shell(mpf(eps)), 2, solve


def band_family(abs_alpha, eps):
    """The same for a central target's family of bands."""
    a, e = mpf(abs_alpha), mpf(eps)

    def solve(k):
        return list(candidate_norms(CentralBand(a, e), k))

    band = CentralBand(a, e)
    return band, band.top, 1, solve


@pytest.mark.parametrize("family, x, eps", [
    (shell_family, 0.3, 1e-6), (shell_family, 0, 1e-6),
    (shell_family, mp.pi / 4 + 5e-4, 1e-3),
    (shell_family, mp.atan(mp.phi), 1e-4), (shell_family, -1.2, 1e-5),
    (band_family, 0.31, 1e-5), (band_family, mp.sqrt(0.5), 1e-7),
])
def test_search_skips_only_empty_problems(family, x, eps):
    """search yields problems in increasing order up to its cap, and
    every problem it skips is empty when solved on a fresh family."""
    with mp.workprec(precision_for(eps)):
        searched, top, step, solve = family(x, eps)
        assert (searched.top, searched.step) == (top, step)
        cap = top + step
        ks = list(searched.search(cap))
        assert ks == sorted(set(ks)) and ks[-1] == cap
        for k in set(range(cap + 1)) - set(ks):
            assert solve(k) == [], k


@pytest.mark.parametrize("abs_alpha, eps", [
    (0.31, 1e-5), (mp.sqrt(0.5), 1e-7), (0.999, 1e-4)])
def test_band_warm_start_agrees(abs_alpha, eps):
    """A band family reduces each band from the last one's transform;
    down from two bands above the top, the warm reductions hold the
    lattice points of cold ones."""
    with mp.workprec(precision_for(eps)):
        a, e = mpf(abs_alpha), mpf(eps)
        warm, total = CentralBand(a, e), 0
        for k in range(warm.top + 2, -1, -1):
            points = set(warm.problem(k)[0])
            assert points == set(CentralBand(a, e).problem(k)[0]), k
            total += len(points)
        assert warm.transform is not None and total


def test_each_shell_and_band_is_reduced_once(monkeypatch):
    """A search reduces each of its shells once, and a general target
    each of its bands once: a shell or band that a probe reduced is
    enumerated again, not reduced again, when it is solved.  Every
    lattice reduction is charged to the shell or band asked for; u(pi/8)
    at 1e-7 and the Haar target of seed 4 at 1e-4 each pose one shell or
    band twice, H at 1e-7 none."""
    posing, reductions, poses, families = [], [], [], []
    real_lll = lattice._lll
    real_problem = goldengrid.LatticeFamily.problem

    def lll(b, h):
        reductions.append(posing[-1])
        return real_lll(b, h)

    def problem(family, k):
        families.append(family)  # keeps each family's id its own
        kind = "shell" if isinstance(family, diagonal.DiagonalTarget) else "band"
        posing.append((kind, id(family), k))
        poses.append(posing[-1])
        try:
            return real_problem(family, k)
        finally:
            posing.pop()

    monkeypatch.setattr(lattice, "_lll", lll)
    monkeypatch.setattr(goldengrid.LatticeFamily, "problem", problem)
    haar = haar_target(random.Random(4), precision_for(1e-4))
    runs = [lambda: synth_diagonal(mp.pi / 8, 1e-7),
            lambda: synth_general(named_gate("H", precision_for(1e-7)),
                                  SynthConfig(1e-7)),
            lambda: synth_general(haar, SynthConfig(1e-4))]
    for run, reused in zip(runs, ("shell", None, "band")):
        poses.clear()
        reductions.clear()
        run()
        assert reductions and set(reductions) <= set(poses)
        assert len(reductions) == len(set(reductions))
        twice = {key[0] for key in poses if poses.count(key) > 1}
        assert twice == ({reused} if reused else set())


def test_build_central_unit_shell():
    q = build_central(0, GoldenInt(1, 0))
    assert q.nrd() == GoldenInt(1, 0)
    assert canonical(q) == canonical(GoldenQuat(1, 0, 0, 0))
    q = build_central(0, ZERO)
    assert q.nrd() == GoldenInt(1, 0)
    # 0 = x0^2 + x1^2 and 1 = x2^2 + x3^2: a pure right unit
    assert q.parts()[0] == ZERO and q.parts()[1] == ZERO


def test_build_central_eta_shell():
    with mp.workprec(BITS):
        produced = 0
        for s in candidate_norms(CentralBand(0.7, 0.4), 1):
            try:
                q = build_central(1, s)
            except NotRepresentable:
                continue
            produced += 1
            assert q.nrd() == eta_power(1)
            word = exact_synthesize(q)
            assert canonical(word_to_quat(word)) == canonical(q)
        assert produced > 0


def test_build_central_unrepresentable_raises():
    # eta itself is not a sum of two squares (its norm 59 is 3 mod 4 to
    # odd multiplicity), so s = eta at k = 1 leaves eta - s = 0 fine but
    # the first certificate must fail.
    with pytest.raises(NotRepresentable):
        build_central(1, eta_power(1))


def test_build_central_decides_both_before_building(monkeypatch):
    """A candidate s that is a sum of two squares while eta^k - s is
    not gets no certificate: both are decided first."""
    k = 2
    found = []
    for a in range(-40, 41):
        for b in range(0, 41):
            s = GoldenInt(a, b)
            rest = eta_power(k) - s
            if abs(s.norm()) <= 1 or min(sign_plus(s), sign_minus(s),
                                          sign_plus(rest),
                                          sign_minus(rest)) < 0:
                continue
            try:
                decide(s)
            except NotRepresentable:
                continue
            try:
                decide(rest)
            except NotRepresentable:
                found.append(s)
    assert len(found) >= 5
    built = []
    real = general.sots_exact

    def counted(x, **kwargs):
        built.append(x)
        return real(x, **kwargs)

    monkeypatch.setattr(general, "sots_exact", counted)
    for s in found:
        with pytest.raises(NotRepresentable):
            build_central(k, s)
    assert built == []
    build_central(0, GoldenInt(1, 0))
    assert built == [GoldenInt(1, 0), ZERO]


def test_epsilon_below_the_float_range_sets_its_own_precision():
    # precision_for takes the mpf itself: 1e-400 is positive
    assert precision_for(mpf("1e-400")) == 4083
    for eps in (0.3, 1e-3, 1e-10, 2.0 ** -60):
        assert precision_for(mpf(eps)) == precision_for(eps)
    g = ProjUnitary([[1, 0], [0, 1]], 53)
    with pytest.raises(PrecisionInsufficient):
        synth_general(g, SynthConfig(epsilon=mpf("1e-400"), k_cap=0))


def test_config_validation():
    with pytest.raises(MalformedInput):
        SynthConfig(0.0)
    with pytest.raises(MalformedInput):
        SynthConfig(0.6)  # epsilon >= delta
    for k_cap in (-1, 2.5, "2"):
        with pytest.raises(MalformedInput):
            SynthConfig(1e-3, k_cap=k_cap)


def test_snap_to_group_element():
    r = synth_general(RHO.to_unitary(BITS), SynthConfig(1e-3))
    assert r.tau_count == 0
    assert r.k == 0 and r.central_tau == 0 and r.outer_tau == (0, 0)
    assert r.achieved < mpf("1e-30")
    got = canonical(word_to_quat(r.word))
    assert got == canonical(RHO)


def test_diagonal_target_routes_to_diagonal():
    with mp.workprec(BITS):
        g = u_of_theta(mpf("0.35"), BITS)
    r = synth_general(g, SynthConfig(1e-4))
    assert r.k == 0 and r.central_tau == 0
    assert r.outer_tau[1] == 0
    assert r.achieved < mpf("1e-4")


def test_antidiagonal_target_routes_through_j():
    with mp.workprec(BITS):
        j = GoldenQuat(0, 0, 1, 0).to_unitary(BITS)
        g = u_of_theta(mpf("0.35"), BITS) @ j
    r = synth_general(g, SynthConfig(1e-4))
    assert r.k == 0 and r.central_tau == 0
    assert r.achieved < mpf("1e-4")
    assert distance(g, evaluate_word(r.word, BITS)) < mpf("1e-4")


def test_sandwich_default_mode():
    g = named_gate("H", BITS)
    eps = mpf("1e-4")
    r = synth_general(g, SynthConfig(1e-4))
    c = tuning_constant()
    assert r.achieved < mpf("1.5") * eps
    assert r.achieved < (c + 2) * eps
    assert r.k > 0 and r.central_tau > 0
    assert all(t > 0 for t in r.outer_tau)
    # the report's word really is the returned distance
    again = distance(g, evaluate_word(r.word, 256))
    assert abs(again - r.achieved) < eps / 100


def test_sandwich_strict_mode():
    g = named_gate("H", BITS)
    r = synth_general(g, SynthConfig(1e-3, strict=True))
    assert r.achieved < mpf("1e-3")


def test_twist_handles_near_circle_alpha():
    with mp.workprec(200):
        a = mpf("0.9995") * mp.expj(mpf("0.3"))
        b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf("1.1"))
        g = u_of_alpha_beta(a, b, 200)
    r = synth_general(g, SynthConfig(1e-4))
    c = tuning_constant()
    assert r.achieved < (c + 2) * mpf("1e-4")
    assert distance(g, evaluate_word(r.word, 256)) < (c + 2) * mpf("1e-4")


def test_twist_handles_tiny_alpha():
    with mp.workprec(200):
        a = mpf("0.01") * mp.expj(mpf("-0.7"))
        b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf("0.4"))
        g = u_of_alpha_beta(a, b, 200)
    r = synth_general(g, SynthConfig(1e-4))
    assert r.achieved < (tuning_constant() + 2) * mpf("1e-4")


def test_deterministic_for_fixed_seed():
    # no seed is left to fix: two calls agree even when the global
    # random stream is seeded differently before each
    g = named_gate("H", BITS)
    random.seed(5)
    r1 = synth_general(g, SynthConfig(1e-4))
    random.seed(6)
    r2 = synth_general(g, SynthConfig(1e-4))
    assert r1.word.segments == r2.word.segments
    assert r1.achieved == r2.achieved
    assert r1 == r2


def test_budget_exhausted_at_zero_cap():
    # k_cap = 0 leaves only the empty k = 0 band for a moderate alpha
    g = named_gate("H", BITS)
    with pytest.raises(BudgetExhausted):
        synth_general(g, SynthConfig(1e-6, k_cap=0))


def test_default_mode_returns_no_word_at_its_goal_or_above(monkeypatch):
    # every candidate measured at 2 eps misses the 1.5 eps goal, though
    # it beats (C + 2) eps: no word is returned, up to the cap
    eps = mpf("1e-3")
    monkeypatch.setattr(general, "quaternion_distance",
                        lambda g, q: 2 * eps)
    with pytest.raises(BudgetExhausted):
        synth_general(named_gate("H", BITS), SynthConfig(1e-3, k_cap=3))


@pytest.mark.parametrize("module", [general, diagonal])
def test_synth_lets_not_in_group_propagate(monkeypatch, module):
    # the central candidate (general) and the outer diagonals' candidates
    # (diagonal) are words by the super golden gate property, so a
    # refusal from exact_synthesize propagates instead of being skipped
    def refuse(q):
        raise NotInGroup(f"{canonical(q)!r} is not in the gate group")

    monkeypatch.setattr(module, "exact_synthesize", refuse)
    with pytest.raises(NotInGroup):
        synth_general(named_gate("H", BITS), SynthConfig(1e-3))


@pytest.mark.parametrize("pipeline, expected", [("general", 8),
                                                ("diagonal", 2)])
def test_abandoned_count_is_every_abandonment_raised(monkeypatch, pipeline,
                                                      expected):
    """With a Pollard-rho budget of 1 iteration, H at 1e-15 abandons 6
    central candidates in build_central and 2 residuals in its outer
    diagonals, and u(pi/8) at 1e-20 abandons 2 residuals: the report
    counts every Abandoned that factor_cofactor raises under the call."""
    monkeypatch.setattr(intfactor, "RHO_ITERATION_BUDGET", 1)
    raised = []
    factor_cofactor = sots.factor_cofactor

    def counted(*args):
        try:
            return factor_cofactor(*args)
        except Abandoned:
            raised.append(args)
            raise

    monkeypatch.setattr(sots, "factor_cofactor", counted)
    if pipeline == "general":
        r = synth_general(named_gate("H", precision_for(1e-15)),
                          SynthConfig(1e-15))
    else:
        with mp.workprec(precision_for(1e-20)):
            theta = mp.pi / 8
        r = synth_diagonal(theta, 1e-20)
    assert r.abandoned_count == len(raised) == expected


def test_coarse_target_raises_precision_error():
    g = named_gate("H", 40)
    with pytest.raises(PrecisionInsufficient):
        synth_general(g, SynthConfig(1e-8))


def test_halting_scale():
    """Central shells land near log_59(1/eps), a few above the first
    nonempty band (not every candidate norm is a sum of two squares)."""
    rng = random.Random(11)
    eps = 1e-4
    ks = []
    for _ in range(5):
        with mp.workprec(200):
            a = mpf(rng.uniform(0.25, 0.85)) * mp.expj(mpf(rng.uniform(-3, 3)))
            b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf(rng.uniform(-3, 3)))
            g = u_of_alpha_beta(a, b, 200)
        r = synth_general(g, SynthConfig(eps))
        assert r.achieved < mpf("1.5") * mpf(eps)
        ks.append(r.k)
    base = mp.log(1 / mpf(eps)) / mp.log(59)
    med = sorted(ks)[len(ks) // 2]
    assert base - 2 <= med <= base + 3


@pytest.mark.parametrize("eps", [1e-6, 1e-12])
def test_deep_hadamard(eps):
    # outer diagonals at 0.6 eps; achieved is recomputed from the word at
    # twice the working precision.  At 1e-6 band 4 holds a mirror pair
    # s, eta^4 - s about the exact centre, which the rounding of the mpf
    # centre orders
    bits = precision_for(eps)
    r = synth_general(named_gate("H", 2 * bits), SynthConfig(eps))
    with mp.workprec(2 * bits):
        true = distance(named_gate("H", 2 * bits),
                        evaluate_word(r.word, 2 * bits))
        assert true < (tuning_constant() + 2) * mpf(eps)
        assert abs(true - r.achieved) < mpf(2) ** (-bits // 2)


def scan_snap(g, bits):
    """The snap by brute force: every C60 element measured with the
    matrix distance, the first strictly smallest kept."""
    best_seg, best_d = "", mp.inf
    for q, seg in generate_c60():
        d = distance(g, q.to_unitary(bits))
        if d < best_d:
            best_seg, best_d = seg, d
    return best_seg, best_d


def haar_target(rng, bits):
    with mp.workprec(bits):
        a = mp.sqrt(mpf(rng.random())) * mp.expj(mpf(rng.uniform(-3, 3)))
        b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf(rng.uniform(-3, 3)))
        return u_of_alpha_beta(a, b, bits)


def quat_target(v, bits):
    """The matrix of the real quaternion v, stored at bits."""
    with mp.workprec(bits):
        w0, w1, w2, w3 = v
        return ProjUnitary(((mp.mpc(w0, w1), mp.mpc(w2, w3)),
                            (mp.mpc(-w2, w3), mp.mpc(w0, -w1))), bits)


def snap_cases():
    rng = random.Random(3)
    # Haar targets; at eps = 0.3 every target is within eps of C60 (its
    # covering radius is about 0.27)
    for _ in range(12):
        yield haar_target(rng, BITS), 0.3
    # targets within about 1e-4 of every seventh element
    for q, _ in list(generate_c60())[::7]:
        with mp.workprec(BITS):
            tilt = u_of_alpha_beta(mp.expj(mpf(rng.uniform(-1, 1)) * 1e-4),
                                   mpf(rng.uniform(-1, 1)) * 1e-4, BITS)
        yield q.to_unitary(BITS) @ tilt, 1e-3
    # diagonal targets, given by their angle, through synth_diagonal;
    # at u(1.1) the nearest element (rsrsrr) lies at 0.2285
    yield 1.1, 0.3
    for _ in range(6):
        yield round(rng.uniform(-1.5, 1.5), 3), 0.3


@pytest.mark.parametrize("g,eps", list(snap_cases()))
def test_snap_matches_full_scan(g, eps):
    if isinstance(g, ProjUnitary):
        r = synth_general(g, SynthConfig(eps))
    else:
        r = synth_diagonal(g, eps, precision_bits=BITS)
        with mp.workprec(BITS):
            g = u_of_theta(mpf(g), BITS)
    seg, d = scan_snap(g, BITS)
    assert r.word == GateWord((seg,))
    assert abs(r.achieved ** 2 - d ** 2) < mpf(2) ** (8 - BITS)


@pytest.mark.parametrize("theta", [0.7, 1.2, -0.4, 0.3])
def test_snap_measures_one_of_each_diagonal_twin(theta, monkeypatch):
    """For a target with zero j and k parts, q and (q0, q1, -q2, -q3)
    (conjugation by i, which is in C60) tie bit for bit, so the snap
    measures one of them; at u(0.7), u(1.2) and u(-0.4) the nearest
    element has such a twin, at u(0.3) it has none.  A j part of 1e-30
    breaks the tie, and then both twins are measured."""
    calls = []

    def counting(g, q):
        calls.append(1)
        return real(g, q)

    real = icosian.quaternion_distance
    monkeypatch.setattr(icosian, "quaternion_distance", counting)
    table = generate_c60()
    with mp.workprec(BITS):
        t = mpf(theta)
        target = (mp.cos(t), mp.sin(t), mpf(0), mpf(0))
        q, seg, d = table.nearest(target)
        assert len(calls) == 1
        best_seg, best_d = scan_snap(u_of_theta(t, BITS), BITS)
        assert seg == best_seg
        assert abs(d ** 2 - best_d ** 2) < mpf(2) ** (8 - BITS)
        calls.clear()
        tilted = (target[0], target[1], mpf("1e-30"), mpf(0))
        assert table.nearest(tilted)[1] == seg
        assert len(calls) == (1 if theta == 0.3 else 2)


def test_snap_on_an_exact_tie():
    # the quaternion midpoint of two adjacent elements (36 degrees apart)
    # is 0.22 from both and farther from the rest; either may win, but
    # the winner must be a nearest element and report its distance
    table = list(generate_c60())
    with mp.workprec(BITS):
        vecs = [q.to_vector(BITS) for q, _ in table]
        unit = [[x / mp.sqrt(mp.fdot(v, v)) for x in v] for v in vecs]
        b = max(range(1, len(table)), key=lambda i: abs(mp.fdot(unit[0],
                                                                unit[i])))
        sign = 1 if mp.fdot(unit[0], unit[b]) > 0 else -1
        g = quat_target([x + sign * y for x, y in zip(unit[0], unit[b])],
                        BITS)
    r = synth_general(g, SynthConfig(0.3))
    dists = {seg: distance(g, q.to_unitary(BITS)) for q, seg in table}
    nearest = min(dists.values())
    tol = mpf(2) ** (8 - BITS)
    assert abs(nearest - mpf("0.2212")) < 1e-4
    assert sum(abs(d ** 2 - nearest ** 2) < tol for d in dists.values()) == 2
    (seg,) = r.word.segments
    assert abs(dists[seg] ** 2 - nearest ** 2) < tol
    assert abs(r.achieved ** 2 - nearest ** 2) < tol


def route_target(route, bits):
    with mp.workprec(bits):
        if route == "snap":
            return RHO.to_unitary(bits) @ u_of_theta(mpf("1e-5"), bits)
        if route == "diagonal":
            return u_of_theta(mpf("0.35"), bits)
        if route == "j":
            return (u_of_theta(mpf("0.35"), bits)
                    @ GoldenQuat(0, 0, 1, 0).to_unitary(bits))
        if route == "twist-near-1":
            a = mpf("0.9995") * mp.expj(mpf("0.3"))
        elif route == "twist-near-0":
            a = mpf("0.01") * mp.expj(mpf("-0.7"))
        else:
            return named_gate("H", bits)
        b = mp.sqrt(1 - abs(a) ** 2) * mp.expj(mpf("1.1"))
        return u_of_alpha_beta(a, b, bits)


@pytest.mark.parametrize("route", ["snap", "diagonal", "j", "twist-near-1",
                                   "twist-near-0", "H"])
def test_achieved_is_the_words_distance_on_every_route(route):
    # achieved comes from the pieces' exact quaternions; the word,
    # multiplied out letter by letter at twice the precision, must agree
    eps = 1e-4
    bits = precision_for(eps)
    g = route_target(route, bits)
    r = synth_general(g, SynthConfig(eps))
    if route == "snap":
        assert r.tau_count == 0 and r.achieved > 0
    elif route in ("diagonal", "j"):
        assert r.k == 0 and r.tau_count > 0
    else:
        assert r.k > 0
    # the report's quaternion is the word up to a Z[phi] scalar
    assert canonical(r.quaternion) == canonical(word_to_quat(r.word))
    with mp.workprec(2 * bits):
        true = distance(g, evaluate_word(r.word, 2 * bits))
        assert abs(true ** 2 - r.achieved ** 2) < mpf(2) ** (8 - bits)
