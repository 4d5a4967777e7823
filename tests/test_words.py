"""Pinned words: the exact gate words the pipelines emit for fixed
targets.

The targets are the benchmark's deep-headline targets (u(pi/8) at
1e-6, 1e-7 and 1e-8 through synth_diagonal, H at 1e-6 and 1e-7 through
synth_general), the first 8 Haar targets of the haar-shallow
construction with seed 1 (eps 1e-3, through synth_general) and
`icogate synth-diag` at theta = 0 and pi/8 with eps 1e-10.  Every
target is built at icogate's working precision for its eps,
ceil(3 log2(1/eps)) + 96 bits, as the benchmark builds it.  The pins
were recorded from commit 522b15f; a change to the search order or to
any filter of the grid layers that moves a word fails here.  H at 1e-6
was re-recorded at commit 0890758, where the grid searches came to
order points by their integer keys alone (27 taus before and after).
Its band k = 4 holds a mirror pair about the exact centre,
s = 7206 + 11570 phi and eta^4 - s = 7295 + 11515 phi, whose integer
distances from the band centre at scale 2^156 differ by 101,054 units:
the rounding of the mpf centre orders them, not their coordinates.  A
centre posed in integers from |alpha|^2 at scale 2^p orders them the
other way and moves the word (27 taus either way).

The route pins cover the branches of synth_general that those targets
never take: the C60 snap, the diagonal and j-routes, the rho twist at
either end of |alpha|, two targets stored above the working precision
with |alpha|^2 on either side of 1 - epsilon0^2 by less than the
working precision resolves, and strict mode.  They were recorded from
commit ac28085, apart from those two and strict mode.  Since the rho
twist is decided on the |alpha| the tuning lemma reads, at the stored
precision, no tuning on any route is rejected; that moved the first of
the two from 16 taus (untwisted, 31 tunings with 14 rejected) to 14,
and the second, added then, gives the word it gave before.  Strict mode
once ran the whole search at eps / (C + 2), C ~ 35.4 the tuning
lemma's constant, for 17 taus; it now runs the default search at eps
and keeps only a word measured below eps less the measurement margin,
and its pin was re-recorded at 10 taus.
"""

import functools
import json
import math
import random

import pytest
from mpmath import mp, mpc, mpf

import icogate.general
import icogate.icosian
from icogate.cli import main
from icogate.diagonal import synth_diagonal
from icogate.general import SynthConfig, synth_general
from icogate.icosian import evaluate_word, generate_c60
from icogate.unitary import ProjUnitary, distance


def working_bits(eps):
    return math.ceil(3 * math.log2(1 / eps)) + 96


def u_pi_8(eps):
    with mp.workprec(working_bits(eps)):
        theta = mp.pi * 1 / 8
    return str(synth_diagonal(theta, eps,
                              precision_bits=working_bits(eps)).word)


def general_word(rows, bits, eps):
    report = synth_general(ProjUnitary(rows, bits), SynthConfig(epsilon=eps))
    return str(report.word)


def hadamard_rows(eps):
    with mp.workprec(working_bits(eps)):
        r = 1 / mp.sqrt(2)
        return ((mpc(r), mpc(r)), (mpc(r), mpc(-r)))


def hadamard(eps):
    return general_word(hadamard_rows(eps), working_bits(eps), eps)


def haar_rows(seed, count, eps=1e-3, strata=64):
    """The first count targets of the benchmark's haar-shallow
    construction: |alpha|^2 drawn once in each of the shuffled equal
    strata, the phases of alpha and beta uniform."""
    rng = random.Random(seed)
    bits = working_bits(eps)
    order = list(range(strata))
    rng.shuffle(order)
    out = []
    for stratum in order[:count]:
        a2 = (stratum + rng.random()) / strata
        pa = rng.uniform(-math.pi, math.pi)
        pb = rng.uniform(-math.pi, math.pi)
        with mp.workprec(bits):
            alpha = mp.sqrt(mpf(a2)) * mp.expj(mpf(pa))
            beta = mp.sqrt(1 - mpf(a2)) * mp.expj(mpf(pb))
            rows = ((alpha, beta), (-mp.conj(beta), mp.conj(alpha)))
        out.append(rows)
    return out


DEEP_DIAGONAL = {
    1e-06: (
        "(rsrrsr)t(rrsrs)t(rsrsrs)t(rrsrsr)t(srsrr)t(rrsrrsrsr)t(rsrr)"
        "t(srrs)t(rrsrsrr)t(srsrs)t(rsr)t(srsrrsrsrrs)"),
    1e-07: (
        "(rsrrsrsr)t(rrsrrs)t(rrsrsrs)t(rsrrsrsrrsr)t(rsrrsr)t(rs)"
        "t(srrsrsrr)t(rsrsrrsr)t(rsrsrrsrs)t(srs)t(srsr)t(srrsrsr)"
        "t(srrsrsrrs)"),
    1e-08: (
        "(srsrrs)t(rs)t(s)t(rsrrsrsrrsr)t(srsrr)t(srsrrsrsrr)t(srrsr)"
        "t(rr)t(srsrr)t(srrsrsrs)t(rrsrrsrsrs)t(srrsr)t(srsrrs)t(srsr)"
        "t(rsrsrs)"),
}

DEEP_HADAMARD = {
    1e-06: (
        "(rsrsr)t(rrs)t(rrsrrsr)t(rsrrsrsr)t(srsr)t(srrsrsr)t(srrsrsrs)"
        "t(rsrrsrsr)t(srsrrsr)t(srs)t(srrsr)t(rrsrrsrrsrsrs)t(rsrrsrs)"
        "t(srrsrs)t(rsrsrr)t(rsrs)t(rrsrsrsrsrrsrs)t(rrsrrsrs)"
        "t(rsrrsrsrr)t(srrsrsr)t(rsrsrr)t(rsrrsr)t(rsrrsrsrrsr)"
        "t(rrsrsrr)t(rrsrsrrsrs)t(rsr)t(rrsrrsrsr)t(rsrsrrs)"),
    1e-07: (
        "(srsrrsrsr)t(rrsrr)t(rr)t(rsrsrrs)t(rsrsrr)t(rrsrsr)"
        "t(srrsrsrs)t(r)t(rsrrs)t(srsrrsrsrr)t(rrsrrsrs)t(rsrsrr)"
        "t(rsrsrrs)t(srsrrsrsrrsrrsr)t(rsrrsrs)t(srrsrs)t(rsrsrr)"
        "t(rsrs)t(rrsrrsrsrsrsrrs)t(srsrrsrs)t(rrsrsr)t(rsrrsrsrr)t(s)"
        "t(rrsrr)t(rsrsrrsr)t(srrsrsrs)t(rsrsrs)t(rsrsrrsr)t(rsrsrrsrs)"
        "t(rsrrsrsr)t(srrsrsrs)t(rrsrrsrsrr)"),
}

HAAR_SEED_1 = [
    (
        "(rsrrsrsrr)t(srrsrsrr)t(sr)t(rsrsrr)t(rrsrr)t(rrsrsrrsr)"
        "t(srrsrsrsrsrs)t(srrsrs)t(rsrrsrsrrs)t(rsrrsrsrrsrrsrr)t(srs)"
        "t(srsr)t(rsrsrs)t(srr)t(rrs)t(rrsrrsrsrr)"),
    (
        "(srrsrsrrsrs)t(rsrsrrs)t(rsrsrs)t(rrsrrsrs)t(srrsrsrrsr)"
        "t(srrsrsrrsrsrsrsrrsr)t(srsr)t(rsrsrrsrsrsrs)t(rsr)t(rsrsrrsr)"
        "t(rrsrrsrsrs)t(rsrrsrsrrs)t(srsrr)t(rsrsrs)"),
    (
        "(s)t(srsr)t(rsrrsrsrrsrs)t(srrsrsrr)t(srr)t(rrsrsrs)"
        "t(rsrrsrsrrrsrrsr)t(srrsrsrs)t(rsrrsrrsrsrrsrs)t(rrsrrsrsrr)"
        "t(srrsr)t(sr)t(srrsrsrrs)t(sr)t(rrsrrs)"),
    (
        "()t(srs)t(rsrs)t(sr)t(srrsrsrrsr)t(rrsrsrs)"
        "t(rsrrsrsrrsrssrsrrsrsr)t(srsrrsrsrrs)t(r)t(srrsrsrrsrs)"
        "t(srrsrsrr)t(rrs)t(rsrrsr)t(rrsr)t(rrsrrsrs)"),
    (
        "(rrsr)t(rrsr)t(srsrrsrsrrs)t(srsrrsr)t(srrsr)t(rsrsrrsrs)"
        "t(rsrrsrsrrssrsr)t(rrsrsrrs)t(srrsrsrs)t(rrsrrsrsrrrsrsrrsr)"
        "t(srsrrsrsrr)t(rrsrrsrsrr)t(rrsrrsrsr)t(rrsrrsrsrs)"
        "t(srsrrsrsrrs)"),
    (
        "(srsrr)t(rrsrrsr)t(rrsrrsrsrr)t(rsrsrr)t(rsrsrrsrs)t(rsrrsrs)"
        "t(rrsrrsrsrrrrsr)t(srrsrsrrs)t(rrsr)t(rrsrsrrrrsrrsrs)t(rrs)"
        "t(rrsrrsr)t(rrsrrsrsrr)t(srrsrsrs)t(rrsrs)t(rrsrsrrsrs)"),
    (
        "(rrsrrsrsr)t(srsrr)t(sr)t(srrsrsrrsrs)t(rrs)t(rsrs)"
        "t(rsrrsrsrrsrsrsrrsrsrr)t(rsrrsr)t(srrsrsrrsrrsrsrrsrs)"
        "t(rrsrrsr)t(rsrrsrsrrsr)t(sr)t(rrsrrsr)t(rsrrsrsrrsr)"
        "t(rsrrsrsrrs)"),
    (
        "(srsrr)t(rsrsrrsrs)t(rsrsrs)t(rrsrsrrs)t(rsrrsrsrrsr)"
        "t(rrsrsrrs)t(rrsrsrrsrsr)t(rrsrsrrs)t(rrsrrsrsr)"
        "t(srrsrsrrssrsrs)t(srrsrsrs)t(srrsrsrrs)t(srsrrsrsr)"
        "t(rrsrrsrsr)t(rsrrsrs)t(rs)"),
]

SYNTH_DIAG_1E_10 = {
    "0": {"tau_count": 0, "segments": [
        "",
    ]},
    "pi/8": {"tau_count": 18, "segments": [
        "rrsrrsrsrr", "rsrrs", "rsrrsrsrr", "rrsrrsr", "rrsrsr", "rrsrsr",
        "rsrsrr", "srsr", "rrsrrsrsrr", "rsrr", "srsrrsrsrrs", "rrsrrs",
        "rsrsrs", "r", "rsrrsrsrrsrs", "rrsrr", "srr", "rrsrsrs", "srrs",
    ]},
}


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
def test_deep_headline_diagonal_words(eps):
    assert u_pi_8(eps) == DEEP_DIAGONAL[eps]


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
def test_deep_headline_hadamard_words(eps):
    assert hadamard(eps) == DEEP_HADAMARD[eps]


def test_haar_words(monkeypatch):
    # every pin's band passes CentralBand's precision check at the
    # working precision
    built = []
    band = icogate.general.CentralBand

    def recorded(abs_alpha, epsilon):
        built.append(band(abs_alpha, epsilon))
        return built[-1]

    monkeypatch.setattr(icogate.general, "CentralBand", recorded)
    bits = working_bits(1e-3)
    words = [general_word(rows, bits, 1e-3) for rows in haar_rows(1, 8)]
    assert words == HAAR_SEED_1
    assert len(built) == 8 and all(b.p == bits for b in built)


def test_synth_general_words_without_canonical(monkeypatch):
    """synth_general needs no canonical(): the C60 tails, the snap and
    exact_synthesize all find classes by their residue key mod eta."""
    generate_c60()  # the closure itself runs on canonical()

    def refuse(q):
        raise AssertionError("canonical() on synth_general's path")

    monkeypatch.setattr(icogate.icosian, "canonical", refuse)
    assert hadamard(1e-6) == DEEP_HADAMARD[1e-6]
    bits = working_bits(1e-3)
    words = [general_word(rows, bits, 1e-3) for rows in haar_rows(1, 3)]
    assert words == HAAR_SEED_1[:3]


@pytest.mark.parametrize("theta", ["0", "pi/8"])
def test_synth_diag_cli_words(capsys, theta):
    code = main(["synth-diag", "--theta", theta, "--eps", "1e-10", "--json"])
    assert code == 0
    word = json.loads(capsys.readouterr().out)["word"]
    assert word == SYNTH_DIAG_1E_10[theta]


def sandwich_rows(abs_alpha, arg_alpha, arg_beta, bits):
    """u(alpha, beta) with |alpha| = abs_alpha and the given phases, all
    mpf values at bits."""
    with mp.workprec(bits):
        alpha = abs_alpha * mp.expj(arg_alpha)
        beta = mp.sqrt(1 - abs_alpha * abs_alpha) * mp.expj(arg_beta)
        return ((alpha, beta), (-mp.conj(beta), mp.conj(alpha)))


STORED_ABOVE = ("twist at the stored precision",
                "no twist at the stored precision")


def route_target(route):
    """(rows, bits, config) of the route pin's target.  The STORED_ABOVE
    ones are stored 64 bits above the working precision, with |alpha|^2
    within rounding of 1 - epsilon0^2: the first below it at the working
    precision and not below it at the stored precision, where the twist
    and the tuning lemma read |alpha|, so it is twisted; the second
    2^(19 - bits) below sqrt(1 - epsilon0^2), a gap only the stored
    precision resolves, so it is not."""
    eps = 1e-2 if route == "strict" else 1e-3
    bits = working_bits(eps) + (64 if route in STORED_ABOVE else 0)
    with mp.workprec(bits):
        tiny = mpf("1e-4")
        quarter = mp.pi / 4 + tiny
        polar = {
            # (1 + i + j + k) / 2 = rho, with both phases moved by 1e-4
            "C60 snap": (mp.sqrt(mpf(1) / 2), quarter, quarter),
            "diagonal": (mp.cos(tiny), mpf("0.3"), mpf("1.1")),
            "j-route": (mp.sin(tiny), mpf("0.7"), mpf("0.5")),
            "rho twist, small alpha": (mpf("0.03"), mpf("0.4"), mpf("-1.2")),
            "rho twist, large alpha": (mpf("0.999"), mpf("0.9"), mpf("2")),
            "twist at the stored precision": (
                mpf("0.998749217771908945650067440037408353801563866778"
                    "315472274761"),
                mpf(-1.2190670044149767), mpf("2")),
            "no twist at the stored precision": (
                mp.sqrt(1 - mpf(0.05) ** 2) - mp.ldexp(1, 19 - bits),
                mpf(-1.2190670044149767), mpf("2")),
            "strict": (mpf("0.6"), mpf("0.5"), mpf("-2")),
        }[route]
    rows = sandwich_rows(*polar, bits)
    return rows, bits, SynthConfig(epsilon=eps, strict=route == "strict")


ROUTE_WORDS = {
    "C60 snap": "(r)",
    "diagonal": (
        "(rsrr)t(srsrrsrs)t(srsrrsrsrr)t(srrsrs)t(rrsrrsrsr)t(srrsrsrs)"
        "t(s)"),
    "j-route": (
        "(rsrrsrsr)t(r)t(rrsrrsr)t(rsrr)t(rsrsrr)t(rrsrrsrs)"
        "t(srsrsrrsrsrrsr)"),
    "rho twist, small alpha": (
        "(rsrrs)t(rsrsrrsrs)t(rsrrsrsrrs)t(rrsrsrrsrs)t(rsrrsrs)"
        "t(rrsrr)t(rrsrrsrsr)t(rrsrsr)t(rsrrsrsrr)t(srrsrsrs)"
        "t(rrsrsrrsrs)t(srrsr)t(rsrrsrsrs)t(rrsrsrrsrs)t(rsrrsrsrr)"),
    "rho twist, large alpha": (
        "(rsrrsrsrr)t(srsrs)t(rrsrrsrsrr)t(rrsrrs)t(rrsr)t(s)"
        "t(rrsrsrsrrsrsrrsr)t(rsrrsrsrs)t(rsrrsrsrsrsrrsrs)t(rsrs)"
        "t(rrsrrsrs)t(rsrsrr)t(rsrs)t(rsrsrsrr)"),
    "twist at the stored precision": (
        "(srsr)t(rsrrsrsr)t(rsr)t(srs)t(srrsrs)t(rrsrrs)"
        "t(srrsrssrrsrsrrsr)t(rsrrsrsr)t(srs)t(rsrrsrsrrsrsrsrrsrs)"
        "t(rsrrsrsrrsrs)t(rsrrsrsrr)t(srrsrs)t(rsrrsrsrrs)t(srrsrsrrrr)"),
    "no twist at the stored precision": (
        "(rrs)t(rrsrrsrs)t(srr)t(rr)t(rrsrsrs)t(rrsrrsr)t(rsrsrrsrrsrs)"
        "t(rrs)t(rrsrrsr)t(rrsrrsrsrrsrrs)t(rsrsrrsr)t(srrsr)t(s)"
        "t(rsrrsr)t(srrsrsrs)t(srsrrsrsrrs)"),
    "strict": (
        "(rrsrrsrs)t(rrsrs)t(rrsrsrrs)t(srrsrsrrsr)t(srsrsrr)t(srrs)"
        "t(rrsrrsrsrsrrsrrsrsrs)t(srsrr)t(rrs)t(srsrrsrsrrs)t(rrsrsrr)"),
}


STRICT_CASES = ([("H", eps) for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
                + [(f"haar {i}", 1e-3) for i in range(8)])


@functools.lru_cache(maxsize=None)
def both_modes(label, eps):
    """(target, default report, strict report) for a STRICT_CASES row:
    H, or the i-th haar-shallow pin target."""
    bits = working_bits(eps)
    rows = (hadamard_rows(eps) if label == "H"
            else haar_rows(1, 8)[int(label.split()[1])])
    g = ProjUnitary(rows, bits)
    return (g, synth_general(g, SynthConfig(eps)),
            synth_general(g, SynthConfig(eps, strict=True)))


@pytest.mark.parametrize("label, eps", STRICT_CASES)
def test_strict_keeps_a_default_word_within_eps(label, eps):
    """Strict mode is the default search with the goal eps: where the
    default word is measured below eps, strict returns that word."""
    _, default, strict = both_modes(label, eps)
    if default.achieved < eps:
        assert str(strict.word) == str(default.word)


@pytest.mark.parametrize("label, eps", STRICT_CASES)
def test_strict_word_is_within_eps_at_twice_the_precision(label, eps):
    g, _, strict = both_modes(label, eps)
    bits = 2 * working_bits(eps)
    with mp.workprec(bits):
        assert distance(g, evaluate_word(strict.word, bits)) < eps


@pytest.mark.parametrize("route", list(ROUTE_WORDS))
def test_route_words(monkeypatch, route):
    tunings = []
    tune = icogate.general.tune_diagonals

    def counted(gamma1, gamma2):
        # a HypothesisViolation would propagate and fail the test
        tuned = tune(gamma1, gamma2)
        tunings.append(mp.hypot(gamma1[0], gamma1[1]))
        return tuned

    peels = 0
    peel = icogate.general.exact_synthesize

    def counted_peel(q):
        nonlocal peels
        peels += 1
        return peel(q)

    monkeypatch.setattr(icogate.general, "tune_diagonals", counted)
    monkeypatch.setattr(icogate.general, "exact_synthesize", counted_peel)
    rows, bits, cfg = route_target(route)
    report = synth_general(ProjUnitary(rows, bits), cfg)
    assert str(report.word) == ROUTE_WORDS[route]
    sandwich = report.k > 0
    assert sandwich == bool(tunings)
    assert sandwich == (route not in ("C60 snap", "diagonal", "j-route"))
    # the rho twist puts |alpha_1|^2 within epsilon0 of 1/2
    twisted = {abs(a * a - mpf(1) / 2) <= 0.05 for a in tunings}
    assert twisted <= {route.startswith(("rho twist", "twist"))}
    # a central element is peeled once per tuning
    assert peels == len(tunings)
