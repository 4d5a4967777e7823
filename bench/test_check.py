"""The independent checker accepts icogate's real outputs and rejects
tampered ones.  Run with: python3 -m pytest bench/test_check.py"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from icogate.diagonal import synth_diagonal  # noqa: E402
from icogate.general import SynthConfig, synth_general  # noqa: E402
from icogate.icosian import GateWord, exact_synthesize, word_to_quat  # noqa: E402
from icogate.unitary import ProjUnitary  # noqa: E402

EPS = 1e-3


def _flip_letter(word: str) -> str:
    """The same word with its first r turned into s (or s into r)."""
    i = next(i for i, c in enumerate(word) if c in "rs")
    return word[:i] + ("s" if word[i] == "r" else "r") + word[i + 1:]


@pytest.fixture(scope="module")
def diagonal_output():
    bits = check.working_bits(EPS)
    with mp.workprec(bits):
        theta = mp.pi / 8
    _, word, achieved = synth_diagonal(theta, EPS, precision_bits=bits)
    target = check.diagonal_target(theta, check.check_bits(EPS))
    return str(word), word.tau_count, achieved, target


@pytest.fixture(scope="module")
def general_output():
    t = workloads.haar_shallow(7)[0]
    report = synth_general(ProjUnitary(t.rows, t.bits),
                           SynthConfig(epsilon=t.epsilon))
    bound = check.tuning_bound(t.epsilon, 0.5, 0.05)
    return str(report.word), report.tau_count, report.achieved, t.rows, bound


@pytest.fixture(scope="module")
def exact_output():
    text = workloads.exact_words(3)[0].word
    q = word_to_quat(GateWord.parse(text))
    word = exact_synthesize(q)
    return [(x.a, x.b) for x in q.parts()], str(word), word.tau_count, text


def test_accepts_real_outputs(diagonal_output, general_output, exact_output):
    word, taus, achieved, target = diagonal_output
    check.check_synthesis(word, taus, achieved, target, EPS, EPS)
    word, taus, achieved, rows, bound = general_output
    check.check_synthesis(word, taus, achieved, rows, EPS, bound)
    coords, word, taus, text = exact_output
    check.check_exact(coords, word, taus, input_word=text)


def test_rejects_changed_letter(diagonal_output, general_output, exact_output):
    word, taus, achieved, target = diagonal_output
    with pytest.raises(check.CheckFailed):
        check.check_synthesis(_flip_letter(word), taus, achieved, target,
                              EPS, EPS)
    word, taus, achieved, rows, bound = general_output
    with pytest.raises(check.CheckFailed):
        check.check_synthesis(_flip_letter(word), taus, achieved, rows,
                              EPS, bound)
    coords, word, taus, text = exact_output
    with pytest.raises(check.CheckFailed):
        check.check_exact(coords, _flip_letter(word), taus, input_word=text)


def test_rejects_misreported_achieved(diagonal_output, general_output):
    word, taus, achieved, target = diagonal_output
    with pytest.raises(check.CheckFailed):
        check.check_synthesis(word, taus, mpf(achieved) * (1 + 1e-6), target,
                              EPS, EPS)
    word, taus, achieved, rows, bound = general_output
    with pytest.raises(check.CheckFailed):
        check.check_synthesis(word, taus, mpf(achieved) / 2, rows, EPS, bound)


def test_rejects_wrong_tau_count(diagonal_output, exact_output):
    word, taus, achieved, target = diagonal_output
    for wrong in (taus - 1, taus + 1):
        with pytest.raises(check.CheckFailed):
            check.check_synthesis(word, wrong, achieved, target, EPS, EPS)
    coords, word, taus, text = exact_output
    with pytest.raises(check.CheckFailed):
        check.check_exact(coords, word, taus + 1, input_word=text)


def test_exact_rejects_wasted_taus():
    # rho^3 = -8 is a scalar, so t(rrr)t is a scalar times eta: the
    # word's product is sigma^2 up to a scalar and has tau-count 0.
    wasteful = "(s)t(rrr)t(s)"
    coords = check.word_product(wasteful)
    check.check_tau_count(wasteful, 2)
    with pytest.raises(check.CheckFailed):
        check.check_exact(coords, wasteful, 2, input_word=wasteful)
    check.check_exact(coords, "(ss)", 0, input_word=wasteful)


def test_rejects_word_not_matching_input(exact_output):
    coords, word, taus, text = exact_output
    with pytest.raises(check.CheckFailed):
        check.check_exact(coords, word, taus, input_word=_flip_letter(text))
