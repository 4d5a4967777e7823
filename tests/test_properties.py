"""Property tests (Hypothesis) for the exact layer, its rings and the
distance general synthesis reports.

Every test runs derandomized with a bounded example count, so the
suite is deterministic and its run time fixed.
"""

import math

from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from icogate.gaussgolden import quartic_norm
from icogate.general import SynthConfig, synth_general
from icogate.golden import ONE, ZERO, GoldenInt, _hamilton_i, euclid_divmod
from icogate.icosian import (GateWord, canonical, evaluate_word,
                             exact_synthesize, generate_c60, tau_count,
                             word_to_quat)
from icogate.unitary import (ProjUnitary, distance, precision_for,
                             tuning_constant)
from test_gaussgolden import (I_NE, ONE_NE, PHI_NE, ZERO_NE, add,
                              complex_conj, golden_conj, neg)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

coeff = st.integers(min_value=-10**40, max_value=10**40)
golden = st.builds(GoldenInt, coeff, coeff)
nonzero_golden = golden.filter(bool)
gauss_golden = st.tuples(coeff, coeff, coeff, coeff)

_C60_WORDS = [w for _, w in generate_c60()]
_segment = st.sampled_from(_C60_WORDS)
_inner = st.sampled_from([w for w in _C60_WORDS if w])
# 1 to 40 taus
words = st.builds(
    lambda first, inner, last: GateWord(tuple([first] + inner + [last])),
    _segment, st.lists(_inner, min_size=0, max_size=39), _segment)


@PROPERTY
@given(golden, golden, golden)
def test_golden_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x
    assert x + (-x) == ZERO
    assert (x * y).norm() == x.norm() * y.norm()


@PROPERTY
@given(golden, nonzero_golden)
def test_euclid_divmod_decreases_norm(x, y):
    q, r = euclid_divmod(x, y)
    assert x == q * y + r
    assert abs(r.norm()) < abs(y.norm())


@settings(PROPERTY, max_examples=60)
@given(st.one_of(st.builds(lambda s: GateWord((s,)), _segment), words))
def test_word_quat_word_round_trip(word):
    # segments are C60 table words and inner ones are not the identity,
    # so the word is the quaternion's normal form: refactoring returns
    # the same tau-count, the same projective class and the word itself
    q = word_to_quat(word)
    redone = exact_synthesize(q)
    assert redone.tau_count == word.tau_count == tau_count(q)
    assert canonical(word_to_quat(redone)) == canonical(q)
    assert redone == word


@PROPERTY
@given(gauss_golden, gauss_golden, gauss_golden)
def test_gauss_golden_ring_axioms(x, y, z):
    # (w, x, y, z) tuples under golden's Hamilton kernel
    assert add(add(x, y), z) == add(x, add(y, z))
    assert (_hamilton_i(_hamilton_i(x, y), z)
            == _hamilton_i(x, _hamilton_i(y, z)))
    assert add(x, y) == add(y, x)
    assert _hamilton_i(x, y) == _hamilton_i(y, x)
    assert (_hamilton_i(x, add(y, z))
            == add(_hamilton_i(x, y), _hamilton_i(x, z)))
    assert add(x, ZERO_NE) == x and _hamilton_i(x, ONE_NE) == x
    assert add(x, neg(x)) == ZERO_NE
    assert _hamilton_i(I_NE, I_NE) == neg(ONE_NE)
    assert _hamilton_i(PHI_NE, PHI_NE) == add(PHI_NE, ONE_NE)
    # both conjugations are ring automorphisms, and the quartic norm
    # (the norm down to Z) is multiplicative
    for conj in (complex_conj, golden_conj):
        assert conj(_hamilton_i(x, y)) == _hamilton_i(conj(x), conj(y))
        assert conj(add(x, y)) == add(conj(x), conj(y))
    assert quartic_norm(_hamilton_i(x, y)) == quartic_norm(x) * quartic_norm(y)


HAAR_EPS = 1e-3
_BITS = precision_for(HAAR_EPS)


@settings(PROPERTY, max_examples=20)
@given(st.floats(0, 1), st.floats(-math.pi, math.pi),
       st.floats(-math.pi, math.pi))
def test_general_achieved_is_true_distance(abs_alpha_sq, phase_a, phase_b):
    # a Haar-random SU(2) target: |alpha|^2 uniform, phases uniform;
    # stored at twice the working precision, like the check
    with mp.workprec(2 * _BITS):
        alpha = mp.sqrt(mpf(abs_alpha_sq)) * mp.expj(mpf(phase_a))
        beta = mp.sqrt(1 - mpf(abs_alpha_sq)) * mp.expj(mpf(phase_b))
        g = ProjUnitary(((alpha, beta), (-mp.conj(beta), mp.conj(alpha))),
                        2 * _BITS)
    report = synth_general(g, SynthConfig(HAAR_EPS))
    with mp.workprec(2 * _BITS):
        true = distance(g, evaluate_word(report.word, 2 * _BITS))
        assert true < (tuning_constant() + 2) * mpf(HAAR_EPS)
        # distance is sqrt(1 - |tr|/2), with the radicand computed to
        # about 2^-p at p bits: the squares agree to working precision
        assert abs(true ** 2 - report.achieved ** 2) < mpf(2) ** (8 - _BITS)
