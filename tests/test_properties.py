"""Property tests (Hypothesis) for the exact layer and its ring.

Every test runs derandomized with a bounded example count, so the
suite is deterministic and its run time fixed.
"""

from hypothesis import given, settings, strategies as st

from icogate.golden import ONE, ZERO, GoldenInt, euclid_divmod
from icogate.icosian import (GateWord, canonical, exact_synthesize,
                             generate_c60, tau_count, word_to_quat)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

coeff = st.integers(min_value=-10**40, max_value=10**40)
golden = st.builds(GoldenInt, coeff, coeff)
nonzero_golden = golden.filter(bool)

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
