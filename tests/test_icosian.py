import math
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from mpmath import mp, mpf

from peel_oracle import peel_oracle
from icogate import icosian
from icogate.errors import IcogateError, MalformedInput, NotInGroup
from icogate.golden import (ETA, GoldenInt, embed, eta_valuation, exact_div,
                            phi_power)
from icogate.icosian import (C60Table, GateWord, GoldenQuat, ONE_QUAT, RHO,
                             SIGMA, TAU, _is_scalar_segment, canonical,
                             evaluate_word, exact_synthesize, generate_c60,
                             tau_count, word_to_quat)
from icogate.unitary import ProjUnitary, distance, quaternion_distance

PROJ_TOL = 1e-15


def reference_synthesize(q):
    """exact_synthesize by trial division: canonicalize, peel the oracle
    cofactor, which must be unique, and canonicalize again, tau by tau.
    Returns the word, or the exception exact_synthesize must raise."""
    table = generate_c60()
    gamma = canonical(q)
    tails = []
    for _ in range(tau_count(gamma)):
        cands = peel_oracle(gamma)
        # C60 acts simply transitively on the lines mod eta
        assert len(cands) == 1, gamma
        tails.append(table.word_for(cands[0].conjugate()))
        gamma = canonical(gamma * (cands[0] * TAU))
    base = table.word_for(gamma)
    if base is None:
        return NotInGroup(f"{canonical(q)!r} is not in the gate group")
    return GateWord(tuple([base] + tails[::-1]))


def rand_quat(rng, span=4):
    return GoldenQuat(*(GoldenInt(rng.randint(-span, span),
                                  rng.randint(-span, span))
                        for _ in range(4)))


def test_generator_norms():
    assert RHO.nrd() == GoldenInt(4, 0)
    assert SIGMA.nrd() == GoldenInt(4, 4)  # 4*phi^2
    assert TAU.nrd() == ETA
    assert TAU.x0 == GoldenInt(0, 0)  # pure quaternion: tau is an involution


def test_nrd_multiplicative():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rand_quat(rng), rand_quat(rng)
        assert (a * b).nrd() == a.nrd() * b.nrd()


def test_conjugate_gives_norm():
    rng = random.Random(4)
    for _ in range(50):
        q = rand_quat(rng)
        n = q.nrd()
        assert q * q.conjugate() == GoldenQuat(n, 0, 0, 0)
        assert (q.conjugate()).conjugate() == q


def test_tau_squared_is_scalar():
    assert TAU * TAU == GoldenQuat(-ETA, 0, 0, 0)


def test_canonical_collapses_scalars():
    rng = random.Random(5)
    for _ in range(50):
        q = rand_quat(rng)
        if all(v == 0 for v in q.coords()):
            continue
        rep = canonical(q)
        assert canonical(rep) == rep
        for scalar in (GoldenInt(-3, 0), phi_power(4), -phi_power(-3),
                       GoldenInt(2, 0) * phi_power(1)):
            assert canonical(q * scalar) == rep


def test_canonical_ignores_unit_factors():
    rng = random.Random(6)
    quats = [RHO, TAU * SIGMA * TAU, rand_quat(rng, 10**6)]
    for q in quats:
        rep = canonical(q)
        for e in range(-3000, 3001, 29):
            u = phi_power(e)
            assert canonical(q * u) == rep, (q, e)
            assert canonical(-q * u) == rep, (q, e)


def test_canonical_rejects_zero():
    with pytest.raises(MalformedInput):
        canonical(GoldenQuat(0, 0, 0, 0))


def test_to_unitary_matches_known_matrices():
    ident = ONE_QUAT.to_unitary()
    eye = ProjUnitary(((1, 0), (0, 1)))
    assert distance(ident, eye) < PROJ_TOL
    rho_ref = ProjUnitary(((1, 1), (1j, -1j)))
    assert distance(RHO.to_unitary(), rho_ref) < PROJ_TOL


@pytest.mark.parametrize("bits", [53, 64, 128, 300])
def test_to_vector_is_embed_of_each_coordinate(bits):
    # read off the flat ints, each coordinate is golden.embed's to the bit
    rng = random.Random(bits)
    quats = [RHO, SIGMA, TAU, GoldenQuat(0, 0, 0, 0)] + [
        GoldenQuat(*(GoldenInt(rng.randint(-2 ** 60, 2 ** 60),
                               rng.randint(-2 ** 60, 2 ** 60))
                     for _ in range(4))) for _ in range(50)]
    for q in quats:
        got = q.to_vector(bits)
        want = tuple(embed(x, "plus", bits) for x in q.parts())
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want], q


def test_c60_table():
    table = generate_c60()
    assert len(table) == 60
    assert table.word_for(ONE_QUAT) == ""
    assert table.word_for(RHO) == "r"
    assert table.word_for(SIGMA) == "s"
    # every stored word reproduces its element
    for q, word in table:
        assert canonical(word_to_quat(GateWord((word,)))) == q
        assert eta_valuation(q.nrd()) == 0
    # closed under multiplication modulo scalars
    rng = random.Random(6)
    quats = [q for q, _ in table]
    for _ in range(100):
        a, b = rng.choice(quats), rng.choice(quats)
        assert canonical(a * b) in quats


def test_c60_inverse_words():
    table = generate_c60()
    for q, _ in table:
        inv = table.inverse_word_for(q)
        prod = q * word_to_quat(GateWord((inv,)))
        assert canonical(prod) == canonical(ONE_QUAT)
        assert inv == table.word_for(q.conjugate())
    with pytest.raises(NotInGroup):
        table.inverse_word_for(TAU)


def test_c60_lookups_match_the_canonical_oracle():
    """word_for, inverse_word_for and _is_scalar_segment find classes by
    residue key mod eta and the minors; each answer must be the one
    canonical() and the word map give, on members scaled by units,
    powers of 2 and eta, 11 and sqrt5, on quaternions sharing a member's
    key, on every {r, s}-segment up to length 6 and on non-members."""
    table = generate_c60()

    def oracle(q):
        return table._word_map.get(canonical(q))

    def check(q):
        word = oracle(q)
        assert table.word_for(q) == word, q
        if word is None:
            with pytest.raises(NotInGroup):
                table.inverse_word_for(q)
        else:
            assert table.inverse_word_for(q) == oracle(q.conjugate()), q

    scalars = [sign * phi_power(n) for n in range(-40, 41) for sign in (1, -1)]
    scalars += [GoldenInt(2**k, 0) for k in range(1, 6)]
    scalars += [ETA**k for k in range(1, 4)]
    scalars += [GoldenInt(11, 0), GoldenInt(-1, 2),
                ETA * GoldenInt(-1, 2) * phi_power(-7) * 4]
    rng = random.Random(12)
    for e, _ in table:
        for scalar in scalars:
            check(e * scalar)
        # the same residues as e, so the same key: the minors must refuse
        for _ in range(3):
            check(e + rand_quat(rng, 50) * ETA)
    for length in range(7):
        for letters in product("rs", repeat=length):
            seg = "".join(letters)
            q = word_to_quat(GateWord((seg,)))
            check(q)
            assert _is_scalar_segment(seg) == (oracle(q) == ""), seg
    m = GoldenQuat(1, 1, 0, 0)
    for q in (TAU, m, m * TAU, TAU * m, TAU * phi_power(5), TAU * ETA,
              TAU * GoldenInt(11, 0)):
        assert oracle(q) is None
        check(q)
    zero = GoldenQuat(0, 0, 0, 0)
    for lookup in (table.word_for, table.inverse_word_for):
        with pytest.raises(MalformedInput):
            lookup(zero)


def test_c60_table_refuses_a_missing_inverse():
    # rho has order 3, so without it rho^-1 has no inverse in the table
    elements = tuple((q, w) for q, w in generate_c60() if w != "r")
    with pytest.raises(IcogateError, match="inverse"):
        C60Table(elements)


def test_c60_snap_matches_a_fresh_measurement_of_all_60():
    """C60Table.snap against every element measured with a fresh
    to_vector at the working precision: with brute-force distance d,
    snap(t, 2) and snap(t, d + 2^-(p/2)) give the same element, segment
    and distance, the first in table order on a tie, and snap(t, d)
    gives None.  The targets include the diagonal twin ties u(0.7),
    u(1.2) and u(-0.4), and the precision switches among 19 values
    within the process, so nothing kept from another precision can
    measure in its place."""
    table = generate_c60()

    def brute(target):
        best = None
        for q, seg in table:
            d = quaternion_distance(target, q.to_vector(mp.prec))
            if best is None or d < best[2]:
                best = (q, seg, d)
        return best

    rng = random.Random(60)
    points = [[rng.gauss(0, 1) for _ in range(4)] for _ in range(8)]
    points += [[math.cos(t), math.sin(t), 0, 0]
               for t in (0, 0.3, 0.7, 1.2, -0.4, math.pi / 2)]
    points += [q.to_vector(53) for q, _ in list(table)[::12]]
    precisions = [64 + 13 * n for n in range(19)]
    for p in precisions + precisions[::-5]:
        with mp.workprec(p):
            for v in points:
                v = [mpf(x) for x in v]
                norm = mp.sqrt(mp.fdot(v, v))
                target = tuple(x / norm for x in v)
                best = brute(target)
                d = best[2]
                assert table.snap(target, 2) == best
                assert table.snap(target, d) is None
                assert table.snap(target, d + mpf(2) ** -(p // 2)) == best
    # a target that is not finite has no nearest element
    for target in ((mp.nan, 0, 0, 0), (mp.inf, 0, 0, 0)):
        with pytest.raises(MalformedInput):
            table.snap(target, mpf("1e-3"))


def test_c60_deterministic():
    first = [w for _, w in generate_c60()]
    generate_c60.cache_clear()
    assert [w for _, w in generate_c60()] == first


def test_word_text_round_trip():
    for text, segs in [
        ("()", ("",)),
        ("(rs)t(r)t()", ("rs", "r", "")),
        ("()t(ssr)t()", ("", "ssr", "")),
    ]:
        word = GateWord.parse(text)
        assert word.segments == segs
        assert str(word) == text
        assert GateWord.parse(str(word)) == word


def test_word_bare_parse():
    assert GateWord.parse("rstrr").segments == ("rs", "rr")
    assert GateWord.parse("").segments == ("",)
    assert GateWord.parse("t").segments == ("", "")
    assert GateWord.parse(" (rs) t (r) ") == GateWord(("rs", "r"))
    with pytest.raises(MalformedInput):
        GateWord.parse("tt")  # an inner segment would be empty


def test_word_validation():
    with pytest.raises(MalformedInput):
        GateWord(("r", "", "s"))  # inner empty
    with pytest.raises(MalformedInput):
        GateWord(("rx",))
    with pytest.raises(MalformedInput):
        GateWord.parse("(r)t(q)")
    with pytest.raises(MalformedInput):
        GateWord.parse("(r")


def test_word_json_round_trip():
    word = GateWord(("rs", "r", ""))
    data = word.to_json()
    assert data == {"segments": ["rs", "r", ""], "tau_count": 2}
    assert GateWord.from_json(data) == word
    with pytest.raises(MalformedInput):
        GateWord.from_json({"segments": ["r"], "tau_count": 3})


def test_word_concat_matches_quat_product():
    rng = random.Random(7)
    table = generate_c60()
    words = [w for _, w in table]
    for _ in range(40):
        a = random_word(rng, words, rng.randint(0, 3))
        b = random_word(rng, words, rng.randint(0, 3))
        joined = a.concat(b)
        assert canonical(word_to_quat(joined)) == canonical(
            word_to_quat(a) * word_to_quat(b))


def test_concat_cancels_tau_tau():
    tau_word = GateWord(("", ""))
    assert tau_word.concat(tau_word) == GateWord(("",))
    a = GateWord(("r", ""))
    b = GateWord(("", "s"))
    assert a.concat(b) == GateWord(("rs",))


def test_concat_cancels_scalar_seam():
    # X + X is a nonempty {r, s}-segment that is a projective scalar, so
    # tau X X tau is a scalar and both taus cancel
    x = "rsrrsrsrrsrs"
    assert generate_c60().word_for(word_to_quat(GateWord((x + x,)))) == ""
    left, right = GateWord(("rs", x)), GateWord((x, "sr"))
    joined = left.concat(right)
    assert joined.tau_count == 0
    assert canonical(word_to_quat(joined)) == canonical(
        word_to_quat(left) * word_to_quat(right))


def random_word(rng, seg_pool, k):
    segs = [rng.choice(seg_pool)]
    for i in range(k):
        seg = rng.choice(seg_pool)
        while 0 < i < k and not seg:
            seg = rng.choice(seg_pool)
        segs.append(seg)
    # enforce inner nonempty
    for i in range(1, len(segs) - 1):
        while not segs[i]:
            segs[i] = rng.choice([w for w in seg_pool if w])
    return GateWord(tuple(segs))


def test_word_to_quat_is_the_letter_product():
    # word_to_quat multiplies whole pieces; the result must still be the
    # exact product of the letters, scalar and all
    rng = random.Random(7)
    letters = {"r": RHO, "s": SIGMA, "t": TAU}
    for _ in range(40):
        segs = [""] + ["".join(rng.choice("rs") for _ in range(rng.randint(1, 6)))
                       for _ in range(rng.randint(0, 12))] + [""]
        word = GateWord(tuple(segs[rng.randint(0, 1):]))
        expected = ONE_QUAT
        for ch in str(word).replace("(", "").replace(")", ""):
            expected = expected * letters[ch]
        assert word_to_quat(word) == expected


def test_evaluate_word_basics():
    eye = ProjUnitary(((1, 0), (0, 1)))
    assert distance(evaluate_word(GateWord(("",))), eye) < PROJ_TOL
    tau_sq = word_to_quat(GateWord(("", "")).concat(GateWord(("", ""))))
    assert canonical(tau_sq) == canonical(ONE_QUAT)
    assert distance(evaluate_word(GateWord(("r",))),
                    RHO.to_unitary()) < PROJ_TOL


def test_exact_synthesize_identity_and_tau():
    w = exact_synthesize(ONE_QUAT)
    assert w == GateWord(("",))
    wt = exact_synthesize(TAU)
    assert wt.tau_count == 1
    assert distance(evaluate_word(wt), TAU.to_unitary()) < PROJ_TOL


def test_exact_synthesize_rejects_outsiders():
    with pytest.raises(NotInGroup):
        exact_synthesize(GoldenQuat(1, 1, 0, 0))  # nrd 2, not a gate


def test_exact_synthesis_round_trip():
    rng = random.Random(8)
    table = generate_c60()
    words = [w for _, w in table]
    done = 0
    while done < 30:
        k = rng.randint(0, 8)
        word = random_word(rng, words, k)
        q = word_to_quat(word)
        if tau_count(q) != k:
            continue  # collision made the word reducible; resample
        redone = exact_synthesize(q)
        assert redone.tau_count == k
        assert canonical(word_to_quat(redone)) == canonical(q)
        done += 1


def test_peeling_unique():
    rng = random.Random(9)
    table = generate_c60()
    words = [w for _, w in table]
    for _ in range(10):
        word = random_word(rng, words, 4)
        gamma = canonical(word_to_quat(word))
        while eta_valuation(gamma.nrd()) > 0:
            cands = peel_oracle(gamma)
            assert len(cands) == 1
            quotient = gamma * (cands[0] * TAU)
            parts = [exact_div(x, ETA) for x in quotient.parts()]
            gamma = canonical(GoldenQuat(*parts))


def mat_mul_mod_eta(m, n, modulus=59):
    """Product of 2x2 matrices over Z/modulus (F_59 by default) given as
    (m00, m01, m10, m11)."""
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % modulus, (a * f + b * h) % modulus,
            (c * e + d * g) % modulus, (c * f + d * h) % modulus)


M2 = 59 * 59


def image_mod_eta2(q):
    """q's 2x2 matrix over Z/59^2, from the lifts phi -> 329 and
    j -> [[2894, 7], [7, -2894]] (i -> [[0, 1], [-1, 0]], k = ij)."""
    g0, g1, g2, g3 = ((x.a + 329 * x.b) % M2 for x in q.parts())
    s, t = 2894 * g2 + 7 * g3, 7 * g2 - 2894 * g3
    return ((g0 + s) % M2, (g1 + t) % M2, (t - g1) % M2, (g0 - s) % M2)


def line_key_mod_eta2(u, v):
    """The point of P^1(Z/59^2) of the line through (u, v), which is
    nonzero mod 59: v/u for a unit u, else 3481 + (u/v)/59."""
    if u % 59:
        return v * pow(u, -1, M2) % M2
    return M2 + (u * pow(v, -1, M2) % M2) // 59


def test_lifts_mod_eta_squared():
    phi, j = icosian._PHI_MOD_ETA2, icosian._J_MOD_ETA2
    assert (phi, j) == (329, 2894)
    assert (phi * phi - phi - 1) % M2 == 0 and phi % 59 == 34
    assert (j * j + 7 * 7 + 1) % M2 == 0 and j % 59 == 3
    assert (ETA.a + phi * ETA.b) % M2 == 59 * 28  # eta, not eta^2


def test_image_mod_eta_squared_is_multiplicative_with_det_nrd():
    assert image_mod_eta2(ONE_QUAT) == (1, 0, 0, 1)
    rng = random.Random(12)
    for _ in range(200):
        g, h = rand_quat(rng, 60), rand_quat(rng, 60)
        ig, ih = image_mod_eta2(g), image_mod_eta2(h)
        assert image_mod_eta2(g * h) == mat_mul_mod_eta(ig, ih, M2)
        m00, m01, m10, m11 = ig
        n = g.nrd()
        assert (m00 * m11 - m01 * m10) % M2 == (n.a + 329 * n.b) % M2
        # the module's own residues and image agree
        assert icosian._image(icosian._residues(g.coords(), M2, 329)) == ig


def test_pair_table_is_keyed_by_the_image_line_mod_eta_squared():
    """c1*tau*c2*tau is divisible by eta for exactly 60 of the 3,600
    pairs, those with c2 = 1; the other 3,540 have 3,540 distinct image
    lines mod eta^2, and the pair table holds each pair's product times
    conj(eta)^2 and the words for c1^-1 and c2^-1 at its line."""
    table = generate_c60()
    pairs = table.peel_table()
    assert len(pairs) == 3540
    c_taus = [(c, c * TAU) for c, _ in table]
    backtracking, keys = 0, set()
    for c1, left in c_taus:
        for c2, right in c_taus:
            p = left * right
            if all(exact_div(x, ETA) is not None for x in p.parts()):
                assert table.word_for(c2) == ""
                backtracking += 1
                continue
            m00, m01, m10, m11 = image_mod_eta2(p)
            assert (m00 * m11 - m01 * m10) % M2 == 0
            if m00 % 59 or m10 % 59:
                key = line_key_mod_eta2(m00, m10)
            else:
                key = line_key_mod_eta2(m01, m11)
            keys.add(key)
            assert pairs[key] == ((p * ETA.conj() ** 2).coords()
                                  + (table.inverse_word_for(c1),
                                     table.inverse_word_for(c2)))
    assert backtracking == 60
    assert keys == set(range(3540))


def test_exact_synthesize_matches_trial_division():
    """Each cofactor exact_synthesize picks by kernel line mod eta is the
    one trial division finds, step by step, on short and 30-50-tau words,
    scaled by units and powers of 2; non-group inputs fail alike."""
    rng = random.Random(10)
    words = [w for _, w in generate_c60()]
    scalar_seg = "rsrrsrsrrsrs" * 2  # a nonempty segment equal to 1 in C60
    cases = [random_word(rng, words, rng.randint(0, 12)) for _ in range(25)]
    cases += [GateWord.parse(text) for text in (
        "(rs)t(srs)t()", "()t(r)t(s)", "()t()", f"(r)t({scalar_seg})t(s)",
        f"()t(rr)t({scalar_seg})t(s)t()")]
    long_words = [random_word(rng, words, k) for k in (30, 37, 44, 50)]
    quats = [word_to_quat(w) for w in cases + long_words]
    quats += [word_to_quat(w) * phi_power(n)
              for w, n in zip(long_words, (-40, -17, 23, 40))]
    quats += [word_to_quat(w) * 2**j for w, j in zip(long_words, (1, 6))]
    m = GoldenQuat(1, 1, 0, 0)  # nrd 2: no word reaches it
    quats += [m, TAU * m, m * TAU, TAU * m * TAU, m * TAU * RHO * TAU * m,
              TAU * GoldenQuat(1, GoldenInt(0, 1), 1, 0),
              word_to_quat(long_words[0]) * m * TAU * phi_power(9),
              m * word_to_quat(long_words[1]) * 2]
    for q in quats:
        assert_matches_reference(q)


def assert_matches_reference(q):
    """exact_synthesize(q) gives reference_synthesize's word, tail by
    tail, or raises its error, type and message alike."""
    expected = reference_synthesize(q)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            exact_synthesize(q)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        return
    got = exact_synthesize(q)
    assert got.tau_count == expected.tau_count
    for step in range(1, got.tau_count + 1):
        assert got.segments[-step] == expected.segments[-step], step
    assert got == expected


def reduced_word_quat(rng, k):
    """The quaternion of a random k-tau word whose reduced norm keeps
    all k factors of eta."""
    words = [w for _, w in generate_c60()]
    while True:
        q = word_to_quat(random_word(rng, words, k))
        if tau_count(q) == k:
            return q


def test_exact_synthesize_peels_pairs_then_one_step():
    """Pairs of taus peel mod eta^2 and an odd count takes one odd step,
    gamma -> tau*gamma: every tau count 0..13, and 50, matches trial
    division, and so do an odd and an even input outside the group with
    eta-valuation at least 2, message and all."""
    rng = random.Random(14)
    quats = [reduced_word_quat(rng, k) for k in [*range(14), 50]]
    m = GoldenQuat(1, 1, 0, 0)  # nrd 2: no word reaches it
    odd = TAU * m * TAU * SIGMA * TAU
    even = m * TAU * RHO * TAU * SIGMA * TAU * m * TAU
    assert [tau_count(x) for x in (odd, even)] == [3, 4]
    assert all(isinstance(reference_synthesize(x), NotInGroup)
               for x in (odd, even))
    for q in quats + [odd, even]:
        assert_matches_reference(q)


def test_exact_synthesize_factors_every_one_tau_word():
    """(w1)t(w2) for every pair of table words, all 3,600, factors to
    exactly (w1, w2): through the odd step's division by eta when w1 is
    empty, through its pair peel otherwise."""
    words = [w for _, w in generate_c60()]
    for w1 in words:
        for w2 in words:
            word = GateWord((w1, w2))
            assert exact_synthesize(word_to_quat(word)) == word, word


def test_exact_synthesize_makes_one_product_per_two_taus(monkeypatch):
    """A primitive k-tau input costs one Hamilton product per pair of
    taus, k // 2, and an odd k two more: tau*gamma, then a pair peel or
    the division of the eta-content it leaves."""
    rng = random.Random(15)
    counts = [*range(14), 49, 50]
    quats = [reduced_word_quat(rng, k) for k in counts]
    generate_c60().peel_table()  # the lazy build makes products too
    calls = []

    def counting(p, q):
        calls.append(1)
        return real(p, q)

    real = icosian._hamilton
    monkeypatch.setattr(icosian, "_hamilton", counting)
    for k, q in zip(counts, quats):
        calls.clear()
        assert exact_synthesize(q).tau_count == k
        assert len(calls) == k // 2 + 2 * (k % 2), k


def test_pair_table_is_built_on_the_first_two_tau_peel():
    """Importing the CLI and building C60 leave the pair table unbuilt,
    and so does tau*rho, whose odd step leaves eta-content
    (tau*tau*rho = -eta*rho); rho*tau, whose odd step leaves two taus,
    builds it."""
    code = "\n".join((
        "import icogate.cli",
        "from icogate.icosian import RHO, TAU, exact_synthesize, "
        "generate_c60",
        "table = generate_c60()",
        "assert table._pairs is None",
        "exact_synthesize(TAU * RHO)",
        "assert table._pairs is None",
        "exact_synthesize(RHO * TAU)",
        "assert len(table._pairs) == 3540"))
    path = str(Path(icosian.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_exact_synthesize_is_scalar_invariant_without_canonical(monkeypatch):
    """A word times eta^k, phi^n, 2^j or 11 factors to the same word as
    the word itself, which trial division also finds, and none of these
    calls needs canonical(): the exact layer strips 2s and eta-content
    and finds the residual's class by its residue key."""
    rng = random.Random(13)
    words = [w for _, w in generate_c60()]
    quats = [word_to_quat(random_word(rng, words, k)) for k in (30, 41, 50)]
    expected = [reference_synthesize(q) for q in quats]
    scalars = [ETA, ETA**3, phi_power(-33), phi_power(28), GoldenInt(2, 0),
               GoldenInt(2**9, 0), GoldenInt(11, 0),
               ETA**2 * phi_power(-5) * 2**4 * 11]

    def refuse(q):
        raise AssertionError("canonical() on the exact layer's hot path")

    monkeypatch.setattr(icosian, "canonical", refuse)
    for q, word in zip(quats, expected):
        assert word.tau_count == tau_count(q)
        for scaled in [q] + [q * scalar for scalar in scalars]:
            assert exact_synthesize(scaled) == word
    assert exact_synthesize(GoldenQuat(ETA * 2, 0, 0, 0)) == GateWord(("",))
    assert exact_synthesize(RHO * ETA) == GateWord(("r",))
    with pytest.raises(MalformedInput):
        exact_synthesize(GoldenQuat(0, 0, 0, 0))


def norm_eta_power_quats(m):
    """Every x in Z[phi]^4 with x0^2 + x1^2 + x2^2 + x3^2 = eta^m
    exactly: coordinates from the box their embeddings are bounded by
    (sigma_pm(xi)^2 <= sigma_pm(eta)^m), pairs (x0, x1) grouped by
    x0^2 + x1^2, each group joined with the pairs of eta^m - s."""
    target = ETA**m
    plus, minus = (math.sqrt(embed(target, side, 53)) + 1e-9
                   for side in ("plus", "minus"))
    phi = (1 + math.sqrt(5)) / 2
    b_max = int((plus + minus) / math.sqrt(5)) + 1
    a_max = int(plus + b_max * phi) + 1
    values = [GoldenInt(a, b) for b in range(-b_max, b_max + 1)
              for a in range(-a_max, a_max + 1)
              if abs(a + b * phi) <= plus and abs(a + b - b * phi) <= minus]
    pairs = {}
    for x0, x1 in product(values, repeat=2):
        pairs.setdefault(x0 * x0 + x1 * x1, []).append((x0, x1))
    return [GoldenQuat(*head, *tail)
            for s, heads in pairs.items()
            for tail in pairs.get(target - s, ())
            for head in heads]


@pytest.mark.parametrize("m, count", [(0, 8), (1, 480), (2, 28328)])
def test_every_quaternion_of_norm_eta_power_is_a_word(m, count):
    """Brute-force oracle of the super golden gate property
    (Parzanchevski-Sarnak, arXiv:1704.02106): every x in Z[phi]^4 with
    nrd(x) = eta^m, m <= 2, lies in the icosian order, and
    exact_synthesize factors it, with no NotInGroup, into m - 2j taus
    for x's eta-content j, into a word whose product is a Z[phi]
    multiple of x.  These are the candidates the searches hand it."""
    quats = norm_eta_power_quats(m)
    assert len(quats) == len(set(quats)) == count
    for x in quats:
        content = min(eta_valuation(c) for c in x.parts() if c)
        word = exact_synthesize(x)
        assert word.tau_count == m - 2 * content, x
        y = word_to_quat(word).parts()
        parts = x.parts()
        assert all(parts[i] * y[j] == parts[j] * y[i]
                   for i, j in combinations(range(4), 2)), x
