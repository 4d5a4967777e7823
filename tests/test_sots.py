"""Tests for sum-of-two-squares decomposition in Z[phi]."""

import math
import random

import pytest

from icogate.errors import NotRepresentable, UnsupportedResidue
from icogate import intfactor
from icogate import sots as sots_module
from icogate.golden import (ETA, PHI, GoldenInt, eta_power, factor, norm,
                            phi_power, sign_minus, sign_plus, split_prime)
from icogate.general import SynthConfig, build_central, synth_general
from icogate.intfactor import (factor_int, is_probable_prime, small_primes,
                               trial_divide)
from icogate.sots import decide, screen, sots_exact
from icogate.unitary import named_gate, precision_for


def embeddings_bounded(x, bound):
    """Exact check that |sigma(x)| <= bound for both embeddings."""
    b = GoldenInt(bound)
    return (sign_plus(b - x) >= 0 and sign_plus(b + x) >= 0
            and sign_minus(b - x) >= 0 and sign_minus(b + x) >= 0)


def embedding_box(bound):
    """All of Z[phi] with both embeddings bounded by `bound`."""
    bmax = int(2 * bound / 5**0.5) + 2
    amax = int(bound + bmax * 1.62) + 2
    out = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            x = GoldenInt(a, b)
            if embeddings_bounded(x, bound):
                out.append(x)
    return out


def representable_values(bound):
    """Every x with embeddings <= bound that is a sum of two squares.

    If x = s^2 + t^2 then both embeddings of s^2 and t^2 lie in
    [0, bound], so enumerating s, t over the square-root box and
    collecting bounded sums is exhaustive.
    """
    parts = [s for s in embedding_box(int(math.isqrt(bound)) + 1)
             if embeddings_bounded(s * s, bound)]
    squares = [s * s for s in parts]
    values = set()
    for i, s2 in enumerate(squares):
        for t2 in squares[i:]:
            v = s2 + t2
            if embeddings_bounded(v, bound):
                values.add(v)
    return values


def test_sots_irreducible_examples():
    # 2 and 5 ramify in Z[phi]
    assert sots_exact(GoldenInt(2)) == (GoldenInt(1), GoldenInt(1))
    assert sots_exact(GoldenInt(5)) == (GoldenInt(-1, 2), GoldenInt(0))

    with pytest.raises(UnsupportedResidue):
        sots_exact(ETA)  # 59 = 19 (mod 20)


def test_sots_irreducible_split_and_inert():
    # 29 = 9 (mod 20) splits; 13 = 13 (mod 20) stays inert; 7 = 7 (mod 20)
    # takes the sqrt(-5) pathway
    for x in (totally_positive(split_prime(29)),
              totally_positive(split_prime(29).conj()),
              GoldenInt(13), GoldenInt(7)):
        s, t = sots_exact(x)
        assert s * s + t * t == x


def test_sots_exact_sqrt5_dichotomy():
    # sqrt5 is not totally nonnegative; sqrt5 * phi = 2 + phi is
    with pytest.raises(NotRepresentable):
        sots_exact(GoldenInt(-1, 2))
    s, t = sots_exact(GoldenInt(-1, 2) * PHI)
    assert s * s + t * t == GoldenInt(2, 1)


def test_sots_examples():
    assert sots_exact(GoldenInt(4)) == (GoldenInt(2), GoldenInt(0))
    assert sots_exact(GoldenInt(2)) == (GoldenInt(1), GoldenInt(1))
    s, t = sots_exact(GoldenInt(10))
    assert s * s + t * t == GoldenInt(10)


def test_sots_rejects_negative():
    with pytest.raises(NotRepresentable):
        sots_exact(GoldenInt(-2, 0))


def test_sots_exact_examples():
    assert sots_exact(GoldenInt(0, 0)) == (GoldenInt(0, 0), GoldenInt(0, 0))
    s, t = sots_exact(GoldenInt(2, 0))
    assert s * s + t * t == GoldenInt(2, 0)
    with pytest.raises(NotRepresentable):
        sots_exact(ETA)


def test_sots_exact_complete_on_constructed_sums():
    rng = random.Random(83)
    for _ in range(60):
        s = GoldenInt(rng.randint(-9, 9), rng.randint(-9, 9))
        t = GoldenInt(rng.randint(-9, 9), rng.randint(-9, 9))
        x = s * s + t * t
        if not x:
            continue
        a, b = sots_exact(x)
        assert a * a + b * b == x


def test_sots_exact_matches_brute_force():
    """Criteria + sign decide representability exactly on a sample."""
    rng = random.Random(89)
    table = representable_values(60)
    for _ in range(400):
        x = GoldenInt(rng.randint(-20, 20), rng.randint(-20, 20))
        if not x or not embeddings_bounded(x, 60):
            continue
        expected = x in table
        try:
            s, t = sots_exact(x)
            assert s * s + t * t == x
            got = True
        except NotRepresentable:
            got = False
        assert got == expected, x


def test_lemma6_dichotomy_small_region():
    table = representable_values(25)
    for x in embedding_box(15):
        if not x:
            continue
        assert not (x in table and x * PHI in table), x


def test_good_residue_density():
    # about three quarters of primes land in the supported classes
    primes = [p for p in small_primes() if p < 10**4]
    good = sum(1 for p in primes
               if p % 20 in {1, 3, 7, 9, 13, 17} or p in (2, 5))
    frac = good / len(primes)
    assert 0.72 < frac < 0.78


def test_split_prime_above_a_million_is_not_abandoned():
    # the norm is 5 * 3209 * 62450981; prime size alone never makes
    # factoring or the two-squares solver give up
    x = GoldenInt(1000, 1) ** 2 + GoldenInt(3, 1) ** 2
    assert factor(x).value() == x
    assert 62450981 in {abs(norm(u)) for u, _ in factor(x).factors}
    s, t = sots_exact(x)
    assert s * s + t * t == x


@pytest.mark.parametrize("p", [576460752303423649, 576460752303423761])
def test_sots_exact_certifies_a_60_bit_split_prime(p):
    # p = 9, 1 (mod 20) splits in Z[phi]; the norm p^2 is a square that
    # rho alone would need about 2^30 steps to split
    for j in (0, 3, -2):
        x = GoldenInt(p) * phi_power(2 * j)
        s, t = sots_exact(x)
        assert s * s + t * t == x


# irreducibles over 11 and 19, both totally positive
PI_11 = GoldenInt(3, 1)
PI_19 = GoldenInt(4, 1)


def test_decide_matches_brute_force_on_a_box():
    """The integer test accepts exactly the sums of two squares among
    every element with both embeddings at most 40, and every accepted
    element gets a certificate from the primes it returns."""
    table = representable_values(40)
    box = embedding_box(40)
    accepted = 0
    for x in box:
        try:
            primes = decide(x)
        except NotRepresentable:
            assert x not in table, x
            continue
        assert x in table or not x, x
        assert primes == (factor_int(abs(norm(x))) if abs(norm(x)) > 1
                          else {})
        s, t = sots_exact(x, primes=primes)
        assert s * s + t * t == x
        accepted += 1
    assert accepted == len(table)


@pytest.mark.parametrize("x, verdict", [
    (GoldenInt(11), "residue"),        # pi*pi': v_11(N) = 2, content 11
    (GoldenInt(121), "sum"),
    (PI_11 * PI_11, "sum"),            # v_11(N) = 2, content 1
    (GoldenInt(11) * PI_11, "residue"),  # v_11(N) = 3
    (PI_11 * PI_19, "residue"),        # v_11(N) = v_19(N) = 1
    (GoldenInt(11) * PI_11 ** 2 * PI_19 ** 2, "residue"),  # content 11
    (GoldenInt(121) * PI_19 ** 4 * ETA ** 2, "sum"),
    (GoldenInt(-2), "sign"),
    (PHI, "sign"),                     # sigma_- < 0; phi * phi is a square
    (GoldenInt(-1, 2), "sign"),        # sqrt5
    (PI_11 * PI_11 * PHI, "sign"),
    (GoldenInt(0, -1) * PI_11, "sign"),
])
def test_decide_planted_cases(x, verdict):
    if verdict == "sum":
        s, t = sots_exact(x, primes=decide(x))
        assert s * s + t * t == x
        return
    with pytest.raises(NotRepresentable) as info:
        decide(x)
    assert isinstance(info.value, UnsupportedResidue) == (verdict == "residue")
    with pytest.raises(NotRepresentable):
        sots_exact(x)


def old_verdict(x, primes):
    """decide's verdict before the cofactor screen, from |N(x)|'s
    factorization: "sign", "residue" or "sum"."""
    if sign_plus(x) < 0 or sign_minus(x) < 0:
        return "sign"
    content = math.gcd(x.a, x.b)
    for p, e in primes.items():
        if p % 20 in (11, 19):
            v = 0
            while content % p == 0:
                content //= p
                v += 1
            if e % 2 or v % 2:
                return "residue"
    return "sum"


def verdict(x):
    try:
        decide(x)
    except UnsupportedResidue:
        return "residue"
    except NotRepresentable:
        return "sign"
    return "sum"


def count_calls(monkeypatch, module, name):
    """A list that records every call of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_rho(monkeypatch):
    return count_calls(monkeypatch, intfactor, "_brent_rho")


def prime_above(n, residues):
    while not (n % 20 in residues and is_probable_prime(n)):
        n += 1
    return n


def totally_positive(x):
    x = -x if sign_plus(x) < 0 else x
    return x * PHI if sign_minus(x) < 0 else x


@pytest.mark.parametrize("bad", [11, 19])
@pytest.mark.parametrize("good", [1, 9])
@pytest.mark.parametrize("extra", [GoldenInt(1), ETA, GoldenInt(3)])
def test_decide_rejects_a_planted_cofactor_without_rho(monkeypatch, bad,
                                                       good, extra):
    """N(x) carries p p' with p = 11 or 19 (mod 20) and p' = 1 (mod 4),
    both above 2^40: the cofactor is 3 (mod 4), so decide rejects x
    before any rho, with the verdict the full factorization gives."""
    p = prime_above(2 ** 40, {bad})
    q = prime_above(2 ** 41, {good})
    x = totally_positive(split_prime(p) * split_prime(q) * extra)
    primes = factor_int(abs(norm(x)) // (p * q))
    primes.update({p: 1, q: 1})
    calls = count_rho(monkeypatch)
    assert verdict(x) == old_verdict(x, primes) == "residue"
    assert calls == []


def test_decide_verdicts_match_the_full_factorization(monkeypatch):
    """On seeded elements whose norms have large prime factors, decide
    gives the verdict of the full factorization, and runs no rho when
    the cofactor is 3 (mod 4)."""
    rng = random.Random(23)
    screened = 0
    for _ in range(300):
        x = GoldenInt(rng.randint(-2 ** 24, 2 ** 24),
                      rng.randint(-2 ** 24, 2 ** 24))
        if not x:
            continue
        calls = count_rho(monkeypatch)
        got = verdict(x)
        monkeypatch.undo()
        assert got == old_verdict(x, factor_int(abs(norm(x)))), x
        if got != "sign" and trial_divide(abs(norm(x)))[1] % 4 == 3:
            assert got == "residue" and calls == [], x
            screened += 1
    assert screened > 20


def test_build_central_screens_both_before_any_rho(monkeypatch):
    """A candidate s whose norm needs rho, with eta^k - s rejected by its
    cofactor, is turned down before rho runs on either."""
    k = 12
    ek = eta_power(k)
    phi = (1 + 5 ** 0.5) / 2
    rng = random.Random(7)
    for _ in range(10_000):
        # both embeddings uniform in [0, sigma(eta^k)], then rounded
        plus = rng.uniform(0, (7 + 5 * phi) ** k)
        minus = rng.uniform(0, (7 + 5 * (1 - phi)) ** k)
        b = round((plus - minus) / 5 ** 0.5)
        s = GoldenInt(round(plus - b * phi), b)
        try:
            cofactor = screen(s)[1]
        except NotRepresentable:
            continue
        if cofactor == 1 or is_probable_prime(cofactor):
            continue
        try:
            screen(ek - s)
        except UnsupportedResidue:
            break
        except NotRepresentable:
            continue
    else:
        raise AssertionError("no candidate found")
    calls = count_rho(monkeypatch)
    with pytest.raises(UnsupportedResidue):
        build_central(k, s)
    assert calls == []


def test_sots_exact_rejects_without_building(monkeypatch):
    """A non-representable element is rejected from its norm's rational
    factorization: no factoring in Z[phi], no gcd in Z[i, phi]."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sots_module, "factor",
                        counted("factor", sots_module.factor))
    monkeypatch.setattr(sots_module, "gcd_ne",
                        counted("gcd_ne", sots_module.gcd_ne))
    for x in (ETA, GoldenInt(11), GoldenInt(11) * PI_11, PI_11 * PI_19,
              GoldenInt(-2), GoldenInt(-1, 2)):
        with pytest.raises(NotRepresentable):
            sots_exact(x)
    assert calls == []
    s, t = sots_exact(GoldenInt(29) * GoldenInt(7))
    assert s * s + t * t == GoldenInt(203)
    assert calls.count("factor") == 1 and "gcd_ne" in calls


def test_pieces_take_the_associated_prime_from_the_norm():
    # the factorization already names each factor's rational prime
    for x in (GoldenInt(2 * 5 * 7 * 13), GoldenInt(29) * GoldenInt(41),
              ETA * ETA * GoldenInt(3, 1) ** 2 * GoldenInt(2, 1)):
        s, t = sots_exact(x)
        assert s * s + t * t == x


def test_screen_never_rejects_a_sum_of_two_squares():
    """N(s^2 + t^2) = A^2 + B^2, so neither rule of screen can fire."""
    rng = random.Random(29)
    for _ in range(300):
        s, t = (GoldenInt(rng.randint(-2 ** 20, 2 ** 20),
                          rng.randint(-2 ** 20, 2 ** 20)) for _ in range(2))
        x = s * s + t * t
        primes, m = screen(x)
        assert math.prod(p ** e for p, e in primes.items()) * m == norm(x)


@pytest.mark.parametrize("x", [
    PI_11,                             # N = 11
    GoldenInt(2) * PI_19,              # N = 4 * 19
    ETA * GoldenInt(29),               # N = 59 * 29^2
    GoldenInt(3) * PI_11 ** 3,         # N = 9 * 11^3
])
def test_screen_rejects_an_odd_part_3_mod_4_before_dividing(monkeypatch, x):
    calls = count_calls(monkeypatch, sots_module, "trial_divide")
    with pytest.raises(UnsupportedResidue):
        screen(x)
    assert calls == []
    monkeypatch.undo()
    assert verdict(x) == old_verdict(x, factor_int(norm(x))) == "residue"


def test_screen_rejects_an_odd_small_prime_3_mod_4_without_rho(monkeypatch):
    """N(x) = 11 * 19 * q1 * q2 has odd part 1 (mod 4) and the composite
    cofactor q1 * q2 after trial division; 11 and 19 have odd exponents,
    so x is rejected before rho runs on q1 * q2."""
    q1 = prime_above(2 ** 40, {1})
    q2 = prime_above(2 ** 41, {9})
    x = totally_positive(PI_11 * PI_19 * split_prime(q1) * split_prime(q2))
    assert trial_divide(norm(x)) == ({11: 1, 19: 1}, q1 * q2)
    calls = count_rho(monkeypatch)
    assert verdict(x) == "residue"
    assert calls == []
    assert old_verdict(x, {11: 1, 19: 1, q1: 1, q2: 1}) == "residue"


def test_deep_central_search_keeps_rho_off_rejected_norms(monkeypatch):
    """synth_general on H at 1e-30 decides its central norms and the
    outer diagonals' residuals with fewer than 10 rho hunts (65 when
    only a cofactor 3 (mod 4) was screened), and finds the same word
    length at the same shell."""
    calls = count_rho(monkeypatch)
    eps = 1e-30
    report = synth_general(named_gate("H", precision_for(eps)),
                           SynthConfig(eps))
    assert (report.k, report.word.tau_count) == (19, 122)
    assert len(calls) < 10
