"""Tests for the Z[phi] ring layer."""

import random

import pytest

from icogate.errors import InertPrime, MalformedInput, NonResidue
from icogate.golden import (
    ETA,
    PHI,
    GoldenInt,
    canonical_associate,
    embed,
    eta_valuation,
    euclid_divmod,
    exact_div,
    factor,
    gcd,
    norm,
    phi_power,
    sign_minus,
    sign_plus,
    split_prime,
    unit_decompose,
)
from icogate.intfactor import tonelli_shanks


def rand_elt(rng, bound=50):
    return GoldenInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def test_basic_arithmetic():
    x = GoldenInt(2, 3)
    y = GoldenInt(-1, 4)
    assert x + y == GoldenInt(1, 7)
    assert x - y == GoldenInt(3, -1)
    # (2+3phi)(-1+4phi) = -2 + 8phi - 3phi + 12phi^2 = 10 + 17phi
    assert x * y == GoldenInt(10, 17)
    assert x * 1 == x and 1 * x == x
    assert x + 0 == x and 0 + x == x
    assert x**0 == GoldenInt(1, 0)
    assert x**3 == x * x * x
    assert PHI * PHI == PHI + 1


def test_coordinates_must_be_integers():
    # int() would truncate these: 2.7 + 0.9 phi read as 2, and 2.5 as 2,
    # which sots_exact then wrote as 1^2 + 1^2
    for a, b in [(2.7, 0.9), (2.5, 0), (2, 0.5), ("3", 0), (None, 0)]:
        with pytest.raises(MalformedInput):
            GoldenInt(a, b)
    assert GoldenInt(True, 2) == GoldenInt(1, 2)


def test_norm_and_conj_examples():
    assert norm(ETA) == 59
    assert norm(GoldenInt(0, 1)) == -1
    assert GoldenInt(7, 5).conj() == GoldenInt(12, -5)
    x = GoldenInt(3, -2)
    assert x * x.conj() == GoldenInt(norm(x), 0)


def test_norm_multiplicative():
    rng = random.Random(11)
    for _ in range(1000):
        x, y = rand_elt(rng), rand_elt(rng)
        assert norm(x * y) == norm(x) * norm(y)


def test_embed_eta():
    assert float(embed(ETA, "plus")) == pytest.approx(15.0902, abs=1e-3)
    assert float(embed(ETA, "minus")) == pytest.approx(3.9098, abs=1e-3)
    with pytest.raises(MalformedInput):
        embed(ETA, "sideways")


def test_embed_is_ring_hom():
    rng = random.Random(7)
    for _ in range(50):
        x, y = rand_elt(rng), rand_elt(rng)
        for w in ("plus", "minus"):
            lhs = embed(x * y, w, 80)
            rhs = embed(x, w, 80) * embed(y, w, 80)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_exact_signs_match_embedding():
    rng = random.Random(13)
    cases = [rand_elt(rng, 10**9) for _ in range(200)]
    cases += [GoldenInt(0, 0), GoldenInt(1, -1), GoldenInt(-1, 1),
              GoldenInt(10**40, -(10**40)), GoldenInt(5, -8), GoldenInt(-8, 13)]
    for x in cases:
        for sgn, w in ((sign_plus, "plus"), (sign_minus, "minus")):
            v = embed(x, w, 200)
            expected = 0 if v == 0 else (1 if v > 0 else -1)
            assert sgn(x) == expected, (x, w)


def test_euclid_divmod_example():
    q, r = euclid_divmod(GoldenInt(7, 5), GoldenInt(2, 0))
    assert GoldenInt(7, 5) == q * GoldenInt(2, 0) + r
    assert abs(norm(r)) < 4


def test_euclid_divmod_contract():
    rng = random.Random(17)
    for _ in range(1000):
        x = rand_elt(rng, 500)
        y = rand_elt(rng, 500)
        if not y:
            continue
        q, r = euclid_divmod(x, y)
        assert x == q * y + r
        assert abs(norm(r)) < abs(norm(y))
    with pytest.raises(ZeroDivisionError):
        euclid_divmod(GoldenInt(1, 0), GoldenInt(0, 0))


def test_gcd_examples():
    assert gcd(GoldenInt(2, 0), GoldenInt(3, 0)) == GoldenInt(1, 0)
    # gcd with zero is the canonical associate
    assert gcd(GoldenInt(0, 5), GoldenInt(0, 0)) == GoldenInt(5, 0)
    g = gcd(ETA, ETA * ETA)
    assert abs(norm(g)) == 59
    with pytest.raises(MalformedInput):
        gcd(GoldenInt(0, 0), GoldenInt(0, 0))


def _box_divisors(x, bound):
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            d = GoldenInt(a, b)
            if d and exact_div(x, d) is not None:
                out.append(d)
    return out


def test_gcd_against_brute_force():
    """gcd matches an exhaustive common-divisor search on small inputs.

    Divisors of an element with |norm| <= 10^4 all have canonical
    representatives within a modest coordinate box, so the box search
    sees every divisor class.
    """
    rng = random.Random(23)
    pairs = []
    while len(pairs) < 8:
        g = rand_elt(rng, 4)
        x = g * rand_elt(rng, 5)
        y = g * rand_elt(rng, 5)
        if x and y and abs(norm(x)) <= 10**4 and abs(norm(y)) <= 10**4:
            pairs.append((x, y))
    for x, y in pairs:
        g = gcd(x, y)
        assert exact_div(x, g) is not None
        assert exact_div(y, g) is not None
        # canonical representatives of divisors of norm <= 10^4 fit in
        # a coordinate box of size ~sqrt(10^4) * (1+phi)/sqrt(5) < 120
        common = [d for d in _box_divisors(x, 120)
                  if exact_div(y, d) is not None]
        for d in common:
            assert exact_div(g, d) is not None, (x, y, g, d)
        assert abs(norm(g)) == max(abs(norm(d)) for d in common)


def test_canonical_associate():
    assert canonical_associate(GoldenInt(0, 0)) == GoldenInt(0, 0)
    assert canonical_associate(GoldenInt(-2, 7)) == ETA  # (-2+7phi) = eta/phi
    assert canonical_associate(GoldenInt(0, 2)) == GoldenInt(2, 0)
    assert canonical_associate(GoldenInt(2, 1)) == GoldenInt(-1, 2)
    # units whose smaller embedding is below the coordinates' float
    # resolution, or whose coordinates are beyond float range
    assert canonical_associate(phi_power(52)) == GoldenInt(1, 0)
    assert canonical_associate(-phi_power(2100)) == GoldenInt(1, 0)
    rng = random.Random(29)
    for _ in range(200):
        x = rand_elt(rng, 40)
        c = canonical_associate(x)
        assert canonical_associate(c) == c
        if x:
            # same ideal: each divides the other
            assert exact_div(x, c) is not None or exact_div(c, x) is not None
            q = exact_div(x, c)
            assert q is not None and abs(norm(q)) == 1


def test_canonical_associate_ignores_unit_factors():
    for e in range(-3000, 3001):
        u = phi_power(e)
        assert canonical_associate(u) == GoldenInt(1, 0), e
        assert canonical_associate(-u) == GoldenInt(1, 0), e
    rng = random.Random(37)
    xs = [GoldenInt(-1, 2), ETA] + [rand_elt(rng, 10**6) for _ in range(3)]
    for x in xs:
        c = canonical_associate(x)
        for e in range(-3000, 3001, 29):
            u = phi_power(e)
            assert canonical_associate(x * u) == c, (x, e)
            assert canonical_associate(-x * u) == c, (x, e)


def test_gcd_of_coprime_unit_multiples_is_one():
    one = GoldenInt(1, 0)
    u = phi_power(52)
    assert gcd(GoldenInt(2, 0), u) == one
    assert gcd(GoldenInt(1, -3) * u, GoldenInt(3, 0)) == one
    assert gcd(GoldenInt(3, 0), GoldenInt(1, -4) * u) == one
    assert gcd(ETA * u, GoldenInt(7, 1) * u) == one
    assert gcd(GoldenInt(2, 0), phi_power(2100)) == one


def test_phi_power_matches_repeated_products():
    # phi_power takes phi^n from Fibonacci numbers; the powers of phi
    # and phi^-1 by square-and-multiply are the reference
    for n in list(range(-300, 301)) + [-2100, 2100]:
        # phi^-1 = phi - 1
        expected = PHI ** n if n >= 0 else GoldenInt(-1, 1) ** -n
        assert phi_power(n) == expected, n


def test_unit_decompose():
    assert unit_decompose(GoldenInt(1, 0)) == (1, 0)
    assert unit_decompose(GoldenInt(-1, 0)) == (-1, 0)
    assert unit_decompose(PHI**5) == (1, 5)
    s, n = unit_decompose(-(GoldenInt(-1, 1) ** 3))
    assert (s, n) == (-1, -3)
    for e in range(-5000, 5001):
        u = phi_power(e)
        assert unit_decompose(u) == (1, e)
        assert unit_decompose(-u) == (-1, e)
    with pytest.raises(MalformedInput):
        unit_decompose(GoldenInt(2, 0))


def test_tonelli_shanks_examples():
    assert tonelli_shanks(4, 7) in (2, 5)
    assert tonelli_shanks(2, 7) in (3, 4)
    with pytest.raises(NonResidue):
        tonelli_shanks(3, 7)


def test_split_prime_examples():
    with pytest.raises(InertPrime):
        split_prime(2)
    assert split_prime(5) == GoldenInt(-1, 2)
    assert canonical_associate(split_prime(11)) == GoldenInt(3, 1)


def test_split_primes_factor_into_two_non_associates():
    # golden.factor divides by split_prime(p) and the canonical associate
    # of its conjugate as two distinct irreducibles: for the 1490 split
    # primes among the first 3000 primes they are never equal
    from icogate.intfactor import small_primes

    split = [p for p in small_primes()[:3000] if p % 5 in (1, 4)]
    assert len(split) == 1490
    for p in split:
        pi = split_prime(p)
        assert pi != canonical_associate(pi.conj()), p


def test_split_prime_below_1000():
    from icogate.intfactor import small_primes

    for p in [q for q in small_primes() if q < 1000]:
        if p == 5:
            assert split_prime(p) == GoldenInt(-1, 2)
        elif p % 5 in (1, 4):
            assert abs(norm(split_prime(p))) == p
        else:
            with pytest.raises(InertPrime):
                split_prime(p)


def test_inert_primes_have_no_norm_p_element():
    # exhaustive check: no a + b*phi with norm +-p when p = +-2 (mod 5)
    from icogate.intfactor import small_primes

    import math

    for p in [q for q in small_primes() if q < 1000 and q % 5 in (2, 3)]:
        bound = int(math.isqrt(p)) + 1
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                assert abs(norm(GoldenInt(a, b))) != p


def test_factor_examples():
    f = factor(ETA)
    assert f.unit == GoldenInt(1, 0)
    assert f.factors == ((ETA, 1),)

    f = factor(GoldenInt(2, 0))
    assert f.unit == GoldenInt(1, 0)
    assert f.factors == ((GoldenInt(2, 0), 1),)

    f = factor(GoldenInt(5, 5))  # 5 phi^2
    assert f.unit == PHI * PHI
    assert f.factors == ((GoldenInt(-1, 2), 2),)


def test_factor_round_trip():
    rng = random.Random(31)
    done = 0
    while done < 1000:
        x = rand_elt(rng, 700)
        if not x or abs(norm(x)) > 10**6:
            continue
        f = factor(x)
        assert f.value() == x
        assert abs(norm(f.unit)) == 1
        for pi, m in f.factors:
            assert m >= 1
            assert canonical_associate(pi) == pi
        done += 1


def test_factor_takes_the_primes_it_is_handed(monkeypatch):
    import icogate.golden as golden
    from icogate.intfactor import factor_int

    rng = random.Random(37)
    xs = [x for x in (rand_elt(rng, 700) for _ in range(200))
          if abs(norm(x)) > 1]
    expected = [factor(x) for x in xs]
    primes = [factor_int(abs(norm(x))) for x in xs]

    def refuse(n):
        raise AssertionError("norm factored again")

    monkeypatch.setattr(golden, "factor_int", refuse)
    assert [factor(x, p) for x, p in zip(xs, primes)] == expected


def test_factor_asserts_on_incomplete_primes():
    # primes must be |N(x)|'s factorization: a prime left out leaves a
    # non-unit, an arithmetic error rather than an abandonment
    x = GoldenInt(11 * 13, 0)
    assert factor(x, {11: 2, 13: 2}).value() == x
    with pytest.raises(AssertionError, match="leftover non-unit"):
        factor(x, {11: 2})


def test_factor_rejects_zero():
    with pytest.raises(MalformedInput):
        factor(GoldenInt(0, 0))


def test_eta_valuation():
    assert eta_valuation(ETA) == 1
    assert eta_valuation(GoldenInt(1, 0)) == 0
    assert eta_valuation(ETA**3 * GoldenInt(2, 0)) == 3
    with pytest.raises(MalformedInput):
        eta_valuation(GoldenInt(0, 0))
