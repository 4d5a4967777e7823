"""The rational number theory under sots: Tonelli-Shanks past p = 3
(mod 4), Pollard rho and Miller-Rabin above 2^64, and the rho budget."""

import pytest

from icogate import intfactor
from icogate.errors import Abandoned, NonResidue
from icogate.intfactor import factor_int, is_probable_prime, tonelli_shanks

# Smallest strong pseudoprimes to every prime base up to 37 (the
# Miller-Rabin witnesses) and up to 41; both lie above 2^64.
PSP_37 = 318665857834031151167461
PSP_41 = 3317044064679887385961981


@pytest.mark.parametrize("p", [17, 41, 73, 97, 113])
def test_tonelli_shanks_every_residue(p):
    # p = 1 (mod 8), so the root needs the non-residue search
    squares = {x * x % p for x in range(p)}
    for a in range(p):
        if a in squares:
            r = tonelli_shanks(a, p)
            assert 0 <= r < p and r * r % p == a
        else:
            with pytest.raises(NonResidue):
                tonelli_shanks(a, p)


@pytest.mark.parametrize("p", [998244353, 2**64 - 2**32 + 1])
def test_tonelli_shanks_large_primes(p):
    for x in (2, 3, 12345, 10**9 + 7, p - 5):
        a = x * x % p
        r = tonelli_shanks(a, p)
        assert r in (x % p, -x % p)


@pytest.mark.parametrize("n, factors", [
    ((2**31 - 1) * (10**9 + 7), {2**31 - 1: 1, 10**9 + 7: 1}),
    (1000003**2, {1000003: 2}),
    (PSP_37, {399165290221: 1, 798330580441: 1}),
    (PSP_41, {1287836182261: 1, 2575672364521: 1}),
])
def test_factor_int_by_rho(n, factors):
    assert factor_int(n) == factors


@pytest.mark.parametrize("n, prime", [
    (2**89 - 1, True),
    (2**127 - 1, True),
    (3215031751, False),           # strong pseudoprime to 2, 3, 5, 7
    (3825123056546413051, False),  # strong pseudoprime to 2 ... 23
    (PSP_37, False),
    (PSP_41, False),
])
def test_is_probable_prime(n, prime):
    assert is_probable_prime(n) is prime


P60 = 576460752303423619  # a 60-bit prime


def test_factor_int_splits_squares_without_rho(monkeypatch):
    # rho needs about sqrt(P60) = 2^30 steps to split P60^2, and abandoned
    # it; the root comes first, so no budget at all is needed
    assert factor_int(P60 * P60) == {P60: 2}
    monkeypatch.setattr(intfactor, "RHO_ITERATION_BUDGET", 0)
    assert factor_int(P60 * P60) == {P60: 2}
    assert factor_int(3 * P60**4) == {3: 1, P60: 4}


def test_factor_int_abandons_on_every_call(monkeypatch):
    monkeypatch.setattr(intfactor, "RHO_ITERATION_BUDGET", 100)
    n = (10**9 + 7) * (10**9 + 9)  # balanced, about 60 bits
    for _ in range(3):
        with pytest.raises(Abandoned):
            factor_int(n)
