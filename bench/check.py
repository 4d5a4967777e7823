"""Independent checks of icogate's outputs.

Nothing here imports icogate.  Z[phi] elements are pairs (a, b) meaning
a + b*phi with phi^2 = phi + 1, quaternions are 4-tuples of such pairs,
and the generators are restated from their definitions:

    rho   = (1, 1, 1, 1)
    sigma = (0, phi, 1, 1 + phi)
    tau   = (0, 2 + phi, 1, 1)      reduced norm eta = 7 + 5 phi

Distances are recomputed in PU(2) as sqrt(1 - |tr(A^dag B)| / 2) at twice
the working precision that icogate uses for the same epsilon.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

ETA = (7, 5)
ZERO = (0, 0)
GENERATORS = {
    "r": ((1, 0), (1, 0), (1, 0), (1, 0)),
    "s": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "t": ((0, 0), (2, 1), (1, 0), (1, 0)),
}
IDENTITY = ((1, 0), (0, 0), (0, 0), (0, 0))

# rho and sigma have reduced norm 4 times a unit, tau has eta
_RS_NORM = 4


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


def zmul(x, y):
    a, b = x
    c, d = y
    bd = b * d
    return (a * c + bd, a * d + b * c + bd)


def zadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def zsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def znorm(x) -> int:
    a, b = x
    return a * a + a * b - b * b


def zdiv(x, y):
    """x / y in Z[phi], or None when y does not divide x."""
    c, d = y
    n = znorm(y)
    # x * conj(y) / N(y), with conj(c + d phi) = (c + d) - d phi
    p, q = zmul(x, (c + d, -d))
    if p % n or q % n:
        return None
    return (p // n, q // n)


def eta_valuation(x) -> int:
    if x == ZERO:
        raise CheckFailed("eta-valuation of zero")
    k = 0
    while True:
        y = zdiv(x, ETA)
        if y is None:
            return k
        x, k = y, k + 1


def qmul(p, q):
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    m = zmul
    return (
        zsub(zsub(zsub(m(a0, b0), m(a1, b1)), m(a2, b2)), m(a3, b3)),
        zsub(zadd(zadd(m(a0, b1), m(a1, b0)), m(a2, b3)), m(a3, b2)),
        zadd(zadd(zsub(m(a0, b2), m(a1, b3)), m(a2, b0)), m(a3, b1)),
        zadd(zsub(zadd(m(a0, b3), m(a1, b2)), m(a2, b1)), m(a3, b0)),
    )


def nrd(q):
    out = ZERO
    for x in q:
        out = zadd(out, zmul(x, x))
    return out


def letters(word_text: str) -> str:
    """The r/s/t letters of a word written as (seg)t(seg)... or bare."""
    if set(word_text) - set("rst()"):
        raise CheckFailed(f"word has letters outside r, s, t: {word_text!r}")
    return "".join(c for c in word_text if c in "rst")


def word_product(word_text: str):
    q = IDENTITY
    for c in letters(word_text):
        q = qmul(q, GENERATORS[c])
    return q


def primitive_tau(q) -> int:
    """eta-valuation of the reduced norm of q's primitive part.  eta is
    prime, so the content's valuation is the least coordinate valuation."""
    content = min(eta_valuation(x) for x in q if x != ZERO)
    return eta_valuation(nrd(q)) - 2 * content


def check_tau_count(word_text: str, tau_count: int):
    """The reported tau-count must be the word's own, and the word's
    reduced norm must be 4^(#r + #s) times a unit times eta^tau_count;
    returns the word's product."""
    seq = letters(word_text)
    if seq.count("t") != tau_count:
        raise CheckFailed(f"reported tau-count {tau_count}, word has "
                          f"{seq.count('t')}")
    q = word_product(word_text)
    n = nrd(q)
    scale = _RS_NORM ** (len(seq) - tau_count)
    if n[0] % scale or n[1] % scale:
        raise CheckFailed("reduced norm lacks the factor 4 per r/s letter")
    n = (n[0] // scale, n[1] // scale)
    for _ in range(tau_count):
        n = zdiv(n, ETA)
        if n is None:
            raise CheckFailed("reduced norm is not divisible by eta^tau")
    if abs(znorm(n)) != 1:
        raise CheckFailed("reduced norm is not a unit times eta^tau")
    return q


def check_exact(input_coords, word_text: str, tau_count: int,
                input_word: str | None = None):
    """The word's product equals the input up to a Z[phi] scalar, and its
    tau-count is the eta-valuation of the input's primitive part.
    input_coords is the input quaternion as four (a, b) pairs; when the
    input came from a word, that word's own product must equal it."""
    q_in = tuple(tuple(x) for x in input_coords)
    if input_word is not None and word_product(input_word) != q_in:
        raise CheckFailed("input quaternion is not the product of its word")
    q_out = check_tau_count(word_text, tau_count)
    for i in range(4):
        for j in range(i + 1, 4):
            if zmul(q_out[i], q_in[j]) != zmul(q_out[j], q_in[i]):
                raise CheckFailed("word product is not a scalar multiple "
                                  "of the input")
    if all(x == ZERO for x in q_in):
        raise CheckFailed("zero input quaternion")
    if tau_count != primitive_tau(q_in):
        raise CheckFailed(f"tau-count {tau_count}, input's primitive part "
                          f"has {primitive_tau(q_in)}")


def working_bits(epsilon: float) -> int:
    """icogate's working precision for epsilon: ceil(3 log2(1/eps)) + 96
    bits."""
    return math.ceil(3 * math.log2(1 / epsilon)) + 96


def check_bits(epsilon: float) -> int:
    """The checker works at twice icogate's working precision."""
    return 2 * working_bits(epsilon)


def quat_matrix(q, bits: int):
    """x0 + x1 i + x2 j + x3 k -> [[x0 + x1 i, x2 + x3 i],
    [-x2 + x3 i, x0 - x1 i]] under phi -> (1 + sqrt 5) / 2."""
    with mp.workprec(bits):
        phi = (1 + mp.sqrt(5)) / 2
        w0, w1, w2, w3 = (mpf(a) + mpf(b) * phi for a, b in q)
        return ((mpc(w0, w1), mpc(w2, w3)), (mpc(-w2, w3), mpc(w0, -w1)))


def pu2_distance(a, b, bits: int):
    """sqrt(1 - |tr(A^dag B)| / 2) for A, B given up to nonzero scalars;
    each is normalized by the square root of |det|."""
    with mp.workprec(bits):
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        tr = (mp.conj(a00) * b00 + mp.conj(a10) * b10
              + mp.conj(a01) * b01 + mp.conj(a11) * b11)
        da = abs(a00 * a11 - a01 * a10)
        db = abs(b00 * b11 - b01 * b10)
        if not (da > 0 and db > 0):
            raise CheckFailed("singular matrix")
        val = 1 - abs(tr) / (2 * mp.sqrt(da) * mp.sqrt(db))
        if val < -mpf(2) ** (-bits // 2):
            raise CheckFailed(f"trace overlap exceeds 1 by {-val}")
        return mp.sqrt(max(val, mpf(0)))


def diagonal_target(theta, bits: int):
    """u(theta) = diag(e^{i theta}, e^{-i theta}) for theta as given."""
    with mp.workprec(bits):
        ph = mp.expj(mpf(theta))
        return ((ph, mpc(0)), (mpc(0), mp.conj(ph)))


def tuning_bound(epsilon: float, delta: float, epsilon0: float):
    """(C + 2) * eps with C = sqrt(1/2 + ((2 + delta) / eps0)^2 / 2)."""
    c = math.sqrt(0.5 + ((2 + delta) / epsilon0) ** 2 / 2)
    return (c + 2) * epsilon


def check_synthesis(word_text: str, tau_count: int, achieved, target,
                    epsilon: float, bound):
    """The word's own product lies within bound of the target as given,
    agrees with the reported achieved distance, and its reduced norm
    accounts for exactly tau_count taus.  Returns the taus the word
    spends beyond the tau-count of its product's primitive part (a
    tau-(scalar)-tau seam costs two taus and buys only a scalar eta)."""
    bits = check_bits(epsilon)
    q = check_tau_count(word_text, tau_count)
    d = pu2_distance(target, quat_matrix(q, bits), bits)
    with mp.workprec(bits):
        if not d < mpf(bound):
            raise CheckFailed(f"distance {mp.nstr(d, 6)} is not below "
                              f"{bound}")
        gap = abs(d - mpf(achieved))
        if gap > mpf("1e-9") * max(d, mpf(epsilon)):
            raise CheckFailed(f"reported achieved {mp.nstr(mpf(achieved), 12)}"
                              f" but the word is at {mp.nstr(d, 12)}")
    return tau_count - primitive_tau(q)
