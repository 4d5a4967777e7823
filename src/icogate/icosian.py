"""Quaternions with Z[phi] coefficients, the 60-element gate group they
project to, and exact factorization into gate words.

The three generators live here as integral quaternions: rho and sigma
have reduced norm a unit times a rational square, so they project to
elements of the icosahedral group C60, while tau has reduced norm
eta = 7 + 5*phi.  Any quaternion whose reduced norm is eta^k (times a
unit) factors as xi_0 tau xi_1 tau ... tau xi_k with the xi_i in C60,
and the factorization is found greedily, two taus at a time: exactly
one right cofactor c1*tau*c2*tau with c2 != 1 makes the product
divisible by eta^2, and dividing by eta^2 drops the tau-count by two.
tau is a pure quaternion, so tau^-1 = -tau/eta and gamma is tau^-1 times
tau*gamma: with one tau left, tau*gamma has two (or eta-content), so
the pairs factor odd counts too.

The cofactors are chosen in Z[phi]/(eta^2) = Z/59^2, where phi maps to
329, the Hensel lift of the root 34 of x^2 - x - 1 mod 59 that eta maps
to 0 (7 + 5*34 = 3*59).  eta is prime, so eta^n divides a coordinate
exactly when its residue mod 59^n is 0.  Mod eta^2 the quaternions are
the 2x2 matrices over Z/59^2, with det the reduced norm, and gamma*P is
divisible by eta^2 exactly when the image line of P = c1*tau*c2*tau is
the kernel line of gamma mod eta^2.  Lines mod 59^n are the paths of
length n from the root of the 60-regular tree of PGL_2(Q_59)
(Parzanchevski-Sarnak, arXiv:1704.02106): the 60
lines mod eta name c1 (the image line of c1*tau), and over each lie 59
lines mod eta^2, one for each c2 != 1 (c2 = 1 steps back: tau*tau =
-eta).  So the 3,540 non-backtracking pairs fill P^1(Z/59^2), and each
pair of taus costs one kernel-line lookup in a 3,540-entry table (built
on the first such peel), one Hamilton product and one exact division
by eta^2; an odd tau costs tau*gamma and a pair peel or division.

The loop needs no canonical().  A scalar prime to eta does not change
which cofactor works, so exact_synthesize only strips the input's
common powers of 2 (a parity test) and its eta-content (while every
coordinate is divisible by eta); any other content rides along.  From
then on eta never divides gamma's content (see exact_synthesize).  The
unit gamma carries needs no rebalancing either:
each tau divides the reduced norm by eta (about 15.1 and 3.9 under
the two embeddings) and multiplies it by nrd(c) (at most 10.5 and 4),
so apart from the powers of 2 the strip removes, the norm and with it
the coefficients shrink as the taus go; on 300 random words of up to
60 taus, as word_to_quat gives them, no coefficient outgrew 1.12 times
the input's largest.

The residual left after the last tau, and every other C60 question on
the hot path (C60Table.word_for and inverse_word_for on a quaternion
whose reduced norm is prime to eta), is answered by the residue key mod
eta: C60 embeds in PGL_2(F_59), so the key names at most one class,
and the six 2x2 minors x_i*y_j - x_j*y_i against that class's stored
element y vanish exactly when x is a scalar multiple of y (y is
primitive, so the scalar lies in Z[phi]).  The lookups strip the
eta-content first, as exact_synthesize does, so a multiple of an
element always has its reduced norm prime to eta.  canonical() is left
to the CLI's display, the closure and error messages.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from mpmath import mp

from .errors import IcogateError, MalformedInput, NotInGroup
from .golden import (_PHI_FLOAT, ETA, GoldenInt, ONE, PHI, ZERO,
                     _balancing_power, _coerce, _gcd_pair, _hamilton,
                     _phi_embedded, eta_valuation, exact_div, phi_power)
from .unitary import (DEFAULT_PRECISION_BITS, ProjUnitary,
                      quaternion_distance)

__all__ = [
    "GoldenQuat", "RHO", "SIGMA", "TAU", "ONE_QUAT",
    "canonical", "tau_count", "C60Table", "generate_c60",
    "GateWord", "word_to_quat", "evaluate_word",
    "exact_synthesize",
]


class GoldenQuat:
    """x0 + x1*i + x2*j + x3*k with coefficients in Z[phi].

    The eight integer coordinates are stored flat, as the tuple
    (a0, b0, a1, b1, a2, b2, a3, b3) with xn = an + bn*phi, which is
    what coords() returns; the arithmetic runs on that tuple.
    GoldenInts are built only at the API boundary: by the constructor's
    arguments, parts() and the properties x0 .. x3."""

    __slots__ = ("_flat",)

    def __init__(self, x0, x1, x2, x3):
        flat = []
        for x in (x0, x1, x2, x3):
            g = _coerce(x)
            if g is None:
                raise MalformedInput(f"not a Z[phi] coefficient: {x!r}")
            flat += (g.a, g.b)
        self._flat = tuple(flat)

    @classmethod
    def _from_coords(cls, flat: tuple[int, ...]) -> GoldenQuat:
        """The quaternion with the given flat coordinates (a tuple of
        eight ints, as coords() returns)."""
        q = cls.__new__(cls)
        q._flat = flat
        return q

    def __repr__(self) -> str:
        return (f"GoldenQuat({self.x0!r}, {self.x1!r}, "
                f"{self.x2!r}, {self.x3!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GoldenQuat):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def coords(self) -> tuple[int, ...]:
        return self._flat

    def parts(self) -> tuple[GoldenInt, GoldenInt, GoldenInt, GoldenInt]:
        f = self._flat
        return (GoldenInt(f[0], f[1]), GoldenInt(f[2], f[3]),
                GoldenInt(f[4], f[5]), GoldenInt(f[6], f[7]))

    x0 = property(lambda self: GoldenInt(*self._flat[0:2]))
    x1 = property(lambda self: GoldenInt(*self._flat[2:4]))
    x2 = property(lambda self: GoldenInt(*self._flat[4:6]))
    x3 = property(lambda self: GoldenInt(*self._flat[6:8]))

    def __neg__(self) -> GoldenQuat:
        return GoldenQuat._from_coords(tuple(-v for v in self._flat))

    def __add__(self, other: GoldenQuat) -> GoldenQuat:
        return GoldenQuat._from_coords(
            tuple(u + v for u, v in zip(self._flat, other._flat)))

    def __sub__(self, other: GoldenQuat) -> GoldenQuat:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GoldenQuat):
            return GoldenQuat._from_coords(_hamilton(self._flat, other._flat))
        s = _coerce(other)
        if s is None:
            return NotImplemented
        return GoldenQuat._from_coords(
            _hamilton(self._flat, (s.a, s.b, 0, 0, 0, 0, 0, 0)))

    def __rmul__(self, other):
        if isinstance(other, (int, GoldenInt)):
            return self * other
        return NotImplemented

    def conjugate(self) -> GoldenQuat:
        a0, b0, *rest = self._flat
        return GoldenQuat._from_coords((a0, b0, *(-v for v in rest)))

    def nrd(self) -> GoldenInt:
        """Reduced norm, a totally nonnegative element of Z[phi]:
        the sum of the (a + b*phi)^2 = a^2 + b^2 + (2ab + b^2)*phi."""
        f = self._flat
        a, b = f[0::2], f[1::2]
        bb = sum(v * v for v in b)
        return GoldenInt(sum(v * v for v in a) + bb,
                         2 * sum(u * v for u, v in zip(a, b)) + bb)

    def to_vector(self, precision_bits: int) -> tuple:
        """The plus embeddings of the four coordinates: the real
        quaternion sigma_+(q), a multiple of a point of PU(2)."""
        phi, flat = _phi_embedded("plus", precision_bits), self._flat
        with mp.workprec(precision_bits):
            return tuple(mp.mpf(a) + mp.mpf(b) * phi
                         for a, b in zip(flat[::2], flat[1::2]))

    def to_unitary(self, precision_bits: int = DEFAULT_PRECISION_BITS
                   ) -> ProjUnitary:
        """Image under x0 + x1*i + x2*j + x3*k ->
        [[x0 + x1 i, x2 + x3 i], [-x2 + x3 i, x0 - x1 i]],
        a multiple of a unitary matrix."""
        with mp.workprec(precision_bits + 16):
            w0, w1, w2, w3 = self.to_vector(precision_bits + 16)
            rows = ((mp.mpc(w0, w1), mp.mpc(w2, w3)),
                    (mp.mpc(-w2, w3), mp.mpc(w0, -w1)))
        return ProjUnitary(rows, precision_bits)


ONE_QUAT = GoldenQuat(1, 0, 0, 0)
RHO = GoldenQuat(1, 1, 1, 1)
SIGMA = GoldenQuat(ZERO, PHI, ONE, GoldenInt(1, 1))
TAU = GoldenQuat(ZERO, GoldenInt(2, 1), ONE, ONE)


def _content(flat: tuple[int, ...]) -> tuple[int, int]:
    """A Z[phi]-gcd of a flat quaternion's coordinates, up to a unit
    (the scalar ring is Z[phi], so primitivity means no common golden
    divisor, units aside)."""
    a, b = 0, 0
    for i in (0, 2, 4, 6):
        a, b = _gcd_pair(a, b, flat[i], flat[i + 1])
    return a, b


def canonical(q: GoldenQuat) -> GoldenQuat:
    """Deterministic representative of the projective class of q.

    Scalar multiples by Z[phi] embed as real multiples of the same
    matrix, so the class is fixed by dividing out the golden content,
    picking the unit multiple +-phi^n of least coordinate 1-norm S
    (ties by the coordinates) and normalizing the sign.

    nrd(q*phi^n) = nrd(q)*phi^(2n), so n0 = _balancing_power(nrd(q)) // 2
    lies within 3/4 of the real n_b at which the embeddings of
    nrd(q*phi^n) balance, and the window n0 - 8 .. n0 + 8 holds every
    minimizer of S.  For one coordinate a + b*phi,
    a = (sigma_plus/phi + sigma_minus*phi)/sqrt5 and
    b = (sigma_plus - sigma_minus)/sqrt5 give
    |a| + |b| <= (phi*|sigma_plus| + phi^2*|sigma_minus|)/sqrt5, and
    |a + b*phi| <= phi(|a| + |b|), |a - b/phi| <= |a| + |b| give
    |a| + |b| >= max(|sigma_plus|/phi, |sigma_minus|).  Summed over the
    four coordinates (a sum of four absolute values lies between the
    root of their sum of squares and twice it), with
    K = |N(nrd(q))|^(1/4) and t = n - n_b:
    K*max(phi^(t-1), phi^-t) <= S <= (2/sqrt5)*K*(phi^(1+t) + phi^(2-t)).
    Some integer n has |t| <= 1/2, where S <= 4.12*K, and S exceeds that
    once t > 3.95 or t < -2.95.  The scan multiplies by phi as
    (a, b) -> (b, a + b) on each coordinate; the sign makes the first
    nonzero coordinate positive, and the key is (S, coordinates).
    """
    ga, gb = _content(q.coords())
    if not (ga or gb):
        raise MalformedInput("zero quaternion has no projective class")
    if abs(ga * ga + ga * gb - gb * gb) != 1:  # not a unit
        g = GoldenInt(ga, gb)
        q = GoldenQuat(*(exact_div(x, g) for x in q.parts()))
    flat = (q * phi_power(_balancing_power(q.nrd()) // 2 - 8)).coords()
    best = None
    for _ in range(17):
        if next(v for v in flat if v) < 0:
            flat = tuple(-v for v in flat)
        key = (sum(map(abs, flat)), flat)
        if best is None or key < best:
            best = key
        a0, b0, a1, b1, a2, b2, a3, b3 = flat
        flat = (b0, a0 + b0, b1, a1 + b1, b2, a2 + b2, b3, a3 + b3)
    return GoldenQuat._from_coords(best[1])


def tau_count(q: GoldenQuat) -> int:
    """eta-adic valuation of the reduced norm: the number of tau gates
    any exact factorization of q must spend."""
    n = q.nrd()
    if n == ZERO:
        raise MalformedInput("zero quaternion")
    return eta_valuation(n)


_ETA_PRIME = 59
_PHI_MOD_ETA = 34  # the root of x^2 - x - 1 mod 59 that eta maps to 0
# Z[phi]/eta^2 = Z/59^2: 329 is the Hensel lift of 34 (329^2 - 329 - 1
# = 31 * 59^2) and 2894 has 2894^2 + 7^2 = -1 mod 59^2
_ETA_SQUARED = _ETA_PRIME ** 2
_PHI_MOD_ETA2 = 329
_J_MOD_ETA2 = 2894


def _residues(flat: tuple[int, ...], modulus: int = _ETA_PRIME,
              phi: int = _PHI_MOD_ETA) -> tuple[int, int, int, int]:
    """The coordinates of a flat quaternion (see GoldenQuat) reduced
    mod eta, as elements of F_59, or mod eta^2 (modulus 59^2 with phi
    its image 329), as elements of Z/59^2."""
    a0, b0, a1, b1, a2, b2, a3, b3 = flat
    return ((a0 + phi * b0) % modulus, (a1 + phi * b1) % modulus,
            (a2 + phi * b2) % modulus, (a3 + phi * b3) % modulus)


def _residue_key(res: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Nonzero residues (see _residues) scaled so that the first nonzero
    one is 1: the image of the quaternion's projective class in
    PGL_2(F_59) when its reduced norm is prime to eta."""
    lead = next(v for v in res if v)
    inv = pow(lead, -1, _ETA_PRIME)
    return tuple(v * inv % _ETA_PRIME for v in res)


def _image(res: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The 2x2 matrix over Z/59^2 of residues (g0, g1, g2, g3) mod
    59^2, as its entries (m00, m01, m10, m11), under i -> [[0, 1],
    [-1, 0]] and j -> [[j, 7], [7, -j]] with j = 2894 (j^2 + 7^2 = -1),
    so k = ij -> [[7, -j], [-j, -7]] and det = g0^2 + g1^2 + g2^2 + g3^2."""
    g0, g1, g2, g3 = res
    s, t = _J_MOD_ETA2 * g2 + 7 * g3, 7 * g2 - _J_MOD_ETA2 * g3
    return ((g0 + s) % _ETA_SQUARED, (g1 + t) % _ETA_SQUARED,
            (t - g1) % _ETA_SQUARED, (g0 - s) % _ETA_SQUARED)


_INVERSES = (0,) + tuple(pow(u, -1, _ETA_PRIME) for u in range(1, _ETA_PRIME))


def _line(u: int, v: int) -> int:
    """The point of P^1(Z/59^2) of the line through (u, v), which is
    nonzero mod 59: v/u when u is a unit (0 .. 59^2 - 1), else
    59^2 + (u/v)/59.  The inverse mod 59 is lifted to 59^2 by one
    Newton step, i*(2 - u*i)."""
    if u % _ETA_PRIME:
        i = _INVERSES[u % _ETA_PRIME]
        return v * i * (2 - u * i) % _ETA_SQUARED
    i = _INVERSES[v % _ETA_PRIME]
    return _ETA_SQUARED + u * i * (2 - v * i) % _ETA_SQUARED // _ETA_PRIME


def _proportional(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Whether flat quaternions x and y are proportional over Q(phi):
    every 2x2 minor x_i*y_j - x_j*y_i vanishes in Z[phi], where
    (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi."""
    for i, j in combinations((0, 2, 4, 6), 2):
        a, b, c, d = x[i], x[i + 1], y[j], y[j + 1]
        e, f, g, h = x[j], x[j + 1], y[i], y[i + 1]
        if (a * c + b * d != e * g + f * h
                or a * d + b * c + b * d != e * h + f * g + f * h):
            return False
    return True


_ETA_BAR = (ONE_QUAT * ETA.conj()).coords()  # conj(eta) = 12 - 5*phi


def _strip_eta(flat: tuple[int, ...]) -> tuple[int, ...]:
    """A nonzero flat quaternion divided by the largest power of eta
    dividing every coordinate (eta is prime: it divides a coordinate
    exactly when the residue is 0), as x/eta = x*conj(eta)/59."""
    while not any(_residues(flat)):
        flat = tuple(v // _ETA_PRIME for v in _hamilton(flat, _ETA_BAR))
    return flat


def _float_unit(q: GoldenQuat) -> tuple[float, ...]:
    """sigma_+(q) / |sigma_+(q)| in floats, for small coordinates."""
    v = [x.a + x.b * _PHI_FLOAT for x in q.parts()]
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


class C60Table:
    """The 60 projective classes generated by rho and sigma, each with
    the shortest {r, s}-word the breadth-first closure found, its
    inverse word, its point of PU(2) as a float unit quaternion (the
    snap's screen), and the pair entries exact_synthesize looks up by
    line (see peel_table)."""

    __slots__ = ("elements", "float_units", "_word_map", "_inverse",
                 "_by_key", "_pairs", "j_word", "rho_inverse_word")

    def __init__(self, elements: tuple[tuple[GoldenQuat, str], ...]):
        self.elements = elements
        self.float_units = tuple(_float_unit(q) for q, _ in elements)
        self._word_map = dict(elements)
        # C60 embeds in PGL_2(F_59), so the residue keys name the classes
        # and word_for finds each inverse without canonical()
        self._by_key = {_residue_key(_residues(q.coords())): q
                        for q, _ in elements}
        if len(self._by_key) != len(elements):
            raise IcogateError("C60 elements share a residue key mod eta")
        self._inverse = {}
        for q, _ in elements:
            inverse = self.word_for(q.conjugate())
            if inverse is None:
                raise IcogateError(f"the inverse of {q!r} is not in the table")
            self._inverse[q] = inverse
        self._pairs = None  # built by the first two-tau peel
        # the C60 tails synth_general appends to its routes
        self.j_word = self.word_for(GoldenQuat(0, 0, 1, 0))
        if self.j_word is None:
            raise IcogateError("j is not in the table")
        self.rho_inverse_word = self.inverse_word_for(RHO)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def snap(self, target, bound) -> tuple[GoldenQuat, str, object] | None:
        """The element nearest the unit quaternion target, as (element,
        segment, distance), when that distance is below bound, else
        None; on a tie, the first in table order.  Float dot products
        against float_units score the 60 within 2^-40 of
        |<target, q/|q|>| (each factor is rounded to doubles, off by a
        few 2^-53), and a distance is sqrt(1 - that), so when
        1 - top > bound^2 + 2^-40 no element is within bound and none
        is measured.  Otherwise those within 1e-9 of the top score (a
        window far wider than float round-off, so it holds every
        element that can tie the best) are measured at the working
        precision.  A target that is not finite raises MalformedInput."""
        t0, t1, t2, t3 = map(float, target)
        scores = [abs(t0 * v0 + t1 * v1 + t2 * v2 + t3 * v3)
                  for v0, v1, v2, v3 in self.float_units]
        top = max(scores)
        if not math.isfinite(top):
            raise MalformedInput("snap needs a finite target")
        if 1 - top > bound ** 2 + 2 ** -40:
            return None
        best = min(((q, seg, quaternion_distance(target,
                                                 q.to_vector(mp.prec)))
                    for (q, seg), score in zip(self.elements, scores)
                    if score >= top - 1e-9),
                   key=lambda e: e[2])
        return best if best[2] < bound else None

    def peel_table(self) -> tuple[tuple, ...]:
        """The entries exact_synthesize peels by, indexed by line mod
        59^2 (see _line): for each of the 3,540 non-backtracking pairs
        (c1, c2) the flat coordinates of c1*tau*c2*tau*conj(eta)^2 and
        the words for c1^-1 and c2^-1.  Built on first use, not with the
        closure, from the 60 flat pieces c*tau (and c*tau*conj(eta)^2 on
        the right).  c1*tau*c2*tau is divisible by eta for the 60 pairs
        with c2 = 1 (tau*tau = -eta); every other pair has rank 1 mod eta
        and so a primitive image line mod eta^2, and exactly 3,540
        distinct lines are required (see exact_synthesize).  Equal
        coordinates share one int object, which keeps the table near
        0.5 MB."""
        if self._pairs is not None:
            return self._pairs
        eta_bar2 = _hamilton(_ETA_BAR, _ETA_BAR)
        lefts = [(_hamilton(c.coords(), TAU.coords()), self._inverse[c])
                 for c, _ in self.elements]
        rights = [(_hamilton(c_tau, eta_bar2), inverse)
                  for c_tau, inverse in lefts]
        size = _ETA_SQUARED + _ETA_PRIME
        pairs: list[tuple | None] = [None] * size
        shared: dict[int, int] = {}
        for left, first in lefts:
            for right, second in rights:
                flat = _hamilton(left, right)
                res = _residues(flat, _ETA_SQUARED, _PHI_MOD_ETA2)
                if not any(v % _ETA_PRIME for v in res):
                    continue  # backtracking
                # the image line: the column nonzero mod eta
                m00, m01, m10, m11 = _image(res)
                key = (_line(m00, m10) if m00 % _ETA_PRIME or m10 % _ETA_PRIME
                       else _line(m01, m11))
                if pairs[key] is not None:
                    raise IcogateError("two non-backtracking pairs share a "
                                       "line mod eta^2")
                pairs[key] = (*(shared.setdefault(v, v) for v in flat),
                              first, second)
        if None in pairs:
            raise IcogateError("a line mod eta^2 has no non-backtracking pair")
        self._pairs = tuple(pairs)
        return self._pairs

    def _member(self, q: GoldenQuat) -> GoldenQuat | None:
        """The stored element of q's class, or None when q is not a C60
        element.  With its eta-content stripped, a multiple of an element
        has nrd prime to eta (det != 0 mod eta), so the residue key names
        the one candidate and the minors confirm it; det 0 means q is
        outside C60."""
        flat = q.coords()
        if not any(flat):
            raise MalformedInput("zero quaternion has no projective class")
        flat = _strip_eta(flat)
        res = _residues(flat)
        if sum(v * v for v in res) % _ETA_PRIME == 0:
            return None
        e = self._by_key.get(_residue_key(res))
        if e is None or not _proportional(flat, e.coords()):
            return None
        return e

    def word_for(self, q: GoldenQuat) -> str | None:
        e = self._member(q)
        return None if e is None else self._word_map[e]

    def inverse_word_for(self, q: GoldenQuat) -> str:
        e = self._member(q)
        if e is None:
            raise NotInGroup(f"{q!r} is not a C60 element")
        return self._inverse[e]


@lru_cache(maxsize=None)
def generate_c60() -> C60Table:
    """Breadth-first closure of {rho, sigma} modulo scalars."""
    start = canonical(ONE_QUAT)
    found: dict[GoldenQuat, str] = {start: ""}
    order = [start]
    queue = deque([start])
    while queue:
        q = queue.popleft()
        word = found[q]
        for letter, gen in (("r", RHO), ("s", SIGMA)):
            nq = canonical(q * gen)
            if nq not in found:
                found[nq] = word + letter
                order.append(nq)
                queue.append(nq)
    if len(found) != 60:
        raise IcogateError(f"closure of rho, sigma has {len(found)} "
                           "elements, expected 60")
    return C60Table(tuple((q, found[q]) for q in order))


_WORD_GROUPED = re.compile(r"^\([rs]*\)(?:t\([rs]*\))*$")
_WORD_BARE = re.compile(r"^[rst]*$")


@dataclass(frozen=True)
class GateWord:
    """A word xi_0 tau xi_1 tau ... tau xi_n over the gate set, stored
    as the tuple of {r, s}-segments between the taus."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise MalformedInput("a word has at least one segment")
        for seg in self.segments:
            if not isinstance(seg, str) or seg.strip("rs"):
                raise MalformedInput(f"bad segment {seg!r}")
        for seg in self.segments[1:-1]:
            if not seg:
                raise MalformedInput("inner segments must be nonempty")

    @property
    def tau_count(self) -> int:
        return len(self.segments) - 1

    def __str__(self) -> str:
        return "t".join(f"({seg})" for seg in self.segments)

    @classmethod
    def parse(cls, text: str) -> GateWord:
        flat = "".join(text.split())
        if "(" in flat or ")" in flat:
            if not _WORD_GROUPED.match(flat):
                raise MalformedInput(f"cannot parse word {text!r}")
            return cls(tuple(seg[1:-1] for seg in flat.split("t")))
        if not _WORD_BARE.match(flat):
            raise MalformedInput(f"cannot parse word {text!r}")
        return cls(tuple(flat.split("t")))

    def to_json(self) -> dict:
        return {"segments": list(self.segments), "tau_count": self.tau_count}

    @classmethod
    def from_json(cls, data: dict) -> GateWord:
        try:
            word = cls(tuple(data["segments"]))
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad word object: {data!r}") from exc
        if "tau_count" in data and data["tau_count"] != word.tau_count:
            raise MalformedInput("tau_count does not match segments")
        return word

    def concat(self, other: GateWord) -> GateWord:
        """Concatenation as group elements.  A seam tau-xi-tau whose
        joined {r, s}-segment xi is a projective scalar is itself a
        scalar (tau^2 = -eta) and cancels, taking both taus with it."""
        left = list(self.segments)
        right = list(other.segments)
        while (len(left) > 1 and len(right) > 1
               and _is_scalar_segment(left[-1] + right[0])):
            left.pop()
            right.pop(0)
        merged = left[:-1] + [left[-1] + right[0]] + right[1:]
        return GateWord(tuple(merged))


_GENERATORS = {"r": RHO, "s": SIGMA, "t": TAU}


def _is_scalar_segment(seg: str) -> bool:
    """Whether an {r, s}-segment is the identity of C60: its product is
    a nonzero quaternion, which is a scalar exactly when its i, j and k
    coordinates vanish."""
    return not any(_piece(seg, False)[2:])


@lru_cache(maxsize=1024)
def _piece(seg: str, after_tau: bool) -> tuple[int, ...]:
    """Exact product of the piece (seg), or t(seg) when after_tau, as
    flat coordinates.  Words repeat few pieces (exact_synthesize emits
    one shortest word per C60 element), so the store stays small."""
    flat = (TAU if after_tau else ONE_QUAT).coords()
    for ch in seg:
        flat = _hamilton(flat, _GENERATORS[ch].coords())
    return flat


def word_to_quat(word: GateWord) -> GoldenQuat:
    """Exact quaternion product of the word's letters, taken as one
    product per tau of the pieces (seg0), t(seg1), ..."""
    first, *rest = word.segments
    flat = _piece(first, False)
    for seg in rest:
        flat = _hamilton(flat, _piece(seg, True))
    return GoldenQuat._from_coords(flat)


def evaluate_word(word: GateWord,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> ProjUnitary:
    return word_to_quat(word).to_unitary(precision_bits)


def _strip_twos(flat: tuple[int, ...]) -> tuple[int, ...]:
    """A flat quaternion divided by the largest power of 2 dividing
    every coordinate (2 is prime in Z[phi]: it divides a + b*phi iff a
    and b are even)."""
    a0, b0, a1, b1, a2, b2, a3, b3 = flat
    # the lowest set bit of the OR is the common power of 2
    low = a0 | b0 | a1 | b1 | a2 | b2 | a3 | b3
    if low & 1:
        return flat
    shift = (low & -low).bit_length() - 1
    return tuple(v >> shift for v in flat)


def exact_synthesize(q: GoldenQuat) -> GateWord:
    """Factor q (with nrd a unit times eta^k) into a gate word with
    exactly k taus.  Raises NotInGroup, naming canonical(q), when q is
    not in the projective image of the order's unit lattice, and
    MalformedInput when q is 0.

    gamma starts as q with its common powers of 2 and its eta-content
    divided out (gamma/eta = gamma*conj(eta)/59), and eta never again
    divides gamma's content: if eta^3 divided gamma*P for a peeled
    cofactor P = c1*tau*c2*tau, multiplying by conj(P) would give
    eta | gamma*nrd(c1)*nrd(c2), and nrd(c), a unit times a power of 2,
    is prime to eta, so eta | gamma.

    Mod eta^2 the quaternions are M_2(Z/59^2) (see _image; phi maps to
    329, the Hensel lift of 34, and j to [[2894, 7], [7, -2894]]), where
    det is nrd mod eta^2.  While eta^2 divides nrd(gamma), gamma has
    rank 1 mod eta, and gamma*adj(gamma) = det = 0 mod eta^2 puts its
    kernel line mod eta^2 in the adjugate: (m01, -m00) beside a row that
    is nonzero mod eta, else (m11, -m10), primitive either way.  gamma*P
    vanishes mod eta^2 exactly when the image line of P = c1*tau*c2*tau
    is that kernel line.  C60 = A5 lies in PSL_2(F_59), and none of its
    nonidentity elements fixes a line mod eta: a lift to SL_2 of an
    element of order 2, 3 or 5 that did would have an eigenvalue in
    F_59 of order 3, 4, 5, 6 or 10, none of which divides 58.  So C60
    acts simply transitively on the 60 lines mod eta, and P's line mod
    eta, the image line of c1*tau, names c1.  P vanishes mod eta exactly
    when c2 fixes tau's image line, which is tau's kernel line
    (tau*tau = -eta): when c2 = 1.  For c2 != 1, conj(P) kills P's image
    line mod eta^2 (conj(P)*P = nrd(P)), so another P' = c1*tau*c2'*tau
    on the same line would give eta^2 | conj(P')*P =
    nrd(c1)*eta*conj(tau)*conj(c2')*c2*tau, and conj(c2')*c2 would fix
    tau's image line: c2' = c2.  The 60*59 pairs with c2 != 1 thus have
    distinct lines, all 3,540 points of P^1(Z/59^2) (C60Table checks the
    count), and the kernel line picks the one pair that peels.

    det = 0 mod eta but not mod eta^2 leaves one tau: gamma = xi*tau*xi'.
    tau is pure, so tau^-1 = -tau/eta, and the odd step, taken once
    (the eta-valuation is even after it), replaces gamma by tau*gamma =
    tau*xi*tau*xi' with its eta-content stripped: eta if xi = 1
    (tau*tau = -eta), and never 2, which is prime to nrd(tau).  The word
    is tau, then tau*gamma's word, which opens with an empty segment
    exactly when a pair peel follows (xi != 1); the two taus then
    cancel.  A peel divides nrd by eta^2, up to units and powers of 2,
    so the loop ends at det != 0 mod eta after k taus, on the unique
    non-backtracking path in the tree; each class has one table word, so
    the word is the one tau-by-tau peeling finds.  It costs k/2 Hamilton
    products for even k, (k - 1)/2 + 2 for odd k (tau*gamma, then a pair
    peel or the division by eta).  The residual's class is found by its
    residue key and confirmed by the minors (C60Table.word_for).  The
    AssertionErrors guard the eta-content invariant, the exact division
    and the single odd step; a quaternion outside the group reaches the
    final lookup.
    """
    table = generate_c60()
    flat = q.coords()
    if not any(flat):
        raise MalformedInput("zero quaternion has no projective class")
    flat = _strip_eta(_strip_twos(flat))
    tails: list[str] = []
    odd = False
    while True:
        m00, m01, m10, m11 = _image(_residues(flat, _ETA_SQUARED,
                                              _PHI_MOD_ETA2))
        det = (m00 * m11 - m01 * m10) % _ETA_SQUARED
        if det % _ETA_PRIME:
            break
        if det:
            if odd:
                raise AssertionError("a second odd tau; arithmetic bug")
            odd = True
            flat = _strip_eta(_hamilton(TAU.coords(), flat))
            continue
        # gamma's kernel line: orthogonal to a row nonzero mod eta
        if m00 % _ETA_PRIME or m01 % _ETA_PRIME:
            key = _line(m01, -m00)
        elif m10 % _ETA_PRIME or m11 % _ETA_PRIME:
            key = _line(m11, -m10)
        else:
            raise AssertionError("eta divides the content of gamma, "
                                 "which the peels keep prime to eta; "
                                 "arithmetic bug")
        entry = table.peel_table()[key]
        # gamma*P/eta^2 = gamma*P*conj(eta)^2/59^2 for the entry's
        # P = c1*tau*c2*tau
        product = _hamilton(flat, entry[:8])
        if any(v % _ETA_SQUARED for v in product):
            raise AssertionError("eta^2 divides the residues but not the "
                                 "product; arithmetic bug")
        flat = _strip_twos(tuple(v // _ETA_SQUARED for v in product))
        tails += entry[8:]
    base = table.word_for(GoldenQuat._from_coords(flat))
    if base is None:
        raise NotInGroup(f"{canonical(q)!r} is not in the gate group")
    segments = [base] + tails[::-1]
    if odd:
        segments = segments[1:] if base == "" and tails else [""] + segments
    return GateWord(tuple(segments))
