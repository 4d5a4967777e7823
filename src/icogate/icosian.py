"""Quaternions with Z[phi] coefficients, the 60-element gate group they
project to, and exact factorization into gate words.

The three generators live here as integral quaternions: rho and sigma
have reduced norm a unit times a rational square, so they project to
elements of the icosahedral group C60, while tau has reduced norm
eta = 7 + 5*phi.  Any quaternion whose reduced norm is eta^k (times a
unit) factors as xi_0 tau xi_1 tau ... tau xi_k with the xi_i in C60,
and the factorization is found greedily: exactly one right cofactor
c*tau makes the product divisible by eta, and dividing by eta drops the
tau-count by one.

The cofactor is chosen in Z[phi]/(eta) = F_59, where phi maps to 34
(34^2 - 34 - 1 = 19*59 and 7 + 5*34 = 3*59).  eta is prime, so it
divides a coordinate exactly when the coordinate's residue is 0.  Mod
eta the quaternions are the 2x2 matrices over F_59, and gamma*c*tau is
divisible by eta exactly when the image line of c*tau is the kernel
line of gamma.  The 60 lines of the products c*tau are distinct and
fixed, so each tau costs one kernel-line lookup and one exact division
by eta.

The loop needs no canonical().  A scalar prime to eta does not change
which cofactor works, so exact_synthesize only strips the input's
common powers of 2 (a parity test) and its eta-content (while every
coordinate is divisible by eta); any other content rides along.  From
then on eta never divides gamma's content (see exact_synthesize).  The
unit gamma carries needs no rebalancing either:
each step divides the reduced norm by eta (about 15.1 and 3.9 under
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
                     _balancing_power, _coerce, _gcd_pair, _hamilton, embed,
                     eta_valuation, exact_div, phi_power)
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
        return tuple(embed(x, "plus", precision_bits) for x in self.parts())

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


def _residues(flat: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The coordinates of a flat quaternion (see GoldenQuat) reduced
    mod eta, as elements of F_59."""
    a0, b0, a1, b1, a2, b2, a3, b3 = flat
    return ((a0 + _PHI_MOD_ETA * b0) % _ETA_PRIME,
            (a1 + _PHI_MOD_ETA * b1) % _ETA_PRIME,
            (a2 + _PHI_MOD_ETA * b2) % _ETA_PRIME,
            (a3 + _PHI_MOD_ETA * b3) % _ETA_PRIME)


def _residue_key(res: tuple[int, int, int, int]) -> tuple[int, ...]:
    """Nonzero residues (see _residues) scaled so that the first nonzero
    one is 1: the image of the quaternion's projective class in
    PGL_2(F_59) when its reduced norm is prime to eta."""
    lead = next(v for v in res if v)
    inv = pow(lead, -1, _ETA_PRIME)
    return tuple(v * inv % _ETA_PRIME for v in res)


def _image(res: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The 2x2 matrix over F_59 of residues (g0, g1, g2, g3), as its
    entries (m00, m01, m10, m11), under i -> [[0, 1], [-1, 0]] and
    j -> [[3, 7], [7, -3]] (3^2 + 7^2 = -1 mod 59), so k = ij ->
    [[7, -3], [-3, -7]] and det = g0^2 + g1^2 + g2^2 + g3^2."""
    g0, g1, g2, g3 = res
    s, t = 3 * g2 + 7 * g3, 7 * g2 - 3 * g3
    return ((g0 + s) % _ETA_PRIME, (g1 + t) % _ETA_PRIME,
            (t - g1) % _ETA_PRIME, (g0 - s) % _ETA_PRIME)


_INVERSES = (0,) + tuple(pow(u, -1, _ETA_PRIME) for u in range(1, _ETA_PRIME))


def _line(u: int, v: int) -> int:
    """The point of P^1(F_59) of the line through (u, v) != (0, 0), for
    u in 0 .. 58: v/u, or 59 when u = 0."""
    return v * _INVERSES[u] % _ETA_PRIME if u else _ETA_PRIME


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
    inverse word, its point of PU(2) as a float unit quaternion (for a
    nearest-element screen), and the peeling entries exact_synthesize
    looks up by line."""

    __slots__ = ("elements", "unit_vectors", "_word_map", "_inverse",
                 "_by_key", "_peel", "j_word", "rho_inverse_word")

    def __init__(self, elements: tuple[tuple[GoldenQuat, str], ...]):
        self.elements = elements
        self.unit_vectors = tuple(_float_unit(q) for q, _ in elements)
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
        # indexed by the image line of c*tau mod eta (a nonzero column):
        # c*tau*conj(eta) as flat coordinates, and the word for c^-1
        peel = {}
        for c, _ in elements:
            m00, m01, m10, m11 = _image(_residues((c * TAU).coords()))
            key = _line(m00, m10) if m00 or m10 else _line(m01, m11)
            peel[key] = ((c * TAU * ETA.conj()).coords(), self._inverse[c])
        if len(peel) != _ETA_PRIME + 1:
            raise IcogateError("two C60 cofactors share a line mod eta")
        self._peel = tuple(peel[key] for key in range(_ETA_PRIME + 1))
        # the C60 tails synth_general appends to its routes
        self.j_word = self.word_for(GoldenQuat(0, 0, 1, 0))
        if self.j_word is None:
            raise IcogateError("j is not in the table")
        self.rho_inverse_word = self.inverse_word_for(RHO)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def nearest(self, target) -> tuple[GoldenQuat, str, object]:
        """The element nearest the unit quaternion target, as (element,
        segment, distance): the first in table order with the strictly
        smallest distance.  Float dot products against the unit vectors
        screen the 60; only those within 1e-9 of the best float score (a
        window far wider than float round-off, so it holds every element
        that can tie the best) are measured at working precision."""
        t0, t1, t2, t3 = map(float, target)
        scores = [abs(t0 * v0 + t1 * v1 + t2 * v2 + t3 * v3)
                  for v0, v1, v2, v3 in self.unit_vectors]
        top = max(scores)
        return min(((q, seg, quaternion_distance(target, q.to_vector(mp.prec)))
                    for (q, seg), score in zip(self.elements, scores)
                    if score >= top - 1e-9), key=lambda e: e[2])

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
    exactly k taus.  Raises NotInGroup when q is not in the projective
    image of the order's unit lattice, and MalformedInput when q is 0.

    Mod eta the quaternions are M_2(F_59) (see _image), where det is nrd
    mod eta.  gamma starts as q with its common powers of 2 and its
    eta-content divided out (gamma/eta = gamma*conj(eta)/59), and eta
    never again divides gamma's content: if eta^2 divided gamma*c*tau,
    multiplying by conj(c*tau) would give eta | gamma*nrd(c), and
    nrd(c), a unit times a power of 2, is prime to eta, so eta | gamma.
    So while eta | nrd(gamma), gamma's image has rank 1, as has tau's, and
    gamma*c*tau vanishes exactly when c maps the image line of tau onto
    gamma's kernel line.  C60 = A5 lies in PSL_2(F_59), and none of its
    nonidentity elements fixes a line: a lift to SL_2 of an element of
    order 2, 3 or 5 that did would have an eigenvalue in F_59 of order
    3, 4, 5, 6 or 10, none of which divides 58.  So C60 acts simply
    transitively on the 60 lines (C60Table checks it), and the kernel
    line picks the one c that peels.  A peel divides nrd by eta, times
    nrd(c) and the strip's powers of 4, all prime to eta, so det != 0
    ends the loop after exactly k peels.  The residual's class is found
    by its residue key and confirmed by the minors (C60Table.word_for).
    The AssertionErrors guard the eta-content invariant and the exact
    division; a quaternion outside the group reaches the final lookup.
    """
    table = generate_c60()
    peel = table._peel
    flat = q.coords()
    if not any(flat):
        raise MalformedInput("zero quaternion has no projective class")
    flat = _strip_eta(_strip_twos(flat))
    tails: list[str] = []
    while True:
        res = _residues(flat)
        m00, m01, m10, m11 = _image(res)
        if (m00 * m11 - m01 * m10) % _ETA_PRIME:
            break
        if not any(res):
            raise AssertionError("eta divides the content of gamma, which "
                                 "the peels keep prime to eta; arithmetic "
                                 "bug")
        # the kernel line of rank-1 gamma: orthogonal to a nonzero row
        if m00 or m01:
            c_tau_eta_bar, inverse = peel[_line(m01, -m00)]
        else:
            c_tau_eta_bar, inverse = peel[_line(m11, -m10)]
        # gamma*c*tau/eta = gamma*c*tau*conj(eta)/59
        product = _hamilton(flat, c_tau_eta_bar)
        if any(v % _ETA_PRIME for v in product):
            raise AssertionError("eta divides the residues but not the "
                                 "product; arithmetic bug")
        flat = _strip_twos(tuple(v // _ETA_PRIME for v in product))
        tails.append(inverse)
    gamma = GoldenQuat._from_coords(flat)
    base = table.word_for(gamma)
    if base is None:
        raise NotInGroup(f"residual {canonical(gamma)!r} is outside C60")
    return GateWord(tuple([base] + tails[::-1]))
