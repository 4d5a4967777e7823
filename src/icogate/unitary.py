"""Projective single-qubit unitaries over big floats.

Approximation quality is the bi-invariant metric
d(A,B) = sqrt(1 - |tr(A^dag B)|/2) on PU(2), which is insensitive to
global phase.  At the API boundary (parsing, require_unitary, the CLI,
and as the reference tests compare against) targets are 2x2 matrices,
stored with an explicit working precision in bits; the synthesis layers
pick the precision from the target accuracy so that the huge eta^k
scalings cancel without eating the answer.

On the hot path PU(2) is the unit quaternions modulo sign instead: the
map x0 + x1 i + x2 j + x3 k -> [[x0 + x1 i, x2 + x3 i],
[-x2 + x3 i, x0 - x1 i]] turns quaternion products into matrix
products and tr(A^dag B)/2 into the real dot product <a, b>, so the
distance from a unit target g to any nonzero quaternion q is
sqrt(1 - |<g, q>|/|q|) (quaternion_distance), one dot product.
to_quaternion is the one way from a matrix to a real 4-vector, and
the tuning lemma (tune_diagonals) reads |alpha| and the phases of
alpha = x0 + x1 i and beta = x2 + x3 i from the 4-vectors directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

from mpmath import mp, mpc, mpf

from .errors import HypothesisViolation, MalformedInput

__all__ = [
    "ProjUnitary",
    "TuningAngles",
    "DEFAULT_PRECISION_BITS",
    "precision_for",
    "require_unitary",
    "distance",
    "u_of_theta",
    "u_of_alpha_beta",
    "to_alpha_beta",
    "to_quaternion",
    "quaternion_distance",
    "tune_diagonals",
    "near_unit_circle",
    "named_gate",
    "parse_complex",
    "GATE_NAMES",
]

DEFAULT_PRECISION_BITS = 128

# Lemma-5-style tuning constants; C is derived from these
DELTA = 0.5
EPSILON0 = 0.05


def precision_for(epsilon: float) -> int:
    """Working precision for a target accuracy epsilon.

    Synthesis at accuracy eps manipulates numbers of size eta^k with
    k ~ log_59(1/eps^3); 3*log2(1/eps) bits cover the dynamic range and
    the constant keeps a healthy mantissa after cancellation.  epsilon
    must be a positive finite real (MalformedInput).
    """
    if not (isinstance(epsilon, Real) and 0 < epsilon < mp.inf):
        raise MalformedInput("epsilon must be a positive finite real")
    with mp.workprec(64):
        bits = int(mp.ceil(3 * mp.log(1 / mpf(epsilon), 2)))
    return max(bits, 0) + 96


class ProjUnitary:
    """A 2x2 complex matrix considered up to global phase."""

    __slots__ = ("entries", "precision_bits")

    def __init__(self, entries, precision_bits: int = DEFAULT_PRECISION_BITS):
        try:
            with mp.workprec(precision_bits):
                (a, b), (c, d) = ((mpc(x), mpc(y)) for x, y in entries)
        except (TypeError, ValueError):
            raise MalformedInput("expected a 2x2 matrix of numbers") from None
        self.entries, self.precision_bits = ((a, b), (c, d)), precision_bits

    def __repr__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"ProjUnitary([[{a}, {b}], [{c}, {d}]], bits={self.precision_bits})"

    def __matmul__(self, other: ProjUnitary) -> ProjUnitary:
        bits = max(self.precision_bits, other.precision_bits)
        with mp.workprec(bits):
            (a, b), (c, d) = self.entries
            (e, f), (g, h) = other.entries
            rows = ((a * e + b * g, a * f + b * h),
                    (c * e + d * g, c * f + d * h))
        return ProjUnitary(rows, bits)

    def dagger(self) -> ProjUnitary:
        (a, b), (c, d) = self.entries
        with mp.workprec(self.precision_bits):
            rows = ((a.conjugate(), c.conjugate()),
                    (b.conjugate(), d.conjugate()))
        return ProjUnitary(rows, self.precision_bits)

    def det(self):
        (a, b), (c, d) = self.entries
        with mp.workprec(self.precision_bits):
            return a * d - b * c

    def trace(self):
        with mp.workprec(self.precision_bits):
            return self.entries[0][0] + self.entries[1][1]


def _roundoff(precision_bits: int):
    """Relative error allowance for a few operations on entries stored
    at the given precision."""
    return mpf(2) ** (8 - precision_bits)


def require_unitary(u: ProjUnitary) -> None:
    """Raise MalformedInput unless u is finite and a nonzero scalar
    multiple of a unitary, up to round-off at its stored precision
    (the columns are orthogonal and of equal squared length |det u|)."""
    (a, b), (c, d) = u.entries
    with mp.workprec(u.precision_bits):
        if not all(mp.isfinite(x) for x in (a, b, c, d)):
            raise MalformedInput("matrix entries must be finite")
        scale = abs(u.det())
        defect = max(abs(abs(a) ** 2 + abs(c) ** 2 - scale),
                     abs(abs(b) ** 2 + abs(d) ** 2 - scale),
                     abs(a.conjugate() * b + c.conjugate() * d))
        if not scale > 0 or defect > _roundoff(u.precision_bits) * scale:
            raise MalformedInput("matrix is not a scalar multiple of a "
                                 "unitary")


def distance(a: ProjUnitary, b: ProjUnitary):
    """Bi-invariant distance sqrt(1 - |tr(a^dag b)| / 2) on PU(2).

    Inputs may carry any nonzero scalar (exact-arithmetic lifts do);
    the trace is normalized by sqrt|det| so the scalar cancels.  A
    negative radicand is clamped to 0 only when it is round-off at the
    coarser input's precision; a larger one, or NaN, means an input is
    not a scalar multiple of a unitary and raises MalformedInput.
    """
    bits = max(a.precision_bits, b.precision_bits)
    with mp.workprec(bits):
        m = a.dagger() @ b
        scale = mp.sqrt(abs(m.det()))
        if scale == 0:
            raise MalformedInput("singular input to distance")
        val = 1 - abs(m.trace()) / (2 * scale)
        if mp.isnan(val) or val < -_roundoff(min(a.precision_bits,
                                                 b.precision_bits)):
            raise MalformedInput("distance needs finite scalar multiples "
                                 "of unitaries")
        return mp.sqrt(val if val > 0 else mpf(0))


def u_of_theta(theta, precision_bits: int = DEFAULT_PRECISION_BITS) -> ProjUnitary:
    """The diagonal rotation diag(e^{i theta}, e^{-i theta})."""
    with mp.workprec(precision_bits):
        ph = mp.expj(mpf(theta))
        return ProjUnitary(((ph, 0), (0, ph.conjugate())), precision_bits)


def u_of_alpha_beta(alpha, beta,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> ProjUnitary:
    """The SU(2) form [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    with mp.workprec(precision_bits):
        alpha, beta = mpc(alpha), mpc(beta)
        rows = ((alpha, beta),
                (-beta.conjugate(), alpha.conjugate()))
    return ProjUnitary(rows, precision_bits)


def to_alpha_beta(u: ProjUnitary):
    """Extract (alpha, beta) with det normalized to 1 and a fixed sign.

    The representative has arg(alpha) in (-pi/2, pi/2]; when alpha is
    negligibly small the same convention is applied to beta instead, so
    the choice is stable for near-antidiagonal inputs.
    """
    bits = u.precision_bits
    with mp.workprec(bits):
        d = u.det()
        if abs(d) == 0:
            raise MalformedInput("singular matrix has no (alpha, beta) form")
        root = mp.sqrt(d)
        alpha = u.entries[0][0] / root
        beta = u.entries[0][1] / root
        anchor = alpha if abs(alpha) >= abs(beta) else beta
        a = mp.arg(anchor)
        if a <= -mp.pi / 2 or a > mp.pi / 2:
            alpha, beta = -alpha, -beta
        return alpha, beta


def to_quaternion(u: ProjUnitary) -> tuple:
    """(Re alpha, Im alpha, Re beta, Im beta) of to_alpha_beta(u): the
    unit quaternion of u, at u's precision."""
    alpha, beta = to_alpha_beta(u)
    return alpha.real, alpha.imag, beta.real, beta.imag


def quaternion_distance(g, q):
    """sqrt(1 - |<g, q>| / |q|) at the working precision: the distance()
    between the matrices of the unit 4-vector g and of the real 4-vector
    q, which may carry any nonzero scale.  Both dot products are summed
    exactly before rounding, and a radicand that round-off pushes below
    0 reads as 0; a NaN or infinite one, from a component that is not
    finite, raises MalformedInput."""
    norm = mp.sqrt(mp.fdot(q, q))
    if norm == 0:
        raise MalformedInput("zero quaternion has no distance")
    val = 1 - abs(mp.fdot(g, q)) / norm
    if not mp.isfinite(val):
        raise MalformedInput("distance needs finite quaternions")
    return mp.sqrt(val) if val > 0 else mpf(0)


@dataclass(frozen=True)
class TuningAngles:
    theta1: object
    theta2: object


@lru_cache(maxsize=1)
def tuning_constant():
    """C = sqrt(1/2 + ((2+delta)/epsilon0)^2 / 2), computed once."""
    with mp.workprec(64):
        return mp.sqrt(mpf(1) / 2 + ((2 + mpf(DELTA)) / mpf(EPSILON0)) ** 2 / 2)


def near_unit_circle(abs_alpha) -> bool:
    """Whether |alpha|^2 >= 1 - epsilon0^2 at the working precision: the
    tuning lemma needs one of its two |alpha| below that."""
    return abs_alpha ** 2 >= 1 - mpf(EPSILON0) ** 2


def tune_diagonals(gamma1, gamma2) -> TuningAngles:
    """Diagonal rotations aligning gamma2 with gamma1, at the working
    precision.

    gamma1 is a unit quaternion (x0, x1, x2, x3) and gamma2 a real
    4-vector at any positive scale; each stands for u(alpha, beta) with
    alpha = x0 + x1 i and beta = x2 + x3 i over its norm.  For
    ||alpha_1| - |alpha_2|| < delta and min |alpha_l| <
    sqrt(1 - epsilon0^2), the returned angles give
    d(gamma1, u(theta1) gamma2 u(theta2)) < C * ||alpha_1| - |alpha_2||
    with C = sqrt(1/2 + ((2+delta)/epsilon0)^2 / 2).  The phases are
    atan2 values, and atan2(0, 0) = 0.
    """
    x0, x1, x2, x3 = gamma1
    y0, y1, y2, y3 = gamma2
    abs_a1 = mp.hypot(x0, x1)
    abs_a2 = mp.hypot(y0, y1)
    abs_a2 /= mp.hypot(abs_a2, mp.hypot(y2, y3))
    if abs(abs_a1 - abs_a2) >= DELTA:
        raise HypothesisViolation("| |alpha1| - |alpha2| | exceeds delta")
    if near_unit_circle(min(abs_a1, abs_a2)):
        raise HypothesisViolation(
            "both alphas too close to the unit circle; use the "
            "diagonal pipeline instead")
    da = mp.atan2(x1, x0) - mp.atan2(y1, y0)
    db = mp.atan2(x3, x2) - mp.atan2(y3, y2)
    return TuningAngles((da + db) / 2, (da - db) / 2)


# --- named gates and entry parsing ---

GATE_NAMES = ("H", "T", "S", "X", "Y", "Z")


def named_gate(name: str, precision_bits: int = DEFAULT_PRECISION_BITS
               ) -> ProjUnitary:
    if not (isinstance(name, str) and isinstance(precision_bits, int)):
        raise MalformedInput("name must be a str and precision_bits an int")
    name = name.upper()
    with mp.workprec(precision_bits):
        if name == "H":
            r = 1 / mp.sqrt(2)
            rows = ((r, r), (r, -r))
        elif name == "T":
            ph = mp.expj(mp.pi / 8)
            rows = ((ph, 0), (0, ph.conjugate()))
        elif name == "S":
            rows = ((1, 0), (0, mpc(0, 1)))
        elif name == "X":
            rows = ((0, 1), (1, 0))
        elif name == "Y":
            rows = ((0, mpc(0, -1)), (mpc(0, 1), 0))
        elif name == "Z":
            rows = ((1, 0), (0, -1))
        else:
            raise MalformedInput(f"unknown gate {name!r}; "
                                 f"known: {', '.join(GATE_NAMES)}")
    return ProjUnitary(rows, precision_bits)


_NUM = r"(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)"
_RE_FULL = re.compile(rf"([+-]?{_NUM})([+-]{_NUM}?)[iI]$")
_RE_IMAG = re.compile(rf"([+-]?{_NUM}?)[iI]$")
_RE_REAL = re.compile(rf"([+-]?{_NUM})$")


def _num_value(token: str):
    if token in ("", "+"):
        return mpf(1)
    if token == "-":
        return mpf(-1)
    sign = 1
    if token[0] in "+-":
        sign = -1 if token[0] == "-" else 1
        token = token[1:]
    if "/" in token:
        p, q = token.split("/")
        if "." in p or "e" in p.lower():
            raise MalformedInput(f"bad rational {token!r}")
        if int(q) == 0:
            raise MalformedInput(f"zero denominator in {token!r}")
        return sign * mpf(int(p)) / mpf(int(q))
    return sign * mpf(token)


def parse_complex(text: str, precision_bits: int = DEFAULT_PRECISION_BITS):
    """Parse 're', 'im i', or 're+im i' with rational or decimal parts.

    Examples: '1', '-0.5', '1/2', '0.5+0.25i', '1/2-1/3i', 'i', '-2i'.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise MalformedInput("empty complex literal")
    with mp.workprec(precision_bits):
        m = _RE_FULL.fullmatch(s)
        if m:
            return mpc(_num_value(m.group(1)), _num_value(m.group(2)))
        m = _RE_IMAG.fullmatch(s)
        if m:
            return mpc(0, _num_value(m.group(1)))
        m = _RE_REAL.fullmatch(s)
        if m:
            return mpc(_num_value(m.group(1)), 0)
    raise MalformedInput(f"cannot parse complex literal {text!r}")
