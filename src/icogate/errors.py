"""Exception types shared across the compiler.

Recoverable conditions (abandoned factorizations, unrepresentable sums
of squares) get their own classes so that search loops can catch them
narrowly and move on to the next candidate.  The one effort limit that
abandons a factorization is the Pollard-rho iteration budget
(intfactor.RHO_ITERATION_BUDGET); prime size is not limited, since
square roots modulo a prime stay cheap.
"""

from __future__ import annotations


class IcogateError(Exception):
    """Base class for all library errors."""


class MalformedInput(IcogateError):
    """Input could not be parsed or violates a documented precondition."""


class NonResidue(IcogateError):
    """Requested a square root of a quadratic non-residue."""


class InertPrime(IcogateError):
    """The rational prime stays irreducible in the quadratic ring."""


class Abandoned(IcogateError):
    """A factorization gave up: its Pollard-rho iteration budget ran out.

    Only that budget raises it (intfactor.factor_cofactor); the caller
    is expected to move on to the next candidate rather than abort.
    """


class NotRepresentable(IcogateError):
    """No sum of two squares exists for the requested element."""


class UnsupportedResidue(NotRepresentable):
    """The element has an irreducible factor in a residue class with no
    known representation (odd multiplicity of a factor whose associated
    prime is 11 or 19 mod 20)."""


class NotInGroup(IcogateError):
    """Raised for an input outside the gate group: a quaternion that no
    gate word equals up to a scalar.  No search candidate is one."""


class HypothesisViolation(IcogateError):
    """Inputs to a tuning routine violate its stated hypotheses.

    Only direct callers of unitary.tune_diagonals meet it: synth_general
    poses every central candidate within them."""


class BudgetExhausted(IcogateError):
    """Synthesis ran out of its depth budget before reaching the target."""


class PrecisionInsufficient(IcogateError):
    """The target is stored too coarsely to certify distances at epsilon."""
