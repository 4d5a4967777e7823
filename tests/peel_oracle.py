"""Reference for the cofactor exact_synthesize peels: trial division of
q*c*tau by eta over all of C60, with no residues mod eta."""

from icogate.golden import ETA, exact_div
from icogate.icosian import TAU, generate_c60


def peel_oracle(q):
    """All c in C60 with q*c*tau divisible by eta, by trial division."""
    return [c for c, _ in generate_c60()
            if all(exact_div(x, ETA) is not None
                   for x in (q * (c * TAU)).parts())]
