"""Outward rounding for integer scans over big-float bounds.

Enumeration bounds carry quantities like eta^{m/2} sin(theta), so the
integer interval a scan covers is widened by a few ulps on each side:
no true solution is ever excluded, and callers discard any spurious
boundary point by exact arithmetic on their side.
"""

from __future__ import annotations

from mpmath import mp, mpf

__all__: list[str] = []


def _slack(*terms) -> object:
    """Absolute rounding allowance for a sum of the given terms.

    Scaled by the largest term magnitude, not the result: the result of
    p*c + q*d can be tiny through cancellation while each product
    carries roundoff proportional to its own size.
    """
    mag = mpf(1)
    for t in terms:
        mag = max(mag, abs(t))
    return mp.eps * 16 * mag
