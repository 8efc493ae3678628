"""An expanded periodic-orbit trace in 40-digit arithmetic.

It imports mpmath and nothing from ``imbilliards``.  The package evaluates
the trace of the symmetric 4-periodic ellipse orbit from its factors; this
module keeps the expanded form it was derived as, a rational function of
total degree 16 in ``(a, b, x0)``, so the two routes share no algebra.

It takes its float arguments as exact binary inputs and returns the exact
value of the formula at them, rounded to a float at the end.
"""

from __future__ import annotations

from mpmath import mp, mpf, sqrt

DIGITS = 40


def trace4_ellipse(a: float, b: float, x0: float) -> float:
    """The numerator of five terms in ``x0^i y0^(4-i)`` over
    ``a^4 b^4 y0^2 (b^2 x0 - a^2 (x0 + 2 y0))^2``, with
    ``y0 = b sqrt(1 - x0^2/a^2)``."""
    with mp.workdps(DIGITS):
        a, b, x0 = mpf(a), mpf(b), mpf(x0)
        y0 = b * sqrt(1 - (x0 / a) ** 2)
        a2, b2 = a * a, b * b
        d = a2 - b2
        num = (16 * b2**2 * d**4 * x0**4
               - 16 * b2 * d**3 * (2 * a2**2 - 3 * a2 * b2 + 2 * b2**2) * x0**3 * y0
               + 2 * d**2 * (8 * a2**4 - 40 * a2**3 * b2 + 49 * a2**2 * b2**2
                             - 40 * a2 * b2**3 + 8 * b2**4) * x0**2 * y0**2
               + 8 * a2 * d * (4 * a2**4 - 10 * a2**3 * b2 + 13 * a2**2 * b2**2
                               - 10 * a2 * b2**3 + 4 * b2**4) * x0 * y0**3
               + 8 * a2**2 * (2 * a2**4 - 4 * a2**3 * b2 + 5 * a2**2 * b2**2
                              - 4 * a2 * b2**3 + 2 * b2**4) * y0**4)
        den = a2**2 * b2**2 * y0**2 * (b2 * x0 - a2 * (x0 + 2 * y0)) ** 2
        return float(num / den)
