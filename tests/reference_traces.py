"""Expanded periodic-orbit traces in 40-digit arithmetic.

It imports mpmath and nothing from ``imbilliards``.  The package evaluates
these traces from their factors; this module keeps the expanded forms they
were derived as, so the two routes share no algebra:

* the cubic in ``alpha`` of the equal-angle 3-periodic circle orbit;
* the quartic in ``alpha`` of the symmetric 4-periodic circle orbit;
* the rational function of total degree 16 in ``(a, b, x0)`` of the
  symmetric 4-periodic ellipse orbit.

Each takes its float arguments as exact binary inputs and returns the exact
value of the formula at them, rounded to a float at the end.
"""

from __future__ import annotations

from mpmath import cos, mp, mpf, pi, sin, sqrt

DIGITS = 40


def trace3_cubic(theta: float, alpha: float, sign: int) -> float:
    """``c0 + c1 alpha + c2 alpha^2 + c3 alpha^3``, with ``sign`` +1 for
    rotation 1/3 and -1 for rotation 2/3."""
    with mp.workdps(DIGITS):
        t, al = mpf(theta), mpf(alpha)
        s, c = sin(t), cos(t)
        cot, r3 = c / s, sqrt(3)
        c0 = 2 - 9 * cot**2 - sign * 3 * r3 * cot**3
        c1 = (3 * c / (4 * s**4)) * (
            sign * 5 * r3 * c + sign * r3 * cos(3 * t) - 3 * s + 9 * sin(3 * t))
        c2 = -sign * 3 * sin(pi / 3 + sign * 2 * t) * (c + sin(pi / 6 + sign * 3 * t)) / s**5
        c3 = sign * cos(pi / 6 - sign * 2 * t) ** 3 / s**6
        return float(c0 + al * (c1 + al * (c2 + al * c3)))


def trace4_circle_quartic(theta: float, alpha: float) -> float:
    """The quartic in ``alpha = R/mu``, divided by ``sin(theta)^4``."""
    with mp.workdps(DIGITS):
        t, al = mpf(theta), mpf(alpha)
        s, c, c2 = sin(t), cos(t), cos(2 * t)
        poly = (2 * (1 - 10 * c**2 + 17 * c**4)
                - 32 * al * c2 * c * (3 * c**2 - 1)
                + 8 * al**2 * c2**2 * (5 + 7 * c2)
                - 64 * al**3 * c2**3 * c
                + 16 * al**4 * c2**4)
        return float(poly / s**4)


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
