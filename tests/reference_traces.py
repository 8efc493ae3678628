"""Reference formulas the package no longer evaluates, kept as oracles.

It imports nothing from ``imbilliards``, so the package and these routes
share no algebra.

- ``trace4_ellipse``: the trace of the symmetric 4-periodic ellipse orbit.
  The package evaluates it from its factors; this module keeps the expanded
  form it was derived as, a rational function of total degree 16 in
  ``(a, b, x0)``, in 40-digit arithmetic.  It takes its float arguments as
  exact binary inputs and returns the exact value of the formula at them,
  rounded to a float at the end.
- ``two_periodic_step_matrix``: the one-step Jacobian of a 2-periodic
  configuration written out by hand, in floats, to cross-check the general
  linearization.
"""

from __future__ import annotations

import math

import numpy as np
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


def two_periodic_step_matrix(
    theta0: float, theta1: float, theta2: float,
    ell1: float, mu: float, kappa0: float, kappa2: float,
) -> np.ndarray:
    """Specialized one-step Jacobian for a 2-periodic configuration
    (chi = pi/2, ell2 = 2 mu)."""
    st0, st1, st2 = math.sin(theta0), math.sin(theta1), math.sin(theta2)
    s12 = math.sin(theta1 + theta2)
    a11 = (kappa0 * ell1 - st0) / st2
    a12 = ell1 / (st0 * st2)
    a21 = (kappa0 * ell1 - st0) * (s12 - kappa2 * mu * st1) / (mu * st1) - kappa0 * st2
    a22 = ell1 * (s12 - kappa2 * mu * st1) / (mu * st0 * st1) - st2 / st0
    return np.array([[a11, a12], [a21, a22]])
