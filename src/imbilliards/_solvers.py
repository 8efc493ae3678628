"""Solvers: Brent's root finder, Brent's bounded minimizer, Carlson's R_F, the AGM.

``brentq`` is a line-for-line port of SciPy's C routine ``brentq``
(``optimize/Zeros/brentq.c``) and ``minimize_bounded`` of SciPy's
pure-Python ``_minimize_scalar_bounded`` (both after Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4 and 5).  Both compute on
Python floats.  Where SciPy's minimizer calls ``np.abs``, ``np.maximum``
and ``np.sign`` on numpy scalars, ``minimize_bounded`` uses ``abs``, ``max``
and comparisons: the same IEEE operations on the same values.  So both keep
SciPy's arithmetic step for step and return the same floats, bit for bit,
which the twin tests in ``tests/test_solvers.py`` check on the package's
own solves.  SciPy is distributed under the BSD 3-clause licence:
Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.

``carlson_rf`` evaluates Carlson's symmetric elliptic integral of the first
kind by duplication (Carlson, *Numer. Algorithms* 10, 1995; DLMF §19.36.1),
and ``agm`` the arithmetic-geometric mean, which gives the complete case
``R_F(0, x^2, y^2) = pi / (2 M(x, y))`` (DLMF §19.22.1).  Both take floats
or float arrays.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

__all__ = ["SameSignError", "brentq", "minimize_bounded", "carlson_rf", "agm"]

#: SciPy's smallest admissible relative tolerance of ``brentq``, ``4 * eps``
RTOL_MIN = 4.0 * sys.float_info.epsilon
#: SciPy's default cap on the evaluations of its bounded minimizer
_BOUNDED_MAXITER = 500


class SameSignError(ValueError):
    """``brentq`` was given end values of one sign."""


def _nan_at(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 2e-12,
    rtol: float = RTOL_MIN,
    maxiter: int = 100,
) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    The iterate stops moving once the bracket half-width falls below
    ``(xtol + rtol * |x|) / 2``.  Raises ``ValueError`` for a bad tolerance,
    for end values of one sign (as :class:`SameSignError`) and for a NaN
    value of ``f``, and ``RuntimeError`` after ``maxiter`` iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _nan_at(xpre)
    fcur = float(f(xcur))
    if fcur != fcur:
        raise _nan_at(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SameSignError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_at(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def minimize_bounded(
    func: Callable[[float], float],
    bounds: tuple[float, float],
    xatol: float,
) -> tuple[float, float]:
    """``(x, func(x))`` at a local minimum of ``func`` on ``bounds``, found by
    golden-section search with parabolic steps to absolute tolerance
    ``xatol``; stops after ``_BOUNDED_MAXITER`` evaluations.

    The bounds are taken as floats and the search runs on floats, so ``func``
    receives floats.  Where SciPy calls ``np.abs``, ``np.maximum`` and
    ``np.sign`` on numpy scalars, this uses ``abs``, ``max`` and comparisons,
    which are the same IEEE operations on the same values, NaN included: the
    sign of a NaN is NaN, and ``max`` keeps a NaN given first.
    """
    x1, x2 = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    # SciPy's np.sign(d) + (d == 0): 1 at +-0, NaN at NaN
                    d = xm - xf
                    rat = tol1 * (1.0 if d >= 0.0 else -1.0 if d < 0.0 else d)
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = 1.0 if rat >= 0.0 else -1.0 if rat < 0.0 else rat
        x = xf + si * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _BOUNDED_MAXITER:
            break
    return xf, fx


#: ``(3 r)^(-1/6)`` for the relative error ``r = 2^-53`` of the truncated
#: series: duplication stops once ``4^n |A_n|`` exceeds this times the
#: largest ``|A_0 - x|``
_RF_STOP = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
#: binary exponents of the band ``[2^-500, 2^1000]`` of largest arguments
#: that the duplication takes as they are: below it bits go to underflow,
#: and above it ``A_0`` or the stop threshold can overflow
_RF_EXPS = (-500, 1000)
_RF_TINY, _RF_HUGE = 2.0 ** _RF_EXPS[0], 2.0 ** _RF_EXPS[1]


def carlson_rf(x, y, z):
    """Carlson's ``R_F(x, y, z) = 1/2 ∫_0^∞ dt / sqrt((t+x)(t+y)(t+z))`` for
    ``x, y, z >= 0``, at most one of them zero.

    The arguments are floats, which give a ``float``, or float arrays of one
    shape, which give an array.  On arrays the duplication runs until every
    entry meets the stop rule; the extra duplications of an entry that met it
    earlier only refine that entry.

    Raises ``ValueError`` when two or more arguments of an entry are zero:
    the integral diverges there, and duplication never meets the stop rule.
    An entry whose largest argument lies outside ``[2^-500, 2^1000]`` is
    duplicated at ``R_F(4^m x, 4^m y, 4^m z) = 2^-m R_F(x, y, z)``, with
    ``m`` taken from the binary exponent of its largest argument so as to
    bring that argument to the band's nearer edge, to within a factor 4.
    Powers of two scale exactly, so this keeps the mean ``A_0`` and the stop
    threshold in range at both ends of the float range:
    ``R_F(5e-324, 5e-324, 0)`` and ``R_F(1e308, 1e308, 1e308)`` are finite.
    Every other entry keeps its bits.
    """
    xy = np.maximum(x, y)
    big = np.maximum(xy, z)
    mid = np.maximum(np.minimum(x, y), np.minimum(xy, z))
    # the reductions start at the band's edges, so an empty array passes
    if mid.min(initial=_RF_TINY) >= _RF_TINY and big.max(initial=_RF_HUGE) <= _RF_HUGE:
        return _rf_duplication(x, y, z)
    if (mid == 0.0).any():
        raise ValueError("R_F diverges: two or more of its arguments are zero")
    e = np.frexp(big)[1]
    m = (np.clip(e, *_RF_EXPS) - e) // 2
    rf = np.ldexp(_rf_duplication(np.ldexp(x, 2 * m), np.ldexp(y, 2 * m), np.ldexp(z, 2 * m)), m)
    return rf if isinstance(rf, np.ndarray) else float(rf)


def _rf_duplication(x, y, z):
    """``R_F`` by duplication, on arguments that need no scaling."""
    a0 = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = _RF_STOP * np.maximum(np.maximum(abs(dx), abs(dy)), abs(a0 - z))
    an, scale = a0, 1.0
    # A_n > 0 on every admitted entry, so the stop test takes no abs
    while (q * scale > an).any():
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        an = 0.25 * (an + lam)
        scale *= 0.25
    X = dx * scale / an
    Y = dy * scale / an
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    series = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
              - 5.0 * e2 * e2 * e2 / 208.0 + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)
    rf = series / np.sqrt(an)
    return rf if isinstance(rf, np.ndarray) else float(rf)


#: relative gap ``|x - y| / x`` below which the AGM takes its last step: the
#: arithmetic mean is then within ``gap^2 / 16 < 2^-56`` of ``M(x, y)``
_AGM_GAP = 2.0 ** -26
#: most AGM steps: from ``y / x = 1e-300`` the gap falls below ``_AGM_GAP``
#: in 12 steps, as ``y / x`` goes ``r -> 2 sqrt(r) / (1 + r)``
_AGM_STEPS = 16


def agm(x, y):
    """Arithmetic-geometric mean ``M(x, y)`` of ``x >= y > 0`` (DLMF §19.8(i)).

    Floats or float arrays of one shape, like :func:`carlson_rf`.  The two
    means can stay an ulp apart indefinitely, so the loop stops on the relative
    gap ``_AGM_GAP``, not on equality, and after at most ``_AGM_STEPS`` steps.
    """
    for _ in range(_AGM_STEPS):
        if not (np.abs(x - y) > _AGM_GAP * x).any():
            break
        x, y = 0.5 * (x + y), np.sqrt(x * y)
    m = 0.5 * (x + y)
    return m if isinstance(m, np.ndarray) else float(m)
