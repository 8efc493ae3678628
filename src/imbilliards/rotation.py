"""Rotation numbers of caustic-tangent orbit families in an ellipse.

Chords tangent to a confocal conic ``x^2/(a^2 - lam) + y^2/(b^2 - lam) = 1``
of an ellipse with semi-axes ``a > b`` wind around the boundary at a rate
that depends only on the caustic parameter ``lam``.  This module classifies
the caustic by ``lam``, evaluates the rotation number as a ratio of two
complete elliptic integrals, and provides the closed-form limiting
rotation number of small-radius Larmor perturbations, parameterized by
``nu0 = a^2 / (a^2 - b^2)``.

The rotation number is

``rho(lam) = num / den``,
``num = integral of f over (0, lo)``,
``den = integral of f over (hi, a^2)``,

with ``f(t) = |(lam - t)(b^2 - t)(a^2 - t)|^{-1/2}``,
``lo = min(b^2, lam)`` and ``hi = max(b^2, lam)``: the same two integrals on
both caustic branches.  Both are complete integrals in Carlson's symmetric
form (``R_F`` as in DLMF §19.16.1, reduced as in §19.29),

``num = 2 sqrt(lo) R_F(hi (a^2 - lo), a^2 (hi - lo), (hi - lo)(a^2 - lo))``,
``den = 2 R_F(a^2 - lo, hi - lo, 0) = pi / M(sqrt(a^2 - lo), sqrt(hi - lo))``.

``num`` is evaluated by Carlson's duplication and ``den``, a complete
integral, by the arithmetic-geometric mean ``M`` (DLMF §19.22.1), both to full
double precision.  ``rho`` is unchanged when ``a^2``, ``b^2`` and ``lam`` are
scaled together, so both are evaluated at ``a = 1``, on ``b^2/a^2`` and
``lam/a^2``: no square of a size leaves the float range, and at ``a = 2`` the
scaling is exact.  :func:`rotation_table` classifies each ``lam`` with
:func:`caustic_kind` and then evaluates every caustic of the table in one
array pass; :func:`rot_lambda` is that pass on one ``lam``.  This
normalization is pinned down by its endpoint behaviour, which the tests
check:

* ``rho -> 0``  as ``lam -> 0+`` (grazing chords),
* ``rho -> 1``  from both sides as ``lam -> b^2`` (``hi - lo -> 0`` makes both
  integrals diverge logarithmically, at identical rates),
* ``rho -> (2/pi) * arcsin(b/a)`` as ``lam -> a^2-``, the classical value for
  chords through the center.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from ._solvers import agm, carlson_rf
from .errors import LambdaDegenerate, Nu0OutOfRange

__all__ = [
    "CausticKind",
    "caustic_kind",
    "rot_lambda",
    "limiting_rotation",
    "confocal_param",
    "rotation_table",
    "check_axes",
]

#: Relative half-width (times ``a^2``) of the degeneracy guard around
#: ``lam = b^2`` and ``lam = a^2``.
DEGENERACY_TOL = 1e-12


class CausticKind(Enum):
    """Type of the confocal conic at parameter ``lam``."""

    EXTERIOR = "exterior"
    ELLIPSE = "ellipse"
    DEGENERATE_MAJOR = "degenerate-major"
    HYPERBOLA = "hyperbola"
    DEGENERATE_MINOR = "degenerate-minor"
    IMAGINARY = "imaginary"


def check_axes(a: float, b: float) -> None:
    """Raise ``ValueError`` unless ``a > b > 0`` are finite semi-axes."""
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"semi-axis {name} must be finite, got {value}")
    if not a > b > 0.0:
        raise ValueError(f"need a > b > 0, got a={a}, b={b}")


def caustic_kind(a: float, b: float, lam: float) -> CausticKind:
    """Classify the confocal conic with parameter ``lam``.

    Confocal ellipses for ``0 < lam < b^2``, confocal hyperbolas for
    ``b^2 < lam < a^2``; the two degenerate values (the focal segment of the
    major axis, and the minor axis line) are detected within an absolute
    tolerance of ``1e-12 * a^2``.  The tests run on ``b^2/a^2`` and
    ``lam/a^2``, so no square of a size leaves the float range.
    """
    check_axes(a, b)
    return _kind((b / a) * (b / a), lam, lam / a / a)


def _kind(rb: float, lam: float, rl: float) -> CausticKind:
    """:func:`caustic_kind` on the ratios ``rb = b^2/a^2`` and ``rl = lam/a^2``;
    ``lam`` itself gives the sign, which ``rl`` loses if it underflows."""
    if not math.isfinite(lam):
        raise ValueError(f"caustic parameter must be finite, got {lam}")
    if abs(rl - rb) <= DEGENERACY_TOL:
        return CausticKind.DEGENERATE_MAJOR
    if abs(rl - 1.0) <= DEGENERACY_TOL:
        return CausticKind.DEGENERATE_MINOR
    if lam <= 0.0:
        return CausticKind.EXTERIOR
    if rl < rb:
        return CausticKind.ELLIPSE
    if rl < 1.0:
        return CausticKind.HYPERBOLA
    return CausticKind.IMAGINARY


#: the kinds with a rotation number
_CAUSTICS = (CausticKind.ELLIPSE, CausticKind.HYPERBOLA)


def _rho(rb: float, rl):
    """Rotation numbers at ``rl = lam/a^2``, a float or an array of ellipse
    and hyperbola caustics, with ``rb = b^2/a^2``: ``num / den`` of the module
    docstring at ``a = 1``."""
    lo, hi = np.minimum(rb, rl), np.maximum(rb, rl)
    num = 2.0 * np.sqrt(lo) * carlson_rf(hi * (1.0 - lo), hi - lo, (hi - lo) * (1.0 - lo))
    den = math.pi / agm(np.sqrt(1.0 - lo), np.sqrt(hi - lo))
    return num / den


def rot_lambda(a: float, b: float, lam: float) -> float:
    """Rotation number of the chord family tangent to the caustic ``lam``.

    Defined for ellipse caustics (``0 < lam < b^2``), where it increases from
    0 to 1, and for hyperbola caustics (``b^2 < lam < a^2``), where it
    decreases from 1 to ``(2/pi)*arcsin(b/a)``.  Both integrals are
    evaluated as complete elliptic integrals (see the module docstring),
    which have no endpoint singularity left to integrate and keep full
    relative precision up to the degeneracy guards at ``b^2`` and ``a^2``.
    """
    check_axes(a, b)
    rb, rl = (b / a) * (b / a), lam / a / a
    kind = _kind(rb, lam, rl)
    if kind in (CausticKind.DEGENERATE_MAJOR, CausticKind.DEGENERATE_MINOR):
        raise LambdaDegenerate(
            f"rotation number is not defined at the degenerate caustic "
            f"lam={lam} (a^2={a*a}, b^2={b*b})"
        )
    if kind not in _CAUSTICS:
        raise ValueError(
            f"rotation number requires a real interior caustic; "
            f"lam={lam} gives a {kind.value} conic"
        )
    return float(_rho(rb, rl))


def limiting_rotation(nu0: float) -> float:
    """Limiting rotation number ``arccos(1 - 2/nu0) / pi``.

    ``nu0`` is the shape parameter ``a^2/(a^2 - b^2)`` of the ellipse (see
    :func:`confocal_param`); the formula requires ``nu0 >= 1``.  At
    ``nu0 = 2`` (the aspect ratio ``a^2 = 2 b^2``) the value is exactly 0.5,
    and only there does it agree with the central-chord limit
    ``(2/pi)*arcsin(b/a)`` of :func:`rot_lambda`; in general the two are
    complementary, ``limiting_rotation(nu0) = 1 - (2/pi)*arcsin(b/a)``.
    """
    if not math.isfinite(nu0) or nu0 < 1.0:
        raise Nu0OutOfRange(f"shape parameter must satisfy nu0 >= 1, got {nu0}")
    return math.acos(1.0 - 2.0 / nu0) / math.pi


def confocal_param(a: float, b: float) -> float:
    """Shape parameter ``a^2 / (a^2 - b^2)`` of an ellipse with ``a > b``."""
    check_axes(a, b)
    return 1.0 / (1.0 - (b / a) * (b / a))


def rotation_table(
    a: float, b: float, lambdas: Sequence[float]
) -> list[tuple[float, str, float]]:
    """Rows ``(lam, caustic kind, rotation number)`` for a list of parameters.

    Degenerate or non-caustic parameters get a NaN rotation number instead of
    raising, so tables can span the full range of ``lam``.  The caustics are
    evaluated together, in one array pass.
    """
    check_axes(a, b)
    rb = (b / a) * (b / a)
    lams = [float(lam) for lam in lambdas]
    kinds = [_kind(rb, lam, lam / a / a) for lam in lams]
    rhos = [math.nan] * len(lams)
    caustic = [i for i, kind in enumerate(kinds) if kind in _CAUSTICS]
    values = _rho(rb, np.array([lams[i] / a / a for i in caustic]))
    for i, rho in zip(caustic, values.tolist()):
        rhos[i] = rho
    return [(lam, kind.value, rho) for lam, kind, rho in zip(lams, kinds, rhos)]
