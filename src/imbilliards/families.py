"""Closed-form periodic-orbit families of the inverse magnetic billiard map.

Every symmetric periodic orbit constructed here is seeded from explicit
Cartesian data (a launch point on the boundary and a launch direction) and is
then *re-validated dynamically*: the seed is pushed through the actual
chord/arc map and must return to its starting phase point within a closure
tolerance.  The resulting :class:`PeriodicOrbit` carries the measured step
data, so every closed-form trace formula in this module can be checked against
the numerically composed stability matrix.

Families implemented:

* 2-periodic (stadium-shaped) orbits in the circle, the ellipse (major and
  minor axis), the superellipse ``x^{2k} + y^{2k} = 1`` (Larmor centers on an
  axis or on a diagonal), and the stadium curve itself (orbit through the flat
  sides or through the caps).
* Symmetric 3-periodic orbits in the circle, with the cubic-in-``alpha`` trace
  for equal incidence angles and the constant/cubic coefficients of the
  general dihedral trace.
* Symmetric 4-periodic orbits in the circle, the ellipse (Larmor centers on
  the diagonals of the inscribed rectangle) and the superellipse (Larmor
  centers on the diagonals or on the coordinate axes), each with a rotation
  number of ``1/4`` or ``3/4``.
* The complementary-orbit duality that turns a rotation-``1/4`` orbit into a
  rotation-``3/4`` orbit through the same eight boundary points.
* A damped Newton finder for periodic points of ``T^n`` in the map's own
  coordinates ``(s, theta)``, used to validate the closed-form constructions
  and to detect the degeneracy of parabolic families.

Rational trace formulas are evaluated exactly as closed forms in the boundary
coordinates; each one is cross-checked in the test-suite against the composed
product of step Jacobians along the dynamically validated orbit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._solvers import SameSignError, brentq, minimize_bounded
from .curves import Circle, Curve, Ellipse, Stadium, Superellipse
from .dynamics import PhasePoint, StepData, _arc_gap, iterate
from .errors import (
    BeyondXHat,
    BilliardError,
    InfeasibleStadium,
    MuTooLarge,
    NoConvergence,
    NotPeriodic,
    NotSymmetric,
    RootNotBracketed,
    SingularJacobian,
    X0OutOfRange,
)
from .stability import (
    CLOSURE_TOL,
    TwoPeriodicParams,
    _closed_orbit,
    compose,
    trace2_closed,
)

__all__ = [
    "PeriodicOrbit",
    "FamilyScan",
    "EllipseFourRecord",
    "two_periodic_circle",
    "two_periodic_ellipse",
    "two_periodic_superellipse_axis",
    "trace2_superellipse_axis",
    "two_periodic_superellipse_diag",
    "trace2_superellipse_diag",
    "superellipse_diag_ratio",
    "superellipse_diag_tangential",
    "two_periodic_stadium",
    "three_periodic_circle",
    "trace3_symmetric",
    "trace3_coefficients",
    "four_periodic_circle",
    "trace4_circle_quartic",
    "four_periodic_ellipse",
    "trace4_ellipse",
    "ellipse4_reference_roots",
    "four_periodic_superellipse_diag",
    "trace4_superellipse_diag",
    "x_hat",
    "four_periodic_superellipse_axis",
    "trace4_superellipse_axis",
    "parabolic_roots",
    "dual_orbit",
    "find_periodic_newton",
    "scan_family",
    "FAMILIES",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_HALF = Fraction(1, 2)
_THIRD, _TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
_QUARTER, _THREE_QUARTERS = Fraction(1, 4), Fraction(3, 4)
#: the two rotations of the n-periodic families, by period n
_ROTATIONS = {3: (_THIRD, _TWO_THIRDS), 4: (_QUARTER, _THREE_QUARTERS)}


# --------------------------------------------------------------------------
# orbit container and seed validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicOrbit:
    """An n-periodic orbit validated through the actual map.

    ``points`` holds the *n* phase points at the start of each step (launch
    point of each chord), ``boundary_points`` the ``2n`` Cartesian boundary
    points visited in order: chord launch, chord exit, next launch, ...
    ``rotation`` is the measured winding of the orbit around the boundary per
    period, e.g. ``Fraction(3, 4)`` for an orbit whose arcs sweep ``3*pi/2``.
    """

    curve: Curve
    n: int
    points: tuple[PhasePoint, ...]
    mu: float
    rotation: Fraction
    residual: float
    boundary_points: tuple[np.ndarray, ...]
    steps: tuple[StepData, ...]


def _launch_phase(curve: Curve, point: Sequence[float], direction: Sequence[float]) -> PhasePoint:
    """Phase point for a launch from a Cartesian boundary point in a direction
    (of any length) pointing into the table."""
    v = np.asarray(direction, dtype=float)
    frame = curve.frame_of(point)
    return PhasePoint(s=frame.s, theta=frame.angle(v / np.linalg.norm(v)))


def _orbit_from_seed(
    curve: Curve,
    mu: float,
    z0: PhasePoint,
    n: int,
    expected_rotation: Fraction | None,
) -> PeriodicOrbit:
    """Iterate a seed n steps, check closure, and package the orbit."""
    traj, residual = _closed_orbit(curve, mu, z0, n)
    return _package_orbit(curve, mu, z0, traj, residual, expected_rotation)


def _package_orbit(curve: Curve, mu: float, z0: PhasePoint,
                   traj: list[tuple[PhasePoint, StepData]], residual: float,
                   expected_rotation: Fraction | None) -> PeriodicOrbit:
    """The orbit of the closed trajectory ``traj`` of the seed ``z0``, whose
    closure residual is ``residual``.

    Raises :class:`NotPeriodic` when the measured winding disagrees with
    ``expected_rotation``.
    """
    n = len(traj)
    steps = tuple(d for _, d in traj)
    length = curve.total_length()
    advance = sum((d.s2 - d.s0) % length for d in steps)
    winding = round(advance / length)
    rotation = Fraction(winding, n)
    if expected_rotation is not None and rotation != expected_rotation:
        raise NotPeriodic(
            f"orbit closes but winds {rotation} per period, expected {expected_rotation}"
        )
    launch_points = (z0,) + tuple(traj[i][0] for i in range(n - 1))
    # each step's launch and chord-exit frames, as the step resolved them
    boundary = [frame.point for d in steps for frame in d.frames[:2]]
    return PeriodicOrbit(
        curve=curve,
        n=n,
        points=launch_points,
        mu=mu,
        rotation=rotation,
        residual=residual,
        boundary_points=tuple(boundary),
        steps=steps,
    )


def _exponent(k: int) -> int:
    """The superellipse exponent as an int; it must be an integer >= 2."""
    if k < 2 or int(k) != k:
        raise ValueError(f"superellipse exponent k must be an integer >= 2, got {k}")
    return int(k)


def _se_q(k: int) -> float:
    """``q = 2^{-1/(2k)}``: the abscissa where ``x^{2k} + y^{2k} = 1`` meets
    the diagonal ``y = x``."""
    return 2.0 ** (-1.0 / (2 * k))


def _pow_for(x):
    """The power function for ``x``: ``pow`` on a float, ``np.float_power``
    on an array.  Both call the C library's ``pow``, so a closed form gives
    the same bits at a point of an array as at that float; numpy's ``**`` on
    float arrays may use a SIMD ``pow`` that differs from it in the last bit,
    which the rational trace forms amplify."""
    return np.float_power if isinstance(x, np.ndarray) else pow


def _se_y(k: int, x: float) -> float:
    """The upper graph ``y = (1 - |x|^{2k})^{1/(2k)}`` of the superellipse,
    at a float or at every point of an array."""
    pw = _pow_for(x)
    return pw(1.0 - pw(abs(x), 2 * k), 1.0 / (2 * k))


def _stray(x, inside):
    """``None`` if ``inside`` holds everywhere, else the first value of ``x``
    where it fails.  ``x`` is a float or an array, and ``inside`` the
    domain test evaluated on it: a bool or a boolean array of its shape."""
    if isinstance(x, np.ndarray):
        bad = np.flatnonzero(~inside)
        return x.flat[bad[0]] if bad.size else None
    return None if inside else x


def _root(g: Callable[[float], float], lo: float, hi: float, what: str) -> float:
    """The root of ``g`` on ``[lo, hi]`` by Brent's method to ``xtol = 1e-14``;
    raises :class:`RootNotBracketed` (naming ``what``) without a sign change."""
    try:
        return brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    except SameSignError as exc:
        raise RootNotBracketed(f"no sign change of {what} on ({lo:.12g}, {hi:.12g})") from exc


@functools.lru_cache(maxsize=64)
def _normalize_rotation(rot: Fraction | str, n: int) -> Fraction:
    """The rotation ``rot`` as one of the two of the n-periodic families."""
    value = Fraction(rot)
    allowed = _ROTATIONS[n]
    if value not in allowed:
        names = ", ".join(str(a) for a in allowed)
        raise ValueError(f"rotation must be one of {names}, got {rot!r}")
    return value


# --------------------------------------------------------------------------
# 2-periodic families
# --------------------------------------------------------------------------

def _symmetric(alpha: float, product: float) -> TwoPeriodicParams:
    """Parameters of a 2-periodic orbit from its closed ``alpha`` and
    ``alpha*beta``.  In every family here the half-turn about the table's
    centre maps each chord onto the other and a mirror of the table swaps
    each chord's two ends, so all four boundary angles agree and
    ``beta = delta``; the trace is ``(alpha*beta - 2)^2 - 2``."""
    beta = product / alpha
    return TwoPeriodicParams(alpha, beta, beta)


def two_periodic_circle(R: float, mu: float) -> tuple[PeriodicOrbit, TwoPeriodicParams]:
    """Stadium-shaped 2-periodic orbit in a circle of radius ``R``.

    The chord of length ``2*sqrt(R^2 - mu^2)`` runs parallel to a diameter at
    distance ``mu`` below it; both Larmor arcs are half circles.  The launch
    angle satisfies ``cos(theta0) = mu / R``, so ``alpha = 2*sqrt(R^2 - mu^2)/mu``
    and ``beta = delta = 2*cot(theta0) = 4/alpha``: ``alpha * beta = 4`` and the
    trace equals 2 for every radius, the whole family is parabolic.
    """
    curve = Circle(R)
    if not 0.0 < mu < R:
        raise MuTooLarge(f"need 0 < mu < R for the chord to exist, got mu={mu}, R={R}")
    half_chord = math.sqrt(R * R - mu * mu)
    z0 = _launch_phase(curve, (-half_chord, -mu), (1.0, 0.0))
    orbit = _orbit_from_seed(curve, mu, z0, 2, _HALF)
    return orbit, _symmetric(2.0 * half_chord / mu, 4.0)


def two_periodic_ellipse(
    a: float, b: float, mu: float, axis: str = "major"
) -> tuple[PeriodicOrbit, TwoPeriodicParams]:
    """Stadium-shaped 2-periodic orbit of an ellipse along a symmetry axis.

    ``axis="major"`` places the chord parallel to the major axis at height
    ``-mu`` (hyperbolic for every feasible radius, since
    ``alpha*beta = 4a^2/b^2 > 4``); ``axis="minor"`` places it parallel to the
    minor axis (``alpha*beta = 4b^2/a^2 < 4``, elliptic except for the
    aspect ratio ``a^2 = 2b^2``, where the trace is exactly -2).

    The product does not depend on ``mu``: at the major-axis chord's endpoint
    ``(x1, -mu)`` the normal is along ``(x1/a^2, -mu/b^2)``, so
    ``cot(theta) = mu a^2/(b^2 x1)``, while ``alpha = 2 x1/mu``; hence
    ``alpha*beta = 2 alpha cot(theta) = 4a^2/b^2`` (swap ``a`` and ``b`` on
    the minor axis).  The Larmor half-turn beyond the endpoint first touches
    the ellipse at ``mu = 2ab^2/(a^2 + b^2)`` (major) or ``2a^2 b/(a^2 + b^2)``
    (minor), which bounds the family.
    """
    curve = Ellipse(a, b)
    if axis not in ("major", "minor"):
        raise ValueError(f"axis must be 'major' or 'minor', got {axis!r}")
    cap = b if axis == "major" else a
    if not 0.0 < mu < cap:
        raise MuTooLarge(
            f"need 0 < mu < {cap} for the {axis}-axis chord to exist, got mu={mu}"
        )
    mu_max = 2.0 * a * b * cap / (a * a + b * b)
    if mu >= mu_max:
        raise InfeasibleStadium(
            f"Larmor arc of radius mu={mu} re-enters the ellipse prematurely; "
            f"the {axis}-axis stadium requires mu < {mu_max:.12g}"
        )
    if axis == "major":
        half_chord = a * math.sqrt(b * b - mu * mu) / b
        z0 = _launch_phase(curve, (-half_chord, -mu), (1.0, 0.0))
        product = 4.0 * a * a / (b * b)
    else:
        half_chord = b * math.sqrt(a * a - mu * mu) / a
        z0 = _launch_phase(curve, (mu, -half_chord), (0.0, 1.0))
        product = 4.0 * b * b / (a * a)
    orbit = _orbit_from_seed(curve, mu, z0, 2, _HALF)
    return orbit, _symmetric(2.0 * half_chord / mu, product)


def two_periodic_superellipse_axis(
    k: int, mu: float
) -> tuple[PeriodicOrbit, TwoPeriodicParams, tuple[float, float]]:
    """Axis-aligned 2-periodic orbit in ``x^{2k} + y^{2k} = 1``.

    The chord runs at height ``-mu`` between ``(-x1, -mu)`` and ``(x1, -mu)``
    with ``x1 = (1 - mu^{2k})^{1/(2k)}``.  Along this family

    ``alpha = 2*(1 - mu^{2k})^{1/(2k)} / mu``,
    ``beta = delta = 2*(mu^{-2k} - 1)^{(1-2k)/(2k)}``,

    which satisfy ``alpha = beta * (mu^{-2k} - 1)``.  The trace
    ``(alpha*beta - 2)^2 - 2`` passes through -2 tangentially at
    ``mu* = (2^{k/(k-1)} + 1)^{-1/(2k)}`` and crosses +2 at
    ``mu** = 2^{-1/(2k)}``: the orbit is elliptic on ``(0, mu*)`` and
    ``(mu*, mu**)``, parabolic at the two thresholds, hyperbolic beyond.
    Returns ``(orbit, params, (mu_star, mu_double_star))``.
    """
    k = _exponent(k)
    if not 0.0 < mu < 1.0:
        raise MuTooLarge(f"need 0 < mu < 1, got mu={mu}")
    half_chord = _se_y(k, mu)
    curve = Superellipse(k)
    z0 = _launch_phase(curve, (-half_chord, -mu), (1.0, 0.0))
    orbit = _orbit_from_seed(curve, mu, z0, 2, _HALF)
    params = _symmetric(2.0 * half_chord / mu, _se_axis_product(k, mu))
    return orbit, params, _superellipse_axis_thresholds(k)


def trace2_superellipse_axis(k: int, mu: float) -> float:
    """Closed-form trace ``(alpha*beta - 2)^2 - 2`` of the axis-aligned
    2-periodic superellipse family, with
    ``alpha*beta = 4 (mu^{-2k} - 1)^{(1-k)/k}`` (see
    :func:`two_periodic_superellipse_axis`), at a float ``mu`` or at every
    point of an array; each must lie in ``(0, 1)``."""
    k = _exponent(k)
    bad = _stray(mu, (0.0 < mu) & (mu < 1.0))
    if bad is not None:
        raise MuTooLarge(f"need 0 < mu < 1, got mu={bad}")
    return _pow_for(mu)(_se_axis_product(k, mu) - 2.0, 2) - 2.0


def _se_axis_product(k: int, mu: float) -> float:
    """``alpha*beta = 4 (mu^{-2k} - 1)^{(1-k)/k}`` of the axis-aligned
    2-periodic superellipse family, at a float or at every point of an array."""
    pw = _pow_for(mu)
    return 4.0 * pw(pw(mu, -2 * k) - 1.0, (1.0 - k) / k)


def _superellipse_axis_thresholds(k: int) -> tuple[float, float]:
    """``(mu*, mu**)`` of the axis-aligned 2-periodic superellipse family:
    ``mu* = (2^{k/(k-1)} + 1)^{-1/(2k)}`` and ``mu** = 2^{-1/(2k)}``."""
    return (2.0 ** (k / (k - 1.0)) + 1.0) ** (-1.0 / (2 * k)), _se_q(k)


def _diag_power_sum_ratio(k: int, x0: float, y0: float) -> float:
    """Ratio of the plain to the alternating power sum of degree ``2k - 2``.

    ``f = sum_j y0^j x0^{2k-2-j} / sum_j (-1)^j y0^j x0^{2k-2-j}``; these are
    the factored forms of ``(y0^{2k-1} - x0^{2k-1})/(y0 - x0)`` and
    ``(y0^{2k-1} + x0^{2k-1})/(y0 + x0)``, so ``f`` interpolates from
    ``1/(2k - 1)`` at ``x0 = -2^{-1/(2k)}`` through 1 at ``x0 = 0`` up to
    ``2k - 1`` at ``x0 = +2^{-1/(2k)}``.
    """
    pw = _pow_for(x0)
    plain = sum(pw(y0, j) * pw(x0, 2 * k - 2 - j) for j in range(2 * k - 1))
    alt = sum((-1.0) ** j * pw(y0, j) * pw(x0, 2 * k - 2 - j) for j in range(2 * k - 1))
    return plain / alt


def superellipse_diag_ratio(k: int, x0: float) -> float:
    """Power-sum ratio ``f`` of the diagonal 2-periodic family at ``x0``.

    Unlike the orbit constructor this accepts the closed interval
    ``[-q, q]``: the ratio is a smooth function of the launch abscissa and
    takes the exact values ``1/(2k - 1)`` and ``2k - 1`` at the endpoints,
    where the chord degenerates and no orbit exists.
    """
    k = _exponent(k)
    q = _se_q(k)
    bad = _stray(x0, (-q <= x0) & (x0 <= q))
    if bad is not None:
        raise X0OutOfRange(
            f"the diagonal family ratio is defined on [-{q:.12g}, {q:.12g}], got x0={bad}"
        )
    return _diag_power_sum_ratio(k, x0, _se_y(k, x0))


def two_periodic_superellipse_diag(
    k: int, x0: float
) -> tuple[PeriodicOrbit, TwoPeriodicParams, float]:
    """Diagonal 2-periodic orbit in ``x^{2k} + y^{2k} = 1``.

    The chord joins ``(x0, y0)`` to ``(-y0, -x0)`` (direction ``-(1,1)``),
    with ``y0 = (1 - x0^{2k})^{1/(2k)}``; the Larmor centers sit on the
    diagonal ``y = x``.  Here ``ell1 = sqrt(2)*(x0 + y0)`` and
    ``mu = (y0 - x0)/sqrt(2)``, so ``alpha = 2(x0 + y0)/(y0 - x0)``, and ``x0``
    ranges over the open interval ``(-q, q)`` with ``q = 2^{-1/(2k)}``.  With
    ``m = 2k - 1`` the launch angle has
    ``cot(theta0) = (y0^m - x0^m)/(y0^m + x0^m)``, so
    ``alpha*beta = 2 alpha cot(theta0) = 4 f``.

    The returned ``f`` value (ratio of power sums, see the trace identities
    ``trace - 2 = 16 f (f - 1)`` and ``trace + 2 = 4 (2f - 1)^2``) classifies
    the orbit: elliptic exactly where ``0 < f < 1`` excluding ``f = 1/2``,
    parabolic at ``f ∈ {1/2, 1}`` and hyperbolic where ``f > 1``.  In terms of
    ``x0`` that makes the family elliptic on ``(-q, 0)`` apart from one
    tangential point and hyperbolic on ``(0, q)``; the verdict carried by the
    trace, not a printed label, is authoritative here.
    """
    k = _exponent(k)
    q = _se_q(k)
    if not -q < x0 < q:
        raise X0OutOfRange(
            f"diagonal chords require x0 in (-{q:.12g}, {q:.12g}), got x0={x0}"
        )
    y0 = _se_y(k, x0)
    mu = (y0 - x0) / _SQRT2
    curve = Superellipse(k)
    z0 = _launch_phase(curve, (x0, y0), (-1.0, -1.0))
    orbit = _orbit_from_seed(curve, mu, z0, 2, _HALF)
    f_value = _diag_power_sum_ratio(k, x0, y0)
    return orbit, _symmetric(2.0 * (x0 + y0) / (y0 - x0), 4.0 * f_value), f_value


def trace2_superellipse_diag(k: int, x0: float) -> float:
    """Closed-form trace ``2 + 16 f (f - 1)`` of the diagonal 2-periodic
    superellipse family, ``f`` its power-sum ratio
    (:func:`superellipse_diag_ratio`), at a float ``x0`` or at every point of
    an array; each must lie in ``[-2^{-1/(2k)}, 2^{-1/(2k)}]``."""
    f = superellipse_diag_ratio(k, x0)
    return 2.0 + 16.0 * f * (f - 1.0)


def superellipse_diag_tangential(k: int) -> tuple[float, float]:
    """Locate the tangential (trace = -2) point of the diagonal family.

    Solves ``f(x0) = 1/2`` on ``(-2^{-1/(2k)}, 0)`` by bracketed root-finding
    (the ratio increases continuously from ``1/(2k-1) < 1/2`` to 1, so a
    unique interior root exists).  Returns ``(x0, mu)``.
    """
    k = _exponent(k)

    def g(x0: float) -> float:
        return _diag_power_sum_ratio(k, x0, _se_y(k, x0)) - 0.5

    x_t = _root(g, -_se_q(k) + 1e-12, -1e-12, f"f - 1/2 for k={k}")
    return x_t, (_se_y(k, x_t) - x_t) / _SQRT2


def two_periodic_stadium(
    Lside: float, R: float, mu: float, kind: str = "caps"
) -> tuple[PeriodicOrbit, TwoPeriodicParams]:
    """2-periodic orbit of the stadium with flat sides ``y = ±R``.

    ``kind="sides"`` bounces between the two straight segments: both chords
    are orthogonal to the flats, so ``alpha = 2R/mu``, ``beta = delta = 0``
    exactly and the trace is exactly 2 (parabolic) for every
    ``2*mu < Lside``.  ``kind="caps"`` runs along the long axis through both
    semicircular caps; with ``m = sqrt(R^2 - mu^2)/mu`` one gets
    ``alpha = Lside/mu + 2m`` and ``beta = delta = 2/m``, so
    ``alpha*beta = 4 + 2 Lside/sqrt(R^2 - mu^2) > 4``, beyond the upper
    parabolic threshold of the convex two-bump analysis: hyperbolic for every
    ``mu < R``.
    """
    curve = Stadium(Lside, R)
    if kind not in ("sides", "caps"):
        raise ValueError(f"kind must be 'sides' or 'caps', got {kind!r}")
    if kind == "sides":
        if not 0.0 < 2.0 * mu < Lside:
            raise MuTooLarge(
                f"side-to-side orbit needs 0 < 2*mu < side length, got mu={mu}, side={Lside}"
            )
        z0 = _launch_phase(curve, (mu, -R), (0.0, 1.0))
        return _orbit_from_seed(curve, mu, z0, 2, _HALF), _symmetric(2.0 * R / mu, 0.0)
    if not 0.0 < mu < R:
        raise MuTooLarge(f"cap-to-cap orbit needs 0 < mu < R, got mu={mu}, R={R}")
    xr = math.sqrt(R * R - mu * mu)
    z0 = _launch_phase(curve, (-(Lside / 2.0 + xr), -mu), (1.0, 0.0))
    orbit = _orbit_from_seed(curve, mu, z0, 2, _HALF)
    return orbit, _symmetric((Lside + 2.0 * xr) / mu, 4.0 + 2.0 * Lside / xr)


# --------------------------------------------------------------------------
# 3-periodic families
# --------------------------------------------------------------------------

def trace3_symmetric(theta: float, alpha: float, rot: Fraction | str = "1/3") -> float:
    """Trace of the 3-step stability matrix for equal incidence angles.

    Valid for dihedral-symmetric 3-periodic orbits: all six boundary angles
    equal ``theta``, all chords equal ``ell``, all arc half-turning angles
    equal ``pi/3`` (rotation 1/3) or ``2*pi/3`` (rotation 2/3), and
    ``alpha = ell / mu``.  The trace is the cubic polynomial in ``alpha``
    below; its coefficients are independent of the boundary curvature.
    """
    rotation = _normalize_rotation(rot, 3)
    s, c = math.sin(theta), math.cos(theta)
    if s == 0.0:
        raise ValueError("incidence angle must have a nonzero sine")
    cot = c / s
    if rotation == _THIRD:
        c0 = 2.0 - 9.0 * cot**2 - 3.0 * _SQRT3 * cot**3
        c1 = (3.0 * c / (4.0 * s**4)) * (
            5.0 * _SQRT3 * c + _SQRT3 * math.cos(3.0 * theta)
            - 3.0 * s + 9.0 * math.sin(3.0 * theta)
        )
        c2 = (
            -3.0 * math.sin(math.pi / 3.0 + 2.0 * theta)
            * (c + math.sin(math.pi / 6.0 + 3.0 * theta)) / s**5
        )
        c3 = math.cos(math.pi / 6.0 - 2.0 * theta) ** 3 / s**6
    else:
        c0 = 2.0 - 9.0 * cot**2 + 3.0 * _SQRT3 * cot**3
        c1 = (3.0 * c / (4.0 * s**4)) * (
            -5.0 * _SQRT3 * c - _SQRT3 * math.cos(3.0 * theta)
            - 3.0 * s + 9.0 * math.sin(3.0 * theta)
        )
        c2 = (
            3.0 * math.sin(math.pi / 3.0 - 2.0 * theta)
            * (c + math.sin(math.pi / 6.0 - 3.0 * theta)) / s**5
        )
        c3 = -math.cos(math.pi / 6.0 + 2.0 * theta) ** 3 / s**6
    return c0 + alpha * (c1 + alpha * (c2 + alpha * c3))


def trace3_coefficients(
    thetas: Sequence[float], rot: Fraction | str = "1/3"
) -> tuple[float, float]:
    """Constant and cubic coefficients of the dihedral 3-periodic trace.

    For a 3-periodic orbit with equal chord lengths ``ell`` and equal arc
    half-turning angles (``pi/3`` or ``2*pi/3``), the trace of the composed
    stability matrix is a cubic polynomial in ``alpha = ell/mu`` whose
    coefficients depend only on the six boundary angles ``theta_0..theta_5``
    (launch, exit, launch, ... in orbit order).  With
    ``C_A = sum_{i in A} cot(theta_i)``:

    ``c0 = 2 - (3/4) C23 C45 - (3/8) C01 (2 C2345 + sign * sqrt(3) C23 C45)``

    where ``sign`` is +1 for rotation 1/3 and -1 for rotation 2/3, and

    ``c3 = ± cos(pi/6 ∓ (t1+t2)) cos(pi/6 ∓ (t3+t4)) cos(pi/6 ∓ (t0+t5)) / prod sin``

    with the upper signs for rotation 1/3.  Both formulas hold for arbitrary
    angle six-tuples (the matrix product is exactly cubic in ``alpha`` and
    curvature-free), which is how they are validated in the tests.  The
    linear and quadratic coefficients have no comparably compact form and are
    deliberately not reconstructed; generic work goes through the matrix
    product instead.
    """
    rotation = _normalize_rotation(rot, 3)
    if len(thetas) != 6:
        raise ValueError(f"expected six boundary angles, got {len(thetas)}")
    t = [float(x) for x in thetas]
    sines = [math.sin(x) for x in t]
    if any(s == 0.0 for s in sines):
        raise ValueError("all six angles must have nonzero sines")
    cot = [math.cos(x) / math.sin(x) for x in t]
    c01 = cot[0] + cot[1]
    c23 = cot[2] + cot[3]
    c45 = cot[4] + cot[5]
    c2345 = c23 + c45
    branch = 1.0 if rotation == _THIRD else -1.0
    c0 = 2.0 - 0.75 * c23 * c45 - 0.375 * c01 * (2.0 * c2345 + branch * _SQRT3 * c23 * c45)
    pair_sign = -branch  # pi/6 - (sums) for rotation 1/3, pi/6 + (sums) for 2/3
    num = (
        math.cos(math.pi / 6.0 + pair_sign * (t[1] + t[2]))
        * math.cos(math.pi / 6.0 + pair_sign * (t[3] + t[4]))
        * math.cos(math.pi / 6.0 + pair_sign * (t[0] + t[5]))
    )
    c3 = branch * num / math.prod(sines)
    return c0, c3


def _circle_polygon_angle(R: float, mu: float, n: int, winding: int) -> float:
    """Incidence angle of the symmetric n-periodic circle orbit.

    The angle is pinned down by the re-entry condition
    ``sin(q*pi/n - theta) * sqrt(R^2 + mu^2 - 2*R*mu*cos(theta)) = mu*sin(theta)``
    with ``q`` the winding; the admissible branch lies in
    ``((q-1)*pi/n, q*pi/n)``, where the left endpoint makes the left side
    positive and the right endpoint makes it negative, so the bracket always
    contains exactly the geometric root.
    """
    q = winding

    def g(theta: float) -> float:
        gap = math.sqrt(R * R + mu * mu - 2.0 * R * mu * math.cos(theta))
        return math.sin(q * math.pi / n - theta) * gap - mu * math.sin(theta)

    lo = (q - 1) * math.pi / n + 1e-12
    hi = q * math.pi / n - 1e-12
    return _root(g, lo, hi, f"the re-entry relation for R={R}, mu={mu}")


def three_periodic_circle(
    R: float, mu: float, rot: Fraction | str = "1/3"
) -> tuple[PeriodicOrbit, float, float]:
    """Symmetric 3-periodic orbit of the circle; returns (orbit, theta, trace).

    The incidence angle has the closed form
    ``cos(theta) = (3*mu + sqrt(4R^2 - 3mu^2)) / (4R)`` for rotation 1/3 and
    ``cos(theta) = (3*mu - sqrt(4R^2 - 3mu^2)) / (4R)`` for rotation 2/3,
    cross-checked here against the re-entry relation.  The closed trace
    evaluates to exactly 2 for every ``mu < R``: both rotation classes are
    parabolic throughout.
    """
    rotation = _normalize_rotation(rot, 3)
    curve = Circle(R)
    if not 0.0 < mu < R:
        raise MuTooLarge(f"need 0 < mu < R, got mu={mu}, R={R}")
    disc = math.sqrt(4.0 * R * R - 3.0 * mu * mu)
    if rotation == _THIRD:
        cos_theta = (3.0 * mu + disc) / (4.0 * R)
    else:
        cos_theta = (3.0 * mu - disc) / (4.0 * R)
    theta = math.acos(cos_theta)
    theta_implicit = _circle_polygon_angle(R, mu, 3, rotation.numerator)
    if abs(theta - theta_implicit) > 1e-9:
        raise NotPeriodic(
            f"closed-form incidence angle {theta!r} disagrees with the "
            f"re-entry relation root {theta_implicit!r}"
        )
    orbit = _orbit_from_seed(curve, mu, PhasePoint(s=0.0, theta=theta), 3, rotation)
    ell = 2.0 * R * math.sin(theta)
    trace = trace3_symmetric(theta, ell / mu, rotation)
    return orbit, theta, trace


# --------------------------------------------------------------------------
# 4-periodic: circle
# --------------------------------------------------------------------------

def trace4_circle_quartic(theta: float, alpha: float) -> float:
    """Quartic-in-``alpha`` trace of the symmetric 4-periodic circle orbit.

    ``alpha = R / mu``; the same polynomial covers both rotation numbers (the
    half-turning angles ``pi/4`` and ``3*pi/4`` enter only through
    ``cos(2*chi)^2`` terms).  Algebraically this expression equals
    ``(t^2 - 2)^2 - 2`` with ``t`` the trace of the single symmetric step
    matrix, which is how it was derived and how the tests validate it.
    """
    s, c = math.sin(theta), math.cos(theta)
    if s == 0.0:
        raise ValueError("incidence angle must have a nonzero sine")
    c2 = math.cos(2.0 * theta)
    poly = (
        2.0 * (1.0 - 10.0 * c * c + 17.0 * c**4)
        - 32.0 * alpha * c2 * c * (3.0 * c * c - 1.0)
        + 8.0 * alpha**2 * c2 * c2 * (5.0 + 7.0 * c2)
        - 64.0 * alpha**3 * c2**3 * c
        + 16.0 * alpha**4 * c2**4
    )
    return poly / s**4


def four_periodic_circle(
    R: float, mu: float, rot: Fraction | str = "1/4"
) -> tuple[PeriodicOrbit, float, float]:
    """Symmetric 4-periodic orbit of the circle; returns (orbit, theta, trace).

    The incidence angle solves the re-entry relation on
    ``(0, pi/4)`` (rotation 1/4) or ``(pi/2, 3*pi/4)`` (rotation 3/4); the
    quartic closed form then evaluates to exactly 2, so both families are
    parabolic for every ``mu < R``.
    """
    rotation = _normalize_rotation(rot, 4)
    curve = Circle(R)
    if not 0.0 < mu < R:
        raise MuTooLarge(f"need 0 < mu < R, got mu={mu}, R={R}")
    theta = _circle_polygon_angle(R, mu, 4, rotation.numerator)
    orbit = _orbit_from_seed(curve, mu, PhasePoint(s=0.0, theta=theta), 4, rotation)
    trace = trace4_circle_quartic(theta, R / mu)
    return orbit, theta, trace


# --------------------------------------------------------------------------
# 4-periodic: ellipse with Larmor centers on the rectangle diagonals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipseFourRecord:
    """Closed-form geometric data of the symmetric 4-periodic ellipse orbit.

    ``x2, y2`` are the magnitudes of the second launch point's coordinates
    (the point itself is ``(x2, y2)`` for rotation 1/4 and ``(x2, -y2)`` for
    rotation 3/4).  ``cos_theta0`` and ``cos_theta2`` are the cosines of the
    acute reference angles at the two launch points; for rotation 3/4 the
    interior launch angle at ``P0`` is the supplement, so the measured
    ``cos(theta0)`` equals the negative of the recorded value.
    """

    x0: float
    y0: float
    x2: float
    y2: float
    mu: float
    ell1: float
    ell3: float
    chi: float
    cos_theta0: float
    cos_theta2: float


def _ellipse4_interval(a: float, b: float) -> tuple[float, float, float]:
    """(lower endpoint, branch point, upper endpoint) of admissible x0.

    Orbits exist for ``x0`` in ``(a(a^2-b^2)/(a^2+b^2), a)``; the Larmor
    radius shrinks to zero at the interior branch point
    ``a^2/sqrt(a^2+b^2)``, which separates the rotation-3/4 branch (below)
    from the rotation-1/4 branch (above).
    """
    lo = a * (a * a - b * b) / (a * a + b * b)
    split = a * a / math.sqrt(a * a + b * b)
    return lo, split, a


def trace4_ellipse(a: float, b: float, x0: float) -> float:
    """Trace of the symmetric 4-periodic ellipse orbit as a rational function.

    One rational function in ``(x0, y0)`` with ``y0 = b*sqrt(1 - x0^2/a^2)``
    covers both rotation numbers.  All five numerator terms carry positive
    leading sign except the cubic one; the polynomial coefficients below are
    validated against the composed product of step Jacobians.
    """
    if not a > b > 0.0:
        raise ValueError(f"need a > b > 0, got a={a}, b={b}")
    bad = _stray(x0, (-a < x0) & (x0 < a))
    if bad is not None:
        raise X0OutOfRange(f"x0 must lie in (-a, a), got {bad}")
    pw = _pow_for(x0)
    # |x0| < a keeps the rounded radicand >= 0
    radicand = 1.0 - pw(x0 / a, 2)
    y0 = b * (np.sqrt(radicand) if isinstance(radicand, np.ndarray) else math.sqrt(radicand))
    a2, b2 = a * a, b * b
    d = a2 - b2
    num = (
        16.0 * b2 * b2 * d**4 * pw(x0, 4)
        - 16.0 * b2 * d**3 * (2.0 * a2**2 - 3.0 * a2 * b2 + 2.0 * b2**2) * pw(x0, 3) * y0
        + 2.0 * d**2
        * (8.0 * a2**4 - 40.0 * a2**3 * b2 + 49.0 * a2**2 * b2**2
           - 40.0 * a2 * b2**3 + 8.0 * b2**4)
        * pw(x0, 2) * pw(y0, 2)
        + 8.0 * a2 * d
        * (4.0 * a2**4 - 10.0 * a2**3 * b2 + 13.0 * a2**2 * b2**2
           - 10.0 * a2 * b2**3 + 4.0 * b2**4)
        * x0 * pw(y0, 3)
        + 8.0 * a2**2
        * (2.0 * a2**4 - 4.0 * a2**3 * b2 + 5.0 * a2**2 * b2**2
           - 4.0 * a2 * b2**3 + 2.0 * b2**4)
        * pw(y0, 4)
    )
    den = a2**2 * b2**2 * pw(y0, 2) * pw(b2 * x0 - a2 * (x0 + 2.0 * y0), 2)
    return num / den


def four_periodic_ellipse(
    a: float, b: float, x0: float, rot: Fraction | str = "1/4"
) -> tuple[PeriodicOrbit, EllipseFourRecord, float]:
    """Symmetric 4-periodic orbit of the ellipse with diagonal Larmor centers.

    For rotation 1/4 the orbit starts at ``P0 = (x0, -y0)`` moving straight
    up, exits at ``P1 = (x0, y0)`` and re-enters after a quarter Larmor turn
    at ``P2 = (x0 - mu, y0 + mu)``; for rotation 3/4 it starts at
    ``(x0, y0)`` moving straight down and the arc sweeps three quarter turns
    to ``(x0 + mu, mu - y0)``.  In both cases

    ``mu = 2ab*sqrt(a^2 + b^2 - (x0+y0)^2) / (a^2 + b^2)``,

    positive on each open branch of the admissible interval and vanishing at
    the branch point where the families meet.  Returns the dynamically
    validated orbit, the closed-form geometric record and the rational trace.
    """
    rotation = _normalize_rotation(rot, 4)
    quarter = rotation == _QUARTER
    lo, split, hi = _ellipse4_interval(a, b)
    if not lo < x0 < hi:
        raise X0OutOfRange(
            f"symmetric 4-periodic orbits require x0 in ({lo:.12g}, {hi:.12g}), got {x0}"
        )
    if quarter and not x0 > split:
        raise X0OutOfRange(
            f"rotation 1/4 lives on the branch ({split:.12g}, {hi:.12g}), got x0={x0}"
        )
    if not quarter and not x0 < split:
        raise X0OutOfRange(
            f"rotation 3/4 lives on the branch ({lo:.12g}, {split:.12g}), got x0={x0}"
        )
    y0 = b * math.sqrt(1.0 - (x0 / a) ** 2)
    a2, b2 = a * a, b * b
    c = x0 + y0
    disc = a2 + b2 - c * c
    root = math.sqrt(max(0.0, disc))
    mu = 2.0 * a * b * root / (a2 + b2)
    sign = 1.0 if quarter else -1.0
    x2 = (a2 * c - sign * a * b * root) / (a2 + b2)
    y2 = (b2 * c + sign * a * b * root) / (a2 + b2)
    record = EllipseFourRecord(
        x0=x0,
        y0=y0,
        x2=x2,
        y2=y2,
        mu=mu,
        ell1=2.0 * y0,
        ell3=2.0 * x2,
        chi=math.pi / 4.0 if quarter else 3.0 * math.pi / 4.0,
        cos_theta0=b2 * x0 / math.hypot(a2 * y0, b2 * x0),
        cos_theta2=a2 * y2 / math.hypot(a2 * y2, b2 * x2),
    )
    curve = Ellipse(a, b)
    if quarter:
        z0 = _launch_phase(curve, (x0, -y0), (0.0, 1.0))
    else:
        z0 = _launch_phase(curve, (x0, y0), (0.0, -1.0))
    orbit = _orbit_from_seed(curve, mu, z0, 4, rotation)
    trace = trace4_ellipse(a, b, x0)
    return orbit, record, trace


def ellipse4_reference_roots() -> tuple[float, float, float]:
    """Analytic reference values quoted for the ``a=3, b=2`` trace thresholds.

    Returns the triple ``(291/(9*sqrt(13)), sqrt((88731 + 1575*sqrt(217))/14534),
    291/(13*sqrt(61)))``.  Note that the first value evaluates to about 8.97
    and therefore lies *outside* the admissible interval ``(15/13, 3)``; the
    numeric root census of ``imbil scan`` on that ellipse is authoritative for
    the actual stability thresholds.
    """
    return (
        291.0 / (9.0 * math.sqrt(13.0)),
        math.sqrt((88731.0 + 1575.0 * math.sqrt(217.0)) / 14534.0),
        291.0 / (13.0 * math.sqrt(61.0)),
    )


# --------------------------------------------------------------------------
# 4-periodic: superellipse with Larmor centers on the diagonals
# --------------------------------------------------------------------------

def x_hat(k: int) -> float:
    """Upper parameter bound of the diagonal rotation-1/4 superellipse family.

    Beyond this value the Larmor circle meets the boundary in four points
    instead of two and the arc can no longer round the corner cleanly.  The
    threshold is where the distance from the Larmor center ``(y0, y0)`` to
    the diagonal boundary point ``(q, q)``, ``q = 2^{-1/(2k)}``, equals the
    Larmor radius ``mu = x0 - y0``: the root of
    ``sqrt(2)*(q - y0) - (x0 - y0)`` in ``(q, 1)``.
    """
    k = _exponent(k)
    q = _se_q(k)

    def g(x0: float) -> float:
        y0 = _se_y(k, x0)
        return _SQRT2 * (q - y0) - (x0 - y0)

    return _root(g, q + 1e-12, 1.0 - 1e-12, f"the tangency condition for k={k}")


def trace4_superellipse_diag(k: int, x0: float) -> float:
    """Trace of the diagonal symmetric 4-periodic superellipse orbit.

    A single rational function in ``(x0, y0)`` covers both rotation numbers;
    for rotation 3/4 substitute the starting abscissa of that family (where
    ``mu = y0 - x0``).  Writing ``m = 2k``, the trace is

    ``2 + 16 x0^2 (x0^{m-2} - y0^{m-2}) (x0^{2m-2} - y0^{2m-2})
      * (x0^{m-2} - y0^{m-2} + 2 x0^{-1} y0^{m-1})
      * (y0^{2m-2} - x0^{2m-2} + (x0 - y0) x0^{m-1} y0^{m-2})^2
      / (y0^{8m-12} (x0 - y0)^4)``.

    The third factor is evaluated with the ``x0^2`` prefactor multiplied
    through, which keeps the expression finite at ``x0 = 0``.
    """
    k = _exponent(k)
    bad = _stray(x0, (-1.0 < x0) & (x0 < 1.0))
    if bad is not None:
        raise X0OutOfRange(f"x0 must lie in (-1, 1), got {bad}")
    pw = _pow_for(x0)
    y0 = _se_y(k, x0)
    f1 = pw(x0, 2 * k - 2) - pw(y0, 2 * k - 2)
    f2 = pw(x0, 4 * k - 2) - pw(y0, 4 * k - 2)
    # x0^2 * (f1 + 2 y0^{2k-1} / x0), expanded to avoid the 1/x0 singularity
    f3 = x0 * x0 * f1 + 2.0 * x0 * pw(y0, 2 * k - 1)
    f4 = pw(y0, 4 * k - 2) - pw(x0, 4 * k - 2) + (x0 - y0) * pw(x0, 2 * k - 1) * pw(y0, 2 * k - 2)
    den = pw(y0, 16 * k - 12) * pw(x0 - y0, 4)
    return 2.0 + 16.0 * f1 * f2 * f3 * f4 * f4 / den


def four_periodic_superellipse_diag(
    k: int, x0: float, rot: Fraction | str = "1/4"
) -> tuple[PeriodicOrbit, float]:
    """Symmetric 4-periodic superellipse orbit, Larmor centers on diagonals.

    Rotation 1/4: start at ``(x0, -y0)`` moving straight up,
    ``mu = x0 - y0``, valid for ``x0`` in ``(2^{-1/(2k)}, x_hat(k))`` — the
    trace exceeds 2 on the whole branch, so the family is hyperbolic there.
    Rotation 3/4: start at ``(x0, y0)`` moving straight down,
    ``mu = y0 - x0``, valid for ``x0`` in ``(-1, 2^{-1/(2k)})``; the trace
    equals 2 exactly at ``x0 = -2^{-1/(2k)}`` (a tangential parabolic point).
    Verdicts carried by the trace itself are authoritative on either branch.
    """
    rotation = _normalize_rotation(rot, 4)
    k = _exponent(k)
    q = _se_q(k)
    curve = Superellipse(k)
    if rotation == _QUARTER:
        if not q < x0 < 1.0:
            raise X0OutOfRange(
                f"rotation 1/4 requires x0 in ({q:.12g}, 1), got {x0}"
            )
        threshold = x_hat(k)
        if x0 >= threshold:
            raise BeyondXHat(
                f"x0={x0} is at or beyond the four-intersection threshold "
                f"{threshold:.12g}; the quarter arc cannot round the corner"
            )
        y0 = _se_y(k, x0)
        mu = x0 - y0
        z0 = _launch_phase(curve, (x0, -y0), (0.0, 1.0))
    else:
        if not -1.0 < x0 < q:
            raise X0OutOfRange(
                f"rotation 3/4 requires x0 in (-1, {q:.12g}), got {x0}"
            )
        y0 = _se_y(k, x0)
        mu = y0 - x0
        z0 = _launch_phase(curve, (x0, y0), (0.0, -1.0))
    orbit = _orbit_from_seed(curve, mu, z0, 4, rotation)
    trace = trace4_superellipse_diag(k, x0)
    return orbit, trace


# --------------------------------------------------------------------------
# 4-periodic: superellipse with Larmor centers on the coordinate axes
# --------------------------------------------------------------------------

def _axis_step_trace(k: int, x0: float) -> float:
    """Trace of the single symmetric step matrix of the axis 4-periodic
    family with rotation 3/4.

    All four step matrices of this family coincide, so the 4-step trace is
    the Chebyshev image ``(t^2 - 2)^2 - 2`` of this value ``t``.  The level
    sets ``t ∈ {0, ±sqrt(2), ±2}`` are exactly the parabolic parameters,
    which makes this scalar the natural root-finding target.
    """
    y0 = _se_y(k, x0)
    gx = 2 * k * math.copysign(abs(x0) ** (2 * k - 1), x0)
    gy = 2 * k * y0 ** (2 * k - 1)
    norm = math.hypot(gx, gy)
    tangent = (-gy / norm, gx / norm)
    normal_in = (-gx / norm, -gy / norm)
    v = (-_SQRT2 / 2.0, -_SQRT2 / 2.0)
    chi = 3.0 * math.pi / 4.0
    ell1 = _SQRT2 * (x0 + y0)
    theta = math.atan2(
        v[0] * normal_in[0] + v[1] * normal_in[1],
        v[0] * tangent[0] + v[1] * tangent[1],
    )
    mu = _SQRT2 * y0
    ell2 = 2.0 * mu * math.sin(chi)
    s = math.sin(theta)
    return (
        -2.0 * math.sin(2.0 * chi - theta) / s
        + 2.0 * ell1 * math.sin(chi) * math.sin(2.0 * chi - 2.0 * theta) / (ell2 * s * s)
    )


def trace4_superellipse_axis(k: int, x0: float, rot: Fraction | str = "1/4") -> float:
    """Trace of the axis-centered symmetric 4-periodic superellipse orbit.

    Rotation 3/4 (``x0`` in ``(-2^{-1/(2k)}, 1)``):

    ``2 - 64 x0^{2k} y0^{2k-2} (x0^{2k-2} - y0^{2k-2})
       (x0^{2k-1}(x0 + 2 y0) + y0^{2k})
       (x0^{4k-2} - y0^{4k-2} - 2 (x0+y0) x0^{2k-1} y0^{2k-2})^2
       / (x0^{2k-1} + y0^{2k-1})^8``.

    Rotation 1/4 (``x0`` in ``(2^{-1/(2k)}, 1)``) is the mirror image with
    ``y0 -> -y0`` wherever ``y0`` carries an odd power:

    ``2 - 64 x0^{2k} y0^{2k-2} (x0^{2k-2} - y0^{2k-2})
       (x0^{2k-1}(x0 - 2 y0) + y0^{2k})
       (x0^{4k-2} - y0^{4k-2} - 2 (x0-y0) x0^{2k-1} y0^{2k-2})^2
       / (x0^{2k-1} - y0^{2k-1})^8``.

    Both expressions coincide with ``(t^2 - 2)^2 - 2`` for the single-step
    trace ``t`` of the orbit's steps (see :func:`_axis_step_trace` for
    rotation 3/4) — an identity the test-suite verifies against the composed
    orbit, and worth preferring numerically near the degenerate endpoint
    where the rational form loses digits to cancellation.
    """
    rotation = _normalize_rotation(rot, 4)
    quarter = rotation == _QUARTER
    k = _exponent(k)
    q = _se_q(k)
    lo = q if quarter else -q
    bad = _stray(x0, (lo < x0) & (x0 < 1.0))
    if bad is not None:
        raise X0OutOfRange(f"rotation {rotation} requires x0 in ({lo:.12g}, 1), got {bad}")
    pw = _pow_for(x0)
    y0 = _se_y(k, x0)
    sgn = -1.0 if quarter else 1.0
    pair = x0 + sgn * 2.0 * y0  # x0 ∓ 2 y0 resolved per rotation
    num = (
        64.0
        * pw(x0, 2 * k)
        * pw(y0, 2 * k - 2)
        * (pw(x0, 2 * k - 2) - pw(y0, 2 * k - 2))
        * (pw(x0, 2 * k - 1) * pair + pw(y0, 2 * k))
        * pw(
            pw(x0, 4 * k - 2)
            - pw(y0, 4 * k - 2)
            - 2.0 * (x0 + sgn * y0) * pw(x0, 2 * k - 1) * pw(y0, 2 * k - 2),
            2,
        )
    )
    den = pw(pw(x0, 2 * k - 1) + sgn * pw(y0, 2 * k - 1), 8)
    return 2.0 - num / den


def four_periodic_superellipse_axis(
    k: int, x0: float, rot: Fraction | str = "1/4"
) -> tuple[PeriodicOrbit, float]:
    """Symmetric 4-periodic superellipse orbit, Larmor centers on the axes.

    Rotation 1/4: start at ``(x0, y0)`` with ``x0 > y0`` heading along
    ``(-1, 1)``; the chord reflects across the diagonal to ``(y0, x0)`` and
    the quarter arcs are centered at ``(0, ±(x0-y0))`` and ``(±(x0-y0), 0)``.
    Rotation 3/4: start at ``(x0, y0)`` heading along ``-(1, 1)`` towards
    ``(-y0, -x0)``, with three-quarter arcs centered at ``(0, ±(x0+y0))`` and
    ``(±(x0+y0), 0)``.  Both have ``mu = sqrt(2)*y0``.
    """
    rotation = _normalize_rotation(rot, 4)
    k = _exponent(k)
    trace = trace4_superellipse_axis(k, x0, rotation)  # validates x0
    y0 = _se_y(k, x0)
    mu = _SQRT2 * y0
    curve = Superellipse(k)
    if rotation == _QUARTER:
        z0 = _launch_phase(curve, (x0, y0), (-1.0, 1.0))
    else:
        z0 = _launch_phase(curve, (x0, y0), (-1.0, -1.0))
    orbit = _orbit_from_seed(curve, mu, z0, 4, rotation)
    return orbit, trace


def parabolic_roots(k: int, rot: Fraction | str = "3/4") -> tuple[float, ...]:
    """Parabolic parameter values of the axis-centered 4-periodic family.

    Rotation 1/4 has exactly one such value on ``(2^{-1/(2k)}, 1)``: the
    transversal crossing of trace 2 where the factor
    ``x0^{2k-1}(x0 - 2 y0) + y0^{2k}`` changes sign (hyperbolic below,
    elliptic above).

    Rotation 3/4 has exactly five on ``(-2^{-1/(2k)}, 1)``.  Because all four
    step matrices coincide, the 4-step trace is ``(t^2-2)^2 - 2`` in the
    single-step trace ``t``, so the parabolic set is the preimage of
    ``t ∈ {0, ±sqrt(2), ±2}``:

    * ``x0 = 0`` — tangential touch of trace 2 (``t`` dips to 2 exactly);
    * ``x0 = 2^{-1/(2k)}`` — transversal crossing of trace 2 (``t`` crosses 2);
    * the level values ``t = sqrt(2), 0, -sqrt(2)`` of the monotone piece of
      ``t`` on ``(2^{-1/(2k)}, 1)``, the middle one a tangential touch of
      trace 2 and the outer two tangential touches of trace -2.

    Roots are returned sorted ascending; the two lattice values are exact.
    """
    rotation = _normalize_rotation(rot, 4)
    k = _exponent(k)
    q = _se_q(k)
    lo, hi = q + 1e-9, 1.0 - 1e-12
    if rotation == _QUARTER:

        def factor(x0: float) -> float:
            y0 = _se_y(k, x0)
            return x0 ** (2 * k - 1) * (x0 - 2.0 * y0) + y0 ** (2 * k)

        return (_root(factor, lo, hi, f"the trace-2 factor for k={k}"),)

    t = functools.partial(_axis_step_trace, k)
    x4 = _root(t, lo, hi, f"t for k={k}")
    x3 = _root(lambda x: t(x) - _SQRT2, lo, x4, f"t - sqrt(2) for k={k}")
    x5 = _root(lambda x: t(x) + _SQRT2, x4, hi, f"t + sqrt(2) for k={k}")
    return (0.0, q, x3, x4, x5)


# --------------------------------------------------------------------------
# duality between the two rotation numbers
# --------------------------------------------------------------------------

def dual_orbit(orbit: PeriodicOrbit) -> PeriodicOrbit:
    """Complementary 4-periodic orbit through the same eight boundary points.

    For every chord there are two supplementary arc half-turning angles that
    re-enter along it, and the corresponding pairs of Larmor arcs tile a full
    circle.  Re-threading the eight points of a centrally symmetric
    rotation-1/4 orbit in the order ``P0, P5, P6, P3, P4, P1, P2, P7``
    therefore produces a rotation-3/4 orbit with the same Larmor radius (and
    conversely).  The dual is rebuilt through the map from the seed chord
    ``P0 -> P5 = -P1`` and validated like any other orbit; applying the
    construction twice recovers the original point set.
    """
    if orbit.n != 4 or len(orbit.boundary_points) != 8:
        raise ValueError("duality is defined for 4-periodic orbits with 8 boundary points")
    pts = orbit.boundary_points
    scale = max(float(np.max(np.abs(p))) for p in pts)
    for i in range(4):
        if float(np.max(np.abs(pts[i + 4] + pts[i]))) > 1e-7 * scale:
            raise NotSymmetric(
                "duality requires central symmetry P_{i+4} = -P_i of the "
                f"boundary points; pair {i} differs by "
                f"{float(np.max(np.abs(pts[i + 4] + pts[i]))):.3e}"
            )
    if orbit.rotation == _QUARTER:
        expected = _THREE_QUARTERS
    elif orbit.rotation == _THREE_QUARTERS:
        expected = _QUARTER
    else:
        raise ValueError(f"duality swaps rotations 1/4 and 3/4, got {orbit.rotation}")
    p0, p5 = pts[0], pts[5]
    z0 = _launch_phase(orbit.curve, p0, p5 - p0)
    dual = _orbit_from_seed(orbit.curve, orbit.mu, z0, 4, expected)
    reorder = [pts[j] for j in (0, 5, 6, 3, 4, 1, 2, 7)]
    for ours, expected_pt in zip(dual.boundary_points, reorder):
        if float(np.max(np.abs(ours - expected_pt))) > 1e-6 * max(scale, 1.0):
            raise NotPeriodic(
                "re-threaded orbit does not pass through the complementary "
                "point sequence"
            )
    return dual


# --------------------------------------------------------------------------
# Newton refinement of periodic points
# --------------------------------------------------------------------------

def _newton_state(curve: Curve, mu: float, z: PhasePoint, n: int):
    """One evaluation of F(z) = T^n(z) - z in the (s, u) chart.

    Returns ``(residual_vector, trajectory, scaled_residual)``; a trajectory
    that leaves the map's domain raises.  The scaled residual stays third:
    ``perfbench/tracing.py`` reads it there.
    """
    traj = iterate(curve, mu, z, n)
    z_end = traj[-1][0]
    length = curve.total_length()
    ds, du = _arc_gap(z_end.s, z.s, length), z_end.u - z.u
    # the metric of stability.orbit_closure_residual
    return np.array([ds, du]), traj, max(abs(ds) / length, abs(du))


def find_periodic_newton(
    curve: Curve,
    mu: float,
    n: int,
    z0: PhasePoint,
    *,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> PeriodicOrbit:
    """Newton's method for an n-periodic point of the map near ``z0``.

    The unknowns are the map's own coordinates ``(s, theta)``; the residual
    ``F = T^n(z) - z`` stays in the ``(s, u)`` chart, with the arclength
    difference taken modulo the perimeter.  With ``S_n`` the composed step
    Jacobian in ``(s, u)``, the derivative of ``F`` in ``(s, theta)`` is
    ``(S_n - I) diag(1, sin theta)``, so the step solves ``(S_n - I) d = F``
    and moves to ``(s - d_s, theta - d_u / sin theta)``.  A step that does
    not decrease the residual is halved, at most five times (six trial
    scales, 1 down to 1/32); only the accepted trial's Jacobians are
    composed.  A trial outside the annulus is refused by the map itself
    (:class:`TangentialChord` from the chord exit), so the search adds no
    domain test and no clamp: such a trial, or one whose orbit fails, is
    rejected like a trial that raises the residual.  The state accepted in
    the last of the ``max_iter`` iterations is tested against ``tol`` too.
    ``tol`` may not exceed the closure tolerance ``CLOSURE_TOL`` (else
    ``ValueError``), so a state that meets it is a closed orbit.

    Raises :class:`SingularJacobian` when ``|det(S_n - I)| < 1e-10`` — the
    expected degeneracy on parabolic families, where periodic points are not
    isolated — and :class:`NoConvergence` when the seed leaves the domain,
    the line search stalls, or ``max_iter`` steps do not reach ``tol``.
    """
    if n < 1:
        raise ValueError(f"period must be a positive integer, got {n}")
    if not tol <= CLOSURE_TOL:
        raise ValueError(f"tol {tol!r} exceeds the closure tolerance {CLOSURE_TOL!r}")
    try:
        state = _newton_state(curve, mu, z0, n)
        S = compose(d for _, d in state[1])
    except BilliardError:
        raise NoConvergence("seed trajectory leaves the domain of the map") from None
    z = z0
    length = curve.total_length()
    for iteration in range(max_iter + 1):
        F, traj, residual = state
        if residual <= tol:
            return _package_orbit(curve, mu, z, traj, residual, None)
        if iteration == max_iter:
            break
        J = S - np.eye(2)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-10:
            raise SingularJacobian(
                f"det(S_n - I) = {det:.3e}; periodic point is degenerate "
                "(parabolic family or non-isolated orbit)"
            )
        ds, du = np.linalg.solve(J, F).tolist()
        dtheta = du / math.sin(z.theta)
        step_scale = 1.0
        for _ in range(6):
            z_new = PhasePoint((z.s - step_scale * ds) % length, z.theta - step_scale * dtheta)
            try:
                trial = _newton_state(curve, mu, z_new, n)
                if trial[2] < residual:
                    z, state, S = z_new, trial, compose(d for _, d in trial[1])
                    break
            except BilliardError:
                pass
            step_scale *= 0.5
        else:
            raise NoConvergence(
                f"damped Newton stalled at residual {residual:.3e} (tol {tol:.1e})"
            )
    raise NoConvergence(f"no convergence within {max_iter} iterations")


# --------------------------------------------------------------------------
# parameter scans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyScan:
    """Stability survey of a one-parameter orbit family.

    ``thresholds`` collects every located parabolic parameter value: the
    transversal sign changes of ``trace ∓ 2`` and the tangential touches of
    ``|trace| = 2`` (where the trace meets ±2 without crossing).
    """

    parameter: str
    grid: np.ndarray
    traces: np.ndarray
    thresholds: tuple[float, ...]


def scan_family(
    trace_fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    parameter: str = "parameter",
    n_grid: int = 2000,
) -> FamilyScan:
    """Evaluate a closed-form trace on a grid and locate parabolic thresholds.

    ``trace_fn`` must work on floats and on arrays: it is called once on the
    whole grid, a 1-D array, and must return the array of traces, of the
    grid's shape and finite everywhere (else ``ValueError``); the refinement
    then calls it on single floats.  Transversal thresholds are refined by
    Brent's method on ``trace - 2`` and ``trace + 2`` (to ``xtol = 1e-12``);
    tangential touches are caught in a second pass over local minima of
    ``||trace| - 2||``, refined by bounded scalar minimization and accepted
    when the refined minimum lies below 1e-6.
    """
    if not hi > lo:
        raise ValueError(f"empty scan interval [{lo}, {hi}]")
    if n_grid < 16:
        raise ValueError(f"grid too coarse ({n_grid} points)")
    grid = np.linspace(lo, hi, n_grid)
    traces = np.asarray(trace_fn(grid), dtype=float)
    if traces.shape != grid.shape:
        raise ValueError(
            f"trace_fn returned shape {traces.shape} on a grid of shape {grid.shape}")
    finite = np.isfinite(traces)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"trace is not finite at {parameter}={grid[i]}: {traces[i]}")

    found: list[float] = []
    for sign in (-2.0, 2.0):
        g = traces - sign
        flips = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        for i in flips:
            root = brentq(
                lambda x: trace_fn(x) - sign, grid[i], grid[i + 1], xtol=1e-12
            )
            found.append(root)

    # Tangential touches: |trace| comes up to 2 without crossing.  Refine
    # every interior local minimum of ||trace| - 2| and keep the deep ones.
    h = np.abs(np.abs(traces) - 2.0)
    interior = np.nonzero((h[1:-1] <= h[:-2]) & (h[1:-1] <= h[2:]))[0] + 1
    for i in interior:
        x, fun = minimize_bounded(
            lambda x: abs(abs(trace_fn(x)) - 2.0),
            (grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]),
            xatol=1e-12,
        )
        if fun < 1e-6:
            found.append(float(x))

    found.sort()
    thresholds: list[float] = []
    span = hi - lo
    for r in found:
        if not thresholds or abs(r - thresholds[-1]) > 1e-7 * span:
            thresholds.append(r)
    return FamilyScan(
        parameter=parameter,
        grid=grid,
        traces=traces,
        thresholds=tuple(thresholds),
    )


# --------------------------------------------------------------------------
# the family table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """A row of :data:`FAMILIES`: the parameter, ``"mu"`` or ``"x0"``; the
    rotations, default first (none on 2-periodic families); ``member(curve_cfg,
    value, rotation) -> (orbit, trace, extras)`` with ``(key, value)`` extras;
    and ``scan(curve_cfg, rotation) -> (trace_fn, window, domain, references)``
    (``None`` with no array trace): the trace on floats and arrays, the default
    ``(lo, hi)``, the open domain and ``(threshold, in_domain)`` pairs.  Rows
    call constructors by module name, so rebinding a name reaches them."""

    param: str
    rotations: tuple[Fraction, ...]
    member: Callable
    scan: Callable | None = None


def _two(result, names, more=()):
    """A 2-periodic member from a constructor's ``(orbit, params, *rest)``: the
    closed trace of ``params``, which reads no step data, and as extras the
    parameters ``names`` and then ``rest`` flattened, named by ``more``."""
    orbit, params, *rest = result
    return (orbit, trace2_closed(params),
            [(n, getattr(params, n)) for n in names] + list(zip(more, np.ravel(rest).tolist())))


def _scan(trace_fn, domain, pads, references=()):
    """A scan whose default window is ``domain`` narrowed by ``pads``."""
    return trace_fn, (domain[0] + pads[0], domain[1] - pads[1]), domain, list(references)


def _theta_extra(orbit, theta, trace):
    return orbit, trace, [("theta", theta)]


def _ellipse4(c, x0, rot):
    orbit, record, trace = four_periodic_ellipse(c["a"], c["b"], x0, rot)
    return orbit, trace, [(n, getattr(record, n))
                          for n in ("mu", "ell1", "ell3", "cos_theta0", "cos_theta2")]


def _ellipse4_scan(c, rot):
    """Both rotations: the one trace spans the whole admissible interval."""
    a, b = c["a"], c["b"]
    lo, _, hi = _ellipse4_interval(a, b)
    refs = ellipse4_reference_roots() if (a, b) == (3.0, 2.0) else ()
    return _scan(lambda x0: trace4_ellipse(a, b, x0), (lo, hi), (1e-6 * (hi - lo),) * 2,
                 [(ref, lo < ref < hi) for ref in refs])


def _se_axis4_scan(c, rot):
    k, q = c["k"], _se_q(c["k"])
    domain, pads = ((q, 1.0), (1e-3, 1e-3)) if rot == _QUARTER else ((-q, 1.0), (1e-6, 1e-3))
    return _scan(lambda x0: trace4_superellipse_axis(k, x0, rot), domain, pads)


def _se_diag4_scan(c, rot):
    k, q = c["k"], _se_q(c["k"])
    domain, pads = ((q, x_hat(k)), (1e-4, 1e-4)) if rot == _QUARTER else ((-1.0, q), (1e-3, 1e-4))
    return _scan(lambda x0: trace4_superellipse_diag(k, x0), domain, pads)


#: every closed-form family by (curve kind, family tag), the one home of its facts
FAMILIES: dict[tuple[str, str], _Family] = {
    ("circle", "two-periodic"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_circle(c["R"], mu), ("alpha",))),
    ("circle", "three-periodic"): _Family("mu", _ROTATIONS[3], lambda c, mu, rot: _theta_extra(
        *three_periodic_circle(c["R"], mu, rot))),
    ("circle", "four-periodic"): _Family("mu", _ROTATIONS[4], lambda c, mu, rot: _theta_extra(
        *four_periodic_circle(c["R"], mu, rot))),
    ("ellipse", "two-periodic-major"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_ellipse(c["a"], c["b"], mu, "major"), ("alpha", "beta", "delta"))),
    ("ellipse", "two-periodic-minor"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_ellipse(c["a"], c["b"], mu, "minor"), ("alpha", "beta", "delta"))),
    ("ellipse", "four-periodic"): _Family("x0", _ROTATIONS[4], _ellipse4, _ellipse4_scan),
    ("superellipse", "two-periodic-axis"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_superellipse_axis(c["k"], mu), ("alpha", "beta"),
        ("mu_star", "mu_double_star")), lambda c, rot: _scan(
        lambda mu: trace2_superellipse_axis(c["k"], mu), (0.0, 1.0), (0.02, 0.005),
        [(mu, True) for mu in _superellipse_axis_thresholds(c["k"])])),
    ("superellipse", "two-periodic-diag"): _Family("x0", (), lambda c, x0, rot: _two(
        two_periodic_superellipse_diag(c["k"], x0), ("alpha", "beta"), ("f",)),
        lambda c, rot: _scan(
        lambda x0: trace2_superellipse_diag(c["k"], x0), (-_se_q(c["k"]), _se_q(c["k"])),
        (1e-4, 1e-4))),
    ("superellipse", "four-periodic-axis"): _Family("x0", _ROTATIONS[4], lambda c, x0, rot: (
        *four_periodic_superellipse_axis(c["k"], x0, rot), []), _se_axis4_scan),
    ("superellipse", "four-periodic-diag"): _Family("x0", _ROTATIONS[4], lambda c, x0, rot: (
        *four_periodic_superellipse_diag(c["k"], x0, rot), []), _se_diag4_scan),
    ("stadium", "two-periodic-sides"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_stadium(c["side"], c["R"], mu, "sides"), ("alpha", "beta"))),
    ("stadium", "two-periodic-caps"): _Family("mu", (), lambda c, mu, rot: _two(
        two_periodic_stadium(c["side"], c["R"], mu, "caps"), ("alpha", "beta"))),
}
