"""The inverse magnetic billiard map on the phase annulus.

Phase space is [0, L) x (0, pi) in coordinates (s, theta): arclength of
the chord's launch point and its angle from the positive tangent.  One
application of the map is chord exit followed by Larmor re-entry,
(s0, theta0) -> (s2, theta2).  The boundary circles theta = 0 and
theta = pi lie outside the domain: a launch or re-entry within
``collision.ANGLE_EPS`` of them raises.  :func:`step` builds the one record
of a step, :class:`StepData`, from what the two collision routines return.

:class:`PhasePoint` and :class:`StepData` are slotted dataclasses, compared
and hashed by value.  Each is built once per step and not changed
afterwards, as a :class:`~imbilliards.curves.Frame` is; being slotted, not
frozen, their construction costs only their fields.

The map preserves the area form sin(theta) ds ^ dtheta; in the chart
(s, u) with u = -cos(theta) its derivative DT has determinant one.  The
four closed-form entries of DT are assembled in :func:`jacobian_analytic`
from a single step's geometric record (:class:`StepData`) — no
re-intersection happens there, which keeps the finite-difference check in
:func:`jacobian_numeric` an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collision import chord_exit, larmor_reentry
from .curves import Curve, Frame
from .errors import BilliardError, DegenerateStep

__all__ = [
    "PhasePoint",
    "StepData",
    "step",
    "iterate",
    "jacobian_analytic",
    "jacobian_numeric",
    "well_conditioned",
]

#: entries of StepData smaller than this make the closed-form DT ill-defined
DEGENERACY_EPS = 1e-12


@dataclass(slots=True, unsafe_hash=True)
class PhasePoint:
    """A point of the phase annulus: arclength s in [0, L), angle theta.

    ``u`` is the symplectic vertical coordinate -cos(theta).  A slotted
    record, compared and hashed by value; it is built once and not changed
    afterwards."""

    s: float
    theta: float

    @property
    def u(self) -> float:
        return -math.cos(self.theta)


def _arc_gap(a: float, b: float, length: float) -> float:
    """a - b as the shortest signed arc on a boundary of perimeter ``length``."""
    return (a - b + 0.5 * length) % length - 0.5 * length


@dataclass(slots=True, unsafe_hash=True)
class StepData:
    """Geometric record of one completed map step.

    A slotted record, compared and hashed by value; :func:`step` builds it
    once and nothing changes it afterwards.

    Angles theta0/theta1/theta2 at the launch, exit and re-entry points,
    chord lengths ell1 (straight) and ell2 (Larmor chord), tangent-chord
    angle chi of the arc (its sweep is 2 chi), boundary curvatures kappa0
    and kappa2 at the two phase points (kappa1 is kept for diagnostics only;
    the closed-form DT does not involve it), and the Larmor radius mu.

    Three fields describe how the step was found and take no part in
    comparisons; a hand-built record gets their defaults.  ``frames`` holds
    the boundary frames of the launch, exit and re-entry points (empty by
    default).  ``n_crossings`` and ``root_iterations`` are the number of
    boundary crossings the re-entry saw and the number of steps of its root
    solve, as :func:`~imbilliards.collision.larmor_reentry` returns them (0
    and 0 by default).
    """

    s0: float
    theta0: float
    s1: float
    theta1: float
    s2: float
    theta2: float
    ell1: float
    ell2: float
    chi: float
    kappa0: float
    kappa1: float
    kappa2: float
    mu: float
    frames: tuple[Frame, ...] = field(default=(), compare=False, repr=False)
    n_crossings: int = field(default=0, compare=False)
    root_iterations: int = field(default=0, compare=False)


def step(
    curve: Curve, mu: float, z: PhasePoint, frame0: Frame | None = None
) -> tuple[PhasePoint, StepData]:
    """One application of the map: the image of ``z`` and the step's record;
    a launch or re-entry at the edge of the domain raises.

    The step launches from ``frame0``, the boundary frame of ``z`` when the
    caller has it, or else from ``frame_at(z.s)``; the exit and re-entry
    frames come back from the collision routines, so a step resolves each
    of its three boundary points once."""
    if frame0 is None:
        frame0 = curve.frame_at(z.s)
    frame1, theta1, ell1, v = chord_exit(curve, frame0, z.theta)
    frame2, theta2, chi, ell2, n_crossings, iterations = larmor_reentry(curve, frame1, v, mu)

    data = StepData(
        s0=frame0.s,
        theta0=z.theta,
        s1=frame1.s,
        theta1=theta1,
        s2=frame2.s,
        theta2=theta2,
        ell1=ell1,
        ell2=ell2,
        chi=chi,
        kappa0=frame0.curvature,
        kappa1=frame1.curvature,
        kappa2=frame2.curvature,
        mu=mu,
        frames=(frame0, frame1, frame2),
        n_crossings=n_crossings,
        root_iterations=iterations,
    )
    return PhasePoint(frame2.s, theta2), data


def iterate(
    curve: Curve, mu: float, z: PhasePoint, n: int
) -> list[tuple[PhasePoint, StepData]]:
    """n successive steps; element i holds the image of the i-th step.

    Each step launches from the re-entry frame of the step before, so the
    orbit resolves each of its boundary points once: only the first launch
    point goes through ``frame_at``.

    When a step leaves the domain of the map, the raised
    :class:`~imbilliards.errors.BilliardError` carries the completed prefix
    in its ``partial`` attribute, so callers can inspect how far the orbit
    got.  Any other exception is a fault and propagates untouched.
    """
    out: list[tuple[PhasePoint, StepData]] = []
    current, frame = z, None
    for _ in range(n):
        try:
            current, data = step(curve, mu, current, frame)
        except BilliardError as exc:
            exc.partial = out  # type: ignore[attr-defined]
            raise
        out.append((current, data))
        frame = data.frames[2]
    return out


def jacobian_analytic(d: StepData) -> np.ndarray:
    """Closed-form derivative of one map step in the (s, u) chart.

    Returns the 2x2 matrix [[ds2/ds0, ds2/du0], [du2/ds0, du2/du0]].  Its
    determinant is 1 for any valid step.  Raises :class:`DegenerateStep`
    when a denominator (a sine of theta0/theta1/theta2, or ell2) is below
    ``DEGENERACY_EPS``; ell2, a length, is tested as ell2 / mu = 2 sin(chi),
    so the test does not depend on the table's size.
    """
    st0, st1, st2 = math.sin(d.theta0), math.sin(d.theta1), math.sin(d.theta2)
    for name, val in (("sin(theta0)", st0), ("sin(theta1)", st1),
                      ("sin(theta2)", st2), ("ell2/mu", d.ell2 / d.mu)):
        if abs(val) < DEGENERACY_EPS:
            raise DegenerateStep(f"{name} = {val:.3e} below {DEGENERACY_EPS}")

    k0, k2 = d.kappa0, d.kappa2
    l1, l2 = d.ell1, d.ell2
    chi = d.chi
    schi, cchi = math.sin(chi), math.cos(chi)
    s_2chi_t1 = math.sin(2 * chi - d.theta1)
    s_2chi_t2 = math.sin(2 * chi - d.theta2)
    s_2chi_t1_t2 = math.sin(2 * chi - d.theta1 - d.theta2)

    a11 = (k0 * l1 * s_2chi_t1 - st0 * s_2chi_t1 - k0 * l2 * cchi * st1) / (st1 * st2)
    a12 = (l1 * s_2chi_t1 - l2 * cchi * st1) / (st0 * st1 * st2)
    a21 = (
        k2 * st0 * s_2chi_t1 / st1
        + 2 * schi * s_2chi_t1_t2 * (k0 * l1 - st0) / (l2 * st1)
        - k0 * (s_2chi_t2 + k2 * l1 * s_2chi_t1 / st1 - k2 * l2 * cchi)
    )
    a22 = (2 * l1 * schi * s_2chi_t1_t2 - k2 * l1 * l2 * s_2chi_t1) / (
        l2 * st0 * st1
    ) + (k2 * l2 * cchi - s_2chi_t2) / st0
    return np.array([[a11, a12], [a21, a22]])


def well_conditioned(d: StepData) -> bool:
    """True when the step is far enough from chart singularities for the
    analytic/numeric Jacobian comparison to be meaningful: every sine of
    theta at least 1e-4 and ell2 at least 1e-6 * mu."""
    return (
        min(math.sin(d.theta0), math.sin(d.theta1), math.sin(d.theta2)) >= 1e-4
        and d.ell2 >= 1e-6 * d.mu
    )


def _map_su(curve: Curve, mu: float, s: float, u: float) -> tuple[float, float]:
    z1, _ = step(curve, mu, PhasePoint(s, math.acos(-u)))
    return z1.s, z1.u


def jacobian_numeric(
    curve: Curve, mu: float, z: PhasePoint, h: float = 1e-6
) -> np.ndarray:
    """Finite-difference derivative of one map step in the (s, u) chart.

    Central differences with step ``h * L`` in s and ``h`` in u.
    s-differences are wrapped to the shortest signed representative, so the
    stencil may straddle s = 0.  A stencil with u +/- h outside (-1, 1)
    reaches theta in {0, pi}, the identity region, and raises
    :class:`DegenerateStep` before any step: near grazing the derivative
    grows like 1/sin(theta), and no finite difference is an oracle there.
    """
    L = curve.total_length()
    hs = h * L
    hu = h
    if not (-1.0 < z.u - hu and z.u + hu < 1.0):
        raise DegenerateStep(f"stencil u = {z.u!r} +/- {hu} touches the identity region")

    s_p, u_p = _map_su(curve, mu, z.s + hs, z.u)
    s_m, u_m = _map_su(curve, mu, z.s - hs, z.u)
    ds2_ds0 = _arc_gap(s_p, s_m, L) / (2 * hs)
    du2_ds0 = (u_p - u_m) / (2 * hs)

    s_p, u_p = _map_su(curve, mu, z.s, z.u + hu)
    s_m, u_m = _map_su(curve, mu, z.s, z.u - hu)
    ds2_du0 = _arc_gap(s_p, s_m, L) / (2 * hu)
    du2_du0 = (u_p - u_m) / (2 * hu)

    return np.array([[ds2_ds0, ds2_du0], [du2_ds0, du2_du0]])
