"""Linear stability of periodic orbits.

The stability matrix of an n-periodic point is the ordered product of the
map's Jacobians along the orbit,

    S_n(z) = DT(T^(n-1) z) ... DT(T z) DT(z),

and |trace| against 2 classifies the orbit: elliptic below, parabolic at,
hyperbolic above.

For 2-periodic orbits (stadium-shaped: two parallel chords joined by two
Larmor semicircles, chi = pi/2 at both arcs) the trace collapses to a
polynomial in three dimensionless parameters,

    alpha = ell1 / mu,   beta = cot(theta0) + cot(theta3),
    delta = cot(theta1) + cot(theta2),

    Tr S_2 = 2 - 2 alpha (beta + delta) + alpha^2 beta delta,

which factors as

    Tr - 2 = alpha beta delta (alpha - 2/beta - 2/delta),
    Tr + 2 = beta delta (alpha - 2/beta)(alpha - 2/delta).

Those factorizations drive a closed-form classifier by the sign pattern of
beta and delta in five cases (:func:`classify2_general`).  Three of them
list parabolic values of alpha: (iii) [2/beta]; (iv) [2/beta + 2/delta,
2/beta]; (v), the convex tables, [m, M, m + M] with m and M the smaller and
larger of 2/beta, 2/delta.  One rule reads them all: alpha is parabolic
within tol * max(1, largest value) of a value, hyperbolic above all of
them, and each value above alpha flips the class.  The module also carries
the standard (non-magnetic) billiard's 2-periodic trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Curve
from .dynamics import PhasePoint, StepData, _arc_gap, iterate, jacobian_analytic
from .errors import NotPeriodic

__all__ = [
    "StabilityClass",
    "StabilityVerdict",
    "TwoPeriodicParams",
    "classify",
    "compose",
    "stability_matrix",
    "orbit_closure_residual",
    "trace2_closed",
    "classify2_general",
    "GeneralCaseDiagnosis",
    "billiard_trace2",
    "CLOSED_FORM_TOL",
    "COMPOSED_TOL",
]

#: default classification tolerance for traces from closed-form algebra
CLOSED_FORM_TOL = 1e-9
#: default classification tolerance for traces of numerically composed matrices
COMPOSED_TOL = 1e-6
#: orbit closure requirement (in the max(|ds|/L, |du|) metric)
CLOSURE_TOL = 1e-7


class StabilityClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class StabilityVerdict:
    trace: float
    cls: StabilityClass
    tol: float


@dataclass(frozen=True)
class TwoPeriodicParams:
    """Dimensionless stability parameters of a 2-periodic orbit."""

    alpha: float
    beta: float
    delta: float


def classify(trace: float, tol: float = CLOSED_FORM_TOL) -> StabilityVerdict:
    """Elliptic / parabolic / hyperbolic by |trace| against 2 +/- tol."""
    if not math.isfinite(trace):
        raise ValueError(f"trace must be finite, got {trace}")
    a = abs(trace)
    if abs(a - 2.0) <= tol:
        cls = StabilityClass.PARABOLIC
    elif a < 2.0:
        cls = StabilityClass.ELLIPTIC
    else:
        cls = StabilityClass.HYPERBOLIC
    return StabilityVerdict(trace, cls, tol)


def orbit_closure_residual(curve: Curve, z: PhasePoint, z_end: PhasePoint) -> float:
    """max(|ds|/L, |du|) between an orbit's start and end points."""
    L = curve.total_length()
    ds = abs(_arc_gap(z_end.s, z.s, L))
    return max(ds / L, abs(z_end.u - z.u))


def _closed_orbit(curve: Curve, mu: float, z: PhasePoint, n: int
                  ) -> tuple[list[tuple[PhasePoint, StepData]], float]:
    """The n steps of the orbit of z, as :func:`iterate` returns them, and
    its closure residual; :class:`NotPeriodic` above ``CLOSURE_TOL``."""
    if n < 1:
        raise ValueError(f"period must be at least 1, got {n}")
    traj = iterate(curve, mu, z, n)
    res = orbit_closure_residual(curve, z, traj[-1][0])
    if res > CLOSURE_TOL:
        raise NotPeriodic(
            f"orbit of {z!r} does not close to period {n}: residual {res:.3e} "
            f"> {CLOSURE_TOL}"
        )
    return traj, res


def stability_matrix(
    curve: Curve,
    mu: float,
    z: PhasePoint,
    n: int,
) -> np.ndarray:
    """Ordered product of n analytic Jacobians along the orbit of z.

    The orbit must close to period n within ``CLOSURE_TOL`` in the
    max(|ds|/L, |du|) metric; otherwise :class:`NotPeriodic` is raised.
    """
    return compose(data for _, data in _closed_orbit(curve, mu, z, n)[0])


def compose(steps) -> np.ndarray:
    """Ordered product DT_n ... DT_1 of the analytic Jacobians of the step
    records ``steps``; the identity for no steps."""
    S = np.eye(2)
    for data in steps:
        S = jacobian_analytic(data) @ S
    return S


# --- 2-periodic closed forms -------------------------------------------------

def trace2_closed(p: TwoPeriodicParams) -> float:
    """Closed-form trace of the 2-periodic stability matrix."""
    a, b, d = p.alpha, p.beta, p.delta
    return 2.0 - 2.0 * a * (b + d) + a * a * b * d


@dataclass(frozen=True)
class GeneralCaseDiagnosis:
    """Outcome of the five-way sign-pattern analysis.

    ``case`` is the matching case label ('i' .. 'v', first match wins);
    ``swapped`` records that the roles of beta and delta were exchanged to
    reach the canonical pattern; ``predicted`` is the class the interval
    statement asserts for this alpha — independent of the trace, so the
    two can be cross-checked.
    """

    case: str
    swapped: bool
    predicted: StabilityClass


def _predict(alpha: float, values: list[float], tol: float) -> StabilityClass:
    # values: the case's parabolic alphas, ascending.  A NaN value (m + M
    # where 2/b and 2/d overflow to opposite infinities) counts as above.
    if any(abs(alpha - v) <= tol * max(1.0, values[-1]) for v in values):
        return StabilityClass.PARABOLIC
    above = sum(not v <= alpha for v in values)
    return StabilityClass.ELLIPTIC if above % 2 else StabilityClass.HYPERBOLIC


def classify2_general(
    p: TwoPeriodicParams, tol: float = CLOSED_FORM_TOL
) -> tuple[StabilityVerdict, GeneralCaseDiagnosis]:
    """Five-case classification covering every sign pattern of beta, delta.

    (i) beta = delta = 0: parabolic for every alpha.  (ii) beta, delta <= 0,
    not both zero: hyperbolic.  (iii) beta > 0 and either delta = 0, or
    delta < 0 with 2/beta + 2/delta <= 0.  (iv) beta > 0 > delta with
    2/beta + 2/delta > 0.  (v) beta, delta > 0.  (iii) and (iv) also apply
    with beta and delta exchanged, setting ``swapped``; the first match in
    the order (i)-(v) wins.  The verdict comes from the trace; ``predicted``
    restates the interval assertion so the two can be checked.
    """
    b, d = p.beta, p.delta
    a = p.alpha
    verdict = classify(trace2_closed(p), tol)

    if b == 0.0 and d == 0.0:
        diag = GeneralCaseDiagnosis("i", False, StabilityClass.PARABOLIC)
    elif b <= 0.0 and d <= 0.0:
        diag = GeneralCaseDiagnosis("ii", False, StabilityClass.HYPERBOLIC)
    elif b > 0.0 and (d == 0.0 or (d < 0.0 and 2.0 / b + 2.0 / d <= 0.0)):
        diag = GeneralCaseDiagnosis("iii", False, _predict(a, [2.0 / b], tol))
    elif d > 0.0 and (b == 0.0 or (b < 0.0 and 2.0 / d + 2.0 / b <= 0.0)):
        diag = GeneralCaseDiagnosis("iii", True, _predict(a, [2.0 / d], tol))
    elif b > 0.0 > d and 2.0 / b + 2.0 / d > 0.0:
        diag = GeneralCaseDiagnosis("iv", False, _predict(a, [2.0 / b + 2.0 / d, 2.0 / b], tol))
    elif d > 0.0 > b and 2.0 / d + 2.0 / b > 0.0:
        diag = GeneralCaseDiagnosis("iv", True, _predict(a, [2.0 / d + 2.0 / b, 2.0 / d], tol))
    else:
        m, M = sorted((2.0 / b, 2.0 / d))
        diag = GeneralCaseDiagnosis("v", False, _predict(a, [m, M, m + M], tol))
    return verdict, diag


# --- standard billiard comparison -------------------------------------------

def billiard_trace2(l: float, rho1: float, rho2: float) -> float:
    """Trace 2 - 4 l (1/rho1 + 1/rho2) + 4 l^2/(rho1 rho2) of the *standard*
    billiard's 2-periodic bounce on a chord of length l between boundary
    points with curvature radii rho1, rho2; an infinite radius is a flat
    wall, a negative one a concave wall.  With finite positive radii,
    :func:`classify` reads it hyperbolic iff l in (min, max) u (rho1 + rho2,
    inf), elliptic iff l in (0, min) u (max, rho1 + rho2), parabolic at l in
    {rho1, rho2, rho1 + rho2}.  ``ValueError`` names an l that is not finite
    and positive, or a radius that is zero or NaN.
    """
    if not (math.isfinite(l) and l > 0):
        raise ValueError(f"chord length l must be finite and positive, got {l}")
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if rho == 0 or math.isnan(rho):
            raise ValueError(f"curvature radius {name} must be nonzero and not NaN, got {rho}")
    k1, k2 = 1.0 / rho1, 1.0 / rho2
    return 2.0 - 4.0 * l * (k1 + k2) + 4.0 * l * l * k1 * k2
