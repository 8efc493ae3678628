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
beta and delta, organized in five cases.  Its case (v) holds the convex
tables (beta, delta > 0), where the parabolic values of alpha are exactly
m = min(2/beta, 2/delta), M = max(2/beta, 2/delta) and m + M; the other
cases cover non-convex tables.  This module also carries the standard
(non-magnetic) billiard comparison: Tr S_2 = 2 - 4 l (1/rho1 + 1/rho2) +
4 l^2/(rho1 rho2) for a 2-periodic chord of length l between boundary
points with curvature radii rho1, rho2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Curve
from .dynamics import PhasePoint, iterate, jacobian_analytic
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
    "two_periodic_step_matrix",
    "billiard_trace2",
    "classify_billiard2",
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
    ds = abs((z_end.s - z.s + 0.5 * L) % L - 0.5 * L)
    return max(ds / L, abs(z_end.u - z.u))


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
    if n < 1:
        raise ValueError(f"period must be at least 1, got {n}")
    traj = iterate(curve, mu, z, n)
    res = orbit_closure_residual(curve, z, traj[-1][0])
    if res > CLOSURE_TOL:
        raise NotPeriodic(
            f"orbit of {z!r} does not close to period {n}: residual {res:.3e} "
            f"> {CLOSURE_TOL}"
        )
    return compose(data for _, data in traj)


def compose(steps) -> np.ndarray:
    """Ordered product DT_n ... DT_1 of the analytic step Jacobians; a guarded
    step (``None``, theta in {0, pi}) raises :class:`NotPeriodic`."""
    S = np.eye(2)
    for data in steps:
        if data is None:
            raise NotPeriodic("orbit touched the identity region theta in {0, pi}")
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


def _predict_case_iii(alpha: float, b: float, tol: float) -> StabilityClass:
    # b > 0 and either d = 0, or d < 0 with 2/b + 2/d <= 0:
    # parabolic iff alpha = 2/b, elliptic below, hyperbolic above.
    edge = 2.0 / b
    if abs(alpha - edge) <= tol * max(1.0, abs(edge)):
        return StabilityClass.PARABOLIC
    return StabilityClass.ELLIPTIC if alpha < edge else StabilityClass.HYPERBOLIC


def _predict_case_iv(alpha: float, b: float, d: float, tol: float) -> StabilityClass:
    # b > 0 > d with 0 < 2/b + 2/d: parabolic at {2/b + 2/d, 2/b},
    # elliptic between them, hyperbolic outside.
    lo = 2.0 / b + 2.0 / d
    hi = 2.0 / b
    scale = max(1.0, abs(lo), abs(hi))
    if min(abs(alpha - lo), abs(alpha - hi)) <= tol * scale:
        return StabilityClass.PARABOLIC
    if lo < alpha < hi:
        return StabilityClass.ELLIPTIC
    return StabilityClass.HYPERBOLIC


def _predict_case_v(alpha: float, b: float, d: float, tol: float) -> StabilityClass:
    m = min(2.0 / b, 2.0 / d)
    M = max(2.0 / b, 2.0 / d)
    scale = max(1.0, m + M)
    if min(abs(alpha - m), abs(alpha - M), abs(alpha - (m + M))) <= tol * scale:
        return StabilityClass.PARABOLIC
    if alpha < m or M < alpha < m + M:
        return StabilityClass.ELLIPTIC
    return StabilityClass.HYPERBOLIC


def classify2_general(
    p: TwoPeriodicParams, tol: float = CLOSED_FORM_TOL
) -> tuple[StabilityVerdict, GeneralCaseDiagnosis]:
    """Five-case classification covering every sign pattern of beta, delta.

    Case (i): beta = delta = 0 — parabolic for every alpha.
    Case (ii): beta <= 0 and delta <= 0, not both zero — hyperbolic always.
    Case (iii): beta > 0 and (delta = 0, or delta < 0 with
        2/beta + 2/delta <= 0) — single threshold at alpha = 2/beta.
    Case (iv): beta > 0 > delta with 2/beta + 2/delta > 0 — elliptic
        window (2/beta + 2/delta, 2/beta).
    Case (v): beta > 0 and delta > 0 — the convex interval classification.

    Cases (iii) and (iv) also apply with beta and delta exchanged; the
    first matching case in the order (i)-(v) is reported, with ``swapped``
    set when the exchange was needed.  The returned verdict always comes
    from the trace; ``predicted`` restates the interval assertion so
    callers (and the test suite) can check the two agree.
    """
    b, d = p.beta, p.delta
    a = p.alpha
    verdict = classify(trace2_closed(p), tol)

    if b == 0.0 and d == 0.0:
        diag = GeneralCaseDiagnosis("i", False, StabilityClass.PARABOLIC)
    elif b <= 0.0 and d <= 0.0:
        diag = GeneralCaseDiagnosis("ii", False, StabilityClass.HYPERBOLIC)
    elif b > 0.0 and (d == 0.0 or (d < 0.0 and 2.0 / b + 2.0 / d <= 0.0)):
        diag = GeneralCaseDiagnosis("iii", False, _predict_case_iii(a, b, tol))
    elif d > 0.0 and (b == 0.0 or (b < 0.0 and 2.0 / d + 2.0 / b <= 0.0)):
        diag = GeneralCaseDiagnosis("iii", True, _predict_case_iii(a, d, tol))
    elif b > 0.0 > d and 2.0 / b + 2.0 / d > 0.0:
        diag = GeneralCaseDiagnosis("iv", False, _predict_case_iv(a, b, d, tol))
    elif d > 0.0 > b and 2.0 / d + 2.0 / b > 0.0:
        diag = GeneralCaseDiagnosis("iv", True, _predict_case_iv(a, d, b, tol))
    else:
        diag = GeneralCaseDiagnosis("v", False, _predict_case_v(a, b, d, tol))
    return verdict, diag


def two_periodic_step_matrix(
    theta0: float, theta1: float, theta2: float,
    ell1: float, mu: float, kappa0: float, kappa2: float,
) -> np.ndarray:
    """Specialized one-step Jacobian for a 2-periodic configuration
    (chi = pi/2, ell2 = 2 mu), used as an algebraic cross-check of the
    general closed form."""
    st0, st1, st2 = math.sin(theta0), math.sin(theta1), math.sin(theta2)
    s12 = math.sin(theta1 + theta2)
    a11 = (kappa0 * ell1 - st0) / st2
    a12 = ell1 / (st0 * st2)
    a21 = (kappa0 * ell1 - st0) * (s12 - kappa2 * mu * st1) / (mu * st1) - kappa0 * st2
    a22 = ell1 * (s12 - kappa2 * mu * st1) / (mu * st0 * st1) - st2 / st0
    return np.array([[a11, a12], [a21, a22]])


# --- standard billiard comparison -------------------------------------------

def billiard_trace2(l: float, rho1: float, rho2: float) -> float:
    """Trace of the 2-periodic stability matrix of the *standard* billiard
    bounce between boundary points with curvature radii rho1, rho2 joined
    by a chord of length l.  Infinite radii are accepted (flat walls)."""
    if l <= 0:
        raise ValueError(f"chord length must be positive, got {l}")
    k1 = 0.0 if math.isinf(rho1) else 1.0 / rho1
    k2 = 0.0 if math.isinf(rho2) else 1.0 / rho2
    return 2.0 - 4.0 * l * (k1 + k2) + 4.0 * l * l * k1 * k2


def classify_billiard2(
    l: float, rho1: float, rho2: float, tol: float = CLOSED_FORM_TOL
) -> StabilityVerdict:
    """Classification of the standard-billiard 2-periodic bounce.

    With finite positive radii: hyperbolic iff l in (min, max) u
    (rho1 + rho2, inf), elliptic iff l in (0, min) u (max, rho1 + rho2),
    parabolic at l in {rho1, rho2, rho1 + rho2}; flat walls give trace 2.
    """
    return classify(billiard_trace2(l, rho1, rho2), tol)
