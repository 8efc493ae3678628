"""Trace classification and the 2-periodic interval theory."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import composed_trace
from imbilliards.cli import _CHECK_MEMBERS, _member
from imbilliards.dynamics import PhasePoint, StepData, jacobian_analytic
from imbilliards.errors import NotPeriodic
from imbilliards.stability import (
    StabilityClass,
    TwoPeriodicParams,
    billiard_trace2,
    classify,
    classify2_general,
    classify_billiard2,
    compose,
    stability_matrix,
    trace2_closed,
    two_periodic_step_matrix,
)

E, P, H = StabilityClass.ELLIPTIC, StabilityClass.PARABOLIC, StabilityClass.HYPERBOLIC

nonzero = st.floats(min_value=0.02, max_value=50.0).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@pytest.mark.parametrize(
    "trace, expected",
    [
        (0.0, E),
        (1.999, E),
        (-1.999, E),
        (2.0, P),
        (-2.0, P),
        (2.0 + 5e-10, P),
        (2.0 + 5e-9, H),
        (-2.5, H),
        (194.0, H),
    ],
)
def test_classify_boundaries(trace, expected):
    assert classify(trace, tol=1e-9).cls is expected


def test_classify_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            classify(bad)


@settings(max_examples=300, deadline=None)
@given(alpha=nonzero, beta=nonzero, delta=nonzero)
def test_trace_factorizations(alpha, beta, delta):
    """Two exact polynomial identities behind the interval classification:
    trace - 2 = a*b*d*(a - 2/b - 2/d) and
    trace + 2 = b*d*(a - 2/b)*(a - 2/d)."""
    p = TwoPeriodicParams(alpha=alpha, beta=beta, delta=delta)
    t = trace2_closed(p)
    scale = 4.0 + abs(alpha * beta * delta * alpha) + 2.0 * abs(alpha * beta) + 2.0 * abs(alpha * delta)
    lhs_minus = alpha * beta * delta * (alpha - 2.0 / beta - 2.0 / delta)
    lhs_plus = beta * delta * (alpha - 2.0 / beta) * (alpha - 2.0 / delta)
    assert abs((t - 2.0) - lhs_minus) < 1e-11 * scale
    assert abs((t + 2.0) - lhs_plus) < 1e-11 * scale


def test_equal_angle_square_identity():
    """beta = delta collapses the trace to (alpha*beta - 2)^2 - 2."""
    for alpha, beta in ((0.5, 1.3), (3.0, 0.25), (10.0, 2.0)):
        p = TwoPeriodicParams(alpha=alpha, beta=beta, delta=beta)
        assert trace2_closed(p) == pytest.approx((alpha * beta - 2.0) ** 2 - 2.0, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, expected_cls, expected_interval",
    [
        (1.0, E, "(0,m)"),
        (2.0, P, "{m}"),
        (3.0, H, "(m,M)"),
        (4.0, P, "{M}"),
        (5.0, E, "(M,m+M)"),
        (6.0, P, "{m+M}"),
        (7.0, H, "(m+M,inf)"),
    ],
)
def test_convex_interval_walk(alpha, expected_cls, expected_interval):
    """beta = 1, delta = 1/2 gives thresholds m = 2, M = 4, m + M = 6;
    walking alpha through them, one point in each interval of case (v)
    (``expected_interval``), visits E P H P E P H."""
    verdict, diag = classify2_general(TwoPeriodicParams(alpha, 1.0, 0.5))
    assert (diag.case, diag.swapped) == ("v", False)
    assert verdict.cls is diag.predicted is expected_cls, expected_interval


def test_convex_collapsed_thresholds():
    """beta = delta = 1 collapses m = M = 2: the parabolic set is {2, 4}, and
    alpha between them, the interior of the collapsed middle interval, is
    elliptic."""
    for alpha, expected_cls in ((2.0, P), (3.0, E), (4.0, P)):
        verdict, diag = classify2_general(TwoPeriodicParams(alpha, 1.0, 1.0))
        assert diag.case == "v"
        assert verdict.cls is diag.predicted is expected_cls


def test_convex_requires_positive_parameters():
    """Case (v), the convex statement, needs beta > 0 and delta > 0."""
    for params in (TwoPeriodicParams(1.0, -0.5, 1.0), TwoPeriodicParams(1.0, 1.0, 0.0)):
        assert classify2_general(params)[1].case != "v"


@pytest.mark.parametrize(
    "params, case, swapped, expected_cls",
    [
        # (i) both focusing parameters vanish: parabolic for every alpha.
        (TwoPeriodicParams(0.7, 0.0, 0.0), "i", False, P),
        (TwoPeriodicParams(99.0, 0.0, 0.0), "i", False, P),
        # (ii) both non-positive, not both zero: always hyperbolic.
        (TwoPeriodicParams(1.0, -1.0, 0.0), "ii", False, H),
        (TwoPeriodicParams(1.0, 0.0, -1.0), "ii", False, H),
        (TwoPeriodicParams(2.5, -1.0, -2.0), "ii", False, H),
        # (iii) single threshold at 2/beta.
        (TwoPeriodicParams(1.0, 1.0, 0.0), "iii", False, E),
        (TwoPeriodicParams(2.0, 1.0, 0.0), "iii", False, P),
        (TwoPeriodicParams(3.0, 1.0, 0.0), "iii", False, H),
        (TwoPeriodicParams(0.5, 2.0, -0.5), "iii", False, E),
        (TwoPeriodicParams(1.0, 2.0, -0.5), "iii", False, P),
        (TwoPeriodicParams(2.0, 2.0, -0.5), "iii", False, H),
        (TwoPeriodicParams(1.0, 0.0, 1.0), "iii", True, E),
        (TwoPeriodicParams(2.0, -0.5, 2.0), "iii", True, H),
        # (iv) elliptic window (2/b + 2/d, 2/b) for b > 0 > d.
        (TwoPeriodicParams(1.75, 1.0, -4.0), "iv", False, E),
        (TwoPeriodicParams(1.5, 1.0, -4.0), "iv", False, P),
        (TwoPeriodicParams(2.0, 1.0, -4.0), "iv", False, P),
        (TwoPeriodicParams(1.0, 1.0, -4.0), "iv", False, H),
        (TwoPeriodicParams(3.0, 1.0, -4.0), "iv", False, H),
        (TwoPeriodicParams(1.75, -4.0, 1.0), "iv", True, E),
        # (v) both positive: convex interval statement.
        (TwoPeriodicParams(1.0, 1.0, 0.5), "v", False, E),
        (TwoPeriodicParams(3.0, 1.0, 0.5), "v", False, H),
    ],
)
def test_general_five_cases(params, case, swapped, expected_cls):
    verdict, diag = classify2_general(params)
    assert diag.case == case
    assert diag.swapped is swapped
    assert diag.predicted is expected_cls
    assert verdict.cls is expected_cls


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(min_value=0.02, max_value=50.0),
    beta=st.one_of(st.just(0.0), nonzero),
    delta=st.one_of(st.just(0.0), nonzero),
)
def test_general_prediction_agrees_with_trace(alpha, beta, delta):
    """Away from the parabolic thresholds the interval prediction and the
    trace classification must coincide for every sign pattern."""
    p = TwoPeriodicParams(alpha, beta, delta)
    t = trace2_closed(p)
    assume(abs(abs(t) - 2.0) > 1e-6)
    thresholds = []
    for x in (beta, delta):
        if x != 0.0:
            thresholds.append(2.0 / x)
    if beta != 0.0 and delta != 0.0:
        thresholds.append(2.0 / beta + 2.0 / delta)
    if thresholds:
        gap = min(abs(alpha - c) for c in thresholds)
        assume(gap > 1e-6 * max(1.0, max(abs(c) for c in thresholds)))
    verdict, diag = classify2_general(p)
    assert diag.predicted is verdict.cls


def test_quarter_turn_matrix_matches_general_linearization(rng):
    """The dedicated 2-periodic step matrix is the chi = pi/2,
    ell2 = 2 mu specialization of the general one."""
    for _ in range(25):
        theta0, theta1, theta2 = rng.uniform(0.2, math.pi - 0.2, size=3)
        ell1 = float(rng.uniform(0.1, 3.0))
        mu = float(rng.uniform(0.05, 1.0))
        kappa0, kappa2 = rng.uniform(0.0, 2.0, size=2)
        M = two_periodic_step_matrix(
            float(theta0), float(theta1), float(theta2), ell1, mu,
            float(kappa0), float(kappa2),
        )
        d = StepData(
            s0=0.0, theta0=float(theta0), s1=0.0, theta1=float(theta1),
            s2=0.0, theta2=float(theta2), ell1=ell1, ell2=2.0 * mu,
            chi=0.5 * math.pi, kappa0=float(kappa0), kappa1=0.0,
            kappa2=float(kappa2), mu=mu,
        )
        A = jacobian_analytic(d)
        assert np.linalg.norm(M - A) < 1e-10 * max(1.0, np.linalg.norm(A))
        assert abs(np.linalg.det(M) - 1.0) < 1e-9 * max(1.0, np.linalg.norm(M) ** 2)


def test_standard_billiard_two_periodic_classics():
    """Textbook checks for the pure-billiard 2-periodic trace: circle
    diameters are parabolic, the major-axis bounce of an ellipse is
    hyperbolic, the minor-axis bounce is elliptic except at a^2 = 2 b^2
    where it is parabolic (trace -2)."""
    assert billiard_trace2(2.0, 1.0, 1.0) == 2.0
    assert classify_billiard2(2.0, 1.0, 1.0).cls is P

    for a, b in ((2.0, 1.0), (3.0, 2.0), (1.5, 1.0)):
        rho = b * b / a
        assert classify_billiard2(2.0 * a, rho, rho).cls is H
        rho_minor = a * a / b
        expected = 2.0 + 16.0 * (b * b / (a * a)) * (b * b / (a * a) - 1.0)
        assert billiard_trace2(2.0 * b, rho_minor, rho_minor) == pytest.approx(expected, rel=1e-12)
        assert classify_billiard2(2.0 * b, rho_minor, rho_minor).cls is E

    a, b = math.sqrt(2.0), 1.0
    rho_minor = a * a / b
    assert billiard_trace2(2.0 * b, rho_minor, rho_minor) == pytest.approx(-2.0, abs=1e-12)
    assert classify_billiard2(2.0 * b, rho_minor, rho_minor).cls is P

    # Two flat walls: a neutral bouncing orbit.
    assert billiard_trace2(1.0, math.inf, math.inf) == 2.0


# --------------------------------------------------------------------------
# the composed Jacobian product
# --------------------------------------------------------------------------

def test_compose_matches_the_reference_product_on_the_check_members():
    for name, curve_cfg, section in _CHECK_MEMBERS:
        orbit, _, _ = _member(curve_cfg, section)
        S = compose(orbit.steps)
        assert float(S[0, 0] + S[1, 1]) == composed_trace(orbit), name


def test_compose_rejects_a_guarded_step():
    """An empty product is the identity.  A step at the edge of the domain
    raises in ``step`` itself (see ``test_dynamics``), so no record of one
    reaches ``compose``."""
    assert np.array_equal(compose(()), np.eye(2))


def test_stability_matrix_composes_the_orbit_it_iterates():
    """Re-iterating a member from its launch point reproduces the product of
    the member's own steps exactly."""
    for name, curve_cfg, section in _CHECK_MEMBERS:
        orbit, _, _ = _member(curve_cfg, section)
        S = stability_matrix(orbit.curve, orbit.mu, orbit.points[0], orbit.n)
        assert np.array_equal(S, compose(orbit.steps)), name


def test_stability_matrix_rejects_open_orbits_and_empty_periods():
    orbit, _, _ = _member(*_CHECK_MEMBERS[0][1:])
    assert orbit.n == 2
    with pytest.raises(NotPeriodic, match="does not close to period 1"):
        stability_matrix(orbit.curve, orbit.mu, orbit.points[0], 1)
    with pytest.raises(ValueError, match="at least 1"):
        stability_matrix(orbit.curve, orbit.mu, PhasePoint(0.3, 1.0), 0)
