"""Closed-form periodic families cross-checked against map composition."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.optimize import brentq

import reference_traces
from conftest import closed_and_measured, composed_trace, sample_phase_points
from imbilliards import cli, dynamics, families, stability
from imbilliards.curves import ArclengthTable, Circle, Ellipse
from imbilliards.dynamics import PhasePoint, jacobian_analytic
from imbilliards.errors import (
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
from imbilliards.families import (
    _circle_polygon,
    _orbit_from_seed,
    _root,
    _se_y,
    dual_orbit,
    ellipse4_reference_roots,
    find_periodic_newton,
    four_periodic_circle,
    four_periodic_ellipse,
    four_periodic_superellipse_axis,
    four_periodic_superellipse_diag,
    parabolic_roots,
    scan_family,
    superellipse_diag_ratio,
    superellipse_diag_tangential,
    three_periodic_circle,
    trace2_superellipse_axis,
    trace2_superellipse_diag,
    trace4_ellipse,
    trace4_superellipse_axis,
    trace4_superellipse_diag,
    two_periodic_circle,
    two_periodic_ellipse,
    two_periodic_stadium,
    two_periodic_superellipse_axis,
    two_periodic_superellipse_diag,
    x_hat,
)
from imbilliards.stability import CLOSURE_TOL, trace2_closed

SQRT3 = math.sqrt(3.0)


def assert_orbit_sane(orbit, n, rotation):
    assert orbit.n == n
    assert len(orbit.points) == n
    assert len(orbit.steps) == n
    assert len(orbit.boundary_points) == 2 * n
    assert orbit.residual <= 1e-7
    assert orbit.rotation == Fraction(*rotation)
    for d in orbit.steps:
        assert abs(d.ell2 - 2.0 * orbit.mu * math.sin(d.chi)) < 1e-9


def rel_close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# ------------------------------------------------------------------
# 2-periodic families
# ------------------------------------------------------------------

def test_two_periodic_circle_is_parabolic_throughout():
    for mu in np.linspace(0.05, 0.95, 19):
        orbit, params = two_periodic_circle(1.0, float(mu))
        assert_orbit_sane(orbit, 2, (1, 2))
        for d in orbit.steps:
            assert abs(d.chi - 0.5 * math.pi) < 1e-9
            assert abs(math.cos(d.theta0) - mu) < 1e-9  # cos(theta0) = mu / R
        for p in closed_and_measured(orbit, params, 1e-10):
            assert abs(p.alpha * p.beta - 4.0) < 1e-10
            assert p.beta == pytest.approx(p.delta, abs=1e-10)
            assert trace2_closed(p) == pytest.approx(2.0, abs=1e-9)
        assert composed_trace(orbit) == pytest.approx(2.0, abs=1e-7)


def test_two_periodic_circle_reference_values():
    orbit, params = two_periodic_circle(1.0, 0.5)
    # theta0 = pi/3, chord sqrt(3), alpha = 2 sqrt(3), beta = 2 cot(pi/3).
    assert orbit.steps[0].theta0 == pytest.approx(math.pi / 3.0, abs=1e-10)
    for p in closed_and_measured(orbit, params, 1e-10):
        assert p.alpha == pytest.approx(2.0 * SQRT3, rel=1e-10)
        assert p.beta == pytest.approx(2.0 / SQRT3, rel=1e-10)


def test_two_periodic_circle_scale_equivariance():
    """alpha, beta, delta are dimensionless: scaling (R, mu) together must
    reproduce them exactly."""
    _, p1 = two_periodic_circle(1.0, 0.37)
    _, p2 = two_periodic_circle(2.0, 0.74)
    assert p1.alpha == pytest.approx(p2.alpha, rel=1e-9)
    assert p1.beta == pytest.approx(p2.beta, rel=1e-9)
    assert p1.delta == pytest.approx(p2.delta, rel=1e-9)


def test_two_periodic_circle_rejects_large_mu():
    with pytest.raises(MuTooLarge):
        two_periodic_circle(1.0, 1.0)
    with pytest.raises(MuTooLarge):
        two_periodic_circle(1.0, -0.1)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (3.0, 2.0), (1.5, 1.0)])
def test_two_periodic_ellipse_product_identities(a, b):
    """alpha*beta = 4a^2/b^2 on the major axis and 4b^2/a^2 on the minor."""
    for axis, product in (("major", 4.0 * a * a / (b * b)), ("minor", 4.0 * b * b / (a * a))):
        cap = 2.0 * a * b * b / (a * a + b * b) if axis == "major" else 2.0 * a * a * b / (a * a + b * b)
        cap = min(cap, b if axis == "major" else a)
        for mu in np.linspace(0.1, 0.95, 8) * cap:
            orbit, params = two_periodic_ellipse(a, b, float(mu), axis=axis)
            assert_orbit_sane(orbit, 2, (1, 2))
            expected = (product - 2.0) ** 2 - 2.0
            for p in closed_and_measured(orbit, params, 1e-10):
                assert abs(p.alpha * p.beta - product) < 1e-10 * max(1.0, product)
                assert p.beta == pytest.approx(p.delta, abs=1e-9)
                assert rel_close(trace2_closed(p), expected, 1e-9)
            assert rel_close(composed_trace(orbit), expected, 1e-7)


def test_two_periodic_ellipse_reference_values():
    orbit, params = two_periodic_ellipse(2.0, 1.0, 0.5, axis="major")
    for p in closed_and_measured(orbit, params, 1e-9):
        assert p.alpha == pytest.approx(4.0 * SQRT3, rel=1e-9)
        assert p.beta == pytest.approx(4.0 / SQRT3, rel=1e-9)
        assert trace2_closed(p) == pytest.approx(194.0, rel=1e-9)
    assert composed_trace(orbit) == pytest.approx(194.0, rel=1e-7)

    orbit, params = two_periodic_ellipse(2.0, 1.0, 0.5, axis="minor")
    for p in closed_and_measured(orbit, params, 1e-9):
        assert trace2_closed(p) == pytest.approx(-1.0, abs=1e-9)


def test_two_periodic_ellipse_root_two_aspect_is_parabolic():
    """a^2 = 2 b^2 makes the minor-axis product alpha*beta = 2: trace -2."""
    a = math.sqrt(2.0)
    for mu in (0.2, 0.5, 0.8):
        orbit, params = two_periodic_ellipse(a, 1.0, mu, axis="minor")
        for p in closed_and_measured(orbit, params, 1e-9):
            assert trace2_closed(p) == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("construct", [
    lambda: two_periodic_circle(0.0, 0.1),
    lambda: three_periodic_circle(-1.0, 0.1),
    lambda: four_periodic_circle(0.0, 0.1, "3/4"),
    lambda: two_periodic_ellipse(2.0, 0.0, 0.1),
    lambda: two_periodic_ellipse(1.0, 1.0, 0.1, axis="minor"),
    lambda: two_periodic_stadium(0.0, 1.0, 0.1, kind="caps"),
    lambda: two_periodic_stadium(2.0, -1.0, 0.1, kind="sides"),
], ids=["circle-2", "circle-3", "circle-4", "ellipse-b0", "ellipse-a-eq-b",
        "stadium-side0", "stadium-R-negative"])
def test_constructors_refuse_bad_table_sizes(construct):
    """The curve class refuses a table of bad size, before any orbit test."""
    with pytest.raises(ValueError):
        construct()


def test_two_periodic_ellipse_feasibility():
    # (2, 1) major: arc re-entry caps mu at 2*a*b^2/(a^2+b^2) = 0.8 < b.
    with pytest.raises(InfeasibleStadium):
        two_periodic_ellipse(2.0, 1.0, 0.85, axis="major")
    with pytest.raises(MuTooLarge):
        two_periodic_ellipse(2.0, 1.0, 1.2, axis="major")
    with pytest.raises(MuTooLarge):
        two_periodic_ellipse(2.0, 1.0, 2.5, axis="minor")
    with pytest.raises(ValueError):
        two_periodic_ellipse(2.0, 1.0, 0.3, axis="diagonal")
    with pytest.raises(ValueError):
        two_periodic_ellipse(1.0, 2.0, 0.3)


@pytest.mark.parametrize("k", [2, 3])
def test_two_periodic_superellipse_axis_identities(k):
    for mu in np.linspace(0.15, 0.9, 8):
        orbit, params, (mu_star, mu_dstar) = two_periodic_superellipse_axis(k, float(mu))
        assert_orbit_sane(orbit, 2, (1, 2))
        w = mu ** (-2 * k) - 1.0
        for p in closed_and_measured(orbit, params, 1e-9):
            assert rel_close(p.alpha, p.beta * w, 1e-9)
            assert rel_close(p.alpha * p.beta, 4.0 * w ** ((1.0 - k) / k), 1e-9)
            assert p.beta == pytest.approx(p.delta, rel=1e-9)
            expected = (p.alpha * p.beta - 2.0) ** 2 - 2.0
            assert rel_close(composed_trace(orbit), expected, 1e-7)


@pytest.mark.parametrize(
    "k, mu_star, mu_dstar",
    [
        (2, 0.668740304976422, 0.8408964152537145),
        (3, (2.0 ** 1.5 + 1.0) ** (-1.0 / 6.0), 2.0 ** (-1.0 / 6.0)),
        (4, (2.0 ** (4.0 / 3.0) + 1.0) ** (-1.0 / 8.0), 2.0 ** (-1.0 / 8.0)),
    ],
)
def test_superellipse_axis_thresholds(k, mu_star, mu_dstar):
    """mu* (tangential trace -2) and mu** (transversal trace +2) sit at
    the advertised closed forms; the trace confirms both."""
    _, _, (m1, m2) = two_periodic_superellipse_axis(k, 0.5)
    assert m1 == pytest.approx(mu_star, abs=1e-12)
    assert m2 == pytest.approx(mu_dstar, abs=1e-12)

    def closed_trace(mu: float) -> float:
        prod = 4.0 * (mu ** (-2 * k) - 1.0) ** ((1.0 - k) / k)
        return (prod - 2.0) ** 2 - 2.0

    assert closed_trace(m1) == pytest.approx(-2.0, abs=1e-9)
    assert closed_trace(m2) == pytest.approx(2.0, abs=1e-9)
    # Elliptic on both sides of mu*, hyperbolic beyond mu**.
    assert -2.0 < closed_trace(0.8 * m1) < 2.0
    assert -2.0 < closed_trace(0.5 * (m1 + m2)) < 2.0
    assert closed_trace(0.5 * (m2 + 1.0)) > 2.0


@pytest.mark.parametrize("k", [2, 3])
def test_two_periodic_superellipse_diag_trace_identities(k):
    q = 2.0 ** (-1.0 / (2 * k))
    for x0 in np.linspace(-0.95 * q, 0.95 * q, 9):
        orbit, params, f = two_periodic_superellipse_diag(k, float(x0))
        assert_orbit_sane(orbit, 2, (1, 2))
        for p in closed_and_measured(orbit, params, 1e-8):
            t = trace2_closed(p)
            assert rel_close(t - 2.0, 16.0 * f * (f - 1.0), 1e-8)
            assert rel_close(t + 2.0, 4.0 * (2.0 * f - 1.0) ** 2, 1e-8)
            assert rel_close(composed_trace(orbit), t, 1e-7)
            # Verdict structure: hyperbolic iff f > 1 iff x0 > 0.
            if x0 > 1e-6:
                assert t > 2.0
            elif x0 < -1e-6:
                assert -2.0 <= t < 2.0


@pytest.mark.parametrize("k", [2, 3])
def test_superellipse_diag_ratio_limits(k):
    """f tends to 1/(2k-1) at x0 = -q and to 2k-1 at x0 = +q; at the
    endpoints themselves (where the chord degenerates and no orbit
    exists) the ratio function takes the limit values exactly."""
    q = 2.0 ** (-1.0 / (2 * k))
    assert superellipse_diag_ratio(k, -q) == pytest.approx(1.0 / (2 * k - 1), abs=1e-12)
    assert superellipse_diag_ratio(k, q) == pytest.approx(float(2 * k - 1), abs=1e-12)
    assert superellipse_diag_ratio(k, -q + 1e-8) == pytest.approx(1.0 / (2 * k - 1), abs=1e-6)
    assert superellipse_diag_ratio(k, q - 1e-8) == pytest.approx(float(2 * k - 1), abs=1e-6)
    _, _, f_mid = two_periodic_superellipse_diag(k, 0.0)
    assert f_mid == pytest.approx(1.0, abs=1e-12)
    # The orbit constructor reports the same ratio where both exist.
    _, _, f_orbit = two_periodic_superellipse_diag(k, -0.4 * q)
    assert f_orbit == pytest.approx(superellipse_diag_ratio(k, -0.4 * q), rel=1e-14)


def test_superellipse_diag_tangential_point():
    x_t, mu_t = superellipse_diag_tangential(2)
    assert x_t == pytest.approx(-0.37995997440465035, abs=1e-10)
    assert mu_t == pytest.approx(0.972065420906982, abs=1e-10)
    orbit, params, f = two_periodic_superellipse_diag(2, x_t)
    assert f == pytest.approx(0.5, abs=1e-12)
    for p in closed_and_measured(orbit, params, 1e-9):
        assert trace2_closed(p) == pytest.approx(-2.0, abs=1e-9)
    assert composed_trace(orbit) == pytest.approx(-2.0, abs=1e-7)
    # k = 3 also has an interior tangential point in (-q, 0).
    x_t3, _ = superellipse_diag_tangential(3)
    assert -(2.0 ** (-1.0 / 6.0)) < x_t3 < 0.0


def test_two_periodic_superellipse_diag_domain():
    q = 2.0 ** (-0.25)
    for bad in (-q, q, 0.99, -1.5):
        with pytest.raises(X0OutOfRange):
            two_periodic_superellipse_diag(2, bad)


def test_two_periodic_stadium_sides_is_exactly_parabolic():
    for mu in (0.2, 0.5, 0.9):
        orbit, params = two_periodic_stadium(2.0, 1.0, mu, kind="sides")
        assert_orbit_sane(orbit, 2, (1, 2))
        closed_and_measured(orbit, params, 1e-9)
        assert params.beta == 0.0 and params.delta == 0.0
        assert trace2_closed(params) == 2.0
        assert composed_trace(orbit) == pytest.approx(2.0, abs=1e-9)
        for d in orbit.steps:
            assert abs(d.theta0 - 0.5 * math.pi) < 1e-9
            assert d.kappa0 == 0.0


def test_two_periodic_stadium_caps_is_hyperbolic():
    side, R = 2.0, 1.0
    for mu in np.linspace(0.05, 0.95, 10):
        orbit, params = two_periodic_stadium(side, R, float(mu), kind="caps")
        expected_alpha = side / mu + 2.0 * math.sqrt(R * R - mu * mu) / mu
        for p in closed_and_measured(orbit, params, 1e-9):
            assert rel_close(p.alpha, expected_alpha, 1e-9)
            assert trace2_closed(p) > 2.0
        assert composed_trace(orbit) > 2.0


def test_two_periodic_stadium_feasibility():
    with pytest.raises(MuTooLarge):
        two_periodic_stadium(2.0, 1.0, 1.0, kind="sides")  # 2 mu = side
    with pytest.raises(MuTooLarge):
        two_periodic_stadium(2.0, 1.0, 1.0, kind="caps")
    with pytest.raises(ValueError):
        two_periodic_stadium(2.0, 1.0, 0.3, kind="diagonal")


def test_the_major_axis_trace_is_exact_at_small_mu():
    """alpha*beta = 4a^2/b^2 whatever mu is, so the trace is 194 on
    Ellipse(2, 1); measured from the orbit's steps it read 193.99999995589
    at mu = 1e-3, 2.3e-10 off."""
    orbit, params = two_periodic_ellipse(2.0, 1.0, 1e-3, "major")
    _, trace, _ = families.FAMILIES[("ellipse", "two-periodic-major")].member(
        {"kind": "ellipse", "a": 2.0, "b": 1.0}, 1e-3, None)
    for t in (trace, trace2_closed(params)):
        assert abs(t - 194.0) <= 1e-13 * 194.0
    assert rel_close(composed_trace(orbit), 194.0, 1e-7)


def test_the_circle_row_is_parabolic_to_rounding():
    """alpha*beta = 4 on the circle; measured from the steps the trace read
    1.99999999999633 at mu = 0.01."""
    _, trace, _ = families.FAMILIES[("circle", "two-periodic")].member(
        {"kind": "circle", "R": 1.0}, 0.01, None)
    assert abs(trace - 2.0) <= 1e-14


def _tampered(iterate):
    """``iterate`` whose points are the real ones but whose step records
    have every angle shifted by 1e-6 and the chord stretched by 1e-6."""
    def tampered(*args, **kwargs):
        return [(z, dataclasses.replace(
                    d, theta0=d.theta0 + 1e-6, theta1=d.theta1 + 1e-6,
                    theta2=d.theta2 + 1e-6, chi=d.chi + 1e-6, ell1=d.ell1 * (1.0 + 1e-6)))
                for z, d in iterate(*args, **kwargs)]
    return tampered


@pytest.mark.parametrize("name, curve_cfg, section", cli._CHECK_MEMBERS,
                         ids=[name for name, _, _ in cli._CHECK_MEMBERS])
def test_check_members_read_no_step_data(monkeypatch, name, curve_cfg, section):
    """The trace and extras of every ``check`` member are closed forms: step
    records tampered with after the orbit closed change neither, so the
    composed product that ``check`` compares them with is a second route."""
    orbit, trace, extras = cli._member(curve_cfg, section)
    monkeypatch.setattr(stability, "iterate", _tampered(stability.iterate))
    tampered, tampered_trace, tampered_extras = cli._member(curve_cfg, section)
    assert tampered.steps[0].theta0 == orbit.steps[0].theta0 + 1e-6  # the patch took effect
    assert (tampered_trace, tampered_extras) == (trace, extras)


#: the ``check`` members on the tables that have a size
SIZED_MEMBERS = [member for member in cli._CHECK_MEMBERS if member[1]["kind"] != "superellipse"]
#: extras with the dimension of a length; the others are pure numbers
LENGTH_EXTRAS = ("mu", "ell1", "ell3")


@pytest.mark.parametrize("m", [-400, -200, -70, -30, 30, 70, 200, 400])
@pytest.mark.parametrize("name, curve_cfg, section", SIZED_MEMBERS,
                         ids=[name for name, _, _ in SIZED_MEMBERS])
def test_every_sized_family_row_commutes_with_power_of_two_scaling(name, curve_cfg, section, m):
    """Scaling the table's sizes and the member's ``mu`` or ``x0`` by 2^m
    keeps the trace, the dimensionless extras, every launch point
    ``(s/2^m, theta)`` and the residual bit for bit, and scales ``mu``,
    ``ell1`` and ``ell3`` by exactly 2^m.  The ellipse 4-periodic trace
    raised the sizes to degree 16 (``ZeroDivisionError`` from m = -70, nan
    at 70, ``OverflowError`` at 200), and the 2-periodic ellipse bound
    ``2ab cap/(a^2 + b^2)`` underflowed to 0 at m = -400."""
    scale = 2.0 ** m
    orbit, trace, extras = cli._member(curve_cfg, section)
    got, got_trace, got_extras = cli._member(
        {key: value * scale if key != "kind" else value for key, value in curve_cfg.items()},
        {key: value * scale if key in ("mu", "x0") else value for key, value in section.items()})
    assert got_trace == trace
    assert got.mu == orbit.mu * scale
    assert got.residual == orbit.residual
    assert [(z.s / scale, z.theta) for z in got.points] == [(z.s, z.theta) for z in orbit.points]
    assert [key for key, _ in got_extras] == [key for key, _ in extras]
    for (key, value), (_, want) in zip(got_extras, extras):
        assert value == (want * scale if key in LENGTH_EXTRAS else want), key


# ------------------------------------------------------------------
# 3-periodic families
# ------------------------------------------------------------------

@pytest.mark.parametrize("rot, q", [("1/3", 1), ("2/3", 2)])
def test_three_periodic_circle_is_parabolic(rot, q):
    R = 1.0
    for mu in np.linspace(0.05, 0.95, 12):
        orbit, theta, trace = three_periodic_circle(R, float(mu), rot)
        assert_orbit_sane(orbit, 3, (q, 3))
        assert (q - 1) * math.pi / 3.0 < theta < q * math.pi / 3.0
        # Closed-form incidence angle.
        disc = math.sqrt(4.0 * R * R - 3.0 * mu * mu)
        sign = 1.0 if q == 1 else -1.0
        assert math.cos(theta) == pytest.approx((3.0 * mu + sign * disc) / (4.0 * R), abs=1e-10)
        # Re-entry relation satisfied.
        gap = math.sqrt(R * R + mu * mu - 2.0 * R * mu * math.cos(theta))
        assert abs(math.sin(q * math.pi / 3.0 - theta) * gap - mu * math.sin(theta)) < 1e-10
        assert trace == pytest.approx(2.0, abs=1e-7)
        assert composed_trace(orbit) == pytest.approx(2.0, abs=1e-7)
        # All three arcs sweep 2 chi = 2 q pi / 3.
        for d in orbit.steps:
            assert abs(d.chi - q * math.pi / 3.0) < 1e-9


@pytest.mark.parametrize("mu", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("rot, q", [("1/3", 1), ("2/3", 2)])
def test_three_periodic_circle_closes_far_below_the_radius(rot, q, mu):
    """The circle steps as its exact rotation, so each step of the member
    has chi within 1e-14 of q pi/3 however small mu/R is (at most 1.1e-15
    was read).  The bracketed re-entry root it replaced was off by a few
    u R / mu: 2/3 at mu = 1e-8 closed only to 8e-9, and at 1e-10 and 1e-12
    both members were refused as ``NotPeriodic``."""
    orbit, _, trace = three_periodic_circle(1.0, mu, rot)
    assert_orbit_sane(orbit, 3, (q, 3))
    assert max(abs(d.chi - q * math.pi / 3.0) for d in orbit.steps) <= 1e-14
    assert abs(trace - 2.0) < 1e-12


# ------------------------------------------------------------------
# 4-periodic: circle
# ------------------------------------------------------------------

@pytest.mark.parametrize("rot, q", [("1/4", 1), ("3/4", 3)])
def test_four_periodic_circle_is_parabolic(rot, q):
    R = 1.0
    for mu in np.linspace(0.05, 0.95, 12):
        orbit, theta, trace = four_periodic_circle(R, float(mu), rot)
        assert_orbit_sane(orbit, 4, (q, 4))
        assert (q - 1) * math.pi / 4.0 < theta < q * math.pi / 4.0
        # Re-entry relation satisfied.
        gap = math.sqrt(R * R + mu * mu - 2.0 * R * mu * math.cos(theta))
        assert abs(math.sin(q * math.pi / 4.0 - theta) * gap - mu * math.sin(theta)) < 1e-10
        assert trace == pytest.approx(2.0, abs=1e-7)
        assert composed_trace(orbit) == pytest.approx(2.0, abs=1e-7)


def test_circle_polygon_traces_keep_their_accuracy_far_below_the_radius():
    """At mu/R = 1e-8 the closed traces stay within 1e-12 of 2; a trace
    formula evaluated from theta read 1.9999992 … 2.00000028 there."""
    for build, rotations in ((three_periodic_circle, ("1/3", "2/3")),
                             (four_periodic_circle, ("1/4", "3/4"))):
        for rot in rotations:
            _, _, trace = build(1.0, 1e-8, rot)
            assert abs(trace - 2.0) < 1e-12, (build.__name__, rot, trace)


@pytest.mark.parametrize("n, q", [(3, 1), (3, 2), (4, 1), (4, 3)])
def test_circle_polygon_angle_is_within_4_ulp_of_the_50_digit_reentry_root(n, q):
    """The closed-form launch angle against a 50-digit root of the re-entry
    relation ``sin(q pi/n - theta) sqrt(R^2 + mu^2 - 2 R mu cos(theta)) =
    mu sin(theta)`` on ``((q-1) pi/n, q pi/n)``, which states that the Larmor
    chord closes the polygon rather than equating its two lengths.  The error
    bound is 4 ulp of ``q pi/n``, absolute."""
    bound = 4.0 * math.ulp(q * math.pi / n)
    with mp.workdps(50):
        lo, hi = (q - 1) * mp.pi / n, q * mp.pi / n
        for R in (1.0, 2.5):
            for ratio in (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.95, 0.999, 0.9999):
                mu = ratio * R
                Rm, mum = mpf(R), mpf(mu)

                def reentry(theta):
                    gap = mp.sqrt(Rm * Rm + mum * mum - 2 * Rm * mum * mp.cos(theta))
                    return mp.sin(hi - theta) * gap - mum * mp.sin(theta)

                exact = mp.findroot(reentry, (lo, hi), solver="anderson")
                assert lo < exact < hi
                got = _circle_polygon(R, mu, n, Fraction(q, n))[1]
                assert abs(got - exact) <= bound, (R, mu, float(got - exact))


def _assert_shear(J):
    """``J`` is ``[[1, *], [0, 1]]`` to 1e-12 of its largest entry."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(J))))
    assert abs(J[0, 0] - 1.0) <= tol and abs(J[1, 0]) <= tol and abs(J[1, 1] - 1.0) <= tol, J


@pytest.mark.parametrize("mu", [0.01, 0.35, 3.0, 1e4])
def test_every_circle_step_is_a_shear(mu, rng):
    """The circle's map keeps theta and moves s by a function of theta
    alone, so each step's derivative is ``[[1, ds2/du0], [0, 1]]``: this is
    why every circle orbit's trace is 2.  At most 3.9e-14 was read (mu =
    0.01).  At mu = 1e-6 the analytic Jacobian itself reads 4.3e-10 off a
    shear, so that mu is not sampled (an error bar for it is open)."""
    curve = Circle(1.0)
    for z in sample_phase_points(curve, mu, 40, rng):
        _assert_shear(jacobian_analytic(dynamics.step(curve, mu, z)[1]))


def test_the_check_circle_members_step_by_shears():
    """Every step of the circle members whose traces ``imbil check`` prints."""
    members = [(curve, section) for _, curve, section in cli._CHECK_MEMBERS
               if curve["kind"] == "circle"]
    assert len(members) == 5
    for curve, section in members:
        orbit, _, _ = cli._member(curve, section)
        for d in orbit.steps:
            _assert_shear(jacobian_analytic(d))


@pytest.mark.parametrize("R", [1.0, 0.5, 4.0, 2.5, 3.0])
def test_two_periodic_circle_alpha_near_the_radius_within_1e_12_of_40_digits(R):
    """``alpha = 2 R sin(theta)/mu`` from the polygon's launch angle against
    ``2 sqrt(R^2 - mu^2)/mu`` at 40 digits.  The form ``2 sqrt(R^2 -
    mu^2)/mu`` in floats cancels as mu -> R: 5.5e-12 at mu/R = 0.999999 and
    2.8e-10 at 0.99999999 on Circle(1).  On R = 2.5 and 3, mu/R rounds; the
    launch angle takes 1 - (mu/R)^2 from R - mu, which is exact for
    mu >= R/2, so that rounding is not amplified as theta -> 0: at most
    4.3e-13 was read, where theta = pi/2 - asin(mu/R) read 2.2e-9 at R = 2.5
    and 1.9e-9 at R = 3, mu/R = 0.99999999."""
    with mp.workdps(40):
        for ratio in (0.9999, 0.999999, 0.99999999):
            mu = ratio * R
            _, params = two_periodic_circle(R, mu)
            exact = 2 * mp.sqrt(mpf(R) ** 2 - mpf(mu) ** 2) / mpf(mu)
            assert abs(params.alpha - exact) / exact <= 1e-12, (R, ratio)


# ------------------------------------------------------------------
# 4-periodic: ellipse
# ------------------------------------------------------------------

def ellipse4_grid(a, b, rot, n=7):
    lo, split, hi = (
        a * (a * a - b * b) / (a * a + b * b),
        a * a / math.sqrt(a * a + b * b),
        a,
    )
    pad = 1e-3 * (hi - lo)
    if rot == "1/4":
        return np.linspace(split + pad, hi - pad, n)
    return np.linspace(lo + pad, split - pad, n)


@pytest.mark.parametrize("a, b", [(3.0, 2.0), (2.0, 1.0)])
@pytest.mark.parametrize("rot", ["1/4", "3/4"])
def test_four_periodic_ellipse_closed_vs_composed(a, b, rot):
    for x0 in ellipse4_grid(a, b, rot):
        orbit, rec, trace = four_periodic_ellipse(a, b, float(x0), rot)
        assert_orbit_sane(orbit, 4, (1, 4) if rot == "1/4" else (3, 4))
        assert rel_close(composed_trace(orbit), trace, 1e-7)
        assert rel_close(trace, trace4_ellipse(a, b, float(x0)), 1e-12)


@pytest.mark.parametrize("rot", ["1/4", "3/4"])
def test_four_periodic_ellipse_record_geometry(rot):
    a, b = 3.0, 2.0
    for x0 in ellipse4_grid(a, b, rot, n=4):
        orbit, rec, _ = four_periodic_ellipse(a, b, float(x0), rot)
        sgn = 1.0 if rot == "1/4" else -1.0

        # Both launch abscissae lie on the ellipse.
        for x, y in ((rec.x0, rec.y0), (rec.x2, rec.y2)):
            assert abs((x / a) ** 2 + (y / b) ** 2 - 1.0) < 1e-10

        # Larmor radius as the x-extent of the chord that the diagonal
        # through the chord exit, x ± y = x0 + y0, cuts from the ellipse;
        # not the constructor's formula.  Positive on either branch.
        assert rec.mu == pytest.approx(
            2.0 * a * b * math.sqrt(a * a + b * b - (rec.x0 + rec.y0) ** 2) / (a * a + b * b),
            rel=1e-9,
        )
        assert rec.mu == pytest.approx(orbit.mu, rel=1e-12)

        # Chord lengths: vertical first chord 2*y0, horizontal second 2*x2.
        assert rec.ell1 == pytest.approx(2.0 * rec.y0, rel=1e-9)
        assert rec.ell3 == pytest.approx(2.0 * rec.x2, rel=1e-9)
        assert orbit.steps[0].ell1 == pytest.approx(rec.ell1, rel=1e-8)
        assert orbit.steps[1].ell1 == pytest.approx(rec.ell3, rel=1e-8)

        # Arc half-turning angle and launch-angle cosines (the recorded
        # values are acute references; on the 3/4 branch the interior
        # angles are their supplements).
        for d in orbit.steps:
            assert abs(d.chi - rec.chi) < 1e-8
        assert math.cos(orbit.steps[0].theta0) == pytest.approx(sgn * rec.cos_theta0, abs=1e-9)
        assert math.cos(orbit.steps[1].theta0) == pytest.approx(sgn * rec.cos_theta2, abs=1e-9)

        # Second launch point, with the mirrored ordinate on the 3/4 branch.
        p2 = orbit.boundary_points[2]
        assert p2[0] == pytest.approx(rec.x2, abs=1e-8)
        assert p2[1] == pytest.approx(sgn * rec.y2, abs=1e-8)


def test_four_periodic_ellipse_domain():
    a, b = 3.0, 2.0
    lo, split, hi = 15.0 / 13.0, 9.0 / math.sqrt(13.0), 3.0
    with pytest.raises(X0OutOfRange):
        four_periodic_ellipse(a, b, lo - 0.01, "3/4")
    with pytest.raises(X0OutOfRange):
        four_periodic_ellipse(a, b, hi + 0.01, "1/4")
    # Branch mismatch: x0 on the wrong side of the zero-radius point.
    with pytest.raises(X0OutOfRange):
        four_periodic_ellipse(a, b, split - 0.1, "1/4")
    with pytest.raises(X0OutOfRange):
        four_periodic_ellipse(a, b, split + 0.1, "3/4")


def test_ellipse4_reference_roots_closed_forms():
    r1, r2, r3 = ellipse4_reference_roots()
    assert r1 == pytest.approx(291.0 / (9.0 * math.sqrt(13.0)), rel=1e-14)
    assert r2 == pytest.approx(
        math.sqrt((88731.0 + 1575.0 * math.sqrt(217.0)) / 14534.0), rel=1e-14
    )
    assert r3 == pytest.approx(291.0 / (13.0 * math.sqrt(61.0)), rel=1e-14)


def _worst_rel_error(pairs):
    return max(abs(got - want) / max(1.0, abs(want)) for got, want in pairs)


@pytest.mark.parametrize("a, b", [(3.0, 2.0), (2.0, 1.0), (5.0, 1.0), (1.2, 1.0), (10.0, 1.0)])
def test_trace4_ellipse_agrees_with_its_40_digit_expanded_form(a, b):
    """The five-factor trace against the degree-16 rational it replaces, at
    40 digits, across the admissible window padded by 1e-3 of its span."""
    lo, _, hi = families._ellipse4_interval(a, b)
    pad = 1e-3 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 201).tolist()
    assert _worst_rel_error(
        (trace4_ellipse(a, b, x0), reference_traces.trace4_ellipse(a, b, x0)) for x0 in grid
    ) < 1e-11


def test_trace4_ellipse_meets_the_reference_thresholds():
    """On Ellipse(3, 2): -2 at the root of the squared factor of trace + 2,
    +2 at the root of ``B^2 (x + y) - B x + y`` and +2 at the branch point
    ``9/sqrt(13)``, the root of ``B x - y``."""
    _, r2, r3 = ellipse4_reference_roots()
    for x0, value in ((r2, -2.0), (r3, 2.0), (9.0 / math.sqrt(13.0), 2.0)):
        assert abs(trace4_ellipse(3.0, 2.0, x0) - value) < 1e-12, x0


def test_ellipse4_root_report_flags_stray_reference():
    """Numeric parabolic parameters: the zero-radius branch point (trace
    +2), one tangential touch of -2 and one transversal crossing; the
    first quoted closed form lies far outside the admissible interval and
    must be flagged, the other two must match numeric roots.  The census
    is the one ``imbil scan`` makes on its default window."""
    curve_cfg = {"kind": "ellipse", "a": 3.0, "b": 2.0}
    row, rotation = cli._family(curve_cfg, {"family": "four-periodic"}, scan=True)
    trace_fn, window, (lo, hi), refs = row.scan(curve_cfg, rotation)
    roots = scan_family(trace_fn, *window, parameter=row.param, n_grid=2000).thresholds
    assert lo == pytest.approx(15.0 / 13.0, rel=1e-12)
    assert hi == pytest.approx(3.0, rel=1e-12)
    assert tuple(inside for _, inside in refs) == (False, True, True)

    # The first root sits at the zero-radius branch point where the trace
    # meets +2 with a vertical tangent, so its location is only good to
    # about the square root of the trace tolerance; the other two are
    # ordinary roots and come out sharp.
    expected = (2.4961508830135313, 2.7751402706262516, 2.8660563123440563)
    tolerances = (1e-6, 1e-8, 1e-8)
    assert len(roots) == 3
    for got, want, tol in zip(sorted(roots), expected, tolerances):
        assert got == pytest.approx(want, abs=tol)

    # The in-interval references agree with numeric roots to 1e-5.
    values = [ref for ref, _ in refs]
    assert min(abs(r - values[1]) for r in roots) < 1e-5
    assert min(abs(r - values[2]) for r in roots) < 1e-5
    assert min(abs(r - values[0]) for r in roots) > 1.0


def test_bracketed_root_solve():
    """Every family solve goes through ``_root``: without a sign change it
    raises RootNotBracketed (exit code 4), otherwise it returns Brent's float
    at the family tolerances."""
    with pytest.raises(RootNotBracketed, match=r"x\^2 \+ 1") as info:
        _root(lambda x: x * x + 1.0, -1.0, 1.0, "x^2 + 1")
    assert info.value.exit_code == 4
    # end values of one sign whose product underflows to 0
    with pytest.raises(RootNotBracketed, match="tiny"):
        _root(lambda x: 1e-200, 0.0, 1.0, "tiny")
    with pytest.raises(ValueError, match="NaN") as info:
        _root(lambda x: math.nan, 0.0, 1.0, "nan")
    assert not isinstance(info.value, RootNotBracketed)
    calls = []

    def g(x):
        calls.append(x)
        return math.cos(x) - x

    root = _root(g, 0.0, 1.0, "cos x - x")
    assert len(calls) == 8
    assert root == brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)


# ------------------------------------------------------------------
# 4-periodic: superellipse, diagonal arcs
# ------------------------------------------------------------------

@pytest.mark.parametrize("k, value", [(2, 0.98484637197994), (3, 0.9853248267311407)])
def test_x_hat_values(k, value):
    assert x_hat(k) == pytest.approx(value, abs=1e-10)


@pytest.mark.parametrize("k", [2, 3])
def test_four_periodic_superellipse_diag_quarter_branch(k):
    """Rotation 1/4 on (q, x_hat): hyperbolic all along, closed trace
    matching the composed one."""
    q = 2.0 ** (-1.0 / (2 * k))
    hi = x_hat(k)
    for x0 in np.linspace(q + 1e-3, hi - 1e-3, 7):
        orbit, trace = four_periodic_superellipse_diag(k, float(x0), "1/4")
        assert_orbit_sane(orbit, 4, (1, 4))
        assert trace > 2.0
        assert rel_close(composed_trace(orbit), trace, 1e-6)


@pytest.mark.parametrize("k", [2, 3])
def test_four_periodic_superellipse_diag_three_quarter_branch(k):
    q = 2.0 ** (-1.0 / (2 * k))
    for x0 in np.linspace(-0.98, q - 1e-3, 9):
        orbit, trace = four_periodic_superellipse_diag(k, float(x0), "3/4")
        assert_orbit_sane(orbit, 4, (3, 4))
        assert rel_close(composed_trace(orbit), trace, 1e-6)


def test_superellipse_diag_trace_special_points():
    for k in (2, 3):
        q = 2.0 ** (-1.0 / (2 * k))
        assert trace4_superellipse_diag(k, 0.0) == 2.0
        assert trace4_superellipse_diag(k, -q) == pytest.approx(2.0, abs=1e-9)
    # An elliptic stretch exists on the 3/4 branch (k = 2, near -0.3).
    t = trace4_superellipse_diag(2, -0.3)
    assert -2.0 < t < 2.0


def test_four_periodic_superellipse_diag_domain():
    with pytest.raises(BeyondXHat):
        four_periodic_superellipse_diag(2, 0.99, "1/4")
    q = 2.0 ** (-0.25)
    with pytest.raises(X0OutOfRange):
        four_periodic_superellipse_diag(2, q - 0.05, "1/4")
    with pytest.raises(X0OutOfRange):
        four_periodic_superellipse_diag(2, q + 0.05, "3/4")
    with pytest.raises(X0OutOfRange):
        four_periodic_superellipse_diag(2, -1.0, "3/4")


# ------------------------------------------------------------------
# 4-periodic: superellipse, axis-aligned arcs
# ------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("rot", ["1/4", "3/4"])
def test_four_periodic_superellipse_axis_closed_vs_composed(k, rot):
    # Stay 0.01 clear of |x0| = q: there mu reaches sqrt(2)*q and the
    # Larmor circle grazes all four corners of the table at once, so the
    # constructed orbit degenerates (the closed-form trace is still fine).
    q = 2.0 ** (-1.0 / (2 * k))
    lo = q + 0.01 if rot == "1/4" else -q + 0.01
    for x0 in np.linspace(lo, 0.997, 8):
        orbit, trace = four_periodic_superellipse_axis(k, float(x0), rot)
        assert_orbit_sane(orbit, 4, (1, 4) if rot == "1/4" else (3, 4))
        assert rel_close(composed_trace(orbit), trace, 1e-6)
        assert rel_close(trace, trace4_superellipse_axis(k, float(x0), rot), 1e-12)

        # Dihedral symmetry: the four step matrices share one trace t and
        # the composed trace is the Chebyshev image (t^2 - 2)^2 - 2.  The
        # per-step traces carry the boundary-lookup noise of the orbit
        # construction (~1e-7 relative), hence the looser spread bound.
        ts = [float(np.trace(jacobian_analytic(d))) for d in orbit.steps]
        assert max(ts) - min(ts) < 1e-6 * max(1.0, abs(ts[0]))
        t_mean = float(np.mean(ts))
        assert rel_close(trace, (t_mean ** 2 - 2.0) ** 2 - 2.0, 1e-6)
        # Rotation 3/4: the closed-form step trace that parabolic_roots
        # solves is that of the composed steps.
        if rot == "3/4":
            assert rel_close(families._axis_step_trace(k, float(x0)), t_mean, 1e-6)


def test_parabolic_roots_axis_quarter():
    """Rotation 1/4: a single transversal trace = +2 root, hyperbolic
    below it and elliptic above."""
    for k, want in ((2, 0.9792754384596497), (3, 0.9971420104409094)):
        (root,) = parabolic_roots(k, "1/4")
        assert root == pytest.approx(want, abs=1e-9)
        assert trace4_superellipse_axis(k, root, "1/4") == pytest.approx(2.0, abs=1e-7)
        assert trace4_superellipse_axis(k, root - 0.003, "1/4") > 2.0
        assert abs(trace4_superellipse_axis(k, root + 0.5 * (1.0 - root), "1/4")) < 2.0


@pytest.mark.parametrize(
    "k, expected",
    [
        (
            2,
            (0.0, 2.0 ** (-0.25), 0.914328689104131, 0.977146529828137, 0.997737467358199),
        ),
        (
            3,
            (0.0, 2.0 ** (-1.0 / 6.0), 0.933585736179959, 0.977473721960245, 0.996520011429145),
        ),
    ],
)
def test_parabolic_roots_axis_three_quarter(k, expected):
    roots = parabolic_roots(k, "3/4")
    assert len(roots) == 5
    for got, want in zip(roots, expected):
        assert got == pytest.approx(want, abs=1e-9)
    for r in roots:
        assert abs(abs(trace4_superellipse_axis(k, r, "3/4")) - 2.0) < 1e-7


# ------------------------------------------------------------------
# duality between the rotation-1/4 and rotation-3/4 families
# ------------------------------------------------------------------

def test_dual_orbit_ellipse_swaps_rotation_and_matches_family():
    a, b = 3.0, 2.0
    for x0 in ellipse4_grid(a, b, "1/4", n=5):
        orbit, rec, _ = four_periodic_ellipse(a, b, float(x0), "1/4")
        dual = dual_orbit(orbit)
        assert dual.rotation == Fraction(3, 4)
        assert dual.residual <= 1e-7
        assert dual.mu == pytest.approx(orbit.mu, rel=1e-12)
        # The dual is itself a member of the rotation-3/4 family, at the
        # parameter given by the second launch abscissa.
        assert rel_close(composed_trace(dual), trace4_ellipse(a, b, rec.x2), 1e-6)

        # Duality is an involution on the boundary point set.
        back = dual_orbit(dual)
        scale = max(a, b)
        for p, q in zip(back.boundary_points, orbit.boundary_points):
            assert float(np.max(np.abs(p - q))) < 1e-8 * scale


def test_dual_orbit_superellipse_diag_lands_on_mirror_parameter():
    """The dual of the diagonal quarter-turn orbit at x0 is the
    three-quarter-turn family member at x0' = y0(x0)."""
    k = 2
    for x0 in (0.87, 0.9, 0.95):
        orbit, _ = four_periodic_superellipse_diag(k, x0, "1/4")
        dual = dual_orbit(orbit)
        y0 = (1.0 - x0 ** (2 * k)) ** (1.0 / (2 * k))
        assert dual.rotation == Fraction(3, 4)
        assert rel_close(composed_trace(dual), trace4_superellipse_diag(k, y0), 1e-6)


def test_dual_orbit_superellipse_axis_keeps_parameter():
    """The axis families have mu = sqrt(2) * y0 on both branches, so the
    dual of the quarter-turn orbit at x0 is the three-quarter-turn orbit
    at the same x0."""
    k = 2
    for x0 in (0.9, 0.95):
        orbit, _ = four_periodic_superellipse_axis(k, x0, "1/4")
        dual = dual_orbit(orbit)
        assert dual.rotation == Fraction(3, 4)
        assert rel_close(composed_trace(dual), trace4_superellipse_axis(k, x0, "3/4"), 1e-6)


def test_an_orbit_from_a_seed_must_close_and_wind_as_expected():
    """A seed kicked off its orbit does not close, and a closed orbit that
    winds 1/4 per period is refused where 3/4 is expected."""
    orbit = four_periodic_ellipse(3.0, 2.0, 2.7, "1/4")[0]
    z = orbit.points[0]
    kicked = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
    with pytest.raises(NotPeriodic, match="does not close"):
        _orbit_from_seed(orbit.curve, orbit.mu, kicked, 4, None)
    with pytest.raises(NotPeriodic, match="winds 1/4 per period, expected 3/4"):
        _orbit_from_seed(orbit.curve, orbit.mu, z, 4, Fraction(3, 4))


def test_dual_orbit_rejects_unsuitable_orbits():
    orbit2, _ = two_periodic_circle(1.0, 0.4)
    with pytest.raises(ValueError):
        dual_orbit(orbit2)

    orbit, _, _ = four_periodic_ellipse(3.0, 2.0, 2.8, "1/4")
    pts = list(orbit.boundary_points)
    pts[5] = pts[5] + np.array([0.05, 0.0])
    broken = dataclasses.replace(orbit, boundary_points=tuple(pts))
    with pytest.raises(NotSymmetric):
        dual_orbit(broken)


# ------------------------------------------------------------------
# Newton refinement
# ------------------------------------------------------------------

def test_newton_recovers_perturbed_orbits():
    """Isolated (non-parabolic) periodic points are recovered from seeds
    perturbed by 1e-4 in both chart coordinates."""
    targets = [
        two_periodic_ellipse(2.0, 1.0, 0.5, axis="major")[0],        # trace 194
        two_periodic_ellipse(2.0, 1.0, 0.5, axis="minor")[0],        # trace -1
        four_periodic_ellipse(3.0, 2.0, 2.8, "1/4")[0],              # elliptic
        four_periodic_superellipse_diag(2, -0.3, "3/4")[0],          # elliptic
        two_periodic_stadium(2.0, 1.0, 0.5, kind="caps")[0],         # hyperbolic
    ]
    for orbit in targets:
        z = orbit.points[0]
        seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
        found = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=10)
        assert found.residual <= 1e-10
        assert abs(found.points[0].s - z.s) < 1e-6
        assert abs(found.points[0].theta - z.theta) < 1e-6


def test_newton_returns_the_orbit_it_converged_on(monkeypatch):
    """Newton packages the trajectory of its last residual evaluation, not a
    second iteration of the converged point: 3 evaluations of 4 steps."""
    orbit, _, _ = four_periodic_ellipse(3.0, 2.0, 2.7, "1/4")
    z = orbit.points[0]
    seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
    calls = []
    step = dynamics.step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(dynamics, "step", counted)
    found = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=10)
    assert len(calls) == 12
    again = _orbit_from_seed(orbit.curve, orbit.mu, found.points[0], 4, None)
    for field in dataclasses.fields(found):
        ours, theirs = getattr(found, field.name), getattr(again, field.name)
        if field.name == "boundary_points":
            assert all(np.array_equal(p, q) for p, q in zip(ours, theirs, strict=True))
        else:
            assert ours == theirs


def test_newton_composes_the_jacobians_of_accepted_states_only(monkeypatch):
    """The line search evaluates trials by their residual alone; the n step
    Jacobians are composed once per accepted state that misses ``tol``, the
    seed included, and not for the converged state that is returned.  On
    se-diag-4-rot14 the search rejects some trials, so composing every trial
    would call ``jacobian_analytic`` more often."""
    orbit, _ = four_periodic_superellipse_diag(2, 0.9, "1/4")
    z = orbit.points[0]
    seed = PhasePoint(s=z.s - 1e-4, theta=z.theta - 1e-4)
    residuals, jacobians = [], []
    state, jacobian = families._newton_state, stability.jacobian_analytic

    def counted_state(*args):
        try:
            result = state(*args)
        except BilliardError:
            residuals.append(math.inf)
            raise
        residuals.append(result[2])
        return result

    def counted_jacobian(d):
        jacobians.append(d)
        return jacobian(d)

    monkeypatch.setattr(families, "_newton_state", counted_state)
    monkeypatch.setattr(stability, "jacobian_analytic", counted_jacobian)
    found = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=10)
    accepted, best = 0, math.inf
    for r in residuals:
        if r < best:
            accepted, best = accepted + 1, r
    assert found.residual == best
    assert len(residuals) > accepted
    assert len(jacobians) == orbit.n * (accepted - 1)


def test_newton_raises_on_parabolic_families():
    """Parabolic orbits are non-isolated: perturbing a seed transversely
    to the family leaves Newton facing a singular matrix, which it must
    report rather than wander.  (A seed shifted *along* the family is
    itself periodic and converges trivially — also checked.)"""
    circle2, _ = two_periodic_circle(1.0, 0.45)
    circle3, _, _ = three_periodic_circle(1.0, 0.45, "1/3")
    circle4, _, _ = four_periodic_circle(1.0, 0.45, "1/4")
    stadium, _ = two_periodic_stadium(2.0, 1.0, 0.4, kind="sides")
    for orbit in (circle2, circle3, circle4, stadium):
        z = orbit.points[0]
        seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
        with pytest.raises(SingularJacobian):
            find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=10)
        shifted = find_periodic_newton(
            orbit.curve, orbit.mu, orbit.n, PhasePoint(s=z.s + 1e-4, theta=z.theta)
        )
        assert shifted.residual <= 1e-10


def test_newton_lets_programming_errors_through(monkeypatch):
    """Only a BilliardError means the trajectory left the domain; any other
    exception raised by a map step must reach the caller unchanged."""
    orbit, _ = two_periodic_ellipse(2.0, 1.0, 0.5, axis="major")

    def broken_step(*args, **kwargs):
        raise RuntimeError("bug in a map step")

    monkeypatch.setattr(dynamics, "step", broken_step)
    with pytest.raises(RuntimeError, match="bug in a map step"):
        find_periodic_newton(orbit.curve, orbit.mu, orbit.n, orbit.points[0])


def test_newton_reports_a_seed_in_the_identity_region():
    """A seed at theta = 0 lies outside the domain: its first step raises
    TangentialChord, and Newton reports the seed as leaving the domain."""
    with pytest.raises(NoConvergence, match="leaves the domain"):
        find_periodic_newton(Ellipse(2.0, 1.0), 0.3, 2, PhasePoint(0.1, 0.0))


def test_newton_rejects_hopeless_seeds():
    curve = Ellipse(2.0, 1.0)
    with pytest.raises((NoConvergence, SingularJacobian)):
        find_periodic_newton(curve, 0.3, 5, PhasePoint(0.123, 1.234), max_iter=4)
    with pytest.raises(ValueError):
        find_periodic_newton(curve, 0.3, 0, PhasePoint(0.1, 1.0))


def test_newton_refuses_a_tol_above_the_closure_tolerance():
    """A state that meets ``tol`` must close as an orbit, so ``tol`` may not
    exceed ``CLOSURE_TOL``.  This kicked seed's residual is 5.1e-7: it meets
    ``tol=1e-4`` but does not close, so that tol is refused, and
    ``tol=CLOSURE_TOL`` takes Newton steps from it."""
    orbit = four_periodic_ellipse(3.0, 2.0, 2.7, "1/4")[0]
    z = orbit.points[0]
    seed = PhasePoint(s=z.s + 1e-6, theta=z.theta + 1e-6)
    with pytest.raises(ValueError, match=r"tol 0\.0001 exceeds the closure tolerance 1e-07"):
        find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, tol=1e-4, max_iter=0)
    with pytest.raises(NoConvergence, match="within 0 iterations"):
        find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, tol=CLOSURE_TOL, max_iter=0)
    found = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, tol=CLOSURE_TOL)
    assert found.residual <= CLOSURE_TOL


def test_newton_tests_the_state_of_its_last_iteration():
    """A state accepted in the last allowed iteration is tested against tol:
    these two solves converge in their final iteration, and must return the
    orbit that one more iteration would return, not raise NoConvergence.
    One iteration fewer does not converge, and ``max_iter=0`` only tests the
    seed."""
    for orbit, max_iter in (
        (four_periodic_ellipse(3.0, 2.0, 2.7, "1/4")[0], 2),
        (two_periodic_ellipse(2.0, 1.0, 0.5, axis="major")[0], 3),
    ):
        z = orbit.points[0]
        seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
        found = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=max_iter)
        assert found.residual <= 1e-10
        again = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=max_iter + 1)
        assert found.points == again.points
        with pytest.raises(NoConvergence, match=f"within {max_iter - 1} iterations"):
            find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, max_iter=max_iter - 1)
        assert find_periodic_newton(orbit.curve, orbit.mu, orbit.n, z, max_iter=0).points[0] == z


def _recorded_newton_states(monkeypatch):
    """Wrap ``families._newton_state``: each call appends (theta, scaled
    residual) to the returned list, with an infinite residual for a trial
    that the map refuses."""
    states, state = [], families._newton_state

    def recorded(curve, mu, z, n):
        try:
            result = state(curve, mu, z, n)
        except BilliardError:
            states.append((z.theta, math.inf))
            raise
        states.append((z.theta, result[2]))
        return result

    monkeypatch.setattr(families, "_newton_state", recorded)
    return states


def _line_searches(states):
    """Split recorded evaluations after the seed into line searches: each
    ends at the first trial whose residual falls below the current one."""
    searches, current = [[]], states[0][1]
    for theta, residual in states[1:]:
        searches[-1].append(theta)
        if residual < current:
            searches.append([])
            current = residual
    return [s for s in searches if s]


#: the two strongly hyperbolic superellipse members (traces 5.5e4 and 789)
_HYPERBOLIC_SE = {
    "se-diag-4-rot14": lambda: four_periodic_superellipse_diag(2, 0.9, "1/4")[0],
    "se-axis-4-rot14": lambda: four_periodic_superellipse_axis(2, 0.9, "1/4")[0],
}


def test_newton_trials_of_one_line_search_differ_in_theta(monkeypatch):
    """The trial points of one line search are the Newton point and its
    halvings towards the current state, so no two share theta.  A step that
    overshoots the annulus is refused by the map, not clamped onto the
    grazing edge, where a clamp would put several trials on one theta."""
    orbit = _HYPERBOLIC_SE["se-axis-4-rot14"]()
    z = orbit.points[0]
    states = _recorded_newton_states(monkeypatch)
    find_periodic_newton(orbit.curve, orbit.mu, orbit.n,
                         PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4), max_iter=10)
    searches = _line_searches(states)
    assert searches
    for thetas in searches:
        assert len(set(thetas)) == len(thetas), thetas
        assert len(thetas) <= 6


@pytest.mark.parametrize("name, sign, most", [
    ("se-axis-4-rot14", 1.0, 14),
    ("se-axis-4-rot14", -1.0, 8),
    ("se-diag-4-rot14", 1.0, 10),
    ("se-diag-4-rot14", -1.0, 12),
])
def test_newton_evaluations_from_the_benchmark_kicks(monkeypatch, name, sign, most):
    """Residual evaluations of one solve from the kicks (+1e-4, +1e-4) and
    (-1e-4, -1e-4), tol 1e-10, at most 10 iterations, the settings of the
    family-menu benchmark.  Measured: 13 and 6 on se-axis-4-rot14, 7 and 12
    on se-diag-4-rot14; a u-chart search with a clamp and 12 trial scales took
    19 and 40 from the + kick.  Whether the solve converges is not asserted
    here: on se-diag-4-rot14 the + kick stalls and the - kick reaches another
    orbit, as the benchmark tallies them."""
    orbit = _HYPERBOLIC_SE[name]()
    z = orbit.points[0]
    states = _recorded_newton_states(monkeypatch)
    seed = PhasePoint(s=z.s + sign * 1e-4, theta=z.theta + sign * 1e-4)
    try:
        find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed, tol=1e-10, max_iter=10)
    except NoConvergence:
        pass
    assert 0 < len(states) <= most


def test_newton_census_on_the_hyperbolic_superellipse_members(monkeypatch):
    """20 seeded kicks on each strongly hyperbolic member, in random
    directions with sizes log-uniform on [1e-6, 1e-3], tol 1e-10 and at most
    10 iterations.  A u-chart search with a clamp and 12 trial scales recovered
    the members from 1 and 16 of these kicks in 989 evaluations; this search
    recovers them from 1 and 17 in 586.  Pin the recoveries at no fewer than
    the u-chart search's and cap the evaluations."""
    rng = np.random.default_rng(2210)
    states = _recorded_newton_states(monkeypatch)
    recovered = {}
    for name, build in _HYPERBOLIC_SE.items():
        orbit = build()
        z, length = orbit.points[0], orbit.curve.total_length()
        recovered[name] = 0
        for _ in range(20):
            phi, size = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(-6.0, -3.0)
            seed = PhasePoint(s=z.s + size * math.cos(phi), theta=z.theta + size * math.sin(phi))
            try:
                w = find_periodic_newton(orbit.curve, orbit.mu, orbit.n, seed,
                                         tol=1e-10, max_iter=10).points[0]
            except NoConvergence:
                continue
            ds = abs((w.s - z.s + 0.5 * length) % length - 0.5 * length)
            recovered[name] += ds <= 1e-6 and abs(w.theta - z.theta) <= 1e-6
    assert recovered["se-diag-4-rot14"] >= 1
    assert recovered["se-axis-4-rot14"] >= 16
    assert len(states) <= 650


# ------------------------------------------------------------------
# family scans
# ------------------------------------------------------------------

def test_scan_family_locates_axis_thresholds():
    k = 2

    def closed_trace(mu: float) -> float:
        prod = 4.0 * (mu ** (-2 * k) - 1.0) ** ((1.0 - k) / k)
        return (prod - 2.0) ** 2 - 2.0

    scan = scan_family(closed_trace, 0.05, 0.99, parameter="mu")
    mu_star = (2.0 ** 2 + 1.0) ** (-0.25)
    mu_dstar = 2.0 ** (-0.25)
    assert len(scan.thresholds) == 2
    assert scan.thresholds[0] == pytest.approx(mu_star, abs=1e-8)
    assert scan.thresholds[1] == pytest.approx(mu_dstar, abs=1e-10)
    assert len(scan.grid) == len(scan.traces)


def test_scan_family_finds_tangential_and_transversal_diag_points():
    k = 2
    q = 2.0 ** (-0.25)

    def closed_trace(x0: float) -> float:
        y0 = (1.0 - x0 ** (2 * k)) ** (1.0 / (2 * k))
        plain = sum(y0 ** j * x0 ** (2 * k - 2 - j) for j in range(2 * k - 1))
        alt = sum((-1.0) ** j * y0 ** j * x0 ** (2 * k - 2 - j) for j in range(2 * k - 1))
        f = plain / alt
        return 2.0 + 16.0 * f * (f - 1.0)

    scan = scan_family(closed_trace, -q + 1e-4, q - 1e-4, parameter="x0")
    x_t, _ = superellipse_diag_tangential(k)
    assert len(scan.thresholds) == 2
    assert scan.thresholds[0] == pytest.approx(x_t, abs=1e-7)
    assert scan.thresholds[1] == pytest.approx(0.0, abs=1e-10)


def test_scan_family_rejects_bad_requests():
    with pytest.raises(ValueError):
        scan_family(lambda x: x, 1.0, 0.5)
    with pytest.raises(ValueError):
        scan_family(lambda x: x, 0.0, 1.0, n_grid=8)


def test_scan_family_rejects_a_grid_trace_of_the_wrong_shape_or_not_finite():
    for trace in (lambda x: 1.0, lambda x: x[:-1], lambda x: np.stack([x, x])):
        with pytest.raises(ValueError, match="shape"):
            scan_family(trace, 0.0, 1.0, n_grid=100)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"not finite at x0=0\.5\d*: "):
            scan_family(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0, n_grid=101,
                        parameter="x0")


#: every (curve, scan section) that ``families.FAMILIES`` can scan, on two tables each
SCAN_SPECS = [
    ({"kind": "superellipse", "k": k}, section)
    for k in (2, 3)
    for section in (
        {"family": "two-periodic-axis"},
        {"family": "two-periodic-diag"},
        {"family": "four-periodic-axis", "rotation": "1/4"},
        {"family": "four-periodic-axis", "rotation": "3/4"},
        {"family": "four-periodic-diag", "rotation": "1/4"},
        {"family": "four-periodic-diag", "rotation": "3/4"},
    )
] + [
    ({"kind": "ellipse", "a": a, "b": b}, {"family": "four-periodic"})
    for a, b in ((3.0, 2.0), (2.0, 1.0))
]
SCAN_IDS = [
    f"{c['kind']}{c.get('k', '')}-{s['family']}-{s.get('rotation', '')}" for c, s in SCAN_SPECS
]


def _grid_and_floats(curve_cfg, section, n=500):
    row, rotation = cli._family(curve_cfg, section, scan=True)
    trace_fn, (lo, hi), _, _ = row.scan(curve_cfg, rotation)
    grid = np.linspace(lo, hi, n)
    return trace_fn, grid, [trace_fn(float(x)) for x in grid]


@pytest.mark.parametrize("curve_cfg, section", SCAN_SPECS, ids=SCAN_IDS)
def test_scan_traces_on_the_grid_match_the_float_calls(curve_cfg, section):
    trace_fn, grid, floats = _grid_and_floats(curve_cfg, section)
    traces = trace_fn(grid)
    assert isinstance(traces, np.ndarray) and traces.shape == grid.shape
    assert all(type(t) is float for t in floats)
    for t, f in zip(traces.tolist(), floats):
        assert abs(t - f) <= 1e-13 * max(1.0, abs(f))


def test_scan_traces_on_the_grid_take_the_float_bits():
    """The array path raises to powers with the C library's ``pow``, as the
    float path does, so every grid trace has the bits of its float call."""
    for curve_cfg, section in SCAN_SPECS:
        trace_fn, grid, floats = _grid_and_floats(curve_cfg, section)
        assert trace_fn(grid).tolist() == floats, section
    x = np.linspace(-0.99, 0.99, 301)
    for k in (2, 3, 6):
        assert _se_y(k, x).tolist() == [_se_y(k, v) for v in x.tolist()]


@pytest.mark.parametrize("curve_cfg, section", SCAN_SPECS, ids=SCAN_IDS)
def test_scan_family_matches_a_pointwise_loop(curve_cfg, section):
    row, rotation = cli._family(curve_cfg, section, scan=True)
    trace_fn, (lo, hi), _, _ = row.scan(curve_cfg, rotation)

    def looped(x):
        if isinstance(x, np.ndarray):
            return np.array([trace_fn(float(v)) for v in x])
        return trace_fn(x)

    ours = scan_family(trace_fn, lo, hi, n_grid=500)
    theirs = scan_family(looped, lo, hi, n_grid=500)
    assert [x.hex() for x in ours.thresholds] == [x.hex() for x in theirs.thresholds]
    assert np.array_equal(ours.traces, theirs.traces)


# (trace, its error, a point outside its domain, the float message there,
#  a point inside)
DOMAIN_CASES = [
    (lambda x: trace4_ellipse(3.0, 2.0, x), X0OutOfRange,
     3.5, "x0 must lie in (-a, a), got 3.5", 2.0),
    (lambda x: trace4_superellipse_diag(2, x), X0OutOfRange,
     1.5, "x0 must lie in (-1, 1), got 1.5", 0.9),
    (lambda x: trace4_superellipse_axis(3, x, "1/4"), X0OutOfRange,
     0.5, "rotation 1/4 requires x0 in (0.89089871814, 1), got 0.5", 0.95),
    (lambda x: trace4_superellipse_axis(3, x, "3/4"), X0OutOfRange,
     -0.95, "rotation 3/4 requires x0 in (-0.89089871814, 1), got -0.95", 0.5),
    (lambda x: superellipse_diag_ratio(2, x), X0OutOfRange,
     0.9, "the diagonal family ratio is defined on [-0.840896415254, 0.840896415254], got x0=0.9",
     -0.3),
    (lambda x: trace2_superellipse_diag(2, x), X0OutOfRange,
     0.9, "the diagonal family ratio is defined on [-0.840896415254, 0.840896415254], got x0=0.9",
     -0.3),
    (lambda x: trace2_superellipse_axis(2, x), MuTooLarge,
     1.0, "need 0 < mu < 1, got mu=1.0", 0.5),
]


@pytest.mark.parametrize("trace, error, bad, message, inside", DOMAIN_CASES,
                         ids=[m.split(" got")[0][:30] for _, _, _, m, _ in DOMAIN_CASES])
def test_array_traces_reject_any_point_outside_the_domain(trace, error, bad, message, inside):
    """The float message is unchanged, and an array names its first stray
    point in the same words, whatever strays follow it."""
    with pytest.raises(error) as info:
        trace(bad)
    assert str(info.value) == message
    for where in (0, 3, 6):
        x = np.full(7, inside)
        x[where] = bad
        if where < 6:
            x[6] = 2.0 * bad  # a second stray point, also outside
        with pytest.raises(error) as info:
            trace(x)
        assert str(info.value) == message
    assert np.all(np.isfinite(trace(np.full(3, inside))))


def test_orbit_boundary_points_come_from_the_step_frames(monkeypatch):
    """A family member inverts the arclength chart once, for the orbit's
    first launch point: each later step launches from the re-entry frame of
    the step before.  Its boundary points are the points of the launch and
    exit frames of its steps."""
    calls = []
    t_of_s = ArclengthTable.t_of_s

    def counted(self, s):
        calls.append(s)
        return t_of_s(self, s)

    monkeypatch.setattr(ArclengthTable, "t_of_s", counted)
    orbit, _ = four_periodic_superellipse_axis(2, 0.9, "1/4")
    assert len(calls) == 1 and orbit.n == 4
    frames = [frame for d in orbit.steps for frame in d.frames[:2]]
    assert len(orbit.boundary_points) == len(frames) == 8
    assert all(p is frame.point for p, frame in zip(orbit.boundary_points, frames))


def test_rotation_spellings_agree():
    """A rotation given as a string, a Fraction or a float selects the same
    branch, and a rejected rotation is rejected every time it is given."""
    expected = trace4_superellipse_axis(3, 0.95, "1/4")
    for rot in ("1/4", Fraction(1, 4), 0.25):
        assert trace4_superellipse_axis(3, 0.95, rot) == expected
    assert trace4_superellipse_axis(3, 0.5, "3/4") == trace4_superellipse_axis(3, 0.5, 0.75)
    for _ in range(2):
        with pytest.raises(ValueError, match="rotation must be one of 1/4, 3/4"):
            trace4_superellipse_axis(3, 0.95, "1/3")
    # a float is read exactly, so the float nearest 1/3 is not the fraction 1/3
    with pytest.raises(ValueError, match="rotation must be one of 1/3, 2/3"):
        three_periodic_circle(1.0, 0.4, 1.0 / 3.0)
