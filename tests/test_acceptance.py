"""Acceptance suite: the headline guarantees of the package, one test each.

Each test pins one user-facing guarantee end to end — exact symplecticity,
the finite-difference Jacobian oracle, the closed-form orbit families and
their classification, threshold locations, duality, rotation numbers, and
the Newton finder — with the tolerances the package advertises.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import CURVE_MENU, closed_and_measured, composed_trace, sample_phase_points
from scipy.optimize import brentq

import imbilliards
from imbilliards import cli
from imbilliards import families as fam
from imbilliards.curves import Circle, Ellipse, Stadium, Superellipse
from imbilliards.dynamics import PhasePoint, iterate, jacobian_analytic, jacobian_numeric
from imbilliards.errors import BilliardError, SingularJacobian
from imbilliards.rotation import limiting_rotation, rot_lambda
from imbilliards.stability import (
    StabilityClass,
    TwoPeriodicParams,
    classify,
    classify2_general,
    trace2_closed,
)


def test_unit_jacobian_determinant_everywhere(rng):
    """det DT = 1 within 1e-9 at >= 1000 random phase points per curve,
    for all five table shapes, in under ten seconds."""
    started = time.monotonic()
    for name, factory, mu in CURVE_MENU:
        curve = factory()
        length = curve.total_length()
        checked = 0
        worst = 0.0
        while checked < 1000:
            z = PhasePoint(
                s=float(rng.uniform(0.0, length)),
                theta=float(rng.uniform(0.05, math.pi - 0.05)),
            )
            try:
                _, d = iterate(curve, mu, z, 1)[0]
            except BilliardError:
                continue
            J = jacobian_analytic(d)
            worst = max(worst, abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] - 1.0))
            checked += 1
        assert worst <= 1e-9, f"{name}: worst |det - 1| = {worst:.3e}"
    assert time.monotonic() - started < 10.0


def test_analytic_jacobian_against_finite_differences(rng):
    """Analytic DT matches central differences to 1e-5 relative at 100
    well-conditioned points per curve; halving h cuts the error ~4x."""
    for name, factory, mu in CURVE_MENU:
        curve = factory()
        points = sample_phase_points(curve, mu, 100, rng)
        for z in points:
            _, d = iterate(curve, mu, z, 1)[0]
            A = jacobian_analytic(d)
            N = jacobian_numeric(curve, mu, z)
            dev = float(np.max(np.abs(A - N))) / max(1.0, float(np.max(np.abs(A))))
            assert dev <= 1e-5, f"{name}: rel deviation {dev:.3e} at {z}"

        ratios = []
        for z in points[:25]:
            _, d = iterate(curve, mu, z, 1)[0]
            A = jacobian_analytic(d)
            coarse = float(np.max(np.abs(A - jacobian_numeric(curve, mu, z, h=1e-4))))
            fine = float(np.max(np.abs(A - jacobian_numeric(curve, mu, z, h=5e-5))))
            if fine > 1e-13:  # skip points where roundoff already dominates
                ratios.append(coarse / fine)
        assert 2.8 < float(np.median(ratios)) < 5.7, f"{name}: not O(h^2)"


def test_circle_orbit_families_are_parabolic():
    """2-, 3- (both rotations) and 4-periodic (both rotations) circle
    orbits have |trace| = 2 within 1e-7 on a 50-point mu grid, by both the
    closed forms and the composed stability matrix."""
    for mu in np.linspace(0.05, 0.95, 50):
        mu = float(mu)
        orbit, params = fam.two_periodic_circle(1.0, mu)
        for p in closed_and_measured(orbit, params, 1e-7):
            assert abs(trace2_closed(p)) == pytest.approx(2.0, abs=1e-7)
        assert abs(composed_trace(orbit)) == pytest.approx(2.0, abs=1e-7)
        for rot in ("1/3", "2/3"):
            orbit, _, trace = fam.three_periodic_circle(1.0, mu, rot)
            assert abs(trace) == pytest.approx(2.0, abs=1e-7)
            assert abs(composed_trace(orbit)) == pytest.approx(2.0, abs=1e-7)
        for rot in ("1/4", "3/4"):
            orbit, _, trace = fam.four_periodic_circle(1.0, mu, rot)
            assert abs(trace) == pytest.approx(2.0, abs=1e-7)
            assert abs(composed_trace(orbit)) == pytest.approx(2.0, abs=1e-7)


def test_ellipse_axis_orbits_hyperbolic_major_elliptic_minor():
    """Major-axis bouncing orbits are hyperbolic and minor-axis ones
    elliptic for 20 feasible mu on three aspect ratios, with the product
    identities alpha*beta = 4a^2/b^2 (major) and 4b^2/a^2 (minor) to
    1e-10; the square-root-of-two aspect ratio is the parabolic exception
    with minor trace exactly -2 (to 1e-9)."""
    for a, b in ((2.0, 1.0), (3.0, 2.0), (1.5, 1.0)):
        for axis, product, expected_cls in (
            ("major", 4.0 * a * a / (b * b), StabilityClass.HYPERBOLIC),
            ("minor", 4.0 * b * b / (a * a), StabilityClass.ELLIPTIC),
        ):
            cap = (
                2.0 * a * b * b / (a * a + b * b)
                if axis == "major"
                else min(2.0 * a * a * b / (a * a + b * b), a)
            )
            for mu in np.linspace(0.05, 0.95, 20) * cap:
                orbit, params = fam.two_periodic_ellipse(a, b, float(mu), axis)
                for p in closed_and_measured(orbit, params, 1e-10):
                    assert abs(p.alpha * p.beta - product) <= 1e-10 * max(1.0, product)
                    assert classify(trace2_closed(p)).cls is expected_cls

    a = math.sqrt(2.0)
    for mu in np.linspace(0.05, 0.95, 20) * (2.0 * a * a / (a * a + 1.0)):
        orbit, params = fam.two_periodic_ellipse(a, 1.0, float(mu), "minor")
        for p in closed_and_measured(orbit, params, 1e-9):
            assert trace2_closed(p) == pytest.approx(-2.0, abs=1e-9)


def test_superellipse_axis_thresholds_match_closed_forms():
    """Scanning the axis-bouncing family locates both parabolic Larmor
    radii within 1e-8 of the closed forms for k = 2, 3, 4."""
    for k in (2, 3, 4):
        mu_star = (2.0 ** (k / (k - 1.0)) + 1.0) ** (-1.0 / (2 * k))
        mu_dstar = 2.0 ** (-1.0 / (2 * k))

        def closed_trace(mu: float, k: int = k) -> float:
            ab = 4.0 * (mu ** (-2 * k) - 1.0) ** ((1.0 - k) / k)
            return (ab - 2.0) ** 2 - 2.0

        scan = fam.scan_family(closed_trace, 0.02, 0.995, n_grid=800)
        assert len(scan.thresholds) == 2
        lo, hi = sorted(scan.thresholds)
        assert lo == pytest.approx(mu_star, abs=1e-8)
        assert hi == pytest.approx(mu_dstar, abs=1e-8)


def test_superellipse_diagonal_parabolic_point_and_ratio_limits():
    """The diagonal bouncing family is parabolic at the symmetric point
    x0 = 0 (where mu = 2^{-1/2}) to 1e-9; the ratio f crosses 1/2 at an
    interior x0 < 0 for k = 2, 3; and f tends to 1/(2k-1) and 2k-1 at the
    interval ends (within 1e-6)."""
    for k in (2, 3):
        q = 2.0 ** (-1.0 / (2 * k))
        orbit, params, f_value = fam.two_periodic_superellipse_diag(k, 0.0)
        assert orbit.mu == pytest.approx(2.0 ** -0.5, abs=1e-9)
        for p in closed_and_measured(orbit, params, 1e-9):
            assert trace2_closed(p) == pytest.approx(2.0, abs=1e-9)
        assert f_value == pytest.approx(1.0, abs=1e-12)

        root = brentq(
            lambda x: fam.superellipse_diag_ratio(k, x) - 0.5,
            -q + 1e-9, -1e-9, xtol=1e-13,
        )
        assert -q < root < 0.0
        assert fam.superellipse_diag_ratio(k, root) == pytest.approx(0.5, abs=1e-9)
        if k == 2:
            assert root == pytest.approx(-0.37995997440465035, abs=1e-7)

        assert fam.superellipse_diag_ratio(k, -q) == pytest.approx(
            1.0 / (2 * k - 1), abs=1e-6)
        assert fam.superellipse_diag_ratio(k, q) == pytest.approx(
            float(2 * k - 1), abs=1e-6)


def test_stadium_sides_parabolic_caps_hyperbolic():
    """Side-bouncing stadium orbits have trace exactly 2 (beta = delta =
    0); cap-bouncing orbits are hyperbolic for 20 mu values in (0, R)."""
    side, R = 2.0, 1.0
    for mu in np.linspace(0.05, 0.95, 10):
        orbit, params = fam.two_periodic_stadium(side, R, float(mu), "sides")
        closed_and_measured(orbit, params, 1e-9)
        assert params.beta == 0.0 and params.delta == 0.0
        assert trace2_closed(params) == 2.0
    for mu in np.linspace(0.05, 0.95, 20) * R:
        orbit, params = fam.two_periodic_stadium(side, R, float(mu), "caps")
        for p in closed_and_measured(orbit, params, 1e-9):
            assert classify(trace2_closed(p)).cls is StabilityClass.HYPERBOLIC


def test_interval_classification_agrees_with_trace():
    """The five-case interval classification and the trace-based verdict
    agree on >= 1e5 random (alpha, beta, delta) triples covering every
    sign pattern of (beta, delta), including the zero lines."""
    rng = np.random.default_rng(20260825)
    checked = 0
    patterns: set[tuple[float, float]] = set()
    for i in range(110_000):
        alpha = float(rng.uniform(1e-3, 12.0))
        beta = float(rng.uniform(-6.0, 6.0))
        delta = float(rng.uniform(-6.0, 6.0))
        mode = i % 8
        if mode == 5:
            beta = 0.0
        elif mode == 6:
            delta = 0.0
        elif mode == 7:
            beta = delta = 0.0
        p = TwoPeriodicParams(alpha=alpha, beta=beta, delta=delta)
        verdict, diag = classify2_general(p)
        assert diag.predicted is verdict.cls, (p, diag, verdict)
        patterns.add((math.copysign(1.0, beta) * (beta != 0.0),
                      math.copysign(1.0, delta) * (delta != 0.0)))
        checked += 1
    assert checked >= 100_000
    assert len(patterns) == 9  # {-, 0, +} x {-, 0, +}


def test_ellipse_four_periodic_root_census():
    """For a=3, b=2 the numeric parabolic roots reproduce two of the
    three tabulated closed forms to 1e-5; the third tabulated value falls
    outside the family's x0 interval and is flagged, with every numeric
    root listed inside the interval.  The census is the one ``imbil scan``
    makes on its default window."""
    curve_cfg = {"kind": "ellipse", "a": 3.0, "b": 2.0}
    row, rotation = cli._family(curve_cfg, {"family": "four-periodic"}, scan=True)
    trace_fn, window, (lo, hi), refs = row.scan(curve_cfg, rotation)
    roots = fam.scan_family(trace_fn, *window, parameter=row.param, n_grid=2000).thresholds
    assert lo == pytest.approx(15.0 / 13.0, rel=1e-12)
    assert hi == pytest.approx(3.0, rel=1e-12)
    assert tuple(inside for _, inside in refs) == (False, True, True)
    for root in roots:
        assert lo < root < hi
    matched, discrepant = [ref for ref, _ in refs[1:]], refs[0][0]
    for ref in matched:
        assert min(abs(r - ref) for r in roots) <= 1e-5
    assert min(abs(r - discrepant) for r in roots) > 1.0


def test_superellipse_four_periodic_structure():
    """Diagonal rot-1/4 orbits are hyperbolic across the whole interval
    for k = 2, 3; the rot-3/4 branch touches parabolic at x0 = -2^{-1/(2k)}
    (within 1e-8); and the axis-centered rot-3/4 family for k = 2 has
    exactly five parabolic roots, one of them 0 to 1e-9."""
    for k in (2, 3):
        q = 2.0 ** (-1.0 / (2 * k))
        for x0 in np.linspace(q + 1e-3, fam.x_hat(k) - 1e-3, 40):
            assert fam.trace4_superellipse_diag(k, float(x0)) > 2.0

        window = fam.scan_family(
            lambda x: fam.trace4_superellipse_diag(k, x),
            -q - 0.05, -q + 0.05, n_grid=400,
        )
        assert window.thresholds  # k = 3 has a second crossing nearby
        nearest = min(window.thresholds, key=lambda x: abs(x + q))
        assert nearest == pytest.approx(-q, abs=1e-8)

    roots = fam.parabolic_roots(2, "3/4")
    assert len(roots) == 5
    assert min(abs(r) for r in roots) <= 1e-9
    for root in roots:
        trace = fam.trace4_superellipse_axis(2, float(root), "3/4")
        assert abs(trace) == pytest.approx(2.0, abs=1e-6)


def test_duality_swaps_rotation_and_preserves_traces():
    """The dual of every constructed rot-1/4 orbit closes to 1e-7, lands
    on the rot-3/4 family with the matching trace (1e-6), and applying
    duality twice returns the original point set."""
    for a, b in ((3.0, 2.0), (2.0, 1.0)):
        lo, split, hi = fam._ellipse4_interval(a, b)
        pad = 1e-3 * (hi - lo)
        for x0 in np.linspace(split + pad, hi - pad, 8):
            orbit, record, _ = fam.four_periodic_ellipse(a, b, float(x0), "1/4")
            dual = fam.dual_orbit(orbit)
            assert dual.rotation == Fraction(3, 4)
            assert dual.residual <= 1e-7
            expected = fam.trace4_ellipse(a, b, record.x2)
            assert composed_trace(dual) == pytest.approx(
                expected, rel=1e-6, abs=1e-6)
            back = fam.dual_orbit(dual)
            original = np.asarray(orbit.boundary_points)
            scale = float(np.max(np.abs(original)))
            assert np.allclose(
                np.asarray(back.boundary_points), original, atol=1e-7 * scale)


def test_rotation_number_limits_and_monotonicity():
    """limiting_rotation(2) is exactly 1/2; the rotation number tends to
    1/2 as the caustic approaches the major axis for a^2 = 2b^2 (within
    1e-5); and it decreases monotonically across the hyperbola branch on
    100-point grids for three aspect ratios."""
    assert limiting_rotation(2.0) == 0.5
    a = math.sqrt(2.0)
    assert rot_lambda(a, 1.0, a * a * (1.0 - 1e-6)) == pytest.approx(0.5, abs=1e-5)
    for a, b in ((math.sqrt(2.0), 1.0), (2.0, 1.0), (3.0, 2.0)):
        grid = np.linspace(b * b * 1.001, a * a * 0.999, 100)
        values = [rot_lambda(a, b, float(lam)) for lam in grid]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_newton_finder_recovers_and_flags_parabolic():
    """Newton recovers every non-parabolic family member from a seed
    perturbed by 1e-4 in both coordinates (residual <= 1e-10 within 10
    iterations) and raises SingularJacobian on the parabolic families."""
    recoverable = [
        fam.two_periodic_ellipse(2.0, 1.0, 0.5, "major")[0],
        fam.two_periodic_ellipse(2.0, 1.0, 0.5, "minor")[0],
        fam.four_periodic_ellipse(3.0, 2.0, 2.8, "1/4")[0],
        fam.four_periodic_superellipse_diag(2, -0.3, "3/4")[0],
        fam.two_periodic_stadium(2.0, 1.0, 0.5, "caps")[0],
    ]
    for orbit in recoverable:
        z = orbit.points[0]
        seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
        found = fam.find_periodic_newton(
            orbit.curve, orbit.mu, orbit.n, seed, tol=1e-10, max_iter=10)
        assert found.residual <= 1e-10
        assert found.points[0].s == pytest.approx(z.s, abs=1e-6)
        assert found.points[0].theta == pytest.approx(z.theta, abs=1e-6)

    parabolic = [
        (fam.two_periodic_circle(1.0, 0.45)[0], 2),
        (fam.three_periodic_circle(1.0, 0.45, "1/3")[0], 3),
        (fam.four_periodic_circle(1.0, 0.45, "1/4")[0], 4),
        (fam.two_periodic_stadium(2.0, 1.0, 0.4, "sides")[0], 2),
    ]
    for orbit, n in parabolic:
        z = orbit.points[0]
        seed = PhasePoint(s=z.s + 1e-4, theta=z.theta + 1e-4)
        with pytest.raises(SingularJacobian):
            fam.find_periodic_newton(
                orbit.curve, orbit.mu, n, seed, tol=1e-10, max_iter=10)


def test_every_exported_name_resolves():
    """Each name a module of the package lists in ``__all__`` exists there."""
    for info in pkgutil.iter_modules(imbilliards.__path__):
        module = importlib.import_module(f"imbilliards.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name
