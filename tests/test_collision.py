"""Chord exit and Larmor re-entry, checked against circle algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CURVE_MENU, sample_phase_points
from reference_map import chord_exit_ellipse, chord_exit_stadium, circle_step, larmor_root
from imbilliards.collision import (
    MAX_ROOT_ITERATIONS,
    N_SWEEP_SAMPLES,
    SWEEP_ANGLES,
    SWEEP_COS,
    SWEEP_GUARD,
    SWEEP_SIN,
    chord_exit,
    larmor_reentry,
)
from imbilliards.curves import Circle, Ellipse, Stadium, Superellipse, make_curve, rot90
from imbilliards.dynamics import PhasePoint, iterate, step
from imbilliards.errors import (
    BilliardError, NoInteriorHit, NoReentry, TangentialChord, TangentialContact,
)

CURVE_IDS = [name for name, _, _ in CURVE_MENU]


def cross2(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def test_chord_exit_circle_oracle(rng):
    """On a circle of radius R the chord with incidence angle theta exits
    2*R*theta further along the arc, at the same angle, with length
    2*R*sin(theta) — elementary inscribed-angle geometry."""
    R = 1.4
    circle = Circle(R)
    length = circle.total_length()
    for _ in range(50):
        s0 = float(rng.uniform(0.0, length))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        frame1, theta1, ell1, _ = chord_exit(circle, circle.frame_at(s0), theta)
        gap = abs((frame1.s - s0 - 2.0 * R * theta + 0.5 * length) % length - 0.5 * length)
        assert gap < 1e-9
        assert abs(theta1 - theta) < 1e-9
        assert abs(ell1 - 2.0 * R * math.sin(theta)) < 1e-9


@pytest.mark.parametrize("curve, exact", [
    (Circle(1.0), lambda *ray: chord_exit_ellipse(1.0, 1.0, *ray)),
    (Ellipse(2.0, 1.0), lambda *ray: chord_exit_ellipse(2.0, 1.0, *ray)),
    (Ellipse(10.0, 1.0), lambda *ray: chord_exit_ellipse(10.0, 1.0, *ray)),
    (Stadium(2.0, 1.0), lambda *ray: chord_exit_stadium(2.0, 1.0, *ray)),
], ids=["circle", "ellipse-2-1", "ellipse-10-1", "stadium-2-1"])
def test_chord_exit_matches_the_40_digit_root(curve, exact, rng):
    """The chord length agrees with the exact exit of the same float start
    point and direction, computed at 40 digits by ``reference_map``.

    Each F here has terms of size about 1, so rounding F moves the root by
    a few eps / |dF/dr|: the error is bounded in those units.  Over 1500
    chords on each of five seeds the worst error measured was 4.0 units.
    In relative terms that is up to 1.2e-12 on short chords near the tip of
    Ellipse(10, 1), where |dF/dr| is about 0.01."""
    length = curve.total_length()
    for _ in range(1500):
        s0 = float(rng.uniform(0.0, length))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        frame = curve.frame_at(s0)
        r, slope = exact(*frame.point.tolist(), *frame.direction(theta))
        _, _, ell1, _ = chord_exit(curve, frame, theta)
        assert abs(ell1 - r) * slope <= 8.0 * 2.0**-52


@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(2.0, 1.0)], ids=["circle", "ellipse21"])
@pytest.mark.parametrize("theta", [2e-12, 1e-9, math.pi - 2e-12, math.pi - 1e-9])
def test_grazing_chords_below_the_rounding_floor_are_no_chords(curve, theta):
    """A launch within about 1e-9 of the tangent travels no farther than the
    rounding of F can tell from the launch point, 8 eps / |dF/dr|: the exact
    chord of the same float data is that short or missing, so every one of
    these launches raises."""
    for s0 in np.linspace(0.0, curve.total_length(), 20, endpoint=False):
        with pytest.raises(NoInteriorHit):
            chord_exit(curve, curve.frame_at(float(s0)), theta)


def test_larmor_reentry_circle_oracle(rng):
    """Intersect the Larmor circle with the boundary circle algebraically
    and check the re-entry point and tangent-chord angle."""
    R, mu = 1.4, 0.45
    circle = Circle(R)
    length = circle.total_length()
    for _ in range(50):
        s0 = float(rng.uniform(0.0, length))
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        frame1, theta1, _, _ = chord_exit(circle, circle.frame_at(s0), theta)
        p1 = circle.frame_at(frame1.s).point
        t1 = circle.frame_at(frame1.s).tangent
        v = math.cos(theta1) * t1 - math.sin(theta1) * rot90(t1)
        frame2, _, chi, _, n_crossings, _ = larmor_reentry(
            circle, circle.frame_at(frame1.s), v, mu)

        # Two-circle intersection: boundary (origin, R), Larmor (c, mu).
        c = p1 + mu * rot90(v)
        d = float(np.linalg.norm(c))
        x = (d * d + R * R - mu * mu) / (2.0 * d)
        h = math.sqrt(max(R * R - x * x, 0.0))
        axis = c / d
        perp = rot90(axis)
        candidates = [x * axis + h * perp, x * axis - h * perp]
        p2_alg = max(candidates, key=lambda p: np.linalg.norm(p - p1))
        assert np.linalg.norm(circle.frame_at(frame2.s).point - p2_alg) < 1e-8

        w = p2_alg - p1
        w = w / np.linalg.norm(w)
        chi_alg = math.atan2(cross2(v, w), float(v @ w)) % (2.0 * math.pi)
        assert abs(chi - chi_alg) < 1e-9
        assert n_crossings == 1


@pytest.mark.parametrize("table, bound", [
    ({"kind": "circle", "R": 1.0}, 32.0),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, 32.0),
    ({"kind": "ellipse", "a": 10.0, "b": 1.0}, 32.0),
    ({"kind": "superellipse", "k": 2}, 64.0),
    ({"kind": "superellipse", "k": 3}, 96.0),
    ({"kind": "superellipse", "k": 6}, 192.0),
    ({"kind": "stadium", "side": 2.0, "R": 1.0}, 16.0),
], ids=["circle", "ellipse-2-1", "ellipse-10-1", "superellipse-k2", "superellipse-k3",
        "superellipse-k6", "stadium-2-1"])
def test_larmor_reentry_matches_the_40_digit_root(table, bound, rng):
    """The re-entry sweep angle agrees with the root of the same table's F
    along the same float Larmor arc, computed at 40 digits by
    ``reference_map`` in the sweep interval that holds it.

    The error is bounded in units of eps / |dF/dpsi|, the rounding of F
    carried to the angle.  Over 2100 steps per table (mu log-uniform on
    [0.1, 3]) the worst was 21 units on the circle, 20 on both ellipses, 38
    on superellipse k = 2, 58 on k = 3, 135 on k = 6 and 11 on the stadium;
    the Brent route that the Newton loop replaced measured 21, 22, 20, 39, 58,
    131 and 12.  F's terms grow with the Larmor radius, and on k = 6 with
    its twelfth powers."""
    curve = make_curve(table)
    length = curve.total_length()
    n_steps = 0
    while n_steps < 100:
        mu = math.exp(rng.uniform(math.log(0.1), math.log(3.0)))
        frame = curve.frame_at(float(rng.uniform(0.0, length)))
        try:
            frame1, _, _, v = chord_exit(curve, frame, float(rng.uniform(0.05, math.pi - 0.05)))
            _, _, chi, _, _, _ = larmor_reentry(curve, frame1, v, mu)
        except BilliardError:
            continue
        n_steps += 1
        (vx, vy), x1, y1, arc_sweep = v, frame1.x, frame1.y, 2.0 * chi
        cx, cy = x1 - mu * vy, y1 + mu * vx
        j = int(np.searchsorted(SWEEP_ANGLES, arc_sweep))
        psi, slope = larmor_root(table, cx, cy, x1 - cx, y1 - cy,
                                 SWEEP_ANGLES.item(j - 1), SWEEP_ANGLES.item(j))
        assert abs(arc_sweep - psi) * abs(slope) <= bound * 2.0**-52


def test_a_reentry_beside_the_exit_root_converges_to_the_40_digit_root():
    """An exit near the tangent on the sampled sweep (mu * kappa_max = 6.8):
    the arc re-enters 1.0e-4 rad before it returns to its own exit point,
    which is a root of F at psi = 2 pi, so both roots lie in the last sweep
    interval.  The regula falsi seed lands beside the exit root and the
    loop bisects once; Newton then halves its distance to the pair of roots
    for about ten steps, and once it is at rounding a step that fails to
    halve the last makes it bisect the bracket, whose far end stayed by the
    exit root, 27 more times: 39 steps in all.  The root is still right,
    within 16 eps / |dF/dpsi| of the 40-digit root of the same float arc."""
    table = {"kind": "superellipse", "k": 2}
    curve, mu = make_curve(table), 2.69
    z = PhasePoint(2.982521626014709, math.pi - 1.8e-4)
    _, d = step(curve, mu, z)
    assert d.root_iterations < MAX_ROOT_ITERATIONS and d.n_crossings == 1
    (vx, vy), x1, y1 = d.frames[0].direction(z.theta), d.frames[1].x, d.frames[1].y
    cx, cy = x1 - mu * vy, y1 + mu * vx
    psi, slope = larmor_root(table, cx, cy, x1 - cx, y1 - cy,
                             SWEEP_ANGLES.item(-2), SWEEP_ANGLES.item(-1))
    assert abs(2.0 * d.chi - psi) * abs(slope) <= 16.0 * 2.0**-52


@pytest.mark.parametrize("v,error", [((0.0, 1.0), TangentialContact), ((0.0, -1.0), NoReentry)],
                         ids=["inside", "outside"])
def test_larmor_guards(v, error):
    """From (1, 0) on the unit circle, a Larmor circle of radius 0.3 tangent
    to the boundary lies inside the table when the exit velocity runs along
    the tangent, and outside it when the velocity runs against it: the
    first has no transversal re-entry, the second no crossing at all."""
    circle = Circle(1.0)
    with pytest.raises(error):
        larmor_reentry(circle, circle.frame_at(0.0), v, 0.3)


@pytest.mark.parametrize("mu", [0.0, -0.3, math.nan, math.inf])
def test_a_larmor_radius_must_be_positive_and_finite(mu):
    circle = Circle(1.0)
    with pytest.raises(ValueError, match="Larmor radius must be positive and finite"):
        larmor_reentry(circle, circle.frame_at(0.0), (0.0, -1.0), mu)


@pytest.mark.parametrize("name", CURVE_IDS)
def test_larmor_invariants(name, curves, rng):
    """chi and ell2 match the chord P1 -> P2 measured from the two frames,
    the arc of sweep 2 chi lands on the boundary at the re-entry point, and
    the re-entry angle is a genuine entering angle in (0, pi)."""
    curve, mu = curves[name]
    for z in sample_phase_points(curve, mu, 25, rng, conditioned=False):
        _, d = iterate(curve, mu, z, 1)[0]
        p1 = curve.frame_at(d.s1).point
        t1 = curve.frame_at(d.s1).tangent
        v = math.cos(d.theta1) * t1 - math.sin(d.theta1) * rot90(t1)
        frame2, theta2, chi, ell2, _, _ = larmor_reentry(curve, curve.frame_at(d.s1), v, mu)
        arc_sweep = 2.0 * chi

        chord = frame2.point - p1
        measured = math.atan2(cross2(v, chord), float(v @ chord))
        assert abs((chi - measured + math.pi) % (2.0 * math.pi) - math.pi) < 1e-12
        assert abs(ell2 - float(np.linalg.norm(chord))) < 1e-9
        assert 0.0 < theta2 < math.pi
        assert 0.0 < chi < math.pi

        # Endpoint of the swept arc coincides with the located re-entry.
        center = p1 + mu * rot90(v)
        rot = np.array(
            [
                [math.cos(arc_sweep), -math.sin(arc_sweep)],
                [math.sin(arc_sweep), math.cos(arc_sweep)],
            ]
        )
        p2 = center + rot @ (p1 - center)
        assert abs(curve.implicit_xy(*p2)) < 1e-8
        assert np.linalg.norm(p2 - curve.frame_at(frame2.s).point) < 1e-7

        # The arc midpoint lies strictly outside the table.
        half = np.array(
            [
                [math.cos(0.5 * arc_sweep), -math.sin(0.5 * arc_sweep)],
                [math.sin(0.5 * arc_sweep), math.cos(0.5 * arc_sweep)],
            ]
        )
        assert curve.implicit_xy(*(center + half @ (p1 - center))) > 0.0


@pytest.mark.parametrize("name", CURVE_IDS)
def test_chord_exit_lands_on_boundary(name, curves, rng):
    curve, _ = curves[name]
    for z in sample_phase_points(curve, 0.3, 25, rng, conditioned=False):
        frame1, theta1, ell1, _ = chord_exit(curve, curve.frame_at(z.s), z.theta)
        p0 = curve.frame_at(z.s).point
        v = np.array(curve.frame_at(z.s).direction(z.theta))
        p1 = p0 + ell1 * v
        assert abs(curve.implicit_xy(*p1)) < 1e-9
        assert np.linalg.norm(p1 - curve.frame_at(frame1.s).point) < 1e-7
        assert 0.0 < theta1 < math.pi
        # Chord midpoint is interior (convexity).
        assert curve.implicit_xy(*(p0 + 0.5 * ell1 * v)) < 0.0


def test_tangential_launch_rejected():
    circle = Circle(1.0)
    for theta in (0.0, 1e-13, math.pi, math.pi - 1e-13):
        with pytest.raises(TangentialChord,
                           match=r"is not in the open interval \(1e-12, pi - 1e-12\)"):
            chord_exit(circle, circle.frame_at(0.3), theta)


def test_corner_clipping_crossing_count():
    """Past the tangency threshold of the diagonal quarter-turn family the
    Larmor circle meets the superellipse in four points; the crossing
    counter reports 3 instead of 1."""
    k = 2
    curve = Superellipse(k)
    v = np.array([0.0, 1.0])
    for x0, expected in ((0.92, 1), (0.997, 3)):
        y0 = (1.0 - x0 ** (2 * k)) ** (1.0 / (2 * k))
        mu = x0 - y0
        s1 = curve.frame_of(np.array([x0, y0])).s
        _, _, _, _, n_crossings, _ = larmor_reentry(curve, curve.frame_at(s1), v, mu)
        assert n_crossings == expected


def test_larmor_sweep_constants():
    """The sampled sweep angles and their cosines and sines are module
    constants, equal to the grid a Larmor re-entry samples."""
    psis = np.linspace(SWEEP_GUARD, 2.0 * math.pi - SWEEP_GUARD, N_SWEEP_SAMPLES)
    assert np.array_equal(SWEEP_ANGLES, psis)
    assert np.array_equal(SWEEP_COS, np.cos(psis))
    assert np.array_equal(SWEEP_SIN, np.sin(psis))


# --------------------------------------------------------------------------
# Certified bracket (mu * kappa_max < 1)
# --------------------------------------------------------------------------

#: sweep angles of the reference sweep, 2^16 midpoints of equal intervals
REFERENCE_PSIS = 2.0 * math.pi * (np.arange(2**16) + 0.5) / 2**16
CERTIFIED_TABLES = [Circle(1.0), Ellipse(2.0, 1.0), Ellipse(10.0, 1.0), Superellipse(2),
                    Superellipse(3), Superellipse(6), Stadium(2.0, 1.0)]


def reference_crossings(curve, frame1, v, mu):
    """The sweep angles after which F changes sign along the Larmor circle,
    on the 2^16-sample reference grid, and that grid's spacing."""
    (vx, vy), x1, y1 = v, frame1.x, frame1.y
    cx, cy = x1 - mu * vy, y1 + mu * vx
    c, s = np.cos(REFERENCE_PSIS), np.sin(REFERENCE_PSIS)
    inside = np.signbit(curve.implicit_xy(cx + c * (x1 - cx) - s * (y1 - cy),
                                          cy + s * (x1 - cx) + c * (y1 - cy)))
    return REFERENCE_PSIS[np.flatnonzero(inside[1:] != inside[:-1])]


@settings(max_examples=150, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(CERTIFIED_TABLES) - 1),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    mu_kappa=st.floats(min_value=1e-3, max_value=0.99),
)
def test_below_the_rolling_radius_an_arc_crosses_once(index, frac, theta, mu_kappa):
    """With mu * kappa_max <= 0.99 a 2^16-sample reference sweep from the
    exit point sees exactly one crossing, the step reports one, and its
    re-entry lies in the reference interval of that crossing."""
    curve = CERTIFIED_TABLES[index]
    mu = mu_kappa / curve.max_curvature()
    z = PhasePoint(frac * curve.total_length(), theta)
    frame1, _, _, v = chord_exit(curve, curve.frame_at(z.s), z.theta)
    crossings = reference_crossings(curve, frame1, v, mu)
    assert len(crossings) == 1
    _, d = step(curve, mu, z)
    assert d.n_crossings == 1
    lo = crossings.item(0)
    assert lo <= 2.0 * d.chi <= lo + REFERENCE_PSIS.item(1) - REFERENCE_PSIS.item(0)


def test_past_the_rolling_radius_an_arc_can_cross_three_times():
    """The certificate is sharp in kind: at mu * kappa_max = 1.2 on
    Ellipse(2, 1) this arc leaves the tip of the major axis, re-enters, and
    crosses the boundary twice more, so such steps keep the sampled sweep."""
    curve = Ellipse(2.0, 1.0)
    mu = 1.2 / curve.max_curvature()
    z = PhasePoint(0.1, 0.05)
    frame1, _, _, v = chord_exit(curve, curve.frame_at(z.s), z.theta)
    crossings = reference_crossings(curve, frame1, v, mu)
    assert len(crossings) == 3
    _, d = step(curve, mu, z)
    assert d.n_crossings == 3
    assert crossings.item(0) <= 2.0 * d.chi <= crossings.item(1)


@pytest.mark.parametrize("name, mu, sampled", [
    ("circle", 0.35, False), ("ellipse-2-1", 0.3, False), ("superellipse-k2", 0.3, False),
    ("stadium", 0.3, False), ("superellipse-k3", 0.3, True), ("circle", 3.0, False),
], ids=["circle-False", "ellipse-2-1-False", "superellipse-k2-False", "stadium-False",
        "superellipse-k3-True", "circle-mu3-False"])
def test_a_certified_step_samples_no_array(name, mu, sampled, curves, monkeypatch):
    """Below the rolling radius a step evaluates F only on floats: 200
    steps on the circle (mu kappa_max = 0.35), Ellipse(2, 1) (0.6),
    superellipse k = 2 (0.76) and Stadium(2, 1) (0.3) make no array call.
    Superellipse k = 3 at mu = 0.3 (1.19) still samples the sweep.  The
    circle steps as its exact rotation for every mu, so at mu / R = 3 it
    samples none either; it used to take the sweep there."""
    curve, _ = curves[name]
    arrays = []
    implicit = type(curve).implicit_xy

    def recording(self, x, y):
        if isinstance(x, np.ndarray):
            arrays.append(x.shape)
        return implicit(self, x, y)

    monkeypatch.setattr(type(curve), "implicit_xy", recording)
    rng = np.random.default_rng(0)
    completed = 0
    for _ in range(200):
        z = PhasePoint(float(rng.uniform(0.0, curve.total_length())),
                       float(rng.uniform(0.05, math.pi - 0.05)))
        try:
            step(curve, mu, z)
        except BilliardError:
            continue
        completed += 1
    assert completed >= 190
    assert (mu * curve.max_curvature() < 1.0 or isinstance(curve, Circle)) is not sampled
    assert bool(arrays) is sampled


# --------------------------------------------------------------------------
# The circle's exact rotation
# --------------------------------------------------------------------------

#: Larmor radii in units of R, from far below the table's size to far above
CIRCLE_RATIOS = [1e-12, 1e-8, 1e-4, 0.35, 1.0, 3.0, 1e4, 1e8]


@pytest.mark.parametrize("R", [1.0, 2.0**40], ids=["R1", "R2p40"])
def test_the_circle_step_matches_the_40_digit_rotation(R, rng):
    """``step`` on the circle against ``reference_map.circle_step``, which
    intersects the chord's line and then the Larmor circle with the table
    at 40 digits from the same float (s0, theta0, mu, R): s2 within 4 ulp
    of L, theta2 and chi within 4 ulp of pi, and ell2 within 192 ulp of
    itself, at every mu / R from 1e-12 to 1e8.  Over 600 steps per ratio
    and R the worst read 3.0 ulp of L, 2.5 and 3.1 ulp of pi and 132 ulp;
    ell2 carries theta1's absolute rounding times cot(theta1).  The
    bracketed root this replaced read theta2 off by up to 1.3e12 ulp of pi
    at mu / R = 1e-12 and 6e4 at 1e4, and raised ``NoReentry`` at 1e8; its
    chord 2 mu sin(chi) is off by 3e-7 relative at 1e8."""
    curve = Circle(R)
    length, ulp_pi = curve.total_length(), math.ulp(math.pi)
    for ratio in CIRCLE_RATIOS:
        mu = ratio * R
        for _ in range(40):
            z = PhasePoint(float(rng.uniform(0.0, length)), float(rng.uniform(0.05, math.pi - 0.05)))
            z2, d = step(curve, mu, z)
            s2, theta2, chi, ell2 = circle_step(R, mu, z.s, z.theta)
            gap = (z2.s - s2 + 0.5 * length) % length - 0.5 * length
            assert abs(gap) <= 4.0 * math.ulp(length), (ratio, z)
            assert abs(z2.theta - theta2) <= 4.0 * ulp_pi, (ratio, z)
            assert abs(d.chi - chi) <= 4.0 * ulp_pi, (ratio, z)
            assert abs(d.ell2 - ell2) <= 192.0 * math.ulp(ell2), (ratio, z)
            assert (d.n_crossings, d.root_iterations) == (1, 0)


def test_the_circle_re_enters_beside_the_exit_point_with_no_root_solve(rng):
    """Exits near the tangent (theta0 = pi - 1.8e-4, mu = 2.69) re-enter
    about 2e-4 rad of sweep before the arc returns to its exit point.  The
    sampled sweep's Newton loop took 11 to 14 steps there on the circle;
    the exact rotation takes none, reports the one crossing, and lands
    within 4 ulp of the 40-digit step."""
    curve, mu, theta0 = Circle(1.0), 2.69, math.pi - 1.8e-4
    length, ulp_pi = curve.total_length(), math.ulp(math.pi)
    for _ in range(200):
        z = PhasePoint(float(rng.uniform(0.0, length)), theta0)
        z2, d = step(curve, mu, z)
        assert (d.root_iterations, d.n_crossings) == (0, 1)
        s2, theta2, chi, _ = circle_step(1.0, mu, z.s, z.theta)
        assert abs((z2.s - s2 + 0.5 * length) % length - 0.5 * length) <= 4.0 * math.ulp(length)
        assert abs(z2.theta - theta2) <= 4.0 * ulp_pi and abs(d.chi - chi) <= 4.0 * ulp_pi
