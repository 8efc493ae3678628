"""Geometry layer: parametrisation, frames, curvature, length, lookup."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipeinc

from conftest import CURVE_MENU
from imbilliards import curves as curves_module
from imbilliards.curves import Circle, Ellipse, Stadium, Superellipse, make_curve, rot90

CURVE_IDS = [name for name, _, _ in CURVE_MENU]


def fd_tangent(curve, s: float, h: float = 1e-6) -> np.ndarray:
    return (curve.frame_at(s + h).point - curve.frame_at(s - h).point) / (2.0 * h)


def fd_curvature(curve, s: float, h: float = 1e-5) -> float:
    tp = curve.frame_at(s + h).tangent
    tm = curve.frame_at(s - h).tangent
    return (math.atan2(tp[1], tp[0]) - math.atan2(tm[1], tm[0])) / (2.0 * h)


def stadium_smooth_s(stadium: Stadium, rng, n: int) -> np.ndarray:
    """Arclength samples staying clear of the four cap/flat junctions."""
    length = stadium.total_length()
    junctions = np.array(
        [
            0.5 * math.pi * stadium.R,
            0.5 * math.pi * stadium.R + stadium.side,
            1.5 * math.pi * stadium.R + stadium.side,
            1.5 * math.pi * stadium.R + 2.0 * stadium.side,
        ]
    )
    out = []
    while len(out) < n:
        s = rng.uniform(0.0, length)
        gaps = np.abs((s - junctions + 0.5 * length) % length - 0.5 * length)
        if gaps.min() > 1e-3:
            out.append(s)
    return np.asarray(out)


@pytest.mark.parametrize("name", CURVE_IDS)
def test_tangent_is_unit_speed_derivative(name, curves, rng):
    curve, _ = curves[name]
    length = curve.total_length()
    for s in rng.uniform(0.0, length, size=40):
        t = curve.frame_at(float(s)).tangent
        assert abs(np.linalg.norm(t) - 1.0) < 1e-9
        assert np.linalg.norm(t - fd_tangent(curve, float(s))) < 1e-6


@pytest.mark.parametrize("name", CURVE_IDS)
def test_inward_normal_points_inside(name, curves, rng):
    curve, _ = curves[name]
    length = curve.total_length()
    for s in rng.uniform(0.0, length, size=40):
        p = curve.frame_at(float(s)).point
        n = rot90(curve.frame_at(float(s)).tangent)
        assert curve.implicit_xy(*(p + 1e-4 * n)) < 0.0
        assert curve.implicit_xy(*(p - 1e-4 * n)) >= 0.0


@pytest.mark.parametrize("name", CURVE_IDS)
def test_curvature_matches_turning_rate(name, curves, rng):
    curve, _ = curves[name]
    if isinstance(curve, Stadium):
        samples = stadium_smooth_s(curve, rng, 30)
    else:
        samples = rng.uniform(0.0, curve.total_length(), size=30)
    for s in samples:
        assert abs(curve.frame_at(float(s)).curvature - fd_curvature(curve, float(s))) < 1e-5


def test_curvature_closed_forms(rng):
    circle = Circle(1.7)
    for s in rng.uniform(0.0, circle.total_length(), size=10):
        assert abs(circle.frame_at(float(s)).curvature - 1.0 / 1.7) < 1e-12

    a, b = 2.0, 1.0
    ellipse = Ellipse(a, b)
    s_right = ellipse.frame_of(np.array([a, 0.0])).s
    s_top = ellipse.frame_of(np.array([0.0, b])).s
    assert abs(ellipse.frame_at(s_right).curvature - a / b**2) < 1e-8
    assert abs(ellipse.frame_at(s_top).curvature - b / a**2) < 1e-8

    for k in (2, 3):
        se = Superellipse(k)
        s_axis = se.frame_of(np.array([1.0, 0.0])).s
        assert abs(se.frame_at(s_axis).curvature) < 1e-8

    stadium = Stadium(2.0, 1.0)
    s_flat = stadium.frame_of(np.array([0.0, 1.0])).s
    s_cap = stadium.frame_of(np.array([2.0, 0.0])).s
    assert stadium.frame_at(s_flat).curvature == 0.0
    assert abs(stadium.frame_at(s_cap).curvature - 1.0) < 1e-12


@pytest.mark.parametrize("name", CURVE_IDS)
def test_locate_roundtrip(name, curves, rng):
    curve, _ = curves[name]
    length = curve.total_length()
    for s in rng.uniform(0.0, length, size=40):
        s_back = curve.frame_of(curve.frame_at(float(s)).point).s
        gap = abs((s_back - s + 0.5 * length) % length - 0.5 * length)
        assert gap < 1e-7


@pytest.mark.parametrize("name", CURVE_IDS)
def test_frame_of_inverts_frame_at(name, curves, rng):
    """The frame of a boundary point, built from the point, agrees with the
    frame built from its arclength."""
    curve, _ = curves[name]
    length = curve.total_length()
    for s in rng.uniform(0.0, length, size=40):
        at = curve.frame_at(float(s))
        of = curve.frame_of(at.point)
        assert abs((of.s - at.s + 0.5 * length) % length - 0.5 * length) < 1e-12
        assert np.linalg.norm(of.point - at.point) < 1e-12
        assert np.linalg.norm(of.tangent - at.tangent) < 1e-12
        assert abs(of.curvature - at.curvature) < 1e-12 * max(1.0, abs(at.curvature))


@pytest.mark.parametrize("name", CURVE_IDS)
def test_frame_of_rejects_points_off_the_boundary(name, curves):
    curve, _ = curves[name]
    with pytest.raises(ValueError, match="is not on the boundary"):
        curve.frame_of((0.0, 0.0))


@pytest.mark.parametrize("name", CURVE_IDS)
def test_frame_floats_are_its_point_and_tangent(name, curves, rng):
    """A frame's floats x, y, tx, ty are its point and tangent bit for bit,
    on frames from an arclength and from a point; the arrays are built once
    and the same object is returned on every read."""
    curve, _ = curves[name]
    for s in rng.uniform(0.0, curve.total_length(), size=20):
        at = curve.frame_at(float(s))
        for frame in (at, curve.frame_of((at.x, at.y))):
            assert frame.point.tolist() == [frame.x, frame.y]
            assert frame.tangent.tolist() == [frame.tx, frame.ty]
            assert all(type(v) is float for v in (frame.x, frame.y, frame.tx, frame.ty))
            assert frame.point is frame.point and frame.tangent is frame.tangent


@pytest.mark.parametrize("name", CURVE_IDS)
def test_frame_angle_inverts_direction(name, curves, rng):
    """The angle of a launched velocity is its launch angle; the velocity
    launched at -theta exits at angle theta, read inside the table."""
    curve, _ = curves[name]
    for s in rng.uniform(0.0, curve.total_length(), size=20):
        frame = curve.frame_at(float(s))
        for theta in rng.uniform(0.05, math.pi - 0.05, size=20).tolist():
            assert abs(frame.angle(np.array(frame.direction(theta))) - theta) <= 1e-15
            exiting = np.array(frame.direction(-theta))
            assert abs(frame.angle(exiting, entering=False) - theta) <= 1e-15


@pytest.mark.parametrize("name", CURVE_IDS)
def test_boundary_points_satisfy_implicit_equation(name, curves, rng):
    curve, _ = curves[name]
    for s in rng.uniform(0.0, curve.total_length(), size=40):
        p = curve.frame_at(float(s)).point
        assert abs(curve.implicit_xy(*p)) < 1e-9
        g = np.array(curve.gradient_xy(*p))
        # Outward gradient: moving along it must leave the region.
        assert curve.implicit_xy(*(p + 1e-4 * g / np.linalg.norm(g))) > 0.0


def test_ellipse_field_and_speed_take_the_same_bits_on_floats_and_arrays(rng):
    """The ellipse squares with ``*``, so a point of an array gets the bits of
    the float call; with ``**`` about 0.08% of points differed."""
    curve = Ellipse(2.0, 1.0)
    xs, ys = rng.uniform(-3.0, 3.0, size=(2, 20000))
    assert curve.implicit_xy(xs, ys).tolist() == [
        curve.implicit_xy(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    ts = rng.uniform(0.0, 2.0 * math.pi, 20000)
    cs, ss = np.cos(ts), np.sin(ts)
    speed2 = curve._table._speed2
    assert speed2(cs, ss).tolist() == [speed2(c, s) for c, s in zip(cs.tolist(), ss.tolist())]

@pytest.mark.parametrize("name", CURVE_IDS)
def test_coordinate_forms_agree_on_floats_and_arrays(name, curves, rng):
    """One formula serves a point and an array.  On floats and on arrays the
    defining function, its gradient and the parametric speed differ only by
    the rounding of the powers not written as products (the ellipse and the
    superellipse square with ``*``): the C library's pow on floats, numpy's
    vectorized pow on arrays, which squares exactly."""
    curve, _ = curves[name]
    half = 0.6 * curve.diameter_bound()
    xs, ys = rng.uniform(-half, half, size=(2, 1000))
    values = curve.implicit_xy(xs, ys)
    gxs, gys = curve.gradient_xy(xs, ys)
    # F is a sum of non-negative terms minus its value c at the centre, so
    # |F| + 2c bounds the size of the terms it is rounded from.
    c = -curve.implicit_xy(0.0, 0.0)
    for x, y, value, gx, gy in zip(xs.tolist(), ys.tolist(), values, gxs, gys):
        assert abs(curve.implicit_xy(x, y) - value) <= 4e-16 * (abs(value) + 2.0 * c)
        fx, fy = curve.gradient_xy(x, y)
        g = math.hypot(gx, gy)
        assert abs(fx - gx) <= 8e-16 * g and abs(fy - gy) <= 8e-16 * g
    table = getattr(curve, "_table", None)
    if table is not None:
        ts = rng.uniform(0.0, 2.0 * math.pi, 1000)
        for t, speed in zip(ts.tolist(), table._speeds(ts)):
            assert abs(math.sqrt(table._speed2(math.cos(t), math.sin(t))) - speed) <= 8e-16 * speed


def test_stadium_distance_field_matches_hypot(rng):
    """The stadium's plain-arithmetic distance field and gradient agree with
    the capsule distance written with ``math.hypot``; on the inner segment,
    where the field has a ridge, the gradient is (0, 0)."""
    stadium = Stadium(2.0, 1.0)
    for x, y in rng.uniform(-2.5, 2.5, (2000, 2)).tolist():
        qx = max(abs(x) - 1.0, 0.0)
        h = math.hypot(qx, y)
        assert abs(stadium.implicit_xy(x, y) - (h - 1.0)) <= 2 * math.ulp(max(h, 1.0))
        gx, gy = stadium.gradient_xy(x, y)
        assert abs(gx - math.copysign(qx, x) / h) <= 2 * math.ulp(1.0)
        assert abs(gy - y / h) <= 2 * math.ulp(1.0)
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert stadium.gradient_xy(x, 0.0) == (0.0, 0.0)
    gxs, gys = stadium.gradient_xy(np.array([-0.5, 0.0, 1.0]), np.zeros(3))
    assert not gxs.any() and not gys.any()


@pytest.mark.parametrize("side, R", [(2.0, 1.0), (0.3, 1.7)])
def test_the_stadium_is_its_upper_half_turned_by_a_half_turn(side, R):
    """On the lower half of the stadium the frame at s is the frame at
    s - L/2 turned through a half-turn, bit for bit: point and tangent
    negated, curvature kept.  ``frame_of`` of that point returns s to
    within 1e-12 L.  The grid holds L/2 and the two lower junctions, where
    the curvature is that of the piece ahead."""
    stadium = Stadium(side, R)
    length = stadium.total_length()
    half = 0.5 * length
    grid = np.random.default_rng(20261020).uniform(half, length, 500).tolist()
    for s in [half, half + 0.5 * math.pi * R, half + 0.5 * math.pi * R + side, *grid]:
        at, upper = stadium.frame_at(s), stadium.frame_at(s - half)
        assert (at.s, at.x, at.y, at.tx, at.ty, at.curvature) == (
            s, -upper.x, -upper.y, -upper.tx, -upper.ty, upper.curvature)
        gap = stadium.frame_of((at.x, at.y)).s - s
        assert abs((gap + half) % length - half) <= 1e-12 * length
    assert stadium.frame_at(half + 0.5 * math.pi * R).curvature == 0.0
    assert stadium.frame_at(half + 0.5 * math.pi * R + side).curvature == 1.0 / R


def test_arclength_tables_are_built_once_per_shape():
    assert Superellipse(2)._table is Superellipse(2)._table
    assert Ellipse(2.0, 1.0)._table is Ellipse(2, 1)._table
    assert Ellipse(3.0, 2.0)._table is not Ellipse(2.0, 1.0)._table
    assert Superellipse(3)._table is not Superellipse(2)._table


def test_panel_of_matches_a_binary_search(rng):
    """``s_of_t`` finds its panel by index arithmetic on the uniform grid;
    at every node, at both floats next to it and at random parameters it is
    the panel a binary search over the nodes finds."""
    nodes = curves_module._T_NODES
    ts = [t for node in nodes.tolist()
          for t in (math.nextafter(node, -math.inf), node, math.nextafter(node, math.inf))
          if 0.0 <= t <= 2.0 * math.pi]
    ts += rng.uniform(0.0, 2.0 * math.pi, 2000).tolist()
    for t in ts:
        expected = min(int(np.searchsorted(nodes, t, side="right")) - 1, len(nodes) - 2)
        assert curves_module._panel_of(t) == expected


def test_s_of_t_lands_on_the_tabulated_nodes():
    table = Superellipse(3)._table
    for i, t in enumerate(table.t_nodes.tolist()[:-1]):
        assert table.s_of_t(t) == table.s_nodes[i]
    assert table.s_of_t(-1.0) == 0.0
    assert table.s_of_t(7.0) == table.s_of_t(2.0 * math.pi)


@pytest.mark.parametrize("aspect", [1.5, 2.0, 10.0, 100.0])
def test_ellipse_chart_matches_the_elliptic_integral(aspect, rng):
    """Second route for the ellipse chart: with m = 1 - b^2/a^2, the arclength
    from the positive x-axis to parameter t is a (E(t - pi/2 | m) + E(m))."""
    a = aspect
    table = Ellipse(a, 1.0)._table
    m = 1.0 - 1.0 / a**2
    ts = rng.uniform(0.0, 2.0 * math.pi, 1000)
    exact = a * (ellipeinc(ts - 0.5 * math.pi, m) + ellipe(m))
    ulp = math.ulp(table.total_length)
    for t, s in zip(ts.tolist(), exact.tolist()):
        assert abs(table.s_of_t(t) - s) <= 32 * ulp


@pytest.mark.parametrize("k", [2, 3, 6, 20])
def test_superellipse_partial_panels_match_adaptive_quadrature(k, rng):
    """The arclength within a panel, read off its tabulated polynomial,
    agrees with adaptive quadrature of the speed from the panel start."""
    table = Superellipse(k)._table
    nodes = table.t_nodes

    def speed(t):
        return math.sqrt(table._speed2(math.cos(t), math.sin(t)))

    ulp = math.ulp(table.total_length)
    for t in rng.uniform(0.0, 2.0 * math.pi, 200).tolist():
        i = int(np.searchsorted(nodes, t, side="right")) - 1
        partial = quad(speed, nodes[i], t, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(table.s_of_t(t) - table.s_nodes[i] - partial) <= ulp


TABLE_SHAPES = {
    "ellipse-2": lambda: Ellipse(2.0, 1.0),
    "ellipse-100": lambda: Ellipse(100.0, 1.0),
    "superellipse-2": lambda: Superellipse(2),
    "superellipse-3": lambda: Superellipse(3),
    "superellipse-20": lambda: Superellipse(20),
}


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_t_of_s_inverts_s_of_t(shape, rng):
    table = TABLE_SHAPES[shape]()._table
    length = table.total_length
    for s in rng.uniform(0.0, length, 2000).tolist():
        assert abs(table.s_of_t(table.t_of_s(s)) - s) <= 2 * math.ulp(length)


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_s_of_t_is_continuous_across_the_nodes(shape):
    """Just below a node the previous panel's polynomial ends where the node
    value starts (over the whole panel the interpolant integrates to the
    Gauss rule that built the table): from the float below each node to the
    node, ``s_of_t`` grows by the speed times the step, up to rounding."""
    table = TABLE_SHAPES[shape]()._table
    ulp = math.ulp(table.total_length)
    for t in table.t_nodes[1:].tolist():
        below = math.nextafter(t, -math.inf)
        step = math.sqrt(table._speed2(math.cos(t), math.sin(t))) * (t - below)
        assert abs(table.s_of_t(t) - table.s_of_t(below) - step) <= 2 * ulp


def test_total_length_closed_forms():
    assert abs(Circle(1.3).total_length() - 2.0 * math.pi * 1.3) < 1e-9

    a, b = 2.0, 1.0
    perimeter = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert abs(Ellipse(a, b).total_length() - perimeter) < 1e-7

    stadium = Stadium(2.0, 1.0)
    assert abs(stadium.total_length() - (2.0 * 2.0 + 2.0 * math.pi)) < 1e-9


def test_wrap_is_periodic():
    curve = Ellipse(2.0, 1.0)
    length = curve.total_length()
    for s in (0.3, 1.7, length - 0.1):
        assert abs(curve.wrap(s + length) - curve.wrap(s)) < 1e-9
        assert abs(curve.wrap(s - length) - curve.wrap(s)) < 1e-9
        assert np.allclose(curve.frame_at(s + length).point, curve.frame_at(s).point)


#: every table kind at the sizes the map is run on, and the superellipses
#: up to k = 6; k = 1 is the unit circle
MAX_CURVATURE_TABLES = [
    Circle(1.0), Ellipse(2.0, 1.0), Ellipse(10.0, 1.0),
    *(Superellipse(k) for k in range(1, 7)), Stadium(2.0, 1.0),
]


@pytest.mark.parametrize("curve", MAX_CURVATURE_TABLES,
                         ids=["circle", "ellipse-2-1", "ellipse-10-1",
                              *(f"superellipse-k{k}" for k in range(1, 7)), "stadium"])
def test_max_curvature_is_the_largest_sampled_curvature(curve):
    """The closed form bounds the curvature of every frame on a grid of 4096
    arclengths, to rounding, and is within 1e-9 of the largest.  The grid
    holds s = 0 and L / 8, where the ellipse and the superellipse peak."""
    length = curve.total_length()
    sampled = max(curve.frame_at(length * i / 4096).curvature for i in range(4096))
    kappa_max = curve.max_curvature()
    assert sampled <= kappa_max * (1.0 + 1e-13)
    assert kappa_max <= sampled * (1.0 + 1e-9)


@pytest.mark.parametrize("name", CURVE_IDS)
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_arclength_is_refused(name, s, curves):
    """``wrap``, and so ``frame_at``, refuses NaN and infinite arclengths, as
    ``frame_of`` refuses a NaN point, rather than build a NaN frame that a
    map step cannot launch from."""
    curve, _ = curves[name]
    with pytest.raises(ValueError, match="must be finite"):
        curve.wrap(s)
    with pytest.raises(ValueError, match="must be finite"):
        curve.frame_at(s)
    with pytest.raises(ValueError):
        curve.frame_of((math.nan, math.nan))


@pytest.mark.parametrize("name", CURVE_IDS)
@pytest.mark.parametrize("p", [(math.nan, math.nan), (math.nan, 0.0), (0.0, math.inf),
                               (-math.inf, 0.0)], ids=["nan", "nan-x", "inf-y", "-inf-x"])
def test_a_non_finite_point_is_refused(name, p, curves):
    """``frame_of`` names a non-finite point; with NaN, every distance test
    of ``_check_on_boundary`` would be false and let it through."""
    curve, _ = curves[name]
    with pytest.raises(ValueError, match=r"boundary point must be finite, got \("):
        curve.frame_of(p)


@pytest.mark.parametrize("name", CURVE_IDS)
def test_contains_and_diameter(name, curves, rng):
    curve, _ = curves[name]
    assert curve.implicit_xy(0.0, 0.0) < 0.0
    bound = curve.diameter_bound()
    assert curve.implicit_xy(bound, bound) >= 0.0
    for s in rng.uniform(0.0, curve.total_length(), size=20):
        p = curve.frame_at(float(s)).point
        assert np.linalg.norm(p) < bound


def test_make_curve_dispatch():
    assert isinstance(make_curve({"kind": "circle", "R": 2.0}), Circle)
    assert isinstance(make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}), Ellipse)
    assert isinstance(make_curve({"kind": "superellipse", "k": 2}), Superellipse)
    assert isinstance(make_curve({"kind": "stadium", "side": 2.0, "R": 1.0}), Stadium)


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "dodecagon"},
        {"kind": "circle", "R": -1.0},
        {"kind": "ellipse", "a": 1.0, "b": 2.0},
        {"kind": "superellipse", "k": 0},
        {"kind": "stadium", "side": 0.0, "R": 1.0},
        {"R": 1.0},
    ],
)
def test_make_curve_rejects_bad_configs(config):
    with pytest.raises(ValueError):
        make_curve(config)
