"""Boundary geometry of convex billiard tables.

Every table is a simple closed curve parametrized anticlockwise by arc
length, with ``s = 0`` at the rightmost boundary point (the intersection
with the positive x-axis).  A curve exposes

* ``frame_at(s)`` — the :class:`Frame` (point, unit tangent, curvature) of
  the boundary point at arclength ``s``;
* ``frame_of(p)`` — the frame of a point ``p`` (two floats, or an array) on
  the boundary, including its arclength; the inverse of ``frame_at``;
* ``implicit_xy(x, y)`` / ``gradient_xy(x, y)`` — a defining function F with
  F < 0 strictly inside, and its gradient, in coordinates;
* ``total_length()``.

These are the only boundary queries.  A :class:`Frame` holds its point and
unit tangent as Python floats, which is all a map step reads, and builds
the arrays ``point`` and ``tangent`` only when asked.  It also owns the
angle convention of the map: theta in (0, pi) is measured from the positive
tangent towards the inward normal.  ``Frame.direction(theta)`` is the unit
velocity launched at theta and ``Frame.angle(v)`` reads theta back; an
exiting velocity is reflected (``entering=False``), so its angle is read
inside the table too.

One formula serves points and arrays: each table writes its defining
function and gradient once, and each table curve its parametric speed and
geometry once (in ``cos t``, ``sin t``), with arithmetic that works on
Python floats and on numpy arrays alike.  The collision routines evaluate
them on floats one point at a time and on arrays for dense sampling.

One map step builds one frame per boundary point it visits and passes it
on, and an orbit launches each step from the re-entry frame of the step
before, so each boundary point of an orbit is resolved once: only the
orbit's first launch point goes through ``frame_at``.

Circle and stadium have exact arclength formulas.  Ellipse and
superellipse are defined through a native angle parameter and carry an
:class:`ArclengthTable`, built once per shape and shared by every curve of
that shape.  It evaluates the parametric speed once, at the Gauss–Legendre
nodes of 2048 equal panels, and keeps the cumulative arclength at the panel
ends together with, for each panel, the polynomial integral of the speed's
interpolant at its nodes.  The arclength at a parameter is then a node
value plus one polynomial evaluation, with no quadrature per query.
``frame_of`` reads the native parameter off the point and needs only this
forward chart; ``frame_at`` inverts it once, seeding by linear
interpolation between the panel ends and polishing with Newton steps.

The inward unit normal is the positive quarter-turn of the tangent; for an
anticlockwise convex boundary this points into the table and equals
``-grad F / |grad F|``.
"""

from __future__ import annotations

import bisect
import functools
import math
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

__all__ = [
    "Frame",
    "Curve",
    "Circle",
    "Ellipse",
    "Superellipse",
    "Stadium",
    "ArclengthTable",
    "make_curve",
    "rot90",
]

_TWO_PI = 2.0 * math.pi
_SMALLEST = math.ulp(0.0)  # the smallest positive float

# Gauss-Legendre rule reused for every arclength panel.
_GL_ORDER = 12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_PANELS = 2048  # panels of every arclength table
_T_NODES = np.linspace(0.0, _TWO_PI, _PANELS + 1)  # panel ends, shared by every table
_DT = _T_NODES.item(1)  # panel width; node i sits at i * _DT
_HALF_DT = 0.5 * _DT


def _antiderivative_matrix() -> np.ndarray:
    """The (12, 13) matrix taking the speeds at the Gauss nodes of a panel to
    the power coefficients, highest first, of the integral from -1 to ``u``
    of their degree-11 interpolant, in the panel coordinate ``u`` in [-1, 1].

    The speeds are projected onto Legendre polynomials with the Gauss
    weights (exact for the interpolant), integrated term by term, and
    converted to powers of ``u``."""
    legendre = np.polynomial.legendre
    degrees = np.arange(_GL_ORDER)
    project = legendre.legvander(_GL_NODES, _GL_ORDER - 1) * _GL_WEIGHTS[:, None] * (degrees + 0.5)
    integral = legendre.legint(project, lbnd=-1, axis=1)
    return np.array([legendre.leg2poly(row) for row in integral])[:, ::-1]


_ANTIDERIVATIVE = _antiderivative_matrix()
# the integral from -1 to u of a constant 1, in the same basis
_ANTIDERIVATIVE_OF_ONE = np.concatenate((np.zeros(_GL_ORDER - 1), [1.0, 1.0]))


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate a 2-vector by +90 degrees (anticlockwise)."""
    return np.array([-v[1], v[0]])


class Frame:
    """A boundary point with its arclength, unit tangent and curvature.

    The point and the tangent are held as the floats ``x, y`` and ``tx, ty``,
    which the map step reads.  ``point`` and ``tangent`` are the same values
    as arrays, built on first access and kept, so repeated reads return the
    same object.  A frame is not changed after it is built.
    """

    __slots__ = ("s", "x", "y", "tx", "ty", "curvature", "_point", "_tangent")

    def __init__(self, s: float, x: float, y: float, tx: float, ty: float, curvature: float):
        self.s = s
        self.x = x
        self.y = y
        self.tx = tx
        self.ty = ty
        self.curvature = curvature
        self._point = self._tangent = None

    def __repr__(self) -> str:
        return (f"Frame(s={self.s!r}, x={self.x!r}, y={self.y!r}, tx={self.tx!r}, "
                f"ty={self.ty!r}, curvature={self.curvature!r})")

    @property
    def point(self) -> np.ndarray:
        if self._point is None:
            self._point = np.array([self.x, self.y])
        return self._point

    @property
    def tangent(self) -> np.ndarray:
        if self._tangent is None:
            self._tangent = np.array([self.tx, self.ty])
        return self._tangent

    def direction(self, theta: float) -> tuple[float, float]:
        """Unit velocity leaving the point at angle ``theta`` from the tangent."""
        tx, ty = self.tx, self.ty
        c, s = math.cos(theta), math.sin(theta)
        return c * tx - s * ty, c * ty + s * tx

    def angle(self, v, entering: bool = True) -> float:
        """Angle of the unit velocity ``v`` (two floats, or an array) from the
        tangent, in (0, pi) when ``v`` enters the table; an exiting ``v`` is
        reflected first."""
        vx, vy = v
        tx, ty = self.tx, self.ty
        normal_part = vy * tx - vx * ty  # v . rot90(tangent)
        if not entering:
            normal_part = -normal_part
        return math.atan2(normal_part, vx * tx + vy * ty)


def _panel_of(t: float) -> int:
    """Index of the table panel holding ``t`` in [0, 2*pi]: the last node at
    or below ``t``, short of the last node.  The quotient by the panel width
    is off by one where it rounds across a node; the neighbours decide."""
    i = min(int(t / _DT), _PANELS - 1)
    if _T_NODES.item(i) > t:
        return i - 1
    if i < _PANELS - 1 and _T_NODES.item(i + 1) <= t:
        return i + 1
    return i


class ArclengthTable:
    """Cumulative arclength of a native-parameter curve on [0, 2*pi).

    ``speed2(c, s)`` is the squared parametric speed at the parameter whose
    cosine and sine are ``c`` and ``s``; it must work on floats and on
    arrays.  The parameter range is cut into ``_PANELS`` equal panels, and
    the speed is evaluated once, at the 12 Gauss-Legendre nodes of every
    panel.  The Gauss rule gives each panel's length, and their running sum
    the arclength ``s_nodes`` at the panel ends.  Within a panel the speed
    is replaced by its degree-11 interpolant at the nodes, whose integral
    from the panel start is a degree-12 polynomial tabulated once (one row
    of coefficients per panel).  ``s_of_t`` is a panel lookup plus one
    Horner evaluation of that polynomial; it returns ``s_nodes`` exactly at
    the nodes and is continuous across them to rounding, since the
    interpolant integrates over a whole panel to the Gauss rule.

    Accuracy is set by how well a degree-11 polynomial follows the speed
    over a panel of width 2*pi/2048.  Measured on 3000 random parameters:
    ``s_of_t`` of ellipses of aspect 1.5 to 100 is within 17 ulp of the
    total length L of the incomplete elliptic integral, and the partial
    panel of superellipses up to k = 50 within 1 ulp of L of adaptive
    quadrature, as with a Gauss rule per query.  At aspect 1000 the speed
    varies on the scale of a panel near the ends of the major axis, and the
    error grows to about 520 ulp of L (13 ulp with a Gauss rule per query).
    """

    def __init__(self, speed2: Callable):
        self._speed2 = speed2
        self.t_nodes = _T_NODES
        mid = 0.5 * (_T_NODES[:-1] + _T_NODES[1:])
        # all panels in one vectorized evaluation: shape (_PANELS, order)
        speeds = self._speeds(mid[:, None] + _HALF_DT * _GL_NODES[None, :])
        panel_lengths = _HALF_DT * (speeds @ _GL_WEIGHTS)
        # a list of floats: queries index and bisect it one float at a time
        self.s_nodes = [0.0, *np.cumsum(panel_lengths).tolist()]
        self.total_length = self.s_nodes[-1]
        # The matrix has entries in the hundreds that cancel on a constant
        # speed; taking out each panel's mean first keeps that cancellation
        # exact, so the rounding scales with the speed's variation instead.
        mean = speeds.mean(axis=1, keepdims=True)
        self._antiderivative = _HALF_DT * (
            (speeds - mean) @ _ANTIDERIVATIVE + mean * _ANTIDERIVATIVE_OF_ONE
        )

    def _speeds(self, t: np.ndarray) -> np.ndarray:
        return np.sqrt(self._speed2(np.cos(t), np.sin(t)))

    def s_of_t(self, t: float) -> float:
        """Arclength from parameter 0 to ``t`` (t in [0, 2*pi])."""
        t = min(max(t, 0.0), _TWO_PI)
        i = _panel_of(t)
        a = _T_NODES.item(i)
        if t == a:
            return self.s_nodes[i]
        u = (t - a) / _HALF_DT - 1.0
        partial = 0.0
        for coefficient in self._antiderivative[i].tolist():
            partial = partial * u + coefficient
        return self.s_nodes[i] + partial

    def t_of_s(self, s: float) -> float:
        """Parameter at arclength ``s`` (s in [0, L]): Newton steps on the
        polynomial of the panel holding ``s``, whose derivative is the speed
        interpolant, seeded by linear interpolation between the panel ends."""
        s = min(max(s, 0.0), self.total_length)
        ends = self.s_nodes
        i = min(bisect.bisect_right(ends, s), _PANELS) - 1
        r = s - ends[i]
        u = 2.0 * r / (ends[i + 1] - ends[i]) - 1.0
        coefficients = self._antiderivative[i].tolist()
        for _ in range(3):
            value = slope = 0.0
            for coefficient in coefficients:
                slope = slope * u + value
                value = value * u + coefficient
            u = min(max(u - (value - r) / slope, -1.0), 1.0)
        return _T_NODES.item(i) + _HALF_DT * (u + 1.0)


@functools.lru_cache(maxsize=8)
def _arclength_table(speed2: Callable, *shape: float) -> ArclengthTable:
    """The arclength table of one shape, built once.  ``speed2`` is a
    module-level function of ``(*shape, c, s)``, so the table holds no
    reference to any curve."""
    return ArclengthTable(functools.partial(speed2, *shape))


class Curve(ABC):
    """Convex billiard table boundary, parametrized by arc length."""

    @abstractmethod
    def total_length(self) -> float: ...

    @abstractmethod
    def frame_at(self, s: float) -> Frame:
        """Frame of the boundary point at arclength ``s`` (taken mod L)."""

    @abstractmethod
    def frame_of(self, p) -> Frame:
        """Frame of a point ``p`` (two floats, or an array) on, or within
        1e-8 of, the boundary."""

    @abstractmethod
    def implicit_xy(self, x, y):
        """Defining function at coordinates ``x``, ``y`` (floats, or arrays
        of one shape), negative strictly inside."""

    @abstractmethod
    def gradient_xy(self, x, y) -> tuple:
        """``(dF/dx, dF/dy)`` of the defining function, on floats or arrays."""

    def wrap(self, s: float) -> float:
        return float(s) % self.total_length()

    # A conservative upper bound on the diameter, used to cap chord searches.
    @abstractmethod
    def diameter_bound(self) -> float: ...

    def _check_on_boundary(self, x: float, y: float) -> None:
        """Raise ``ValueError`` unless ``(x, y)`` lies within ``1e-8 * max(1,
        diameter bound)`` of the boundary (first-order distance)."""
        val = self.implicit_xy(x, y)
        dist = abs(val) / max(math.hypot(*self.gradient_xy(x, y)), 1e-300)
        if dist > 1e-8 * max(1.0, self.diameter_bound()):
            raise ValueError(
                f"point {(x, y)!r} is not on the boundary: implicit value {val:.3e} "
                f"corresponds to distance ~{dist:.3e}"
            )


class Circle(Curve):
    """Circle of radius R centered at the origin."""

    def __init__(self, R: float):
        if R <= 0:
            raise ValueError(f"circle radius must be positive, got {R}")
        self.R = float(R)

    def total_length(self) -> float:
        return _TWO_PI * self.R

    def frame_at(self, s: float) -> Frame:
        s = self.wrap(s)
        a = s / self.R
        c, sn = math.cos(a), math.sin(a)
        return Frame(s, self.R * c, self.R * sn, -sn, c, 1.0 / self.R)

    def frame_of(self, p) -> Frame:
        x, y = float(p[0]), float(p[1])
        self._check_on_boundary(x, y)
        return self.frame_at(self.R * math.atan2(y, x))

    def implicit_xy(self, x, y):
        return x * x + y * y - self.R**2

    def gradient_xy(self, x, y):
        return 2.0 * x, 2.0 * y

    def diameter_bound(self) -> float:
        return 2.0 * self.R


class _TableCurve(Curve):
    """Shared machinery for curves defined by a native angle parameter."""

    _table: ArclengthTable

    # subclass interface -----------------------------------------------------
    def _geometry(self, c: float, s: float) -> tuple[float, float, float, float, float]:
        """Point ``(x, y)``, parametric velocity ``(vx, vy)`` and curvature at
        the native parameter whose cosine and sine are ``c`` and ``s``."""

    def _t_of_point(self, x: float, y: float) -> float: ...

    def total_length(self) -> float:
        return self._table.total_length

    def _frame(self, s: float, t: float) -> Frame:
        x, y, vx, vy, kappa = self._geometry(math.cos(t), math.sin(t))
        speed = math.hypot(vx, vy)
        return Frame(s, x, y, vx / speed, vy / speed, kappa)

    def frame_at(self, s: float) -> Frame:
        s = self.wrap(s)
        return self._frame(s, self._table.t_of_s(s))

    def frame_of(self, p) -> Frame:
        x, y = float(p[0]), float(p[1])
        self._check_on_boundary(x, y)
        t = self._t_of_point(x, y)
        return self._frame(self.wrap(self._table.s_of_t(t)), t)


# Squared parametric speeds are module-level functions of the shape and of
# (cos t, sin t), bound to the shape in the cached arclength table, so a
# table holds no reference back to a curve.
def _ellipse_speed2(a: float, b: float, c, s):
    as_, bc = a * s, b * c
    return as_ * as_ + bc * bc


def _superellipse_r_rp(k: int, c, s):
    """r(phi) and its phi-derivative from cos(phi), sin(phi); sign-safe via
    even powers of cos/sin."""
    c2 = c * c
    s2 = s * s
    u = c2**k + s2**k
    r = u ** (-1.0 / (2 * k))
    du = 2 * k * s * c * (s2 ** (k - 1) - c2 ** (k - 1))
    rp = -(1.0 / (2 * k)) * u ** (-1.0 / (2 * k) - 1.0) * du
    return r, rp


def _superellipse_speed2(k: int, c, s):
    r, rp = _superellipse_r_rp(k, c, s)
    return r * r + rp * rp


class Ellipse(_TableCurve):
    """Ellipse x^2/a^2 + y^2/b^2 = 1 with a > b > 0."""

    def __init__(self, a: float, b: float):
        if not a > b > 0:
            raise ValueError(f"ellipse semi-axes must satisfy a > b > 0, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)
        self._table = _arclength_table(_ellipse_speed2, self.a, self.b)

    def _geometry(self, c, sn):
        a, b = self.a, self.b
        kappa = a * b / math.hypot(a * sn, b * c) ** 3
        return a * c, b * sn, -a * sn, b * c, kappa

    def _t_of_point(self, x, y):
        return math.atan2(y / self.b, x / self.a) % _TWO_PI

    # squares with ``*``, not ``**``: see the note on Superellipse.implicit_xy
    def implicit_xy(self, x, y):
        u, v = x / self.a, y / self.b
        return u * u + v * v - 1.0

    def gradient_xy(self, x, y):
        return 2.0 * x / self.a**2, 2.0 * y / self.b**2

    def diameter_bound(self) -> float:
        return 2.0 * self.a


class Superellipse(_TableCurve):
    """The curve x^(2k) + y^(2k) = 1 for integer k >= 1.

    Strictly convex; for k >= 2 the curvature vanishes at the four axis
    points and peaks at the four diagonal points.  Parametrized by polar
    angle: r(phi) = (cos(phi)^(2k) + sin(phi)^(2k))^(-1/(2k)), which keeps
    the parametric speed bounded (the classic Lame parametrization does
    not).
    """

    def __init__(self, k: int):
        if int(k) != k or k < 1:
            raise ValueError(f"superellipse exponent k must be an integer >= 1, got {k}")
        self.k = int(k)
        self._table = _arclength_table(_superellipse_speed2, self.k)

    def _geometry(self, c, s):
        r, rp = _superellipse_r_rp(self.k, c, s)
        x, y = r * c, r * s
        # curvature from the implicit form F = x^(2k) + y^(2k) - 1:
        # kappa = (Fxx Fy^2 - 2 Fxy Fx Fy + Fyy Fx^2)/|grad F|^3 with Fxy = 0
        k = self.k
        fx, fy = self.gradient_xy(x, y)
        num = 2 * k * (2 * k - 1) * ((x * x) ** (k - 1) * (fy * fy) + (y * y) ** (k - 1) * (fx * fx))
        return x, y, rp * c - r * s, rp * s + r * c, num / math.hypot(fx, fy) ** 3

    def _t_of_point(self, x, y):
        return math.atan2(y, x) % _TWO_PI

    # On floats ``x ** 2`` is the C library's pow and may differ from ``x * x``
    # in the last bit, so every square here, and in the speed and curvature
    # above, is taken with ``*``, on floats and arrays alike.
    def implicit_xy(self, x, y):
        k = self.k
        return (x * x) ** k + (y * y) ** k - 1.0

    def gradient_xy(self, x, y):
        k = self.k
        return 2 * k * x * (x * x) ** (k - 1), 2 * k * y * (y * y) ** (k - 1)

    def diameter_bound(self) -> float:
        # farthest points are the diagonal ones, at radius sqrt(2) * 2^(-1/(2k))
        return 2.0 * 2.0 ** (0.5 - 1.0 / (2.0 * self.k))


class Stadium(Curve):
    """Stadium: rectangle of width ``side`` and height 2R, capped by two
    radius-R semicircles on the left and right.

    Piecewise-exact arclength; curvature jumps between 0 (sides) and 1/R
    (caps), and ``frame_at`` returns the curvature of the piece *ahead* in
    the anticlockwise direction at the four junctions.  The implicit
    function is the capsule signed-distance field, which is C^1 across the
    junction normals.
    """

    def __init__(self, side: float, R: float):
        if side <= 0 or R <= 0:
            raise ValueError(f"stadium needs side > 0 and R > 0, got side={side}, R={R}")
        self.side = float(side)
        self.R = float(R)
        self._cap = math.pi * self.R  # length of one semicircular cap
        self._L = 2.0 * self.side + 2.0 * self._cap

    def total_length(self) -> float:
        return self._L

    # piece boundaries: [0, cap/2) right-upper cap, [cap/2, cap/2+side) top,
    # [cap/2+side, 3cap/2+side) left cap, then bottom, then right-lower cap.
    def _piece(self, s: float):
        h = 0.5 * self._cap
        if s < h:
            return "cap_r", s
        if s < h + self.side:
            return "top", s - h
        if s < 3 * h + self.side:
            return "cap_l", s - h - self.side
        if s < 3 * h + 2 * self.side:
            return "bottom", s - 3 * h - self.side
        return "cap_r2", s - 3 * h - 2 * self.side

    def frame_at(self, s: float) -> Frame:
        s = self.wrap(s)
        piece, u = self._piece(s)
        hx = 0.5 * self.side
        R = self.R
        if piece == "top":
            return Frame(s, hx - u, R, -1.0, 0.0, 0.0)
        if piece == "bottom":
            return Frame(s, -hx + u, -R, 1.0, 0.0, 0.0)
        if piece == "cap_r":
            cx, a = hx, u / R
        elif piece == "cap_l":
            cx, a = -hx, math.pi / 2 + u / R
        else:
            cx, a = hx, 3 * math.pi / 2 + u / R
        c, sn = math.cos(a), math.sin(a)
        return Frame(s, cx + R * c, R * sn, -sn, c, 1.0 / R)

    def frame_of(self, p) -> Frame:
        x, y = float(p[0]), float(p[1])
        self._check_on_boundary(x, y)
        hx = 0.5 * self.side
        h = 0.5 * self._cap
        if x >= hx:
            a = math.atan2(y, x - hx)  # in (-pi/2, pi/2)
            return self.frame_at(self.R * a)
        if x <= -hx:
            a = math.atan2(y, x + hx) % _TWO_PI  # in (pi/2, 3pi/2)
            return self.frame_at(h + self.side + self.R * (a - math.pi / 2))
        if y > 0:
            return self.frame_at(h + (hx - x))
        return self.frame_at(3 * h + self.side + (x + hx))

    # Plain arithmetic serves floats and arrays without a numpy call per
    # float: max(q, 0) is 0.5 * (q + |q|), exactly.
    def implicit_xy(self, x, y):
        q = abs(x) - 0.5 * self.side
        qx = 0.5 * (q + abs(q))
        return (qx * qx + y * y) ** 0.5 - self.R

    def gradient_xy(self, x, y):
        hx = 0.5 * self.side
        right, left = x - hx, -x - hx
        qx = 0.5 * (right + abs(right)) - 0.5 * (left + abs(left))  # sign(x) * max(|x| - hx, 0)
        # on the inner segment (qx = y = 0) the distance field has a ridge and
        # both components are 0: the smallest positive float keeps 0/h at 0,
        # and leaves every h above 2^-1021 as it is
        h = (qx * qx + y * y) ** 0.5 + _SMALLEST
        return qx / h, y / h

    def diameter_bound(self) -> float:
        return self.side + 2.0 * self.R


_KINDS = {"circle", "ellipse", "superellipse", "stadium"}


def make_curve(config: dict) -> Curve:
    """Build a curve from a plain config mapping.

    Recognized kinds: ``circle`` (R), ``ellipse`` (a, b), ``superellipse``
    (k), ``stadium`` (side, R).  Unknown kinds or missing parameters raise
    ``ValueError`` with the offending key named.
    """
    if "kind" not in config:
        raise ValueError("curve config needs a 'kind' key")
    kind = config["kind"]
    params = {key: val for key, val in config.items() if key != "kind"}
    try:
        if kind == "circle":
            return Circle(**params)
        if kind == "ellipse":
            return Ellipse(**params)
        if kind == "superellipse":
            return Superellipse(**params)
        if kind == "stadium":
            return Stadium(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for curve kind {kind!r}: {exc}") from exc
    raise ValueError(f"unknown curve kind {kind!r}; expected one of {sorted(_KINDS)}")
