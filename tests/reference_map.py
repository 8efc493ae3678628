"""Reference geometry of the billiard map in 40-digit arithmetic.

It imports mpmath and nothing from ``imbilliards``, so it is a second route
that shares no code with the package.  It takes the float start point and
direction that a solve starts from as exact binary inputs, and returns the
exact result of those inputs, rounded to a float at the end.

Covered so far: the chord exit on conics (the larger root of a quadratic)
and on the stadium (segment and arc intersections), the root of every
table's implicit function along a bracketed piece of a Larmor arc, and a
whole map step on the circle table from its exact phase point.
"""

from __future__ import annotations

from mpmath import atan2, cos, findroot, mp, mpf, sin, sqrt

DIGITS = 40


def chord_exit_ellipse(
    a: float, b: float, x0: float, y0: float, vx: float, vy: float,
) -> tuple[float, float]:
    """Length r > 0 at which (x0, y0) + r (vx, vy) leaves the ellipse
    x^2/a^2 + y^2/b^2 = 1 (a circle when a = b), the larger root of
    A r^2 + B r + C = 0, and the slope dF/dr = sqrt(B^2 - 4AC) of
    F = x^2/a^2 + y^2/b^2 - 1 there."""
    with mp.workdps(DIGITS):
        a2, b2 = mpf(a) ** 2, mpf(b) ** 2
        x0, y0, vx, vy = map(mpf, (x0, y0, vx, vy))
        qa = vx * vx / a2 + vy * vy / b2
        qb = 2 * (x0 * vx / a2 + y0 * vy / b2)
        qc = x0 * x0 / a2 + y0 * y0 / b2 - 1
        slope = sqrt(qb * qb - 4 * qa * qc)
        return float((-qb + slope) / (2 * qa)), float(slope)


def chord_exit_stadium(
    side: float, R: float, x0: float, y0: float, vx: float, vy: float,
) -> tuple[float, float]:
    """Length r > 0 at which (x0, y0) + r (vx, vy) leaves the stadium of
    points within R of the segment [-side/2, side/2] x {0}, and the slope
    dF/dr there of F, the distance to the segment minus R.

    A line meets the boundary of a convex table in at most two points, one
    of them the start point, so the exit is the farthest intersection with
    a flat side (|x| <= side/2) or a cap (|x| >= side/2)."""
    with mp.workdps(DIGITS):
        h, R = mpf(side) / 2, mpf(R)
        x0, y0, vx, vy = map(mpf, (x0, y0, vx, vy))
        slack = mpf(10) ** (5 - DIGITS)
        hits = []
        if vy != 0:
            for wall in (R, -R):
                r = (wall - y0) / vy
                if abs(x0 + r * vx) <= h + slack:
                    hits.append((r, abs(vy)))
        for cx in (h, -h):
            # |p0 + r v - c|^2 = R^2 with |v| = 1 up to rounding
            dx = x0 - cx
            qa = vx * vx + vy * vy
            qb = 2 * (dx * vx + y0 * vy)
            qc = dx * dx + y0 * y0 - R * R
            disc = qb * qb - 4 * qa * qc
            if disc >= 0:
                r = (-qb + sqrt(disc)) / (2 * qa)
                if (x0 + r * vx - cx) * cx >= -slack:
                    hits.append((r, sqrt(disc) / (2 * R)))
        r, slope = max(hits)
        return float(r), float(slope)


def _implicit(table: dict, x, y):
    """The defining function of ``table`` (a curve config: kind and
    parameters) at mp coordinates, negative inside, and its gradient."""
    kind = table["kind"]
    if kind == "circle":
        return x * x + y * y - mpf(table["R"]) ** 2, (2 * x, 2 * y)
    if kind == "ellipse":
        a2, b2 = mpf(table["a"]) ** 2, mpf(table["b"]) ** 2
        return x * x / a2 + y * y / b2 - 1, (2 * x / a2, 2 * y / b2)
    if kind == "superellipse":
        k = int(table["k"])
        return x ** (2 * k) + y ** (2 * k) - 1, (2 * k * x ** (2 * k - 1), 2 * k * y ** (2 * k - 1))
    if kind == "stadium":
        # distance to the segment [-side/2, side/2] x {0}, minus R
        h = mpf(table["side"]) / 2
        qx = max(abs(x) - h, 0) * (1 if x >= 0 else -1)
        dist = sqrt(qx * qx + y * y)
        return dist - mpf(table["R"]), (qx / dist, y / dist)
    raise ValueError(f"unknown table kind {kind!r}")


def larmor_root(
    table: dict, cx: float, cy: float, rx: float, ry: float, lo: float, hi: float,
) -> tuple[float, float]:
    """Sweep angle psi in [lo, hi] at which the Larmor arc
    (cx, cy) + rot(psi) (rx, ry) crosses the boundary of ``table``, and the
    slope dF/dpsi = grad F . rot90(p - c) of its defining function there.

    ``table`` is a curve config (``{"kind": "ellipse", "a": 2.0, "b": 1.0}``);
    F is the circle's x^2 + y^2 - R^2, the ellipse's x^2/a^2 + y^2/b^2 - 1,
    the superellipse's x^2k + y^2k - 1 and the stadium's distance to its
    segment minus R.  F must change sign on [lo, hi]; the root is found there
    by the bracketed Anderson-Bjorck solver."""
    with mp.workdps(DIGITS):
        cx, cy, rx, ry = map(mpf, (cx, cy, rx, ry))

        def point(psi):
            c, s = cos(psi), sin(psi)
            return cx + c * rx - s * ry, cy + s * rx + c * ry

        def residual(psi):
            return _implicit(table, *point(psi))[0]

        psi = findroot(residual, (mpf(lo), mpf(hi)), solver="anderson")
        x, y = point(psi)
        gx, gy = _implicit(table, x, y)[1]
        return float(psi), float(gy * (x - cx) - gx * (y - cy))


def circle_step(R: float, mu: float, s0: float, theta0: float
                ) -> tuple[float, float, float, float]:
    """``(s2, theta2, chi, ell2)``: the image of the phase point ``(s0, theta0)``
    on the circle of radius R at Larmor radius mu, from those four floats
    taken as exact.

    The chord from Gamma(s0) = R (cos(s0/R), sin(s0/R)) at angle theta0 from
    the tangent meets the circle again at the nonzero root of the quadratic
    |P0 + r v|^2 = R^2.  The Larmor circle of radius mu about
    P1 + mu rot90(v) meets the table's circle at P1 and at one more point,
    P2, from the radical line of the two circles.  s2 is P2's polar angle
    times R in [0, 2 pi R), theta2 the angle from the tangent at P2 to the
    anticlockwise arc's velocity there, chi in (0, pi) the angle from v to
    the chord P1 P2, and ell2 that chord's length."""
    with mp.workdps(DIGITS):
        R, mu, s0, theta0 = map(mpf, (R, mu, s0, theta0))
        c0, n0 = cos(s0 / R), sin(s0 / R)
        tx, ty = -n0, c0  # the tangent at P0; the inward normal is (-c0, -n0)
        vx = cos(theta0) * tx - sin(theta0) * c0
        vy = cos(theta0) * ty - sin(theta0) * n0
        x0, y0 = R * c0, R * n0
        r = -2 * (x0 * vx + y0 * vy)  # line-circle: r^2 + 2 r P0 . v = 0
        x1, y1 = x0 + r * vx, y0 + r * vy
        cx, cy = x1 - mu * vy, y1 + mu * vx  # the Larmor centre
        d = sqrt(cx * cx + cy * cy)
        along = (d * d + R * R - mu * mu) / (2 * d)  # the radical line's distance from O
        across = sqrt(R * R - along * along)
        ux, uy = cx / d, cy / d
        x2, y2 = max(((along * ux - side * across * uy, along * uy + side * across * ux)
                      for side in (1, -1)),
                     key=lambda p: (p[0] - x1) ** 2 + (p[1] - y1) ** 2)
        wx, wy = -(y2 - cy) / mu, (x2 - cx) / mu  # the arc's velocity at P2
        theta2 = atan2(-(wx * x2 + wy * y2) / R, (wy * x2 - wx * y2) / R)
        chi = atan2(vx * (y2 - y1) - vy * (x2 - x1), vx * (x2 - x1) + vy * (y2 - y1))
        s2 = R * atan2(y2, x2) % (2 * mp.pi * R)
        ell2 = sqrt((x2 - x1) ** 2 + (y2 - y1) ** 2)
        return float(s2), float(theta2), float(chi), float(ell2)
