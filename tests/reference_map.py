"""Reference geometry of the billiard map in 40-digit arithmetic.

It imports mpmath and nothing from ``imbilliards``, so it is a second route
that shares no code with the package.  It takes the float start point and
direction that a solve starts from as exact binary inputs, and returns the
exact result of those inputs, rounded to a float at the end.

Covered so far: the chord exit on conics (the larger root of a quadratic)
and on the stadium (segment and arc intersections).
"""

from __future__ import annotations

from mpmath import mp, mpf, sqrt

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
