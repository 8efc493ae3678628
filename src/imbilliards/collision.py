"""One map step, geometrically: chord exit and Larmor-arc re-entry.

The particle leaves the boundary point Gamma(s0) at angle theta0 from the
positive tangent, travels straight inside the table, exits at P1, then
follows an anticlockwise circular arc of Larmor radius mu outside the
table until the first boundary crossing P2.

Root-finding policy: each predicate finds a root of the boundary's implicit
function F along its path.  Along a chord, every built-in F is convex with
F(0) = 0, F < 0 inside and F > 0 beyond the exit, so Newton's method
started past the far side of the table (Fourier's condition) decreases
monotonically to the exit root and needs no bracket; it stops once the
Newton step is no longer positive.  Along the Larmor circle F has no such
shape: we sample N=512 sweep angles, take the first transversal crossing
past a small sweep guard (the circle is tangent to the chord at P1, so
re-detection of P1 is excluded by sweep angle, not by distance) and refine
it by one safeguarded Newton loop ("rtsafe", Numerical Recipes 9.4).

Both routines take the boundary frame (:class:`~imbilliards.curves.Frame`)
of the point they start from and return the frame of the point they reach,
so a map step resolves each boundary point once.  Between the two frames
they work on Python floats: the frame's coordinates, the chord direction
``v`` (two floats, handed from the chord to the arc) and every residual,
slope and angle.  The one array computation is the 512-sample sweep.

Both also decide the map's domain, theta in (ANGLE_EPS, pi - ANGLE_EPS): a launch
outside it raises :class:`TangentialChord` and a re-entry outside it
:class:`TangentialContact`, so every phase point a step returns can be launched again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, Frame
from .errors import NoInteriorHit, NoReentry, TangentialChord, TangentialContact

__all__ = ["ChordHit", "LarmorHit", "chord_exit", "larmor_reentry"]

ANGLE_EPS = 1e-12      # theta within this of {0, pi} lies outside the domain
_DOMAIN = f"the open interval ({ANGLE_EPS}, pi - {ANGLE_EPS})"
SWEEP_GUARD = 1e-7     # smallest admissible Larmor sweep angle
N_SWEEP_SAMPLES = 512  # dense sampling of the Larmor circle
_EPS = 2.0**-52        # float64 machine epsilon
ROOT_STEP_TOL = 1e-12  # after a Newton step this small the next is below rounding
MAX_ROOT_ITERATIONS = 100  # a transversal crossing takes 2 or 3
#: the sampled Larmor sweep angles, with their cosines and sines
SWEEP_ANGLES = np.linspace(SWEEP_GUARD, 2.0 * math.pi - SWEEP_GUARD, N_SWEEP_SAMPLES)
SWEEP_COS, SWEEP_SIN = np.cos(SWEEP_ANGLES), np.sin(SWEEP_ANGLES)


@dataclass(frozen=True)
class ChordHit:
    """Where the straight chord leaves the table."""

    frame1: Frame   # boundary frame at the exit point P1
    theta1: float   # angle in (0, pi) between chord direction and tangent at P1
    ell1: float     # chord length |P0 P1|
    v: tuple[float, float]  # unit chord direction, built from the launch frame


@dataclass(frozen=True)
class LarmorHit:
    """Where the Larmor arc re-enters the table.

    ``chi`` is the angle between the exit velocity and the ray P1->P2; it
    satisfies ell2 = 2 mu sin(chi), and the arc sweep equals 2 chi (the
    tangent-chord angle of the Larmor circle).  ``n_crossings`` counts the
    transversal boundary crossings strictly after the exit point over one
    full revolution (the return to the exit point itself is excluded): 1
    for a clean re-entry, 3 when the Larmor circle meets the boundary at
    four points — a diagnostic for geometries where the circle "clips a
    corner" of the table.  ``iterations`` counts the steps of the root
    solve, each one evaluation of F and its gradient.
    """

    frame2: Frame  # boundary frame at the re-entry point P2
    theta2: float
    chi: float
    ell2: float
    arc_sweep: float
    n_crossings: int
    iterations: int


def _arc_point(psi: float, cx: float, cy: float, rx: float, ry: float) -> tuple[float, float]:
    c, s = math.cos(psi), math.sin(psi)
    return cx + (c * rx - s * ry), cy + (s * rx + c * ry)


def chord_exit(curve: Curve, frame0: Frame, theta0: float) -> ChordHit:
    """First boundary intersection of the chord launched from the boundary
    point ``frame0`` at angle ``theta0`` from its tangent.

    Raises :class:`TangentialChord` for theta0 outside the open interval
    (``ANGLE_EPS``, pi - ``ANGLE_EPS``) and :class:`NoInteriorHit`
    when the chord is too short for rounding to tell its exit from the
    launch point, as on launches within about 1e-9 of the tangent.
    """
    if not ANGLE_EPS < theta0 < math.pi - ANGLE_EPS:
        raise TangentialChord(f"launch angle {theta0!r} is not in {_DOMAIN}")

    x0, y0 = frame0.x, frame0.y
    vx, vy = frame0.direction(theta0)
    r = 1.01 * curve.diameter_bound()
    if curve.implicit_xy(x0 + r * vx, y0 + r * vy) <= 0.0:  # pragma: no cover - conservative bound
        raise NoInteriorHit("ray does not leave the table within the diameter bound")

    # F is convex along the ray with F(0) = 0 and F < 0 on (0, r_exit), so
    # from F(r) > 0 each Newton step moves down towards r_exit and never
    # past it, up to rounding: stop once the step is no longer positive.
    while True:
        x, y = x0 + r * vx, y0 + r * vy
        gx, gy = curve.gradient_xy(x, y)
        df = gx * vx + gy * vy
        f = curve.implicit_xy(x, y)
        if f <= 0.0 or df <= 0.0:
            break
        r_next = r - f / df
        if r_next >= r:
            break
        r = r_next

    # F's terms are of size about 1, so rounding decides r only to a few
    # eps / |dF/dr|: a chord within 8 of those units is the launch point again.
    if r < 1e-9 * curve.total_length() or r * abs(df) <= 8.0 * _EPS:
        raise NoInteriorHit(
            f"chord of {r:.3e} from s0={frame0.s!r} is below 1e-9 L or below the "
            "rounding floor 8 eps / |dF/dr|: the ray exits immediately"
        )

    v = (vx, vy)
    frame1 = curve.frame_of((x0 + r * vx, y0 + r * vy))
    return ChordHit(frame1=frame1, theta1=frame1.angle(v, entering=False), ell1=r, v=v)


def larmor_reentry(curve: Curve, frame1: Frame, v, mu: float) -> LarmorHit:
    """First boundary crossing of the anticlockwise Larmor arc from the exit
    point ``frame1``.

    ``v`` is the unit chord direction at the exit point (two floats, or an
    array); the Larmor center sits at P1 + mu * rot90(v).  The crossing is
    bracketed on the implicit function sampled along the circle, refined by
    one safeguarded Newton loop, and must be transversal at a re-entry angle
    in the domain; otherwise :class:`TangentialContact` is raised, also when
    the loop does not converge within ``MAX_ROOT_ITERATIONS`` steps.
    """
    if mu <= 0:
        raise ValueError(f"Larmor radius must be positive, got {mu}")
    s1 = frame1.s
    x1, y1 = frame1.x, frame1.y
    vx, vy = float(v[0]), float(v[1])
    cx, cy = x1 - mu * vy, y1 + mu * vx  # P1 + mu * rot90(v)
    rx, ry = x1 - cx, y1 - cy  # radius vector, |rel| = mu

    # Dense sweep sampling, one vectorized implicit evaluation.
    vals = curve.implicit_xy(cx + SWEEP_COS * rx - SWEEP_SIN * ry,
                             cy + SWEEP_SIN * rx + SWEEP_COS * ry)

    if vals[0] < 0.0:
        # Already inside at the sweep guard: the arc hugs the boundary at
        # tangency order; no transversal re-entry to report.
        raise TangentialContact(
            f"Larmor arc from s1={s1!r} is inside the table at sweep {SWEEP_GUARD}"
        )

    inside = np.signbit(vals)
    n_crossings = int(np.count_nonzero(inside[1:] != inside[:-1]))
    entering = (vals[:-1] > 0.0) & inside[1:]
    i = int(entering.argmax())  # the first entering interval, or 0 if none
    if not entering[i]:
        raise NoReentry(
            f"no boundary crossing along the full Larmor sweep from s1={s1!r} "
            f"(mu={mu!r}); the table is not convex around this arc"
        )
    a, b = SWEEP_ANGLES.item(i), SWEEP_ANGLES.item(i + 1)
    fa, fb = (curve.implicit_xy(*_arc_point(t, cx, cy, rx, ry)) for t in (a, b))
    if fa <= 0.0 or fb >= 0.0:  # pragma: no cover - defensive
        raise TangentialContact("bracketing sign change collapsed under refinement")

    # Newton from the regula falsi point; the sign of F at each iterate moves an
    # end of [a, b].  A Newton step that leaves [a, b] or fails to halve the last bisects.
    psi, dpsi = a + (b - a) * fa / (fa - fb), b - a
    for iterations in range(1, MAX_ROOT_ITERATIONS + 1):
        x, y = _arc_point(psi, cx, cy, rx, ry)
        f = curve.implicit_xy(x, y)
        gx, gy = curve.gradient_xy(x, y)
        slope = gy * (x - cx) - gx * (y - cy)  # dF/dpsi = grad F . rot90(p - c)
        if f:
            a, b = (psi, b) if f > 0.0 else (a, psi)
        in_bracket = ((psi - a) * slope - f) * ((psi - b) * slope - f) < 0.0
        dpsi = f / slope if in_bracket and abs(2.0 * f) <= abs(dpsi * slope) else psi - 0.5 * (a + b)
        psi -= dpsi
        if abs(dpsi) <= ROOT_STEP_TOL:
            break
    else:
        raise TangentialContact(f"Larmor re-entry from s1={s1!r} did not converge")
    if abs(slope) < 1e-10 * max(math.hypot(gx, gy) * mu, 1e-30):
        raise TangentialContact(f"Larmor circle grazes the boundary tangentially at sweep {psi!r}")

    x2, y2 = _arc_point(psi, cx, cy, rx, ry)
    frame2 = curve.frame_of((x2, y2))
    c, s = math.cos(psi), math.sin(psi)
    theta2 = frame2.angle((c * vx - s * vy, s * vx + c * vy))
    if not ANGLE_EPS < theta2 < math.pi - ANGLE_EPS:
        raise TangentialContact(f"re-entry angle {theta2!r} from s1={s1!r} is not in {_DOMAIN}")

    dx, dy = x2 - x1, y2 - y1
    ell2 = math.hypot(dx, dy)
    # chi: angle from the exit velocity v to the chord P1->P2, positive for
    # the anticlockwise arc.
    chi = math.atan2(vx * dy - vy * dx, vx * dx + vy * dy)
    if chi <= 0.0:
        chi += 2.0 * math.pi  # numerically hugging pi from above
    return LarmorHit(
        frame2=frame2, theta2=theta2, chi=chi, ell2=ell2, arc_sweep=psi,
        n_crossings=n_crossings, iterations=iterations,
    )
