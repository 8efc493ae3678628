"""One map step, geometrically: chord exit and Larmor-arc re-entry.

The particle leaves the boundary point Gamma(s0) at angle theta0 from the
positive tangent, travels straight inside the table, exits at P1, then
follows an anticlockwise circular arc of Larmor radius mu outside the
table until the first boundary crossing P2.

*The circle table steps as its exact rotation*, for every mu, with no root
solve.  Its chord is 2 R sin(theta0) by the inscribed angle, and it exits
at theta1 = theta0 up to the rounding of the exit frame.  The Larmor circle
meets the table's circle at P1 and at P1's mirror image in the line
through the two centres, so P2 re-enters at theta2 = theta1, 2 R delta
further on, with R sin(delta) = mu sin(chi) and chi - delta = theta1:
delta = atan2(m sin theta1, 1 - m cos theta1) with m = mu / R, which keeps
its relative precision however far m is from 1, and the Larmor chord is
the table's, 2 R sin(delta).  Two circles meet in at most two points, so
the crossing count is 1.  The chord keeps the two ``NoInteriorHit``
thresholds of every table, in closed form, so the circle's domain does not
depend on the route.

Root-finding policy on every other table: each predicate finds a root of
the boundary's implicit function F along its path.  Along a chord, every
built-in F is convex with F(0) = 0, F < 0 inside and F > 0 beyond the
exit, so Newton's method started past the far side of the table (Fourier's
condition) decreases monotonically to the exit root and needs no bracket;
it stops once the Newton step is no longer positive.  Along the Larmor
circle C, of radius mu and swept by the angle psi from P1, the crossing is
bracketed and then refined by one safeguarded Newton loop ("rtsafe",
Numerical Recipes 9.4); its root psi gives the tangent-chord angle
chi = psi / 2 and the chord 2 mu sin(chi).  The bracket comes from one of
two sources.

*Certified, when mu * kappa_max < 1*, with kappa_max the table's largest
curvature (``Curve.max_curvature``).  Lemma: the arc from P1 then crosses
the boundary exactly once.  Proof sketch: by Blaschke's rolling theorem
(*Kreis und Kugel*, 1916) the table K is K' + B_rho, the set of disks of
radius rho = 1 / kappa_max > mu centred in a convex K'.  For each centre y
of K' within rho + mu of C's centre, C meets the disk B(y, rho) in one
nonempty arc, which moves continuously with y; so C meets K in the union
of these arcs, one connected arc.  It holds P1, and C leaves K at P1, so the
arc runs from the re-entry round to P1: F > 0 before the crossing and
F < 0 after it, up to psi = 2 pi.  Two closed-form sweep angles bracket it,
with theta1 the exit angle:
- psi = theta1, where C runs farthest, mu (1 - cos theta1), beyond P1's
  tangent line, which bounds K by convexity: F > 0;
- psi = pi + atan2(sin theta1, cos theta1 - mu kappa_max), the middle of
  C's stretch inside the rolling disk of radius rho tangent at P1, which
  lies in K: F < 0.  C enters that disk at 2 atan2(sin theta1,
  cos theta1 - mu kappa) with kappa = kappa_max, and crosses the tangent
  line again at the same formula with kappa = 0, 2 theta1.
With kappa the curvature at P1 the formula gives the second intersection
with the osculating circle, the seed; secant steps on F / sin(psi / 2),
which would be exact on a circle table, move it within about
``LOCALISE_TOL`` of the root before Newton takes over.  The crossing count
is 1, exactly.

*Sampled, otherwise*: for mu * kappa_max >= 1, where C can meet the
boundary in four points, and whenever F at a certified end is within its
rounding floor (a few eps of F's terms), as on arcs that leave the tangent
line by less than rounding can tell.  We sample N=512 sweep angles, take the
first transversal crossing past a small sweep guard (the circle is tangent
to the chord at P1, so re-detection of P1 is excluded by sweep angle, not by
distance) and start Newton at the regula falsi point of that interval.

Both routines take the boundary frame (:class:`~imbilliards.curves.Frame`)
of the point they start from and return the frame of the point they reach,
so a map step resolves each boundary point once; ``dynamics.step`` builds
the one record of a step from the plain tuples they return.  Between the
two frames they work on Python floats: the frame's coordinates, the chord
direction ``v`` (two floats, handed from the chord to the arc) and every
residual, slope and angle.  The one array computation is the 512-sample
sweep, which a certified bracket and the circle's rotation skip.

Both also decide the map's domain, theta in (ANGLE_EPS, pi - ANGLE_EPS): a launch
outside it raises :class:`TangentialChord` and a re-entry outside it
:class:`TangentialContact`, so every phase point a step returns can be launched again.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import Circle, Curve, Frame
from .errors import NoInteriorHit, NoReentry, TangentialChord, TangentialContact

__all__ = ["chord_exit", "larmor_reentry"]

ANGLE_EPS = 1e-12      # theta within this of {0, pi} lies outside the domain
_DOMAIN = f"the open interval ({ANGLE_EPS}, pi - {ANGLE_EPS})"
SWEEP_GUARD = 1e-7     # smallest admissible Larmor sweep angle
N_SWEEP_SAMPLES = 512  # dense sampling of the Larmor circle
_EPS = 2.0**-52        # float64 machine epsilon
ROOT_STEP_TOL = 1e-12  # after a Newton step this small the next is below rounding
MAX_ROOT_ITERATIONS = 100  # a transversal crossing takes 2 or 3
LOCALISE_TOL = 1e-3    # a secant step this small leaves Newton 1 to 3 steps
MAX_LOCALISE_STEPS = 8  # a cap on the secant steps; typical launches take 1 to 4
_TWO_PI = 2.0 * math.pi
#: the sampled Larmor sweep angles, with their cosines and sines
SWEEP_ANGLES = np.linspace(SWEEP_GUARD, 2.0 * math.pi - SWEEP_GUARD, N_SWEEP_SAMPLES)
SWEEP_COS, SWEEP_SIN = np.cos(SWEEP_ANGLES), np.sin(SWEEP_ANGLES)


def _arc_point(psi: float, cx: float, cy: float, rx: float, ry: float) -> tuple[float, float]:
    c, s = math.cos(psi), math.sin(psi)
    return cx + (c * rx - s * ry), cy + (s * rx + c * ry)


def chord_exit(curve: Curve, frame0: Frame, theta0: float
               ) -> tuple[Frame, float, float, tuple[float, float]]:
    """First boundary intersection of the chord launched from the boundary
    point ``frame0`` at angle ``theta0`` from its tangent.

    Returns ``(frame1, theta1, ell1, v)``: the exit point's frame, the angle
    in (0, pi) from its tangent to the chord, the chord length and the unit
    chord direction.

    Raises :class:`TangentialChord` for theta0 outside the open interval
    (``ANGLE_EPS``, pi - ``ANGLE_EPS``) and :class:`NoInteriorHit`
    when the chord is too short for rounding to tell its exit from the
    launch point, as on launches within about 1e-9 of the tangent.
    """
    if not ANGLE_EPS < theta0 < math.pi - ANGLE_EPS:
        raise TangentialChord(f"launch angle {theta0!r} is not in {_DOMAIN}")

    x0, y0 = frame0.x, frame0.y
    vx, vy = frame0.direction(theta0)
    # An exact type test: no table subclasses Circle, and isinstance against
    # an ABC costs every other table about 0.3 us per call.
    if type(curve) is Circle:
        # the inscribed-angle chord, and |dF/dr| = 2 sin(theta0) / R at its end
        sin0 = math.sin(theta0)
        r, df = 2.0 * curve.R * sin0, 2.0 * sin0 / curve.R
    else:
        r = 1.01 * curve.diameter_bound()
        if curve.implicit_xy(x0 + r * vx, y0 + r * vy) <= 0.0:  # pragma: no cover - conservative bound
            raise NoInteriorHit("ray does not leave the table within the diameter bound")

        # F is convex along the ray with F(0) = 0 and F < 0 on (0, r_exit), so
        # from F(r) > 0 each Newton step moves down towards r_exit and never
        # past it, up to rounding: stop once a step does not move r down, as a
        # NaN step from a non-finite F does not.
        while True:
            x, y = x0 + r * vx, y0 + r * vy
            gx, gy = curve.gradient_xy(x, y)
            df = gx * vx + gy * vy
            f = curve.implicit_xy(x, y)
            if f <= 0.0 or df <= 0.0:
                break
            r_next = r - f / df
            if not r_next < r:
                break
            r = r_next

    # Every table writes F in its own units, so F's terms are of size about
    # 1 at any table size, and rounding decides r only to a few eps / |dF/dr|:
    # a chord within 8 of those units is the launch point again.  The
    # circle's closed-form chord keeps the same thresholds.
    if r < 1e-9 * curve.total_length() or r * abs(df) <= 8.0 * _EPS:
        raise NoInteriorHit(
            f"chord of {r:.3e} from s0={frame0.s!r} is below 1e-9 L or below the "
            "rounding floor 8 eps / |dF/dr|: the ray exits immediately"
        )

    v = (vx, vy)
    frame1 = curve.frame_of((x0 + r * vx, y0 + r * vy))
    return frame1, frame1.angle(v, entering=False), r, v


def _certified_bracket(curve: Curve, frame1: Frame, vx: float, vy: float, mu: float,
                       cx: float, cy: float, rx: float, ry: float):
    """``(a, b, psi)``: a bracket of the one crossing and a seed inside it,
    for mu * kappa_max < 1 (module docstring); ``None`` when the sweep must
    decide, for larger mu or when an end's sign does not survive rounding.
    The circle table never comes here: it steps as its exact rotation."""
    kappa_max = curve.max_curvature()
    if mu * kappa_max >= 1.0:
        return None
    theta1 = frame1.angle((vx, vy), entering=False)
    st, ct = math.sin(theta1), math.cos(theta1)
    gx, gy = curve.gradient_xy(frame1.x, frame1.y)
    # F is rounded to a few eps of its terms, and the arc point to a few eps
    # of its coordinates, which F's gradient carries to F.
    floor = 8.0 * _EPS * math.hypot(gx, gy) * (abs(cx) + abs(cy) + mu)
    a = theta1  # where the arc runs farthest beyond P1's tangent line
    b = math.pi + math.atan2(st, ct - mu * kappa_max)  # inside the rolling disk
    if not (curve.implicit_xy(*_arc_point(a, cx, cy, rx, ry)) > floor
            and curve.implicit_xy(*_arc_point(b, cx, cy, rx, ry)) < -floor):
        return None

    # Localise by secants on g(phi) = F / sin(phi), phi = psi / 2, through
    # the zeros of the sinusoids A sin(phi* - phi) that g would be on a
    # circle table.  The first secant starts at g(0) = 2 mu grad F(P1) . v
    # and the second intersection with P1's osculating circle.
    p0, g0 = 0.0, 2.0 * mu * (gx * vx + gy * vy)
    psi = 2.0 * math.atan2(st, ct - mu * frame1.curvature)
    for _ in range(MAX_LOCALISE_STEPS):
        f = curve.implicit_xy(*_arc_point(psi, cx, cy, rx, ry))
        if f > 0.0:
            a = psi
        elif f < 0.0:
            b = psi
        else:
            break
        p = 0.5 * psi
        g = f / math.sin(p)
        zero = 2.0 * math.atan2(g0 * math.sin(p) - g * math.sin(p0),
                                g0 * math.cos(p) - g * math.cos(p0)) % _TWO_PI
        p0, g0 = p, g
        zero = min(max(zero, a), b)
        moved, psi = abs(zero - psi), zero
        if moved <= LOCALISE_TOL:
            break
    return a, b, psi


def _swept_bracket(curve: Curve, s1: float, mu: float,
                   cx: float, cy: float, rx: float, ry: float):
    """``(a, b, psi, n_crossings)``: the first entering sweep interval, its
    regula falsi point and the number of crossings the sweep sees."""
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
            f"no entering sign change among the {N_SWEEP_SAMPLES} samples of the Larmor "
            f"sweep on [{SWEEP_GUARD}, 2 pi - {SWEEP_GUARD}] from s1={s1!r} (mu={mu!r}, "
            f"mu / diameter bound = {mu / curve.diameter_bound():.3e})"
        )
    a, b = SWEEP_ANGLES.item(i), SWEEP_ANGLES.item(i + 1)
    fa, fb = (curve.implicit_xy(*_arc_point(t, cx, cy, rx, ry)) for t in (a, b))
    if fa <= 0.0 or fb >= 0.0:  # pragma: no cover - defensive
        raise TangentialContact("bracketing sign change collapsed under refinement")
    return a, b, a + (b - a) * fa / (fa - fb), n_crossings


def larmor_reentry(curve: Curve, frame1: Frame, v, mu: float
                   ) -> tuple[Frame, float, float, float, int, int]:
    """First boundary crossing of the anticlockwise Larmor arc from the exit
    point ``frame1``.

    ``v`` is the unit chord direction at the exit point (two floats, or an
    array); the Larmor center sits at P1 + mu * rot90(v).  On the circle
    table the crossing is the exact rotation of the module docstring, for
    every mu; an exit at the tangent raises :class:`NoReentry` when the arc
    lies outside the table and :class:`TangentialContact` when it lies
    inside.  On every other table it is bracketed, in closed form when mu *
    ``curve.max_curvature()`` < 1 and else on the implicit function sampled
    along the circle, refined by one safeguarded Newton loop, and must be
    transversal at a re-entry angle in the domain; otherwise
    :class:`TangentialContact` is raised, also when the loop does not
    converge within ``MAX_ROOT_ITERATIONS`` steps.

    Returns ``(frame2, theta2, chi, ell2, n_crossings, iterations)``: the
    re-entry point's frame and angle, the tangent-chord angle chi from the
    exit velocity to the chord P1->P2, half the arc's sweep psi by the
    tangent-chord angle theorem, and the chord ell2 = 2 mu sin(chi), taken
    on the circle as its equal 2 R sin(delta) (:func:`_circle_reentry`).
    ``n_crossings`` counts the transversal boundary crossings strictly after
    the exit point over one full revolution (the return to the exit point
    itself is excluded): 1 for a clean re-entry, 3 when the Larmor circle
    "clips a corner" of the table.  It is exact on the circle and on a
    certified bracket, and what the 512 samples see on the sampled one.
    ``iterations`` counts the steps of the Newton loop, each one evaluation
    of F and its gradient, and is 0 on the circle; the evaluations of F that
    place its bracket and seed are not counted.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"Larmor radius must be positive and finite, got {mu}")
    vx, vy = float(v[0]), float(v[1])
    if type(curve) is Circle:  # as in chord_exit
        # two circles meet in at most two points; theta2 = theta1 is in the domain
        return *_circle_reentry(curve, frame1, vx, vy, mu), 1, 0
    s1 = frame1.s
    x1, y1 = frame1.x, frame1.y
    cx, cy = x1 - mu * vy, y1 + mu * vx  # P1 + mu * rot90(v)
    rx, ry = x1 - cx, y1 - cy  # radius vector, |rel| = mu

    bracket = _certified_bracket(curve, frame1, vx, vy, mu, cx, cy, rx, ry)
    if bracket is None:
        a, b, psi, n_crossings = _swept_bracket(curve, s1, mu, cx, cy, rx, ry)
    else:
        (a, b, psi), n_crossings = bracket, 1

    # Newton from the seed; the sign of F at each iterate moves an end of
    # [a, b].  A Newton step that leaves [a, b] or fails to halve the last bisects.
    dpsi = b - a
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

    chi = 0.5 * psi  # the tangent-chord angle is half the arc it cuts off
    return frame2, theta2, chi, 2.0 * mu * math.sin(chi), n_crossings, iterations


def _circle_reentry(curve: Circle, frame1: Frame, vx: float, vy: float, mu: float
                    ) -> tuple[Frame, float, float, float]:
    """``(frame2, theta2, chi, ell2)`` on the circle table, in closed form.

    The Larmor circle and the table meet at P1 and at its mirror image in
    the line through both centres, so the re-entry angle is theta1 and the
    re-entry lies 2 R delta further on, where the tangent-chord angle chi
    of the arc and the half-angle delta of the table's chord P1 P2 satisfy
    R sin(delta) = mu sin(chi) and chi - delta = theta1.  The chord is
    taken as the table's, ell2 = 2 R sin(delta): its equal 2 mu sin(chi)
    loses the bits of sin(chi) as chi nears pi, 3e-7 relative at
    mu / R = 1e8."""
    theta1 = frame1.angle((vx, vy), entering=False)
    R = curve.R
    m = mu / R
    if not ANGLE_EPS < theta1 < math.pi - ANGLE_EPS:
        if m < 1.0 and math.cos(theta1) > 0.0:
            raise TangentialContact(f"Larmor arc from s1={frame1.s!r} is tangent to the "
                                    "boundary at the exit point and runs inside the table")
        raise NoReentry(f"Larmor arc from s1={frame1.s!r} is tangent to the boundary at the "
                        "exit point and runs outside the table")
    delta = math.atan2(m * math.sin(theta1), 1.0 - m * math.cos(theta1))
    return curve.frame_at(frame1.s + 2.0 * R * delta), theta1, theta1 + delta, 2.0 * R * math.sin(delta)
