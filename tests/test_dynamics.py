"""One-step map, exact linearization, finite-difference cross-checks."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from conftest import CURVE_MENU, composed_trace, sample_phase_points
from imbilliards import dynamics
from imbilliards.collision import MAX_ROOT_ITERATIONS, chord_exit, larmor_reentry
from imbilliards.curves import (
    ArclengthTable, Circle, Ellipse, Stadium, Superellipse, make_curve, rot90,
)
from imbilliards.dynamics import (
    PhasePoint,
    StepData,
    iterate,
    jacobian_analytic,
    jacobian_numeric,
    step,
    well_conditioned,
)
from imbilliards.errors import (
    BilliardError, DegenerateStep, NoReentry, TangentialChord, TangentialContact,
)
from imbilliards.families import three_periodic_circle, two_periodic_ellipse
from reference_traces import two_periodic_step_matrix

CURVE_IDS = [name for name, _, _ in CURVE_MENU]


def test_phase_point_u_chart():
    z = PhasePoint(1.3, 0.7)
    assert z.u == -math.cos(0.7)
    assert PhasePoint(0.0, 0.5 * math.pi).u == pytest.approx(0.0, abs=1e-16)


@pytest.mark.parametrize("name", CURVE_IDS)
def test_launch_direction_convention(name, curves, rng):
    curve, _ = curves[name]
    for s in rng.uniform(0.0, curve.total_length(), size=10):
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        v = np.array(curve.frame_at(float(s)).direction(theta))
        t = curve.frame_at(float(s)).tangent
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(float(v @ t) - math.cos(theta)) < 1e-12
        assert abs(float(v @ rot90(t)) - math.sin(theta)) < 1e-12


@pytest.mark.parametrize("name", CURVE_IDS)
def test_step_data_is_consistent(name, curves, rng):
    curve, mu = curves[name]
    for z in sample_phase_points(curve, mu, 15, rng, conditioned=False):
        (z1, d), = iterate(curve, mu, z, 1)
        assert d.s0 == z.s and d.theta0 == z.theta
        assert d.mu == mu
        assert (z1.s, z1.theta) == (d.s2, d.theta2)
        assert abs(d.ell2 - 2.0 * mu * math.sin(d.chi)) < 1e-9
        assert d.kappa0 == curve.frame_at(d.s0).curvature
        # Exit and re-entry curvatures belong to the frames of the points
        # the chord and the arc reach.
        frame0 = curve.frame_at(d.s0)
        p1 = frame0.point + d.ell1 * np.array(frame0.direction(z.theta))
        assert (d.s1, d.kappa1) == (curve.frame_of(p1).s, curve.frame_of(p1).curvature)
        frame1, _, _, v = chord_exit(curve, curve.frame_at(z.s), z.theta)
        frame2, *_ = larmor_reentry(curve, frame1, v, mu)
        assert (d.s2, d.kappa2) == (frame2.s, frame2.curvature)


@pytest.mark.parametrize("name", CURVE_IDS)
def test_step_carries_the_sweep_diagnostics(name, curves, rng):
    """``step`` reports the arc sweep 2 chi, the crossing count and the
    number of root-solve steps that ``larmor_reentry`` returns, the same on
    every solve of the same step; the last two take no part in comparisons
    or hashes, and a hand-built record gets 0 and 0.  Both records of a
    step are slotted, with no instance ``__dict__``, and hash by value."""
    curve, mu = curves[name]
    for z in sample_phase_points(curve, mu, 15, rng, conditioned=False):
        z2, d = step(curve, mu, z)
        frame1, _, _, v = chord_exit(curve, curve.frame_at(z.s), z.theta)
        _, _, chi, _, n_crossings, iterations = larmor_reentry(curve, frame1, v, mu)
        assert (2.0 * d.chi, d.n_crossings, d.root_iterations) == (
            2.0 * chi, n_crossings, iterations)
        assert d.n_crossings >= 1 and 0.0 < 2.0 * d.chi < 2.0 * math.pi
        assert not hasattr(d, "__dict__") and not hasattr(z2, "__dict__")
        other = dataclasses.replace(d, n_crossings=7, root_iterations=9)
        assert other == d and hash(other) == hash(d)
        assert hash(PhasePoint(z2.s, z2.theta)) == hash(z2)
    fields = {f.name: 1.0 for f in dataclasses.fields(StepData) if f.compare}
    hand_built = StepData(**fields)
    assert hand_built.n_crossings == 0
    assert hand_built.root_iterations == 0


@pytest.mark.parametrize("name", [name for name in CURVE_IDS if name != "circle"])
def test_root_iterations_are_few(name, curves, rng):
    """The re-entry root solve starts inside one sweep interval, at the
    regula falsi point, and its Newton steps converge quadratically: here
    every solve takes 2 or 3 steps.  The circle is left out because no root
    solve runs there: it steps as its exact rotation, with 0 iterations
    (``test_collision``).  Elsewhere on the sampled sweep more steps are
    seen.  Exits near the tangent (theta0 = pi - 1.8e-4, mu = 2.69)
    re-enter within about 2e-4 rad of the exit root at psi = 2 pi.  Over
    200 such launches per table the median was 12 or 13 steps on
    Ellipse(2, 1), the stadium and superellipse k = 2 and 3; the first two
    took at most 14, and 2 of the k = 2 and 3 of the k = 3 steps took 39
    (``test_collision``, the re-entry beside the exit root)."""
    curve, mu = curves[name]
    counts = [step(curve, mu, z)[1].root_iterations
              for z in sample_phase_points(curve, mu, 300, rng, conditioned=False)]
    assert min(counts) >= 1 and max(counts) <= 9 < MAX_ROOT_ITERATIONS
    assert np.median(counts) <= 3


#: the tables whose boundary point at arclength s has an exact formula, so a
#: re-entry frame is the frame ``frame_at`` builds, and those whose chart is
#: the arclength table
EXACT_CHARTS = [entry for entry in CURVE_MENU if entry[0] in ("circle", "stadium")]
TABLE_CHARTS = [entry for entry in CURVE_MENU if entry not in EXACT_CHARTS]


def _orbit_and_fresh_steps(curve, mu, z, n):
    """``iterate``'s orbit of ``z`` and, for each of its steps, ``step`` from
    the same phase point, whose launch frame comes from ``frame_at``."""
    orbit = iterate(curve, mu, z, n)
    launches = [z] + [zi for zi, _ in orbit[:-1]]
    return orbit, [step(curve, mu, zi) for zi in launches]


@pytest.mark.parametrize("name,factory,mu", EXACT_CHARTS, ids=[e[0] for e in EXACT_CHARTS])
def test_iterate_forwards_frames_bit_for_bit_on_exact_charts(name, factory, mu, rng):
    """On the circle and the stadium ``frame_of`` goes through ``frame_at``,
    so an orbit that forwards each re-entry frame as the next launch frame
    is the orbit of fresh steps, bit for bit, frames included."""
    curve = factory()
    completed = 0
    for z in sample_phase_points(curve, mu, 8, rng, conditioned=False):
        try:
            orbit, fresh = _orbit_and_fresh_steps(curve, mu, z, 30)
        except BilliardError:
            continue
        completed += 1
        for (zi, di), (zf, df) in zip(orbit, fresh, strict=True):
            assert zi == zf and di == df
            for a, b in zip(di.frames, df.frames, strict=True):
                assert (a.s, a.x, a.y, a.tx, a.ty, a.curvature) == (
                    b.s, b.x, b.y, b.tx, b.ty, b.curvature)
    assert completed >= 6


@pytest.mark.parametrize("name,factory,mu", TABLE_CHARTS, ids=[e[0] for e in TABLE_CHARTS])
def test_iterate_forwarded_frames_agree_with_frame_at(name, factory, mu, rng):
    """On a table chart the forwarded launch frame is built from the
    re-entry point and ``frame_at`` from its arclength, through the chart
    inversion, so the two differ in the last bits.  The launch points agree
    within 2 ulp of L.  The step images agree within 16 ulp of L in s and
    16 eps in u, times 1 + the largest entry of the step's |DT|: a launch
    point that moves by an ulp moves the image by DT times that.  Measured
    over 7200 steps on each of Ellipse(2, 1), k = 2 and k = 3, at mu in
    {0.1, 0.3, 1, 3}: launch points within 0.97 ulp of L, images within
    3.4 ulp of L and 8.3 eps per unit of 1 + |DT|, while the unscaled gap
    in s reached 30 ulp of L."""
    curve = factory()
    length = curve.total_length()
    ulp_l = math.ulp(length)
    completed = 0
    for z in sample_phase_points(curve, mu, 8, rng, conditioned=False):
        try:
            orbit, fresh = _orbit_and_fresh_steps(curve, mu, z, 30)
        except BilliardError:
            continue
        completed += 1
        for (zi, di), (zf, df) in zip(orbit, fresh, strict=True):
            forwarded, built = di.frames[0], df.frames[0]
            assert forwarded.s == built.s
            assert abs(forwarded.x - built.x) <= 2 * ulp_l
            assert abs(forwarded.y - built.y) <= 2 * ulp_l
            scale = 1.0 + float(np.max(np.abs(jacobian_analytic(df))))
            gap_s = abs((zi.s - zf.s + 0.5 * length) % length - 0.5 * length)
            assert gap_s <= 16 * ulp_l * scale
            assert abs(zi.u - zf.u) <= 16 * 2.0**-52 * scale
    assert completed >= 6


@pytest.mark.parametrize("factory", [lambda: Ellipse(2.0, 1.0), lambda: Superellipse(2),
                                     lambda: Superellipse(3)], ids=["ellipse-2-1", "k2", "k3"])
def test_one_chart_inversion_per_step(factory, monkeypatch):
    """A step on a table curve inverts the arclength chart once, for its
    launch point; the exit and re-entry frames come from the points."""
    calls = []
    t_of_s = ArclengthTable.t_of_s

    def counted(self, s):
        calls.append(s)
        return t_of_s(self, s)

    monkeypatch.setattr(ArclengthTable, "t_of_s", counted)
    curve = factory()
    for s, theta in ((0.4, 1.2), (2.5, 0.7), (4.0, 2.3)):
        calls.clear()
        _, d = step(curve, 0.3, PhasePoint(s, theta))
        assert d is not None
        assert len(calls) == 1


def test_table_curves_are_freed_by_reference_counting():
    """A curve and its arclength table form no reference cycle, and a map
    step leaves none behind, so dropping a curve frees it at once."""
    gc.disable()
    try:
        refs = []
        for curve in (Ellipse(2.0, 1.0), Superellipse(2)):
            step(curve, 0.3, PhasePoint(1.0, 1.2))
            refs.append(weakref.ref(curve))
        del curve
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CURVE_IDS)
def test_iterate_chains_steps(name, curves, rng):
    curve, mu = curves[name]
    z0 = sample_phase_points(curve, mu, 1, rng)[0]
    try:
        history = iterate(curve, mu, z0, 6)
    except BilliardError:
        pytest.skip("orbit left the sampled-safe region")
    assert len(history) == 6
    for (za, da), (zb, db) in zip(history, history[1:]):
        assert db.s0 == za.s and db.theta0 == za.theta
        assert db.kappa0 == curve.frame_at(da.s2).curvature


@pytest.mark.parametrize("error", [NoReentry("left the domain"), RuntimeError("bug")],
                         ids=["billiard-error", "programming-error"])
def test_iterate_reports_the_completed_prefix(error, monkeypatch):
    """A BilliardError raised by the third step carries the two completed
    steps in ``.partial``; any other exception passes through untouched."""
    curve, z = Circle(1.0), PhasePoint(0.3, 1.0)
    expected = iterate(curve, 0.4, z, 2)
    calls = []
    one_step = dynamics.step

    def failing_step(*args):
        calls.append(args)
        if len(calls) == 3:
            raise error
        return one_step(*args)

    monkeypatch.setattr(dynamics, "step", failing_step)
    with pytest.raises(type(error)) as info:
        iterate(curve, 0.4, z, 5)
    assert info.value is error and len(calls) == 3
    if isinstance(error, BilliardError):
        assert info.value.partial == expected
    else:
        assert not hasattr(info.value, "partial")


@pytest.mark.parametrize("name", CURVE_IDS)
def test_unit_determinant(name, curves, rng):
    curve, mu = curves[name]
    for z in sample_phase_points(curve, mu, 40, rng, conditioned=False):
        (_, d), = iterate(curve, mu, z, 1)
        assert abs(np.linalg.det(jacobian_analytic(d)) - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(CURVE_MENU) - 1),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
)
def test_unit_determinant_property(index, frac, theta):
    _, factory, mu = CURVE_MENU[index]
    curve = factory()
    z = PhasePoint(frac * curve.total_length(), theta)
    try:
        (_, d), = iterate(curve, mu, z, 1)
    except BilliardError:
        assume(False)
    assert abs(np.linalg.det(jacobian_analytic(d)) - 1.0) < 1e-9


@pytest.mark.parametrize("name", CURVE_IDS)
def test_analytic_matches_central_differences(name, curves, rng):
    curve, mu = curves[name]
    for z in sample_phase_points(curve, mu, 12, rng):
        (_, d), = iterate(curve, mu, z, 1)
        A = jacobian_analytic(d)
        N = jacobian_numeric(curve, mu, z, h=1e-6)
        assert np.linalg.norm(A - N) / np.linalg.norm(A) < 1e-5


#: tables and Larmor radii of size 1, each built at sizes scaled by 2^m;
#: Ellipse(2, 1) at mu = 0.6 has mu * kappa_max = 1.2, so its re-entries
#: come from the sampled sweep
SCALED_TABLES = [
    ("circle", lambda m: Circle(math.ldexp(1.0, m)), 0.35),
    ("ellipse-2-1", lambda m: Ellipse(math.ldexp(2.0, m), math.ldexp(1.0, m)), 0.3),
    ("ellipse-2-1-sampled", lambda m: Ellipse(math.ldexp(2.0, m), math.ldexp(1.0, m)), 0.6),
    ("stadium", lambda m: Stadium(math.ldexp(2.0, m), math.ldexp(1.0, m)), 0.3),
]


def _scaled_map(factory, mu, m, points, n_numeric):
    """Each step of ``points`` on the table and mu scaled by 2^m, read back
    in the units of the unscaled table: ``(s2, theta2, chi, ell1)`` and the
    entries of the analytic Jacobian, with those of the numeric Jacobian for
    the first ``n_numeric``, or the type of the error a step raised."""
    curve, mu_m = factory(m), math.ldexp(mu, m)
    # the (s, u) chart's Jacobian has entries of size 1, 2^m, 2^-m and 1
    unscale = np.array([[1.0, math.ldexp(1.0, -m)], [math.ldexp(1.0, m), 1.0]])
    out = []
    for i, (s, theta) in enumerate(points):
        z = PhasePoint(math.ldexp(s, m), theta)
        try:
            _, d = step(curve, mu_m, z)
            row = [math.ldexp(d.s2, -m), d.theta2, d.chi, math.ldexp(d.ell1, -m),
                   *(jacobian_analytic(d) * unscale).ravel().tolist()]
            if i < n_numeric:
                row += (jacobian_numeric(curve, mu_m, z) * unscale).ravel().tolist()
        except BilliardError as exc:
            row = type(exc)
        out.append(row)
    return out


@pytest.mark.parametrize("name,factory,mu", SCALED_TABLES, ids=[e[0] for e in SCALED_TABLES])
@pytest.mark.parametrize("m", [-40, -20, 20, 40])
def test_the_map_commutes_with_power_of_two_scaling(name, factory, mu, m):
    """Scaling a table and mu by 2^m scales s, ell1 and the Jacobian's
    entries by powers of two and keeps every angle.  Every defining
    function is written in its table's units and every threshold of a step
    is relative, so on the circle and the ellipse each of 300 steps, and
    the finite-difference Jacobian of 40 of them, is the unscaled one bit
    for bit.  The stadium's distance field takes ``** 0.5``, whose rounding
    does not always commute with scaling, so there the steps agree to
    1e-12 (the worst deviation here is 5.3e-14), and a finite difference
    would magnify that rounding by 1/h.  Tables of size 2^-40 used to
    refuse every step, with ``NoInteriorHit`` or ``DegenerateStep``."""
    rng = np.random.default_rng(20261020)
    length = factory(0).total_length()
    points = list(zip(rng.uniform(0.0, length, 300).tolist(),
                      rng.uniform(0.05, math.pi - 0.05, 300).tolist()))
    exact = name != "stadium"
    base = _scaled_map(factory, mu, 0, points, 40 if exact else 0)
    scaled = _scaled_map(factory, mu, m, points, 40 if exact else 0)
    assert sum(isinstance(row, list) for row in base) >= 250
    if exact:
        assert scaled == base
        return
    for b, c in zip(base, scaled, strict=True):
        if not (isinstance(b, list) and isinstance(c, list)):
            assert b is c
            continue
        assert abs((c[0] - b[0] + 0.5 * length) % length - 0.5 * length) <= 1e-12 * length
        assert max(abs(c[1] - b[1]), abs(c[2] - b[2])) <= 1e-12
        assert abs(c[3] - b[3]) <= 1e-12 * length
        jacobian, jacobian_m = np.array(b[4:]), np.array(c[4:])
        assert np.linalg.norm(jacobian_m - jacobian) <= 1e-12 * np.linalg.norm(jacobian)


def test_finite_difference_error_is_second_order(curves, rng):
    """Halving h should shrink the central-difference error about 4x
    (checked on the median so single roundoff-limited points don't bite)."""
    curve, mu = curves["ellipse-2-1"]
    ratios = []
    for z in sample_phase_points(curve, mu, 20, rng):
        (_, d), = iterate(curve, mu, z, 1)
        A = jacobian_analytic(d)
        e1 = np.linalg.norm(jacobian_numeric(curve, mu, z, h=1e-4) - A)
        e2 = np.linalg.norm(jacobian_numeric(curve, mu, z, h=5e-5) - A)
        if e2 > 0:
            ratios.append(e1 / e2)
    assert 2.8 < float(np.median(ratios)) < 5.7


def test_jacobian_ignores_exit_curvature(rng):
    """The linearization depends on curvature at launch and re-entry only;
    the exit curvature never enters."""
    curve, mu = Ellipse(2.0, 1.0), 0.3
    for z in sample_phase_points(curve, mu, 10, rng, conditioned=False):
        (_, d), = iterate(curve, mu, z, 1)
        tampered = dataclasses.replace(d, kappa1=float(rng.normal()))
        assert np.array_equal(jacobian_analytic(d), jacobian_analytic(tampered))


def test_closed_product_trace_independent_of_curvature(rng):
    """Over a closed chain the trace of the Jacobian product is independent
    of the boundary curvatures at the junction points, provided each
    junction keeps a single curvature value (step i re-entry = step i+1
    launch).  Perturbing the chained curvatures must leave the trace
    fixed; perturbing them inconsistently must not."""
    orbit, _, _ = three_periodic_circle(1.0, 0.3, "1/3")
    base = composed_trace(orbit)

    for _ in range(5):
        c = rng.normal(size=3)
        steps = [
            dataclasses.replace(d, kappa0=float(c[i]), kappa2=float(c[(i + 1) % 3]))
            for i, d in enumerate(orbit.steps)
        ]
        tampered = dataclasses.replace(orbit, steps=tuple(steps))
        assert abs(composed_trace(tampered) - base) < 1e-9 * max(1.0, abs(base))

    # Breaking the chain (distinct curvatures at one junction) moves the trace.
    broken = list(orbit.steps)
    broken[0] = dataclasses.replace(broken[0], kappa2=broken[0].kappa2 + 0.7)
    tampered = dataclasses.replace(orbit, steps=tuple(broken))
    assert abs(composed_trace(tampered) - base) > 1e-4


def test_jacobian_matches_quarter_turn_specialization(rng):
    """For chi = pi/2 steps (the two-periodic families) the general
    linearization must collapse to the dedicated quarter-turn matrix."""
    orbit, params = two_periodic_ellipse(2.0, 1.0, 0.3, axis="major")
    for d in orbit.steps:
        assert abs(d.chi - 0.5 * math.pi) < 1e-9
        M = two_periodic_step_matrix(
            d.theta0, d.theta1, d.theta2, d.ell1, d.mu, d.kappa0, d.kappa2
        )
        assert np.linalg.norm(M - jacobian_analytic(d)) < 1e-9 * np.linalg.norm(M)


def test_map_degenerates_on_fixed_lines():
    """Approaching theta = 0 the step collapses: arclength advance O(theta),
    angle change O(theta^2)."""
    for curve, mu in ((Circle(1.0), 0.35), (Ellipse(2.0, 1.0), 0.3)):
        for theta in (1e-2, 1e-3):
            (z1, _), = iterate(curve, mu, PhasePoint(1.0, theta), 1)
            assert abs(z1.s - 1.0) < 20.0 * theta
            assert abs(z1.theta - theta) < 5.0 * theta * theta


def test_a_re_entry_past_the_tangent_leaves_the_domain():
    """On Ellipse(2, 1) at mu = 1e-6 this launch, 1e-6 from the tangent,
    re-enters at theta2 = -8.65e-7 by rounding.  The step raises rather than
    return a point that no step can launch from."""
    with pytest.raises(TangentialContact, match="not in the open interval"):
        step(Ellipse(2.0, 1.0), 1e-6, PhasePoint(-5.0, 1e-6))


@pytest.mark.parametrize("theta", [0.0, math.pi], ids=["zero", "pi"])
def test_a_launch_on_the_fixed_lines_leaves_the_domain(theta):
    curve, z = Ellipse(2.0, 1.0), PhasePoint(1.0, theta)
    with pytest.raises(TangentialChord):
        step(curve, 0.3, z)
    with pytest.raises(TangentialChord) as info:
        iterate(curve, 0.3, z, 3)
    assert info.value.partial == []


def test_every_returned_step_lies_in_the_open_annulus():
    """Grazing launches, theta log-uniform on [1e-9, 1e-3] and mirrored to
    pi - theta on half the draws, with mu log-uniform on [1e-3, 10]: every
    step that returns has its three angles in (0, pi), so it can be launched
    again.  Steps that raise are left out; most return."""
    rng = np.random.default_rng(0)
    returned = 0
    for table in ({"kind": "circle", "R": 1.0}, {"kind": "ellipse", "a": 2.0, "b": 1.0},
                  {"kind": "ellipse", "a": 10.0, "b": 1.0}, {"kind": "superellipse", "k": 2},
                  {"kind": "superellipse", "k": 3}, {"kind": "stadium", "side": 2.0, "R": 1.0}):
        curve = make_curve(table)
        for _ in range(200):
            s = float(rng.uniform(0.0, curve.total_length()))
            theta = math.exp(rng.uniform(math.log(1e-9), math.log(1e-3)))
            if rng.random() < 0.5:
                theta = math.pi - theta
            mu = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
            try:
                _, d = step(curve, mu, PhasePoint(s, theta))
            except BilliardError:
                continue
            returned += 1
            assert all(0.0 < a < math.pi for a in (d.theta0, d.theta1, d.theta2)), (table, d)
    assert returned > 600


def test_finite_differences_refuse_a_stencil_past_grazing():
    """At theta = 1e-4 the u-stencil leaves (-1, 1): its lower point maps to
    theta = 0, the identity region, and the check raises instead of taking a
    one-sided difference of a derivative that grows like 1/sin(theta)."""
    with pytest.raises(DegenerateStep, match="identity region"):
        jacobian_numeric(Ellipse(2.0, 1.0), 0.3, PhasePoint(1.0, 1e-4))


def test_the_closed_form_refuses_a_degenerate_step():
    """A record with sin(theta1) below ``DEGENERACY_EPS`` has no closed-form
    derivative: the exit angle divides three of its entries."""
    fields = {f.name: 1.0 for f in dataclasses.fields(StepData) if f.compare}
    with pytest.raises(DegenerateStep, match=r"sin\(theta1\) = 1\.000e-13 below"):
        jacobian_analytic(StepData(**{**fields, "theta1": 1e-13}))


def test_well_conditioned_flags_narrow_angles(curves, rng):
    curve, mu = curves["ellipse-2-1"]
    z = sample_phase_points(curve, mu, 1, rng)[0]
    (_, d), = iterate(curve, mu, z, 1)
    assert well_conditioned(d)
    narrow = dataclasses.replace(d, theta1=1e-4)
    assert not well_conditioned(narrow)


def test_a_sampling_shortfall_names_the_failed_draws_by_tag(monkeypatch, rng):
    """A sampler that cannot find enough usable points says how many draws it
    made and which errors their steps raised."""
    def no_reentry(*args, **kwargs):
        raise NoReentry("the Larmor arc does not come back")

    monkeypatch.setattr(conftest, "iterate", no_reentry)
    with pytest.raises(RuntimeError, match=r"^could only sample 0/3 usable phase points "
                                           r"in 600 draws; failed: NoReentry 600$"):
        sample_phase_points(Circle(1.0), 0.35, 3, rng)
