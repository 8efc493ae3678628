"""The in-house solvers, checked against SciPy and mpmath as second routes.

SciPy is a test dependency only: every comparison below runs SciPy's
``brentq``, ``minimize_scalar`` or ``elliprf``, or mpmath's ``agm``, on the
same inputs that the package's own solvers see.  It asks for the same
floats, except from the Larmor re-entry's Newton loop, which must agree with
SciPy's Brent solve within the rounding of the boundary's implicit function.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar
from scipy.special import elliprf

import imbilliards
from conftest import CURVE_MENU
from imbilliards import cli, dynamics, families
from imbilliards._solvers import RTOL_MIN, agm, brentq, carlson_rf, minimize_bounded
from imbilliards.collision import SWEEP_ANGLES, SWEEP_COS, SWEEP_SIN, larmor_reentry
from imbilliards.curves import Ellipse
from imbilliards.dynamics import PhasePoint, step
from imbilliards.errors import BilliardError

REPO = Path(__file__).resolve().parents[1]


def twin(monkeypatch, module, name, route):
    """Replace ``module.name`` by a wrapper that also runs ``route`` on every
    call and records both results as ``(ours, second route)`` pairs."""
    ours = getattr(module, name)
    pairs = []

    def both(*args, **kwargs):
        result = ours(*args, **kwargs)
        pairs.append((result, route(*args, **kwargs)))
        return result

    monkeypatch.setattr(module, name, both)
    return pairs


def hex_pairs(pairs):
    return [(float(a).hex(), float(b).hex()) for a, b in pairs]


# --------------------------------------------------------------------------
# Larmor re-entry
# --------------------------------------------------------------------------

def brent_reentry(curve, cx, cy, rx, ry, lo, hi):
    """The Larmor re-entry as a Brent solve on the sweep bracket [lo, hi]
    polished by two Newton steps, and the slope dF/dpsi there."""

    def point(psi):
        c, s = math.cos(psi), math.sin(psi)
        return cx + (c * rx - s * ry), cy + (s * rx + c * ry)

    def residual(psi):
        return curve.implicit_xy(*point(psi))

    def slope(psi):
        x, y = point(psi)
        gx, gy = curve.gradient_xy(x, y)
        return gy * (x - cx) - gx * (y - cy)

    psi = scipy_brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16)
    for _ in range(2):
        psi -= residual(psi) / slope(psi)
    return psi, slope(psi)


@pytest.mark.parametrize("factory, mu", [(f, mu) for _, f, mu in CURVE_MENU]
                         + [(lambda: Ellipse(3.0, 1.0), 0.3)],
                         ids=[name for name, _, _ in CURVE_MENU] + ["ellipse-3-1"])
def test_brentq_repeats_scipy_on_the_collision_solves(monkeypatch, rng, factory, mu):
    """Every Larmor re-entry of 150 random steps lies in its sweep bracket
    and agrees with SciPy's Brent solve there, polished by two Newton steps.

    Each route lands within rounding of the root: a few eps / |dF/dpsi|, as
    the 40-digit test of ``test_collision`` pins, so the two agree within 16
    of those units.  The worst measured here was 6.0, on superellipse k = 3."""
    hits = []

    def recorded(curve, frame1, v, mu):
        hit = larmor_reentry(curve, frame1, v, mu)
        hits.append((frame1, v, hit))
        return hit

    monkeypatch.setattr(dynamics, "larmor_reentry", recorded)
    curve = factory()
    length = curve.total_length()
    for _ in range(150):
        z = PhasePoint(float(rng.uniform(0.0, length)), float(rng.uniform(0.05, math.pi - 0.05)))
        try:
            step(curve, mu, z)
        except BilliardError:
            pass
    assert len(hits) >= 150
    for frame1, (vx, vy), (_, _, _, _, arc_sweep, _, _) in hits:
        cx, cy = frame1.x - mu * vy, frame1.y + mu * vx
        rx, ry = frame1.x - cx, frame1.y - cy
        vals = curve.implicit_xy(cx + SWEEP_COS * rx - SWEEP_SIN * ry,
                                 cy + SWEEP_SIN * rx + SWEEP_COS * ry)
        i = int(np.flatnonzero((vals[:-1] > 0.0) & np.signbit(vals[1:]))[0])
        lo, hi = SWEEP_ANGLES.item(i), SWEEP_ANGLES.item(i + 1)
        psi, slope = brent_reentry(curve, cx, cy, rx, ry, lo, hi)
        assert lo <= arc_sweep <= hi
        assert abs(arc_sweep - psi) * abs(slope) <= 16.0 * 2.0**-52


# --------------------------------------------------------------------------
# brentq
# --------------------------------------------------------------------------

SCANS = [
    ({"kind": "superellipse", "k": 3}, {"family": "four-periodic-axis", "rotation": "3/4"}),
    ({"kind": "superellipse", "k": 2}, {"family": "four-periodic-diag", "rotation": "1/4"}),
    ({"kind": "superellipse", "k": 2}, {"family": "two-periodic-diag"}),
    ({"kind": "ellipse", "a": 3.0, "b": 2.0}, {"family": "four-periodic"}),
]


def test_brentq_repeats_scipy_on_the_family_solves(monkeypatch):
    """The root solves of the 17 check members (all through ``_root``) and of
    four scans, with their threshold refinements, bit for bit."""
    pairs = twin(monkeypatch, families, "brentq", scipy_brentq)
    for _, curve_cfg, section in cli._CHECK_MEMBERS:
        cli._member(curve_cfg, section)
    n_members = len(pairs)
    for curve_cfg, section in SCANS:
        row, rotation = cli._family(curve_cfg, section, scan=True)
        trace_fn, (lo, hi), _, _ = row.scan(curve_cfg, rotation)
        families.scan_family(trace_fn, lo, hi, n_grid=500)
    assert n_members >= 5 and len(pairs) >= n_members + 5
    assert all(a == b for a, b in hex_pairs(pairs))


def test_brentq_defaults_and_checks_match_scipy():
    g = lambda x: math.cos(x) - x
    assert brentq(g, 0.0, 1.0).hex() == scipy_brentq(g, 0.0, 1.0).hex()
    assert RTOL_MIN == 4.0 * np.finfo(float).eps
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="xtol too small"):
        brentq(g, 0.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="rtol too small"):
        brentq(g, 0.0, 1.0, rtol=RTOL_MIN / 2)


@pytest.mark.parametrize("f", [
    lambda x: math.nan,
    lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,  # NaN inside the bracket
], ids=["at-the-end", "inside"])
def test_brentq_raises_on_nan(f):
    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        scipy_brentq(f, 0.0, 1.0)


def test_brentq_raises_when_it_runs_out_of_iterations():
    f = lambda x: x ** 3 - 2.0
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        brentq(f, 0.0, 2.0, maxiter=3)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 2.0, maxiter=3)
    assert brentq(f, 0.0, 2.0).hex() == scipy_brentq(f, 0.0, 2.0).hex()


# --------------------------------------------------------------------------
# minimize_bounded
# --------------------------------------------------------------------------

def test_minimize_bounded_repeats_scipy_on_the_scan_refinements(monkeypatch):
    """Every tangential-touch refinement of the benchmark's scan family
    (``perfbench/configs/scan.json``), with ``x`` and ``fun`` bit for bit."""

    def scipy_route(func, bounds, xatol):
        res = minimize_scalar(func, bounds=bounds, method="bounded", options={"xatol": xatol})
        return res.x, res.fun

    pairs = twin(monkeypatch, families, "minimize_bounded", scipy_route)
    row, rotation = cli._family(*SCANS[0], scan=True)
    trace_fn, (lo, hi), _, _ = row.scan(SCANS[0][0], rotation)
    families.scan_family(trace_fn, lo, hi, n_grid=500)
    assert len(pairs) >= 3
    for (x, fun), (sx, sfun) in pairs:
        assert float(x).hex() == float(sx).hex()
        assert float(fun).hex() == float(sfun).hex()


def test_minimize_bounded_checks_its_bounds():
    with pytest.raises(ValueError, match="finite"):
        minimize_bounded(abs, (0.0, math.inf), 1e-12)
    with pytest.raises(ValueError, match="exceeds"):
        minimize_bounded(abs, (1.0, 0.0), 1e-12)
    x, fun = minimize_bounded(lambda x: (x - 0.3) ** 2, (0.0, 1.0), 1e-12)
    assert abs(x - 0.3) < 1e-8 and fun < 1e-16


# --------------------------------------------------------------------------
# carlson_rf
# --------------------------------------------------------------------------

def test_carlson_rf_closed_forms():
    # R_F(x, x, x) = x^(-1/2); R_F(0, y, y) = pi / (2 sqrt y);
    # R_F(x, y, y) = arctan(sqrt((y - x)/x)) / sqrt(y - x) for 0 < x < y
    assert carlson_rf(2.5, 2.5, 2.5) == pytest.approx(2.5 ** -0.5, rel=1e-15)
    assert carlson_rf(0.0, 3.0, 3.0) == pytest.approx(math.pi / (2.0 * math.sqrt(3.0)), rel=1e-15)
    assert carlson_rf(1.0, 4.0, 4.0) == pytest.approx(math.atan(math.sqrt(3.0)) / math.sqrt(3.0),
                                                      rel=1e-15)


def test_carlson_rf_against_scipy(rng):
    args = 10.0 ** rng.uniform(-8.0, 4.0, size=(400, 3))
    args[::3, 2] = 0.0
    for x, y, z in args:
        assert carlson_rf(x, y, z) == pytest.approx(elliprf(x, y, z), rel=4e-15)


EPS = sys.float_info.epsilon


def test_carlson_rf_on_arrays_matches_the_scalar_call(rng):
    """One array call equals the scalar calls entry by entry, to the few
    roundings that the extra duplications of early-converged entries add."""
    args = 10.0 ** rng.uniform(-8.0, 4.0, size=(400, 3))
    args[::3, 2] = 0.0
    values = carlson_rf(args[:, 0], args[:, 1], args[:, 2])
    assert isinstance(values, np.ndarray) and values.shape == (400,)
    for (x, y, z), value in zip(args.tolist(), values.tolist()):
        scalar = carlson_rf(x, y, z)
        assert type(scalar) is float
        assert value == pytest.approx(scalar, rel=8 * EPS)


def test_agm_gives_the_complete_integral(rng):
    """pi / M(sqrt(x), sqrt(y)) = 2 R_F(x, y, 0) (DLMF §19.22.1), on arrays
    and on floats, against duplication and against SciPy."""
    xy = 10.0 ** rng.uniform(-8.0, 4.0, size=(400, 2))
    x, y = xy.max(axis=1), xy.min(axis=1)
    den = math.pi / agm(np.sqrt(x), np.sqrt(y))
    assert isinstance(den, np.ndarray)
    for xi, yi, d in zip(x.tolist(), y.tolist(), den.tolist()):
        assert d == pytest.approx(2.0 * carlson_rf(xi, yi, 0.0), rel=4e-15)
        assert d == pytest.approx(2.0 * elliprf(xi, yi, 0.0), rel=4e-15)
        assert math.pi / agm(math.sqrt(xi), math.sqrt(yi)) == pytest.approx(d, rel=4e-15)


def test_agm_ends_at_extreme_ratios_and_equal_means():
    """Gauss's constant 1 / M(1, sqrt 2); means one ulp apart, which a stop
    on equality would iterate for ever; and a ratio of 1e-300, the far end
    of the step bound."""
    gauss = 0.83462684167407318628142973279904680
    assert agm(math.sqrt(2.0), 1.0) == pytest.approx(1.0 / gauss, rel=2 * EPS)
    x = 1.2345
    assert agm(x, math.nextafter(x, 0.0)) == pytest.approx(x, rel=EPS)
    with mp.workdps(40):
        reference = float(mp.agm(1, mpf(1e-300)))
    assert agm(1.0, 1e-300) == pytest.approx(reference, rel=4 * EPS)


@pytest.mark.parametrize("args", [
    (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (2.0, 0.0, 0.0), (0.0, 3.0, 0.0),
    (np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([3.0, 4.0])),
], ids=["000", "001", "200", "030", "array"])
def test_carlson_rf_refuses_two_zero_arguments(args):
    """R_F diverges when two or more of its arguments are zero.  Duplication
    keeps such an entry's deviations in a fixed ratio to A_n, so the loop
    never met its stop rule: ``carlson_rf(0, 0, 0)`` ran for ever.  One such
    entry refuses a whole array."""
    with pytest.raises(ValueError, match="two or more of its arguments are zero"):
        carlson_rf(*args)


def test_carlson_rf_ends_when_its_means_underflow():
    """On subnormal arguments A_n and the stop threshold both underflow to
    0; a stop test of ``>=`` then held for ever.  The strict test ends the
    loop (the entry comes out NaN, as the docstring says), and a normal
    argument next to a subnormal one keeps full precision."""
    with np.errstate(invalid="ignore", divide="ignore"):
        assert isinstance(carlson_rf(5e-324, 5e-324, 0.0), float)
    with mp.workdps(40):
        reference = float(mp.elliprf(0, 1, mpf(1e-320)))
    assert carlson_rf(0.0, 1.0, 1e-320) == pytest.approx(reference, rel=4 * EPS)


# --------------------------------------------------------------------------
# runtime dependencies
# --------------------------------------------------------------------------

def test_cli_import_loads_no_scipy():
    src = str(Path(imbilliards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, imbilliards.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
