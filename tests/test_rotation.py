"""Caustic classification and rotation numbers of chord families."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from imbilliards import rotation
from imbilliards.errors import LambdaDegenerate, Nu0OutOfRange
from imbilliards.rotation import (
    CausticKind,
    caustic_kind,
    confocal_param,
    limiting_rotation,
    rot_lambda,
    rotation_table,
)

#: Reference rotation numbers from 40-digit adaptive quadrature of the
#: defining integral ratio (tanh-sinh rule, absolute-value integrand with
#: the inverse-square-root endpoint singularities handled natively).
ORACLE = [
    (2.0, 1.0, 0.3, 0.26614583485683577),
    (2.0, 1.0, 0.7, 0.44868554040415362),
    (2.0, 1.0, 1.5, 0.46928896962393516),
    (2.0, 1.0, 2.5, 0.38382791586982001),
    (2.0, 1.0, 3.2, 0.35529950762104406),
    (2.0, 1.0, 3.9, 0.33567708663183477),
    (3.0, 2.0, 1.0, 0.27249628756390309),
    (3.0, 2.0, 5.0, 0.58796185964608596),
    (3.0, 2.0, 8.5, 0.47290738836252953),
]

TABLES = [(math.sqrt(2.0), 1.0), (2.0, 1.0), (3.0, 2.0)]


def test_caustic_kind_classification():
    a, b = 2.0, 1.0
    assert caustic_kind(a, b, -0.5) is CausticKind.EXTERIOR
    assert caustic_kind(a, b, 0.0) is CausticKind.EXTERIOR
    assert caustic_kind(a, b, 0.5) is CausticKind.ELLIPSE
    assert caustic_kind(a, b, 1.0) is CausticKind.DEGENERATE_MAJOR
    assert caustic_kind(a, b, 1.0 + 1e-14) is CausticKind.DEGENERATE_MAJOR
    assert caustic_kind(a, b, 2.0) is CausticKind.HYPERBOLA
    assert caustic_kind(a, b, 4.0) is CausticKind.DEGENERATE_MINOR
    assert caustic_kind(a, b, 4.5) is CausticKind.IMAGINARY
    with pytest.raises(ValueError):
        caustic_kind(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        caustic_kind(a, b, math.nan)


@pytest.mark.parametrize("a, b, lam, expected", ORACLE)
def test_rot_lambda_against_quadrature_oracle(a, b, lam, expected):
    assert rot_lambda(a, b, lam) == pytest.approx(expected, abs=1e-9)


def quad_rotation(a, b, lam):
    """The two defining integrals by SciPy's weighted Gauss quadrature (the
    inverse-square-root endpoint weights passed to QUADPACK), as a second
    route that shares nothing with the Carlson form of ``rot_lambda``."""
    a2, b2 = a * a, b * b
    lo, hi = min(b2, lam), max(b2, lam)
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=200)
    num, _ = quad(lambda t: 1.0 / math.sqrt((hi - t) * (a2 - t)), 0.0, lo,
                  weight="alg", wvar=(0.0, -0.5), **opts)
    den, _ = quad(lambda t: 1.0 / math.sqrt(t - lo), hi, a2,
                  weight="alg", wvar=(-0.5, -0.5), **opts)
    return num / den


@pytest.mark.parametrize("a, b, lam, expected", ORACLE)
def test_quadrature_route_against_oracle(a, b, lam, expected):
    assert quad_rotation(a, b, lam) == pytest.approx(expected, abs=1e-9)


#: Rotation numbers at caustics within 1e-12 ... 1e-7 (relative) of the
#: degenerate values 0, b^2 and a^2, for the double ``lam`` as written.
#: Computed with mpmath at 40 digits as 2 sqrt(lo) R_F(...) / (2 R_F(...))
#: with ``mp.elliprf`` (mp.dps = 40), and cross-checked to 1e-40 by tanh-sinh
#: ``mp.quad`` (60 digits) of the two integrals after the substitutions
#: t = lo - u^2 and t = hi + (a^2 - hi) sin^2(phi), which remove their
#: endpoint singularities.
NEAR_DEGENERATE = [
    (2.0, 1.0, 4.0 * (1.0 - 1e-9), "0.3333333334252214800442691166632181045526"),
    (2.0, 1.0, 1.0 + 1e-11, "0.9097962828012283411950810253725269496784"),
    (2.0, 1.0, 1.0 - 1e-11, "0.9097962828008431882126716533758337045131"),
    (2.0, 1.0, 1e-12, "4.637109872861709909127149041655012395106e-7"),
    (3.0, 2.0, 8.9999999, "0.4645590559792345262998746897787806992045"),
]


@pytest.mark.parametrize("a, b, lam, expected", NEAR_DEGENERATE)
def test_rot_lambda_near_degenerate_caustics(a, b, lam, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = rot_lambda(a, b, lam)
    assert abs(rho - float(expected)) <= 1e-14 * float(expected)


def test_rot_lambda_rejects_non_caustics():
    with pytest.raises(LambdaDegenerate):
        rot_lambda(2.0, 1.0, 1.0)
    with pytest.raises(LambdaDegenerate):
        rot_lambda(2.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        rot_lambda(2.0, 1.0, -0.3)
    with pytest.raises(ValueError):
        rot_lambda(2.0, 1.0, 5.0)


@pytest.mark.parametrize("a, b", TABLES)
def test_rotation_monotone_on_both_branches(a, b):
    """Increasing 0 -> 1 on the ellipse branch, decreasing 1 ->
    (2/pi)*arcsin(b/a) on the hyperbola branch, on 100-point grids."""
    b2, a2 = b * b, a * a
    ellipse_grid = np.linspace(1e-3 * b2, b2 * (1.0 - 1e-3), 100)
    values = [rot_lambda(a, b, float(lam)) for lam in ellipse_grid]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert values[0] < 0.05
    assert values[-1] > 0.7

    hyper_grid = np.linspace(b2 * (1.0 + 1e-3), a2 * (1.0 - 1e-3), 100)
    values = [rot_lambda(a, b, float(lam)) for lam in hyper_grid]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[0] > 0.7
    central = (2.0 / math.pi) * math.asin(b / a)
    assert values[-1] == pytest.approx(central, abs=2e-2)

    # The shared endpoint b^2 is a logarithmic divergence toward 1: the two
    # branches agree across it and creep upward as the probe tightens.
    probes = [
        (rot_lambda(a, b, b2 * (1.0 - eps)), rot_lambda(a, b, b2 * (1.0 + eps)))
        for eps in (1e-3, 1e-6, 1e-9)
    ]
    for lower, upper in probes[1:]:
        assert lower == pytest.approx(upper, abs=1e-5)
    assert probes[0][0] < probes[1][0] < probes[2][0] < 1.0
    assert probes[2][0] > 0.85

    # The deviation from 1 shrinks markedly from the 1e-3 probe to the 1e-6
    # one; a form that tended to another value at b^2 would keep the ratio
    # of the two deviations near 1.
    deviation = [max(abs(rho - 1.0) for rho in pair) for pair in probes]
    assert deviation[1] / deviation[0] < 0.8
    # Grazing chords barely turn.
    assert rot_lambda(a, b, 1e-8 * b2) < 1e-3


def test_central_chord_limit():
    """lam -> a^2- recovers the central-chord value (2/pi)*arcsin(b/a); at
    the aspect ratio a^2 = 2 b^2 that value is 1/2."""
    a, b = math.sqrt(2.0), 1.0
    assert rot_lambda(a, b, a * a * (1.0 - 1e-6)) == pytest.approx(0.5, abs=1e-5)
    for a, b in ((2.0, 1.0), (3.0, 2.0)):
        central = (2.0 / math.pi) * math.asin(b / a)
        assert rot_lambda(a, b, a * a * (1.0 - 1e-6)) == pytest.approx(central, abs=1e-5)
    for a, b in TABLES:
        central = (2.0 / math.pi) * math.asin(b / a)
        assert rot_lambda(a, b, a * a * (1.0 - 1e-8)) == pytest.approx(central, abs=1e-5)


def test_limiting_rotation_values():
    assert limiting_rotation(2.0) == 0.5  # acos(0) = pi/2 exactly
    assert limiting_rotation(1.0) == pytest.approx(1.0, abs=1e-15)
    assert limiting_rotation(4.0 / 3.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    with pytest.raises(Nu0OutOfRange):
        limiting_rotation(0.99)
    with pytest.raises(Nu0OutOfRange):
        limiting_rotation(math.inf)


@pytest.mark.parametrize("a, b", TABLES)
def test_limiting_rotation_complements_central_chords(a, b):
    """limiting_rotation(a^2/(a^2-b^2)) = 1 - (2/pi)*arcsin(b/a) for every
    aspect ratio; the two sides agree (both 1/2) exactly when a^2 = 2b^2."""
    nu0 = confocal_param(a, b)
    complement = 1.0 - (2.0 / math.pi) * math.asin(b / a)
    assert limiting_rotation(nu0) == pytest.approx(complement, abs=1e-14)
    near_limit = rot_lambda(a, b, a * a * (1.0 - 1e-6))
    assert limiting_rotation(nu0) == pytest.approx(1.0 - near_limit, abs=1e-4)


def test_confocal_param_values():
    assert confocal_param(math.sqrt(2.0), 1.0) == pytest.approx(2.0, rel=1e-15)
    assert confocal_param(2.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        confocal_param(1.0, 1.0)


def test_rotation_table_spans_all_kinds():
    rows = rotation_table(2.0, 1.0, [-0.5, 0.5, 1.0, 2.0, 4.0, 4.5])
    kinds = [kind for _, kind, _ in rows]
    assert kinds == [
        "exterior",
        "ellipse",
        "degenerate-major",
        "hyperbola",
        "degenerate-minor",
        "imaginary",
    ]
    rhos = [rho for _, _, rho in rows]
    assert math.isnan(rhos[0]) and math.isnan(rhos[2]) and math.isnan(rhos[4])
    assert math.isnan(rhos[5])
    assert 0.0 < rhos[1] < 1.0 and 0.0 < rhos[3] < 1.0


@pytest.mark.parametrize("a, b", TABLES)
def test_hyperbola_branch_rational_values_take_even_periods(a, b):
    """On the hyperbola branch a rational rotation number p/q corresponds
    to orbits that close only after an even number of chords (the chord
    sequence alternates between the two hyperbola arms), so rationality
    checks use even denominators: 3/4 is admissible and must be attained;
    at a^2 = 2b^2 the infimum 1/2 = 2/4 is approached but not attained."""
    b2, a2 = b * b, a * a
    lo, hi = b2 * (1.0 + 1e-6), a2 * (1.0 - 1e-8)
    lam = brentq(lambda x: rot_lambda(a, b, x) - 0.75, lo, hi, xtol=1e-13)
    assert rot_lambda(a, b, lam) == pytest.approx(0.75, abs=1e-9)
    if abs(a * a - 2.0 * b * b) < 1e-12:
        grid = np.linspace(lo, hi, 50)
        assert all(rot_lambda(a, b, float(x)) > 0.5 for x in grid)


@pytest.mark.parametrize("a, b, name", [
    (math.inf, 1.0, "a"), (math.nan, 1.0, "a"), (2.0, math.inf, "b"), (2.0, math.nan, "b"),
])
def test_non_finite_semi_axes_are_refused(a, b, name):
    """An infinite ``a`` used to pass ``a > b > 0`` and make the degeneracy
    tolerance infinite, so every ``lam`` read as degenerate."""
    message = f"semi-axis {name} must be finite, got {a if name == 'a' else b}"
    for call in (lambda: caustic_kind(a, b, 0.5), lambda: confocal_param(a, b),
                 lambda: rot_lambda(a, b, 0.5), lambda: rotation_table(a, b, [0.5, 2.0])):
        with pytest.raises(ValueError, match=message):
            call()


def test_rotation_works_on_ratios_at_extreme_scales():
    """rho depends only on ``b^2/a^2`` and ``lam/a^2``, and is evaluated on
    them.  With ``a^2`` formed, ``a = 1e-100`` underflowed every R_F argument
    to 0 and ``rot_lambda`` never returned; ``a = 1e200`` overflowed the
    degeneracy tolerance ``1e-12 a^2`` to infinity, so every ``lam`` read as
    degenerate; ``confocal_param(1e160, 1)`` was inf / inf.  At ``a = 1e160``
    and ``b = 1``, ``lam = 0.5`` lies within ``1e-12 a^2 = 1e308`` of
    ``b^2``: degenerate by the tolerance's own definition."""
    assert rot_lambda(1e-100, 5e-101, 1e-201) == pytest.approx(rot_lambda(2.0, 1.0, 0.4),
                                                               rel=4 * EPS)
    assert rot_lambda(1e-100, 5e-101, 5e-201) == pytest.approx(rot_lambda(2.0, 1.0, 2.0),
                                                               rel=4 * EPS)
    assert caustic_kind(1e200, 5e199, 1e300) is CausticKind.ELLIPSE
    assert rot_lambda(1e200, 5e199, 1e300) == pytest.approx(rot_lambda(2.0, 1.0, 4e-100),
                                                            rel=4 * EPS)
    assert caustic_kind(1e160, 1.0, 0.5) is CausticKind.DEGENERATE_MAJOR
    assert confocal_param(1e160, 1.0) == 1.0
    rows = rotation_table(1e-100, 5e-101, [1e-201, 2.5e-201, 5e-201, 1e-200, 2e-200, -1e-300])
    assert [kind for _, kind, _ in rows] == [
        "ellipse", "degenerate-major", "hyperbola", "degenerate-minor", "imaginary", "exterior"]
    assert rows[0][2] == rot_lambda(1e-100, 5e-101, 1e-201)


# --------------------------------------------------------------------------
# rotation_table: one array pass over the caustics of a table
# --------------------------------------------------------------------------

EPS = sys.float_info.epsilon


def mixed_lambdas(a, b):
    """Every kind of ``lam``, near-degenerate ones included."""
    a2, b2 = a * a, b * b
    near = [lam for ta, tb, lam, _ in NEAR_DEGENERATE if (ta, tb) == (a, b)]
    grid = np.linspace(-0.5, a2 + 0.5, 97).tolist()
    return [*grid, *near, b2, a2, b2 * (1.0 + 1e-9), a2 * (1.0 - 1e-12), 1e-300]


@pytest.mark.parametrize("a, b", TABLES)
def test_rotation_table_equals_rot_lambda_on_every_caustic(a, b):
    """The array pass agrees with the one-entry pass of ``rot_lambda`` to the
    few roundings that extra duplication and AGM steps add, and leaves NaN
    on every row without a caustic."""
    lambdas = mixed_lambdas(a, b)
    rows = rotation_table(a, b, np.array(lambdas))
    assert [lam for lam, _, _ in rows] == lambdas
    for lam, kind, rho in rows:
        assert type(lam) is float and type(kind) is str and type(rho) is float
        if kind in ("ellipse", "hyperbola"):
            assert rho == pytest.approx(rot_lambda(a, b, lam), rel=8 * EPS)
        else:
            assert math.isnan(rho)


@pytest.mark.parametrize("a, b", sorted({(a, b) for a, b, _, _ in NEAR_DEGENERATE}))
def test_a_mixed_table_meets_the_near_degenerate_bound(a, b):
    """The array loops run until their slowest entry, here a caustic within
    1e-12 ... 1e-7 of a degenerate value, converges, and then end: each
    near-degenerate row of a mixed table meets the one-entry test's bound."""
    expected = {lam: float(value) for ta, tb, lam, value in NEAR_DEGENERATE if (ta, tb) == (a, b)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = rotation_table(a, b, mixed_lambdas(a, b))
    checked = [(rho, expected[lam]) for lam, _, rho in rows if lam in expected]
    assert len(checked) == len(expected)
    for rho, value in checked:
        assert abs(rho - value) <= 1e-14 * value


def test_rotation_table_refuses_nan_and_takes_an_empty_list():
    with pytest.raises(ValueError, match="caustic parameter must be finite"):
        rotation_table(2.0, 1.0, [0.5, math.nan, 2.0])
    assert rotation_table(2.0, 1.0, []) == []
    assert rotation_table(2.0, 1.0, np.array([])) == []


def test_a_table_is_one_array_pass(monkeypatch):
    """A 400-entry table makes one call of each kernel, on all 400 caustics,
    not one call per entry."""
    calls = []

    def counted(name):
        kernel = getattr(rotation, name)

        def wrapper(*args):
            calls.append((name, np.shape(args[0])))
            return kernel(*args)

        monkeypatch.setattr(rotation, name, wrapper)

    counted("carlson_rf")
    counted("agm")
    rows = rotation_table(2.0, 1.0, np.linspace(1e-3, 3.996, 400))
    assert sum(kind in ("ellipse", "hyperbola") for _, kind, _ in rows) == 400
    assert calls == [("carlson_rf", (400,)), ("agm", (400,))]
