"""Shared fixtures and sampling helpers for the test-suite."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from imbilliards.curves import Circle, Curve, Ellipse, Stadium, Superellipse
from imbilliards.dynamics import PhasePoint, iterate, jacobian_analytic, well_conditioned
from imbilliards.errors import BilliardError
from imbilliards.stability import TwoPeriodicParams

#: (name, factory, mu) menu used by sweep-style tests.  Factories, not
#: instances, so every test builds its own curve (the arclength table of a
#: shape is built once and shared).
CURVE_MENU = [
    ("circle", lambda: Circle(1.0), 0.35),
    ("ellipse-2-1", lambda: Ellipse(2.0, 1.0), 0.3),
    ("superellipse-k2", lambda: Superellipse(2), 0.3),
    ("superellipse-k3", lambda: Superellipse(3), 0.3),
    ("stadium", lambda: Stadium(2.0, 1.0), 0.3),
]


@pytest.fixture(scope="session")
def curves() -> dict[str, tuple[Curve, float]]:
    return {name: (factory(), mu) for name, factory, mu in CURVE_MENU}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)


def sample_phase_points(
    curve: Curve,
    mu: float,
    n: int,
    rng: np.random.Generator,
    *,
    theta_margin: float = 0.2,
    conditioned: bool = True,
) -> list[PhasePoint]:
    """Random phase points whose first map step succeeds (and is
    well-conditioned unless ``conditioned=False``).  A shortfall raises
    ``RuntimeError`` naming the draws whose step raised, by error tag."""
    length = curve.total_length()
    out: list[PhasePoint] = []
    failed: Counter = Counter()
    attempts = 0
    while len(out) < n and attempts < 200 * n:
        attempts += 1
        z = PhasePoint(
            s=float(rng.uniform(0.0, length)),
            theta=float(rng.uniform(theta_margin, math.pi - theta_margin)),
        )
        try:
            _, d = iterate(curve, mu, z, 1)[0]
        except BilliardError as exc:
            failed[type(exc).__name__] += 1
            continue
        if conditioned and not well_conditioned(d):
            continue
        out.append(z)
    if len(out) < n:
        raise RuntimeError(
            f"could only sample {len(out)}/{n} usable phase points in {attempts} draws; "
            "failed: " + (", ".join(f"{tag} {count}" for tag, count in sorted(failed.items()))
                          or "none"))
    return out


def measured_two_periodic_params(orbit) -> TwoPeriodicParams:
    """The oracle for a 2-periodic orbit's closed parameters, measured from its
    two steps: alpha from the first chord, beta from the angles at the chord
    launch points, delta from those at the chord exit / re-entry points."""
    d0, d1 = orbit.steps
    beta = 1.0 / math.tan(d0.theta0) + 1.0 / math.tan(d1.theta1)
    delta = 1.0 / math.tan(d0.theta1) + 1.0 / math.tan(d0.theta2)
    return TwoPeriodicParams(alpha=d0.ell1 / d0.mu, beta=beta, delta=delta)


def closed_and_measured(orbit, params: TwoPeriodicParams, tol: float):
    """The closed ``params`` of a 2-periodic orbit and the oracle's, after
    checking that each of alpha, beta, delta agrees to ``tol`` (relative
    above 1)."""
    measured = measured_two_periodic_params(orbit)
    for name in ("alpha", "beta", "delta"):
        x, y = getattr(params, name), getattr(measured, name)
        assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), (name, x, y)
    return params, measured


def composed_trace(orbit) -> float:
    """Trace of the ordered product of analytic step Jacobians."""
    S = np.eye(2)
    for d in orbit.steps:
        S = jacobian_analytic(d) @ S
    return float(S[0, 0] + S[1, 1])

