"""Shared fixtures and sampling helpers for the test-suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from imbilliards.curves import Circle, Curve, Ellipse, Stadium, Superellipse
from imbilliards.dynamics import PhasePoint, iterate, jacobian_analytic, well_conditioned
from imbilliards.errors import BilliardError

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
    well-conditioned unless ``conditioned=False``)."""
    length = curve.total_length()
    out: list[PhasePoint] = []
    attempts = 0
    while len(out) < n and attempts < 200 * n:
        attempts += 1
        z = PhasePoint(
            s=float(rng.uniform(0.0, length)),
            theta=float(rng.uniform(theta_margin, math.pi - theta_margin)),
        )
        try:
            _, d = iterate(curve, mu, z, 1)[0]
        except BilliardError:
            continue
        if conditioned and not well_conditioned(d):
            continue
        out.append(z)
    if len(out) < n:
        raise RuntimeError(f"could only sample {len(out)}/{n} usable phase points")
    return out


def composed_trace(orbit) -> float:
    """Trace of the ordered product of analytic step Jacobians."""
    S = np.eye(2)
    for d in orbit.steps:
        S = jacobian_analytic(d) @ S
    return float(S[0, 0] + S[1, 1])
