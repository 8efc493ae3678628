"""Exception taxonomy for the inverse magnetic billiard library.

Failures fall into three families, mirrored by the CLI exit codes:

* :class:`InputError` (exit 2) — the request itself is invalid and nothing
  was computed (parameter out of its documented range, malformed config).
* :class:`GeometricError` (exit 3) — the inputs are syntactically fine but
  the dynamics or construction is not defined there (tangential contact,
  infeasible orbit shape, degenerate step data).
* :class:`ConvergenceError` (exit 4) — an iterative numerical procedure
  failed to reach its target (Newton stall, missing root bracket,
  singular linearization).

Every concrete class doubles as a machine-readable tag: the CLI prints the
class name verbatim so scripts can dispatch on it.
"""

from __future__ import annotations

__all__ = [
    "BilliardError",
    "InputError",
    "GeometricError",
    "ConvergenceError",
    "MuTooLarge",
    "X0OutOfRange",
    "Nu0OutOfRange",
    "TangentialChord",
    "NoInteriorHit",
    "NoReentry",
    "TangentialContact",
    "DegenerateStep",
    "NotPeriodic",
    "InfeasibleStadium",
    "BeyondXHat",
    "NotSymmetric",
    "LambdaDegenerate",
    "SingularJacobian",
    "NoConvergence",
    "RootNotBracketed",
]


class BilliardError(Exception):
    """Base class for all library-specific failures."""

    exit_code = 1


class InputError(BilliardError, ValueError):
    """A parameter is outside its documented domain."""

    exit_code = 2


class GeometricError(BilliardError):
    """The configuration is valid but the dynamics is undefined there."""

    exit_code = 3


class ConvergenceError(BilliardError):
    """A numerical procedure did not reach its accuracy target."""

    exit_code = 4


# --- input family -----------------------------------------------------------

class MuTooLarge(InputError):
    """Larmor radius too large for the requested orbit family."""


class X0OutOfRange(InputError):
    """Seed coordinate outside the valid interval of the orbit family."""


class Nu0OutOfRange(InputError):
    """Normalized confocal parameter must exceed 1."""


# --- geometric / dynamic family --------------------------------------------

class TangentialChord(GeometricError):
    """Launch angle outside the map's domain, within tolerance of 0 or pi or
    past them: the chord grazes the boundary, or there is none."""


class NoInteriorHit(GeometricError):
    """The chord ray leaves the domain immediately (concave geometry)."""


class NoReentry(GeometricError):
    """Full Larmor sweep found no boundary crossing (concave geometry)."""


class TangentialContact(GeometricError):
    """The Larmor circle touches the boundary tangentially, or re-enters at
    an angle outside the map's domain: no transversal re-entry."""


class DegenerateStep(GeometricError):
    """Step data too close to a chart singularity for the closed-form
    linearization (a sine or chord length below 1e-12)."""


class NotPeriodic(GeometricError):
    """Orbit failed the closure check for the requested period."""


class InfeasibleStadium(GeometricError):
    """The 2-periodic stadium-shaped orbit does not fit: one of its Larmor
    semicircles would dip inside the table."""


class BeyondXHat(GeometricError):
    """Diagonal 4-periodic seed beyond the tangency threshold: the Larmor
    circle meets the boundary four times and the family breaks down."""


class NotSymmetric(GeometricError):
    """Orbit lacks the central symmetry required by the duality map."""


class LambdaDegenerate(GeometricError):
    """Confocal parameter sits on a degenerate caustic (lambda = b^2 or
    a^2); the rotation number is defined only as a one-sided limit."""


# --- convergence family -----------------------------------------------------

class SingularJacobian(ConvergenceError):
    """det(S_n - I) below threshold; expected exactly on parabolic
    families, where periodic points are not isolated."""


class NoConvergence(ConvergenceError):
    """Iteration budget exhausted before reaching the residual target."""


class RootNotBracketed(ConvergenceError):
    """A root search found no sign change on the documented interval."""
