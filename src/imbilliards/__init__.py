"""Inverse magnetic billiards: straight chords inside a convex table,
anticlockwise Larmor arcs outside it.

Subpackage map:

* :mod:`imbilliards.curves` — boundary geometry (circle, ellipse,
  superellipse, stadium) and boundary frames.
* :mod:`imbilliards.collision` — chord exit and Larmor-arc re-entry.
* :mod:`imbilliards.dynamics` — the map on the phase annulus, orbit
  iteration, closed-form and finite-difference linearizations.
* :mod:`imbilliards.stability` — trace classification, stability matrices,
  the 2-periodic interval criteria, standard-billiard comparison.
* :mod:`imbilliards.families` — closed-form periodic orbit families,
  parameter scans, duality, Newton orbit finder.
* :mod:`imbilliards.rotation` — confocal caustics of the elliptic
  billiard and their rotation numbers.
* :mod:`imbilliards.cli` — command-line front end (``imbil``).
"""

from .errors import *  # noqa: F401,F403
from .curves import (  # noqa: F401
    ArclengthTable,
    Circle,
    Curve,
    Ellipse,
    Frame,
    Stadium,
    Superellipse,
    make_curve,
)

__version__ = "0.1.0"
