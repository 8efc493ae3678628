"""Command-line front end for the inverse magnetic billiard toolkit.

Verbs
-----

``imbil orbit --config c.json``
    Build a closed-form periodic orbit family member and write a CSV with
    the orbit points, step angles and lengths, the stability trace and the
    elliptic/parabolic/hyperbolic verdict.

``imbil scan --config c.json``
    Sweep a one-parameter family, classify every grid point, locate the
    parabolic thresholds, and write a CSV table plus a stability-diagram
    SVG.

``imbil trace --config c.json``
    Draw a trajectory: boundary outline, solid chords, dashed Larmor arcs,
    optionally overlaid with the complementary (dual) orbit.

``imbil check --config c.json``
    Run the invariant suite (unit Jacobian determinants, analytic versus
    finite-difference linearization, closed-form versus composed traces)
    and exit nonzero iff something fails.

``imbil rot --config c.json``
    Tabulate caustic kinds and rotation numbers for an ellipse.

Exit codes: 0 success, 2 validation error (bad config, bad parameter
ranges), 3 geometric failure inside the map, 4 numerical non-convergence.
Error output is a single machine-readable line ``error: <Tag>: <detail>``
on stderr.

Before a verb runs, each config section is checked against a table of its
keys, the kind of value each holds and the keys it needs: any other key, a
missing key or a value of the wrong kind is a ``ConfigValidation`` naming the
section and the key.  Family and rotation names are checked where the family
is looked up, against ``families.FAMILIES``.

Each verb takes only the flags it reads: ``--config`` names the JSON config,
``--out`` picks the directory of the four verbs that write files, and
``--format`` picks ``scan``'s artifacts (the CSV table, the SVG diagram or
both).  Every output byte is a function of the config: all CSV numbers are
written with 17 significant digits and row order is fixed, so outputs are
byte-for-byte reproducible.  SVG output uses a fixed 1000x1000 viewBox with
the drawing scaled to fit the boundary box of everything drawn, one
``<path>`` element per geometric primitive.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import families as fam
from .curves import Curve, make_curve, rot90
from .dynamics import PhasePoint, StepData, iterate, jacobian_analytic, jacobian_numeric, well_conditioned
from .errors import BilliardError, MuTooLarge, X0OutOfRange
from .rotation import check_axes, rotation_table
from .stability import COMPOSED_TOL, classify, compose

__all__ = ["main"]


def _number(value) -> bool:
    """A finite float, or an integer within the float range; a bool is no
    number, and NaN fails the comparison."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _integer(least: int) -> tuple[str, Callable]:
    return f"an integer >= {least}", lambda v: type(v) is int and v >= least


# each kind of config value: what it must be, and the test of it
_NUMBER = ("a finite number", _number)
_POSITIVE = ("a positive finite number", lambda v: _number(v) and v > 0)
_STRING = ("a string", lambda v: type(v) is str)
_BOOLEAN = ("a boolean", lambda v: type(v) is bool)
_NUMBERS = ("a non-empty list of finite numbers", lambda v: type(v) is list and v and all(map(_number, v)))
_STEM = ("made of letters, digits, '.', '_' and '-'",
         lambda v: type(v) is str and re.fullmatch(r"[A-Za-z0-9._-]+", v) is not None)
_OBJECT = ("an object", lambda v: type(v) is dict)

#: the parameters of each curve kind, all required
_CURVES = {
    "circle": {"R": _POSITIVE},
    "ellipse": {"a": _POSITIVE, "b": _POSITIVE},
    "superellipse": {"k": _integer(2)},
    "stadium": {"side": _POSITIVE, "R": _POSITIVE},
}
_KIND = (f"one of {', '.join(_CURVES)}", lambda v: type(v) is str and v in _CURVES)

#: the keys of each config section but ``curve``, the kind of value each
#: holds, and the keys the section needs; family and rotation names are
#: checked by ``_family``
_SECTIONS = {
    "orbit": ({"family": _STRING, "mu": _POSITIVE, "x0": _NUMBER, "rotation": _STRING},
              ("family",)),
    "scan": ({"family": _STRING, "rotation": _STRING, "lo": _NUMBER, "hi": _NUMBER,
              "n_grid": _integer(0)}, ("family",)),
    "trace": ({"family": _STRING, "mu": _POSITIVE, "x0": _NUMBER, "rotation": _STRING,
               "s": _NUMBER, "theta": _NUMBER, "steps": _integer(1), "overlay_dual": _BOOLEAN}, ()),
    "check": ({"n_points": _integer(1), "seed": _integer(0)}, ()),
    "rot": ({"a": _POSITIVE, "b": _POSITIVE, "lambdas": _NUMBERS, "lo": _NUMBER, "hi": _NUMBER,
             "n": _integer(2)}, ("a", "b")),
    "output": ({"stem": _STEM}, ()),
}


class ConfigValidation(ValueError):
    """A config key the verbs do not read, a key missing, or a value of the
    wrong kind."""


def _check_keys(where: str, section, keys: dict, required: Sequence[str] = ()) -> None:
    """Raise ``ConfigValidation`` unless ``section`` is an object holding only
    ``keys``, each value of its kind, and every ``required`` key."""
    if not isinstance(section, dict):
        raise ConfigValidation(f"{where} must be an object, got {section!r}")
    for key, (kind, test) in keys.items():
        if key in section and not test(section[key]):
            raise ConfigValidation(f"{where}: {key!r} must be {kind}, got {section[key]!r}")
        if key in required and key not in section:
            raise ConfigValidation(f"{where} needs the key {key!r}")
    unknown = [key for key in section if key not in keys]
    if unknown:
        raise ConfigValidation(f"{where}: unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")


def _check_config(config) -> None:
    """Check every section of ``config`` against its table, the curve against
    the parameters of its kind."""
    curve = config.get("curve") if isinstance(config, dict) else None
    kind = curve.get("kind") if isinstance(curve, dict) else None
    params = _CURVES.get(kind, {}) if isinstance(kind, str) else {}
    sections = {"curve": ({"kind": _KIND, **params}, ("kind", *params)), **_SECTIONS}
    _check_keys("config", config, dict.fromkeys(sections, _OBJECT))
    for name, section in config.items():
        _check_keys(name, section, *sections[name])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# --------------------------------------------------------------------------
# family policy: every verb looks its family up in ``families.FAMILIES``
# --------------------------------------------------------------------------

def _family(curve_cfg: dict, section: dict, scan: bool = False):
    """The table row of the configured family and its rotation, the row's first
    unless the section names another as the table prints it, ``"3/4"``
    (``None`` on a 2-periodic family).  A
    family, rotation or parameter the kind lacks is a ``ValueError``, as is a
    family with no scan for a ``scan`` and a missing parameter otherwise."""
    kind, family = curve_cfg["kind"], section["family"]
    rows = {f: row for (k, f), row in fam.FAMILIES.items() if k == kind and (row.scan or not scan)}
    scope = "scannable " if scan else ""
    _require(family in rows, f"no {scope}family {family!r} for curve kind {kind!r}; "
             f"its {scope}families are {', '.join(rows) or 'none'}")
    row = rows[family]
    names = [str(r) for r in row.rotations]
    given = section.get("rotation", names[0] if names else None)
    if names:
        _require(given in names, f"rotation must be one of {', '.join(names)}, got {given!r}")
    else:
        _require(given is None, f"family {family!r} has no rotation to choose, got {given!r}")
    other = "mu" if row.param == "x0" else "x0"
    _require(other not in section, f"family {family!r} on {kind!r} takes {row.param!r}, not {other!r}")
    _require(scan or row.param in section, f"family {family!r} on {kind!r} needs {row.param!r}")
    return row, row.rotations[names.index(given)] if names else None


def _member(curve_cfg: dict, section: dict):
    """``(orbit, trace, extras)`` of the configured family member."""
    row, rotation = _family(curve_cfg, section)
    return row.member(curve_cfg, section[row.param], rotation)


# --------------------------------------------------------------------------
# SVG plumbing
# --------------------------------------------------------------------------

class _Frame:
    """Affine map from math coordinates to the 1000x1000 SVG viewBox, with a
    margin of 5% of the larger span on every side."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
        pad = 0.05 * span
        self.scale = 1000.0 / (span + 2.0 * pad)
        self.x0 = 0.5 * (x_lo + x_hi)
        self.y0 = 0.5 * (y_lo + y_hi)

    def to_svg(self, x: float, y: float) -> tuple[float, float]:
        return (
            500.0 + self.scale * (x - self.x0),
            500.0 - self.scale * (y - self.y0),
        )

    def pt(self, x: float, y: float) -> str:
        X, Y = self.to_svg(x, y)
        return f"{X:.3f} {Y:.3f}"


def _svg_root() -> ET.Element:
    return ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "viewBox": "0 0 1000 1000",
            "width": "1000",
            "height": "1000",
        },
    )


def _add_path(root: ET.Element, d: str, stroke: str, *, dashed: bool = False,
              width: float = 2.0, fill: str = "none", opacity: float = 1.0) -> None:
    attrs = {
        "d": d,
        "stroke": stroke,
        "stroke-width": f"{width:g}",
        "fill": fill,
    }
    if dashed:
        attrs["stroke-dasharray"] = "8 6"
    if opacity != 1.0:
        attrs["stroke-opacity"] = f"{opacity:g}"
    ET.SubElement(root, "path", attrs)


def _boundary_points(curve: Curve) -> list[np.ndarray]:
    """720 arclength-equispaced points of the boundary."""
    length = curve.total_length()
    return [curve.frame_at(float(s)).point
            for s in np.linspace(0.0, length, 720, endpoint=False)]


def _boundary_path(points: Sequence[np.ndarray], frame: _Frame) -> str:
    """Closed polygon through the boundary points."""
    parts = [("M " if i == 0 else "L ") + frame.pt(p[0], p[1]) for i, p in enumerate(points)]
    return " ".join(parts) + " Z"


def _step_geometry(d: StepData) -> dict:
    """Cartesian chord endpoints, arc center/radius/angles for one step,
    read off the step's launch, exit and re-entry frames."""
    frame0, frame1, frame2 = d.frames
    p1 = frame1.point
    # the exit angle theta1 is read reflected: the chord leaves at -theta1
    center = p1 + d.mu * rot90(frame1.direction(-d.theta1))
    phi0 = math.atan2(p1[1] - center[1], p1[0] - center[0])
    return {
        "p0": frame0.point, "p1": p1, "p2": frame2.point,
        "center": center, "phi0": phi0, "sweep": 2.0 * d.chi,
    }


def _arc_points(geo: dict, mu: float) -> list[tuple[float, float]]:
    """24 equispaced points along a step's Larmor arc."""
    pts = []
    for t in np.linspace(0.0, geo["sweep"], 24):
        phi = geo["phi0"] + t
        pts.append(
            (geo["center"][0] + mu * math.cos(phi), geo["center"][1] + mu * math.sin(phi))
        )
    return pts


def _draw_steps(root: ET.Element, frame: _Frame, geos: Sequence[dict],
                mu: float, chord_color: str, arc_color: str, opacity: float) -> None:
    for geo in geos:
        chord = f"M {frame.pt(*geo['p0'])} L {frame.pt(*geo['p1'])}"
        _add_path(root, chord, chord_color, opacity=opacity)
        r = frame.scale * mu
        large = "1" if geo["sweep"] > math.pi else "0"
        # anticlockwise in math coordinates = sweep flag 0 after the y flip
        arc = (
            f"M {frame.pt(*geo['p1'])} "
            f"A {r:.3f} {r:.3f} 0 {large} 0 {frame.pt(*geo['p2'])}"
        )
        _add_path(root, arc, arc_color, dashed=True, opacity=opacity)


def _write_svg(root: ET.Element, path: Path) -> None:
    ET.indent(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ET.tostring(root, encoding="unicode") + "\n")


@contextlib.contextmanager
def _csv_writer(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


# --------------------------------------------------------------------------
# verb implementations: each takes the config and the paths of the artifacts
# it is to write, by kind ("csv", "svg")
# --------------------------------------------------------------------------

def cmd_orbit(config: dict, paths: dict[str, Path]) -> int:
    orbit, trace, extras = _member(config["curve"], config["orbit"])
    verdict = classify(trace)
    csv_path = paths["csv"]
    with _csv_writer(csv_path) as writer:
        writer.writerow(["record", "index", "key", "value"])
        meta = [("curve", config["curve"]["kind"]), ("family", config["orbit"]["family"]),
                ("n", str(orbit.n)), ("mu", _fmt(orbit.mu)), ("rotation", str(orbit.rotation)),
                ("residual", _fmt(orbit.residual)), *((key, _fmt(value)) for key, value in extras)]
        for key, value in meta:
            writer.writerow(["meta", "", key, value])
        for i, (z, p) in enumerate(zip(orbit.points, orbit.boundary_points[::2])):
            for key, value in (("s", z.s), ("theta", z.theta), ("x", p[0]), ("y", p[1])):
                writer.writerow(["point", str(i), key, _fmt(value)])
        for i, d in enumerate(orbit.steps):
            for key in ("ell1", "ell2", "chi", "theta0", "theta1", "theta2"):
                writer.writerow(["step", str(i), key, _fmt(getattr(d, key))])
        writer.writerow(["summary", "", "trace", _fmt(trace)])
        writer.writerow(["summary", "", "class", verdict.cls.value])
    print(f"trace {_fmt(trace)} class {verdict.cls.value} -> {csv_path}")
    return 0


def cmd_scan(config: dict, paths: dict[str, Path]) -> int:
    section = config["scan"]
    row, rotation = _family(config["curve"], section, scan=True)
    trace_fn, (lo, hi), (dom_lo, dom_hi), refs = row.scan(config["curve"], rotation)
    lo = section.get("lo", lo)
    hi = section.get("hi", hi)
    if not (dom_lo < lo < dom_hi and dom_lo < hi < dom_hi):
        error = MuTooLarge if row.param == "mu" else X0OutOfRange
        raise error(
            f"scan window [{_fmt(lo)}, {_fmt(hi)}] must lie inside the open interval "
            f"({dom_lo:.12g}, {dom_hi:.12g}) on which {section['family']!r} exists")
    scan = fam.scan_family(trace_fn, lo, hi, parameter=row.param,
                           n_grid=section.get("n_grid", 500))

    if "csv" in paths:
        with _csv_writer(paths["csv"]) as writer:
            writer.writerow(["kind", row.param, "trace", "class"])
            for x, t in zip(scan.grid.tolist(), scan.traces.tolist()):
                writer.writerow(["grid", _fmt(x), _fmt(t), classify(t).cls.value])
            for x in scan.thresholds:
                writer.writerow(["threshold", _fmt(x), _fmt(trace_fn(x)), "parabolic"])
            for ref, inside in refs:
                nearest = min(scan.thresholds, key=lambda x: abs(x - ref), default=math.nan)
                writer.writerow(["reference", _fmt(ref), _fmt(nearest if inside else math.nan),
                                 "in-interval" if inside else "out-of-interval"])
    if "svg" in paths:
        _scan_svg(scan, paths["svg"])
    print(
        f"{len(scan.thresholds)} threshold(s) on [{_fmt(lo)}, {_fmt(hi)}] -> "
        + ", ".join(str(p) for p in paths.values())
    )
    return 0


def _scan_svg(scan, path: Path) -> None:
    """Stability diagram: class bands, clipped trace curve, threshold lines.
    Each band takes the class of the grid trace nearest its midpoint."""
    root = _svg_root()
    lo, hi = float(scan.grid[0]), float(scan.grid[-1])
    t_lo, t_hi = -6.0, 6.0
    x_of = lambda x: 60.0 + 880.0 * (x - lo) / (hi - lo)
    y_of = lambda t: 500.0 - 440.0 * (max(t_lo, min(t_hi, t)) / t_hi)

    # class bands between consecutive thresholds
    cuts = [lo, *[x for x in scan.thresholds if lo < x < hi], hi]
    band_colors = {"elliptic": "#cde7cd", "hyperbolic": "#f0cccc", "parabolic": "#d8d8f0"}
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        i = int(np.argmin(np.abs(scan.grid - mid)))
        color = band_colors[classify(scan.traces.item(i)).cls.value]
        d = (
            f"M {x_of(left):.3f} 60 L {x_of(right):.3f} 60 "
            f"L {x_of(right):.3f} 940 L {x_of(left):.3f} 940 Z"
        )
        _add_path(root, d, "none", fill=color, width=0.0)

    # reference lines at trace = ±2 and the trace curve itself
    for ref in (2.0, -2.0):
        _add_path(
            root, f"M 60 {y_of(ref):.3f} L 940 {y_of(ref):.3f}", "#888888", width=1.0)
    parts = []
    for i, (x, t) in enumerate(zip(scan.grid, scan.traces)):
        parts.append(("M " if i == 0 else "L ") + f"{x_of(x):.3f} {y_of(t):.3f}")
    _add_path(root, " ".join(parts), "#202020", width=2.0)

    for x in scan.thresholds:
        if lo <= x <= hi:
            _add_path(root, f"M {x_of(x):.3f} 60 L {x_of(x):.3f} 940", "#4040c0", width=1.5)
    # axis
    _add_path(root, "M 60 940 L 940 940", "#000000", width=1.5)
    for x, anchor in ((lo, "start"), (hi, "end")):
        label = ET.SubElement(
            root, "text",
            {"x": f"{x_of(x):.3f}", "y": "970", "font-size": "24", "text-anchor": anchor})
        label.text = _fmt(x)
    title = ET.SubElement(
        root, "text", {"x": "500", "y": "40", "font-size": "28", "text-anchor": "middle"})
    title.text = f"stability of the {scan.parameter}-family (trace clipped to ±6)"
    _write_svg(root, path)


def cmd_trace(config: dict, paths: dict[str, Path]) -> int:
    section = config["trace"]
    curve = make_curve(config["curve"])
    overlay = None
    unread = ("s", "theta", "steps") if "family" in section else ("x0", "rotation", "overlay_dual")
    extra = ", ".join(repr(key) for key in unread if key in section)
    _require(not extra, f"a {'family' if 'family' in section else 'raw'} trace takes no {extra}")
    if "family" in section:
        orbit, _, _ = _member(config["curve"], section)
        steps, mu = orbit.steps, orbit.mu
        if section.get("overlay_dual"):
            overlay = fam.dual_orbit(orbit)
    else:
        for name in ("s", "theta", "mu", "steps"):
            _require(name in section, f"raw trace needs {name!r} (or a 'family')")
        theta = section["theta"]
        _require(0.0 < theta < math.pi, f"raw trace 'theta' must lie in (0, pi), got {theta!r}")
        z = PhasePoint(s=section["s"], theta=theta)
        mu = section["mu"]
        steps = tuple(d for _, d in iterate(curve, mu, z, section["steps"]))

    # (step geometries, Larmor radius, chord color, arc color, opacity)
    layers = [([_step_geometry(d) for d in steps], mu, "#1f5fa8", "#c03030", 1.0)]
    if overlay is not None:
        layers.append(([_step_geometry(d) for d in overlay.steps], overlay.mu,
                       "#2a9d4e", "#b05fc0", 0.85))

    # fit the frame around the boundary and every arc
    boundary = _boundary_points(curve)
    xs = [p[0] for p in boundary]
    ys = [p[1] for p in boundary]
    for geos, radius, *_ in layers:
        for geo in geos:
            for x, y in _arc_points(geo, radius):
                xs.append(x)
                ys.append(y)
    frame = _Frame(xs, ys)

    root = _svg_root()
    _add_path(root, _boundary_path(boundary, frame), "#000000", width=2.5)
    for layer in layers:
        _draw_steps(root, frame, *layer)
    _write_svg(root, paths["svg"])
    print(f"{len(steps)} step(s) -> {paths['svg']}")
    return 0


# --------------------------------------------------------------------------
# invariant suite
# --------------------------------------------------------------------------

def _sample_points(
    curve: Curve, mu: float, n: int, rng
) -> tuple[list[tuple[PhasePoint, StepData]], int, Counter]:
    """Up to n random phase points with a well-conditioned first step, and
    that step; the number of points drawn; and the draws whose step raised,
    counted by error tag."""
    length = curve.total_length()
    points = []
    failed: Counter = Counter()
    attempts = 0
    while len(points) < n and attempts < 80 * n:
        attempts += 1
        z = PhasePoint(
            s=float(rng.uniform(0.0, length)),
            theta=float(rng.uniform(0.2, math.pi - 0.2)),
        )
        try:
            _, d = iterate(curve, mu, z, 1)[0]
        except BilliardError as exc:
            failed[type(exc).__name__] += 1
            continue
        if well_conditioned(d):
            points.append((z, d))
    return points, attempts, failed


_CIRCLE = {"kind": "circle", "R": 1.0}
_ELLIPSE = {"kind": "ellipse", "a": 2.0, "b": 1.0}
_ELLIPSE_32 = {"kind": "ellipse", "a": 3.0, "b": 2.0}
_SE2 = {"kind": "superellipse", "k": 2}
_STADIUM = {"kind": "stadium", "side": 2.0, "R": 1.0}

#: ``check``'s bounds on a sampled step's |det - 1| and on the relative gap of
#: its Jacobian to the finite-difference one (traces: ``COMPOSED_TOL``)
_DET_TOL = 1e-9
_JACOBIAN_TOL = 1e-5

#: (name, curve, mu) of the tables whose single steps ``check`` samples
_CHECK_TABLES = [
    ("circle", _CIRCLE, 0.35),
    ("ellipse", _ELLIPSE, 0.3),
    ("superellipse-k2", _SE2, 0.3),
    ("superellipse-k3", {"kind": "superellipse", "k": 3}, 0.3),
    ("stadium", _STADIUM, 0.3),
]

#: (name, curve, orbit section) of the closed-form members whose traces
#: ``check`` compares with the composed Jacobian product
_CHECK_MEMBERS = [
    ("circle-2", _CIRCLE, {"family": "two-periodic", "mu": 0.5}),
    ("ellipse-major", _ELLIPSE, {"family": "two-periodic-major", "mu": 0.5}),
    ("ellipse-minor", _ELLIPSE, {"family": "two-periodic-minor", "mu": 0.5}),
    ("se-axis-2", _SE2, {"family": "two-periodic-axis", "mu": 0.5}),
    ("se-diag-2", _SE2, {"family": "two-periodic-diag", "x0": -0.3}),
    ("stadium-sides", _STADIUM, {"family": "two-periodic-sides", "mu": 0.4}),
    ("stadium-caps", _STADIUM, {"family": "two-periodic-caps", "mu": 0.4}),
    ("circle-3-rot13", _CIRCLE, {"family": "three-periodic", "mu": 0.4, "rotation": "1/3"}),
    ("circle-3-rot23", _CIRCLE, {"family": "three-periodic", "mu": 0.4, "rotation": "2/3"}),
    ("circle-4-rot14", _CIRCLE, {"family": "four-periodic", "mu": 0.3, "rotation": "1/4"}),
    ("circle-4-rot34", _CIRCLE, {"family": "four-periodic", "mu": 0.3, "rotation": "3/4"}),
    ("ellipse-4-rot14", _ELLIPSE_32, {"family": "four-periodic", "x0": 2.7, "rotation": "1/4"}),
    ("ellipse-4-rot34", _ELLIPSE_32, {"family": "four-periodic", "x0": 1.5, "rotation": "3/4"}),
    ("se-diag-4-rot14", _SE2, {"family": "four-periodic-diag", "x0": 0.9, "rotation": "1/4"}),
    ("se-diag-4-rot34", _SE2, {"family": "four-periodic-diag", "x0": -0.3, "rotation": "3/4"}),
    ("se-axis-4-rot14", _SE2, {"family": "four-periodic-axis", "x0": 0.9, "rotation": "1/4"}),
    ("se-axis-4-rot34", _SE2, {"family": "four-periodic-axis", "x0": 0.5, "rotation": "3/4"}),
]


def cmd_check(config: dict, paths: dict[str, Path]) -> int:
    section = config.get("check", {})
    n_points = section.get("n_points", 200)
    rng = np.random.default_rng(section.get("seed", 0))
    failures = []

    def report(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append(name)

    for name, curve_cfg, mu in _CHECK_TABLES:
        curve = make_curve(curve_cfg)
        points, drawn, failed = _sample_points(curve, mu, n_points, rng)
        samples = [(z, jacobian_analytic(d)) for z, d in points]
        worst_det = 0.0
        for _, J in samples:
            worst_det = max(worst_det, abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] - 1.0))
        report(
            f"det[{name}]", worst_det <= _DET_TOL,
            f"worst |det-1| = {worst_det:.3e} over {len(samples)} points (tol {_DET_TOL:g}); "
            f"{drawn} drawn, failed: "
            + (", ".join(f"{tag} {count}" for tag, count in sorted(failed.items())) or "none"))

        worst_jac = 0.0
        for z, A in samples[: max(10, n_points // 10)]:
            N = jacobian_numeric(curve, mu, z)
            worst_jac = max(
                worst_jac,
                float(np.max(np.abs(A - N)) / max(1.0, float(np.max(np.abs(A))))),
            )
        report(
            f"jacobian[{name}]", worst_jac <= _JACOBIAN_TOL,
            f"worst rel dev = {worst_jac:.3e} (tol {_JACOBIAN_TOL:g})")

    for name, curve_cfg, orbit_section in _CHECK_MEMBERS:
        orbit, closed, _ = _member(curve_cfg, orbit_section)
        S = compose(orbit.steps)
        composed = float(S[0, 0] + S[1, 1])
        dev = abs(closed - composed) / max(1.0, abs(closed))
        report(
            f"trace[{name}]", dev <= COMPOSED_TOL,
            f"closed {closed:.9g} vs composed {composed:.9g} (rel dev {dev:.3e})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def cmd_rot(config: dict, paths: dict[str, Path]) -> int:
    section = config["rot"]
    a, b = section["a"], section["b"]
    check_axes(a, b)
    if "lambdas" in section:
        lambdas = [float(x) for x in section["lambdas"]]
    else:
        lo = section.get("lo", 1e-3 * b * b)
        hi = section.get("hi", a * a * (1.0 - 1e-3))
        # the default hi is not finite once a * a overflows
        _require(math.isfinite(lo) and math.isfinite(hi),
                 f"lambda interval ends must be finite, got [{lo}, {hi}]")
        _require(hi > lo, f"empty lambda interval [{lo}, {hi}]")
        lambdas = np.linspace(lo, hi, section.get("n", 100)).tolist()
    rows = rotation_table(a, b, lambdas)
    with _csv_writer(paths["csv"]) as writer:
        writer.writerow(["lambda", "kind", "rot"])
        for lam, kind, rho in rows:
            writer.writerow([_fmt(lam), kind, _fmt(rho) if math.isfinite(rho) else "nan"])
    print(f"{len(rows)} row(s) -> {paths['csv']}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Verb(NamedTuple):
    """A row of :data:`_VERBS`: the verb's function, its help text, the config
    sections it needs and the kinds of file it writes, named ``<stem>.<kind>``."""

    run: Callable[[dict, dict[str, Path]], int]
    help: str
    sections: tuple[str, ...]
    writes: tuple[str, ...]


#: every verb, the one home of the flags it takes and the sections it reads
_VERBS = {
    "orbit": _Verb(cmd_orbit, "construct a periodic orbit family member, write CSV",
                   ("curve", "orbit"), ("csv",)),
    "scan": _Verb(cmd_scan, "sweep a family parameter, write CSV + stability SVG",
                  ("curve", "scan"), ("csv", "svg")),
    "trace": _Verb(cmd_trace, "draw a trajectory as SVG", ("curve", "trace"), ("svg",)),
    "check": _Verb(cmd_check, "run the invariant suite", (), ()),
    "rot": _Verb(cmd_rot, "tabulate caustic rotation numbers, write CSV", ("rot",), ("csv",)),
}


def build_parser() -> argparse.ArgumentParser:
    """``--config`` on every verb (required where it needs a section), ``--out``
    on the verbs that write files and ``--format`` on the one that writes two."""
    parser = argparse.ArgumentParser(
        prog="imbil",
        description="inverse magnetic billiards: orbits, stability scans, figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("--config", required=bool(verb.sections), help="JSON config file")
        if verb.writes:
            p.add_argument("--out", default=".", help="output directory (default: .)")
        if len(verb.writes) > 1:
            p.add_argument("--format", choices=(*verb.writes, "both"), default="both",
                           help="which artifacts to write (default: both)")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path!r} is not valid JSON: {exc}") from exc
    _check_config(config)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verb = _VERBS[args.command]
    try:
        config = _load_config(args.config)
        for section in verb.sections:
            _require(section in config, f"{args.command} verb needs the config section {section!r}")
        chosen = vars(args).get("format", "both")
        stem = config.get("output", {}).get("stem", args.command)
        paths = {kind: Path(args.out) / f"{stem}.{kind}"
                 for kind in verb.writes if chosen in (kind, "both")}
        return verb.run(config, paths)
    except BilliardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
