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

All CSV numbers are written with 17 significant digits, and row order is a
pure function of the config, so outputs are byte-for-byte reproducible.
SVG output uses a fixed 1000x1000 viewBox with the drawing scaled to fit
the boundary box of everything drawn, one ``<path>`` element per geometric
primitive.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

import numpy as np

from . import families as fam
from .curves import Curve, make_curve, rot90
from .dynamics import PhasePoint, StepData, iterate, jacobian_analytic, jacobian_numeric, well_conditioned
from .errors import BilliardError, MuTooLarge, X0OutOfRange
from .rotation import rotation_table
from .stability import classify, compose, trace2_closed

__all__ = ["main", "CONFIG_SCHEMA"]

_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM = {"type": "number"}
_ROT = {"type": "string", "pattern": "^([12]/3|[13]/4)$"}

CONFIG_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "curve": {
            "oneOf": [
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"kind": {"const": "circle"}, "R": _POS},
                    "required": ["kind", "R"],
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"kind": {"const": "ellipse"}, "a": _POS, "b": _POS},
                    "required": ["kind", "a", "b"],
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "superellipse"},
                        "k": {"type": "integer", "minimum": 2},
                    },
                    "required": ["kind", "k"],
                },
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"kind": {"const": "stadium"}, "side": _POS, "R": _POS},
                    "required": ["kind", "side", "R"],
                },
            ]
        },
        "orbit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"type": "string"},
                "mu": _POS,
                "x0": _NUM,
                "rotation": _ROT,
            },
            "required": ["family"],
        },
        "scan": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"type": "string"},
                "rotation": _ROT,
                "lo": _NUM,
                "hi": _NUM,
                "n_grid": {"type": "integer", "minimum": 0},
            },
            "required": ["family"],
        },
        "trace": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"type": "string"},
                "mu": _POS,
                "x0": _NUM,
                "rotation": _ROT,
                "s": _NUM,
                "theta": _NUM,
                "steps": {"type": "integer", "minimum": 1},
                "overlay_dual": {"type": "boolean"},
            },
        },
        "check": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "det_tol": _POS,
                "jacobian_tol": _POS,
                "trace_tol": _POS,
                "n_points": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "rot": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "a": _POS,
                "b": _POS,
                "lambdas": {"type": "array", "items": _NUM, "minItems": 1},
                "lo": _NUM,
                "hi": _NUM,
                "n": {"type": "integer", "minimum": 0},
            },
            "required": ["a", "b"],
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"stem": {"type": "string", "pattern": "^[A-Za-z0-9._-]+$"}},
        },
    },
}


class ConfigValidation(ValueError):
    """A config that does not match ``CONFIG_SCHEMA``."""


@functools.cache
def _validator():
    """The schema validator, built on the first config read: verbs that read
    no config (``check``, ``--help``) never import jsonschema."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(CONFIG_SCHEMA)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# --------------------------------------------------------------------------
# family registry: (curve kind, family tag) -> orbit constructor
# --------------------------------------------------------------------------

def _build_orbit(curve_cfg: dict, section: dict):
    """Construct the configured family member.

    Returns ``(orbit, trace, extras)`` where ``extras`` is a list of
    ``(key, value)`` metadata pairs specific to the family (thresholds,
    power-sum ratio, ...).
    """
    kind = curve_cfg["kind"]
    family = section["family"]
    rot = section.get("rotation")
    mu = section.get("mu")
    x0 = section.get("x0")

    def need(name: str):
        value = section.get(name)
        _require(value is not None, f"family {family!r} on {kind!r} needs {name!r}")
        return value

    key = (kind, family)
    if key == ("circle", "two-periodic"):
        orbit, params = fam.two_periodic_circle(curve_cfg["R"], need("mu"))
        return orbit, trace2_closed(params), [("alpha", params.alpha)]
    if key == ("ellipse", "two-periodic-major") or key == ("ellipse", "two-periodic-minor"):
        axis = family.rsplit("-", 1)[1]
        orbit, params = fam.two_periodic_ellipse(curve_cfg["a"], curve_cfg["b"], need("mu"), axis)
        return orbit, trace2_closed(params), [
            ("alpha", params.alpha), ("beta", params.beta), ("delta", params.delta)]
    if key == ("superellipse", "two-periodic-axis"):
        orbit, params, (mu_star, mu_dstar) = fam.two_periodic_superellipse_axis(
            curve_cfg["k"], need("mu"))
        return orbit, trace2_closed(params), [
            ("alpha", params.alpha), ("beta", params.beta),
            ("mu_star", mu_star), ("mu_double_star", mu_dstar)]
    if key == ("superellipse", "two-periodic-diag"):
        orbit, params, f_value = fam.two_periodic_superellipse_diag(curve_cfg["k"], need("x0"))
        return orbit, trace2_closed(params), [
            ("alpha", params.alpha), ("beta", params.beta), ("f", f_value)]
    if key == ("stadium", "two-periodic-sides") or key == ("stadium", "two-periodic-caps"):
        style = family.rsplit("-", 1)[1]
        orbit, params = fam.two_periodic_stadium(
            curve_cfg["side"], curve_cfg["R"], need("mu"), style)
        return orbit, trace2_closed(params), [
            ("alpha", params.alpha), ("beta", params.beta)]
    if key == ("circle", "three-periodic"):
        orbit, theta, trace = fam.three_periodic_circle(
            curve_cfg["R"], need("mu"), rot or "1/3")
        return orbit, trace, [("theta", theta)]
    if key == ("circle", "four-periodic"):
        orbit, theta, trace = fam.four_periodic_circle(
            curve_cfg["R"], need("mu"), rot or "1/4")
        return orbit, trace, [("theta", theta)]
    if key == ("ellipse", "four-periodic"):
        orbit, record, trace = fam.four_periodic_ellipse(
            curve_cfg["a"], curve_cfg["b"], need("x0"), rot or "1/4")
        return orbit, trace, [
            ("mu", record.mu), ("ell1", record.ell1), ("ell3", record.ell3),
            ("cos_theta0", record.cos_theta0), ("cos_theta2", record.cos_theta2)]
    if key == ("superellipse", "four-periodic-diag"):
        orbit, trace = fam.four_periodic_superellipse_diag(
            curve_cfg["k"], need("x0"), rot or "1/4")
        return orbit, trace, []
    if key == ("superellipse", "four-periodic-axis"):
        orbit, trace = fam.four_periodic_superellipse_axis(
            curve_cfg["k"], need("x0"), rot or "1/4")
        return orbit, trace, []
    raise ValueError(f"no family {family!r} for curve kind {kind!r}")


# --------------------------------------------------------------------------
# scan registry: closed-form trace functions over a parameter interval
# --------------------------------------------------------------------------

def _scan_spec(curve_cfg: dict, section: dict):
    """Return ``(trace_fn, window, domain, parameter_name, references)`` for a
    scan config: ``window`` is the default ``(lo, hi)``, ``domain`` the open
    interval on which the family exists, and ``references`` lists tabulated
    analytic thresholds as ``(value, in_domain)``.  ``trace_fn`` takes a float
    or an array of parameters, as :func:`families.scan_family` requires."""
    kind = curve_cfg["kind"]
    family = section["family"]
    rotation = section.get("rotation")
    if family.startswith("two-periodic"):
        _require(rotation is None, f"family {family!r} has no rotation to choose, got {rotation!r}")
    elif family.startswith("four-periodic"):
        rotation = fam._normalize_rotation(rotation or "1/4", 4)
    key = (kind, family)
    if kind == "superellipse":
        k = curve_cfg["k"]
        q = fam._se_q(k)
    if key == ("superellipse", "two-periodic-axis"):
        mu_star, mu_double_star = fam._superellipse_axis_thresholds(k)
        return ((lambda mu: fam.trace2_superellipse_axis(k, mu)), (0.02, 0.995), (0.0, 1.0), "mu",
                [(mu_star, True), (mu_double_star, True)])
    if key == ("superellipse", "two-periodic-diag"):
        return ((lambda x0: fam.trace2_superellipse_diag(k, x0)), (-q + 1e-4, q - 1e-4), (-q, q),
                "x0", [])
    if key == ("ellipse", "four-periodic"):
        a, b = curve_cfg["a"], curve_cfg["b"]
        lo, _, hi = fam._ellipse4_interval(a, b)
        pad = 1e-6 * (hi - lo)
        refs = fam.ellipse4_reference_roots() if (a, b) == (3.0, 2.0) else ()
        return ((lambda x0: fam.trace4_ellipse(a, b, x0)), (lo + pad, hi - pad), (lo, hi), "x0",
                [(ref, lo < ref < hi) for ref in refs])
    if key == ("superellipse", "four-periodic-axis"):
        if rotation == fam._QUARTER:
            window, domain = (q + 1e-3, 1.0 - 1e-3), (q, 1.0)
        else:
            window, domain = (-q + 1e-6, 1.0 - 1e-3), (-q, 1.0)
        return lambda x0: fam.trace4_superellipse_axis(k, x0, rotation), window, domain, "x0", []
    if key == ("superellipse", "four-periodic-diag"):
        if rotation == fam._QUARTER:
            x_hat = fam.x_hat(k)
            window, domain = (q + 1e-4, x_hat - 1e-4), (q, x_hat)
        else:
            window, domain = (-1.0 + 1e-3, q - 1e-4), (-1.0, q)
        return (lambda x0: fam.trace4_superellipse_diag(k, x0)), window, domain, "x0", []
    raise ValueError(f"no scannable family {family!r} for curve kind {kind!r}")


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
    path.write_text(ET.tostring(root, encoding="unicode") + "\n")


# --------------------------------------------------------------------------
# verb implementations
# --------------------------------------------------------------------------

def _out_paths(config: dict, args, default_stem: str) -> tuple[Path, str]:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = config.get("output", {}).get("stem", default_stem)
    return out_dir, stem


def _formats(args, natural: set[str]) -> set[str]:
    wanted = {"csv", "svg"} if args.format == "both" else {args.format}
    chosen = wanted & natural
    _require(
        bool(chosen),
        f"--format {args.format} produces nothing for this verb "
        f"(it emits {', '.join(sorted(natural))})",
    )
    return chosen


def cmd_orbit(config: dict, args) -> int:
    _require("curve" in config, "orbit verb needs a 'curve' section")
    _require("orbit" in config, "orbit verb needs an 'orbit' section")
    _formats(args, {"csv"})
    orbit, trace, extras = _build_orbit(config["curve"], config["orbit"])
    tol = args.tol if args.tol is not None else 1e-9
    verdict = classify(trace, tol=tol)
    out_dir, stem = _out_paths(config, args, "orbit")
    csv_path = out_dir / f"{stem}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record", "index", "key", "value"])
        writer.writerow(["meta", "", "curve", config["curve"]["kind"]])
        writer.writerow(["meta", "", "family", config["orbit"]["family"]])
        writer.writerow(["meta", "", "n", str(orbit.n)])
        writer.writerow(["meta", "", "mu", _fmt(orbit.mu)])
        writer.writerow(["meta", "", "rotation", str(orbit.rotation)])
        writer.writerow(["meta", "", "residual", _fmt(orbit.residual)])
        for key, value in extras:
            writer.writerow(["meta", "", key, _fmt(value)])
        for i, (z, p) in enumerate(zip(orbit.points, orbit.boundary_points[::2])):
            writer.writerow(["point", str(i), "s", _fmt(z.s)])
            writer.writerow(["point", str(i), "theta", _fmt(z.theta)])
            writer.writerow(["point", str(i), "x", _fmt(p[0])])
            writer.writerow(["point", str(i), "y", _fmt(p[1])])
        for i, d in enumerate(orbit.steps):
            writer.writerow(["step", str(i), "ell1", _fmt(d.ell1)])
            writer.writerow(["step", str(i), "ell2", _fmt(d.ell2)])
            writer.writerow(["step", str(i), "chi", _fmt(d.chi)])
            writer.writerow(["step", str(i), "theta0", _fmt(d.theta0)])
            writer.writerow(["step", str(i), "theta1", _fmt(d.theta1)])
            writer.writerow(["step", str(i), "theta2", _fmt(d.theta2)])
        writer.writerow(["summary", "", "trace", _fmt(trace)])
        writer.writerow(["summary", "", "class", verdict.cls.value])
    print(f"trace {_fmt(trace)} class {verdict.cls.value} -> {csv_path}")
    return 0


def cmd_scan(config: dict, args) -> int:
    _require("curve" in config, "scan verb needs a 'curve' section")
    _require("scan" in config, "scan verb needs a 'scan' section")
    formats = _formats(args, {"csv", "svg"})
    section = config["scan"]
    trace_fn, (lo, hi), (dom_lo, dom_hi), param, refs = _scan_spec(config["curve"], section)
    lo = section.get("lo", lo)
    hi = section.get("hi", hi)
    if not (dom_lo < lo < dom_hi and dom_lo < hi < dom_hi):
        error = MuTooLarge if param == "mu" else X0OutOfRange
        raise error(
            f"scan window [{_fmt(lo)}, {_fmt(hi)}] must lie inside the open interval "
            f"({dom_lo:.12g}, {dom_hi:.12g}) on which {section['family']!r} exists")
    n_grid = args.grid if args.grid is not None else section.get("n_grid", 500)
    tol = args.tol if args.tol is not None else 1e-9
    scan = fam.scan_family(
        trace_fn, lo, hi, parameter=param, n_grid=n_grid, class_tol=tol)

    out_dir, stem = _out_paths(config, args, "scan")
    written = []
    if "csv" in formats:
        csv_path = out_dir / f"{stem}.csv"
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["kind", param, "trace", "class"])
            for x, t, v in zip(scan.grid, scan.traces, scan.verdicts):
                writer.writerow(["grid", _fmt(x), _fmt(t), v.cls.value])
            for x in scan.thresholds:
                writer.writerow(["threshold", _fmt(x), _fmt(trace_fn(x)), "parabolic"])
            for ref, inside in refs:
                nearest = min(scan.thresholds, key=lambda x: abs(x - ref), default=math.nan)
                writer.writerow(["reference", _fmt(ref), _fmt(nearest if inside else math.nan),
                                 "in-interval" if inside else "out-of-interval"])
        written.append(csv_path)
    if "svg" in formats:
        svg_path = out_dir / f"{stem}.svg"
        _scan_svg(scan, svg_path)
        written.append(svg_path)
    print(
        f"{len(scan.thresholds)} threshold(s) on [{_fmt(lo)}, {_fmt(hi)}] -> "
        + ", ".join(str(p) for p in written)
    )
    return 0


def _scan_svg(scan, path: Path) -> None:
    """Stability diagram: class bands, clipped trace curve, threshold lines."""
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
        color = band_colors[scan.verdicts[i].cls.value]
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


def cmd_trace(config: dict, args) -> int:
    _require("curve" in config, "trace verb needs a 'curve' section")
    _require("trace" in config, "trace verb needs a 'trace' section")
    _formats(args, {"svg"})
    section = config["trace"]
    curve = make_curve(config["curve"])
    overlay = None
    if "family" in section:
        orbit, _, _ = _build_orbit(config["curve"], section)
        steps, mu = orbit.steps, orbit.mu
        if section.get("overlay_dual"):
            overlay = fam.dual_orbit(orbit)
    else:
        for name in ("s", "theta", "mu", "steps"):
            _require(name in section, f"raw trace needs {name!r} (or a 'family')")
        _require(not section.get("overlay_dual"), "overlay_dual needs a 4-periodic family")
        z = PhasePoint(s=section["s"], theta=section["theta"])
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
    out_dir, stem = _out_paths(config, args, "trace")
    svg_path = out_dir / f"{stem}.svg"
    _write_svg(root, svg_path)
    print(f"{len(steps)} step(s) -> {svg_path}")
    return 0


# --------------------------------------------------------------------------
# invariant suite
# --------------------------------------------------------------------------

def _sample_points(curve: Curve, mu: float, n: int, rng) -> list[tuple[PhasePoint, StepData]]:
    """Up to n random phase points with a well-conditioned first step, and that step."""
    length = curve.total_length()
    points = []
    attempts = 0
    while len(points) < n and attempts < 80 * n:
        attempts += 1
        z = PhasePoint(
            s=float(rng.uniform(0.0, length)),
            theta=float(rng.uniform(0.2, math.pi - 0.2)),
        )
        try:
            _, d = iterate(curve, mu, z, 1)[0]
        except BilliardError:
            continue
        if well_conditioned(d):
            points.append((z, d))
    return points


_CIRCLE = {"kind": "circle", "R": 1.0}
_ELLIPSE = {"kind": "ellipse", "a": 2.0, "b": 1.0}
_ELLIPSE_32 = {"kind": "ellipse", "a": 3.0, "b": 2.0}
_SE2 = {"kind": "superellipse", "k": 2}
_STADIUM = {"kind": "stadium", "side": 2.0, "R": 1.0}

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


def cmd_check(config: dict, args) -> int:
    section = config.get("check", {})
    det_tol = section.get("det_tol", 1e-9)
    jac_tol = section.get("jacobian_tol", 1e-5)
    trace_tol = section.get("trace_tol", 1e-6)
    n_points = section.get("n_points", 200)
    rng = np.random.default_rng(section.get("seed", 0))
    failures = []

    def report(name: str, ok: bool, detail: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append(name)

    for name, curve_cfg, mu in _CHECK_TABLES:
        curve = make_curve(curve_cfg)
        samples = [(z, jacobian_analytic(d)) for z, d in _sample_points(curve, mu, n_points, rng)]
        worst_det = 0.0
        for _, J in samples:
            worst_det = max(worst_det, abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0] - 1.0))
        report(
            f"det[{name}]", worst_det <= det_tol,
            f"worst |det-1| = {worst_det:.3e} over {len(samples)} points (tol {det_tol:g})")

        worst_jac = 0.0
        for z, A in samples[: max(10, n_points // 10)]:
            N = jacobian_numeric(curve, mu, z)
            worst_jac = max(
                worst_jac,
                float(np.max(np.abs(A - N)) / max(1.0, float(np.max(np.abs(A))))),
            )
        report(
            f"jacobian[{name}]", worst_jac <= jac_tol,
            f"worst rel dev = {worst_jac:.3e} (tol {jac_tol:g})")

    for name, curve_cfg, orbit_section in _CHECK_MEMBERS:
        orbit, closed, _ = _build_orbit(curve_cfg, orbit_section)
        S = compose(orbit.steps)
        composed = float(S[0, 0] + S[1, 1])
        dev = abs(closed - composed) / max(1.0, abs(closed))
        report(
            f"trace[{name}]", dev <= trace_tol,
            f"closed {closed:.9g} vs composed {composed:.9g} (rel dev {dev:.3e})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def cmd_rot(config: dict, args) -> int:
    _require("rot" in config, "rot verb needs a 'rot' section")
    _formats(args, {"csv"})
    section = config["rot"]
    a, b = section["a"], section["b"]
    _require(a > b, f"need a > b, got a={a}, b={b}")
    if "lambdas" in section:
        lambdas = [float(x) for x in section["lambdas"]]
    else:
        lo = section.get("lo", 1e-3 * b * b)
        hi = section.get("hi", a * a * (1.0 - 1e-3))
        n = args.grid if args.grid is not None else section.get("n", 100)
        _require(n >= 2, f"rotation grid needs at least 2 points, got {n}")
        _require(hi > lo, f"empty lambda interval [{lo}, {hi}]")
        lambdas = list(np.linspace(lo, hi, n))
    rows = rotation_table(a, b, lambdas)
    out_dir, stem = _out_paths(config, args, "rot")
    csv_path = out_dir / f"{stem}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "kind", "rot"])
        for lam, kind, rho in rows:
            writer.writerow([_fmt(lam), kind, _fmt(rho) if math.isfinite(rho) else "nan"])
    print(f"{len(rows)} row(s) -> {csv_path}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_DISPATCH = {
    "orbit": cmd_orbit,
    "scan": cmd_scan,
    "trace": cmd_trace,
    "check": cmd_check,
    "rot": cmd_rot,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbil",
        description="inverse magnetic billiards: orbits, stability scans, figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, blurb in (
        ("orbit", "construct a periodic orbit family member, write CSV"),
        ("scan", "sweep a family parameter, write CSV + stability SVG"),
        ("trace", "draw a trajectory as SVG"),
        ("check", "run the invariant suite"),
        ("rot", "tabulate caustic rotation numbers, write CSV"),
    ):
        p = sub.add_parser(verb, help=blurb)
        p.add_argument("--config", required=(verb != "check"), help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--tol", type=float, default=None,
                       help="classification tolerance override")
        p.add_argument("--grid", type=int, default=None,
                       help="grid size override for scans/tables")
        p.add_argument("--format", choices=("csv", "svg", "both"), default="both",
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
    error = next(_validator().iter_errors(config), None)
    if error is not None:
        raise ConfigValidation(error.message)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _DISPATCH[args.command](config, args)
    except BilliardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
