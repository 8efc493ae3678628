"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import importlib.util
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import mpmath
import numpy as np
import pytest

from imbilliards import cli, curves
from imbilliards.cli import main
from imbilliards.curves import ArclengthTable, Ellipse
from imbilliards.dynamics import PhasePoint, iterate
from imbilliards.errors import NoConvergence, NoReentry, TangentialContact
from imbilliards.families import FAMILIES
from imbilliards.stability import COMPOSED_TOL, compose

SVG_NS = "{http://www.w3.org/2000/svg}"
REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def svg_paths(path):
    return ET.parse(path).getroot().findall(f"{SVG_NS}path")


# --------------------------------------------------------------------------
# orbit verb
# --------------------------------------------------------------------------

def test_orbit_writes_structured_csv(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "orbit": {"family": "two-periodic-major", "mu": 0.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "orbit.csv")
    assert rows[0] == ["record", "index", "key", "value"]
    meta = {r[2]: r[3] for r in rows if r[0] == "meta"}
    assert meta["curve"] == "ellipse"
    assert meta["family"] == "two-periodic-major"
    assert meta["n"] == "2"
    assert float(meta["mu"]) == 0.5
    assert float(meta["residual"]) <= 1e-9
    assert float(meta["alpha"]) == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)

    points = [r for r in rows if r[0] == "point"]
    steps = [r for r in rows if r[0] == "step"]
    assert len(points) == 2 * 4  # s, theta, x, y per orbit point
    assert len(steps) == 2 * 6  # ell1, ell2, chi, theta0, theta1, theta2
    summary = {r[2]: r[3] for r in rows if r[0] == "summary"}
    assert float(summary["trace"]) == pytest.approx(194.0, rel=1e-9)
    assert summary["class"] == "hyperbolic"
    assert "trace" in capsys.readouterr().out


def test_orbit_output_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2},
        "orbit": {"family": "two-periodic-diag", "x0": -0.3},
    })
    main(["orbit", "--config", config, "--out", str(tmp_path / "one")])
    main(["orbit", "--config", config, "--out", str(tmp_path / "two")])
    first = (tmp_path / "one" / "orbit.csv").read_bytes()
    second = (tmp_path / "two" / "orbit.csv").read_bytes()
    assert first == second


def test_orbit_honours_output_stem(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": "two-periodic", "mu": 0.5},
        "output": {"stem": "bouncing"},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bouncing.csv").exists()


# --------------------------------------------------------------------------
# exit codes and error reporting
# --------------------------------------------------------------------------

def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": "two-periodic", "mu": 0.5},
        "surprise": True,
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigValidation:")


def test_schema_rejects_nonpositive_radius(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": -1.0},
        "orbit": {"family": "two-periodic", "mu": 0.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 2
    assert "ConfigValidation" in capsys.readouterr().err


def test_schema_rejects_superellipse_panels(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2, "panels": 2048},
        "orbit": {"family": "two-periodic-axis", "mu": 0.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 2
    assert "ConfigValidation" in capsys.readouterr().err


def test_missing_and_malformed_configs(tmp_path, capsys):
    assert main(["orbit", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["orbit", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# --------------------------------------------------------------------------
# config validation: what a config may hold
# --------------------------------------------------------------------------

_DROP = object()  # a value that removes its key

_CIRCLE_ORBIT = {"curve": {"kind": "circle", "R": 1.0},
                 "orbit": {"family": "two-periodic", "mu": 0.5}}
_ELLIPSE_ORBIT = {"curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
                  "orbit": {"family": "two-periodic-major", "mu": 0.5}}
_SE2_ORBIT = {"curve": {"kind": "superellipse", "k": 2},
              "orbit": {"family": "two-periodic-axis", "mu": 0.5}}
_STADIUM_ORBIT = {"curve": {"kind": "stadium", "side": 2.0, "R": 1.0},
                  "orbit": {"family": "two-periodic-sides", "mu": 0.4}}
_ROTATION_ORBIT = {"curve": {"kind": "circle", "R": 1.0},
                   "orbit": {"family": "three-periodic", "mu": 0.4, "rotation": "1/3"}}
_SCAN = {"curve": {"kind": "superellipse", "k": 2},
         "scan": {"family": "four-periodic-axis", "rotation": "1/4", "n_grid": 50}}
_RAW_TRACE = {"curve": {"kind": "circle", "R": 1.0},
              "trace": {"mu": 0.35, "s": 0.3, "theta": 1.1, "steps": 6}}
_FAMILY_TRACE = {"curve": {"kind": "ellipse", "a": 3.0, "b": 2.0},
                 "trace": {"family": "four-periodic", "x0": 2.7, "rotation": "1/4"}}
_CHECK = {"check": {"n_points": 15, "seed": 3}}
_ROT = {"rot": {"a": 2.0, "b": 1.0, "n": 4}}
_ROT_LAMBDAS = {"rot": {"a": 2.0, "b": 1.0, "lambdas": [0.5, 2.0]}}
_STEM = {**_CIRCLE_ORBIT, "output": {"stem": "bouncing"}}

#: JSON NaN, Infinity and -Infinity (as Python reads them), which no number
#: key takes
_NON_FINITE = [math.nan, math.inf, -math.inf]

#: (valid config, path to a key or list item, values that make it invalid):
#: one row per rule a config obeys, each value refused before any output
_REFUSED = [
    (_CIRCLE_ORBIT, (), [[], "orbit", None]),
    (_CIRCLE_ORBIT, ("surprise",), [True]),
    (_CIRCLE_ORBIT, ("curve",), ["circle", []]),
    (_CIRCLE_ORBIT, ("curve", "kind"), [_DROP, "square", "Circle", 1, None]),
    (_CIRCLE_ORBIT, ("curve", "R"), [_DROP, 0.0, -1.0, True, "1", None, [1.0], *_NON_FINITE]),
    (_CIRCLE_ORBIT, ("curve", "a"), [2.0]),
    (_ELLIPSE_ORBIT, ("curve", "a"), [_DROP, 0.0, *_NON_FINITE]),
    (_ELLIPSE_ORBIT, ("curve", "b"), [_DROP, -1.0, False, *_NON_FINITE]),
    (_ELLIPSE_ORBIT, ("curve", "R"), [1.0]),
    (_SE2_ORBIT, ("curve", "k"), [_DROP, 1, 0, -2, 2.5, True, "2"]),
    (_SE2_ORBIT, ("curve", "panels"), [2048]),
    (_STADIUM_ORBIT, ("curve", "side"), [_DROP, 0.0, *_NON_FINITE]),
    # -inf is the circle's: a second curve/R=-Infinity would rename that test
    (_STADIUM_ORBIT, ("curve", "R"), [_DROP, -1.0, "1", math.nan, math.inf]),
    (_CIRCLE_ORBIT, ("orbit",), [[], "two-periodic"]),
    (_CIRCLE_ORBIT, ("orbit", "surprise"), [1]),
    (_CIRCLE_ORBIT, ("orbit", "family"),
     [_DROP, "two-periodc", "", 3, None, ["two-periodic"], "two-periodic-sides",
      "four-periodic-axis"]),
    (_CIRCLE_ORBIT, ("orbit", "mu"), [0.0, -0.5, True, "0.5", *_NON_FINITE]),
    (_CIRCLE_ORBIT, ("orbit", "x0"), ["0.1", False, *_NON_FINITE]),
    (_ROTATION_ORBIT, ("orbit", "rotation"), ["", "1/0", "0/0", "1/5", "2/6", "1/4", 0.25, None]),
    (_SCAN, ("scan",), [[]]),
    (_SCAN, ("scan", "surprise"), [1]),
    (_SCAN, ("scan", "mu"), [0.5]),
    (_SCAN, ("scan", "family"), [_DROP, "four-periodc", 4, "four-periodic"]),
    (_SCAN, ("scan", "rotation"), ["", "1/0", "1/3", 0.25]),
    (_SCAN, ("scan", "n_grid"), [-1, 1.5, True, "50", None]),
    (_SCAN, ("scan", "lo"), ["0.1", False, *_NON_FINITE]),
    (_SCAN, ("scan", "hi"), ["0.9", None, *_NON_FINITE]),
    (_RAW_TRACE, ("trace",), ["raw"]),
    (_RAW_TRACE, ("trace", "surprise"), [1]),
    (_RAW_TRACE, ("trace", "mu"), [0.0, -1.0, True, *_NON_FINITE]),
    (_RAW_TRACE, ("trace", "s"), ["0.3", None, *_NON_FINITE]),
    (_RAW_TRACE, ("trace", "theta"), [True, "1.1", *_NON_FINITE]),
    (_RAW_TRACE, ("trace", "steps"), [0, -1, 1.5, True, "6"]),
    (_RAW_TRACE, ("trace", "family"), [7]),
    (_FAMILY_TRACE, ("trace", "overlay_dual"), [1, "true", None]),
    (_FAMILY_TRACE, ("trace", "rotation"), ["", "1/0", "1/3"]),
    (_FAMILY_TRACE, ("trace", "x0"), ["2.7", *_NON_FINITE]),
    (_FAMILY_TRACE, ("trace", "family"), ["four-periodic-axis", "fourperiodic"]),
    (_CHECK, ("check",), [[], 15]),
    (_CHECK, ("check", "surprise"), [1]),
    (_CHECK, ("check", "n_points"), [0, -3, 1.5, True]),
    (_CHECK, ("check", "seed"), [-1, 0.5, True, "3"]),
    (_ROT, ("rot",), [[2.0, 1.0]]),
    (_ROT, ("rot", "surprise"), [1]),
    (_ROT, ("rot", "a"), [_DROP, 0.0, -2.0, "2", *_NON_FINITE]),
    (_ROT, ("rot", "b"), [_DROP, True, *_NON_FINITE]),
    (_ROT, ("rot", "lambdas"), [[], "0.5", 0.5, {"0": 0.5}]),
    (_ROT_LAMBDAS, ("rot", "lambdas", 1), ["x", True, None, [2.0], *_NON_FINITE]),
    (_ROT, ("rot", "lo"), ["0.1", False, *_NON_FINITE]),
    (_ROT, ("rot", "hi"), [None, *_NON_FINITE]),
    (_ROT, ("rot", "n"), [-1, 0, 1, 1.5, True, "4"]),
    (_STEM, ("output",), ["bouncing"]),
    (_STEM, ("output", "surprise"), [1]),
    (_STEM, ("output", "stem"), ["", "a/b", "a b", "../up", "é", 3, None, True]),
]


def _edited(config, path, value):
    """A copy of ``config`` with the value at ``path`` set to ``value``, or
    its key removed where ``value`` is ``_DROP``."""
    if not path:
        return value
    config = copy.deepcopy(config)
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, config)
    if value is _DROP:
        del node[key]
    else:
        node[key] = value
    return config


@pytest.mark.parametrize("base, path, value", [
    pytest.param(base, path, value, id="/".join(map(str, path or ["config"])) + "="
                 + ("missing" if value is _DROP else json.dumps(value)))
    for base, path, values in _REFUSED for value in values
])
def test_a_config_that_breaks_a_rule_exits_2_naming_the_key(tmp_path, capsys, base, path, value):
    """Every value a config may not hold, and every key it may not lack or
    have, exits 2 before any output is written, with a message that names the
    key, the value, or the object that lacks the key."""
    config = _edited(base, path, value)
    verb = next(name for name in base if name not in ("curve", "output"))
    out = tmp_path / "out"
    flags = ["--out", str(out)] if verb != "check" else []
    assert main([verb, "--config", write_config(tmp_path, config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: \w+: [^\n]*\n", captured.err)
    holder = functools.reduce(operator.getitem, path[:-1], config)
    named = [repr(path[-1])] if path and isinstance(path[-1], str) else []
    named += [repr(value)] if value is not _DROP else [repr(holder)]
    assert any(name in captured.err for name in named), (named, captured.err)
    assert not out.exists()


@pytest.mark.parametrize("config, where, key", [
    ({"curve": {"kind": "superellipse", "k": 2.0},
      "orbit": {"family": "two-periodic-axis", "mu": 0.5}}, "curve", "k"),
    ({"curve": {"kind": "superellipse", "k": 2},
      "scan": {"family": "two-periodic-axis", "n_grid": 16.0}}, "scan", "n_grid"),
    ({"curve": {"kind": "circle", "R": 1.0},
      "trace": {"mu": 0.35, "s": 0.3, "theta": 1.1, "steps": 2.0}}, "trace", "steps"),
    ({"check": {"n_points": 3.0}}, "check", "n_points"),
    ({"check": {"n_points": 3, "seed": 1.0}}, "check", "seed"),
    ({"rot": {"a": 2.0, "b": 1.0, "n": 5.0}}, "rot", "n"),
], ids=["k", "n_grid", "steps", "n_points", "seed", "n"])
def test_an_integer_key_written_as_a_float_exits_2(tmp_path, capsys, config, where, key):
    """Each integer key takes a JSON integer only: ``16.0`` is refused with a
    message that names the key, not passed on to end in a ``TypeError``."""
    verb = next(name for name in config if name != "curve")
    out = tmp_path / "out"
    flags = ["--out", str(out)] if verb != "check" else []
    assert main([verb, "--config", write_config(tmp_path, config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ConfigValidation: {where}: {key!r} must be an integer >= ")
    assert err.endswith(f", got {config[where][key]!r}\n")
    assert not out.exists()


def test_a_stem_with_a_trailing_newline_exits_2_and_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path, {**_CIRCLE_ORBIT, "output": {"stem": "abc\n"}})
    out = tmp_path / "out"
    assert main(["orbit", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigValidation: output: 'stem' must be ")
    assert not out.exists()


def test_the_config_curve_kinds_are_the_curve_kinds():
    assert list(cli._CURVES) == list(curves._KINDS)


def _readme_configs():
    """Each JSON block of the README, a curve taken as a config's ``curve``."""
    text = (REPO / "README.md").read_text()
    blocks = [block.removeprefix("json\n") for block in text.split("```")[1::2]
              if block.startswith("json\n")]
    return ([{"curve": json.loads(line)} for line in blocks[0].splitlines()]
            + [json.loads(block) for block in blocks[1:]])


def test_the_benchmark_and_readme_configs_are_accepted(tmp_path):
    configs = [json.loads(path.read_text())
               for path in sorted((REPO / "perfbench" / "configs").glob("*.json"))]
    configs += _readme_configs()
    assert len(configs) == 4 + 4 + 5
    for config in configs:
        assert cli._load_config(write_config(tmp_path, config)) == config


def test_input_error_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": "two-periodic", "mu": 1.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: MuTooLarge:")


def test_geometric_error_exits_3(tmp_path, capsys):
    # major-axis bouncing orbit whose Larmor semicircles dip into the table
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "orbit": {"family": "two-periodic-major", "mu": 0.85},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: InfeasibleStadium:")


def test_convergence_error_exits_4(tmp_path, capsys, monkeypatch):
    def stall(*args, **kwargs):
        raise NoConvergence("stalled for the exit-code test")

    monkeypatch.setattr(cli.fam, "two_periodic_circle", stall)
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": "two-periodic", "mu": 0.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("error: NoConvergence:")


def test_unknown_family_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": "five-periodic", "mu": 0.5},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 2
    assert "no family" in capsys.readouterr().err


#: the flags each verb reads, and a value for each flag
_VERB_FLAGS = {
    "orbit": {"--config", "--out"},
    "scan": {"--config", "--out", "--format"},
    "trace": {"--config", "--out"},
    "check": {"--config"},
    "rot": {"--config", "--out"},
}
_FLAG_VALUES = {"--config": "c.json", "--out": "out", "--format": "csv",
                "--tol": "1e-3", "--grid": "300"}


def _parser_flags():
    """``{verb: {flag: required}}`` of the parser's subcommands, ``--help`` aside."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {verb: {flag: action.required for action in p._actions
                   for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
            for verb, p in sub.choices.items()}


def test_each_verb_takes_only_the_flags_it_reads():
    flags = _parser_flags()
    assert {verb: set(f) for verb, f in flags.items()} == _VERB_FLAGS
    assert [verb for verb, f in flags.items() if not f["--config"]] == ["check"]


@pytest.mark.parametrize("verb, flag", [
    (verb, flag) for verb, taken in _VERB_FLAGS.items() for flag in _FLAG_VALUES if flag not in taken
])
def test_a_flag_the_verb_does_not_read_is_a_usage_error(capsys, verb, flag):
    """15 (verb, flag) pairs, e.g. ``check --tol 1e-3``, ``orbit --format svg``
    and ``scan --grid 300``: argparse refuses them before any config is read."""
    with pytest.raises(SystemExit) as info:
        main([verb, "--config", "c.json", flag, _FLAG_VALUES[flag]])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("chosen, written", [
    ("csv", {"scan.csv"}), ("svg", {"scan.svg"}), ("both", {"scan.csv", "scan.svg"}),
])
def test_scan_format_picks_the_artifacts(tmp_path, capsys, chosen, written):
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2},
        "scan": {"family": "two-periodic-axis", "n_grid": 50},
    })
    out = tmp_path / "out"
    assert main(["scan", "--config", config, "--out", str(out), "--format", chosen]) == 0
    assert {p.name for p in out.iterdir()} == written
    assert capsys.readouterr().out.endswith(", ".join(str(out / n) for n in sorted(written)) + "\n")


# --------------------------------------------------------------------------
# scan verb
# --------------------------------------------------------------------------

def test_scan_locates_axis_thresholds(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2},
        "scan": {"family": "two-periodic-axis", "n_grid": 300},
    })
    code = main(["scan", "--config", config, "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path / "scan.csv")
    assert rows[0] == ["kind", "mu", "trace", "class"]
    grid = [r for r in rows if r[0] == "grid"]
    assert len(grid) == 300
    assert {r[3] for r in grid} <= {"elliptic", "parabolic", "hyperbolic"}

    thresholds = sorted(float(r[1]) for r in rows if r[0] == "threshold")
    mu_star = (2.0 ** 2.0 + 1.0) ** -0.25
    mu_dstar = 2.0 ** -0.25
    assert len(thresholds) == 2
    assert thresholds[0] == pytest.approx(mu_star, abs=1e-7)
    assert thresholds[1] == pytest.approx(mu_dstar, abs=1e-7)

    references = [r for r in rows if r[0] == "reference"]
    assert [r[3] for r in references] == ["in-interval", "in-interval"]
    for ref in references:
        assert float(ref[1]) == pytest.approx(float(ref[2]), abs=1e-7)

    svg = ET.parse(tmp_path / "scan.svg").getroot()
    assert svg.get("viewBox") == "0 0 1000 1000"
    assert len(svg.findall(f"{SVG_NS}path")) >= 7  # bands + curve + lines + axis


def test_scan_reports_out_of_interval_reference(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 3.0, "b": 2.0},
        "scan": {"family": "four-periodic", "n_grid": 400},
    })
    code = main(["scan", "--config", config, "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    assert not (tmp_path / "scan.svg").exists()
    rows = read_rows(tmp_path / "scan.csv")
    references = [r for r in rows if r[0] == "reference"]
    assert len(references) == 3
    flags = [r[3] for r in references]
    assert flags == ["out-of-interval", "in-interval", "in-interval"]
    assert references[0][2] == "nan"
    for ref in references[1:]:
        assert float(ref[1]) == pytest.approx(float(ref[2]), abs=1e-5)


def test_scan_traces_match_composed_traces_of_the_check_members():
    # the inline closed forms of every scannable family against orbit construction
    covered = set()
    for name, curve_cfg, section in cli._CHECK_MEMBERS:
        row, rotation = cli._family(curve_cfg, section)
        if row.scan is None:
            continue
        trace_fn, _, _, _ = row.scan(curve_cfg, rotation)
        covered.add((curve_cfg["kind"], section["family"], section.get("rotation")))
        orbit, _, _ = cli._member(curve_cfg, section)
        S = compose(orbit.steps)
        composed = float(S[0, 0] + S[1, 1])
        scanned = trace_fn(section[row.param])
        assert abs(scanned - composed) <= COMPOSED_TOL * max(1.0, abs(composed)), name
    assert covered == {
        ("superellipse", "two-periodic-axis", None),
        ("superellipse", "two-periodic-diag", None),
        ("ellipse", "four-periodic", "1/4"),
        ("ellipse", "four-periodic", "3/4"),
        ("superellipse", "four-periodic-axis", "1/4"),
        ("superellipse", "four-periodic-axis", "3/4"),
        ("superellipse", "four-periodic-diag", "1/4"),
        ("superellipse", "four-periodic-diag", "3/4"),
    }


def test_scan_rejects_inverted_interval(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2},
        "scan": {"family": "two-periodic-axis", "lo": 0.9, "hi": 0.1},
    })
    assert main(["scan", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError:")


_SE2 = {"kind": "superellipse", "k": 2}


@pytest.mark.parametrize("curve, scan, tag", [
    (_SE2, {"family": "two-periodic-axis", "lo": 0.0}, "MuTooLarge"),
    (_SE2, {"family": "two-periodic-axis", "hi": 1.3}, "MuTooLarge"),
    (_SE2, {"family": "two-periodic-diag", "lo": -1.2}, "X0OutOfRange"),
    ({"kind": "ellipse", "a": 3.0, "b": 2.0}, {"family": "four-periodic", "lo": 0.5},
     "X0OutOfRange"),
    (_SE2, {"family": "four-periodic-diag", "rotation": "1/4", "hi": 0.99}, "X0OutOfRange"),
])
def test_scan_rejects_windows_outside_the_family(tmp_path, capsys, recwarn, curve, scan, tag):
    # the family's open interval is checked once, before any trace is evaluated
    config = write_config(tmp_path, {"curve": curve, "scan": scan})
    assert main(["scan", "--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tag}: ") and "open interval (" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("scan.*"))


_ELLIPSE_32 = {"kind": "ellipse", "a": 3.0, "b": 2.0}


@pytest.mark.parametrize("verb, curve, section, message", [
    ("scan", _SE2, {"family": "four-periodic-diag", "rotation": "1/3"},
     "rotation must be one of 1/4, 3/4, got '1/3'"),
    ("scan", _ELLIPSE_32, {"family": "four-periodic", "rotation": "2/3"},
     "rotation must be one of 1/4, 3/4, got '2/3'"),
    ("scan", _SE2, {"family": "two-periodic-axis", "rotation": "1/3"},
     "family 'two-periodic-axis' has no rotation to choose, got '1/3'"),
    ("orbit", _ELLIPSE_32, {"family": "two-periodic-major", "mu": 0.5, "rotation": "1/4", "x0": 3},
     "family 'two-periodic-major' has no rotation to choose, got '1/4'"),
    ("orbit", _ELLIPSE_32, {"family": "two-periodic-major", "mu": 0.5, "x0": 3},
     "family 'two-periodic-major' on 'ellipse' takes 'mu', not 'x0'"),
    ("orbit", {"kind": "circle", "R": 1.0},
     {"family": "three-periodic", "mu": 0.4, "rotation": "1/4"},
     "rotation must be one of 1/3, 2/3, got '1/4'"),
    ("trace", _SE2, {"family": "two-periodic-axis", "mu": 0.5, "rotation": "3/4"},
     "family 'two-periodic-axis' has no rotation to choose, got '3/4'"),
    ("trace", _SE2, {"family": "four-periodic-diag", "x0": 0.9, "mu": 0.3},
     "family 'four-periodic-diag' on 'superellipse' takes 'x0', not 'mu'"),
    ("orbit", {"kind": "circle", "R": 1.0}, {"family": "two-periodic-major", "mu": 0.5},
     "no family 'two-periodic-major' for curve kind 'circle'; "
     "its families are two-periodic, three-periodic, four-periodic"),
    ("scan", _ELLIPSE_32, {"family": "two-periodic-major"},
     "no scannable family 'two-periodic-major' for curve kind 'ellipse'; "
     "its scannable families are four-periodic"),
    ("scan", {"kind": "circle", "R": 1.0}, {"family": "two-periodic"},
     "no scannable family 'two-periodic' for curve kind 'circle'; "
     "its scannable families are none"),
    ("trace", {"kind": "ellipse", "a": 2.0, "b": 1.0},
     {"mu": 0.3, "s": 1.0, "theta": 1.2, "steps": 10, "rotation": "1/4", "x0": 3},
     "a raw trace takes no 'x0', 'rotation'"),
    ("trace", {"kind": "ellipse", "a": 2.0, "b": 1.0},
     {"family": "two-periodic-major", "mu": 0.3, "s": 1.0, "theta": 1.2, "steps": 10},
     "a family trace takes no 's', 'theta', 'steps'"),
    ("trace", {"kind": "circle", "R": 1.0},
     {"mu": 0.3, "s": 1.0, "theta": 1.2, "steps": 10, "overlay_dual": True},
     "a raw trace takes no 'overlay_dual'"),
    *(("trace", {"kind": "circle", "R": 1.0},
       {"mu": 0.4, "s": 0.3, "theta": theta, "steps": 2},
       f"raw trace 'theta' must lie in (0, pi), got {theta!r}")
      for theta in (-1.0, 0.0, math.pi, 4.0)),
])
def test_verbs_reject_what_the_family_does_not_take(
        tmp_path, capsys, verb, curve, section, message):
    """``orbit``, ``trace`` and ``scan`` share one family, rotation and
    parameter policy, ``trace`` reads every key it is given, and a raw launch
    angle must lie in the phase annulus."""
    config = write_config(tmp_path, {"curve": curve, verb: section})
    assert main([verb, "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert not list(tmp_path.glob(f"{verb}.*"))


@pytest.mark.parametrize("verb, section, key, names", [
    ("orbit", {"family": "four-periodc", "x0": 2.7}, "family", None),
    ("scan", {"family": "four-periodc"}, "family", None),
    ("trace", {"family": "four-periodc", "x0": 2.7}, "family", None),
    ("orbit", {"family": "four-periodic", "x0": 2.7, "rotation": "1/5"}, "rotation",
     ["1/4", "3/4"]),
])
def test_a_misspelt_name_is_a_schema_error_that_lists_the_valid_names(
        tmp_path, capsys, verb, section, key, names):
    """A misspelt family or rotation exits 2 with a message that names it and
    lists exactly the names the curve kind (for ``scan``, the scannable ones)
    or the family has, as ``families.FAMILIES`` holds them."""
    config = write_config(tmp_path, {"curve": _ELLIPSE_32, verb: section})
    assert main([verb, "--config", config, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and f" {section[key]!r}" in err
    listed = re.search(r"(?:families are|one of) (.*?)(?:, got .*)?$", err.rstrip("\n")).group(1)
    assert listed.split(", ") == (names or [
        family for (kind, family), row in FAMILIES.items()
        if kind == "ellipse" and (row.scan or verb != "scan")])
    assert not list(tmp_path.glob(f"{verb}.*"))


def test_check_members_cover_every_family_and_rotation_of_the_table():
    members = {(c["kind"], s["family"], s.get("rotation")) for _, c, s in cli._CHECK_MEMBERS}
    table = {(kind, family, str(r) if r else None)
             for (kind, family), row in FAMILIES.items() for r in row.rotations or (None,)}
    assert len(cli._CHECK_MEMBERS) == len(members) == 17
    assert members == table


def test_the_readme_lists_the_families_of_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = readme.split("Families by curve kind", 1)[1].split("\n\n")[1]
    listed = {}
    for bullet in bullets.split("\n* "):
        kind, names = bullet.removeprefix("* ").split(" — ", 1)
        listed[kind] = set(re.findall(r"`([a-z]+-periodic[a-z-]*)`", names))
    table = {}
    for kind, family in FAMILIES:
        table.setdefault(kind, set()).add(family)
    assert listed == table


def test_the_readme_names_the_flags_of_the_parser():
    """The CLI synopsis names each verb's flags, bracketed where optional, and
    the verb table lists the same flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    synopsis = section.split("```\n", 2)[1]
    written = {}
    for line in synopsis.splitlines():
        verb, rest = re.fullmatch(r"imbil (\w+) +(.*)", line).groups()
        written[verb] = {flag: not bracket for bracket, flag in re.findall(r"(\[?)(--[a-z]+)", rest)}
    tabled = {}
    for verb, flags in re.findall(r"^\| `(\w+)` +\| ([^|]*)\|", section, re.MULTILINE):
        tabled[verb] = set(re.findall(r"`(--[a-z]+)`", flags))
    parsed = _parser_flags()
    assert written == parsed
    assert tabled == {verb: set(flags) for verb, flags in parsed.items()}


def test_the_readme_quick_start_prints_what_it_shows(capsys):
    """The README's Python quick start runs and prints the verdict and the
    rotation number its comments show; its det J is 1 to rounding."""
    section = (REPO / "README.md").read_text().split("## Quick start (Python)", 1)[1]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    verdict, rho = capsys.readouterr().out.splitlines()
    assert verdict == "StabilityClass.HYPERBOLIC"
    assert abs(float(rho) - 0.38382791586982007) <= 1e-12
    assert abs(np.linalg.det(namespace["J"]) - 1.0) <= 1e-12


def test_the_readme_orbit_example_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    """The README's ``orbit`` config, run as its ``$ imbil orbit`` line says,
    prints the line the README shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `orbit`", 1)[1]
    config, shown = re.search(r"```json\n(.*?)```\n\n```\n\$ imbil (.*?)```", section, re.S).groups()
    command, *printed = shown.splitlines()
    args = command.split()
    (tmp_path / args[args.index("--config") + 1]).write_text(config)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == printed


@pytest.mark.parametrize("curve, family, rotations", [
    (_SE2, "four-periodic-axis", (None, "1/4")),
    (_SE2, "four-periodic-diag", (None, "1/4")),
    (_ELLIPSE_32, "four-periodic", (None, "1/4", "3/4")),
])
def test_scan_bytes_do_not_depend_on_how_the_rotation_is_given(tmp_path, curve, family, rotations):
    """A 4-periodic scan without a rotation is the rotation-1/4 scan, byte for
    byte; the ellipse scan spans both branches and is the same for either."""
    outputs = []
    for i, rotation in enumerate(rotations):
        scan = {"family": family} if rotation is None else {"family": family, "rotation": rotation}
        config = write_config(tmp_path, {"curve": curve, "scan": scan}, name=f"{i}.json")
        assert main(["scan", "--config", config, "--out", str(tmp_path / str(i))]) == 0
        outputs.append([(tmp_path / str(i) / name).read_bytes() for name in ("scan.csv", "scan.svg")])
    assert all(out == outputs[0] for out in outputs[1:])


# --------------------------------------------------------------------------
# trace verb
# --------------------------------------------------------------------------

def test_trace_single_step_has_three_primitives(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "trace": {"s": 0.3, "theta": 1.0, "mu": 0.4, "steps": 1},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0
    paths = svg_paths(tmp_path / "trace.svg")
    assert len(paths) == 3  # boundary outline + one chord + one Larmor arc
    dashed = [p for p in paths if p.get("stroke-dasharray")]
    assert len(dashed) == 1


def test_trace_step_count_scales_primitives(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "trace": {"s": 0.1, "theta": 0.9, "mu": 0.25, "steps": 6},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(svg_paths(tmp_path / "trace.svg")) == 1 + 2 * 6


def test_trace_family_with_dual_overlay(tmp_path):
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 3.0, "b": 2.0},
        "trace": {
            "family": "four-periodic", "x0": 2.7, "rotation": "1/4",
            "overlay_dual": True,
        },
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0
    # boundary + 4 chords + 4 arcs for each of the orbit and its dual
    assert len(svg_paths(tmp_path / "trace.svg")) == 1 + 8 + 8


def test_trace_geometry_reads_the_step_frames(monkeypatch):
    """Drawing a step re-resolves none of its boundary points: the chord
    ends and the exit tangent come from the frames the step carries."""
    curve = Ellipse(2.0, 1.0)
    steps = [d for _, d in iterate(curve, 0.3, PhasePoint(1.0, 1.2), 200)]
    calls = []
    t_of_s = ArclengthTable.t_of_s

    def counted(self, s):
        calls.append(s)
        return t_of_s(self, s)

    monkeypatch.setattr(ArclengthTable, "t_of_s", counted)
    geos = [cli._step_geometry(d) for d in steps]
    assert calls == []
    for geo, d in zip(geos, steps):
        assert geo["p0"] is d.frames[0].point and geo["p2"] is d.frames[2].point
        assert np.linalg.norm(geo["p1"] - curve.frame_at(d.s1).point) < 1e-12
        # the Larmor circle runs through the exit and the re-entry point
        assert abs(np.linalg.norm(geo["p2"] - geo["center"]) - d.mu) < 1e-9


def test_trace_samples_the_boundary_once(tmp_path, monkeypatch):
    """One trace inverts the arclength chart once for its steps, for the
    orbit's first launch point, and once for each of the 720 boundary points
    it draws, which also fit the frame, and no more."""
    calls = []
    t_of_s = ArclengthTable.t_of_s

    def counted(self, s):
        calls.append(s)
        return t_of_s(self, s)

    monkeypatch.setattr(ArclengthTable, "t_of_s", counted)
    iterate(Ellipse(2.0, 1.0), 0.3, PhasePoint(1.0, 1.2), 40)
    assert len(calls) == 1
    calls.clear()
    config = write_config(tmp_path, {
        "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "trace": {"mu": 0.3, "s": 1.0, "theta": 1.2, "steps": 40},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1 + 720


def test_trace_raw_requires_all_parameters(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "trace": {"s": 0.3, "theta": 1.0, "steps": 2},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 2
    assert "'mu'" in capsys.readouterr().err


def test_trace_overlay_needs_a_family(tmp_path, capsys):
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "trace": {"s": 0.3, "theta": 1.0, "mu": 0.4, "steps": 2,
                  "overlay_dual": True},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 2
    assert "overlay_dual" in capsys.readouterr().err


def trace_in_subprocess(tmp_path, curve, s=0.3):
    """``imbil trace`` of a raw two-step launch from ``s`` on ``curve``, run in
    a subprocess under a timeout, so a launch that never returns fails the
    test instead of hanging the suite."""
    config = write_config(tmp_path, {
        "curve": curve, "trace": {"s": s, "theta": 1.0, "mu": 0.3, "steps": 2},
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "imbilliards", "trace", "--config", config, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_raw_trace_needs_a_finite_arclength(tmp_path, s):
    """A raw ``s`` of NaN or Infinity (JSON as Python reads it) exits 2 with
    one message."""
    done = trace_in_subprocess(tmp_path, {"kind": "ellipse", "a": 2.0, "b": 1.0}, s)
    assert done.returncode == 2
    assert done.stderr == f"error: ConfigValidation: trace: 's' must be a finite number, got {s!r}\n"
    assert not list(tmp_path.glob("trace.*"))


#: each size key of each curve kind, with finite values for the other keys
SIZES = [("circle", "R", {}), ("ellipse", "a", {"b": 1.0}), ("ellipse", "b", {"a": 2.0}),
         ("stadium", "side", {"R": 1.0}), ("stadium", "R", {"side": 2.0})]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("kind, key, others", SIZES, ids=[f"{k}-{key}" for k, key, _ in SIZES])
def test_a_non_finite_table_size_exits_2(tmp_path, kind, key, others, value):
    """A table size of Infinity or NaN (JSON as Python reads it) exits 2 with
    one message naming the value.  Circles, stadiums and an infinite ellipse
    ``a`` used to be accepted, and the chord exit's Newton loop never ended."""
    done = trace_in_subprocess(tmp_path, {"kind": kind, key: value, **others})
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"error: ConfigValidation: curve: {key!r} must be a positive finite "
                           f"number, got {value!r}\n")
    assert not list(tmp_path.glob("trace.*"))


@pytest.mark.parametrize("size", [1e200, 1e300, 1e-160, 1e-200])
@pytest.mark.parametrize("kind, key, others", SIZES, ids=[f"{k}-{key}" for k, key, _ in SIZES])
def test_a_huge_table_ends_without_a_traceback(tmp_path, kind, key, others, size):
    """A size whose square is below the normal float range (1e-160 squares
    to a subnormal, whose reciprocal, which the circle's defining function
    multiplies by, is inf), or a table whose chord search would square
    coordinates to inf, is refused before the table is built:
    the trace exits 2 with one ``error:`` line that names the size, and
    numpy prints no ``RuntimeWarning``.  Squaring a size above about 1.3e154
    with ``**`` used to end in a traceback, and with ``*`` in a wrong
    geometric verdict after overflow warnings."""
    done = trace_in_subprocess(tmp_path, {"kind": kind, key: size, **others})
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    assert len(re.findall(r"(?m)^error: \w+: ", done.stderr)) == 1, done.stderr
    assert repr(size) in done.stderr


def test_trace_never_prints_a_traceback(tmp_path, capsys):
    """Raw traces launched on, past and near the edge of the domain exit with
    0, 2, 3 or 4 and write nothing or one ``error: <Tag>: ...`` line to
    stderr; an uncaught exception would fail the test with its traceback.
    The last case re-enters past the tangent on its first step.  The two
    ellipses far from size 1 ended in an ``OverflowError`` and a
    ``ZeroDivisionError`` when the curvature cubed a size."""
    tables = ({"kind": "circle", "R": 1.0}, {"kind": "ellipse", "a": 2.0, "b": 1.0},
              {"kind": "superellipse", "k": 3}, {"kind": "stadium", "side": 2.0, "R": 1.0},
              {"kind": "ellipse", "a": 1e104, "b": 1e103},
              {"kind": "ellipse", "a": 2e-120, "b": 1e-120})
    thetas = (-1.0, 0.0, 1e-13, 1e-9, 1e-6, math.pi - 1e-9, math.pi, 4.0)
    cases = [(table, 0.3, theta, mu)
             for table, theta, mu in itertools.product(tables, thetas, (1e-6, 0.3, 5.0))]
    cases.append((tables[1], -5.0, 1e-6, 1e-6))
    for table, s, theta, mu in cases:
        config = write_config(tmp_path, {
            "curve": table, "trace": {"s": s, "theta": theta, "mu": mu, "steps": 2},
        })
        code = main(["trace", "--config", config, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (table, s, theta, mu, err)
        assert err == "" or re.fullmatch(r"error: \w+: [^\n]*\n", err), (table, s, theta, mu, err)


@pytest.mark.parametrize("R, mu, s", [(1.0, 3e7, 0.1), (1.0, 1e8, 0.1),
                                      (1e16, 0.3, 1e15), (1e18, 0.3, 1e17)])
def test_the_circle_steps_at_any_larmor_radius(tmp_path, capsys, R, mu, s):
    """The circle steps as its exact rotation, so a Larmor radius far from
    the table's size leaves nothing to resolve: each trace exits 0.  The
    sampled sweep missed the re-entry of the first, second and fourth
    (``NoReentry``) and found the third's arc inside the table at its first
    sample (``TangentialContact``)."""
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": R},
        "trace": {"s": s, "theta": 1.2, "mu": mu, "steps": 2},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0, capsys.readouterr().err


def test_a_missed_reentry_states_what_the_sweep_saw(tmp_path, capsys):
    """A Larmor radius far from the table's size can leave the re-entry
    between the sweep's samples or past its last one, as on superellipse
    k = 2 at mu = 3e7.  The trace exits 3 with ``NoReentry``, and the
    message states what the sweep saw and mu / ``diameter_bound()``; it
    used to call the table not convex."""
    config = write_config(tmp_path, {
        "curve": {"kind": "superellipse", "k": 2},
        "trace": {"s": 0.1, "theta": 1.2, "mu": 3e7, "steps": 2},
    })
    assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NoReentry: no entering sign change among the 512 samples "
                          "of the Larmor sweep on [1e-07, 2 pi - 1e-07]"), err
    assert "mu / diameter bound = 1.261e+07)" in err
    assert "convex" not in err


@pytest.mark.parametrize("size", [1e-40, 1e20, 1e40])
def test_the_ellipse_four_periodic_orbit_runs_far_from_size_one(tmp_path, size):
    """``orbit four-periodic`` (rotation 1/4) on Ellipse(3s, 2s) at x0 = 2.7s
    reads the trace of s = 1.  Its closed form raised the sizes to degree 16
    and ended in a ``ZeroDivisionError`` traceback at s = 1e-40, a nan trace
    (exit 2) at 1e20 and an ``OverflowError`` traceback at 1e40."""
    def trace_at(s, stem):
        config = write_config(tmp_path, {
            "curve": {"kind": "ellipse", "a": 3.0 * s, "b": 2.0 * s},
            "orbit": {"family": "four-periodic", "x0": 2.7 * s, "rotation": "1/4"},
            "output": {"stem": stem},
        }, name=f"{stem}.json")
        assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / f"{stem}.csv")
        return float(next(r[3] for r in rows if r[:3] == ["summary", "", "trace"]))

    assert trace_at(size, "scaled") == pytest.approx(trace_at(1.0, "unit"), rel=1e-12)


@pytest.mark.parametrize("family, rotation, mu", [
    ("four-periodic", "1/4", 1e-8), ("four-periodic", "3/4", 1e-8),
    ("four-periodic", "1/4", 1e-12), ("four-periodic", "3/4", 1e-12),
    ("three-periodic", "1/3", 1e-8), ("three-periodic", "1/3", 1e-12),
    ("three-periodic", "2/3", 1e-12),
    ("three-periodic", "1/3", 0.999999), ("four-periodic", "1/4", 0.9999999)])
def test_circle_polygons_read_parabolic_far_from_and_near_the_radius(
        tmp_path, capsys, family, rotation, mu):
    """The symmetric circle orbits are parabolic for every 0 < mu < R, since
    each step is a shear.  Their closed trace used to be evaluated from
    floats in theta, then in delta = q pi/n - theta.  From theta, whose
    rounding swamps delta ~ mu/R, the members at mu = 1e-8 read hyperbolic
    or elliptic, and at 1e-12 the 4-periodic ones elliptic.  At 1e-12 the
    3-periodic members were refused as ``NotPeriodic``: the map step's
    bracketed re-entry root carried an error of about u R / mu in chi.  From
    delta, the members near the radius read 2.000000001162782 (hyperbolic,
    mu = 0.999999) and 1.9999999289457802 (elliptic, mu = 0.9999999)."""
    config = write_config(tmp_path, {
        "curve": {"kind": "circle", "R": 1.0},
        "orbit": {"family": family, "mu": mu, "rotation": rotation},
    })
    assert main(["orbit", "--config", config, "--out", str(tmp_path)]) == 0
    assert "class parabolic" in capsys.readouterr().out


# --------------------------------------------------------------------------
# check verb
# --------------------------------------------------------------------------

def test_check_passes_with_default_tolerances(tmp_path, capsys):
    config = write_config(tmp_path, {"check": {"n_points": 15, "seed": 3}})
    assert main(["check", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "FAIL" not in out


def test_check_prints_the_seventeen_trace_names_in_order(tmp_path, capsys):
    config = write_config(tmp_path, {"check": {"n_points": 1, "seed": 3}})
    assert main(["check", "--config", config]) == 0
    names = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()
             if " trace[" in line]
    assert names == [f"trace[{name}]" for name in (
        "circle-2", "ellipse-major", "ellipse-minor", "se-axis-2", "se-diag-2",
        "stadium-sides", "stadium-caps", "circle-3-rot13", "circle-3-rot23",
        "circle-4-rot14", "circle-4-rot34", "ellipse-4-rot14", "ellipse-4-rot34",
        "se-diag-4-rot14", "se-diag-4-rot34", "se-axis-4-rot14", "se-axis-4-rot34",
    )]


def test_check_counts_the_draws_it_drops(tmp_path, capsys, monkeypatch):
    """Each det line reports how many points were drawn and, by error tag,
    how many of them raised instead of making a step.  On seed 3 none
    raises; with every fifth step raising ``NoReentry`` and every seventh
    ``TangentialContact``, the lines count them."""
    config = write_config(tmp_path, {"check": {"n_points": 15, "seed": 3}})
    assert main(["check", "--config", config]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " det[" in line]
    assert len(lines) == 5
    assert all(line.endswith("over 15 points (tol 1e-09); 15 drawn, failed: none")
               for line in lines)

    calls = itertools.count()

    def failing(curve, mu, z, n):
        k = next(calls)
        if k % 5 == 4:
            raise NoReentry("every fifth step")
        if k % 7 == 6:
            raise TangentialContact("every seventh step")
        return iterate(curve, mu, z, n)

    monkeypatch.setattr(cli, "iterate", failing)
    assert main(["check", "--config", config]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " det[" in line]
    assert lines[0].endswith(
        "over 15 points (tol 1e-09); 22 drawn, failed: NoReentry 4, TangentialContact 3")
    for line in lines:
        kept, drawn, failed = re.search(r"over (\d+) points .*; (\d+) drawn, failed: (.*)$",
                                        line).groups()
        counts = {tag: int(n) for tag, n in (item.split() for item in failed.split(", "))}
        assert set(counts) == {"NoReentry", "TangentialContact"}
        assert int(kept) == 15 and int(drawn) == 15 + sum(counts.values())


def test_check_fails_with_impossible_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_DET_TOL", 1e-18)
    config = write_config(tmp_path, {"check": {"n_points": 15, "seed": 3}})
    assert main(["check", "--config", config]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["det_tol", "jacobian_tol", "trace_tol"])
def test_check_bounds_are_not_config_keys(tmp_path, capsys, key):
    """``check``'s bounds are constants: a config may not loosen them."""
    config = write_config(tmp_path, {"check": {key: 1e-9}})
    assert main(["check", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: ConfigValidation: check: unknown key '{key}'; [^\n]*\n", captured.err)


def test_no_verb_loads_jsonschema(tmp_path):
    """Importing the CLI, running ``check`` and running ``orbit`` on a config
    import no schema validator: the CLI checks its configs itself."""
    src = str(Path(cli.__file__).resolve().parents[1])
    config = REPO / "perfbench" / "configs" / "orbit.json"
    program = (
        "import contextlib, io, sys\n"
        "import imbilliards.cli as cli\n"
        "print('jsonschema' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check'])\n"
        "print(code, 'jsonschema' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['orbit', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'jsonschema' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", program], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["False", "0", "False", "0", "False"]
    assert (tmp_path / "orbit.csv").exists()


# --------------------------------------------------------------------------
# rot verb
# --------------------------------------------------------------------------

def test_rot_tabulates_mixed_caustics(tmp_path):
    config = write_config(tmp_path, {
        "rot": {"a": 2.0, "b": 1.0, "lambdas": [0.5, 1.0, 2.0, 4.5]},
    })
    assert main(["rot", "--config", config, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "rot.csv")
    assert rows[0] == ["lambda", "kind", "rot"]
    kinds = [r[1] for r in rows[1:]]
    assert kinds == ["ellipse", "degenerate-major", "hyperbola", "imaginary"]
    assert rows[2][2] == "nan" and rows[4][2] == "nan"
    assert 0.0 < float(rows[1][2]) < 1.0


def test_rot_grid_mode_and_validation(tmp_path, capsys):
    config = write_config(tmp_path, {
        "rot": {"a": 2.0, "b": 1.0, "lo": 0.1, "hi": 3.9, "n": 7},
    })
    assert main(["rot", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(read_rows(tmp_path / "rot.csv")) == 8

    config = write_config(tmp_path, {"rot": {"a": 1.0, "b": 2.0}}, "bad.json")
    assert main(["rot", "--config", config, "--out", str(tmp_path)]) == 2
    assert "need a > b" in capsys.readouterr().err


_A_INF = "ConfigValidation: rot: 'a' must be a positive finite number, got inf"


@pytest.mark.parametrize("section, message", [
    ({"a": math.inf, "b": 1.0, "lambdas": [0.5, 2.0]}, _A_INF),
    ({"a": math.inf, "b": 1.0, "lo": 0.1, "hi": 3.9, "n": 5}, _A_INF),
    ({"a": math.inf, "b": 1.0}, _A_INF),
    ({"a": 2.0, "b": 1.0, "hi": math.inf, "n": 5},
     "ConfigValidation: rot: 'hi' must be a finite number, got inf"),
    ({"a": 1e200, "b": 1.0, "n": 5},
     "ValueError: lambda interval ends must be finite, got [0.001, inf]"),
], ids=["a-lambdas", "a-grid", "a-default-grid", "hi", "huge-a-default-grid"])
def test_rot_refuses_non_finite_sizes(tmp_path, capsys, section, message):
    """JSON ``Infinity`` (as Python reads it) for ``a`` or for a grid end
    exits 2 with a message that names it, and writes no file; so does an
    ``a`` whose square, the default upper end of the grid, overflows."""
    config = write_config(tmp_path, {"rot": section})
    assert main(["rot", "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rot.csv").exists()


def test_rot_ends_at_extreme_scales(tmp_path):
    """``a = 1e-100`` used to underflow every R_F argument to 0, and ``imbil
    rot`` never returned.  The CLI runs in a subprocess under a timeout, so a
    hang fails the test instead of the suite."""
    config = write_config(tmp_path, {"rot": {"a": 1e-100, "b": 5e-101, "lambdas": [1e-201, 5e-201]}})
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "imbilliards", "rot", "--config", config, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    rows = read_rows(tmp_path / "rot.csv")[1:]
    assert [kind for _, kind, _ in rows] == ["ellipse", "hyperbola"]
    assert 0.0 < float(rows[0][2]) < float(rows[1][2]) < 1.0


def test_rot_grid_is_within_8_ulp_of_40_digits(tmp_path):
    """Every fourth row of the benchmark's 400-row ``rot`` grid, as printed,
    against ``sqrt(lo) R_F(...) / R_F(a^2 - lo, hi - lo, 0)`` by mpmath's
    ``elliprf`` at 40 digits."""
    config = REPO / "perfbench" / "configs" / "rot.json"
    assert main(["rot", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "rot.csv")[1:]
    assert len(rows) == 400
    section = json.loads(config.read_text())["rot"]
    mpf, rf = mpmath.mpf, mpmath.elliprf
    with mpmath.mp.workdps(40):
        a2, b2 = mpf(section["a"]) ** 2, mpf(section["b"]) ** 2
        for lam, kind, rho in rows[::4]:
            assert kind in ("ellipse", "hyperbola")
            lo, hi = min(b2, mpf(lam)), max(b2, mpf(lam))
            exact = (mpmath.sqrt(lo) * rf(hi * (a2 - lo), a2 * (hi - lo), (hi - lo) * (a2 - lo))
                     / rf(a2 - lo, hi - lo, 0))
            assert abs(mpf(rho) - exact) <= 8 * np.spacing(float(exact))


@pytest.mark.parametrize("verb", ["orbit", "scan", "trace", "rot"])
def test_cli_outputs_match_the_benchmark_goldens(tmp_path, verb):
    """Each verb on its ``perfbench/configs`` file writes what
    ``perfbench/golden`` holds, as ``perfbench/golden.py`` compares them:
    numbers within 1e-12 relative, text exact."""
    spec = importlib.util.spec_from_file_location("perfbench_golden", REPO / "perfbench" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    config = golden.CONFIG_DIR / f"{verb}.json"
    assert main([verb, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert golden.check_outputs(verb, tmp_path) == []


def test_readme_rot_example_is_what_the_cli_prints(tmp_path, capsys):
    """The README's ``rot`` config and session, run through the CLI."""
    text = (REPO / "README.md").read_text()
    fenced = text[text.index("### `rot`"):].split("```")
    config = tmp_path / "rot.json"
    config.write_text(fenced[1].removeprefix("json\n"))
    assert main(["rot", "--config", str(config), "--out", str(tmp_path)]) == 0
    session = fenced[3].strip("\n").splitlines()
    out = capsys.readouterr().out.replace(str(tmp_path / "rot.csv"), "rot.csv")
    assert session[0] == "$ imbil rot --config rot.json --out ."
    assert session[1] == out.rstrip("\n")
    assert session[2] == "$ cat rot.csv"
    assert (tmp_path / "rot.csv").read_text().splitlines() == session[3:]
