"""Comparison of CLI output text against golden files.

Numbers are compared with a relative tolerance; every other character must
match exactly.  The golden files under ``golden/`` were written by the
package's own CLI from the configs under ``configs/``.
"""

from __future__ import annotations

import re
from pathlib import Path

#: tolerance for numeric fields (the bound ROADMAP sets on CLI diffs), relative
#: to max(1, |value|) as in the deviations `imbil check` reports
REL_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIG_DIR = Path(__file__).resolve().parent / "configs"

#: files each verb writes (the stem is set in its config)
VERB_OUTPUTS = {
    "orbit": ("orbit.csv",),
    "scan": ("scan.csv", "scan.svg"),
    "trace": ("trace.svg",),
    "rot": ("rot.csv",),
}


def _split(text: str) -> tuple[list[str], list[str]]:
    """Numeric tokens and the text between them."""
    numbers = _NUMBER.findall(text)
    return numbers, _NUMBER.split(text)


def _same_number(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = float(a), float(b)
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


def diff(actual: str, golden: str) -> str | None:
    """First difference between two outputs, or ``None`` when they agree."""
    nums_a, rest_a = _split(actual)
    nums_g, rest_g = _split(golden)
    if rest_a != rest_g:
        for i, (a, g) in enumerate(zip(rest_a, rest_g)):
            if a != g:
                return f"text differs at field {i}: {a[:40]!r} vs {g[:40]!r}"
        return f"field count {len(rest_a)} vs {len(rest_g)}"
    for i, (a, g) in enumerate(zip(nums_a, nums_g)):
        if not _same_number(a, g):
            return f"number {i}: {a} vs {g} (rel tol {REL_TOL:g})"
    return None


def check_outputs(verb: str, out_dir: Path) -> list[str]:
    """Problems with the files ``verb`` wrote into ``out_dir``."""
    problems = []
    for name in VERB_OUTPUTS[verb]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        found = diff(path.read_text(), (GOLDEN_DIR / name).read_text())
        if found:
            problems.append(f"{name}: {found}")
    return problems
