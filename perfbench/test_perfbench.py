"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer counts that must repeat exactly for a given seed
COUNT_PREFIXES = (
    "curves.queries_per_step.", "curves.inversions_per_step.", "curves.ctor_per_pass",
    "collision.failed.", "dynamics.steps_per_pass", "families.newton_evals_per_solve",
    "families.newton_useful_ratio", "families.newton_stalled_per_pass",
    "families.newton_other_orbit_per_pass",
)


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.fixture(scope="module")
def traced_twice() -> tuple[dict, dict]:
    return run("family-menu", 1), run("family-menu", 1)


# cli-cold is not declared in BENCHMARK.json but prints the same metrics
@pytest.mark.parametrize("workload", sorted({w["name"] for w in SPEC["workloads"]} | {"cli-cold"}))
def test_end_to_end_names_match_benchmark_json(workload):
    metrics = run(workload, 0)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_names_match_benchmark_json(traced_twice):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced_twice[0].items()} == declared


def test_counts_repeat_exactly_for_a_seed(traced_twice):
    first, second = traced_twice
    counts = {k for k in first if k.startswith(COUNT_PREFIXES)}
    assert {"dynamics.steps_per_pass", "families.newton_evals_per_solve"} <= counts
    assert sum(k.startswith("curves.queries_per_step.") for k in counts) == 5
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_golden_comparison_rejects_a_perturbed_csv(tmp_path):
    text = (golden.GOLDEN_DIR / "orbit.csv").read_text()
    assert golden.diff(text, text) is None

    row = next(line for line in text.splitlines() if line.startswith("summary,,trace,"))
    value = float(row.rsplit(",", 1)[1])
    for factor, accepted in ((1 + 1e-9, False), (1 + 1e-14, True)):
        changed = text.replace(row, f"summary,,trace,{value * factor!r}")
        assert changed != text
        assert (golden.diff(changed, text) is None) == accepted
    assert golden.diff(text.replace("class,hyperbolic", "class,elliptic"), text) is not None

    (tmp_path / "orbit.csv").write_text(text.replace(row, f"summary,,trace,{value * 1.001!r}"))
    assert golden.check_outputs("orbit", tmp_path)
    (tmp_path / "orbit.csv").write_text(text)
    assert golden.check_outputs("orbit", tmp_path) == []
