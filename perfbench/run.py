#!/usr/bin/env python3
"""Benchmark of imbilliards: cold CLI processes, a phase-space sweep of the
map and its Jacobians, and a pass over the closed-form family menu.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` is the separate traced run: it rebinds the package's public
functions to record spans and prints the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness gate
failed, 2 when the package sources are missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, set before numpy loads here (workloads are imported
# lazily) or in any child: no run uses more threads than the machine has cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli-cold", "phase-sweep", "family-menu")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CTOR_REPEATS = 3
CENSUS_POINTS = 20       # phase points per table in the traced run's census
COMPUTE_REPEATS = 2
COLD_IMPORTS = {
    "numpy": "numpy",
    "scipy_optimize": "scipy.optimize",
    "scipy_interpolate": "scipy.interpolate",
    "jsonschema": "jsonschema",
    "imbilliards_cli": "imbilliards.cli",
}
COLLISION_TAGS = ("TangentialChord", "NoInteriorHit", "NoReentry", "TangentialContact")
SHAPES = ("ellipse", "superellipse-k2", "superellipse-k3")
FAMILY_KINDS = ("circle", "ellipse", "superellipse", "stadium")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail(values) -> str:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return f"p{q:g} {percentile(values, q) * 1e3:.4g} ms"
    return "no percentile with 10 samples beyond it"


def describe(rounds: dict[str, list[float]], value: dict[str, float]) -> list[str]:
    return [f"  {part:<18} {value[part] * 1e3:9.4f} ms   n={len(v):<6} "
            f"median {median(v) * 1e3:9.4f} ms   {tail(v)}"
            for part, v in rounds.items()]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """Child interpreters import the checkout's sources (and inherit one BLAS thread)."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_run(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def measure(workload, seconds: float, tracer=None):
    """Repeat whole cycles of rounds until ``seconds`` have passed (with a
    tracer, installed on every other cycle, at least one traced and one
    untraced cycle).  Returns the untraced and the traced samples as
    ``{part: {op: [seconds]}}``, and the untraced per-round sums of each
    part."""
    plain = {p: defaultdict(list) for p in workload.parts}
    traced = {p: defaultdict(list) for p in workload.parts}
    rounds = {p: [] for p in workload.parts}
    deadline = time.perf_counter() + seconds
    cycles = 2 if tracer is not None else 1
    i = 0
    while True:
        on = tracer is not None and (i // workload.cycle) % 2 == 0
        if on:
            tracer.install()
        try:
            timed = workload.round()
        finally:
            if on:
                tracer.uninstall()
        sums = defaultdict(float)
        for part, op, dt in timed:
            (traced if on else plain)[part][op].append(dt)
            sums[part] += dt
        if not on:
            for part, dt in sums.items():
                rounds[part].append(dt)
        i += 1
        if i % workload.cycle == 0 and i >= cycles * workload.cycle and (
                time.perf_counter() >= deadline):
            return plain, traced, rounds


def make_workload(name: str, seed: int, tally, trace: bool, tracer=None):
    import workloads as wl

    if name == "phase-sweep":
        return wl.PhaseSweep(seed, tally, tracer)
    if name == "family-menu":
        return wl.FamilyMenu(seed, tally, tracer)
    if trace:
        return wl.InProcessCli(seed, tally, OUT / "cli", tracer)
    return wl.ColdCli(seed, tally, OUT / "cli", child_env(), ROOT)


def accounting(tally) -> list[str]:
    lines = [f"attempted {tally.attempted}  failed {tally.n_failed}  "
             f"failed_frac {tally.n_failed / max(1, tally.attempted):.6g}"]
    lines.append("failures by tag: " + (", ".join(
        f"{k} x{v}" for k, v in sorted(tally.failed.items())) or "none"))
    lines += [f"  {p}" for p in tally.problems]
    if tally.expected:
        lines.append("expected outcomes, counted as correct: " + ", ".join(
            f"{k} x{v}" for k, v in sorted(tally.expected.items())))
    if tally.unresolved:
        lines.append("Newton solves on non-parabolic members that stalled or reached another "
                     "orbit (class-consistent, not failures): "
                     + ", ".join(f"{k} x{v}" for k, v in sorted(tally.unresolved.items())))
    if tally.drawn:
        lines.append(f"sampling acceptance (well-conditioned steps): {tally.accepted}/{tally.drawn}"
                     f" = {tally.accepted / tally.drawn:.4f}")
    return lines


def run_untraced(name: str, seed: int, seconds: float):
    import workloads as wl

    setup = [child_run([sys.executable, str(BENCH / "setup_probe.py"), name])
             for _ in range(SETUP_REPEATS)]
    tally = wl.Tally()
    workload = make_workload(name, seed, tally, trace=False)
    samples, _, rounds = measure(workload, seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    value = {p: workload.estimate(p, samples[p]) for p in workload.parts}
    metrics = {f"part{i + 1}_ms": (value[p] * 1e3, "ms") for i, p in enumerate(workload.parts)}
    metrics["setup_s"] = (median(setup), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")

    if name == "cli-cold":
        named = {"import_s": (value["import"], "s")}
        named.update({f"cli_s.{v}": (value[v], "s") for v in wl.VERBS})
    elif name == "phase-sweep":
        named = {f"steps_per_s.{t}": (len(v) / sum(v), "1/s") for t, v in rounds.items()}
    else:
        named = {"menu_pass_s": (sum(value.values()), "s")}
    named["setup_s"] = metrics["setup_s"]
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["failed_frac"] = (tally.n_failed / max(1, tally.attempted), "ratio")

    lines = ["part slots: " + ", ".join(f"part{i + 1}={p}" for i, p in enumerate(workload.parts))]
    lines.append(f"{workload.estimate.__doc__.splitlines()[0].rstrip('.')} (per round: n, median, tail)")
    lines += describe(rounds, value)
    lines.append(f"setup: {SETUP_REPEATS} fresh interpreters, "
                 + ", ".join(f"{s:.3f}" for s in setup) + " s")
    lines.append("named metrics:")
    lines += [f"  {k:<28} {v:.6g} {u}" for k, (v, u) in named.items()]
    return tally, metrics, lines


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float):
    import tracing
    import workloads as wl

    start = time.perf_counter()
    tracer, tally = tracing.Tracer(), wl.Tally()
    spans = tracer.spans
    sections = {}

    # Census: a fixed, seeded amount of work touching every layer, so every
    # per-layer metric has samples and the counts repeat exactly per seed.
    cli_census = wl.InProcessCli(seed, tally, OUT / "cli-census", tracer)
    tracer.install()
    try:
        mark = len(spans)
        for table in wl.TABLES:
            tracer.ctx = table
            for _ in range(CTOR_REPEATS):
                wl.make_table(table)
        sections["ctor"] = (mark, len(spans))
        mark, before = len(spans), dict(tracer.counts)
        phase = wl.PhaseSweep(seed, tally, tracer)
        for _ in range(CENSUS_POINTS):
            phase.round()
        sections["phase"] = (mark, len(spans))
        inversions = {k[1]: v - before.get(k, 0) for k, v in tracer.counts.items()}
        mark, before = len(spans), dict(tally.unresolved)
        wl.FamilyMenu(seed, tally, tracer).round()
        sections["menu"] = (mark, len(spans))
        unresolved = {k: v - before.get(k, 0) for k, v in tally.unresolved.items()}
        for verb in wl.VERBS:
            cli_census.op(verb)
    finally:
        tracer.uninstall()
    compute = {v: [cli_census.op(v) for _ in range(COMPUTE_REPEATS)] for v in wl.VERBS}
    imports = {key: [child_run([sys.executable, "-c", f"import {module}"])
                     for _ in range(IMPORT_REPEATS)]
               for key, module in COLD_IMPORTS.items()}

    # The workload's own loop, traced and untraced cycles alternating.
    workload = make_workload(name, seed + 1, tally, trace=True, tracer=tracer)
    plain, traced, _ = measure(workload, max(0.0, seconds - (time.perf_counter() - start)), tracer)
    if name == "cli-cold":
        for verb in wl.VERBS:
            compute[verb] += plain[verb][verb]
    plain = {p: workload.estimate(p, plain[p]) for p in workload.parts}
    traced = {p: workload.estimate(p, traced[p]) for p in workload.parts}
    ratios = [traced[p] / plain[p] for p in workload.parts]
    overhead = math.exp(sum(map(math.log, ratios)) / len(ratios)) - 1.0

    metrics = layer_metrics(tracer, sections, inversions, unresolved, compute, imports, overhead, tally)
    lines = [f"census: {CTOR_REPEATS} builds per table, {CENSUS_POINTS} phase points per table, "
             f"1 menu pass, each verb in process; {len(spans)} spans in total"]
    lines.append("tracing overhead, traced minus untraced time per part:")
    lines += [f"  {p:<18} {(traced[p] - plain[p]) * 1e3:+.4f} ms ({(traced[p] / plain[p] - 1) * 100:+.1f}%)"
              for p in workload.parts]
    lines.append("per-layer metrics:")
    lines += [f"  {k:<44} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    tracer.write(OUT / f"spans-{name}.csv")
    return tally, metrics, lines


def layer_metrics(tracer, sections, inversions, unresolved, compute, imports, overhead, tally) -> dict:
    import tracing
    import workloads as wl

    NAME, CTX, START, END, ERROR, RESULT = (
        tracing.NAME, tracing.CTX, tracing.START, tracing.END, tracing.ERROR, tracing.RESULT)
    spans = tracer.spans
    incl, own = defaultdict(list), defaultdict(list)
    for span, self_time in zip(spans, tracer.self_times()):
        incl[span[NAME], span[CTX]].append(span[END] - span[START])
        own[span[NAME], span[CTX]].append(self_time)

    def pool(store, names, ctx=None):
        return [x for (n, c), xs in store.items()
                if n in names and (ctx is None or c == ctx) for x in xs]

    def window(section):
        lo, hi = sections[section]
        return range(lo, hi)

    def count(section, test):
        return sum(1 for i in window(section) if test(spans[i]))

    queries = {f"curves.{q}" for q in tracing.QUERIES}
    m = {}
    for t in wl.TABLES:
        m[f"curves.query_us.{t}"] = (median(pool(own, queries, t)) * 1e6, "us")
        steps = count("phase", lambda s: s[NAME] == "dynamics.step" and s[CTX] == t)
        m[f"curves.queries_per_step.{t}"] = (
            count("phase", lambda s: s[NAME] in queries and s[CTX] == t) / max(1, steps), "count")
        if t in SHAPES:
            m[f"curves.inversions_per_step.{t}"] = (inversions.get(t, 0) / max(1, steps), "count")
            m[f"curves.ctor_ms.{t}"] = (median(pool(incl, {"curves.ctor"}, t)) * 1e3, "ms")
    m["curves.ctor_per_pass"] = (count("menu", lambda s: s[NAME] == "curves.ctor"), "count")

    for t in wl.TABLES:
        for fn in ("chord_exit", "larmor_reentry"):
            m[f"collision.{fn}_us.{t}"] = (median(pool(own, {f"collision.{fn}"}, t)) * 1e6, "us")
    for tag in COLLISION_TAGS:
        m[f"collision.failed.{tag}"] = (
            count("phase", lambda s: s[NAME].startswith("collision.") and s[ERROR] == tag), "count")

    for t in wl.TABLES:
        steps = pool(incl, {"dynamics.step"}, t)
        m[f"dynamics.step_us.{t}"] = (median(steps) * 1e6, "us")
        m[f"dynamics.step_p99_us.{t}"] = (percentile(steps, 99) * 1e6, "us")
        m[f"dynamics.jacobian_numeric_ms.{t}"] = (
            median(pool(incl, {"dynamics.jacobian_numeric"}, t)) * 1e3, "ms")
    m["dynamics.jacobian_analytic_us"] = (median(pool(incl, {"dynamics.jacobian_analytic"})) * 1e6, "us")
    m["dynamics.steps_per_pass"] = (count("menu", lambda s: s[NAME] == "dynamics.step"), "count")

    m["stability.stability_matrix_ms"] = (median(pool(incl, {"stability.stability_matrix"})) * 1e3, "ms")
    m["stability.classify_us"] = (median(pool(incl, {"stability.classify"})) * 1e6, "us")

    for kind in FAMILY_KINDS:
        names = {f"families.construct.{fn}" for fn in tracing.CONSTRUCTORS
                 if fn.split("_periodic_")[1].split("_")[0] == kind}
        m[f"families.construct_ms.{kind}"] = (median(pool(incl, names)) * 1e3, "ms")
    newton = "families.find_periodic_newton"
    m["families.newton_ms"] = (median(pool(incl, {newton})) * 1e3, "ms")
    solves = count("menu", lambda s: s[NAME] == newton)
    evals = sum(1 for i in window("menu")
                if spans[i][NAME] == "dynamics.iterate" and tracer.ancestor(i, newton) >= 0)
    accepted, residual = 0, {}
    for i in window("menu"):
        if spans[i][NAME] != "families._newton_state":
            continue
        owner, r = tracer.ancestor(i, newton), spans[i][RESULT]
        if owner not in residual:
            residual[owner] = math.inf if r is None else r
        elif r is not None and r < residual[owner]:
            accepted, residual[owner] = accepted + 1, r
    m["families.newton_evals_per_solve"] = (evals / max(1, solves), "count")
    m["families.newton_useful_ratio"] = (accepted / max(1, evals), "ratio")
    for outcome in ("stalled", "other-orbit"):
        m[f"families.newton_{outcome.replace('-', '_')}_per_pass"] = (
            sum(v for k, v in unresolved.items() if k.startswith(outcome + ":")), "count")
    m["families.scan_ms"] = (median(pool(incl, {"families.scan_family"})) * 1e3, "ms")

    m["rotation.rot_lambda_us"] = (median(pool(incl, {"rotation.rot_lambda"})) * 1e6, "us")
    m["rotation.table_ms"] = (median(pool(incl, {"rotation.rotation_table"})) * 1e3, "ms")

    for verb, values in compute.items():
        m[f"cli.compute_s.{verb}"] = (median(values), "s")
    for key, values in imports.items():
        m[f"import_s.{key}"] = (median(values), "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["run.failed_frac"] = (tally.n_failed / max(1, tally.attempted), "ratio")
    m["run.acceptance_ratio"] = (tally.accepted / max(1, tally.drawn), "ratio")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imbilliards" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import imbilliards

    if not Path(imbilliards.__file__).resolve().is_relative_to(SRC):
        print(f"error: imbilliards imported from {imbilliards.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            print(f"== {name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace} ==")
            print("closed loop, one caller, one process, one BLAS thread: "
                  "waiting time is zero by construction and is not measured")
            runner = run_traced if args.trace else run_untraced
            tally, found, lines = runner(name, args.seed, args.seconds)
            print("\n".join(lines + accounting(tally)))
            correct &= tally.n_failed == 0
            attempted += tally.attempted
            failed += tally.n_failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    finally:
        shutil.rmtree(OUT / "cli", ignore_errors=True)
        shutil.rmtree(OUT / "cli-census", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
