"""Seeded inputs, operations and correctness gates of the benchmark workloads.

Every workload is a closed loop with one caller in one process.  A
workload object runs one *round* at a time and returns ``(part, op,
seconds)`` triples, one per timed operation; the runner repeats whole
*cycles* of rounds (a cycle runs every operation of the workload once)
until its time is up, and :meth:`estimate` turns the samples of one part
into its metric.  Gates run outside the timed region.  Inputs come only
from the seed given to the constructor.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from imbilliards import cli, curves, dynamics, errors, families, rotation, stability

import golden

TABLES = ("circle", "ellipse", "superellipse-k2", "superellipse-k3", "stadium")
MU = {"circle": 0.35, "ellipse": 0.3, "superellipse-k2": 0.3, "superellipse-k3": 0.3, "stadium": 0.3}

# Gate tolerances: the defaults of `imbil check` ...
DET_TOL = 1e-9
JACOBIAN_TOL = 1e-5
TRACE_TOL = 1e-6
# ... and the settings of the Newton acceptance test.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 10
NEWTON_POINT_TOL = 1e-6

THETA_MARGIN = 0.05
POOL = 50                # base phase points per table
JITTER = 1e-9            # largest move in s of a base point on a visit
NUMERIC_EVERY = 10       # every tenth base point also gets a numeric Jacobian
H_NUMERIC = 1e-6         # the default step of dynamics.jacobian_numeric
H_HALVINGS = 14          # finest numeric step of the Jacobian recheck: H_NUMERIC / 2**14
NEWTON_KICK = 1e-4       # Newton seed offset in s and theta, as in the Newton acceptance test
#: the Newton kicks, one per pass in turn (sign of the offset in s, in theta)
KICKS = ((1.0, 1.0), (-1.0, -1.0))
N_LAMBDAS = 400          # rotation numbers per menu pass ...
ROTATION_CHUNKS = 8      # ... in this many rotation tables of consecutive lambdas


def make_table(name: str) -> curves.Curve:
    if name == "circle":
        return curves.Circle(1.0)
    if name == "ellipse":
        return curves.Ellipse(2.0, 1.0)
    if name.startswith("superellipse-k"):
        return curves.Superellipse(int(name[-1]))
    return curves.Stadium(2.0, 1.0)


@dataclass
class Tally:
    """Operations attempted and their outcomes."""

    attempted: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    expected: dict[str, int] = field(default_factory=dict)      # outcomes counted as correct
    unresolved: dict[str, int] = field(default_factory=dict)    # class-consistent Newton outcomes
    drawn: int = 0
    accepted: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, tag: str, detail: str) -> None:
        self.bump(self.failed, tag)
        if len(self.problems) < 20:
            self.problems.append(f"{tag}: {detail}")

    @staticmethod
    def bump(counter: dict[str, int], tag: str) -> None:
        counter[tag] = counter.get(tag, 0) + 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


class _Workload:
    parts: tuple[str, ...] = ()
    #: rounds in which every operation of the workload runs once
    cycle = 1

    def __init__(self, seed: int, tally: Tally, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.tally = tally
        self.tracer = tracer

    def _ctx(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.ctx = name


# ---------------------------------------------------------------------------
# phase-sweep: random phase points, one step + analytic Jacobian each
# ---------------------------------------------------------------------------

class PhaseSweep(_Workload):
    """One round steps one point of each table.  Each table has a seeded
    pool of base points, visited in turn; every visit moves the base point
    by a fresh jitter of at most JITTER in s, so no two steps share a phase
    point or a boundary point, while each visit of a base point costs the
    same work."""

    parts = TABLES
    cycle = POOL

    def __init__(self, seed: int, tally: Tally, tracer=None):
        super().__init__(seed, tally, tracer)
        self.curves = {name: make_table(name) for name in TABLES}
        self.streams = {name: np.random.default_rng([seed, i]) for i, name in enumerate(TABLES)}
        self.pool = {
            name: [(float(rng.uniform(0.0, self.curves[name].total_length())),
                    float(rng.uniform(THETA_MARGIN, math.pi - THETA_MARGIN))) for _ in range(POOL)]
            for name, rng in self.streams.items()
        }
        self.visits = 0

    def round(self) -> list[tuple[str, str, float]]:
        k = self.visits % POOL
        self.visits += 1
        return [(name, k, self.op(name, k)) for name in TABLES]

    @staticmethod
    def estimate(part: str, ops: dict[int, list[float]]) -> float:
        """One step: the mean over the base points of the fastest visit of each."""
        return statistics.fmean(min(v) for v in ops.values())

    def op(self, name: str, k: int) -> float:
        curve, mu, rng = self.curves[name], MU[name], self.streams[name]
        s, theta = self.pool[name][k]
        z = dynamics.PhasePoint(s=s + float(rng.uniform(-JITTER, JITTER)), theta=theta)
        numeric = k % NUMERIC_EVERY == 0
        self.tally.attempted += 1
        self.tally.drawn += 1
        self._ctx(name)
        t0 = time.perf_counter()
        try:
            _, d = dynamics.step(curve, mu, z)
            A = dynamics.jacobian_analytic(d)
            N = dynamics.jacobian_numeric(curve, mu, z) if numeric else None
        except errors.BilliardError as exc:
            self.tally.fail(type(exc).__name__, f"{name} at {z}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0

        det_dev = abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] - 1.0)
        if det_dev > DET_TOL:
            self.tally.fail("gate-det", f"{name} at {z}: |det J - 1| = {det_dev:.3e}")
            return elapsed
        if dynamics.well_conditioned(d):
            self.tally.accepted += 1
            if N is not None and _relative_dev(A, N) > JACOBIAN_TOL:
                self._jacobian_recheck(name, curve, mu, z, A, N)
        return elapsed

    def _jacobian_recheck(self, name, curve, mu, z, A, N) -> None:
        """The default finite-difference step can be too coarse where the map
        bends sharply (near a grazing re-entry, say).  Halve the step, at
        most H_HALVINGS times: if the numeric Jacobian comes within the
        tolerance of the analytic one, the deviation was the oracle's
        truncation error and the analytic Jacobian stands."""
        h, dev = H_NUMERIC, _relative_dev(A, N)
        try:
            for _ in range(H_HALVINGS):
                h /= 2.0
                if _relative_dev(A, dynamics.jacobian_numeric(curve, mu, z, h=h)) <= JACOBIAN_TOL:
                    self.tally.bump(self.tally.expected, f"jacobian-truncation:{name}")
                    return
        except errors.BilliardError as exc:
            self.tally.fail(type(exc).__name__, f"{name} at {z}, numeric Jacobian at h={h:.3g}: {exc}")
            return
        self.tally.fail("gate-jacobian", f"{name} at {z}: rel dev {dev:.3e}, not within "
                                         f"{JACOBIAN_TOL:g} down to h={h:.3g}")


def _relative_dev(A, N) -> float:
    return float(np.max(np.abs(A - N)) / max(1.0, float(np.max(np.abs(A)))))


# ---------------------------------------------------------------------------
# family-menu: the 17 closed-form members of `imbil check`, Newton, scans,
# rotation numbers
# ---------------------------------------------------------------------------

def _two(result):
    return result[0], stability.trace2_closed(result[1])


def _first_last(result):
    return result[0], result[-1]


#: (name, table, constructor returning (orbit, closed-form trace))
MENU = [
    ("circle-2", "circle", lambda: _two(families.two_periodic_circle(1.0, 0.5))),
    ("ellipse-major", "ellipse", lambda: _two(families.two_periodic_ellipse(2.0, 1.0, 0.5, "major"))),
    ("ellipse-minor", "ellipse", lambda: _two(families.two_periodic_ellipse(2.0, 1.0, 0.5, "minor"))),
    ("se-axis-2", "superellipse-k2", lambda: _two(families.two_periodic_superellipse_axis(2, 0.5))),
    ("se-diag-2", "superellipse-k2", lambda: _two(families.two_periodic_superellipse_diag(2, -0.3))),
    ("stadium-sides", "stadium", lambda: _two(families.two_periodic_stadium(2.0, 1.0, 0.4, "sides"))),
    ("stadium-caps", "stadium", lambda: _two(families.two_periodic_stadium(2.0, 1.0, 0.4, "caps"))),
    ("circle-3-rot13", "circle", lambda: _first_last(families.three_periodic_circle(1.0, 0.4, "1/3"))),
    ("circle-3-rot23", "circle", lambda: _first_last(families.three_periodic_circle(1.0, 0.4, "2/3"))),
    ("circle-4-rot14", "circle", lambda: _first_last(families.four_periodic_circle(1.0, 0.3, "1/4"))),
    ("circle-4-rot34", "circle", lambda: _first_last(families.four_periodic_circle(1.0, 0.3, "3/4"))),
    ("ellipse-4-rot14", "ellipse", lambda: _first_last(families.four_periodic_ellipse(3.0, 2.0, 2.7, "1/4"))),
    ("ellipse-4-rot34", "ellipse", lambda: _first_last(families.four_periodic_ellipse(3.0, 2.0, 1.5, "3/4"))),
    ("se-diag-4-rot14", "superellipse-k2", lambda: families.four_periodic_superellipse_diag(2, 0.9, "1/4")),
    ("se-diag-4-rot34", "superellipse-k2", lambda: families.four_periodic_superellipse_diag(2, -0.3, "3/4")),
    ("se-axis-4-rot14", "superellipse-k2", lambda: families.four_periodic_superellipse_axis(2, 0.9, "1/4")),
    ("se-axis-4-rot34", "superellipse-k2", lambda: families.four_periodic_superellipse_axis(2, 0.5, "3/4")),
]


def _se_axis_trace(k: int):
    # closed-form trace (alpha*beta - 2)^2 - 2 of the axis 2-periodic family,
    # with alpha*beta = 4 (mu^-2k - 1)^((1-k)/k); see two_periodic_superellipse_axis
    return lambda mu: (4.0 * (mu ** (-2 * k) - 1.0) ** ((1.0 - k) / k) - 2.0) ** 2 - 2.0


def _se_diag_trace(k: int):
    # trace 2 + 16 f (f - 1) of the diagonal 2-periodic family, f its power-sum ratio
    def trace(x0: float) -> float:
        f = families.superellipse_diag_ratio(k, x0)
        return 2.0 + 16.0 * f * (f - 1.0)
    return trace


_Q2, _Q3 = 2.0 ** (-1.0 / 4), 2.0 ** (-1.0 / 6)
_E4_LO, _E4_HI = 15.0 / 13.0, 3.0  # the 4-periodic x0 interval of the (3, 2) ellipse
_E4_PAD = 1e-6 * (_E4_HI - _E4_LO)

#: (name, trace function, lo, hi): the six scannable families, on the
#: default windows of `imbil scan`
SCANS = [
    ("se2-two-periodic-axis", _se_axis_trace(2), 0.02, 0.995),
    ("se2-two-periodic-diag", _se_diag_trace(2), -_Q2 + 1e-4, _Q2 - 1e-4),
    ("ellipse32-four-periodic", lambda x: families.trace4_ellipse(3.0, 2.0, x),
     _E4_LO + _E4_PAD, _E4_HI - _E4_PAD),
    ("se3-four-periodic-axis-rot14", lambda x: families.trace4_superellipse_axis(3, x, "1/4"),
     _Q3 + 1e-3, 1.0 - 1e-3),
    ("se3-four-periodic-axis-rot34", lambda x: families.trace4_superellipse_axis(3, x, "3/4"),
     -_Q3 + 1e-6, 1.0 - 1e-3),
    ("se2-four-periodic-diag", lambda x: families.trace4_superellipse_diag(2, x),
     _Q2 + 1e-4, families.x_hat(2) - 1e-4),
]
SCAN_GRID = 400
SCAN_GOLDEN = "scans.txt"


def scan_text(results) -> str:
    """One line per scan: its name and the thresholds it located."""
    return "".join(
        name + "," + ",".join(format(x, ".17g") for x in thresholds) + "\n"
        for name, thresholds in results
    )


class FamilyMenu(_Workload):
    """One round is one menu pass.  Every operation recurs with the same
    inputs, once a pass or, for Newton, once a cycle of passes."""

    parts = ("construct", "crosscheck", "newton", "scan", "rotation")
    # Newton starts from one of the kicks per pass, in turn.  The kicks are
    # fixed, not seeded: on the two strongly hyperbolic members the cost of
    # a solve swings twentyfold with the kick direction, so seeded
    # directions would make the newton part vary more from seed to seed
    # than any change to the code.
    cycle = len(KICKS)

    def __init__(self, seed: int, tally: Tally, tracer=None):
        super().__init__(seed, tally, tracer)
        self.lambdas = np.sort(self.rng.uniform(0.01, 3.99, N_LAMBDAS))
        self.passes = 0

    @staticmethod
    def estimate(part: str, ops: dict[str, list[float]]) -> float:
        """One pass: the sum over the part's operations of the fastest time
        of each, Newton averaged over the kicks of a cycle."""
        total = sum(min(v) for v in ops.values())
        return total / len(KICKS) if part == "newton" else total

    def round(self) -> list[tuple[str, str, float]]:
        tally, timed = self.tally, []
        built = []
        for name, table, build in MENU:
            self._ctx(table)
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                orbit, closed = build()
            except errors.BilliardError as exc:
                tally.fail(type(exc).__name__, f"construct {name}: {exc}")
                continue
            finally:
                timed.append(("construct", name, time.perf_counter() - t0))
            built.append((name, table, orbit, closed))

        parabolic = {}
        for name, table, orbit, closed in built:
            self._ctx(table)
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                S = stability.stability_matrix(orbit.curve, orbit.mu, orbit.points[0], orbit.n)
                cls = stability.classify(closed).cls
            except errors.BilliardError as exc:
                tally.fail(type(exc).__name__, f"crosscheck {name}: {exc}")
                continue
            finally:
                timed.append(("crosscheck", name, time.perf_counter() - t0))
            parabolic[name] = cls is stability.StabilityClass.PARABOLIC and closed > 0
            composed = float(S[0, 0] + S[1, 1])
            dev = abs(closed - composed) / max(1.0, abs(closed))
            if dev > TRACE_TOL:
                tally.fail("gate-trace", f"{name}: closed {closed!r} vs composed {composed!r}")

        j = self.passes % len(KICKS)
        ds, dtheta = (NEWTON_KICK * sign for sign in KICKS[j])
        for name, table, orbit, closed in built:
            self._ctx(table)
            tally.attempted += 1
            z = orbit.points[0]
            seed = dynamics.PhasePoint(s=z.s + ds, theta=z.theta + dtheta)
            found = outcome = None
            t0 = time.perf_counter()
            try:
                found = families.find_periodic_newton(
                    orbit.curve, orbit.mu, orbit.n, seed, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER)
            except errors.BilliardError as exc:
                outcome = exc
            timed.append(("newton", f"{name}@{j}", time.perf_counter() - t0))
            self._newton_gate(name, orbit, parabolic.get(name, False), found, outcome)

        scanned = []
        self._ctx("")
        for name, trace_fn, lo, hi in SCANS:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                scan = families.scan_family(trace_fn, lo, hi, n_grid=SCAN_GRID)
            except errors.BilliardError as exc:
                tally.fail(type(exc).__name__, f"scan {name}: {exc}")
                continue
            finally:
                timed.append(("scan", name, time.perf_counter() - t0))
            scanned.append((name, scan.thresholds))
        problem = golden.diff(scan_text(scanned), (golden.GOLDEN_DIR / SCAN_GOLDEN).read_text())
        if problem:
            tally.fail("gate-golden", f"scan thresholds: {problem}")

        rows = []
        for i, lambdas in enumerate(np.split(self.lambdas, ROTATION_CHUNKS)):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                rows += rotation.rotation_table(2.0, 1.0, lambdas)
            except errors.BilliardError as exc:
                tally.fail(type(exc).__name__, f"rotation table {i}: {exc}")
            timed.append(("rotation", i, time.perf_counter() - t0))
        self._rotation_gate(rows)
        self.passes += 1
        return timed

    def _newton_gate(self, name, orbit, parabolic, found, outcome) -> None:
        """SingularJacobian if and only if the member's trace is 2.  A stall
        or a converged solve on another periodic orbit agrees with the
        member's class; both are tallied as unresolved, not as failures."""
        tally = self.tally
        singular = isinstance(outcome, errors.SingularJacobian)
        if singular != parabolic:
            tally.fail("gate-newton-class", f"{name}: parabolic={parabolic}, outcome {outcome!r}")
        elif singular:
            tally.bump(tally.expected, "SingularJacobian")
        elif isinstance(outcome, errors.NoConvergence):
            tally.bump(tally.unresolved, f"stalled:{name}")
        elif outcome is not None:
            tally.fail(type(outcome).__name__, f"newton {name}: {outcome}")
        else:
            z, w = orbit.points[0], found.points[0]
            length = orbit.curve.total_length()
            ds = abs((w.s - z.s + 0.5 * length) % length - 0.5 * length)
            if ds > NEWTON_POINT_TOL or abs(w.theta - z.theta) > NEWTON_POINT_TOL:
                tally.bump(tally.unresolved, f"other-orbit:{name}")

    def _rotation_gate(self, rows) -> None:
        """Rotation numbers lie in (0, 1), increase with lambda on the
        ellipse caustics and decrease on the hyperbola caustics."""
        for kind, sign in (("ellipse", 1.0), ("hyperbola", -1.0)):
            rho = [r for _, k, r in rows if k == kind]
            if any(not 0.0 < r < 1.0 for r in rho) or any(
                    sign * (b - a) <= 0.0 for a, b in zip(rho, rho[1:])):
                self.tally.fail("gate-rotation", f"{kind} branch not monotone in (0, 1)")


# ---------------------------------------------------------------------------
# the CLI: cold processes, and in-process calls for the traced run
# ---------------------------------------------------------------------------

VERBS = ("orbit", "scan", "trace", "rot")
#: boundary table each verb's config works on (the tracer's context)
VERB_TABLE = {"orbit": "superellipse-k2", "scan": "superellipse-k3", "trace": "ellipse", "rot": ""}


def _verb_argv(verb: str, out_dir: Path) -> list[str]:
    return [verb, "--config", str(golden.CONFIG_DIR / f"{verb}.json"), "--out", str(out_dir)]


class _Cli(_Workload):
    def __init__(self, seed: int, tally: Tally, out_dir: Path, tracer=None):
        super().__init__(seed, tally, tracer)
        self.out_dir = out_dir
        self._queue: list[str] = []
        self.cycle = len(self.parts)
        out_dir.mkdir(parents=True, exist_ok=True)

    def round(self) -> list[tuple[str, str, float]]:
        """One process or call: the parts in a seeded order, a new one per cycle."""
        if not self._queue:
            self._queue = list(self.rng.permutation(self.parts))
        part = self._queue.pop()
        return [(part, part, self.op(part))]

    @staticmethod
    def estimate(part: str, ops: dict[str, list[float]]) -> float:
        """The fastest of the part's runs: each runs the same command."""
        return min(ops[part])

    def _clear(self, verb: str) -> None:
        for name in golden.VERB_OUTPUTS.get(verb, ()):
            (self.out_dir / name).unlink(missing_ok=True)

    def _gate(self, verb: str, code: int, stderr: str) -> None:
        if code != 0:
            self.tally.fail("gate-exit", f"{verb} exited {code}: {stderr.strip()[-200:]}")
        elif verb in golden.VERB_OUTPUTS:
            for problem in golden.check_outputs(verb, self.out_dir):
                self.tally.fail("gate-golden", f"{verb}: {problem}")


class ColdCli(_Cli):
    """Fresh interpreters: a bare ``import imbilliards.cli`` and each verb."""

    parts = ("import",) + VERBS

    def __init__(self, seed: int, tally: Tally, out_dir: Path, env: dict, cwd: Path):
        super().__init__(seed, tally, out_dir)
        self.env, self.cwd = env, cwd

    def op(self, part: str) -> float:
        if part == "import":
            argv = [sys.executable, "-c", "import imbilliards.cli"]
        else:
            argv = [sys.executable, "-m", "imbilliards.cli", *_verb_argv(part, self.out_dir)]
        self._clear(part)
        self.tally.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, cwd=self.cwd, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        self._gate(part, proc.returncode, proc.stderr)
        return elapsed


class InProcessCli(_Cli):
    """``cli.main`` after a warm import, for the traced run."""

    parts = VERBS

    def op(self, verb: str) -> float:
        self._clear(verb)
        self.tally.attempted += 1
        self._ctx(VERB_TABLE[verb])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(_verb_argv(verb, self.out_dir))
            elapsed = time.perf_counter() - t0
        self._gate(verb, code, err.getvalue())
        return elapsed

