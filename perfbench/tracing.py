"""Spans around calls into the package, recorded from outside it.

:class:`Tracer` rebinds public names of ``imbilliards`` modules and methods
of its curve classes to timing wrappers, and restores them on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.  Each span holds
its name, the tracer's current context (the table or verb the benchmark is
working on), start, end, parent and the error tag it raised, if any.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from pathlib import Path

import imbilliards.cli as _cli  # noqa: F401  (imports every module traced below)
from imbilliards import collision, curves, dynamics, families, rotation, stability

# (module, function names) whose calls become spans
FUNCTIONS = [
    (collision, ("chord_exit", "larmor_reentry")),
    (dynamics, ("step", "iterate", "jacobian_analytic", "jacobian_numeric")),
    (stability, ("stability_matrix", "classify")),
    (families, ("find_periodic_newton", "scan_family")),
    (rotation, ("rot_lambda", "rotation_table")),
]
#: curve methods whose calls become spans, wherever a curve class defines them
QUERIES = ("point_at", "tangent_at", "curvature_at", "locate")
#: family constructors: every public ``<n>_periodic_<table>`` function
CONSTRUCTORS = tuple(
    name for name, fn in vars(families).items()
    if inspect.isfunction(fn) and "_periodic_" in name and not name.startswith("_")
)

# Span fields, stored as lists for speed.
NAME, CTX, START, END, PARENT, ERROR, RESULT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.ctx = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _span(self, name: str, fn, keep=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, self.ctx, 0.0, 0.0, stack[-1] if stack else -1, "", None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[RESULT] = keep(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.ctx)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def _rebind(self, original, wrapper) -> None:
        """Point every ``imbilliards`` module name bound to ``original`` at
        ``wrapper``, so calls through ``from .x import f`` are seen too."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "imbilliards" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_class(self, cls, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        for module, names in FUNCTIONS:
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    self._rebind(fn, self._span(f"{module.__name__.split('.')[-1]}.{name}", fn))
        for name in CONSTRUCTORS:
            fn = getattr(families, name)
            self._rebind(fn, self._span(f"families.construct.{name}", fn))
        # Private hook, optional: Newton's residual evaluations, for the
        # accepted-iteration count.
        state = getattr(families, "_newton_state", None)
        if state is not None:
            self._rebind(state, self._span(
                "families._newton_state", state, keep=lambda r: None if r is None else r[2]))
        for cls in vars(curves).values():
            if not (inspect.isclass(cls) and issubclass(cls, curves.Curve)):
                continue
            for attr in QUERIES:
                if attr in cls.__dict__:
                    self._patch_class(cls, attr, self._span(f"curves.{attr}", cls.__dict__[attr]))
            if "__init__" in cls.__dict__ and not inspect.isabstract(cls):
                self._patch_class(cls, "__init__", self._span("curves.ctor", cls.__dict__["__init__"]))
        table = getattr(curves, "ArclengthTable", None)
        if table is not None and "t_of_s" in table.__dict__:
            self._patch_class(table, "t_of_s", self._counter("curves.t_of_s", table.__dict__["t_of_s"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------
    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Duration minus the time covered by direct child spans, for each
        span with index in ``[lo, hi)``."""
        spans = self.spans
        hi = len(spans) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            parent = spans[i][PARENT]
            if parent >= lo:
                child[parent - lo] += spans[i][END] - spans[i][START]
        return [spans[i][END] - spans[i][START] - child[i - lo] for i in range(lo, hi)]

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.spans[index][PARENT]
        while parent >= 0 and self.spans[parent][NAME] != name:
            parent = self.spans[parent][PARENT]
        return parent

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "parent", "name", "ctx", "start_us", "end_us", "error"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                out.writerow([i, s[PARENT], s[NAME], s[CTX],
                              f"{(s[START] - t0) * 1e6:.1f}", f"{(s[END] - t0) * 1e6:.1f}", s[ERROR]])
