"""Outside-in tracer: spans and counts around the library's layers.

No library code changes.  While a :class:`Tracer` is installed, each traced
function is replaced at the place the library looks it up at call time, and
restored afterwards:

* ``expdelay.stepper.step_*``: ``step()`` dispatches through these globals;
* ``expdelay.stepper.phi_matrix_action`` and ``scipy.linalg.expm``, which
  both ``stepper._expm`` and ``phi_matrix_action`` call;
* ``expdelay.problems.integrate_view``, bound there at import, so wrapping
  ``expdelay.quadrature.integrate_view`` would miss every call;
* ``eval_many``, ``breakpoints`` and ``shift_append`` on the history classes;
* ``TrajectoryRecorder.__call__`` and ``expdelay.harness.format_csv``;
* the rhs of the problem, through a copy made by :meth:`Tracer.traced_problem`.

A span is ``(id, name, start, end, parent id)``; spans stay in memory until
:meth:`Tracer.save`.  A layer's self time is its span's duration minus the
time its child spans cover.  A call made inside a span of the layer that
absorbs it opens no span and is not counted: nested lookups (a stage view
reading its base) count once, and the continuity re-check that
``shift_append`` runs through ``eval_many`` is append time.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

from expdelay import HistoryState, StageView, TrajectoryRecorder, harness, problems, stepper

LOOKUP = "history.lookup"
APPEND = "history.append"
BREAKPOINTS = "history.breakpoints"
WINDOW = "quadrature.window"
EXPM = "phi.expm"
ACTION = "phi.action"
STEP = "stepper.self"
RHS = "problems.rhs"
RECORD = "harness.record"
CSV = "harness.csv"
SOLVE = "solve"

#: layers whose self time is reported; SOLVE's own self time is what no
#: layer covers (the integrate loop and the benchmark's per-step stamps)
LAYERS = (LOOKUP, APPEND, BREAKPOINTS, WINDOW, EXPM, ACTION, STEP, RHS, RECORD, CSV)


def _count_lookup(tracer, args):
    points = int(np.size(args[1]))
    tracer.counts["history.lookup_calls"] += 1
    tracer.counts["history.lookup_points"] += points
    if tracer.current() == WINDOW:
        tracer.counts["quadrature.nodes"] += points


def _count_append(tracer, args):
    tracer.counts["history.append_bytes"] += args[0].coefficients().nbytes


def _counter(name):
    def count(tracer, args):
        tracer.counts[name] += 1

    return count


# (owner, attribute, span name, spans that absorb the call, counter)
_TARGETS = (
    (stepper, "step_dde", STEP, (), _counter("stepper.steps")),
    (stepper, "step_re", STEP, (), _counter("stepper.steps")),
    (stepper, "step_semilinear_dde", STEP, (), _counter("stepper.steps")),
    (stepper, "step_coupled", STEP, (), _counter("stepper.steps")),
    (stepper, "phi_matrix_action", ACTION, (), _counter("phi.action_calls")),
    (scipy.linalg, "expm", EXPM, (), _counter("phi.expm_calls")),
    (problems, "integrate_view", WINDOW, (), _counter("quadrature.calls")),
    (HistoryState, "eval_many", LOOKUP, (LOOKUP, APPEND), _count_lookup),
    (StageView, "eval_many", LOOKUP, (LOOKUP, APPEND), _count_lookup),
    (HistoryState, "breakpoints", BREAKPOINTS, (BREAKPOINTS,), None),
    (StageView, "breakpoints", BREAKPOINTS, (BREAKPOINTS,), None),
    (HistoryState, "shift_append", APPEND, (), _count_append),
    (TrajectoryRecorder, "__call__", RECORD, (), None),
    (harness, "format_csv", CSV, (), None),
)


class Tracer:
    """Collects spans, per-layer self time and counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._saved: list[tuple] = []

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def _open(self, name):
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)

    def _close(self):
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        self.total_time[name] += dur
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((span_id, name, start, end, parent))

    def wrap(self, name, fn, absorbed_by=(), count=None):
        """``fn`` recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][1] in absorbed_by:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer, args)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def traced_problem(self, problem):
        """A copy of ``problem`` whose rhs is a span that counts its calls."""
        rhs = self.wrap(RHS, problem.rhs, count=_counter("stepper.rhs_calls"))
        return dataclasses.replace(problem, rhs=rhs)

    def solve(self, fn, *args):
        """Run ``fn(*args)`` as a root span with every target wrapped."""
        self.counts["solves"] += 1
        self._install()
        try:
            self._open(SOLVE)
            try:
                return fn(*args)
            finally:
                self._close()
        finally:
            self._uninstall()

    def _install(self):
        for owner, attr, name, absorbed_by, count in _TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, absorbed_by, count))

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write the spans as arrays: id, name index, start, end, parent."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            id=np.array([s[0] for s in self.spans], dtype=np.int64),
            name=np.array([index[s[1]] for s in self.spans], dtype=np.int16),
            start=np.array([s[2] for s in self.spans]),
            end=np.array([s[3] for s in self.spans]),
            parent=np.array([s[4] for s in self.spans], dtype=np.int64),
        )
