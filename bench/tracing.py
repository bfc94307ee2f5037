"""Call-site instrumentation for the benchmark.

Everything here wraps public functions of ``etmfd`` from the outside, by
replacing the module attribute that the caller looks up (for example
``etmfd.stepper.step``, which ``stepper.run`` calls through its module
globals).  Nothing under ``src/`` knows about it.  ``Patches`` restores
every replaced attribute on exit.

Two instruments exist:

* ``BoundaryProbe`` is the only hook of an untraced run.  It marks where
  stepping starts and ends inside each ``run`` call, so a run can split
  its wall time into set-up and stepping without timing every layer.
* ``Tracer`` records spans (name, start, end, parent) in memory at every
  layer boundary, plus aggregated counters (calls, or calls and time) for
  the per-row hot calls of the dispersion sweep, where one span per call
  would distort the measurement.
"""

from __future__ import annotations

import functools
import importlib
import time


class Patches:
    """Replace module attributes and restore them on exit.

    Attributes that do not exist are skipped and listed in ``missing``,
    so the benchmark can report a call site that a later version of the
    program no longer has instead of crashing on it.
    """

    def __init__(self):
        self._saved = []
        self.missing = []

    def wrap(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# Call sites of the stepping loop: ``run`` as the command layers call it
# and ``step`` as ``run`` calls it.
RUN_SITES = (("etmfd.analysis", "run"), ("etmfd.cli", "run"))
STEP_SITE = ("etmfd.stepper", "step")


def config_edges(args, kwargs) -> int:
    """Edge count of the mesh in a ``run(config, ...)`` call."""
    config = kwargs.get("config", args[0] if args else None)
    return int(config.mesh.n_edges)


class BoundaryProbe:
    """Stepping interval of every ``run`` call: first step start to last
    step end, with the edge updates done inside it.

    ``setup_end`` is the start of the first step of the first run, i.e.
    the end of the command's set-up.  Costs two clock reads per step.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.setup_end = None
        self.stepping_s = 0.0
        self.edge_updates = 0
        self.steps = 0
        self._edges = 0
        self._start = None
        self._end = None

    def install(self, patches: Patches) -> None:
        for site in RUN_SITES:
            patches.wrap(*site, self._wrap_run)
        patches.wrap(*STEP_SITE, self._wrap_step)

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self._edges = config_edges(args, kwargs)
            self._start = self._end = None
            n0 = self.steps
            try:
                return fn(*args, **kwargs)
            finally:
                if self._start is not None:
                    self.stepping_s += self._end - self._start
                    self.edge_updates += self._edges * (self.steps - n0)
        return run

    def _wrap_step(self, fn):
        clock = self.clock

        @functools.wraps(fn)
        def step(*args, **kwargs):
            if self._start is None:
                self._start = clock()
                if self.setup_end is None:
                    self.setup_end = self._start
            out = fn(*args, **kwargs)
            self._end = clock()
            self.steps += 1
            return out
        return step


class SweepProbe:
    """Rows produced by ``dispersion.anisotropy_sweep`` and the time spent
    in it, for the dispersion workload's throughput."""

    SITE = ("etmfd.dispersion", "anisotropy_sweep")

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.rows = 0
        self.seconds = 0.0

    def install(self, patches: Patches) -> None:
        patches.wrap(*self.SITE, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def sweep(*args, **kwargs):
            t0 = self.clock()
            rows = fn(*args, **kwargs)
            self.seconds += self.clock() - t0
            self.rows += len(rows)
            return rows
        return sweep


class SetupDone(Exception):
    """Raised at the first unit of work to end a set-up-only command.

    Derives from ``Exception`` only, so the CLI's error mapping (which
    catches ``ValueError`` and arithmetic errors) lets it through.
    """


def stop_at_first_call(patches: Patches, module_name: str, attr: str,
                       clock=time.perf_counter) -> dict:
    """Make the first call of ``module.attr`` raise ``SetupDone``.

    Returns a dict whose ``"t"`` entry receives the clock reading at
    that call.
    """
    mark = {}

    def make(fn):
        @functools.wraps(fn)
        def first_call(*args, **kwargs):
            mark["t"] = clock()
            raise SetupDone(f"{module_name}.{attr}")
        return first_call

    patches.wrap(module_name, attr, make)
    return mark


class Tracer:
    """In-memory spans and aggregated counters.

    A span is ``[name, start, end, parent, attrs]``; ``parent`` is the
    index of the innermost span open when it began, or -1.  Aggregated
    calls keep only ``calls`` and total ``seconds`` per name; the time of
    the outermost aggregated call is charged to the enclosing span as
    child time, so self times stay correct.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self._stack = []
        self._agg_child = {}
        self._agg_depth = 0

    # ---- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of "
                               f"order (innermost is {popped})")

    def span(self, name: str, on_result=None):
        """Wrapper factory: one span per call; ``on_result(span, args,
        kwargs, result)`` may attach attributes after the call."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_result is not None:
                    on_result(self.spans[idx], args, kwargs, result)
                return result
            return traced
        return make

    def aggregate(self, name: str):
        """Wrapper factory: count calls and total time, no spans."""
        counters = self.counters
        counters.setdefault(name, [0, 0.0])
        clock = self.clock

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._agg_depth += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self._agg_depth -= 1
                    entry = counters[name]
                    entry[0] += 1
                    entry[1] += dt
                    if self._agg_depth == 0 and self._stack:
                        top = self._stack[-1]
                        self._agg_child[top] = self._agg_child.get(top, 0.0) + dt
            return counted
        return make

    def count(self, name: str):
        """Wrapper factory: count calls only, without reading the clock.
        The callee's time stays in whatever encloses it."""
        entry = self.counters.setdefault(name, [0, 0.0])

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # ---- queries -------------------------------------------------------

    def self_times(self) -> list:
        """Duration minus child spans minus aggregated child time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] - self._agg_child.get(i, 0.0)
                for i, s in enumerate(self.spans)]

    def counter(self, name: str) -> tuple:
        calls, seconds = self.counters.get(name, (0, 0.0))
        return calls, seconds

    def dump(self, t0: float) -> dict:
        """Spans relative to ``t0`` and counters, for the run's span file."""
        return {
            "spans": [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                       "parent": s[3], **({"attrs": s[4]} if s[4] else {})}
                      for s in self.spans],
            "counters": {k: {"calls": v[0], "seconds": v[1]}
                         for k, v in self.counters.items()},
        }
