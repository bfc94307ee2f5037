"""Layered benchmark of the etmfd CLI: whole commands and each module.

Usage, from the root of a source checkout (no install needed; the
package is imported from ``src/``):

    python3 bench/run.py --workload converge_deep --seed 1 --seconds 40 --trace 0

Workloads and their seeded inputs are described in ``workloads.py``.
Load is one process and one client in a closed loop: each command starts
after the previous one has finished.  Commands run in-process through
``etmfd.cli.main`` with ``--threads 1``; BLAS/OpenMP threads are pinned
to 1 before numpy is imported.

``--trace 0`` (end to end, no tracing) makes full commands for
``--seconds``: the next one starts only if, at the speed of the fastest
one so far, it ends within that window.  It reports

* ``wall_s``: best (lowest) wall time of a full command;
* ``setup_s``: median time from the command's start to its first unit of
  work (first time step, or first dispersion row).  Sampled from every
  full command and from set-up-only commands that stop there; these run
  only while they fit in a tenth of the window;
* ``throughput_per_s``: best (highest) work rate of a command's main
  loop.  On the stepping workloads it is edge updates per second of
  stepping (edges x steps / time from the first step to the last step of
  each run); on ``anisotropy_dense`` it is dispersion rows per second of
  the sweep;
* ``peak_rss_mb``: peak resident set size of this process, read right
  after its first full command.

Wall time and throughput are best-of-N, not medians: the stepping
workloads fit only one to three full commands in a run, and on a shared
host the spread between commands comes from other tenants, whose load
can move the machine's speed by up to half for a minute or more; the
fastest command is the one they slowed least.  The run record keeps the
median, quartiles and count of every metric's samples.

The only hook in this mode is a boundary probe on ``run`` and ``step``
(two clock reads per step) or on the sweep.  The failure ratio is
``failed / attempted`` in the result line: an operation is a command
(full, set-up-only or warm-up) or one output check.

``--trace 1`` runs one untraced and one traced command and reports the
per-layer metrics of ``BENCHMARK.json`` (0 where a layer is not used by
the workload), from spans recorded around calls into each module's
public functions; see ``tracing.py``.  Step percentiles are over the
steps on the finest mesh; ``p99_ms`` falls back to the highest whole
percentile with at least ten samples beyond it (recorded in the run
record).  The SpMV split times ``A @ E`` and ``W @ y`` on that mesh's
operators after the command; its byte counts are computed from array
sizes, not measured traffic.  ``trace.overhead_frac`` is traced minus
untraced wall time over untraced wall time.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (machine, git
revision, source LOC, every metric with median, quartiles and sample
count, every check) and, when traced, the spans are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 51           # most set-up-only commands per run
SETUP_SHARE = 0.1         # of the window, for set-up-only commands
clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---- statistics -------------------------------------------------------------

def summary(samples) -> dict:
    """Median, quartiles and count of a sample list."""
    xs = [float(x) for x in samples]
    if not xs:
        return {"n": 0}
    if len(xs) == 1:
        return {"n": 1, "median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": statistics.median(xs), "q1": q1, "q3": q3}


def tail_percentile(n: int) -> int:
    """99, or the highest whole percentile with at least 10 samples
    beyond it."""
    return max(1, min(99, math.floor(100.0 * (1.0 - 10.0 / n)))) if n else 0


def percentile(xs, p: int) -> float:
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return statistics.quantiles(xs, n=100)[p - 1]


# ---- commands ---------------------------------------------------------------

class BenchRun:
    """One benchmark run: its inputs, operations and scratch space."""

    def __init__(self, name: str, seed: int, smoke: bool):
        import workloads
        self.name, self.seed = name, seed
        self.command, self.cfg = workloads.make_config(name, seed, smoke)
        OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.errors = []
        self.missing = []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _argv(self, cfg: dict):
        outdir = tempfile.mkdtemp(dir=self.workdir)
        path = os.path.join(outdir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return outdir, ["--config", path, "--out", outdir, "--threads", "1",
                        self.command]

    def _op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def command_once(self, cfg=None, patch=None, check=True):
        """Run one full command; returns (ok, wall seconds, start, outdir)."""
        from etmfd import cli
        from tracing import Patches
        outdir, argv = self._argv(cfg or self.cfg)
        with Patches() as patches, contextlib.redirect_stdout(io.StringIO()):
            if patch is not None:
                patch(patches)
            self.missing = patches.missing
            t0 = clock()
            try:
                rc = cli.main(argv)
                err = f"exit code {rc}"
            except Exception as exc:  # a crash is a failed operation
                rc, err = None, f"{type(exc).__name__}: {exc}"
            wall = clock() - t0
        ok = self._op(rc == 0, f"{self.command}: {err}")
        if ok and check:
            self.check(outdir)
        return ok, wall, t0, outdir

    def setup_once(self):
        """Run the command up to its first unit of work; returns seconds."""
        import workloads
        from etmfd import cli
        from tracing import Patches, SetupDone, stop_at_first_call
        outdir, argv = self._argv(self.cfg)
        with Patches() as patches, contextlib.redirect_stdout(io.StringIO()):
            mark = stop_at_first_call(patches,
                                      *workloads.SETUP_STOP[self.name])
            t0 = clock()
            try:
                rc = cli.main(argv)
                err = f"finished with exit code {rc} before its first step"
            except SetupDone:
                err = None
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(outdir, ignore_errors=True)
        if self._op(err is None, f"set-up only: {err}"):
            return mark["t"] - t0
        return None

    def check(self, outdir: str):
        import workloads
        try:
            results = workloads.check(self.name, self.cfg, outdir, self.seed)
        except Exception as exc:  # unreadable output fails its check
            results = [(f"{self.name}.output", False,
                        f"{type(exc).__name__}: {exc}")]
        for name, ok, detail in results:
            self._op(ok, f"check {name}: {detail}")
            self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        shutil.rmtree(outdir, ignore_errors=True)

    def warm_up(self):
        """One small command: lazy imports and first-call costs are paid
        here, not in the timed commands."""
        import workloads
        _, cfg = workloads.make_config(self.name, self.seed, smoke=True)
        self.command_once(cfg, check=False)

    @property
    def stepping(self) -> bool:
        return self.command in ("converge", "simulate")

    def probed_once(self):
        """A full command with only the boundary probe; returns samples."""
        from tracing import BoundaryProbe, SweepProbe
        probe = BoundaryProbe() if self.stepping else SweepProbe()
        ok, wall, t0, _ = self.command_once(patch=probe.install)
        if not ok:
            return None
        if self.stepping:
            if not probe.steps:
                self._op(False, "probe: no time step was observed")
                return None
            return {"wall": wall, "setup": probe.setup_end - t0,
                    "rate": probe.edge_updates / probe.stepping_s}
        if not probe.rows:
            self._op(False, "probe: no dispersion row was observed")
            return None
        return {"wall": wall, "rate": probe.rows / probe.seconds}


# ---- end to end -------------------------------------------------------------

def end_to_end(s: BenchRun, seconds: float) -> dict:
    """Metric name -> (unit, value, samples) of an untraced run."""
    s.warm_up()
    start = clock()
    reps = []
    first = s.probed_once()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is not None:
        reps.append(first)
    setups = [r["setup"] for r in reps if "setup" in r]
    spent = 0.0
    while reps and len(setups) < SETUP_REPS and (
            not setups
            or spent + statistics.median(setups) <= SETUP_SHARE * seconds):
        t = s.setup_once()
        if t is None:
            break
        setups.append(t)
        spent += t
    while reps and clock() - start + min(r["wall"] for r in reps) \
            <= seconds:
        rep = s.probed_once()
        if rep is None:
            break
        reps.append(rep)
        if "setup" in rep:
            setups.append(rep["setup"])
    walls = [r["wall"] for r in reps]
    rates = [r["rate"] for r in reps]
    return {
        "wall_s": ("s", min(walls, default=0.0), walls),
        "setup_s": ("s", statistics.median(setups) if setups else 0.0, setups),
        "throughput_per_s": ("1/s", max(rates, default=0.0), rates),
        "peak_rss_mb": ("MB", rss_mb, [rss_mb]),
    }


# ---- traced -----------------------------------------------------------------

SPANS = (  # (module, attribute, span name): call sites of each layer
    ("etmfd.cli", "build_mesh", "mesh.build"),
    ("etmfd.analysis", "build_mesh", "mesh.build"),
    ("etmfd.stepper", "interpolate_edge_field", "mesh.interpolate"),
    ("etmfd.analysis", "interpolate_edge_field", "mesh.interpolate"),
    ("etmfd.stepper", "assemble_W", "operators.assemble_W"),
    ("etmfd.stepper", "assemble_curl_curl", "operators.assemble_curl_curl"),
    ("etmfd.analysis", "assemble_M", "operators.assemble_M"),
    ("etmfd.analysis", "run", "stepper.run"),
    ("etmfd.cli", "run", "stepper.run"),
    ("etmfd.stepper", "initialize", "stepper.initialize"),
    ("etmfd.stepper", "step", "stepper.step"),
    ("etmfd.cli", "save_snapshot", "stepper.save_snapshot"),
    ("etmfd.analysis", "convergence_study", "analysis.convergence_study"),
    ("etmfd.analysis", "pick_probe_edge", "analysis.pick_probe"),
    ("etmfd.analysis", "fit_damped_cosine", "analysis.fit"),
    ("etmfd.analysis", "l2_relative_error", "analysis.l2_error"),
    ("etmfd.dispersion", "anisotropy_sweep", "dispersion.anisotropy_sweep"),
    ("etmfd.cli", "write_csv", "cli.write_csv"),
)
# Per-row hot calls of the dispersion sweep: no spans.  The exponential
# runs once per row inside the timed error evaluation, so it is only counted.
AGGREGATES = (
    ("etmfd.dispersion", "relative_dispersion_error", "dispersion.rde"),
)
COUNTS = (
    ("etmfd.stepper", "exp_operators", "plasma.exp_operators"),
    ("etmfd.dispersion", "exp_operators", "plasma.exp_operators"),
)


def _file_bytes(prefix: str) -> int:
    d, base = os.path.split(prefix)
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d or ".")
               if f.startswith(base + "."))


class TraceHooks:
    """Span attributes and the finest-mesh step operators."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.edges = 0
        self.ops = {}

    def install(self, patches):
        from tracing import RUN_SITES
        attach = {"stepper.step": self._step,
                  "operators.assemble_W": self._operator("W"),
                  "operators.assemble_curl_curl": self._operator("A"),
                  "analysis.fit": self._fit,
                  "stepper.save_snapshot": self._bytes(_file_bytes),
                  "cli.write_csv": self._bytes(os.path.getsize)}
        for module, attr, name in SPANS:
            patches.wrap(module, attr, self.tracer.span(name, attach.get(name)))
        for module, attr, name in AGGREGATES:
            patches.wrap(module, attr, self.tracer.aggregate(name))
        for module, attr, name in COUNTS:
            patches.wrap(module, attr, self.tracer.count(name))
        for site in RUN_SITES:  # outermost: the mesh size of the next steps
            patches.wrap(*site, self._mark_run)

    def _mark_run(self, fn):
        from tracing import config_edges

        @functools.wraps(fn)
        def run(*args, **kwargs):
            self.edges = config_edges(args, kwargs)
            return fn(*args, **kwargs)
        return run

    def _step(self, span, args, kwargs, result):
        span[4] = {"edges": self.edges}

    def _operator(self, key):
        def hook(span, args, kwargs, result):
            span[4] = {"nnz": int(result.nnz), "n": int(result.shape[0])}
            if key not in self.ops or result.shape[0] > self.ops[key].shape[0]:
                self.ops[key] = result
        return hook

    @staticmethod
    def _fit(span, args, kwargs, result):
        span[4] = {"iterations": int(result.iterations),
                   "converged": bool(result.converged)}

    @staticmethod
    def _bytes(size_of):
        def hook(span, args, kwargs, result):
            span[4] = {"bytes": size_of(args[0])}
        return hook


def time_call(fn, budget: float = 0.5, max_reps: int = 500) -> list:
    fn()
    out = []
    while len(out) < 5 or (sum(out) < budget and len(out) < max_reps):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


KERNEL_METRICS = (("stepper.step.spmv_A_ms", "ms"),
                  ("stepper.step.spmv_W_ms", "ms"),
                  ("stepper.step.vector_ms", "ms"),
                  ("stepper.step.bytes_computed", "bytes"),
                  ("stepper.step.gbs_computed", "GB/s"))


def kernel_split(ops: dict, step_s: float, seed: int) -> dict:
    """Time A @ E and W @ y apart on the finest mesh's step operators."""
    import numpy as np
    A, W = ops["A"], ops["W"]
    n = A.shape[1]
    x = np.random.default_rng(seed).standard_normal(n)
    y = A @ x
    ta = [t * 1e3 for t in time_call(lambda: A @ x)]
    tw = [t * 1e3 for t in time_call(lambda: W @ y)]
    # compulsory traffic from array sizes: matrix values, column indices
    # and row pointers; each SpMV reads and writes one vector; the E and
    # J updates read 5 + 3 vectors and write 2
    nbytes = sum(m.nnz * (m.data.itemsize + m.indices.itemsize)
                 + m.indptr.size * m.indptr.itemsize for m in (A, W)) \
        + (2 * 2 + 10) * 8 * n
    a, w = statistics.median(ta), statistics.median(tw)
    values = ((a, ta), (w, tw), (step_s * 1e3 - a - w, []), (nbytes, []),
              (nbytes / step_s / 1e9, []))
    return {name: (unit, v, xs)
            for (name, unit), (v, xs) in zip(KERNEL_METRICS, values)}


def per_layer(s: BenchRun) -> tuple:
    from tracing import Tracer
    s.warm_up()
    untraced = s.probed_once()
    tracer = Tracer()
    hooks = TraceHooks(tracer)
    root = tracer.open("cli.main")
    ok, wall_t, t0, outdir = s.command_once(patch=hooks.install, check=False)
    tracer.close(root)
    tracer.spans[root][1:3] = [t0, t0 + wall_t]  # the command alone
    if ok:
        s.check(outdir)

    def spans(name):
        return [sp for sp in tracer.spans if sp[0] == name]

    def total(*names):
        return [sp[2] - sp[1] for n in names for sp in spans(n)]

    m = {}
    for key, names in (("mesh.build_s", ("mesh.build",)),
                       ("mesh.interpolate_s", ("mesh.interpolate",)),
                       ("operators.assemble_s", ("operators.assemble_W",
                                                 "operators.assemble_curl_curl")),
                       ("operators.assemble_M_s", ("operators.assemble_M",)),
                       ("stepper.initialize_s", ("stepper.initialize",)),
                       ("stepper.save_snapshot_s", ("stepper.save_snapshot",)),
                       ("analysis.fit_s", ("analysis.fit",)),
                       ("analysis.l2_error_s", ("analysis.l2_error",)),
                       ("analysis.pick_probe_s", ("analysis.pick_probe",)),
                       ("cli.write_csv_s", ("cli.write_csv",))):
        xs = total(*names)
        m[key] = ("s", sum(xs), xs)

    def attr_sum(name, key):
        xs = [sp[4][key] for sp in spans(name)]
        return sum(xs), xs

    nnz = [max((sp[4]["nnz"] for sp in spans(n)), default=0)
           for n in ("operators.assemble_W", "operators.assemble_curl_curl")]
    m["operators.nnz_step"] = ("count", sum(nnz), nnz)
    calls, _ = tracer.counter("plasma.exp_operators")
    m["plasma.exp_operators.calls"] = ("count", calls, [])

    steps = spans("stepper.step")
    finest = max((sp[4]["edges"] for sp in steps), default=0)
    fine = [sp[2] - sp[1] for sp in steps if sp[4]["edges"] == finest]
    tail = tail_percentile(len(fine))
    p50 = statistics.median(fine) if fine else 0.0
    m["stepper.step.calls"] = ("count", len(steps), [])
    m["stepper.step.p50_ms"] = ("ms", p50 * 1e3, [x * 1e3 for x in fine])
    m["stepper.step.p99_ms"] = ("ms", percentile(fine, tail) * 1e3 if fine
                                else 0.0, [])
    selfs = tracer.self_times()
    loop = [selfs[i] for i, sp in enumerate(tracer.spans)
            if sp[0] == "stepper.run"]
    m["stepper.run.loop_s"] = ("s", sum(loop), loop)
    b, xs = attr_sum("stepper.save_snapshot", "bytes")
    m["stepper.save_snapshot.bytes"] = ("bytes", b, xs)

    if "A" in hooks.ops and "W" in hooks.ops and p50 > 0:
        m.update(kernel_split(hooks.ops, p50, s.seed))
    else:
        m.update({name: (unit, 0.0, []) for name, unit in KERNEL_METRICS})
    hooks.ops.clear()

    fits = [sp[4] for sp in spans("analysis.fit")]
    conv = sum(f["converged"] for f in fits)
    m["analysis.fit.iterations"] = ("count", sum(f["iterations"] for f in fits),
                                    [f["iterations"] for f in fits])
    m["analysis.fit.converged_ratio"] = ("ratio", conv / len(fits) if fits
                                         else 0.0, [])
    m["analysis.fit.nonconverged"] = ("count", len(fits) - conv, [])
    calls, secs = tracer.counter("dispersion.rde")
    m["dispersion.rde.calls"] = ("count", calls, [])
    m["dispersion.rde.us_per_call"] = ("us", secs / calls * 1e6 if calls
                                       else 0.0, [])
    b, xs = attr_sum("cli.write_csv", "bytes")
    m["cli.write_csv.bytes"] = ("bytes", b, xs)
    base = untraced["wall"] if untraced else 0.0
    m["trace.overhead_frac"] = ("ratio", (wall_t - base) / base if ok and base
                                else 0.0, [])
    extra = {"untraced_wall_s": base, "traced_wall_s": wall_t,
             "step_tail_percentile": tail, "finest_mesh_edges": finest}
    return m, tracer.dump(t0), extra


# ---- run record -------------------------------------------------------------

def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def git_revision() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if not sha:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha or f"unknown ({ref})"


def machine() -> dict:
    import numpy
    import scipy
    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = \
            _read(idx / "size")
    return {"cpu_model": model, "caches": caches, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def source_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "etmfd").glob("*.py")))


# ---- entry point ------------------------------------------------------------

def import_program():
    src = ROOT / "src"
    if not (src / "etmfd" / "__init__.py").is_file():
        raise BenchError(f"no etmfd sources under {src}; run from the root "
                         "of an etmfd checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for p in (str(src), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import etmfd
    if Path(etmfd.__file__).resolve().parent != (src / "etmfd").resolve():
        raise BenchError(f"etmfd was imported from {etmfd.__file__}, "
                         f"not from {src}")


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        import_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    s = BenchRun(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            raw, spans, extra = per_layer(s)
        else:
            raw = end_to_end(s, args.seconds)
            spans, extra = None, {}
    finally:
        s.close()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "command": s.command, "config": s.cfg,
        "git": git_revision(), "source_loc": source_loc(),
        "machine": machine(),
        "operations": {"attempted": s.attempted, "failed": s.failed,
                       "fail_ratio": s.failed / s.attempted},
        "errors": s.errors, "checks": s.checks,
        "missing_call_sites": sorted(set(s.missing)), **extra,
        "metrics": {k: {"value": v, "unit": u, "samples": summary(xs)}
                    for k, (u, v, xs) in raw.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")

    for k, (u, v, xs) in raw.items():
        st = summary(xs)
        print(f"{k:32s} {v:14.6g} {u:6s} n={st['n']}"
              + (f" q1={st['q1']:.6g} q3={st['q3']:.6g}" if st["n"] > 1 else ""))
    for e in s.errors:
        print(f"FAILED {e}")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (u, v, xs) in raw.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
