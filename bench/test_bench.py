"""Tests of the benchmark itself, on its small-size smoke mode.

Run from the repository root:  python -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--smoke"])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_self_time_arithmetic():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("outer")                              # t = 0
    inner = tr.open("inner")                              # t = 1
    tr.close(inner)                                       # t = 2
    tr.aggregate("row")(lambda: tr.aggregate("exp")(lambda: None)())()
    # row: 3..6, exp inside it: 4..5; only the outermost is charged
    leaf = tr.open("leaf")                                # t = 7
    tr.close(leaf)                                        # t = 8
    tr.close(outer)                                       # t = 9
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert tr.self_times() == [9 - 1 - 1 - 3, 1, 1]
    assert tr.counter("row") == (1, 3.0)
    assert tr.counter("exp") == (1, 1.0)
    tr.count("n")(lambda: None)()
    assert tr.counter("n") == (1, 0.0)
    with pytest.raises(RuntimeError):
        a = tr.open("a")
        tr.open("b")
        tr.close(a)


def test_patches_restore_and_report_missing():
    import etmfd.stepper as stepper
    original = stepper.step
    with tracing.Patches() as p:
        p.wrap("etmfd.stepper", "step", lambda fn: "wrapped")
        p.wrap("etmfd.stepper", "no_such_function", lambda fn: fn)
        assert stepper.step == "wrapped"
    assert stepper.step is original
    assert p.missing == ["etmfd.stepper.no_such_function"]


def test_tail_percentile():
    assert run.tail_percentile(2000) == 99
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(49) == 79
    assert run.tail_percentile(50) == 80


def test_inputs_follow_the_seed():
    import workloads
    for name in WORKLOADS:
        assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
        assert workloads.make_config(name, 7) != workloads.make_config(name, 8)


def test_converge_check_rejects_wrong_rates(tmp_path):
    import workloads
    _, cfg = workloads.make_config("converge_deep", 1, smoke=True)
    rows = ["log2_h,scheme,field,err_l2,rate_l2,err_disp,rate_disp"]
    for scheme, rate in (("etmfd", 4.0), ("et-yee", 3.0)):
        for field in ("E", "J"):
            for lvl in cfg["log2_h"]:
                rows.append(f"{lvl},{scheme},{field},1e-6,{rate},1e-7,{rate}")
    (tmp_path / cfg["out"]).write_text("\n".join(rows) + "\n")
    bad = [name for name, ok, _ in workloads.check("converge_deep", cfg,
                                                   str(tmp_path), 1) if not ok]
    assert bad and all(".et-yee." in name for name in bad)


def test_anisotropy_check_rejects_perturbed_rows(tmp_path):
    import workloads
    from etmfd import cli
    _, cfg = workloads.make_config("anisotropy_dense", 2, smoke=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path),
                         "anisotropy"]) == 0
    assert all(ok for _, ok, _ in workloads.check("anisotropy_dense", cfg,
                                                  str(tmp_path), 2))
    path = tmp_path / "anisotropy_gamma1.csv"
    lines = path.read_text().splitlines()
    cells = lines[1:]
    for i, line in enumerate(cells):  # scale every re_err by 1 + 1e-6
        c = line.split(",")
        c[5] = repr(float(c[5]) * (1 + 1e-6))
        cells[i] = ",".join(c)
    path.write_text("\n".join([lines[0]] + cells) + "\n")
    failed = [name for name, ok, _ in workloads.check("anisotropy_dense", cfg,
                                                      str(tmp_path), 2) if not ok]
    assert failed == ["anisotropy.gamma1.bloch_oracle"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
