import builtins
import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from etmfd import analysis, cli, operators, selftest, stepper
from etmfd.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, CliError, main
from etmfd.analysis import make_exact_solution, mode_dofs
from etmfd.mesh import build_mesh
from etmfd.operators import MfdParams, optimal_params
from etmfd.plasma import Medium, RegimeError
from etmfd.stepper import UnstableSimulationError, load_snapshot


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_params_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {"nu": 0.5, "gamma": 1})
    assert main(["--config", cfg, "params"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w2 = -0.0208333" in out
    assert "0.5625" in out
    # these are the defaults: no config prints the same bytes
    assert main(["params"]) == EXIT_OK
    assert capsys.readouterr().out == out


def test_params_zero_courant(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {"nu": 0, "gamma": 1})
    assert main(["--config", cfg, "params"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w1 = 0.333333" in out and "w2 = 0" in out
    assert "nu_max = 0.707107" in out
    assert "-0" not in out.split()  # the zero entries of W print as 0


def test_roots_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "r.json", {"k": 4.442882938158366})
    assert main(["--config", cfg, "roots"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decay a = -0.0230958" in out
    assert "frequency b = 4.54913" in out


@pytest.mark.parametrize("argv", [["params", "--nu", "0.5"],
                                  ["params", "--gamma", "1"],
                                  ["roots", "--k", "4"]],
                         ids=["params-nu", "params-gamma", "roots-k"])
def test_params_and_roots_take_no_options(argv, capsys):
    # nu, gamma and k come from the config alone
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["--threads", "1", argv[0]]) == EXIT_OK


def test_converge_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"log2_h": [-3, -4], "T": 1.0, "schemes": ["etmfd"]})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "converge"]) == EXIT_OK
    with open(tmp_path / "out" / "converge.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"log2_h", "scheme", "field", "err_l2",
                              "rate_l2", "err_disp", "rate_disp"}
    assert len(rows) == 4
    rates = [float(r["rate_l2"]) for r in rows if r["field"] == "E"][1:]
    assert 3.5 < rates[0] < 4.5


def test_converge_empty_h_list(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"log2_h": []})
    assert main(["--config", cfg, "converge"]) == EXIT_VALIDATION


def test_converge_infinite_T_is_invalid_input(tmp_path, capsys):
    # json reads Infinity: refused as input, not a crash in the step count
    cfg = write_config(tmp_path, "c.json", {"log2_h": [-3], "T": float("inf")})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "converge"]) == EXIT_VALIDATION
    assert "final time must be finite" in capsys.readouterr().err


def test_converge_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"not_a_key": 1})
    assert main(["--config", cfg, "converge"]) == EXIT_VALIDATION


def test_missing_config_file():
    assert main(["--config", "/no/such/file.json", "converge"]) == EXIT_VALIDATION


def test_invalid_medium(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"medium": {"omega_i": 5.0, "omega_p": 1.0}})
    assert main(["--config", cfg, "roots"]) == EXIT_VALIDATION


def test_converge_byte_stable(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"log2_h": [-3], "T": 0.5})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", cfg, "--out", out1, "converge"]) == EXIT_OK
    assert main(["--config", cfg, "--out", out2, "converge"]) == EXIT_OK
    b1 = (tmp_path / "a" / "converge.csv").read_bytes()
    b2 = (tmp_path / "b" / "converge.csv").read_bytes()
    assert b1 == b2


def test_write_csv_is_the_per_cell_join(tmp_path):
    def cell(v):  # each cell on its own, floats at full precision
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    def per_cell_join(row):
        return ",".join(cell(v) for v in row) + "\n"

    nan, inf = float("nan"), float("inf")
    pool = [0.0, -0.0, 0.1, 1 / 3, 1e-300, -2.5, nan, -nan, inf, -inf]
    draw = np.random.default_rng(5).integers(len(pool), size=(200, 3))
    probe = [np.arange(4) / 3, -np.arange(4) * 0.5, np.float32([0.1] * 4)]
    cases = {
        "mixed": [(0.1, np.float64(2.5), 3, "etmfd", -0.0),
                  (np.float64(-0.0), 1e-300, np.int64(7), True, nan),
                  (1 / 3, np.float32(0.1), -2, "et-yee", 12.0)],
        # one float column holding both zeros: keyed on bits, not values
        "signed-zeros": [(0.0,), (-0.0,), (0.0,), (-0.0,)],
        "nan-inf": [(nan, inf), (-inf, -nan), (nan, 1.0), (inf, nan)],
        "repeated": [tuple(pool[i] for i in row) for row in draw],
        "int-and-bool": [(12, True, 12.0), (12.0, 1, 12.0), (12, 1, -0.0)],
        "numpy-floats": [(np.float64(0.1), 0.1), (0.1, np.float32(0.1)),
                         (-0.0, np.float64(-0.0)), (np.float32(-0.0), 0.0)],
        "empty": [],
        # a column of exact ints, or of exact strs, keyed on its values
        "ints": [(3,), (-7,), (2**64 + 1,), (3,), (-7,), (0,), (2**64 + 1,)],
        "strs": [("etmfd",), ("",), ("et-yee",), ("",), ("etmfd",)],
        # neither: formatted cell by cell
        "bools": [(True,), (False,), (True,), (True,)],
        "numpy-int-and-int": [(np.int64(7),), (7,), (-2,), (np.int64(-2),)],
        # more rows than one write takes, one column of empty lines
        "blank-lines": [("",)] * 2049,
        "long": [(pool[i], ("etmfd", "et-yee", "")[i % 3], 12 * (i % 4))
                 for i in draw[:, 0].tolist() * 13],
    }
    for name, rows in cases.items():
        path = tmp_path / f"{name}.csv"
        header = [f"c{j}" for j in range(len(rows[0]) if rows else 2)]
        cli.write_csv(str(path), header, rows)
        want = ",".join(header) + "\n" + "".join(map(per_cell_join, rows))
        assert path.read_text() == want, name
    # simulate passes its probe traces as a zip of numpy arrays
    cli.write_csv(str(tmp_path / "probe.csv"), ["t", "E", "J"], zip(*probe))
    assert (tmp_path / "probe.csv").read_text() == "t,E,J\n" + "".join(
        map(per_cell_join, zip(*probe)))
    # zip(*rows) would drop the cells past the shortest row
    with pytest.raises(ValueError):
        cli.write_csv(str(tmp_path / "ragged.csv"), ["a", "b"],
                      [(0.5, 1.5), (2.5,)])
    assert not (tmp_path / "ragged.csv").exists()


def test_anisotropy_command(tmp_path):
    cfg = write_config(tmp_path, "a.json",
                       {"ppw": [12, 24], "n_theta": 16, "k": 4.0})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "anisotropy"]) == EXIT_OK
    with open(tmp_path / "out" / "anisotropy.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16 * 2 * 2  # theta x ppw x schemes
    # optimal member beats Yee everywhere at 12 points per wavelength
    opt = [float(r["abs_err"]) for r in rows
           if r["scheme"] == "etmfd" and r["ppw"] == "12"]
    yee = [float(r["abs_err"]) for r in rows
           if r["scheme"] == "et-yee" and r["ppw"] == "12"]
    assert max(opt) < min(yee)


def test_anisotropy_gamma_sweep(tmp_path):
    cfg = write_config(tmp_path, "a.json",
                       {"ppw": [12], "n_theta": 8, "gammas": [0.25, 1.0, 4.0],
                        "nu_rule": "gamma_cubed", "fixed_cell_area": True,
                        "schemes": ["etmfd"]})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "anisotropy"]) == EXIT_OK
    for g in ("0.25", "1", "4"):
        assert (tmp_path / "out" / f"anisotropy_gamma{g}.csv").exists()


def test_anisotropy_checks_every_output_name_before_any_sweep(tmp_path,
                                                              capsys):
    # the first gamma's CSV was written, then the second's open failed
    (tmp_path / "anisotropy_gamma1.csv").mkdir()
    cfg = write_config(tmp_path, "a.json", {"gammas": [0.25, 1], "n_theta": 4})
    assert main(["--config", cfg, "--out", str(tmp_path), "anisotropy"]) \
        == EXIT_VALIDATION
    assert "gamma1.csv' to be a file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "anisotropy_gamma1.csv"]


def test_simulate_command(tmp_path, monkeypatch):
    runs = record_runs(monkeypatch)
    cfg = write_config(tmp_path, "s.json",
                       {"nx": 8, "ny": 8, "T": 0.5, "snapshot_stride": 4})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "simulate"]) == EXIT_OK
    outdir = tmp_path / "out" / "sim_out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["steps"] == 8  # T=0.5, dt = 0.5/8
    assert summary["snapshots"] == 3
    probe_files = list(outdir.glob("probe_*.csv"))
    assert len(probe_files) == 1
    with open(probe_files[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["steps"] + 1
    assert float(rows[0]["t"]) == 0.0
    # each snapshot, written as it was taken, holds its own step's fields
    [probe], [state] = summary["probes"], runs
    for n in (0, 4, 8):
        meta, E, J = load_snapshot(str(outdir / f"snapshot_{n:06d}"))
        assert meta["step"] == n
        assert len(E) == len(J) == meta["n_edges"]
        assert (E[probe], J[probe]) == (float(rows[n]["E"]),
                                        float(rows[n]["J"]))
    assert np.array_equal(E, state.E)
    assert np.array_equal(J, state.J())


def test_simulate_that_blows_up_keeps_the_snapshots_taken_before(
        tmp_path, capsys, monkeypatch):
    real = stepper.step

    def blows_up_at_step_5(state, ops):
        m = real(state, ops)
        if state.n == 5:  # an inf bound: run takes the exact max, also inf
            state.E[:] = math.inf
            return math.inf
        return m

    monkeypatch.setattr(stepper, "step", blows_up_at_step_5)
    cfg = write_config(tmp_path, "s.json",
                       {"nx": 8, "ny": 8, "T": 0.5, "snapshot_stride": 2})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: instability at step 5 ")
    assert err.count("\n") == 1 and "Traceback" not in err
    # no summary.json marks the run incomplete; steps 0, 2 and 4 stay
    outdir = tmp_path / "o" / "sim_out"
    assert sorted(p.name for p in outdir.iterdir()) == [
        f"snapshot_{n:06d}.{ext}" for n in (0, 2, 4)
        for ext in ("E.bin", "J.bin", "json")]
    assert [load_snapshot(str(outdir / f"snapshot_{n:06d}"))[0]["step"]
            for n in (0, 2, 4)] == [0, 2, 4]


@pytest.mark.parametrize("entries, message", [
    pytest.param({"nx": 8, "ny": 4, "Ly": 0.5},
                 "ky Ly / pi = 0.5 is not an integer", id="Ly-half"),
    pytest.param({"nx": 12, "Lx": 1.5}, "kx Lx / pi = 1.5 is not an integer",
                 id="Lx-1.5"),
    # gamma = 1/4: nu_max = 0.2425
    pytest.param({"Lx": 2.0, "Ly": 0.5, "ky_pi": 3, "nu": 0.2},
                 "ky Ly / pi = 1.5 is not an integer", id="ky_pi-3-Ly-half"),
])
def test_simulate_refuses_a_mode_not_vanishing_on_the_walls(entries, message,
                                                           tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"nx": 8, "ny": 8, "T": 0.5,
                                            **entries})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) \
        == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entries", [
    pytest.param({"nx": 8, "ny": 4, "Ly": 0.5, "ky_pi": 2}, id="Ly-half"),
    # the half-wave of Ly = 2: refused while the mode check ignored the
    # domain and wanted ky in pi Z
    pytest.param({"nx": 16, "ny": 32, "Ly": 2.0, "ky_pi": 0.5},
                 id="Ly-2-half-wave"),
    pytest.param({"nx": 16, "ny": 8, "Lx": 2.0, "kx_pi": 3}, id="Lx-2"),
    pytest.param({"nx": 4, "ny": 8, "Lx": 0.5, "kx_pi": 4, "ky_pi": 3},
                 id="Lx-half")])
def test_simulate_runs_a_mode_vanishing_on_non_unit_walls(entries, tmp_path):
    cfg = write_config(tmp_path, "s.json", {"T": 0.5, **entries})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_OK
    # the mode the guard admits has no tangential E on the walls
    mesh = build_mesh(entries["nx"], entries["ny"], entries.get("Lx", 1.0),
                      entries.get("Ly", 1.0))
    sol = make_exact_solution(entries.get("kx_pi", 1) * np.pi,
                              entries.get("ky_pi", 1) * np.pi, Medium())
    v = mode_dofs(stepper.SimConfig(mesh=mesh, medium=Medium(),
                                    scheme="etmfd", nu=0.5, T=0.5), sol).v
    assert np.abs(v[mesh.boundary_edge_mask]).max() < 1e-13 * np.abs(v).max()


def test_converge_refuses_a_mode_not_vanishing_on_the_unit_square(
        tmp_path, capsys, monkeypatch):
    runs = record_runs(monkeypatch)
    cfg = write_config(tmp_path, "c.json", {"kx_pi": 0.5, "log2_h": [-3]})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "converge"]) \
        == EXIT_VALIDATION
    assert "kx Lx / pi = 0.5 is not an integer" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"nx": 1, "ny": 1}), ("converge", {"log2_h": [0, -1]})])
def test_auto_probe_on_a_mesh_without_interior_edges_names_the_cause(
        command, payload, tmp_path, capsys):
    # it picked wall edge 0, which SimConfig then refused as a probe the
    # user never gave
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "has no interior edge to probe" in err
    assert "boundary edge" not in err
    assert not out.exists()


def record_runs(monkeypatch) -> list:
    """The final state of every run a command starts, in order."""
    results = []
    real = analysis.run

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(analysis, "run", recorded)
    return results


# each ran to the end, then died with a traceback at the write
@pytest.mark.parametrize("command, out, make, message", [
    pytest.param("simulate", "taken", "file", "taken' to be a directory",
                 id="simulate-out-is-a-file"),
    pytest.param("converge", "taken", "dir", "taken' to be a file",
                 id="converge-out-is-a-directory"),
    pytest.param("converge", "taken/c.csv", "file",
                 "taken' to be a directory", id="converge-out-below-a-file"),
    pytest.param("simulate", "taken/a/b", "file", "taken' to be a directory",
                 id="simulate-out-below-a-file"),
    pytest.param("converge", "fresh/", "dir", "names a directory",
                 id="converge-out-ends-in-a-slash"),
])
def test_out_of_the_wrong_kind_is_refused_before_any_run(
        command, out, make, message, tmp_path, capsys, monkeypatch):
    runs = record_runs(monkeypatch)
    if make == "file":
        (tmp_path / "taken").write_text("keep")
    else:
        (tmp_path / "taken").mkdir()
    cfg = write_config(tmp_path, "c.json", {"out": out, "T": 0.5})
    assert main(["--config", cfg, "--out", str(tmp_path), command]) \
        == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert runs == []
    assert make == "dir" or (tmp_path / "taken").read_text() == "keep"


@pytest.mark.parametrize("command, payload, message", [
    # simulate ran 128 steps of zeros and exited 0; converge ran a level,
    # then exited 2 on the zero M-norm of the reference
    pytest.param("simulate", {"kx_pi": 0, "ky_pi": 0},
                 "kx = ky = 0 is the zero field", id="simulate-zero-mode"),
    pytest.param("converge", {"kx_pi": 0, "ky_pi": 0, "log2_h": [-3, -4],
                              "T": 0.5},
                 "kx = ky = 0 is the zero field", id="converge-zero-mode"),
    # a level ran, then its fit found the trace too short: 2 samples, and
    # 13 at 2^-5 before 7 at 2^-4
    pytest.param("converge", {"T": 0.01, "log2_h": [-4, -5]},
                 "fewer than the 8 a fit needs", id="converge-2-samples"),
    pytest.param("converge", {"T": 0.1875, "log2_h": [-5, -4]},
                 "fewer than the 8 a fit needs", id="converge-7-samples-late"),
    # the whole etmfd sweep ran before the label was met
    pytest.param("converge", {"schemes": ["etmfd", "bogus"], "T": 0.5,
                              "log2_h": [-3]},
                 "unknown scheme 'bogus'", id="converge-unknown-scheme-late"),
    # every level ran, then the write died with a traceback
    pytest.param("converge", {"out": "", "T": 0.5, "log2_h": [-3]},
                 '"out" must not be empty', id="converge-empty-out"),
    pytest.param("simulate", {"out": "", "T": 0.5},
                 '"out" must not be empty', id="simulate-empty-out"),
])
def test_unusable_runs_are_refused_before_any_run(
        command, payload, message, tmp_path, capsys, monkeypatch):
    runs = record_runs(monkeypatch)
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) \
        == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_simulate_and_converge_run_the_mode_to_the_same_bits(tmp_path,
                                                            monkeypatch):
    # the default simulate is the 2^-4 etmfd level of the default converge
    traces = []
    real = analysis.run_standing_mode

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr(analysis, "run_standing_mode", recorded)
    assert main(["--out", str(tmp_path / "s"), "simulate"]) == EXIT_OK
    cfg = write_config(tmp_path, "c.json",
                       {"log2_h": [-4], "schemes": ["etmfd"]})
    assert main(["--config", cfg, "--out", str(tmp_path / "c"),
                 "converge"]) == EXIT_OK
    sim, conv = traces
    assert sim.keys() == conv.keys()
    for e in sim:
        assert np.array_equal(sim[e], conv[e])  # the E and J traces


@pytest.mark.parametrize("command, payload, runs", [
    ("simulate", {"nx": 8, "ny": 8, "T": 0.5}, 1),
    ("converge", {"log2_h": [-3, -4], "T": 0.5}, 4)],
    ids=["simulate", "converge"])
def test_each_run_resolves_its_scheme_label_once(command, payload, runs,
                                                 tmp_path, monkeypatch):
    # one params_for_scheme call per run, however often its weights are read
    calls = []
    real = stepper.params_for_scheme
    monkeypatch.setattr(stepper, "params_for_scheme",
                        lambda *args: calls.append(args) or real(*args))
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 command]) == EXIT_OK
    assert len(calls) == runs


def test_simulate_instability_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    cfg = write_config(tmp_path, "s.json", {"nx": 8, "ny": 8, "nu": 5.0,
                                            "T": 50.0})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_NUMERICAL


@pytest.mark.parametrize("entries", [
    pytest.param({"nx": 32, "ny": 32, "nu": 1.0}, id="nu-1"),
    pytest.param({"nx": 16, "ny": 16, "Ly": 0.5, "ky_pi": 2}, id="gamma-half")])
def test_simulate_refuses_nu_past_the_stability_limit(entries, tmp_path,
                                                      capsys):
    # both ran to the 1e12 blow-up guard and exit 2, at steps 63 and 94
    cfg = write_config(tmp_path, "s.json", {"T": 8.0, **entries})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) \
        == EXIT_VALIDATION
    assert "above the stability limit nu_max" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_vanishing_alpha3_exit_code(tmp_path, monkeypatch):
    real = stepper.exp_operators
    monkeypatch.setattr(stepper, "exp_operators", lambda medium, dt:
                        dataclasses.replace(real(medium, dt), alpha3=0.0))
    cfg = write_config(tmp_path, "s.json", {"nx": 8, "ny": 8, "T": 0.5})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_NUMERICAL
    assert not (tmp_path / "o").exists()


def test_selftest_command():
    assert main(["selftest"]) == EXIT_OK


def test_selftest_missing_config_is_usage_error():
    assert main(["--config", "/no/such.json", "selftest"]) == EXIT_VALIDATION


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["0", "2", "-3"])
def test_threads_other_than_one_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", value, "roots"])
    assert exc.value.code == EXIT_VALIDATION
    assert "argument --threads: invalid choice" in capsys.readouterr().err


# the argv that bench/run.py passes to cli.main for every command
@pytest.mark.parametrize("command, payload", [
    ("converge", {"log2_h": [-3], "T": 0.5, "schemes": ["etmfd"]}),
    ("simulate", {"nx": 8, "ny": 8, "T": 0.5}),
    ("anisotropy", {"ppw": [12], "n_theta": 8}),
])
def test_benchmark_argv_runs(command, payload, tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1", command]) == EXIT_OK


# the module attributes that bench/tracing.py replaces to split a
# command's wall time into set-up and stepping
RUN_SITES = (("analysis", "run"), ("cli", "run"))


@pytest.mark.parametrize("command, payload", [
    ("converge", {"log2_h": [-3], "T": 0.5, "schemes": ["etmfd"]}),
    ("simulate", {"nx": 8, "ny": 8, "T": 0.5}),
])
def test_commands_step_through_the_benchmark_call_sites(command, payload,
                                                        tmp_path,
                                                        monkeypatch):
    modules = {"analysis": analysis, "cli": cli}
    runs, steps = [], []

    def recorded(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in RUN_SITES:
        # a site the module lacks is skipped, as tracing.Patches.wrap does
        if hasattr(modules[module], attr):
            monkeypatch.setattr(modules[module], attr,
                                recorded(getattr(modules[module], attr), runs))
    monkeypatch.setattr(stepper, "step", recorded(stepper.step, steps))
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 command]) == EXIT_OK
    assert len(runs) == 1 and isinstance(runs[0][0], stepper.SimConfig)
    assert len(steps) == runs[0][0].n_steps - 1  # steps 2 .. n_steps


def test_selftest_mutation_detected(monkeypatch):
    # a sign flip in w2 must break the fourth-order symbol check
    assert selftest.passes("fourth-order-symbol",
                           selftest.fourth_order_slope())

    def flipped(nu, gamma):
        p = optimal_params(nu, gamma)
        return MfdParams(p.w1, -p.w2, p.w3)

    monkeypatch.setattr(operators, "optimal_params", flipped)
    assert not selftest.passes("fourth-order-symbol",
                               selftest.fourth_order_slope())


# one case per row of the exit-code table in cli.EXIT_CODES and the README
@pytest.mark.parametrize("exc_type, code", [
    (CliError, EXIT_VALIDATION),
    (RegimeError, EXIT_VALIDATION),
    (ValueError, EXIT_VALIDATION),
    (TypeError, EXIT_VALIDATION),
    (UnstableSimulationError, EXIT_NUMERICAL),
    (np.linalg.LinAlgError, EXIT_NUMERICAL),
    (ArithmeticError, EXIT_NUMERICAL),
    (OSError, EXIT_VALIDATION),
    (MemoryError, EXIT_VALIDATION),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_exit_code_table(exc_type, code, monkeypatch, capsys):
    def fail(args):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "cmd_params", fail)
    assert main(["params"]) == code
    assert "boom" in capsys.readouterr().err


@pytest.mark.parametrize("entries, message", [
    pytest.param({"probes": [3.5]}, "not an integer", id="probe-float"),
    pytest.param({"probes": 5}, "must be", id="probes-scalar"),
    pytest.param({"probes": [100, 100]}, "probe edge 100 is listed twice",
                 id="probe-repeated"),
    pytest.param({"snapshot_stride": -3}, "snapshot_stride",
                 id="stride-negative"),
    pytest.param({"snapshot_stride": 2.5}, "snapshot_stride",
                 id="stride-float"),
    pytest.param({"nx": "16"}, "not supported", id="nx-string"),
    pytest.param({"nx": 8.7}, "must be integers", id="nx-float"),
    pytest.param({"T": float("inf")}, "final time must be finite",
                 id="T-inf"),
    pytest.param({"Lx": float("inf")}, "domain extents must be finite",
                 id="Lx-inf"),
])
def test_malformed_simulate_config_is_invalid_input(entries, message,
                                                    tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json",
                       {"nx": 8, "ny": 8, "T": 0.5, **entries})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, entries, message", [
    pytest.param("simulate", {"medium": {"omega_p": float("nan")}},
                 "must be finite", id="simulate-omega_p-nan"),
    pytest.param("simulate", {"medium": {"eps0": float("inf")}},
                 "must be finite", id="simulate-eps0-inf"),
    pytest.param("roots", {"k": float("nan")}, "wave number must be finite",
                 id="roots-k-nan"),
    pytest.param("anisotropy", {"nu": float("nan")},
                 "Courant number must be finite", id="anisotropy-nu-nan"),
    pytest.param("anisotropy", {"nu": float("nan"), "schemes": ["et-yee"]},
                 "dt must be finite", id="anisotropy-yee-nu-nan"),
    pytest.param("converge", {"log2_h": [-3, -3]}, "no h repeated",
                 id="converge-repeated-h"),
    pytest.param("converge", {"schemes": []}, "schemes list must not be empty",
                 id="converge-no-schemes"),
    pytest.param("anisotropy", {"ppw": [0]}, "must be finite and > 0",
                 id="anisotropy-ppw-zero"),
    pytest.param("anisotropy", {"ppw": [0], "fixed_cell_area": True},
                 "must be finite and > 0", id="anisotropy-ppw-zero-fixed-area"),
    pytest.param("anisotropy", {"k": 0}, "must be finite and > 0",
                 id="anisotropy-k-zero"),
    pytest.param("anisotropy", {"gammas": [1.0, float("nan")]},
                 "must be finite and > 0", id="anisotropy-gamma-nan"),
    pytest.param("anisotropy", {"gammas": [1.0, -4.0],
                                "schemes": ["et-yee"]},
                 "must be finite and > 0", id="anisotropy-yee-gamma-negative"),
    pytest.param("anisotropy", {"n_theta": 2.7}, "n_theta",
                 id="anisotropy-n_theta-float"),
    pytest.param("anisotropy", {"n_theta": 0}, "n_theta",
                 id="anisotropy-n_theta-zero"),
    pytest.param("anisotropy", {"gammas": []}, "gammas list must not be empty",
                 id="anisotropy-no-gammas"),
    pytest.param("anisotropy", {"schemes": []},
                 "schemes list must not be empty", id="anisotropy-no-schemes"),
    # the second gamma's CSV overwrote the first one's, and exit 0
    pytest.param("anisotropy", {"gammas": [1.0, 1.0000001], "n_theta": 4},
                 "repeated output names", id="anisotropy-gamma-names-collide"),
    pytest.param("anisotropy", {"gammas": [0.5, 0.5], "n_theta": 4},
                 "repeated output names", id="anisotropy-gamma-repeated"),
    pytest.param("anisotropy", {"schemes": ["etmfd", "yee"]},
                 "unknown scheme 'yee'", id="anisotropy-unknown-scheme"),
    # a string was iterated: "unknown scheme 'e'"
    pytest.param("converge", {"schemes": "etmfd"},
                 "schemes must be a list, got 'etmfd'",
                 id="converge-schemes-a-string"),
    pytest.param("anisotropy", {"schemes": "etmfd"},
                 "schemes must be a list, got 'etmfd'",
                 id="anisotropy-schemes-a-string"),
    # "'int' object is not iterable" and "Value after * must be an iterable"
    pytest.param("converge", {"log2_h": -4},
                 "log2_h must be a list, got -4",
                 id="converge-log2_h-a-number"),
    pytest.param("anisotropy", {"ppw": 12},
                 "ppw must be a list, got 12",
                 id="anisotropy-ppw-a-number"),
    pytest.param("anisotropy", {"gammas": 1.0},
                 "gammas must be a list, got 1.0",
                 id="anisotropy-gammas-a-number"),
    # float() took the string, and exit 0
    pytest.param("anisotropy", {"k": "4"},
                 "k must be a number, got '4'",
                 id="anisotropy-k-a-string"),
    # 2^31 cells a side overflow the edge index; 2 ** 1e300 overflowed
    pytest.param("converge", {"log2_h": [-3, -31]},
                 "each must be an integer in [-30, -1]",
                 id="converge-log2_h-too-fine"),
    pytest.param("converge", {"log2_h": [-1e300]},
                 "each must be an integer in [-30, -1]",
                 id="converge-log2_h-overflows"),
    # a traceback from str.lower
    pytest.param("simulate", {"scheme": 5}, "unknown scheme 5",
                 id="simulate-scheme-not-a-string"),
    pytest.param("simulate", {"params": [0.25, 0.0, 0.25]},
                 "unknown config keys for 'simulate': ['params']",
                 id="simulate-raw-weights"),
    # dict.update takes a list of two-letter keys as pairs ("nu" sets "n")
    pytest.param("anisotropy", ["nu"], "config must be a JSON object",
                 id="anisotropy-not-an-object"),
])
def test_malformed_config_is_refused_before_output(command, entries, message,
                                                   tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"nx": 8, "ny": 8, "T": 0.5, **entries}
                       if command == "simulate" else entries)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) \
        == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


# json reads true/false as bool, a subclass of int, so each of these would
# run as 1 or 0 (or fail later, naming no key) if load_config let it through
@pytest.mark.parametrize("command, entries, key", [
    pytest.param("simulate", {"nx": True}, "'nx'", id="nx"),
    pytest.param("simulate", {"snapshot_stride": True}, "'snapshot_stride'",
                 id="snapshot_stride"),
    pytest.param("anisotropy", {"n_theta": True}, "'n_theta'", id="n_theta"),
    pytest.param("simulate", {"probes": [True]}, "'probes'", id="probes"),
    pytest.param("simulate", {"medium": {"omega_i": False}},
                 "'omega_i'", id="medium"),
    pytest.param("converge", {"log2_h": [-3, True]}, "'log2_h'",
                 id="log2_h"),
    pytest.param("anisotropy", {"fixed_cell_area": 1}, "'fixed_cell_area'",
                 id="fixed_cell_area-not-a-bool"),
])
def test_json_booleans_are_refused_before_output(command, entries, key,
                                                 tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json",
                       {"nx": 8, "ny": 8, "T": 0.5, **entries}
                       if command == "simulate" else entries)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), command]) \
        == EXIT_VALIDATION
    assert f"config key {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("params", "nu"),
                                          ("params", "gamma"),
                                          ("roots", "k")],
                         ids=["nu", "gamma", "roots-k"])
def test_params_refuses_nan(command, key, tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {key: float("nan")})
    assert main(["--config", cfg, command]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""  # no NaN weights printed


ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands():
    """The lines of README's `sh` block of etmfd commands, comments cut."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    [block] = [b for b in blocks if b.startswith("etmfd ")]
    return [" ".join(shlex.split(line, comments=True))
            for line in block.splitlines()]


def ci_readme_step():
    """The commands of the CI step that runs the README's command block."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = lines.split("- name: README commands\n", 1)[1]
    run = step.split("run: |\n", 1)[1].splitlines()
    indent = len(run[0]) - len(run[0].lstrip())
    body = []
    for line in run:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        body.append(line.strip())
    return [line for line in body if line and not line.startswith("cd ")]


def test_readme_python_blocks_run():
    # each block reuses the names of the blocks before it
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "<README.md>", "exec"), namespace)
    assert len(namespace["rows"]) == 6
    snapshots, state = namespace["snapshots"], namespace["state"]
    assert [n for n, _, _, _ in snapshots] == list(range(0, 129, 16))
    assert np.array_equal(snapshots[-1][2], state.E)
    assert np.array_equal(snapshots[-1][3], state.J())
    assert namespace["final"].E is namespace["E1"]  # the third block's


def test_readme_commands_parse_and_ci_runs_exactly_them():
    commands = readme_commands()
    assert "etmfd selftest" in commands
    for line in commands:
        cli.make_parser().parse_args(shlex.split(line)[1:])
    assert ci_readme_step() == commands


def readme_exit_rows():
    """(code, classes, examples) for each row of README's exit-code table:
    the backticked names before "e.g." and those after it."""
    text = (ROOT / "README.md").read_text()
    table = text.split("\n| raised", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        raised, code = (cell.strip() for cell in line.strip("|").split("|"))
        named, _, examples = raised.partition("e.g.")
        rows.append((int(code), re.findall(r"`([\w.]+)`", named),
                     re.findall(r"`([\w.]+)`", examples)))
    return rows


def package_class(name):
    """The exception class `name` as the package exports it, if it does."""
    for module in ("etmfd", "etmfd.cli"):
        cls = getattr(importlib.import_module(module), name, None)
        if isinstance(cls, type):
            return cls
    return None


def readme_class(name):
    """A class the table names: a builtin, a dotted path, or the package's."""
    if "." in name:
        module, _, attr = name.rpartition(".")
        return getattr(importlib.import_module(module), attr)
    return getattr(builtins, name, None) or package_class(name)


def exit_code_of(exc_type):
    return next(code for types, code, _ in cli.EXIT_CODES
                if issubclass(exc_type, types))


def test_readme_exit_code_table_is_cli_exit_codes():
    rows = readme_exit_rows()
    assert [code for code, _, _ in rows][:1] == [EXIT_OK]
    named = set()
    for code, classes, examples in rows:
        for name in classes:
            cls = readme_class(name)
            assert cls is not None, f"README names unknown class {name}"
            assert exit_code_of(cls) == code, name
            named.add(cls)
        for name in examples:
            cls = package_class(name)
            assert cls is not None, f"README example {name} is not exported"
            assert issubclass(cls, tuple(map(readme_class, classes))), name
            assert exit_code_of(cls) == code, name
    assert {cls for types, _, _ in cli.EXIT_CODES for cls in types} <= named


NO_SCIPY = """
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is not a runtime dependency: {name}")


sys.meta_path.insert(0, NoScipy())
from etmfd import cli

with open("converge.json", "w") as fh:
    json.dump({"log2_h": [-3, -4], "schemes": ["etmfd", "et-yee"]}, fh)
codes = [cli.main(["selftest"]),
         cli.main(["--config", "converge.json", "converge"])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_runtime_needs_no_scipy(tmp_path):
    # a fresh interpreter that refuses any scipy import runs selftest and a
    # 2-level converge: numpy is the only runtime dependency
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK, EXIT_OK], "scipy": []}
    assert (tmp_path / "converge.csv").stat().st_size > 0
