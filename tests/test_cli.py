import csv
import dataclasses
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from etmfd import analysis, cli, selftest, stepper
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


def test_params_command(capsys):
    assert main(["params", "--nu", "0.5", "--gamma", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w2 = -0.0208333" in out
    assert "0.5625" in out


def test_params_zero_courant(capsys):
    assert main(["params", "--nu", "0", "--gamma", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "w1 = 0.333333" in out and "w2 = 0" in out


def test_roots_command(capsys):
    assert main(["roots", "--k", "4.442882938158366"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decay a = -0.0230958" in out
    assert "frequency b = 4.54913" in out


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
    def cell(v):  # the cell format before its Python-float fast path
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    def per_cell_join(row):
        return ",".join(cell(v) for v in row) + "\n"

    rows = [(0.1, np.float64(2.5), 3, "etmfd", -0.0),
            (np.float64(-0.0), 1e-300, np.int64(7), True, float("nan")),
            (1 / 3, np.float32(0.1), -2, "et-yee", 12.0)]
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
    assert path.read_text() == "a,b,c,d,e\n" + "".join(map(per_cell_join, rows))


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


def test_simulate_command(tmp_path):
    cfg = write_config(tmp_path, "s.json",
                       {"nx": 8, "ny": 8, "T": 0.5, "snapshot_stride": 4})
    out = str(tmp_path / "out")
    assert main(["--config", cfg, "--out", out, "simulate"]) == EXIT_OK
    outdir = tmp_path / "out" / "sim_out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["steps"] == 8  # T=0.5, dt = 0.5/8
    probe_files = list(outdir.glob("probe_*.csv"))
    assert len(probe_files) == 1
    with open(probe_files[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == summary["steps"] + 1
    assert float(rows[0]["t"]) == 0.0
    meta, E, J = load_snapshot(str(outdir / "snapshot_000004"))
    assert meta["step"] == 4
    assert len(E) == len(J) == meta["n_edges"]
    assert np.isfinite(E).all()


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
    pytest.param({"nx": 16, "ny": 8, "Lx": 2.0, "kx_pi": 3}, id="Lx-2"),
    pytest.param({"nx": 4, "ny": 8, "Lx": 0.5, "kx_pi": 4, "ky_pi": 3},
                 id="Lx-half")])
def test_simulate_runs_a_mode_vanishing_on_non_unit_walls(entries, tmp_path):
    cfg = write_config(tmp_path, "s.json", {"T": 0.5, **entries})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_OK
    # the mode the guard admits has no tangential E on the walls
    mesh = build_mesh(entries["nx"], entries["ny"], entries.get("Lx", 1.0),
                      entries.get("Ly", 1.0), "pec")
    sol = make_exact_solution(entries.get("kx_pi", 1) * np.pi,
                              entries.get("ky_pi", 1) * np.pi, Medium())
    mid = mode_dofs(mesh, sol)[0]
    assert np.abs(mid[mesh.boundary_edge_mask]).max() \
        < 1e-13 * np.abs(mid).max()


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
        monkeypatch.setattr(modules[module], attr,
                            recorded(getattr(modules[module], attr), runs))
    monkeypatch.setattr(stepper, "step", recorded(stepper.step, steps))
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 command]) == EXIT_OK
    assert len(runs) == 1 and isinstance(runs[0][0], stepper.SimConfig)
    assert len(steps) == runs[0][0].n_steps - 1  # steps 2 .. n_steps


def test_selftest_mutation_detected():
    # a sign flip in w2 must break the fourth-order symbol check
    def flipped(nu, gamma):
        p = optimal_params(nu, gamma)
        return MfdParams(p.w1, -p.w2, p.w3)

    assert not selftest.passes("fourth-order-symbol",
                               selftest.fourth_order_slope(flipped))
    assert selftest.passes("fourth-order-symbol",
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


@pytest.mark.parametrize("flag", ["--nu", "--gamma"])
def test_params_refuses_nan(flag, capsys):
    assert main(["params", flag, "nan"]) == EXIT_VALIDATION
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


def test_readme_commands_parse_and_ci_runs_exactly_them():
    commands = readme_commands()
    assert "etmfd selftest" in commands
    for line in commands:
        cli.make_parser().parse_args(shlex.split(line)[1:])
    assert ci_readme_step() == commands
