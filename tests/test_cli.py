import csv
import dataclasses
import json

import numpy as np
import pytest

from etmfd import cli, selftest, stepper
from etmfd.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, CliError, main
from etmfd.operators import MfdParams, optimal_params
from etmfd.plasma import RegimeError
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


def test_simulate_instability_exit_code(tmp_path):
    cfg = write_config(tmp_path, "s.json", {"nx": 8, "ny": 8, "nu": 5.0,
                                            "T": 50.0})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "simulate"]) == EXIT_NUMERICAL


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


@pytest.mark.parametrize("flag", ["--nu", "--gamma"])
def test_params_refuses_nan(flag, capsys):
    assert main(["params", flag, "nan"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""  # no NaN weights printed
