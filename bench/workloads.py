"""The three benchmark workloads: inputs from a seed, and output checks.

Each workload is one ``etmfd`` CLI command.  Why these three:

* ``converge_deep``: the acceptance convergence sweep taken two levels
  deeper (log2 h = -4 .. -8, both schemes).  About 7 900 small steps on
  operators that stay in cache, plus the probe fits and M-norms: per-step
  overhead, the vector update and the analysis layer.
* ``simulate_1024``: one 1024 x 1024 run (2.1 M edges) for 50 steps with
  an auto probe and three snapshots.  Set-up (mesh, assembly,
  interpolation) dominates; the step's operators (about 29 M nnz) exceed
  the last-level cache, so stepping is bound by memory bandwidth.  Also
  peak memory and the snapshot write path.
* ``anisotropy_dense``: a dense angle sweep of the dispersion error.  No
  mesh and no sparse operator: scalar 2x2 work in ``dispersion`` and
  ``plasma``, one exponential per row, and large CSV output.

The seed only moves physical inputs whose cost is the same for every
seed: the medium of ``converge_deep``, the standing mode of
``simulate_1024`` and the wave number of ``anisotropy_dense`` (the CLI
samples angles from 0, so the angle grid itself cannot be offset).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

import numpy as np

NAMES = ("converge_deep", "simulate_1024", "anisotropy_dense")

SIM_STEPS = 50
SIM_STRIDE = 25            # snapshots at steps 0, 25 and 50
SIM_NU = 0.5
# Bound on the relative M-norm error of the final E against its exact
# midpoint interpolant, as a multiple of (k h)^2.  Modes with kx != ky
# reach 0.028 (kh)^2 at 64^2 and 6.1e-4 (kh)^2 at 1024^2: E^0 is sampled
# at edge midpoints while J^0 is edge-averaged, so the initial pair is not
# one discrete eigenmode.  kx = ky modes stay below 3e-4 (kh)^2.
SIM_E_TOL_KH2 = 0.1

RATE_WINDOWS = {"etmfd": (3.8, 4.2), "et-yee": (1.9, 2.1)}

ANISO_SAMPLE_ROWS = 64     # oracle-checked rows per output file
# |csv - oracle| relative to the size of the determinant's terms;
# measured below 5e-16.
ANISO_TOL = 1e-12


def make_config(name: str, seed: int, smoke: bool = False):
    """(command, config dict) for a workload; same seed, same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "converge_deep":
        medium = {"omega_i": rng.uniform(0.5, 1.5),
                  "omega_p": rng.uniform(0.8, 1.5)}
        levels = [-4, -5, -6] if smoke else [-4, -5, -6, -7, -8]
        return "converge", {"log2_h": levels, "schemes": ["etmfd", "et-yee"],
                            "nu": 0.5, "T": 4.0, "kx_pi": 1, "ky_pi": 1,
                            "medium": medium, "out": "converge.csv"}
    if name == "simulate_1024":
        n = 64 if smoke else 1024
        dt = SIM_NU * (1.0 / n)
        return "simulate", {"nx": n, "ny": n, "scheme": "etmfd",
                            "nu": SIM_NU, "T": SIM_STEPS * dt,
                            "kx_pi": rng.randint(1, 4),
                            "ky_pi": rng.randint(1, 4), "probes": "auto",
                            "snapshot_stride": SIM_STRIDE, "out": "sim_out"}
    if name == "anisotropy_dense":
        return "anisotropy", {"k": rng.uniform(3.0, 5.0),
                              "ppw": [12, 24, 48, 96],
                              "n_theta": 32 if smoke else 1024, "nu": 0.5,
                              "gammas": [0.25, 1.0, 4.0],
                              "nu_rule": "gamma_cubed",
                              "schemes": ["etmfd", "et-yee"],
                              "fixed_cell_area": True,
                              "out": "anisotropy.csv"}
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


# Where a set-up-only command is stopped: the first unit of real work.
SETUP_STOP = {"converge_deep": ("etmfd.stepper", "step"),
              "simulate_1024": ("etmfd.stepper", "step"),
              "anisotropy_dense": ("etmfd.dispersion",
                                   "relative_dispersion_error")}


# ---- checks -----------------------------------------------------------------
#
# Each check returns a list of (name, ok, detail).  They read the command's
# output files and recompute what they can without the code under test.

def check(name: str, cfg: dict, outdir: str, seed: int) -> list:
    if name == "converge_deep":
        return _check_converge(cfg, outdir)
    if name == "simulate_1024":
        return _check_simulate(cfg, outdir)
    return _check_anisotropy(cfg, outdir, seed)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_converge(cfg: dict, outdir: str) -> list:
    rows = _read_csv(os.path.join(outdir, cfg["out"]))
    want = len(cfg["log2_h"]) * len(cfg["schemes"]) * 2
    out = [("converge.rows", len(rows) == want, f"{len(rows)} rows, want {want}")]
    for r in rows:
        if float(r["log2_h"]) == cfg["log2_h"][0]:
            continue  # the coarsest level has no rate
        lo, hi = RATE_WINDOWS[r["scheme"]]
        for col in ("rate_l2", "rate_disp"):
            v = float(r[col])
            out.append((f"converge.{r['scheme']}.{r['field']}.{col}"
                        f"@{float(r['log2_h']):g}", lo <= v <= hi,
                        f"{v:.6f} in [{lo}, {hi}]"))
    return out


def _pec_edge_layout(n: int):
    """Edge midpoints and face-to-edge table of an n x n PEC unit square,
    from the documented index layout (horizontal edges first)."""
    h = 1.0 / n
    nh = n * (n + 1)
    j, i = np.divmod(np.arange(nh), n)
    hx, hy = (i + 0.5) * h, j * h
    j, i = np.divmod(np.arange((n + 1) * n), n + 1)
    vx, vy = i * h, (j + 0.5) * h
    j, i = np.divmod(np.arange(n * n), n)
    left = nh + j * (n + 1) + i
    faces = np.stack([j * n + i, left + 1, (j + 1) * n + i, left], axis=1)
    return (hx, hy), (vx, vy), faces


def _check_simulate(cfg: dict, outdir: str) -> list:
    from etmfd import analysis, operators
    from etmfd.cli import medium_from_config

    n = cfg["nx"]
    n_edges = 2 * n * (n + 1)
    sim = os.path.join(outdir, cfg["out"])
    out = []
    with open(os.path.join(sim, "summary.json")) as fh:
        summary = json.load(fh)
    out.append(("simulate.steps", summary["steps"] == SIM_STEPS,
                f"{summary['steps']} steps, want {SIM_STEPS}"))
    snaps = [0, SIM_STRIDE, 2 * SIM_STRIDE]
    for step in snaps:
        for field in ("E", "J"):
            path = os.path.join(sim, f"snapshot_{step:06d}.{field}.bin")
            size = os.path.getsize(path) if os.path.exists(path) else -1
            out.append((f"simulate.snapshot_{step}.{field}.bytes",
                        size == n_edges * 8, f"{size} B, want {n_edges * 8}"))

    E = np.fromfile(os.path.join(sim, f"snapshot_{snaps[-1]:06d}.E.bin"),
                    dtype="<f8")
    medium = medium_from_config(cfg)
    sol = analysis.make_exact_solution(cfg["kx_pi"] * math.pi,
                                       cfg["ky_pi"] * math.pi, medium)
    t = snaps[-1] * SIM_NU / n / medium.c0
    (hx, hy), (vx, vy), faces = _pec_edge_layout(n)
    ref = np.concatenate([analysis.exact_E(sol, hx, hy, t)[0],
                          analysis.exact_E(sol, vx, vy, t)[1]])
    params = operators.params_for_scheme(cfg["scheme"], SIM_NU, 1.0)
    M = operators.local_M(params, 1.0 / n, 1.0 / n)

    def mnorm2(v):
        V = v[faces]
        return float(np.einsum("fi,ij,fj->", V, M, V))

    err = math.sqrt(mnorm2(E - ref) / mnorm2(ref)) if E.size == n_edges \
        else math.inf
    tol = SIM_E_TOL_KH2 * (sol.k / n) ** 2
    out.append(("simulate.final_E_mnorm", err <= tol,
                f"relative M-norm error {err:.3e} <= {tol:.3e}"))
    return out


def _check_anisotropy(cfg: dict, outdir: str, seed: int) -> list:
    from etmfd import dispersion
    from etmfd.cli import medium_from_config
    from etmfd.operators import params_for_scheme

    medium = medium_from_config(cfg)
    k, nu0 = float(cfg["k"]), cfg["nu"]
    n_theta, schemes = int(cfg["n_theta"]), cfg["schemes"]
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    omega = dispersion.oscillatory_root(k, medium)
    h_ref = 2.0 * np.pi / (k * cfg["ppw"][0])
    want = n_theta * len(cfg["ppw"]) * len(schemes)
    rng = random.Random(f"anisotropy-check:{seed}")
    stem, ext = os.path.splitext(os.path.join(outdir, cfg["out"]))
    out = []
    for gamma in cfg["gammas"]:
        rows = _read_csv(f"{stem}_gamma{gamma:g}{ext}")
        out.append((f"anisotropy.gamma{gamma:g}.rows", len(rows) == want,
                    f"{len(rows)} rows, want {want}"))
        nu = nu0 * min(gamma ** 3, 1.0)
        h = h_ref / math.sqrt(gamma)
        dt = nu * h / medium.c0
        worst = 0.0
        for r in rng.sample(range(len(rows)), min(ANISO_SAMPLE_ROWS, len(rows))):
            row = rows[r]
            p_i, rest = divmod(r, n_theta * len(schemes))
            t_i, s_i = divmod(rest, len(schemes))
            if (float(row["theta"]) != theta[t_i] or float(row["k"]) != k
                    or int(row["ppw"]) != cfg["ppw"][p_i]
                    or row["scheme"] != schemes[s_i]):
                worst = math.inf
                break
            params = params_for_scheme(schemes[s_i], nu, gamma)
            T = dispersion.temporal_symbol(omega, medium, dt)
            S = dispersion.spatial_symbol_bloch(
                dispersion.WaveVec(k, theta[t_i]), h, gamma, params, medium.c0)
            det = (T[0, 0] - S) * T[1, 1] - T[0, 1] * T[1, 0]
            scale = (abs(T[0, 0]) + abs(S)) * abs(T[1, 1]) \
                + abs(T[0, 1] * T[1, 0])
            got = complex(float(row["re_err"]), float(row["im_err"]))
            worst = max(worst, abs(got - det / abs(omega)) * abs(omega) / scale,
                        abs(float(row["abs_err"]) - abs(got)) / max(abs(got), 1e-300))
        out.append((f"anisotropy.gamma{gamma:g}.bloch_oracle",
                    worst <= ANISO_TOL,
                    f"worst relative deviation {worst:.3e} <= {ANISO_TOL:g}"))
    return out
