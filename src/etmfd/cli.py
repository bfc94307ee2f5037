"""Command-line driver: parameter computation, experiments, self-tests.

Subcommands
    params      print the optimal MFD weights, the stable Courant limit
                and the local W for (nu, gamma)
    converge    mesh-refinement study, writes a convergence CSV
    anisotropy  dispersion-error sweep over propagation angles, writes CSV
    simulate    run one simulation, write probe traces and snapshots
    roots       print the continuous dispersion roots for a wave number
    selftest    run the built-in oracle checks

Configuration is a single JSON document (--config); unknown keys are
rejected.  Physical constants default to eps0 = c0 = omega_i = omega_p = 1.
Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, dispersion, selftest
from .mesh import build_mesh
from .operators import local_W, optimal_params, params_for_scheme
from .plasma import Medium, RegimeError
from .stepper import UnstableSimulationError, nu_max, save_snapshot

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

MEDIUM_KEYS = {"eps0", "c0", "omega_i", "omega_p"}

DEFAULTS = {
    "converge": {"log2_h": [-4, -5, -6], "schemes": ["etmfd", "et-yee"],
                 "nu": 0.5, "T": 4.0, "kx_pi": 1, "ky_pi": 1,
                 "out": "converge.csv"},
    "anisotropy": {"k": 4.0, "ppw": [12, 24], "n_theta": 64, "nu": 0.5,
                   "gammas": [1.0], "nu_rule": "fixed",
                   "schemes": ["etmfd", "et-yee"], "out": "anisotropy.csv",
                   "fixed_cell_area": False},
    "simulate": {"nx": 16, "ny": 16, "Lx": 1.0, "Ly": 1.0,
                 "scheme": "etmfd", "nu": 0.5, "T": 4.0, "kx_pi": 1,
                 "ky_pi": 1, "probes": "auto", "snapshot_stride": 0,
                 "out": "sim_out"},
    "roots": {"k": 4.0},
    "params": {"nu": 0.5, "gamma": 1.0},
}

# a config may hold its command's defaults, and "medium" for all but params
COMMAND_KEYS = {cmd: set(keys) | ({"medium"} if cmd != "params" else set())
                for cmd, keys in DEFAULTS.items()}


class CliError(ValueError):
    """Configuration or usage problem (exit code 1)."""


def _object_without_bools(pairs) -> dict:
    """json object hook: true/false, which Python takes for 1 and 0, are
    refused as a value or list entry; fixed_cell_area must be one."""
    for key, value in pairs:
        if key == "fixed_cell_area":
            if not isinstance(value, bool):
                raise CliError(f"config key {key!r} must be true or false")
        elif any(isinstance(v, bool)
                 for v in (value if isinstance(value, list) else [value])):
            raise CliError(f"config key {key!r} must not be a boolean")
    return dict(pairs)


def load_config(path: str | None, command: str) -> dict:
    cfg = dict(DEFAULTS.get(command, {}))
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh, object_pairs_hook=_object_without_bools)
            except json.JSONDecodeError as exc:
                raise CliError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise CliError("config must be a JSON object")
        allowed = COMMAND_KEYS[command]
        unknown = set(user) - allowed
        if unknown:
            raise CliError(
                f"unknown config keys for '{command}': {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})")
        cfg.update(user)
    return cfg


def output_path(args, cfg: dict, directory: bool = False) -> str:
    """The config's "out" path, under the --out directory when one is given.

    Checked before any run, and nothing is created: the path must not be
    empty, must not exist as the wrong kind (a directory if `directory`,
    else a file), and must not lie below a file."""
    if cfg["out"] == "":
        raise CliError('config key "out" must not be empty')
    path = os.path.join(args.out or "", cfg["out"])
    if not (directory or os.path.basename(path)):  # "dir/" names no file
        raise CliError(f"out path {path!r} names a directory, not a file")
    near = os.path.abspath(path)
    while not os.path.exists(near):
        near = os.path.dirname(near)
    want_dir = directory or near != os.path.abspath(path)
    if os.path.isdir(near) != want_dir:
        raise CliError(f"out path {path!r} needs {near!r} to be a "
                       f"{'directory' if want_dir else 'file'}")
    return path


def medium_from_config(cfg: dict) -> Medium:
    block = cfg.get("medium", {})
    unknown = set(block) - MEDIUM_KEYS
    if unknown:
        raise CliError(f"unknown medium keys: {sorted(unknown)}")
    return Medium(**block)  # a key left out takes Medium's default


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # full precision, byte-stable
    return str(v)


def _column_cells(col):
    """The cells of one column, as `_cell` formats them.  A column of
    exact floats reprs each distinct bit pattern once: bits, not values,
    keep 0.0 apart from -0.0."""
    if not all(type(v) is float for v in col):
        return map(_cell, col)
    bits, inverse = np.unique(np.array(col).view(np.int64),
                              return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse]  # references, not copies


def write_csv(path: str, header, rows) -> None:
    cols = list(zip(*rows, strict=True))  # ragged rows: ValueError
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cells) + "\n"
                      for cells in zip(*map(_column_cells, cols)))


# ---- commands ---------------------------------------------------------------

def cmd_params(args) -> int:
    cfg = load_config(args.config, "params")
    nu = args.nu if args.nu is not None else cfg["nu"]
    gamma = args.gamma if args.gamma is not None else cfg["gamma"]
    p = optimal_params(nu, gamma)
    print(f"nu = {_fmt6(nu)}, gamma = {_fmt6(gamma)}")
    print(f"w1 = {_fmt6(p.w1)}")
    print(f"w2 = {_fmt6(p.w2)}")
    print(f"w3 = {_fmt6(p.w3)}")
    print(f"nu_max = {_fmt6(nu_max(gamma))}")
    # + 0.0: at nu = 0 the -4 w2 entries are -0.0, which print as -0
    W = local_W(p, 1.0, gamma) + 0.0
    print("optimal local W (unit dx, dy = gamma):")
    for row in W:
        print("  " + "  ".join(f"{v:>12.6g}" for v in row))
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg = load_config(args.config, "converge")
    for key in ("log2_h", "schemes"):
        if not cfg[key]:
            raise CliError(f"{key} list must not be empty")
    for scheme in cfg["schemes"]:  # a bad label is refused before any sweep
        params_for_scheme(scheme, cfg["nu"], 1.0)  # the unit square's gamma
    medium = medium_from_config(cfg)
    sol = analysis.make_exact_solution(cfg["kx_pi"] * math.pi,
                                       cfg["ky_pi"] * math.pi, medium)
    out = output_path(args, cfg)
    h_list = [2.0 ** p for p in cfg["log2_h"]]
    all_rows = []
    for scheme in cfg["schemes"]:
        rows = analysis.convergence_study(h_list, scheme, sol,
                                          nu=cfg["nu"], T=cfg["T"])
        all_rows.extend(rows)
    header = ["log2_h", "scheme", "field", "err_l2", "rate_l2",
              "err_disp", "rate_disp"]
    write_csv(out, header, [[r[k] for k in header] for r in all_rows])
    print(f"wrote {out}")
    print(f"{'log2_h':>7} {'scheme':>8} {'field':>5} {'err_l2':>12} "
          f"{'rate':>8} {'err_disp':>12} {'rate':>8}")
    for r in all_rows:
        print(f"{r['log2_h']:>7.0f} {r['scheme']:>8} {r['field']:>5} "
              f"{r['err_l2']:>12.6g} {r['rate_l2']:>8.4g} "
              f"{r['err_disp']:>12.6g} {r['rate_disp']:>8.4g}")
    return EXIT_OK


def cmd_anisotropy(args) -> int:
    cfg = load_config(args.config, "anisotropy")
    for key in ("ppw", "gammas", "schemes"):
        if not cfg[key]:
            raise CliError(f"{key} list must not be empty")
    n_theta = cfg["n_theta"]
    if n_theta < 1 or n_theta % 1:  # NaN and inf leave a NaN remainder
        raise CliError(f"n_theta must be an integer >= 1, got {n_theta!r}")
    k, ppw, gammas = float(cfg["k"]), cfg["ppw"], cfg["gammas"]
    # the sweep checks them too, but meets a later gamma after files exist
    if not all(0 < v < math.inf for v in (k, *ppw, *gammas)):
        raise CliError(f"k, ppw and gammas must be finite and > 0, got "
                       f"k={k}, ppw={ppw}, gammas={gammas}")
    medium = medium_from_config(cfg)
    theta = np.linspace(0.0, 2.0 * np.pi, int(n_theta), endpoint=False)
    header = ["theta", "k", "ppw", "scheme", "abs_err", "re_err", "im_err"]
    base = output_path(args, cfg)
    stem, ext = os.path.splitext(cfg["out"])  # each name checked like base
    outs = [base] if len(gammas) == 1 else [
        output_path(args, {"out": f"{stem}_gamma{g:g}{ext}"}) for g in gammas]
    if len(set(outs)) < len(outs):  # one file would overwrite another
        raise CliError(f"gammas {gammas} give repeated output names {outs}")
    for gamma, out in zip(gammas, outs):
        if cfg["nu_rule"] == "gamma_cubed":
            nu = cfg["nu"] * min(gamma ** 3, 1.0)
        elif cfg["nu_rule"] == "fixed":
            nu = cfg["nu"]
        else:
            raise CliError(f"unknown nu_rule {cfg['nu_rule']!r}")
        rows = dispersion.anisotropy_sweep(theta, k, ppw, nu, gamma, medium,
                                           cfg["schemes"],
                                           cfg["fixed_cell_area"])
        write_csv(out, header, rows)
        print(f"wrote {out} ({len(rows)} rows, gamma={gamma:g}, "
              f"nu={_fmt6(nu)})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, "simulate")
    outdir = output_path(args, cfg, directory=True)
    medium = medium_from_config(cfg)
    mesh = build_mesh(cfg["nx"], cfg["ny"], cfg["Lx"], cfg["Ly"])
    sol = analysis.make_exact_solution(cfg["kx_pi"] * math.pi,
                                       cfg["ky_pi"] * math.pi, medium)
    probes = cfg["probes"]
    if probes != "auto" and not isinstance(probes, list):
        raise CliError(f'probes must be "auto" or a list, got {probes!r}')
    stride = cfg["snapshot_stride"]
    if not isinstance(stride, int) or stride < 0:
        raise CliError(f"snapshot_stride {stride!r} is not an int >= 0")
    saved = []  # each written as it is taken: a failed run leaves these

    def save(n, t, state):
        if stride > 0 and n % stride == 0:
            os.makedirs(outdir, exist_ok=True)
            save_snapshot(os.path.join(outdir, f"snapshot_{n:06d}"), mesh,
                          t, state)
            saved.append(n)

    config, state, traces, _, _ = analysis.run_standing_mode(
        mesh, cfg["scheme"], sol, cfg["nu"], cfg["T"],
        None if probes == "auto" else probes, save)

    os.makedirs(outdir, exist_ok=True)
    times = config.dt * np.arange(state.n + 1)
    for e, (trace_E, trace_J) in traces.items():
        write_csv(os.path.join(outdir, f"probe_{e}.csv"), ["t", "E", "J"],
                  zip(times, trace_E, trace_J))
    E = state.E  # max |E| without an |E| temporary
    summary = {"steps": state.n, "t_final": state.n * config.dt,
               "dt": config.dt, "probes": list(traces),
               "snapshots": len(saved),
               "max_abs_E": float(max(E.max(), -E.min()))}
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {outdir} ({state.n} steps, {len(saved)} snapshots)")
    return EXIT_OK


def cmd_roots(args) -> int:
    cfg = load_config(args.config, "roots")
    k = args.k if args.k is not None else cfg["k"]
    medium = medium_from_config(cfg)
    roots = dispersion.continuous_roots(k, medium)
    print(f"k = {_fmt6(k)}")
    for w in sorted(roots, key=lambda z: (-abs(z.real), z.imag)):
        print(f"  omega = {w.real:+.9g} {w.imag:+.9g}i")
    w = dispersion.oscillatory_root(k, medium)
    print(f"propagating mode: decay a = {_fmt6(w.imag)}, "
          f"frequency b = {_fmt6(w.real)}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = selftest.run_all()
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---- entry point ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 1 for usage
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="etmfd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1, choices=(1,),
                        help="accepted for callers that pass 1; BLAS threads "
                        "are set apart, by OPENBLAS_NUM_THREADS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="optimal MFD weights for (nu, gamma)")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)

    sub.add_parser("converge", help="mesh-refinement study")
    sub.add_parser("anisotropy", help="dispersion-error angle sweep")
    sub.add_parser("simulate", help="run one simulation")

    p = sub.add_parser("roots", help="continuous dispersion roots")
    p.add_argument("--k", type=float, default=None)

    sub.add_parser("selftest", help="run built-in oracle checks")
    return parser


# one parser a process: building it costs about as much as a small
# command's set-up
_parser = functools.cache(make_parser)


# Exception -> exit code, first match wins.  LinAlgError subclasses
# ValueError, so the numerical row must come first.  OSError is a write
# that failed after output_path's checks (a full disk, no permission).
EXIT_CODES = (
    ((UnstableSimulationError, np.linalg.LinAlgError, ArithmeticError),
     EXIT_NUMERICAL, "numerical failure"),
    ((CliError, RegimeError, ValueError, TypeError, OSError),
     EXIT_VALIDATION, "error"),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.config is not None and not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:
        for types, code, label in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
