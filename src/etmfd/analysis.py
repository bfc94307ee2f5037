"""Exact standing-mode solutions, mimetic error norms, and convergence runs.

The verification solution is a standing mode with a whole number of
half-waves across a rectangular PEC domain: a divergence-free
trigonometric profile times a damped cosine whose decay/oscillation pair
(a, b) comes from the propagating root of the continuous dispersion
cubic.  Accuracy is measured two ways: a relative L2 error in the
mimetic mass-matrix inner product, summed face by face from the local
block, and a relative dispersion error of the decay and frequency read
off probe time traces in closed form, from the two-term recurrence that
a sampled damped cosine obeys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dispersion import WaveVec, oscillatory_root, spatial_symbol
from .mesh import interpolate_edge_field
from .operators import local_M
from .plasma import Medium
from .stepper import SimConfig, run

# samples a probe fit needs: the trace of a run of n steps holds n + 1
MIN_FIT_SAMPLES = 8


class DegenerateFitError(ArithmeticError):
    """A probe trace holds no damped oscillation to fit."""


# ---- exact solution ---------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    """Standing-mode solution of wave numbers (kx, ky) and decay/frequency
    pair (a, b)."""
    kx: float
    ky: float
    a: float
    b: float
    medium: Medium

    @property
    def k(self) -> float:
        return math.hypot(self.kx, self.ky)


def make_exact_solution(kx: float, ky: float, medium: Medium) -> ExactSolution:
    """The mode of wave numbers (kx, ky) in `medium`; whether it vanishes
    on a mesh's PEC walls depends on the domain, which `mode_dofs` checks."""
    if max(abs(kx), abs(ky)) <= 1e-9 * math.pi:
        raise ValueError("kx = ky = 0 is the zero field: no mode to run")
    w = oscillatory_root(math.hypot(kx, ky), medium)
    # decay on the imaginary axis, oscillation on the real axis
    return ExactSolution(kx=kx, ky=ky, a=w.imag, b=w.real, medium=medium)


def spatial_mode(sol: ExactSolution) -> tuple:
    """Divergence-free profile (-ky cos sin, kx sin cos), one callable
    (x, y) -> component per component; curlcurl = k^2 * it."""
    return (lambda x, y: -sol.ky * np.cos(sol.kx * x) * np.sin(sol.ky * y),
            lambda x, y: sol.kx * np.sin(sol.kx * x) * np.cos(sol.ky * y))


def e_time_factor(sol: ExactSolution, t):
    """E's time law: e^{a t} cos(b t)."""
    return np.exp(sol.a * t) * np.cos(sol.b * t)


def j_time_factor(sol: ExactSolution, t):
    """J's time law, the current E's time law drives in sol.medium:
    eps0 wp^2 e^{a t} ((a + wi) cos(b t) + b sin(b t)) / (b^2 + (a + wi)^2)."""
    m = sol.medium
    aw = sol.a + m.omega_i
    num = aw * np.cos(sol.b * t) + sol.b * np.sin(sol.b * t)
    return m.eps0 * m.omega_p ** 2 * np.exp(sol.a * t) * num / (
        sol.b * sol.b + aw ** 2)


class ModeDofs(NamedTuple):
    """`mode_dofs`'s mode on `config`: the exact E and J edge DoFs at step
    n are E(n) = e(n dt) v and J(n) = j(n dt) j_ratio v, new arrays."""
    config: SimConfig
    sol: ExactSolution
    v: np.ndarray
    j_ratio: float

    def E(self, n: int) -> np.ndarray:
        return self.v * e_time_factor(self.sol, n * self.config.dt)

    def J(self, n: int) -> np.ndarray:
        return self.v * (j_time_factor(self.sol, n * self.config.dt)
                         * self.j_ratio)


def mode_dofs(config: SimConfig, sol: ExactSolution) -> ModeDofs:
    """The `ModeDofs` of `sol` on `config`: v, the step's W A eigenvector,
    is the midpoint samples, the horizontal edges scaled by rho = alpha_h
    / alpha_v; with sx = sin^2(kx dx / 2) and sy = sin^2(ky dy / 2),
    alpha_h = sinc(ky dy / 2) (1 + (4 w1 - 1) sy + 4 gamma w2 sx) and
    alpha_v = sinc(kx dx / 2) (1 + (4 w3 - 1) sx + 4 w2 sy / gamma),
    so rho is 1.0 where kx dx = ky dy on square cells.  j_ratio = 1 - x,
    x = -dt^2 S_h / 12 with S_h the mode's `spatial_symbol`.

    The mode's tangential E must vanish on the PEC walls x = Lx and
    y = Ly, which takes a whole number of half-waves across the domain:
    ValueError otherwise, and when config.medium is not sol.medium."""
    mesh, p = config.mesh, config.params
    if config.medium != sol.medium:
        raise ValueError(f"{config.medium} is not the mode's {sol.medium}")
    for k, L in (("kx", "Lx"), ("ky", "Ly")):
        waves = getattr(sol, k) * getattr(mesh, L) / math.pi
        if abs(waves - round(waves)) > 1e-9:
            raise ValueError(
                f"{k} {L} / pi = {waves:g} is not an integer: the mode "
                f"does not vanish on the PEC wall at {L}")
    v, g = interpolate_edge_field(mesh, *spatial_mode(sol)), mesh.gamma
    S_h = spatial_symbol(WaveVec(sol.k, math.atan2(sol.ky, sol.kx)), mesh.dx,
                         g, p, config.medium.c0)
    ux, uy = 0.5 * sol.kx * mesh.dx, 0.5 * sol.ky * mesh.dy
    sx, sy, c = math.sin(ux) ** 2, math.sin(uy) ** 2, 4 * p.w2
    # np.sinc(u / pi) = sin(u) / u
    mesh.edge_lines(v)[0][...] *= (
        np.sinc(uy / math.pi) * (1 + (4 * p.w1 - 1) * sy + g * c * sx)
        / (np.sinc(ux / math.pi) * (1 + (4 * p.w3 - 1) * sx + c * sy / g)))
    return ModeDofs(config, sol, v, 1.0 + config.dt ** 2 * S_h / 12.0)


def exact_E(sol: ExactSolution, x, y, t):
    f = e_time_factor(sol, t)
    return tuple(f * v(x, y) for v in spatial_mode(sol))


# ---- error norms ------------------------------------------------------------

def l2_relative_error(F_h: np.ndarray, F_ref: np.ndarray, mesh,
                      M: np.ndarray) -> float:
    """sqrt(d^T M d / F_ref^T M F_ref) with d = F_h - F_ref and M the 4x4
    local block: v^T M v sums V_f M V_f^T over the faces f, V_f the
    row f of V, `mesh.face_edges(v)` stacked to (n_faces, 4)."""
    def norm2(v):
        V = np.stack(mesh.face_edges(v), axis=-1).reshape(-1, 4)
        return float(((V @ M) * V).sum())

    den2 = norm2(F_ref)
    if den2 <= 0.0:
        raise ZeroDivisionError("exact-field interpolant has zero M-norm")
    return math.sqrt(max(norm2(F_h - F_ref), 0.0)) / math.sqrt(den2)


# ---- damped-cosine fitting ----------------------------------------------------

@dataclass
class FitResult:
    a_h: float
    b_h: float
    rms_residual: float
    iterations: int
    converged: bool


def fit_damped_cosine(trace: np.ndarray, dt: float) -> FitResult:
    """(a_h, b_h) of a trace x_n = A e^{a n dt} cos(b n dt + phi) in closed
    form, whatever A and phi: E and J probe traces are both such.

    With r = e^{a dt} the trace obeys x[n+1] = 2 r cos(b dt) x[n] - r^2
    x[n-1], so x[n+1] - 2 x[n] + x[n-1] = c x[n] + v (x[n] - x[n-1]) with
    v = r^2 - 1 and c = -2 r (1 - cos(b dt)) - (r - 1)^2.  One linear
    least-squares solve for (c, v) gives a_h = log1p(v) / (2 dt) and
    1 - cos(b_h dt) = -(c + (r - 1)^2) / (2 r), with r - 1 = v / (1 + r):
    no small term is a difference of large ones.  rms_residual is the RMS
    of the recurrence residual; iterations is 1 and converged True.
    DegenerateFitError when the trace holds no damped oscillation.
    """
    x = np.asarray(trace, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise ValueError(f"trace too short to fit: {x.size} < "
                         f"{MIN_FIT_SAMPLES}")
    d2 = x[2:] - 2.0 * x[1:-1] + x[:-2]
    X = np.column_stack([x[1:-1], x[1:-1] - x[:-2]])
    # a NaN or inf in the trace fails this test too
    if not np.linalg.norm(d2) > 1e-12 * np.linalg.norm(x):
        raise DegenerateFitError("zero, constant or linear trace")
    coef, _, _, sv = np.linalg.lstsq(X, d2, rcond=None)
    if not sv[1] > 1e-10 * sv[0]:  # x[n] - x[n-1] a multiple of x[n]
        raise DegenerateFitError("pure exponential trace")
    c, v = float(coef[0]), float(coef[1])
    r = math.sqrt(1.0 + v) if v > -1.0 else math.nan  # then q is NaN
    q = -(c + (v / (1.0 + r)) ** 2) / (2.0 * r)  # 1 - cos(b_h dt)
    if not 0.0 < q <= 2.0:
        raise DegenerateFitError(f"recurrence (c, v) = ({c:g}, {v:g}) has "
                                 "no decay factor and frequency")
    res = d2 - X @ coef
    return FitResult(math.log1p(v) / (2.0 * dt),
                     2.0 * math.asin(math.sqrt(q / 2.0)) / dt,
                     math.sqrt(float(res @ res) / res.size), 1, True)


def dispersion_error_metric(fit: FitResult, a_true: float,
                            b_true: float) -> float:
    """sqrt(((a-a_h)^2 + (b-b_h)^2) / (a^2 + b^2))."""
    num = (a_true - fit.a_h) ** 2 + (b_true - fit.b_h) ** 2
    return math.sqrt(num / (a_true ** 2 + b_true ** 2))


# ---- convergence study -------------------------------------------------------

def pick_probe_edge(mesh, mode: np.ndarray) -> int:
    """Interior edge with the largest |mode|, ties toward the center;
    mode is `mode_dofs`'s v."""
    if mesh.boundary_edge_mask.all():
        raise ValueError(f"{mesh} has no interior edge to probe: every "
                         "edge of a 1x1 PEC mesh is a wall edge")
    size = np.abs(mode, dtype=float)  # a new array, float for the -inf
    size[mesh.boundary_edge_mask] = -np.inf
    # the tie-break is below 1e-9 * sqrt(2)/2: only |mode| >= max - 1e-9 wins
    cand = np.flatnonzero(size >= size.max() - 1e-9)
    x, y = mesh.edge_midpoint(cand)
    dist = np.hypot(x - mesh.Lx / 2.0, y - mesh.Ly / 2.0)
    score = size[cand] - 1e-9 * dist / max(mesh.Lx, mesh.Ly)
    return int(cand[np.argmax(score)])


def run_standing_mode(mode: ModeDofs, probes=None, observe=None) -> tuple:
    """Run `mode.config` from the mode's exact E(0), E(1) and J(0);
    probes=None takes the `pick_probe_edge` probe, and `observe` is
    `run`'s, called after each step's probe samples are taken.

    Returns (state, traces): the final state, and for each probe edge its
    E and J traces over steps 0 .. n_steps."""
    config, mesh = mode.config, mode.config.mesh
    if probes is None:
        probes = (pick_probe_edge(mesh, mode.v),)
    traces = {}  # one trace pair and one CSV per edge
    for e in probes:
        if not isinstance(e, (int, np.integer)):
            raise ValueError(f"probe edge {e!r} is not an integer index")
        if not (0 <= e < mesh.n_edges):
            raise ValueError(f"probe edge {e} out of range")
        if mesh.boundary_edge_mask[e]:
            raise ValueError(f"probe edge {e} is a boundary edge")
        if e in traces:
            raise ValueError(f"probe edge {e} is listed twice")
        traces[e] = (np.empty(config.n_steps + 1),
                     np.empty(config.n_steps + 1))

    def record(n, t, state):
        for e, (trace_E, trace_J) in traces.items():
            trace_E[n], trace_J[n] = state.E[e], state.J(e)
        if observe is not None:
            observe(n, t, state)

    state = run(config, mode.E(0), mode.E(1), mode.J(0), record)
    return state, traces


def convergence_study(meshes, schemes, sol: ExactSolution, nu: float,
                      T: float) -> list[dict]:
    """Run the standing-mode experiment on each mesh, in the order given,
    for each scheme label, in the order given; h is `mesh.dx`.

    Returns, scheme by scheme, one row per (field, mesh) with the relative
    L2 error at the final time and the relative dispersion error from the
    probe fit.  Every err_<m> column has its rate_<m>, log2(prev / err) /
    log2(h_prev / h) against the previous mesh, NaN on the first.
    The L2 references, like the initial data, come from the run's
    `mode_dofs`: E(n) and J(n) at the final step n; the fits read (a_h,
    b_h) off the probe traces alone.  Every (scheme, mesh) run is checked,
    as the `SimConfig` in `sol.medium` that `run_standing_mode` then runs,
    before the first one starts.  A DegenerateFitError from a probe fit is
    raised again naming the field, the scheme and h.
    """
    if isinstance(schemes, str):  # would iterate as one-letter labels
        raise ValueError(f"schemes must be a list of labels, not {schemes!r}")
    meshes, schemes = list(meshes), list(schemes)
    h_list = [mesh.dx for mesh in meshes]
    # a repeated h would leave a rate dividing by log2(h_prev / h) = 0
    if not meshes or not schemes or len(set(h_list)) < len(h_list):
        raise ValueError(f"meshes and schemes must be non-empty, no h "
                         f"repeated: h = {h_list}, schemes = {schemes}")
    runs = []  # per label, in the order given: its configs, mesh by mesh
    for scheme in schemes:
        runs.append([])
        for h, mesh in zip(h_list, meshes):
            if mesh.boundary_edge_mask.all():  # only the 1x1 PEC mesh
                raise ValueError(f"h={h:g}: {mesh} has no interior edge "
                                 "to probe")
            # the label, nu and T are checked here
            config = SimConfig(mesh=mesh, medium=sol.medium, scheme=scheme,
                               nu=nu, T=T)
            samples = 1 + config.n_steps
            if samples < MIN_FIT_SAMPLES:
                raise ValueError(f"T={T:g} leaves {samples} probe samples "
                                 f"at h={h:g}, fewer than the "
                                 f"{MIN_FIT_SAMPLES} a fit needs")
            runs[-1].append(config)

    def one(config):
        mesh, scheme, h = config.mesh, config.scheme, config.mesh.dx
        mode = mode_dofs(config, sol)
        state, traces = run_standing_mode(mode)
        [(trace_E, trace_J)] = traces.values()
        M = local_M(config.params, mesh.dx, mesh.dy)
        err_E = l2_relative_error(state.E, mode.E(state.n), mesh, M)
        err_J = l2_relative_error(state.J(), mode.J(state.n), mesh, M)

        def disp(field, trace):
            try:
                fit = fit_damped_cosine(trace, config.dt)
            except DegenerateFitError as exc:
                raise DegenerateFitError(
                    f"{field} probe fit failed for {scheme} at h={h:g}: "
                    f"{exc}") from None
            return dispersion_error_metric(fit, sol.a, sol.b)

        return {"E": {"l2": err_E, "disp": disp("E", trace_E)},
                "J": {"l2": err_J, "disp": disp("J", trace_J)}}

    rows = []
    for scheme, configs in zip(schemes, runs):
        results = [one(config) for config in configs]
        for field in ("E", "J"):
            for i, (h, res) in enumerate(zip(h_list, results)):
                row = {"log2_h": math.log2(h), "scheme": scheme,
                       "field": field}
                for m, err in res[field].items():
                    rate = float("nan")
                    if i:
                        rate = (math.log2(results[i - 1][field][m] / err)
                                / math.log2(h_list[i - 1] / h))
                    row["err_" + m], row["rate_" + m] = err, rate
                rows.append(row)
    return rows
