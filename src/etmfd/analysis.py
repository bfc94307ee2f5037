"""Exact standing-mode solutions, mimetic error norms, and convergence runs.

The verification solution is a PEC-compatible standing mode on the unit
square: a divergence-free trigonometric profile times a damped cosine
whose decay/oscillation pair (a, b) comes from the propagating root of
the continuous dispersion cubic.  Accuracy is measured two ways: a
relative L2 error in the mimetic mass-matrix inner product, summed face
by face from the local block, and a relative dispersion error from
nonlinear least-squares fits of probe time traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import oscillatory_root
from .mesh import build_mesh, interpolate_edge_field
from .operators import local_M, params_for_scheme
from .plasma import Medium
from .stepper import SimConfig, run


class DegenerateFitError(ValueError):
    """Fit cannot start: zero amplitude or singular normal matrix."""


class FitNotConvergedError(ArithmeticError):
    """A probe fit of a convergence study stopped before converging."""


# ---- exact solution ---------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    """Standing-mode solution with wave numbers in pi*Z (PEC-compatible)."""
    kx: float
    ky: float
    a: float
    b: float
    medium: Medium

    @property
    def k(self) -> float:
        return math.hypot(self.kx, self.ky)


def make_exact_solution(kx: float, ky: float, medium: Medium) -> ExactSolution:
    for name, kv in (("kx", kx), ("ky", ky)):
        m = kv / math.pi
        if abs(m - round(m)) > 1e-9:
            raise ValueError(f"{name}={kv} is not an integer multiple of pi")
    w = oscillatory_root(math.hypot(kx, ky), medium)
    # decay on the imaginary axis, oscillation on the real axis
    return ExactSolution(kx=kx, ky=ky, a=w.imag, b=w.real, medium=medium)


def spatial_mode(sol: ExactSolution, x, y):
    """Divergence-free profile (-ky cos sin, kx sin cos); curlcurl = k^2 * it."""
    vx = -sol.ky * np.cos(sol.kx * x) * np.sin(sol.ky * y)
    vy = sol.kx * np.sin(sol.kx * x) * np.cos(sol.ky * y)
    return vx, vy


def _model_and_jacobian(model: str, t: np.ndarray, a: float, b: float,
                        medium: Medium | None):
    """The time law of field `model` with decay a and frequency b at t,
    and its derivatives in a and b: (f, df/da, df/db)."""
    if model == "E":
        e = np.exp(a * t)
        c, s = np.cos(b * t), np.sin(b * t)
        f = e * c
        return f, t * f, -t * e * s
    if model == "J":
        if medium is None:
            raise ValueError("the J model needs the medium constants")
        wi = medium.omega_i
        scale = medium.eps0 * medium.omega_p ** 2
        e = np.exp(a * t)
        c, s = np.cos(b * t), np.sin(b * t)
        den = b * b + (a + wi) ** 2
        num = (a + wi) * c + b * s
        f = scale * e * num / den
        df_da = scale * e * (t * num / den + c / den
                             - num * 2.0 * (a + wi) / den ** 2)
        df_db = scale * e * ((-(a + wi) * t * s + s + b * t * c) / den
                             - num * 2.0 * b / den ** 2)
        return f, df_da, df_db
    raise ValueError(f"model must be 'E' or 'J', got {model!r}")


def e_time_factor(sol: ExactSolution, t):
    return _model_and_jacobian("E", t, sol.a, sol.b, sol.medium)[0]


def j_time_factor(sol: ExactSolution, t):
    return _model_and_jacobian("J", t, sol.a, sol.b, sol.medium)[0]


def mode_dofs(mesh, sol: ExactSolution) -> tuple[np.ndarray, np.ndarray]:
    """(mid, avg): the spatial mode's edge DoFs under the E rule (midpoint
    samples) and the J rule (4-point Gauss edge averages).  The exact
    fields' DoFs at t are these times e_time_factor and j_time_factor.

    On a PEC mesh the mode's tangential E must vanish on the walls
    x = Lx and y = Ly, which takes a whole number of half-waves across
    the domain: ValueError otherwise."""
    if mesh.boundary == "pec":
        for k, L in (("kx", "Lx"), ("ky", "Ly")):
            waves = getattr(sol, k) * getattr(mesh, L) / math.pi
            if abs(waves - round(waves)) > 1e-9:
                raise ValueError(
                    f"{k} {L} / pi = {waves:g} is not an integer: the mode "
                    f"does not vanish on the PEC wall at {L}")

    def mode(x, y):
        return spatial_mode(sol, x, y)
    return (interpolate_edge_field(mesh, mode, "midpoint"),
            interpolate_edge_field(mesh, mode, 4))


def initial_fields(sol: ExactSolution, mid, avg, dt: float) -> tuple:
    """(E0, E1, J0) for `stepper.run`: the exact E at t = 0 and dt and the
    exact J at t = 0, from the `mode_dofs` pair."""
    return (e_time_factor(sol, 0.0) * mid, e_time_factor(sol, dt) * mid,
            j_time_factor(sol, 0.0) * avg)


def exact_E(sol: ExactSolution, x, y, t):
    vx, vy = spatial_mode(sol, x, y)
    f = e_time_factor(sol, t)
    return f * vx, f * vy


# ---- error norms ------------------------------------------------------------

def l2_relative_error(F_h: np.ndarray, F_ref: np.ndarray, mesh,
                      M: np.ndarray) -> float:
    """sqrt(d^T M d / F_ref^T M F_ref) with d = F_h - F_ref and M the 4x4
    local block: v^T M v sums V_f M V_f^T over the faces f, with
    V = v[mesh.face_edge_table]."""
    def norm2(v):
        V = v[mesh.face_edge_table]
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


def fit_damped_cosine(trace: np.ndarray, dt: float, model: str = "E",
                      medium: Medium | None = None, amplitude: float = 1.0,
                      initial_guess: tuple[float, float] = (0.0, 1.0)
                      ) -> FitResult:
    """Levenberg-damped Gauss-Newton fit of (a_h, b_h) to a probe trace.

    The amplitude is fixed (the known spatial DoF factor at the probe);
    only the decay and frequency are free.  Accepts a step only when it
    lowers the residual; converges when the parameter update norm drops
    below 1e-12 within 200 iterations.  A non-converged fit is returned
    flagged, not raised.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.size < 8:
        raise ValueError(f"trace too short to fit: {trace.size} < 8")
    t = dt * np.arange(trace.size)
    a, b = float(initial_guess[0]), float(initial_guess[1])

    def residual(a, b):
        f, _, _ = _model_and_jacobian(model, t, a, b, medium)
        return trace - amplitude * f

    r = residual(a, b)
    cost = float(r @ r)
    lam = 1e-3
    its = 0
    for its in range(1, 201):
        f, df_da, df_db = _model_and_jacobian(model, t, a, b, medium)
        J = amplitude * np.column_stack([df_da, df_db])
        JtJ = J.T @ J
        g = J.T @ r
        scale = np.abs(JtJ).max()
        if scale <= 0.0 or np.linalg.det(JtJ) < 1e-30 * scale * scale:
            raise DegenerateFitError(
                "degenerate Jacobian (zero amplitude or flat model)")
        accepted = False
        for _ in range(50):
            A = JtJ + lam * np.diag(np.diag(JtJ))
            try:
                delta = np.linalg.solve(A, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = residual(a + delta[0], b + delta[1])
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                a, b = a + delta[0], b + delta[1]
                r, cost = r_new, cost_new
                lam = max(lam * 0.1, 1e-15)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        if np.linalg.norm(delta) < 1e-12:
            return FitResult(a, b, math.sqrt(cost / trace.size), its, True)
    return FitResult(a, b, math.sqrt(cost / trace.size), its, False)


def dispersion_error_metric(fit: FitResult, a_true: float,
                            b_true: float) -> float:
    """sqrt(((a-a_h)^2 + (b-b_h)^2) / (a^2 + b^2))."""
    num = (a_true - fit.a_h) ** 2 + (b_true - fit.b_h) ** 2
    return math.sqrt(num / (a_true ** 2 + b_true ** 2))


# ---- convergence study -------------------------------------------------------

def pick_probe_edge(mesh, mode: np.ndarray) -> int:
    """Interior edge with the largest |mode|, ties toward the center;
    mode is the midpoint DoF vector of `mode_dofs`."""
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


def convergence_study(h_list, scheme: str, medium: Medium,
                      sol: ExactSolution, nu: float, T: float) -> list[dict]:
    """Run the standing-mode experiment over a mesh-size sweep, in order.

    Returns one row per (h, field) with the relative L2 error at the
    final time and the relative dispersion error from the probe fit;
    rate columns hold log2 ratios between successive mesh sizes.  The
    references, like the initial data and the fit amplitudes, are the
    `mode_dofs` pair scaled by the exact time factors.  Raises
    FitNotConvergedError when a probe fit does not converge.
    """
    h_list = list(h_list)
    # a repeated h would leave a rate dividing by log2(h_prev / h) = 0
    if not h_list or len(set(h_list)) < len(h_list):
        raise ValueError(f"h_list must be non-empty, no h repeated: {h_list}")
    # every level is checked before the first one runs
    cells = [round(1.0 / h) if 0 < h <= 1 else 0 for h in h_list]  # NaN: 0
    for h, n in zip(h_list, cells):
        if n < 1 or abs(n * h - 1.0) > 1e-9:
            raise ValueError(f"1/h must be an integer, got h={h}")
        if n == 1:  # every edge of a 1x1 PEC mesh is a wall edge
            raise ValueError(f"h={h}: the 1x1 PEC mesh has no interior "
                             "edge to probe")

    def one(h, n):
        mesh = build_mesh(n, n, 1.0, 1.0, "pec")
        params = params_for_scheme(scheme, nu, mesh.gamma)
        mid, avg = mode_dofs(mesh, sol)
        probe = pick_probe_edge(mesh, mid)
        config = SimConfig(mesh=mesh, medium=medium, params=params,
                           nu=nu, T=T, probes=(probe,))
        result = run(config, *initial_fields(sol, mid, avg, config.dt))
        tf = result.t_final
        M = local_M(params, mesh.dx, mesh.dy)
        err_E = l2_relative_error(result.state.E_curr,
                                  e_time_factor(sol, tf) * mid, mesh, M)
        err_J = l2_relative_error(result.state.J_curr,
                                  j_time_factor(sol, tf) * avg, mesh, M)

        guess = (sol.a, sol.b)
        fit_E = fit_damped_cosine(result.probe_E[probe], config.dt, "E",
                                  medium, amplitude=mid[probe],
                                  initial_guess=guess)
        fit_J = fit_damped_cosine(result.probe_J[probe], config.dt, "J",
                                  medium, amplitude=avg[probe],
                                  initial_guess=guess)
        for field, fit in (("E", fit_E), ("J", fit_J)):
            if not fit.converged:
                raise FitNotConvergedError(
                    f"{field} probe fit did not converge for {scheme} at "
                    f"h={h:g} ({fit.iterations} iterations)")
        disp_E = dispersion_error_metric(fit_E, sol.a, sol.b)
        disp_J = dispersion_error_metric(fit_J, sol.a, sol.b)
        return {"E": (err_E, disp_E), "J": (err_J, disp_J)}

    results = [one(h, n) for h, n in zip(h_list, cells)]

    rows = []
    for field in ("E", "J"):
        prev = None
        for h, res in zip(h_list, results):
            err_l2, err_disp = res[field]
            rate_l2 = rate_disp = float("nan")
            if prev is not None:
                h_prev, l2_prev, disp_prev = prev
                factor = math.log2(h_prev / h)
                rate_l2 = math.log2(l2_prev / err_l2) / factor
                rate_disp = math.log2(disp_prev / err_disp) / factor
            rows.append({"log2_h": math.log2(h), "scheme": scheme,
                         "field": field, "err_l2": err_l2,
                         "rate_l2": rate_l2, "err_disp": err_disp,
                         "rate_disp": rate_disp})
            prev = (h, err_l2, err_disp)
    return rows
