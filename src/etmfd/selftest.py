"""Independent oracles and the checks built on them.

Each oracle recomputes a core quantity through a route the production
code does not take: the face-to-edge numbering written from its
formula, plain-loop dense assembly on it, a scaled Taylor series
and Gauss quadrature of the matrix exponential, Bloch reduction of the
local blocks, the optimal local W written in Courant numbers, the
exact solution of a curl-free mode, the w2 that would zero leapfrog's
dispersion residual in a conductor, and a Newton polish of the discrete
dispersion root.
Each check returns its measured deviation; CHECKS holds its name,
function, direction and bound in one row, and the acceptance suite pins
the bounds.  `etmfd selftest` runs every check in a few seconds, and the
acceptance tests call the same functions.
"""

from __future__ import annotations

import math

import numpy as np

from . import dispersion, operators, plasma, stepper
from .mesh import build_mesh

MEDIA = (plasma.Medium(eps0=1.0, omega_i=0.0, omega_p=1.0),
         plasma.Medium(eps0=1.0, omega_i=0.5, omega_p=1.0),
         plasma.Medium(eps0=1.0, omega_i=1.0, omega_p=1.0),
         plasma.Medium(eps0=0.5, omega_i=1.0, omega_p=2.0),
         plasma.Medium(eps0=2.0, omega_i=2.0, omega_p=3.0))
DTS = (0.01, 0.05, 0.1, 0.5, 1.0)


# ---- oracles ----------------------------------------------------------------

def series_exp_oracle(X: np.ndarray, dt: float) -> np.ndarray:
    """Matrix exponential by scaled Taylor series with repeated squaring.

    Independent of the closed forms; accurate to ~1e-13 for ||X||*dt <= 10.
    """
    A = np.asarray(X, dtype=float) * dt
    norm = np.abs(A).sum(axis=1).max()
    n_sq = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = A / (2 ** n_sq)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 40):
        term = term @ A / k
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(n_sq):
        out = out @ out
    return out


def quad_integral_exp(X, dt):
    """int_0^dt exp(X s) ds by 10-point Gauss-Legendre on 40 panels."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    out = np.zeros_like(np.asarray(X, dtype=float))
    width = dt / 40
    for p in range(40):
        mid = (p + 0.5) * width
        for xi, wi in zip(nodes, weights):
            out += 0.5 * width * wi * series_exp_oracle(X, mid + 0.5 * width * xi)
    return out


def face_edge_table(mesh) -> np.ndarray:
    """(n_faces, 4) edge indices of face f = j*nx + i, columns [bottom,
    right, top, left], from the numbering in the `mesh` docstring alone."""
    # int32 is scipy's CSR index type: COO oracles need no int64 copies
    j, i = np.divmod(np.arange(mesh.n_faces, dtype=np.int32), mesh.nx)
    h, v = j * mesh.nx + i, mesh.n_hedges + j * (mesh.nx + 1) + i
    return np.stack([h, v + 1, h + mesh.nx, v], axis=1)


def dense_operators(mesh, params):
    """Dense W and curl-curl assembled by explicit local-to-global loops,
    the PEC rows and columns zeroed."""
    n = mesh.n_edges
    Wd = np.zeros((n, n))
    Ad = np.zeros((n, n))
    Wl = operators.local_W(params, mesh.dx, mesh.dy)
    c = operators.local_curl(mesh.dx, mesh.dy)
    Al = np.outer(c, c) * mesh.dx * mesh.dy
    for ed in face_edge_table(mesh):
        for i in range(4):
            for j in range(4):
                Wd[ed[i], ed[j]] += Wl[i, j]
                Ad[ed[i], ed[j]] += Al[i, j]
    b = mesh.boundary_edge_mask
    for M in (Wd, Ad):
        M[b, :] = 0.0
        M[:, b] = 0.0
    return Wd, Ad


def dense_step(fields, config, ops):
    """(E^{n+1}, J^{n+1}) from (E^n, E^{n-1}, J^n, J^{n-1}), dense."""
    E, E_prev, J, J_prev = fields
    Wd, Ad = dense_operators(config.mesh, config.params)
    c2dt = config.medium.c0 ** 2 * config.dt
    E_next = ((1 + ops.alpha1) * E + ops.alpha2 * J - ops.alpha1 * E_prev
              - ops.alpha2 * J_prev - c2dt * ops.alpha3 * (Wd @ (Ad @ E)))
    J_next = (ops.beta1 * J + ops.beta2 * E + ops.beta3 / ops.alpha3
              * (E_next - ops.alpha1 * E - ops.alpha2 * J))
    return E_next, J_next


def increment_state(fields, ops, n=1):
    """The `stepper.SimState` of step n from (E^n, E^{n-1}, J^n, J^{n-1})."""
    E, E_prev, J, J_prev = (np.array(v, dtype=float) for v in fields)
    cN = ops.beta3 / ops.alpha3
    W = ops.alpha1 * (E - E_prev) + ops.alpha2 * (J - J_prev)
    return stepper.SimState(E, W, J - cN * E, cN, n)


def leapfrog_zeroing_w2(omega: complex, tau: float, nu: float,
                        gamma: float) -> complex:
    """The w2 that zeroes the h^2 coefficient of the leapfrog dispersion
    residual in a conductor,
    (nu^2 w^2 (w^2 + 2i w/tau) - 12 gamma w2 (w^2 + i w/tau)^2) / (12 c0^2),
    at frequency omega.  At finite tau it is complex and depends on omega:
    no single real w2 zeroes the residual for all omega, which is why
    leapfrog time stepping cannot be dispersion-optimized in lossy media."""
    a = omega * omega + 2j * omega / tau
    b = omega * omega + 1j * omega / tau
    return nu * nu * omega * omega * a / (12.0 * gamma * b * b)


def discrete_root_polish(wv, medium, dt: float, h: float, gamma: float,
                         params, omega_guess: complex,
                         max_iter: int = 100) -> complex:
    """Newton-polish the discrete dispersion root starting from omega_guess.

    Iterates on f(w) = det(T(w) - S_h P1); the derivative is a complex
    central difference (f is entire in omega).  T's entries are O(w^2)
    sums of terms of size 1/dt^2, so rounding leaves the root uncertain
    by about eps / (|w| dt)^2 relative (eps once |w| dt > 1), whatever
    the residual: the iteration stops once a Newton step is within 64
    times that.
    """
    def f(w):
        return dispersion.relative_dispersion_error(
            w, wv, medium, dt, h, gamma, params) * abs(w)

    w = complex(omega_guess)
    for _ in range(max_iter):
        step = 1e-6 * max(1.0, abs(w))
        dfdw = (f(w + step) - f(w - step)) / (2.0 * step)
        if dfdw == 0:
            raise ArithmeticError("vanishing derivative during root polish")
        dw = f(w) / dfdw
        w = w - dw
        tol = 64.0 * np.finfo(float).eps * max(1.0, (abs(w) * dt) ** -2)
        if abs(dw) <= tol * abs(w):
            return w
    raise ArithmeticError(
        f"root polish did not converge in {max_iter} iterations (last "
        f"step {abs(dw) / abs(w):.3e} relative, bound {tol:.3e})")


def optimal_local_W(nu_x: float, nu_y: float, dx: float, dy: float) -> np.ndarray:
    """The dispersion-optimal local W written directly in Courant numbers."""
    p, q = nu_x * nu_y, nu_x * nu_x
    r = nu_y * nu_y
    W = np.array([
        [7.0 - r, -p, r - 1.0, p],
        [-p, 7.0 - q, p, q - 1.0],
        [r - 1.0, p, 7.0 - r, -p],
        [p, q - 1.0, -p, 7.0 - q],
    ])
    return W / (12.0 * dx * dy)


# ---- checks -----------------------------------------------------------------

def exp_oracle_deviation():
    """Closed-form exponential and its integral vs series and quadrature."""
    worst = 0.0
    for med in MEDIA:
        X = plasma.coupling_matrix(med)
        for dt in DTS:
            ops = plasma.exp_operators(med, dt)
            worst = max(worst,
                        np.abs(ops.exp_matrix - series_exp_oracle(X, dt)).max(),
                        np.abs(ops.integral_matrix
                               - quad_integral_exp(X, dt)).max())
    return worst


def one_step_dense_deviation():
    """Sparse step vs dense assembly from random states, on two meshes."""
    rng = np.random.default_rng(3)
    medium = plasma.Medium()
    worst = 0.0
    for mesh in (build_mesh(3, 3, 1.0, 1.0), build_mesh(3, 4, 1.0, 2.0)):
        config = stepper.SimConfig(mesh=mesh, medium=medium, scheme="etmfd",
                                   nu=0.5, T=1.0)
        ops = plasma.exp_operators(medium, config.dt)
        fields = rng.standard_normal((4, mesh.n_edges))
        st = increment_state(fields, ops)
        stepper.step(st, stepper.step_operators(config, st.E))
        E_ref, J_ref = dense_step(fields, config, ops)
        worst = max(worst, np.abs(st.E - E_ref).max(),
                    np.abs(st.J() - J_ref).max())
    return worst


def symbol_reduction_deviation():
    """Closed-form spatial symbol vs Bloch reduction, 20 random draws."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        wv = dispersion.WaveVec(rng.uniform(0.3, 9.0),
                                rng.uniform(0.0, 2 * np.pi))
        h = rng.uniform(0.02, 0.4)
        gamma = rng.uniform(0.25, 4.0)
        pars = operators.MfdParams(rng.uniform(0.0, 0.6),
                                   rng.uniform(-0.15, 0.15),
                                   rng.uniform(0.0, 0.6))
        worst = max(worst, abs(
            dispersion.spatial_symbol(wv, h, gamma, pars, 1.0)
            - dispersion.spatial_symbol_bloch(wv, h, gamma, pars, 1.0)))
    return worst


def optimal_W_deviation():
    """Optimal local W written in Courant numbers vs composed from weights."""
    worst = 0.0
    for nu in (0.0, 0.25, 0.5, 1.0):
        for gamma in (0.25, 1.0, 4.0):
            dx = 0.37
            dy = gamma * dx
            direct = optimal_local_W(nu, nu / gamma, dx, dy)
            composed = operators.local_W(operators.optimal_params(nu, gamma),
                                         dx, dy)
            worst = max(worst, np.abs(direct - composed).max())
    return worst


def leapfrog_lossy_spread():
    """Smallest of |Im w2(1)|, |Im w2(2)| and |w2(1) - w2(2)| for the
    leapfrog zeroing weight at tau = 1, nu = 1/2, gamma = 1: in a lossy
    medium it is neither real nor frequency-independent."""
    z1 = leapfrog_zeroing_w2(1.0, 1.0, 0.5, 1.0)
    z2 = leapfrog_zeroing_w2(2.0, 1.0, 0.5, 1.0)
    return min(abs(z1.imag), abs(z2.imag), abs(z1 - z2))


def leapfrog_vacuum_deviation():
    """Relative distance of the vacuum-limit zeroing weight from the real,
    frequency-independent nu^2 / (12 gamma) at nu = 1/2, gamma = 1."""
    w2_vac = 0.5 ** 2 / 12.0
    worst = 0.0
    for omega in (1.0, 2.0):
        z = leapfrog_zeroing_w2(omega, 1e12, 0.5, 1.0)
        worst = max(worst, abs(z.imag) / w2_vac, abs(z - w2_vac) / w2_vac)
    return worst


def ode_exactness_deviation(dts=(0.1, 0.01)):
    """A curl-free mode run to T = 1 vs the exact exponential at the final
    time.  The mode is the gradient of the hat at the one interior node of
    a 2x2 mesh of unit cells, +-1 on its four edges: its curl is exactly
    0, so the step on each edge is the 2x2 ODE of the k = 0 mode."""
    medium = plasma.Medium()
    X = plasma.coupling_matrix(medium)
    u0 = np.array([0.9, -0.4])
    mesh = build_mesh(2, 2, 2.0, 2.0)
    mode = np.zeros(mesh.n_edges)
    h, v = mesh.edge_lines(mode)
    h[1], v[:, 1] = (1.0, -1.0), (1.0, -1.0)
    e = face_edge_table(mesh)[0, 2]  # h[1, 0]: the hat rises along it, +1
    worst = 0.0
    for dt in dts:
        u1 = series_exp_oracle(X, dt) @ u0
        config = stepper.SimConfig(mesh=mesh, medium=medium, scheme="et-yee",
                                   nu=dt * medium.c0 / mesh.dx, T=1.0)
        state = stepper.run(config, mode * u0[0], mode * u1[0], mode * u0[1])
        ref = series_exp_oracle(X, state.n * config.dt) @ u0
        worst = max(worst, abs(state.E[e] - ref[0]),
                    abs(state.J(e) - ref[1]))
    return worst


def fourth_order_slope():
    """Slope of |det(T - S P1)|/|w| vs h; reaches 4 for optimal weights.

    Run off-axis so every weight (including the cross term w2) is live.
    """
    slope, _ = dispersion.symbol_error_slope(4.0, 0.5, plasma.Medium(),
                                             "etmfd", theta=0.4)
    return slope


# (name, check, direction, bound): the check's measure must stay below
# ("<") or above (">") the bound
CHECKS = (
    ("exp-oracles", exp_oracle_deviation, "<", 1e-12),
    ("one-step-dense", one_step_dense_deviation, "<", 1e-13),
    ("symbol-reduction", symbol_reduction_deviation, "<", 1e-12),
    ("optimal-W-identity", optimal_W_deviation, "<", 1e-14),
    ("leapfrog-lossy", leapfrog_lossy_spread, ">", 1e-3),
    ("leapfrog-vacuum", leapfrog_vacuum_deviation, "<", 1e-10),
    ("ode-exactness", ode_exactness_deviation, "<", 1e-12),
    ("fourth-order-symbol", fourth_order_slope, ">", 3.8),
)


def passes(name: str, value: float) -> bool:
    [(direction, bound)] = [(d, b) for n, _, d, b in CHECKS if n == name]
    return value > bound if direction == ">" else value < bound


def run_all(report=print):
    """Run every check; returns True only if all pass."""
    all_ok = True
    for name, fn, direction, bound in CHECKS:
        try:
            value = fn()
            ok = passes(name, value)
            detail = f"{value:.3e} (need {direction} {bound:g})"
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
