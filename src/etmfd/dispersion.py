"""Plane-wave symbol analysis and dispersion-error evaluation.

The spatial symbol S_h is the single nonzero eigenvalue (= trace) of the
Bloch-reduced discrete curl-curl W_bar * A_bar; the temporal symbol T is
the 2x2 matrix by which the exponential two-step update acts on a
time-harmonic (E, J) amplitude pair.  The relative dispersion error of a
scheme at a frequency omega is det(T(omega) - S_h(k) * P1) / |omega|
with P1 = diag(1, 0); it vanishes exactly on roots of the discrete
dispersion relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, repeat

import numpy as np

from .operators import MfdParams, local_W, local_curl, params_for_scheme
from .plasma import Medium, exp_operators


@dataclass(frozen=True)
class WaveVec:
    """Wave vector k*(cos(theta), sin(theta)); theta may be an array of
    angles, and then kx, ky and the symbols built on them are arrays."""
    k: float
    theta: float | np.ndarray

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"wave number must be >= 0, got {self.k}")

    @property
    def kx(self) -> float | np.ndarray:
        return self.k * np.cos(self.theta)

    @property
    def ky(self) -> float | np.ndarray:
        return self.k * np.sin(self.theta)


def spatial_symbol(wv: WaveVec, h: float, gamma: float,
                   params: MfdParams, c0: float) -> float | np.ndarray:
    """Discrete spatial symbol of c0^2 * curl curl on a dx=h, dy=gamma*h cell.

    The (4w-1) coupling signs are fixed by the Bloch reduction of the
    assembled local blocks and by the Taylor expansion
    S_h = -(c0 k)^2 {1 + [(w3-1/3)cos^4 + 2 gamma w2 cos^2 sin^2
    + gamma^2 (w1-1/3) sin^4] k^2 h^2 + O(h^4)}.
    """
    sx = np.square(np.sin(0.5 * wv.kx * h))
    sy = np.square(np.sin(0.5 * wv.ky * gamma * h))
    w1, w2, w3 = params.w1, params.w2, params.w3
    c2 = c0 * c0
    term_x = -(4.0 * c2 / h ** 2) * sx * (1.0 + (4.0 * w3 - 1.0) * sx)
    term_xy = -(32.0 * c2 / (gamma * h ** 2)) * w2 * sx * sy
    term_y = -(4.0 * c2 / (gamma * h) ** 2) * sy * (1.0 + (4.0 * w1 - 1.0) * sy)
    return term_x + term_xy + term_y


def spatial_symbol_bloch(wv: WaveVec, h: float, gamma: float,
                         params: MfdParams, c0: float) -> complex:
    """Spatial symbol recomputed from assembled local blocks (oracle path):
    -c0^2 trace(W_bar A_bar), each local 4x4 block Z reduced to its 2x2
    action S^H Z S on Bloch-wave amplitudes.  S maps the two reference
    DoF to a face's four, rows in [bottom, right, top, left] order: the
    top edge is the bottom shifted by (0, dy), the left edge is the right
    shifted by (-dx, 0).
    """
    dx, dy = h, gamma * h
    top, left = np.exp(1j * wv.ky * dy), np.exp(-1j * wv.kx * dx)
    S = np.array([[1.0, 0.0], [0.0, 1.0], [top, 0.0], [0.0, left]], complex)
    c = local_curl(dx, dy)
    Wb, Ab = (S.conj().T @ Z @ S for Z in (local_W(params, dx, dy),
                                           np.outer(c, c) * (dx * dy)))
    return -c0 * c0 * np.trace(Wb @ Ab)


def temporal_symbol(omega: complex, medium: Medium, dt: float) -> np.ndarray:
    """Discrete temporal symbol of the exponential two-step update.

    T = Y^{-1} (e^{-i w dt} I - (I + e^{X dt}) + e^{i w dt} e^{X dt}) / dt
    with Y the exact integral of e^{X s} over one step.  Expands as
    (-w^2 I + i w X) + dt^2/12 (-w^2 I + i w X)^2 + O(dt^4).
    """
    ops = exp_operators(medium, dt)
    E = ops.exp_matrix.astype(complex)
    Y = ops.integral_matrix.astype(complex)
    det = Y[0, 0] * Y[1, 1] - Y[0, 1] * Y[1, 0]
    scale = np.abs(Y).max()
    # scale ~ dt for usable steps; a collapsed or rank-deficient integral
    # (e.g. a lossless medium over a full period) is unusable either way
    if scale < 1e-12 * dt or abs(det) < 1e-14 * scale * scale:
        raise np.linalg.LinAlgError(
            f"exponential integral matrix is singular at dt={dt}")
    Yinv = np.array([[Y[1, 1], -Y[0, 1]], [-Y[1, 0], Y[0, 0]]],
                    dtype=complex) / det
    I = np.eye(2, dtype=complex)
    bracket = np.exp(-1j * omega * dt) * I - (I + E) + np.exp(1j * omega * dt) * E
    return Yinv @ bracket / dt


def continuous_cubic_coeffs(k: float, medium: Medium) -> np.ndarray:
    """Descending coefficients of the continuous dispersion cubic in omega.

    From det(-w^2 I + i w X + c0^2 k^2 P1) = 0, the cubic
    w^3 + i*wi*w^2 - (wp^2 + c0^2 k^2) w - i*wi*c0^2 k^2 = 0, whose
    oscillatory roots are +-b + i*a with a <= 0 (decay on the imaginary
    axis, oscillation on the real axis).
    """
    wi, wp, c0 = medium.omega_i, medium.omega_p, medium.c0
    ck2 = (c0 * k) ** 2
    return np.array([1.0, 1j * wi, -(wp * wp + ck2), -1j * wi * ck2])


def continuous_roots(k: float, medium: Medium) -> np.ndarray:
    """Three complex roots of the continuous dispersion cubic."""
    if not np.isfinite(k):
        raise ValueError(f"wave number must be finite, got {k}")
    coeffs = continuous_cubic_coeffs(k, medium)
    roots = np.roots(coeffs)
    scale = max(np.abs(roots).max(), 1.0)
    for w in roots:
        res = abs(np.polyval(coeffs, w))
        if res > 1e-10 * max(abs(coeffs[2]) * scale, scale ** 3):
            raise ArithmeticError(f"cubic root residual too large: {res:.3e}")
    return roots


def oscillatory_root(k: float, medium: Medium) -> complex:
    """The propagating-mode root: maximal oscillatory part, positive sign."""
    roots = continuous_roots(k, medium)
    return roots[np.argmax(roots.real)]


def relative_dispersion_error(omega: complex, wv: WaveVec, medium: Medium,
                              dt: float, h: float, gamma: float,
                              params: MfdParams) -> complex | np.ndarray:
    """det(T(omega) - S_h(k) P1) / |omega|, a local-truncation-style error,
    with S_h at the medium's c0.

    A complex scalar, or a complex array over an array of angles in wv.
    The determinant (T00 - S) T11 - T01 T10 is written out in real
    arithmetic, so every angle of an array rounds exactly as a scalar call.
    """
    T = temporal_symbol(omega, medium, dt)
    S = spatial_symbol(wv, h, gamma, params, medium.c0)
    a_re, a_im = T[0, 0].real - S, T[0, 0].imag
    b_re, b_im = T[1, 1].real, T[1, 1].imag
    c = T[0, 1] * T[1, 0]
    det = np.empty(np.shape(S), dtype=complex)
    det.real = (a_re * b_re - a_im * b_im) - c.real
    det.imag = (a_re * b_im + a_im * b_re) - c.imag
    return det / abs(omega)


def anisotropy_sweep(theta_grid, k: float, ppw_list, nu: float, gamma: float,
                     medium: Medium, schemes, fixed_cell_area: bool = False):
    """Relative dispersion error over propagation angles.

    For each ppw the cell size is h = 2*pi/(k*ppw); dt = nu*h/c0.
    schemes is an iterable of labels, each resolved to its weights at
    (nu, gamma) by `params_for_scheme` before any row is computed.
    Returns rows (theta, k, ppw, scheme, abs_err, re_err, im_err), ppw
    outermost and scheme innermost; each (distinct h, scheme) pair is one
    relative_dispersion_error call over the whole angle grid.

    With fixed_cell_area, every ppw uses h = 2*pi/(k*ppw_list[0])/sqrt(gamma),
    which fixes the cell area across aspect ratios; ppw then only labels
    the rows, and each ppw block repeats the errors computed once.
    """
    if isinstance(schemes, str):  # would iterate as one-letter labels
        raise ValueError(f"schemes must be a list of labels, not {schemes!r}")
    ppw_list, schemes = list(ppw_list), list(schemes)
    if not all(0 < v < np.inf for v in (k, gamma, *ppw_list)):  # NaN fails
        raise ValueError(f"k, gamma and ppw must be finite and > 0, got "
                         f"k={k}, gamma={gamma}, ppw={ppw_list}")
    params = [params_for_scheme(label, nu, gamma) for label in schemes]
    omega = oscillatory_root(k, medium)
    wv = WaveVec(k, np.asarray(theta_grid, dtype=float))
    theta_col = np.repeat(wv.theta, len(schemes)).tolist()
    cols = {}  # h -> (abs_err, re_err, im_err), shared by its ppw blocks
    rows = []
    for ppw in ppw_list:
        h = (2.0 * np.pi / (k * ppw) if not fixed_cell_area
             else 2.0 * np.pi / (k * ppw_list[0]) / np.sqrt(gamma))
        if h not in cols:
            dt = nu * h / medium.c0
            err = np.empty((wv.theta.size, len(schemes)), dtype=complex)
            for j, p in enumerate(params):
                err[:, j] = relative_dispersion_error(omega, wv, medium, dt,
                                                      h, gamma, p)
            re, im = err.real.ravel(), err.imag.ravel()  # scheme innermost
            cols[h] = np.hypot(re, im).tolist(), re.tolist(), im.tolist()
        rows += zip(theta_col, repeat(k), repeat(ppw), cycle(schemes),
                    *cols[h])
    return rows


def symbol_error_slope(k: float, nu: float, medium: Medium, scheme: str,
                       ppw_list=(12, 24, 48), theta: float = 0.0,
                       gamma: float = 1.0):
    """Least-squares slope of log|E| vs log h along the continuous root,
    for the weights of `scheme` at (nu, gamma), the same on every level.
    Returns (slope, errors) with one |E| per entry of ppw_list.
    """
    params = params_for_scheme(scheme, nu, gamma)
    omega, wv = oscillatory_root(k, medium), WaveVec(k, theta)
    hs = [2.0 * np.pi / (k * ppw) for ppw in ppw_list]
    errs = np.array([abs(relative_dispersion_error(
        omega, wv, medium, nu * h / medium.c0, h, gamma, params)) for h in hs])
    return np.polyfit(np.log(hs), np.log(errs), 1)[0], errs
