import cmath

import numpy as np
import pytest

from etmfd import cli, dispersion
from etmfd.dispersion import (WaveVec, anisotropy_sweep,
                              continuous_cubic_coeffs, continuous_roots,
                              oscillatory_root, relative_dispersion_error,
                              spatial_symbol, spatial_symbol_bloch,
                              temporal_symbol)
from etmfd.mesh import build_mesh
from etmfd.operators import (MfdParams, local_W, local_curl, optimal_params,
                             params_for_scheme, yee_params)
from etmfd.plasma import Medium
from etmfd.selftest import (coupling_matrix, discrete_root_polish,
                            face_edge_table, leapfrog_zeroing_w2,
                            quad_integral_exp, series_exp_oracle)

from conftest import (assemble_W, assemble_curl_curl, bloch_edge_field,
                      conductive_leapfrog_residual)

MEDIUM = Medium()
P1 = np.array([[1.0, 0.0], [0.0, 0.0]])  # the projection on E


def test_wavevec():
    wv = WaveVec(2.0, np.pi / 6)
    assert abs(wv.kx - np.sqrt(3)) < 1e-15
    assert abs(wv.ky - 1.0) < 1e-15
    with pytest.raises(ValueError):
        WaveVec(-1.0, 0.0)


# ---- spatial symbol -----------------------------------------------------------

def test_symbol_zero_wave():
    assert spatial_symbol(WaveVec(0.0, 0.3), 0.1, 1.0, yee_params(), 1.0) == 0.0


def test_symbol_yee_axis_wave():
    val = spatial_symbol(WaveVec(np.pi, 0.0), 0.125, 1.0, yee_params(), 1.0)
    assert abs(val + 256.0 * np.sin(np.pi / 16) ** 2) < 1e-12


def test_symbol_matches_bloch_reduction(rng):
    for _ in range(20):
        wv = WaveVec(rng.uniform(0.3, 9.0), rng.uniform(0.0, 2 * np.pi))
        h = rng.uniform(0.02, 0.4)
        gamma = rng.uniform(0.25, 4.0)
        pars = MfdParams(rng.uniform(0.0, 0.6), rng.uniform(-0.15, 0.15),
                         rng.uniform(0.0, 0.6))
        c0 = rng.uniform(0.5, 2.0)
        closed = spatial_symbol(wv, h, gamma, pars, c0)
        reduced = spatial_symbol_bloch(wv, h, gamma, pars, c0)
        assert abs(closed - reduced) < 1e-12 * max(1.0, abs(closed))
        assert abs(reduced.imag) < 1e-12 * max(1.0, abs(closed))


def test_symbol_nonpositive_near_optimal_family(rng):
    for _ in range(50):
        w2 = rng.uniform(-0.05, 0.05)
        pars = MfdParams(1 / 3 + rng.uniform(-0.02, 0.02), w2,
                         1 / 3 + rng.uniform(-0.02, 0.02))
        wv = WaveVec(rng.uniform(0.0, 10.0), rng.uniform(0.0, 2 * np.pi))
        val = spatial_symbol(wv, rng.uniform(0.01, 0.3), rng.uniform(0.5, 2.0),
                             pars, 1.0)
        assert val <= 1e-12


def test_symbol_taylor_slope_generic():
    # |S_h + (c0 k)^2| = O(h^2) for a generic member
    pars = MfdParams(0.27, 0.01, 0.22)
    wv = WaveVec(2.0, 0.7)
    errs = [abs(spatial_symbol(wv, h, 1.3, pars, 1.0) + 4.0)
            for h in (1e-2, 5e-3, 2.5e-3)]
    slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1


def test_symbol_taylor_coefficient_with_angle_free_weights():
    # with w1, w3 tied to w2 the h^2 coefficient is gamma*w2*(c0 k)^2*k^2
    gamma, w2, c0 = 1.4, -0.017, 1.0
    pars = MfdParams(w2 / gamma + 1 / 3, w2, w2 * gamma + 1 / 3)
    k = 2.0
    for theta in (0.0, 0.35, 1.1):
        wv = WaveVec(k, theta)
        h = 1e-3
        coef = (spatial_symbol(wv, h, gamma, pars, c0) + (c0 * k) ** 2) / h ** 2
        pred = -gamma * w2 * (c0 * k) ** 2 * k ** 2
        assert abs(coef - pred) < 0.02 * abs(pred)


# ---- lemma-1 verification on an assembled mesh ---------------------------------

def test_lemma1_assembled_operator_action(rng):
    # PEC drops the wall rows and columns: compare the rows whose two
    # faces touch no wall edge, where no term is dropped
    mesh = build_mesh(8, 8, 1.0, 1.0)
    fe = face_edge_table(mesh)
    touched = np.zeros(mesh.n_edges, dtype=bool)
    touched[fe[mesh.boundary_edge_mask[fe].any(axis=1)]] = True
    rows = ~touched
    pars = MfdParams(0.31, -0.02, 0.29)
    W_op = assemble_W(mesh, pars)
    A_op = assemble_curl_curl(mesh)
    Wl = local_W(pars, mesh.dx, mesh.dy)
    c = local_curl(mesh.dx, mesh.dy)
    Al = np.outer(c, c) * mesh.dx * mesh.dy
    for _ in range(20):
        kx, ky = rng.uniform(-np.pi / mesh.dx, np.pi / mesh.dx, 2)
        U1, U2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        U = bloch_edge_field(mesh, kx, ky, U1, U2)
        # the phase matrix: face DoF [bottom, right, top, left] from the
        # reference pair, top = bottom shifted by (0, dy), left = right
        # shifted by (-dx, 0)
        S = np.array([[1, 0], [0, 1], [np.exp(1j * ky * mesh.dy), 0],
                      [0, np.exp(-1j * kx * mesh.dx)]])
        for op, Zl in ((W_op, Wl), (A_op, Al)):
            V = op @ U
            V12 = S.conj().T @ Zl @ S @ np.array([U1, U2])
            ref = bloch_edge_field(mesh, kx, ky, *V12)
            scale = max(1.0, np.abs(V).max())
            assert np.abs(V - ref)[rows].max() < 1e-12 * scale


# ---- temporal symbol ------------------------------------------------------------

def test_temporal_symbol_zero_frequency():
    assert np.abs(temporal_symbol(0.0, MEDIUM, 0.1)).max() == 0.0


def test_temporal_symbol_taylor():
    X = coupling_matrix(MEDIUM)
    w = 1.3 + 0.2j
    M = -w * w * np.eye(2) + 1j * w * X
    dt = 1e-3
    coef = (temporal_symbol(w, MEDIUM, dt) - M) / dt ** 2
    ref = M @ M / 12.0
    assert np.abs(coef - ref).max() < 0.05 * np.abs(ref).max()


def test_temporal_symbol_singular_integral():
    # lossless medium over one full oscillation period: the exponential
    # integral vanishes and the symbol is undefined
    med = Medium(omega_i=0.0, omega_p=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        temporal_symbol(1.0, med, 2 * np.pi / med.beta)


def test_temporal_symbol_oracle_recomposition():
    med = Medium(omega_i=1.0, omega_p=1.0)
    dt = 0.1
    X = coupling_matrix(med)
    E = series_exp_oracle(X, dt)
    Y = quad_integral_exp(X, dt)
    for w in (0.7, 2.3, 4.1):
        I = np.eye(2)
        bracket = (cmath.exp(-1j * w * dt) * I - (I + E)
                   + cmath.exp(1j * w * dt) * E)
        ref = np.linalg.solve(Y, bracket) / dt
        assert np.abs(temporal_symbol(w, med, dt) - ref).max() < 1e-11


# ---- continuous roots -----------------------------------------------------------

def test_physical_roots_at_zero_wave():
    # k = 0 reduces to the damped oscillator: omega = i*alpha -+ ... i.e.
    # +-beta + i*alpha and 0
    roots = continuous_roots(0.0, MEDIUM)
    expected = [0.0, MEDIUM.beta + 1j * MEDIUM.alpha,
                -MEDIUM.beta + 1j * MEDIUM.alpha]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-12


def test_experiment_root_magnitudes():
    # reported working point: oscillation ~ 4.55, decay ~ 0.023
    w = oscillatory_root(np.sqrt(2) * np.pi, MEDIUM)
    assert 4.5 < abs(w.real) < 4.6
    assert 0.022 < abs(w.imag) < 0.024
    assert w.real > 0 and w.imag < 0


def test_vieta_sum(rng):
    for _ in range(10):
        wp = rng.uniform(0.2, 3.0)
        med = Medium(omega_i=rng.uniform(0.0, 1.9) * wp, omega_p=wp,
                     c0=rng.uniform(0.5, 2.0))
        k = rng.uniform(0.0, 8.0)
        coeffs = continuous_cubic_coeffs(k, med)
        roots = continuous_roots(k, med)
        assert abs(roots.sum() - (-coeffs[1] / coeffs[0])) < 1e-12 * max(
            1.0, abs(roots).max())


def test_oscillatory_root_selection(rng):
    for _ in range(10):
        med = Medium(omega_i=rng.uniform(0.0, 1.5), omega_p=1.0)
        w = oscillatory_root(rng.uniform(0.5, 6.0), med)
        assert w.real > 0
        assert w.imag <= 0


# ---- relative dispersion error ---------------------------------------------------

def _setup(ppw, k=4.0, nu=0.5):
    h = 2 * np.pi / (k * ppw)
    dt = nu * h / MEDIUM.c0
    return h, dt


def test_error_vanishes_at_polished_root():
    k, nu, ppw = 4.0, 0.5, 12
    h, dt = _setup(ppw)
    wv = WaveVec(k, 0.4)
    pars = optimal_params(nu, 1.0)
    w0 = oscillatory_root(k, MEDIUM)
    w = discrete_root_polish(wv, MEDIUM, dt, h, 1.0, pars, w0)
    err = relative_dispersion_error(w, wv, MEDIUM, dt, h, 1.0, pars)
    assert abs(err) < 1e-12


def test_optimal_beats_yee_by_10x():
    k, nu, ppw = 4.0, 0.5, 12
    h, dt = _setup(ppw)
    w = oscillatory_root(k, MEDIUM)
    wv = WaveVec(k, 0.0)
    e_opt = abs(relative_dispersion_error(w, wv, MEDIUM, dt, h, 1.0,
                                          optimal_params(nu, 1.0)))
    e_yee = abs(relative_dispersion_error(w, wv, MEDIUM, dt, h, 1.0,
                                          yee_params()))
    assert e_opt * 10.0 <= e_yee


def test_refinement_ratios():
    # doubling ppw drops |E| by ~2^4 (optimal) and ~2^2 (Yee), +-30%
    k, nu = 4.0, 0.5
    w = oscillatory_root(k, MEDIUM)
    wv = WaveVec(k, 0.0)
    vals = {}
    for label, pars in (("opt", optimal_params(nu, 1.0)), ("yee", yee_params())):
        errs = []
        for ppw in (12, 24):
            h, dt = _setup(ppw)
            errs.append(abs(relative_dispersion_error(
                w, wv, MEDIUM, dt, h, 1.0, pars)))
        vals[label] = errs[0] / errs[1]
    assert 16.0 * 0.7 < vals["opt"] < 16.0 * 1.3
    assert 4.0 * 0.7 < vals["yee"] < 4.0 * 1.3


# ---- root polishing --------------------------------------------------------------

def test_polish_converges_quickly_for_weak_damping():
    med = Medium(omega_i=0.01, omega_p=1.0)
    k, nu, ppw = 4.0, 0.5, 12
    h, dt = _setup(ppw)
    w0 = oscillatory_root(k, med)
    w = discrete_root_polish(WaveVec(k, 0.2), med, dt, h, 1.0,
                             optimal_params(nu, 1.0), w0, max_iter=10)
    assert np.isfinite(w.real) and np.isfinite(w.imag)


def test_polish_returns_root_unchanged():
    k, nu, ppw = 4.0, 0.5, 12
    h, dt = _setup(ppw)
    pars = optimal_params(nu, 1.0)
    wv = WaveVec(k, 0.4)
    w0 = oscillatory_root(k, MEDIUM)
    w = discrete_root_polish(wv, MEDIUM, dt, h, 1.0, pars, w0)
    w_again = discrete_root_polish(wv, MEDIUM, dt, h, 1.0, pars, w)
    assert abs(w_again - w) < 1e-9 * abs(w)


def test_polished_minus_continuous_scaling():
    k, nu = 4.0, 0.5
    w0 = oscillatory_root(k, MEDIUM)
    wv = WaveVec(k, 0.0)
    diffs = {"opt": [], "yee": []}
    hs = []
    for ppw in (12, 24, 48):
        h, dt = _setup(ppw)
        hs.append(h)
        for label, pars in (("opt", optimal_params(nu, 1.0)),
                            ("yee", yee_params())):
            w = discrete_root_polish(wv, MEDIUM, dt, h, 1.0, pars, w0)
            diffs[label].append(abs(w - w0))
    slope_opt = np.polyfit(np.log(hs), np.log(diffs["opt"]), 1)[0]
    slope_yee = np.polyfit(np.log(hs), np.log(diffs["yee"]), 1)[0]
    assert slope_opt >= 3.6
    assert 1.7 < slope_yee < 2.3


# (pi, pi) at 45 degrees on n^2 unit-square meshes: T's terms grow like
# 1/dt^2, past the reach of an absolute residual bound from 32^2 on
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("nu", [0.25, 0.5, 0.6])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_polish_reaches_round_off_on_fine_meshes(n, nu, scheme):
    k = np.pi * np.sqrt(2.0)
    wv, h = WaveVec(k, np.pi / 4), 1.0 / n
    dt = nu * h / MEDIUM.c0
    pars = params_for_scheme(scheme, nu, 1.0)

    def err(w):
        return relative_dispersion_error(w, wv, MEDIUM, dt, h, 1.0, pars)

    w = discrete_root_polish(wv, MEDIUM, dt, h, 1.0, pars,
                             oscillatory_root(k, MEDIUM))
    # the residual of a root off by 4 eps / (|w| dt)^2 relative, the
    # rounding of T's terms; measured at most 0.95 of that
    s = 1e-6 * abs(w)
    slope = abs((err(w + s) * abs(w + s) - err(w - s) * abs(w - s)) / (2 * s))
    off = 4.0 * np.finfo(float).eps / (abs(w) * dt) ** 2
    assert abs(err(w)) <= slope * off


# ---- anisotropy sweep ------------------------------------------------------------

SCHEMES = ("etmfd", "et-yee")


def test_sweep_symmetry_square_mesh():
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    rows = anisotropy_sweep(theta, 4.0, [12], 0.5, 1.0, MEDIUM, ["etmfd"])
    errs = {round(r[0], 12): r[4] for r in rows}
    for t in theta[:4]:
        a = errs[round(t, 12)]
        b = errs[round(t + np.pi / 2, 12)]
        assert abs(a - b) < 1e-12 * max(a, 1e-30)


def test_sweep_yee_is_anisotropic():
    theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    rows = anisotropy_sweep(theta, 4.0, [12], 0.5, 1.0, MEDIUM, ["et-yee"])
    errs = [r[4] for r in rows]
    assert max(errs) / min(errs) > 1.0001


@pytest.mark.parametrize("k", [float("nan"), float("inf")])
def test_continuous_roots_rejects_non_finite_k(k):
    with pytest.raises(ValueError, match="wave number must be finite"):
        continuous_roots(k, MEDIUM)


@pytest.mark.parametrize("k, ppw, gamma", [
    (0.0, [12], 1.0), (float("nan"), [12], 1.0), (4.0, [12, 0], 1.0),
    (4.0, [-12], 1.0), (4.0, [float("inf")], 1.0), (4.0, [12], 0.0),
    (4.0, [12], float("nan")),
])
def test_sweep_rejects_degenerate_inputs(k, ppw, gamma):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        anisotropy_sweep([0.0], k, ppw, 0.5, gamma, MEDIUM, ["et-yee"])


def test_sweep_refuses_an_unknown_label_before_any_error_call(monkeypatch):
    calls = []
    monkeypatch.setattr(dispersion, "relative_dispersion_error",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="unknown scheme 'yee'"):
        anisotropy_sweep([0.0], 4.0, [12], 0.5, 1.0, MEDIUM, ["etmfd", "yee"])
    assert calls == []


def test_sweep_row_count_and_schemes():
    theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    rows = anisotropy_sweep(theta, 4.0, [12, 24], 0.5, 1.0, MEDIUM, SCHEMES)
    assert len(rows) == 8 * 2 * 2


def test_sweep_aspect_ratio_tradeoff():
    # fixed cell area: the refined axis gets the smaller dispersion error
    k = 4.0
    for gamma in (0.25, 4.0):
        nu = 0.5 * min(gamma ** 3, 1.0)
        rows = anisotropy_sweep([0.0, np.pi / 2], k, [12], nu, gamma, MEDIUM,
                                ["etmfd"], fixed_cell_area=True)
        err_x, err_y = rows[0][4], rows[1][4]
        if gamma > 1:  # dy > dx: x-direction better resolved
            assert err_x < err_y
        else:          # dx > dy: y-direction better resolved
            assert err_y < err_x


SWEEP_MEDIA = [Medium(), Medium(c0=1.5, omega_i=0.7, omega_p=1.3)]


@pytest.mark.parametrize("medium", SWEEP_MEDIA)
@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_error_over_an_angle_array_is_the_scalar_calls(scheme, gamma, medium):
    # the default anisotropy grid, where numpy's array square x * x and
    # libm's pow round a few sin^2 values differently (with glibc, two
    # angles at ppw 24 and gamma 1)
    k, nu = 4.0, 0.5 * min(gamma ** 3, 1.0)
    params = params_for_scheme(scheme, nu, gamma)
    omega = oscillatory_root(k, medium)
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for ppw in (12, 24, 17):
        h = 2 * np.pi / (k * ppw)
        dt = nu * h / medium.c0
        got = relative_dispersion_error(omega, WaveVec(k, theta), medium, dt,
                                        h, gamma, params)
        want = [relative_dispersion_error(omega, WaveVec(k, t), medium, dt,
                                          h, gamma, params)
                for t in theta]
        assert got.shape == theta.shape
        assert got.tobytes() == np.array(want).tobytes()  # bit for bit


@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
def test_symbol_over_an_angle_array_is_the_scalar_calls(gamma):
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    params = optimal_params(0.5, gamma)
    for ppw in (8, 12, 24, 48):
        h = 2 * np.pi / (4.0 * ppw)
        got = spatial_symbol(WaveVec(4.0, theta), h, gamma, params, 1.0)
        want = [spatial_symbol(WaveVec(4.0, t), h, gamma, params, 1.0)
                for t in theta]
        assert all(type(w) is np.float64 for w in want)  # not 0-d arrays
        assert got.tobytes() == np.array(want).tobytes()


def sweep_oracle(theta_grid, k, ppw_list, nu, gamma, medium, schemes,
                 h_ref=None):
    """The sweep as one scalar error per row, the determinant taken of the
    assembled matrix T - S P1."""
    omega = oscillatory_root(k, medium)
    rows = []
    for ppw in ppw_list:
        h = (2.0 * np.pi / (k * ppw)) if h_ref is None else h_ref / np.sqrt(gamma)
        dt = nu * h / medium.c0
        for theta in theta_grid:
            wv = WaveVec(k, theta)
            for label in schemes:
                params = params_for_scheme(label, nu, gamma)
                T = temporal_symbol(omega, medium, dt)
                M = T - spatial_symbol(wv, h, gamma, params, medium.c0) * P1
                err = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) / abs(omega)
                rows.append((theta, k, ppw, label,
                             abs(err), err.real, err.imag))
    return rows


@pytest.mark.parametrize("medium", SWEEP_MEDIA)
# the oracle's h_ref: None, or the fixed-cell-area rule 2 pi / (k ppw[0])
@pytest.mark.parametrize("h_ref", [None, 2 * np.pi / (3.7 * 8)])
@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
def test_sweep_rows_are_the_per_row_oracle(gamma, h_ref, medium):
    k, ppw, nu = 3.7, [8, 12, 33], 0.4
    theta = np.linspace(0, 2 * np.pi, 129, endpoint=False)
    rows = anisotropy_sweep(theta, k, ppw, nu, gamma, medium, SCHEMES,
                            fixed_cell_area=h_ref is not None)
    want = sweep_oracle(theta, k, ppw, nu, gamma, medium, SCHEMES, h_ref)

    def cells(rs):  # what write_csv puts in the file
        return [",".join(map(cli._cell, r)) for r in rs]

    assert cells(rows) == cells(want)
    if h_ref is not None:
        # one h for every ppw: each ppw block repeats the first one's errors
        block = len(theta) * len(SCHEMES)
        errs = [r[4:] for r in rows]
        assert errs == errs[:block] * len(ppw)


def test_sweep_one_error_call_per_ppw_and_scheme(monkeypatch):
    calls = []
    real = dispersion.relative_dispersion_error

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(dispersion, "relative_dispersion_error", counted)
    theta = np.linspace(0, 2 * np.pi, 33, endpoint=False)
    rows = anisotropy_sweep(theta, 4.0, [12, 24, 48], 0.5, 1.0, MEDIUM,
                            SCHEMES)
    assert len(calls) == 3 * 2
    assert all(np.array_equal(wv.theta, theta) for wv in calls)
    assert len(rows) == 33 * 3 * 2


def test_fixed_area_sweep_one_error_call_per_scheme(monkeypatch):
    # with fixed_cell_area every ppw shares one h: its errors are
    # computed once and repeated in each ppw block
    calls = []
    real = dispersion.relative_dispersion_error

    def counted(*args, **kwargs):
        calls.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(dispersion, "relative_dispersion_error", counted)
    theta = np.linspace(0, 2 * np.pi, 33, endpoint=False)
    rows = anisotropy_sweep(theta, 4.0, [12, 24, 48], 0.5, 2.0, MEDIUM,
                            SCHEMES, fixed_cell_area=True)
    assert len(calls) == 2 and calls[0] == calls[1]
    assert len(rows) == 33 * 3 * 2
    assert [r[2] for r in rows[::33 * 2]] == [12, 24, 48]


# ---- leapfrog appendix demonstration ----------------------------------------------

def test_leapfrog_vacuum_limit():
    nu, gamma = 0.5, 1.0
    w2 = nu ** 2 / (12 * gamma)
    for omega in (1.0, 2.0):
        res = conductive_leapfrog_residual(omega, 1e12, nu, gamma, w2, 1.0)
        scale = nu ** 2 * omega ** 4 / 12.0
        assert abs(res) < 1e-10 * scale
    # and the zeroing w2 is truly frequency-independent in the limit
    z1 = leapfrog_zeroing_w2(1.0, 1e12, nu, gamma)
    z2 = leapfrog_zeroing_w2(2.0, 1e12, nu, gamma)
    assert abs(z1 - w2) < 1e-10 * w2
    assert abs(z2 - w2) < 1e-10 * w2


def test_leapfrog_zeroing_w2_is_complex_and_frequency_dependent():
    tau, nu, gamma = 1.0, 0.5, 1.0
    z1 = leapfrog_zeroing_w2(1.0, tau, nu, gamma)
    z2 = leapfrog_zeroing_w2(2.0, tau, nu, gamma)
    assert abs(z1 - (2.0 - 1.0j) / 96.0) < 1e-15
    assert abs(z2 - (7.0 - 1.0j) / 300.0) < 1e-15
    assert abs(z1.imag) > 1e-3 and abs(z2.imag) > 1e-3
    assert abs(z1 - z2) > 1e-3
    # each zeroing w2 does annihilate the residual at its own frequency
    for omega, z in ((1.0, z1), (2.0, z2)):
        assert abs(conductive_leapfrog_residual(omega, tau, nu, gamma, z, 1.0)) < 1e-14
