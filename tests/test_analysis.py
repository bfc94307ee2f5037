import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import (assemble_local_blocks, edge_field, gauss_edge_field,
                      pec_ids, pick_probe_reference)

from etmfd import analysis, cli, mesh as mesh_module
from etmfd.analysis import (DegenerateFitError, FitResult,
                            convergence_study,
                            dispersion_error_metric, e_time_factor, exact_E,
                            fit_damped_cosine, j_time_factor,
                            l2_relative_error, make_exact_solution,
                            mode_dofs, pick_probe_edge, run_standing_mode,
                            spatial_mode)
from etmfd.dispersion import WaveVec, anisotropy_sweep, spatial_symbol
from etmfd.mesh import build_mesh, interpolate_edge_field
from etmfd.operators import (assemble_step_operators, local_M,
                             optimal_params, yee_params)
from etmfd.plasma import Medium
from etmfd.selftest import face_edge_table
from etmfd.stepper import SimConfig, load_snapshot, save_snapshot

MEDIUM = Medium()


def config_on(mesh, scheme="etmfd"):
    """A run on `mesh`, at a Courant number stable for gamma >= 1/2."""
    return SimConfig(mesh=mesh, medium=MEDIUM, scheme=scheme, nu=0.4, T=1.0)


@pytest.mark.parametrize("kx_pi, ky_pi, Lx, Ly", [(1, 1, 1.0, 0.5),
                                                  (1, 2, 1.5, 1.0),
                                                  (3, 1, 1.0, 1.25)])
def test_mode_dofs_refuses_a_mode_not_vanishing_on_the_walls(kx_pi, ky_pi,
                                                             Lx, Ly):
    # on 8x4 with Ly = 0.5, kx = ky = pi put the walls' largest tangential
    # E level with the largest overall, and `run` took it without error
    mesh = build_mesh(8, 4, Lx, Ly)
    sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
    with pytest.raises(ValueError, match="does not vanish on the PEC wall"):
        mode_dofs(config_on(mesh), sol)
    # a whole number of half-waves passes
    mode_dofs(config_on(build_mesh(8, 4, 2.0, 2.0)), sol)


def test_mode_dofs_refuses_another_medium():
    # E(n) and J(n) are the exact E and J of the mode in sol.medium only;
    # a run takes only the object, so none starts in another medium
    mesh = build_mesh(4, 4, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, Medium(omega_i=0.5))
    with pytest.raises(ValueError, match="is not the mode.s Medium"):
        mode_dofs(config_on(mesh), sol)
    mode_dofs(SimConfig(mesh=mesh, medium=sol.medium, scheme="etmfd",
                        nu=0.4, T=1.0), sol)


def test_make_exact_solution_validates_wavenumbers():
    # whether a wave number fits is the domain's question: ky = pi/2 is
    # the half-wave of Ly = 2 and no wave of Ly = 1
    sol = make_exact_solution(np.pi, 0.5 * np.pi, MEDIUM)
    mode_dofs(config_on(build_mesh(4, 8, 1.0, 2.0)), sol)
    with pytest.raises(ValueError, match="ky Ly / pi = 0.5 is not an int"):
        mode_dofs(config_on(build_mesh(4, 4, 1.0, 1.0)), sol)
    with pytest.raises(ValueError, match="kx Lx / pi = 1.6 is not an int"):
        mode_dofs(config_on(build_mesh(4, 4, 1.6, 1.0)), make_exact_solution(
            1.0 * np.pi, np.pi, MEDIUM))
    for kx, ky in ((0.0, 0.0), (1e-10, -1e-10)):
        with pytest.raises(ValueError, match="kx = ky = 0 is the zero field"):
            make_exact_solution(kx, ky, MEDIUM)
    sol = make_exact_solution(2 * np.pi, -np.pi, MEDIUM)
    assert sol.k == pytest.approx(np.sqrt(5) * np.pi)


def test_solution_decay_and_frequency():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    assert -0.024 < sol.a < -0.022
    assert 4.5 < sol.b < 4.6


def test_j_proportional_to_e_at_t0():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    x = np.array([0.23, 0.61])
    y = np.array([0.37, 0.82])
    ex, ey = exact_E(sol, x, y, 0.0)
    jx, jy = (j_time_factor(sol, 0.0) * v(x, y) for v in spatial_mode(sol))
    awi = sol.a + MEDIUM.omega_i
    factor = MEDIUM.eps0 * MEDIUM.omega_p ** 2 * awi / (sol.b ** 2 + awi ** 2)
    assert np.allclose(jx, factor * ex)
    assert np.allclose(jy, factor * ey)


def test_time_factors_keep_their_formula_to_the_bit():
    # the references and initial data take the law the probe fits take;
    # written out here in the order it evaluates
    sol = make_exact_solution(np.pi, 2 * np.pi, MEDIUM)
    a, b, wi = sol.a, sol.b, MEDIUM.omega_i
    t = np.linspace(0.0, 7.3, 101)
    e = np.exp(a * t)
    num = (a + wi) * np.cos(b * t) + b * np.sin(b * t)
    j = MEDIUM.eps0 * MEDIUM.omega_p ** 2 * e * num / (b * b + (a + wi) ** 2)
    assert np.array_equal(e_time_factor(sol, t), e * np.cos(b * t))
    assert np.array_equal(j_time_factor(sol, t), j)


def test_tangential_e_vanishes_on_boundary():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    s = np.linspace(0.0, 1.0, 13)
    for t in (0.0, 0.7):
        ex_b, _ = exact_E(sol, s, 0.0 * s, t)          # y = 0
        ex_t, _ = exact_E(sol, s, 1.0 + 0.0 * s, t)    # y = 1
        _, ey_l = exact_E(sol, 0.0 * s, s, t)          # x = 0
        _, ey_r = exact_E(sol, 1.0 + 0.0 * s, s, t)    # x = 1
        for v in (ex_b, ex_t, ey_l, ey_r):
            assert np.abs(v).max() < 1e-13


def test_spatial_mode_divergence_free(rng):
    sol = make_exact_solution(np.pi, 2 * np.pi, MEDIUM)
    eps = 1e-6
    for _ in range(5):
        x, y = rng.uniform(0.1, 0.9, 2)
        vx, vy = spatial_mode(sol)
        div = ((vx(x + eps, y) - vx(x - eps, y))
               + (vy(x, y + eps) - vy(x, y - eps))) / (2 * eps)
        assert abs(div) < 1e-5


# ---- L2 error ----------------------------------------------------------------

def _mesh_and_M():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    M = local_M(optimal_params(0.5, 1.0), mesh.dx, mesh.dy)
    return mesh, M


def test_l2_zero_for_equal_fields():
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = gauss_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    assert l2_relative_error(ref.copy(), ref, mesh, M) == 0.0


def test_l2_homogeneity():
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = gauss_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    assert abs(l2_relative_error(2.0 * ref, ref, mesh, M) - 1.0) < 1e-14


def test_l2_matches_dense_quadratic_form(rng):
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = gauss_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    d = 1e-3 * rng.standard_normal(mesh.n_edges)
    Md = assemble_local_blocks(mesh, M).toarray()
    expect = math.sqrt(d @ Md @ d) / math.sqrt(ref @ Md @ ref)
    assert abs(l2_relative_error(ref + d, ref, mesh, M) - expect) < 1e-13


def test_l2_zero_denominator():
    mesh, M = _mesh_and_M()
    with pytest.raises(ZeroDivisionError):
        l2_relative_error(np.ones(mesh.n_edges), np.zeros(mesh.n_edges),
                          mesh, M)


def test_l2_scale_invariant_in_M():
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = gauss_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    d = np.sin(np.arange(mesh.n_edges))
    e1 = l2_relative_error(ref + d, ref, mesh, M)
    e2 = l2_relative_error(ref + d, ref, mesh, 7.3 * M)
    assert abs(e1 - e2) < 1e-14 * e1


MESHES = pec_ids([(1, 1), (1, 5), (3, 4), (64, 64)])


@pytest.mark.parametrize("nx, ny", MESHES)
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_l2_face_sum_matches_the_assembled_form(nx, ny, scheme, rng):
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    p = (optimal_params(0.5, mesh.gamma) if scheme == "etmfd"
         else yee_params())
    M = local_M(p, mesh.dx, mesh.dy)
    M_glob = assemble_local_blocks(mesh, M)
    ref, d = rng.standard_normal((2, mesh.n_edges))
    expect = math.sqrt((d @ (M_glob @ d)) / (ref @ (M_glob @ ref)))
    got = l2_relative_error(ref + d, ref, mesh, M)
    assert abs(got - expect) <= 1e-14 * expect


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 5), (5, 1), (3, 4),
                                             (37, 11)]))
def test_l2_face_views_are_the_oracle_gather_bit_for_bit(nx, ny, rng):
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    B = rng.standard_normal((4, 4))
    M = B @ B.T  # symmetric, and no two slots alike: a swapped view shows
    ref, F_h = rng.standard_normal((2, mesh.n_edges))
    for v in (ref, F_h):
        assert all(np.shares_memory(w, v) for w in mesh.face_edges(v))

    def norm2(v):  # the face sum on the oracle's numbering
        V = v[face_edge_table(mesh)]
        return float(((V @ M) * V).sum())

    expect = math.sqrt(norm2(F_h - ref)) / math.sqrt(norm2(ref))
    assert l2_relative_error(F_h, ref, mesh, M) == expect


# ---- fitting -------------------------------------------------------------------

def test_fit_exact_damped_cosine():
    dt, n = 0.01, 400
    t = dt * np.arange(n)
    trace = np.exp(0.1 * t) * np.cos(2.0 * t)
    fit = fit_damped_cosine(trace, dt)
    assert fit.converged and fit.iterations == 1
    assert abs(fit.a_h - 0.1) < 1e-10
    assert abs(fit.b_h - 2.0) < 1e-10


@pytest.mark.parametrize("amp, phase", [(1.0, 0.0), (-3.7, 1.1),
                                        (1e-6, 2.5), (5e3, -0.3)])
@pytest.mark.parametrize("a, b, dt", [(0.1, 2.0, 0.01), (-0.35, 4.5, 2e-3),
                                      (-1.2, 0.7, 0.05)])
def test_fit_recovers_any_amplitude_and_phase(amp, phase, a, b, dt):
    t = dt * np.arange(300)
    fit = fit_damped_cosine(amp * np.exp(a * t) * np.cos(b * t + phase), dt)
    assert abs(fit.a_h - a) <= 1e-12 * abs(a)
    assert abs(fit.b_h - b) <= 1e-12 * b
    assert fit.rms_residual <= 1e-13 * abs(amp)


def test_fit_with_small_noise(rng):
    dt, n = 0.01, 400
    t = dt * np.arange(n)
    trace = np.exp(0.1 * t) * np.cos(2.0 * t)
    trace = trace + 1e-8 * rng.uniform(-1.0, 1.0, n)
    fit = fit_damped_cosine(trace, dt)
    assert abs(fit.a_h - 0.1) < 1e-6
    assert abs(fit.b_h - 2.0) < 1e-6


def test_fit_zero_trace_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_damped_cosine(np.zeros(64), 0.01)


@pytest.mark.parametrize("trace", [
    np.full(64, 2.5),
    0.3 + 0.7 * 0.01 * np.arange(64),
    np.exp(0.3 * 0.01 * np.arange(64)),
    -3.0 * np.exp(-2.0 * 0.01 * np.arange(64)),
    np.exp(0.01 * np.arange(64)) + np.exp(0.02 * np.arange(64)),
    np.r_[np.cos(0.1 * np.arange(63)), np.nan],
], ids=["constant", "linear", "exp", "exp-decay", "two-exp", "nan"])
def test_fit_refuses_a_trace_without_a_damped_oscillation(trace):
    # the bare formula would read (0, 0) off the constant and linear traces
    with pytest.raises(DegenerateFitError):
        fit_damped_cosine(trace, 0.01)


def test_fit_short_trace_rejected():
    with pytest.raises(ValueError):
        fit_damped_cosine(np.zeros(5), 0.01)


def test_fit_j_model():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt, n = 0.02, 300
    t = dt * np.arange(n)
    for amp in (-1.7, 0.3):
        fit = fit_damped_cosine(amp * j_time_factor(sol, t), dt)
        assert fit.converged
        assert abs(fit.a_h - sol.a) <= 1e-12 * abs(sol.a)
        assert abs(fit.b_h - sol.b) <= 1e-12 * sol.b


# ---- dispersion error metric ------------------------------------------------------

def test_metric_zero_at_truth():
    fit = FitResult(a_h=-0.02, b_h=4.5, rms_residual=0.0, iterations=1,
                    converged=True)
    assert dispersion_error_metric(fit, -0.02, 4.5) == 0.0


def test_metric_single_axis_offset():
    a, b, delta = -0.02, 4.5, 1e-3
    fit = FitResult(a_h=a, b_h=b + delta, rms_residual=0.0, iterations=1,
                    converged=True)
    assert abs(dispersion_error_metric(fit, a, b)
               - delta / math.hypot(a, b)) < 1e-15


def test_metric_sign_flip_invariance():
    a, b = -0.02, 4.5
    fit = FitResult(a_h=a + 1e-3, b_h=b - 2e-3, rms_residual=0.0,
                    iterations=1, converged=True)
    flipped = FitResult(a_h=-fit.a_h, b_h=-fit.b_h, rms_residual=0.0,
                        iterations=1, converged=True)
    assert dispersion_error_metric(fit, a, b) == pytest.approx(
        dispersion_error_metric(flipped, -a, -b), abs=1e-18)


# ---- probe selection and study plumbing --------------------------------------------

def test_pick_probe_edge_interior_max():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dof = interpolate_edge_field(mesh, *spatial_mode(sol))
    probe = pick_probe_edge(mesh, dof)
    assert not mesh.boundary_edge_mask[probe]
    assert abs(dof[probe]) == pytest.approx(np.abs(dof).max())


@pytest.mark.parametrize("nx, ny", MESHES)
def test_pick_probe_edge_matches_the_full_table_rule(nx, ny, rng):
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    modes = [np.ones(mesh.n_edges),  # every edge ties: distance decides
             # near-ties, within the 1e-9 window of the distance penalty
             1.0 - 1e-9 * rng.random(mesh.n_edges),
             rng.integers(0, 3, mesh.n_edges),  # integer ties
             rng.standard_normal(mesh.n_edges)]
    for kx_pi, ky_pi in ((1, 1), (1, 2), (2, 3), (4, 4)):
        # mode_dofs' E rule; on PEC walls at Ly = 1.3 it refuses the mode
        sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
        modes.append(interpolate_edge_field(mesh, *spatial_mode(sol)))
    for mode in modes:
        if mesh.boundary_edge_mask.all():  # 1x1: no edge to pick
            with pytest.raises(ValueError, match="no interior edge"):
                pick_probe_edge(mesh, mode)
        else:
            assert (pick_probe_edge(mesh, mode)
                    == pick_probe_reference(mesh, mode))


@pytest.mark.parametrize("kx_pi, ky_pi", [(1, 1), (1, 2), (2, 3)])
def test_mode_dofs_hold_the_E_and_J_rules(kx_pi, ky_pi):
    mesh = build_mesh(16, 32, 1.0, 2.0)
    sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
    config = config_on(mesh)
    mode = mode_dofs(config, sol)
    # E(n): the exact field at t = n dt sampled at edge midpoints, to the
    # last bit on the vertical edges; the horizontal ones take one ratio
    # rho, 1.0 where kx dx = ky dy (these cells are square)
    n, t = 12, 12 * config.dt
    want = edge_field(mesh, lambda x, y: exact_E(sol, x, y, t), "midpoint")
    (gh, gv), (wh, wv) = map(mesh.edge_lines, (mode.E(n), want))
    assert np.array_equal(gv, wv)
    big = np.abs(wh) > 1e-6 * np.abs(wh).max()
    rho = gh[big] / wh[big]
    assert np.ptp(rho) <= 1e-14
    assert (rho[0] == 1.0) == (kx_pi == ky_pi)
    # J(n): the exact J at t sampled as E is, times 1 - x with
    # x = -dt^2 S_h / 12
    S_h = spatial_symbol(WaveVec(sol.k, math.atan2(sol.ky, sol.kx)),
                         mesh.dx, mesh.gamma, config.params, MEDIUM.c0)
    assert mode.j_ratio == pytest.approx(1.0 + config.dt ** 2 * S_h / 12.0,
                                         rel=1e-15)
    want = edge_field(mesh, lambda x, y: tuple(
        j_time_factor(sol, t) * f(x, y) for f in spatial_mode(sol)),
        "midpoint")
    (gh, gv), (wh, wv) = map(mesh.edge_lines, (mode.J(n), want))
    assert np.allclose(gv, mode.j_ratio * wv, rtol=1e-15, atol=0.0)
    assert np.allclose(gh[big], rho * mode.j_ratio * wh[big], rtol=1e-14,
                       atol=0.0)
    # one step: the run starts from E(0), E(1) and J(0), bit for bit
    seen = []
    mode = mode_dofs(SimConfig(mesh=mesh, medium=MEDIUM, scheme="etmfd",
                               nu=0.4, T=0.01), sol)
    st, _ = run_standing_mode(
        mode,
        observe=lambda n, t, state: seen.append((state.E.copy(), state.J())))
    inner = ~mesh.boundary_edge_mask
    assert st.n == 1
    for got, want in ((seen[0][0], mode.E(0)), (seen[1][0], mode.E(1)),
                      (seen[0][1], mode.J(0))):
        assert np.array_equal(got[inner], want[inner])


@pytest.mark.parametrize("n", [4, 16, 32, 64, 256])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_mode_dofs_at_the_tuned_point_are_the_midpoint_samples(n, scheme):
    # rho is 1.0 at (pi, pi) on square cells: E^0 and E^1 are the
    # midpoint samples times the time factors, bit for bit
    mesh = build_mesh(n, n, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    v = mode_dofs(config_on(mesh, scheme), sol).v
    assert np.array_equal(v, interpolate_edge_field(mesh, *spatial_mode(sol)))


@pytest.mark.parametrize("nx, ny, Ly", [(32, 32, 1.0), (32, 64, 2.0),
                                        (48, 24, 1.0)])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("kx_pi, ky_pi", [(1, 1), (1, 2), (2, 3)])
def test_mode_dofs_profile_is_an_eigenvector_of_the_step(nx, ny, Ly, scheme,
                                                         kx_pi, ky_pi):
    # the step's W A (scale 1) takes v to lam v on every interior edge,
    # lam = -S_h / c0^2; the midpoint samples spread (W A v) / v by up to
    # 5.7e-3 on these meshes when kx dx != ky dy
    mesh = build_mesh(nx, ny, 1.0, Ly)
    sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
    config = config_on(mesh, scheme)
    v = mode_dofs(config, sol).v
    K = assemble_step_operators(mesh, config.params, 1.0, v.copy())
    z = np.empty_like(v)
    for rows, zb in K():
        z[rows] = zb
    inner = ~mesh.boundary_edge_mask & (np.abs(v) > 1e-3 * np.abs(v).max())
    ratio = z[inner] / v[inner]
    lam = -spatial_symbol(WaveVec(sol.k, math.atan2(sol.ky, sol.kx)),
                          mesh.dx, mesh.gamma, config.params, 1.0)
    assert np.ptp(ratio) <= 1e-10 * abs(lam)
    assert ratio.mean() == pytest.approx(lam, rel=1e-10)
    # and on the small entries too, as a residual
    assert np.abs(z - lam * v).max() <= 1e-10 * abs(lam) * np.abs(v).max()


def test_convergence_rates_off_the_tuned_point():
    # at (pi, 2pi) the initial data are the discrete eigenmode, so E and
    # J converge at fourth order as at (pi, pi); from midpoint E and
    # edge-averaged J the E L2 rates read 0.19 and 1.33
    sol = make_exact_solution(np.pi, 2 * np.pi, MEDIUM)
    meshes = [build_mesh(n, n, 1.0, 1.0) for n in (16, 32, 64)]
    rows = convergence_study(meshes, ["etmfd"], sol, 0.5, 4.0)
    # the L2 rates and the probe fits' dispersion-error rates, E and J
    rates = [r[c] for r in rows if r["log2_h"] != -4
             for c in ("rate_l2", "rate_disp")]
    assert len(rates) == 8
    assert all(3.8 <= rate <= 4.2 for rate in rates), rates


@pytest.mark.parametrize("Lx, Ly, nu", [(1.0, 2.0, 0.5), (2.0, 1.0, 0.4)],
                         ids=["gamma2", "gamma0.5"])
def test_convergence_rates_off_the_unit_square(Lx, Ly, nu):
    # n x n cells on [0, Lx] x [0, Ly]: gamma = dy / dx = Ly / Lx, h = dx
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    meshes = [build_mesh(n, n, Lx, Ly) for n in (16, 32, 64)]
    rows = convergence_study(meshes, ["etmfd", "et-yee"], sol, nu, 4.0)
    # scheme by scheme, then field by field, each mesh in the order given
    assert [(r["scheme"], r["field"], r["log2_h"]) for r in rows] == [
        (scheme, field, math.log2(mesh.dx)) for scheme in ("etmfd", "et-yee")
        for field in ("E", "J") for mesh in meshes]
    windows = {"etmfd": (3.8, 4.2), "et-yee": (1.9, 2.1)}
    rates = [(r["scheme"], r[c]) for r in rows if r["log2_h"] != rows[0][
        "log2_h"] for c in ("rate_l2", "rate_disp")]
    assert len(rates) == 16
    for scheme, rate in rates:
        lo, hi = windows[scheme]
        assert lo <= rate <= hi, (scheme, rate)


def test_run_standing_mode_keeps_no_edge_sized_copy(tmp_path):
    # alive while it steps: v, the three state vectors and the
    # CurlCurl's face vector; the initial data are written into the state
    # buffers, the step-1 state takes two blocks of scratch and each
    # snapshot is written from E and from J formed a block at a time.
    # Measured 4.9 edge vectors of traced peak (5.8 while each snapshot
    # formed all of J); initial-data arrays, a (3, n) stack of them or
    # snapshot copies held for the run take it past 7 (23.3)
    mesh = build_mesh(512, 512, 1.0, 1.0)
    sol = make_exact_solution(np.pi, 2 * np.pi, MEDIUM)
    T = 19.5 * 0.5 * mesh.dx / MEDIUM.c0  # 20 steps
    probe = 1000  # an interior horizontal edge
    written = []

    def save(n, t, state):  # simulate's snapshot writer, every 5 steps
        if n % 5 == 0:
            save_snapshot(str(tmp_path / f"snap{n}"), mesh, t, state)
            written.append((n, state.E[probe], state.J(probe)))

    tracemalloc.start()
    try:
        state, traces = run_standing_mode(mode_dofs(
            SimConfig(mesh=mesh, medium=MEDIUM, scheme="etmfd", nu=0.5, T=T),
            sol), (probe,), save)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * mesh.n_edges) < 7
    # each written snapshot holds the state of its own step
    assert [n for n, _, _ in written] == [0, 5, 10, 15, 20]
    trace_E, trace_J = traces[probe]
    for n, e, j in written:
        meta, E, J = load_snapshot(str(tmp_path / f"snap{n}"))
        assert meta["step"] == n
        assert E[probe] == e == trace_E[n]
        assert J[probe] == j == trace_J[n]
    _, E, J = load_snapshot(str(tmp_path / "snap20"))
    assert np.array_equal(E, state.E)
    assert np.array_equal(J, state.J())


@pytest.mark.parametrize("probes, message", [
    pytest.param((0,), "probe edge 0 is a boundary edge", id="boundary"),
    pytest.param((10 ** 6,), "probe edge 1000000 out of range", id="range"),
    pytest.param((-1,), "probe edge -1 out of range", id="negative"),
    pytest.param((3.5,), "probe edge 3.5 is not an integer", id="float"),
    pytest.param((5, 5), "probe edge 5 is listed twice", id="repeated"),
    pytest.param((5, 6, np.int64(5)), "probe edge 5 is listed twice",
                 id="repeated-int64")])
def test_run_standing_mode_refuses_a_bad_probe_before_any_step(
        probes, message, monkeypatch):
    # one trace and one CSV per edge, each on an interior edge
    mesh = build_mesh(4, 4, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    monkeypatch.setattr(analysis, "run", lambda *a: pytest.fail("it ran"))
    with pytest.raises(ValueError, match=message):
        run_standing_mode(mode_dofs(config_on(mesh), sol), probes)


def _count_interpolations(monkeypatch):
    """Record the mesh of every interpolate_edge_field call in etmfd."""
    meshes = []
    real = mesh_module.interpolate_edge_field

    def counted(mesh, fx, fy):
        meshes.append(mesh)
        return real(mesh, fx, fy)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "etmfd"
                and getattr(module, "interpolate_edge_field", None) is real):
            monkeypatch.setattr(module, "interpolate_edge_field", counted)
    return meshes


def test_one_interpolation_per_convergence_level(monkeypatch):
    # J's profile is E's times a scalar
    meshes = _count_interpolations(monkeypatch)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    convergence_study([build_mesh(n, n, 1.0, 1.0) for n in (8, 16)],
                      ["etmfd"], sol, 0.5, 1.0)
    assert [m.nx for m in meshes] == [8, 16]


def test_one_interpolation_per_simulate(monkeypatch, tmp_path):
    meshes = _count_interpolations(monkeypatch)
    cfg = tmp_path / "s.json"
    cfg.write_text('{"nx": 8, "ny": 8, "T": 0.25}')
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                     "simulate"]) == cli.EXIT_OK
    assert [m.nx for m in meshes] == [8]


def test_convergence_study_validation():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    with pytest.raises(ValueError):
        convergence_study([], ["etmfd"], sol, 0.5, 1.0)
    with pytest.raises(ValueError):
        convergence_study([build_mesh(1, 1, 1.0, 1.0)], ["etmfd"], sol, 0.5,
                          1.0)
    # a repeated h leaves no step to take a rate over; refused up front
    with pytest.raises(ValueError, match="no h repeated"):
        convergence_study([build_mesh(8, 8, 1.0, 1.0)] * 2, ["etmfd"], sol,
                          0.5, 1.0)


def test_convergence_study_runs_the_configs_it_checked(monkeypatch):
    # one SimConfig per (scheme, mesh), built by the check and then run
    built, ran, real = [], [], analysis.run

    def build(**fields):
        built.append(SimConfig(**fields))
        return built[-1]

    def recorded(config, *args):
        ran.append(config)
        return real(config, *args)

    monkeypatch.setattr(analysis, "SimConfig", build)
    monkeypatch.setattr(analysis, "run", recorded)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    meshes = [build_mesh(n, n, 1.0, 1.0) for n in (4, 8)]
    convergence_study(meshes, ["et-yee", "etmfd"], sol, 0.5, 1.0)
    assert [(c.scheme, c.mesh) for c in built] == [
        (scheme, mesh) for scheme in ("et-yee", "etmfd") for mesh in meshes]
    assert len(ran) == len(built)
    assert all(r is b for r, b in zip(ran, built))


def test_convergence_study_checks_every_run_before_the_first(monkeypatch):
    # the second label, and the second mesh's gamma = 0.5 limit on nu, are
    # refused before the first (scheme, mesh) run starts
    monkeypatch.setattr(analysis, "run", lambda *a: pytest.fail("it ran"))
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    meshes = [build_mesh(8, 8, 1.0, 1.0), build_mesh(32, 32, 2.0, 1.0)]
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        convergence_study(meshes[:1], ["etmfd", "bogus"], sol, 0.4, 1.0)
    with pytest.raises(ValueError, match="above the stability limit"):
        convergence_study(meshes, ["et-yee"], sol, 0.6, 1.0)
    with pytest.raises(ValueError, match="must be non-empty"):
        convergence_study(meshes, [], sol, 0.4, 1.0)


@pytest.mark.parametrize("study", [
    lambda schemes: convergence_study(
        [build_mesh(8, 8, 1.0, 1.0)], schemes,
        make_exact_solution(np.pi, np.pi, MEDIUM), 0.4, 1.0),
    lambda schemes: anisotropy_sweep(np.zeros(4), 4.0, [12], 0.5, 1.0,
                                     MEDIUM, schemes)],
    ids=["convergence_study", "anisotropy_sweep"])
def test_a_string_of_schemes_is_refused(study):
    # one label where a list belongs would iterate as "e", "t", ...
    with pytest.raises(ValueError, match="list of labels, not 'etmfd'"):
        study("etmfd")


@pytest.mark.parametrize("bad", [0.5, 1, float("nan"), float("-inf"), 0])
def test_converge_refuses_a_bad_h_before_any_level(bad, monkeypatch, tmp_path):
    # 2**0.5 and 2**1 are not 1/n, 2**nan is NaN and 2**-inf is 0; 2**0
    # is a 1x1 mesh, with no interior edge to probe
    calls = []
    real = analysis.run

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"log2_h": [-3, bad], "T": 0.5}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "converge"]) == cli.EXIT_VALIDATION
    assert calls == []
    assert not (out / "converge.csv").exists()


def test_convergence_study_rows():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    rows = convergence_study([build_mesh(n, n, 1.0, 1.0) for n in (8, 16)],
                             ["etmfd"], sol, 0.5, 1.0)
    assert len(rows) == 4
    assert {r["field"] for r in rows} == {"E", "J"}
    first_e = [r for r in rows if r["field"] == "E"][0]
    assert math.isnan(first_e["rate_l2"])
    second_e = [r for r in rows if r["field"] == "E"][1]
    assert second_e["err_l2"] < first_e["err_l2"]


def test_convergence_study_measures_l2_against_the_mode_at_the_final_step():
    # err_l2 is the M-norm error of a run of `mode_dofs`'s object against
    # its own E(n) and J(n) at the final step n, bit for bit
    sol = make_exact_solution(np.pi, 2 * np.pi, Medium(omega_i=0.3,
                                                       omega_p=2.0))
    mesh = build_mesh(8, 16, 1.0, 2.0)
    rows = convergence_study([mesh], ["et-yee"], sol, 0.5, 1.0)
    mode = mode_dofs(SimConfig(mesh=mesh, medium=sol.medium, scheme="et-yee",
                               nu=0.5, T=1.0), sol)
    state, _ = run_standing_mode(mode)
    M = local_M(mode.config.params, mesh.dx, mesh.dy)
    assert [r["err_l2"] for r in rows] == [
        l2_relative_error(state.E, mode.E(state.n), mesh, M),
        l2_relative_error(state.J(), mode.J(state.n), mesh, M)]
    assert [r["field"] for r in rows] == ["E", "J"]


def test_convergence_study_rates_are_the_log2_rule():
    # every rate_<m> is log2(prev / err) / log2(h_prev / h) of its err_<m>
    # column, bit for bit, and NaN on the first mesh; the blocks come label
    # by label in the order given, a repeated label's twice
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    meshes = [build_mesh(n, n, 1.0, 1.0) for n in (4, 8, 12)]
    h = [mesh.dx for mesh in meshes]
    for schemes in (["etmfd", "et-yee"], ["et-yee", "etmfd"],
                    ["etmfd", "etmfd"]):
        rows = convergence_study(meshes, schemes, sol, 0.5, 1.0)
        assert [r["scheme"] for r in rows] == [
            scheme for scheme in schemes for _ in range(2 * 3)]
        for i in range(0, len(rows), 3):
            block = rows[i:i + 3]
            assert [r["log2_h"] for r in block] == [math.log2(x) for x in h]
            for m in ("l2", "disp"):
                assert math.isnan(block[0]["rate_" + m])
                for j in (1, 2):
                    assert block[j]["rate_" + m] == (
                        math.log2(block[j - 1]["err_" + m]
                                  / block[j]["err_" + m])
                        / math.log2(h[j - 1] / h[j]))
    # the repeated label's two blocks agree bit for bit (repr: NaN == NaN)
    assert repr(rows[:6]) == repr(rows[6:])


def test_convergence_study_names_the_failed_fit(monkeypatch):
    def flat(trace, dt):
        return fit_damped_cosine(np.zeros_like(trace), dt)

    monkeypatch.setattr(analysis, "fit_damped_cosine", flat)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    with pytest.raises(DegenerateFitError,
                       match=r"^E probe fit failed for etmfd at h=0\.125: "
                             r"zero, constant or linear trace$"):
        convergence_study([build_mesh(8, 8, 1.0, 1.0)], ["etmfd"], sol, 0.5,
                          1.0)
