import json
import math
import sys

import numpy as np
import pytest
from conftest import edge_average_oracle, pick_probe_reference

from etmfd import analysis, cli, mesh as mesh_module
from etmfd.analysis import (DegenerateFitError, FitNotConvergedError,
                            FitResult, convergence_study,
                            dispersion_error_metric, e_time_factor, exact_E,
                            fit_damped_cosine, initial_fields,
                            j_time_factor, l2_relative_error,
                            make_exact_solution, mode_dofs, pick_probe_edge,
                            spatial_mode)
from etmfd.mesh import build_mesh, interpolate_edge_field
from etmfd.operators import local_M, optimal_params, yee_params
from etmfd.plasma import Medium
from etmfd.selftest import assemble_local_blocks

MEDIUM = Medium()


@pytest.mark.parametrize("kx_pi, ky_pi, Lx, Ly", [(1, 1, 1.0, 0.5),
                                                  (1, 2, 1.5, 1.0),
                                                  (3, 1, 1.0, 1.25)])
def test_mode_dofs_refuses_a_mode_not_vanishing_on_the_walls(kx_pi, ky_pi,
                                                             Lx, Ly):
    # on 8x4 with Ly = 0.5, kx = ky = pi put the walls' largest tangential
    # E level with the largest overall, and `run` took it without error
    mesh = build_mesh(8, 4, Lx, Ly, "pec")
    sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
    with pytest.raises(ValueError, match="does not vanish on the PEC wall"):
        mode_dofs(mesh, sol)
    # the same mode on a torus, and a whole number of half-waves, pass
    mode_dofs(build_mesh(8, 4, Lx, Ly, "periodic"), sol)
    mode_dofs(build_mesh(8, 4, 2.0, 2.0, "pec"), sol)


def test_make_exact_solution_validates_wavenumbers():
    with pytest.raises(ValueError):
        make_exact_solution(1.0, np.pi, MEDIUM)
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
    jx, jy = (j_time_factor(sol, 0.0) * v for v in spatial_mode(sol, x, y))
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
        div = ((spatial_mode(sol, x + eps, y)[0] - spatial_mode(sol, x - eps, y)[0])
               + (spatial_mode(sol, x, y + eps)[1] - spatial_mode(sol, x, y - eps)[1])) / (2 * eps)
        assert abs(div) < 1e-5


# ---- L2 error ----------------------------------------------------------------

def _mesh_and_M():
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    M = local_M(optimal_params(0.5, 1.0), mesh.dx, mesh.dy)
    return mesh, M


def test_l2_zero_for_equal_fields():
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    assert l2_relative_error(ref.copy(), ref, mesh, M) == 0.0


def test_l2_homogeneity():
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    assert abs(l2_relative_error(2.0 * ref, ref, mesh, M) - 1.0) < 1e-14


def test_l2_matches_dense_quadratic_form(rng):
    mesh, M = _mesh_and_M()
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    ref = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
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
    ref = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), 4)
    d = np.sin(np.arange(mesh.n_edges))
    e1 = l2_relative_error(ref + d, ref, mesh, M)
    e2 = l2_relative_error(ref + d, ref, mesh, 7.3 * M)
    assert abs(e1 - e2) < 1e-14 * e1


MESHES = [(nx, ny, boundary) for boundary in ("pec", "periodic")
          for nx, ny in ((1, 1), (1, 5), (3, 4), (64, 64))]


@pytest.mark.parametrize("nx, ny, boundary", MESHES)
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_l2_face_sum_matches_the_assembled_form(nx, ny, boundary, scheme,
                                                rng):
    # one-cell periodic faces hold an edge twice; the COO sum adds both
    mesh = build_mesh(nx, ny, 1.0, 1.3, boundary)
    p = (optimal_params(0.5, mesh.gamma) if scheme == "etmfd"
         else yee_params())
    M = local_M(p, mesh.dx, mesh.dy)
    M_glob = assemble_local_blocks(mesh, M)
    ref, d = rng.standard_normal((2, mesh.n_edges))
    expect = math.sqrt((d @ (M_glob @ d)) / (ref @ (M_glob @ ref)))
    got = l2_relative_error(ref + d, ref, mesh, M)
    assert abs(got - expect) <= 1e-14 * expect


# ---- fitting -------------------------------------------------------------------

def test_fit_exact_damped_cosine():
    dt, n = 0.01, 400
    t = dt * np.arange(n)
    trace = np.exp(0.1 * t) * np.cos(2.0 * t)
    fit = fit_damped_cosine(trace, dt, "E", initial_guess=(0.0, 1.5))
    assert fit.converged
    assert abs(fit.a_h - 0.1) < 1e-10
    assert abs(fit.b_h - 2.0) < 1e-10


def test_fit_with_small_noise(rng):
    dt, n = 0.01, 400
    t = dt * np.arange(n)
    trace = np.exp(0.1 * t) * np.cos(2.0 * t)
    trace = trace + 1e-8 * rng.uniform(-1.0, 1.0, n)
    fit = fit_damped_cosine(trace, dt, "E", initial_guess=(0.0, 1.5))
    assert abs(fit.a_h - 0.1) < 1e-6
    assert abs(fit.b_h - 2.0) < 1e-6


def test_fit_zero_trace_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_damped_cosine(np.zeros(64), 0.01, "E", amplitude=0.0,
                          initial_guess=(0.0, 1.0))


def test_fit_short_trace_rejected():
    with pytest.raises(ValueError):
        fit_damped_cosine(np.zeros(5), 0.01, "E")


def test_fit_monotone_in_residual():
    dt, n = 0.02, 300
    t = dt * np.arange(n)
    trace = 0.8 * np.exp(-0.05 * t) * np.cos(3.1 * t)
    guess = (-0.3, 2.5)
    fit = fit_damped_cosine(trace, dt, "E", amplitude=0.8, initial_guess=guess)
    r0 = trace - 0.8 * np.exp(guess[0] * t) * np.cos(guess[1] * t)
    rms0 = math.sqrt(float(r0 @ r0) / n)
    assert fit.rms_residual <= rms0


def test_fit_j_model():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt, n = 0.02, 300
    t = dt * np.arange(n)
    amp = -1.7
    trace = amp * j_time_factor(sol, t)
    fit = fit_damped_cosine(trace, dt, "J", MEDIUM, amplitude=amp,
                            initial_guess=(sol.a + 0.01, sol.b - 0.05))
    assert fit.converged
    assert abs(fit.a_h - sol.a) < 1e-9
    assert abs(fit.b_h - sol.b) < 1e-9


def test_fit_j_model_requires_medium():
    with pytest.raises(ValueError):
        fit_damped_cosine(np.ones(16), 0.1, "J")


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
    mesh = build_mesh(16, 16, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dof = interpolate_edge_field(mesh, lambda x, y: spatial_mode(sol, x, y),
                                 "midpoint")
    probe = pick_probe_edge(mesh, dof)
    assert not mesh.boundary_edge_mask[probe]
    assert abs(dof[probe]) == pytest.approx(np.abs(dof).max())


@pytest.mark.parametrize("nx, ny, boundary", MESHES)
def test_pick_probe_edge_matches_the_full_table_rule(nx, ny, boundary, rng):
    mesh = build_mesh(nx, ny, 1.0, 1.3, boundary)
    modes = [np.ones(mesh.n_edges),  # every edge ties: distance decides
             # near-ties, within the 1e-9 window of the distance penalty
             1.0 - 1e-9 * rng.random(mesh.n_edges),
             rng.integers(0, 3, mesh.n_edges),  # integer ties
             rng.standard_normal(mesh.n_edges)]
    for kx_pi, ky_pi in ((1, 1), (1, 2), (2, 3), (4, 4)):
        # mode_dofs' E rule; on PEC walls at Ly = 1.3 it refuses the mode
        sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
        modes.append(interpolate_edge_field(
            mesh, lambda x, y: spatial_mode(sol, x, y), "midpoint"))
    for mode in modes:
        if mesh.boundary_edge_mask.all():  # 1x1 PEC: no edge to pick
            with pytest.raises(ValueError, match="no interior edge"):
                pick_probe_edge(mesh, mode)
        else:
            assert (pick_probe_edge(mesh, mode)
                    == pick_probe_reference(mesh, mode))


@pytest.mark.parametrize("kx_pi, ky_pi", [(1, 1), (1, 2), (2, 3)])
def test_mode_dofs_hold_the_E_and_J_rules(kx_pi, ky_pi):
    mesh = build_mesh(16, 32, 1.0, 2.0, "pec")
    sol = make_exact_solution(kx_pi * np.pi, ky_pi * np.pi, MEDIUM)
    mid, avg = mode_dofs(mesh, sol)
    # E: the exact field sampled at edge midpoints, to the last bit
    t = 0.3
    want = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, t),
                                  "midpoint")
    assert np.array_equal(e_time_factor(sol, t) * mid, want)
    # J: edge averages, against the antiderivative oracle (the midpoint
    # rule would miss them by O((kh)^2), about 1e-2 here)
    exact = edge_average_oracle(mesh, sol.kx, sol.ky)
    assert np.abs(avg - exact).max() < 1e-10 * np.abs(exact).max()
    E0, E1, J0 = initial_fields(sol, mid, avg, 0.01)
    assert np.array_equal(E0, mid)
    assert np.array_equal(E1, e_time_factor(sol, 0.01) * mid)
    assert np.array_equal(J0, j_time_factor(sol, 0.0) * avg)


def _count_interpolations(monkeypatch):
    """Record the rule of every interpolate_edge_field call in etmfd."""
    rules = []
    real = mesh_module.interpolate_edge_field

    def counted(mesh, F, rule="midpoint"):
        rules.append(rule)
        return real(mesh, F, rule)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "etmfd"
                and getattr(module, "interpolate_edge_field", None) is real):
            monkeypatch.setattr(module, "interpolate_edge_field", counted)
    return rules


def test_two_interpolations_per_convergence_level(monkeypatch):
    rules = _count_interpolations(monkeypatch)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    convergence_study([2 ** -3, 2 ** -4], "etmfd", MEDIUM, sol, 0.5, 1.0)
    assert rules == ["midpoint", 4] * 2


def test_two_interpolations_per_simulate(monkeypatch, tmp_path):
    rules = _count_interpolations(monkeypatch)
    cfg = tmp_path / "s.json"
    cfg.write_text('{"nx": 8, "ny": 8, "T": 0.25}')
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                     "simulate"]) == cli.EXIT_OK
    assert rules == ["midpoint", 4]


def test_convergence_study_validation():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    with pytest.raises(ValueError):
        convergence_study([], "etmfd", MEDIUM, sol, 0.5, 1.0)
    with pytest.raises(ValueError):
        convergence_study([0.3], "etmfd", MEDIUM, sol, 0.5, 1.0)
    # a repeated h leaves no step to take a rate over; refused up front
    with pytest.raises(ValueError, match="no h repeated"):
        convergence_study([2 ** -3, 2 ** -3], "etmfd", MEDIUM, sol, 0.5, 1.0)


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
    rows = convergence_study([2 ** -3, 2 ** -4], "etmfd", MEDIUM, sol,
                             0.5, 1.0)
    assert len(rows) == 4
    assert {r["field"] for r in rows} == {"E", "J"}
    first_e = [r for r in rows if r["field"] == "E"][0]
    assert math.isnan(first_e["rate_l2"])
    second_e = [r for r in rows if r["field"] == "E"][1]
    assert second_e["err_l2"] < first_e["err_l2"]


def test_convergence_study_rejects_nonconverged_fit(monkeypatch):
    def stalled(trace, dt, model, *args, **kwargs):
        return FitResult(0.0, 1.0, 1.0, 200, False)

    monkeypatch.setattr(analysis, "fit_damped_cosine", stalled)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    with pytest.raises(FitNotConvergedError, match=r"E probe.*etmfd.*h=0\.125"):
        convergence_study([2 ** -3], "etmfd", MEDIUM, sol, 0.5, 1.0)
