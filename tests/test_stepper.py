import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from etmfd import operators, stepper
from etmfd.analysis import (exact_E, initial_fields, make_exact_solution,
                            mode_dofs)
from etmfd.mesh import build_mesh, interpolate_edge_field
from etmfd.operators import (MfdParams, optimal_params, params_for_scheme,
                             row_blocks, yee_params)
from etmfd.plasma import Medium, coupling_matrix, exp_operators
from etmfd.selftest import (assemble_W, assemble_curl_curl, dense_step,
                            series_exp_oracle)
from etmfd.stepper import (SimConfig, SimState, Snapshot,
                           UnstableSimulationError, initialize, load_snapshot,
                           nu_max, run, save_snapshot, step, step_operators)

MEDIUM = Medium()


def make_config(mesh, nu=0.5, T=1.0, **kw):
    return SimConfig(mesh=mesh, medium=MEDIUM,
                     params=optimal_params(nu, mesh.gamma), nu=nu, T=T, **kw)


def test_config_validation():
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    with pytest.raises(ValueError):
        make_config(mesh, nu=-0.5)
    with pytest.raises(ValueError):
        SimConfig(mesh=mesh, medium=MEDIUM, params=yee_params(), nu=0.5, T=0.0)
    boundary_edge = int(np.flatnonzero(mesh.boundary_edge_mask)[0])
    with pytest.raises(ValueError):
        make_config(mesh, probes=(boundary_edge,))
    with pytest.raises(ValueError):
        make_config(mesh, probes=(10 ** 6,))
    with pytest.raises(ValueError, match="not an integer"):
        make_config(mesh, probes=(3.5,))


@pytest.mark.parametrize("field", ["nu", "T"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    with pytest.raises(ValueError, match=f"finite and > 0, got {value}"):
        dataclasses.replace(make_config(mesh), **{field: value})


def test_initialize_zero_fields():
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    z = np.zeros(mesh.n_edges)
    st = initialize(make_config(mesh), z, z, z)
    assert st.n == 1
    for v in (st.E_curr, st.E_prev, st.J_curr, st.J_prev):
        assert np.abs(v).max() == 0.0


def test_exact_solution_boundary_dof_vanish_unclamped():
    # PEC compatibility without clamping: interpolate directly and inspect
    mesh = build_mesh(16, 16, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dof = interpolate_edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0),
                                 "midpoint")
    scale = np.abs(dof).max()
    assert np.abs(dof[mesh.boundary_edge_mask]).max() < 1e-13 * scale


def test_initialize_standing_setup():
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    E0, _ = mode_dofs(mesh, sol)
    st = initialize(make_config(mesh), E0, E0, np.zeros(mesh.n_edges))
    assert st.n == 1
    assert np.array_equal(st.E_curr, st.E_prev)
    assert st.E_curr is not st.E_prev


@pytest.mark.parametrize("which", [0, 1, 2])
def test_initialize_rejects_a_wrong_length(which):
    mesh = build_mesh(4, 3, 1.0, 1.0, "pec")
    fields = [np.zeros(mesh.n_edges) for _ in range(3)]
    fields[which] = np.zeros(mesh.n_edges - 1)
    with pytest.raises(ValueError, match=f"want \\({mesh.n_edges},\\) each"):
        initialize(make_config(mesh), *fields)


def test_run_leaves_the_callers_arrays_unchanged():
    # one array as both E0 and E1: without the copy, step would overwrite
    # it and the two initial buffers would alias
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    E0, J0 = mode_dofs(mesh, sol)
    kept = E0.copy(), J0.copy()
    run(make_config(mesh, T=0.5), E0, E0, J0)
    assert np.array_equal(E0, kept[0]) and np.array_equal(J0, kept[1])


@pytest.mark.parametrize("n_steps, stride, want", [
    (5, 1, [0, 1, 2, 3, 4, 5]), (1, 1, [0, 1]), (5, 2, [0, 2, 4]),
    (4, 3, [0, 3])])
def test_snapshots_at_every_multiple_of_the_stride(n_steps, stride, want):
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=(n_steps - 0.5) * dt, snapshot_stride=stride)
    assert config.n_steps == n_steps
    inits = _exact_initial(mesh, sol, dt)
    res = run(config, *inits)
    assert [s.step for s in res.snapshots] == want
    assert [s.t for s in res.snapshots] == [n * dt for n in want]
    if stride == 1:  # step 1 holds the initial E^1 and the bootstrapped J^1
        st = initialize(config, *inits)
        assert np.array_equal(res.snapshots[1].E, st.E_curr)
        assert np.array_equal(res.snapshots[1].J, st.J_curr)


def test_step_zero_state():
    mesh = build_mesh(3, 3, 1.0, 1.0, "periodic")
    config = make_config(mesh)
    ops = step_operators(config, exp_operators(MEDIUM, config.dt))
    z = np.zeros(mesh.n_edges)
    st = SimState(z, z, z, z, 1)
    step(st, ops)
    assert np.abs(st.E_curr).max() == 0.0 and np.abs(st.J_curr).max() == 0.0
    assert st.n == 2


def test_step_uniform_mode_matches_scalar_recurrence():
    # k = 0 Bloch mode on a periodic mesh: curl term vanishes, every edge
    # evolves by the scalar two-step recurrence
    mesh = build_mesh(4, 4, 1.0, 1.0, "periodic")
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    e_c, e_p, j_c, j_p = 0.8, 0.75, -0.2, -0.25
    ones = np.ones(mesh.n_edges)
    new = SimState(e_c * ones, e_p * ones, j_c * ones, j_p * ones, 1)
    step(new, step_operators(config, ops))
    e_next = (1 + ops.alpha1) * e_c + ops.alpha2 * j_c - ops.alpha1 * e_p - ops.alpha2 * j_p
    j_next = ops.beta1 * j_c + ops.beta2 * e_c + ops.beta3 / ops.alpha3 * (
        e_next - ops.alpha1 * e_c - ops.alpha2 * j_c)
    assert np.abs(new.E_curr - e_next).max() < 1e-14
    assert np.abs(new.J_curr - j_next).max() < 1e-14


def test_step_matches_dense_oracle(rng):
    mesh = build_mesh(3, 3, 1.0, 1.0, "periodic")
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    st = SimState(rng.standard_normal(mesh.n_edges),
                  rng.standard_normal(mesh.n_edges),
                  rng.standard_normal(mesh.n_edges),
                  rng.standard_normal(mesh.n_edges), 1)
    E_ref, J_ref = dense_step(st, config, ops)  # before step overwrites st
    step(st, step_operators(config, ops))
    assert np.abs(st.E_curr - E_ref).max() < 1e-13
    assert np.abs(st.J_curr - J_ref).max() < 1e-13


def _exact_initial(mesh, sol, dt):
    return initial_fields(sol, *mode_dofs(mesh, sol), dt)


def test_run_shorter_than_one_step():
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    probe = int(np.flatnonzero(~mesh.boundary_edge_mask)[0])
    config = make_config(mesh, T=1e-4, probes=(probe,))
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    res = run(config, *_exact_initial(mesh, sol, config.dt))
    assert res.state.n == 1
    assert len(res.times) == 2
    assert res.probe_E[probe].shape == (2,)


def test_run_probe_traces_start_with_initial_data():
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    probe = int(np.flatnonzero(~mesh.boundary_edge_mask)[7])
    config = make_config(mesh, T=0.5, probes=(probe,))
    res = run(config, *_exact_initial(mesh, sol, config.dt))
    st0 = initialize(config, *_exact_initial(mesh, sol, config.dt))
    assert res.probe_E[probe][0] == st0.E_prev[probe]
    assert res.probe_E[probe][1] == st0.E_curr[probe]
    assert res.probe_J[probe][0] == st0.J_prev[probe]
    assert len(res.probe_E[probe]) == config.n_steps + 1
    assert res.t_final >= config.T


def test_pec_boundary_invariance_long_run():
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    nu = 0.5
    T = 10_000 * nu * mesh.dx / MEDIUM.c0  # 10^4 steps
    config = make_config(mesh, nu=nu, T=T)
    res = run(config, *_exact_initial(mesh, sol, config.dt))
    assert res.state.n == 10_000
    b = mesh.boundary_edge_mask
    assert np.abs(res.state.E_curr[b]).max() == 0.0
    assert np.abs(res.state.J_curr[b]).max() == 0.0
    assert np.isfinite(res.state.E_curr).all()


def test_instability_detected():
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    # weights unstable at a Courant number the Yee limit admits
    config = SimConfig(mesh=mesh, medium=MEDIUM,
                       params=MfdParams(0.6, 0.0, 0.6), nu=0.5, T=100.0)
    with pytest.raises(UnstableSimulationError):
        run(config, *_exact_initial(mesh, sol, config.dt))


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_ode_limit_exactness(dt):
    # acceptance criterion: k = 0 mode integrates the 2x2 ODE exactly
    mesh = build_mesh(1, 1, 1.0, 1.0, "periodic")
    X = coupling_matrix(MEDIUM)
    u0 = np.array([0.7, -0.3])
    u1 = series_exp_oracle(X, dt) @ u0
    config = SimConfig(mesh=mesh, medium=MEDIUM, params=yee_params(),
                       nu=dt * MEDIUM.c0 / mesh.dx, T=1.0)
    # one horizontal and one vertical edge
    res = run(config, (u0[0], 0.0), (u1[0], 0.0), (u0[1], 0.0))
    ref = series_exp_oracle(X, res.t_final) @ u0
    assert abs(res.state.E_curr[0] - ref[0]) < 1e-12
    assert abs(res.state.J_curr[0] - ref[1]) < 1e-12


@pytest.mark.parametrize("n", [64, 256])  # one block of rows, and five
def test_step_matches_the_unfactored_pair(n, rng):
    # G @ (C @ E) and the in-place update against W @ (A @ E) written out
    mesh = build_mesh(n, n, 1.0, 1.0, "pec")
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    st = SimState(*rng.standard_normal((4, mesh.n_edges)), 1)
    c2dt = MEDIUM.c0 ** 2 * config.dt
    E_ref = ((1.0 + ops.alpha1) * st.E_curr + ops.alpha2 * st.J_curr
             - ops.alpha1 * st.E_prev - ops.alpha2 * st.J_prev
             - c2dt * ops.alpha3 * (assemble_W(mesh, config.params)
                                    @ (assemble_curl_curl(mesh) @ st.E_curr)))
    J_ref = (ops.beta1 * st.J_curr + ops.beta2 * st.E_curr
             + ops.beta3 / ops.alpha3
             * (E_ref - ops.alpha1 * st.E_curr - ops.alpha2 * st.J_curr))
    step(st, step_operators(config, ops))
    assert np.abs(st.E_curr - E_ref).max() <= 1e-15 * np.abs(E_ref).max()
    assert np.abs(st.J_curr - J_ref).max() <= 1e-15 * np.abs(J_ref).max()


def test_run_keeps_no_view_of_a_reused_buffer():
    # step overwrites the step n-1 buffers: snapshots, probe samples and
    # the final state must hold the values of their own step
    mesh = build_mesh(6, 5, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    probe = int(np.flatnonzero(~mesh.boundary_edge_mask)[9])
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=11.5 * dt, probes=(probe,),
                         snapshot_stride=3)
    inits = _exact_initial(mesh, sol, config.dt)
    ops = exp_operators(MEDIUM, config.dt)
    st = initialize(config, *inits, ops)
    ref = [(st.E_prev, st.J_prev), (st.E_curr, st.J_curr)]
    for n in range(2, 13):
        E, J = dense_step(st, config, ops)
        st = SimState(E, st.E_curr, J, st.J_curr, n)
        ref.append((E, J))

    res = run(config, *inits)
    assert config.n_steps == res.state.n == 12
    assert [s.step for s in res.snapshots] == [0, 3, 6, 9, 12]
    for s in res.snapshots:
        assert np.abs(s.E - ref[s.step][0]).max() < 1e-13
        assert np.abs(s.J - ref[s.step][1]).max() < 1e-13
    for n, (E, J) in enumerate(ref):
        assert abs(res.probe_E[probe][n] - E[probe]) < 1e-13
        assert abs(res.probe_J[probe][n] - J[probe]) < 1e-13
    final = res.state
    for got, want in ((final.E_curr, ref[12][0]), (final.J_curr, ref[12][1]),
                      (final.E_prev, ref[11][0]), (final.J_prev, ref[11][1])):
        assert np.abs(got - want).max() < 1e-13


def test_nan_in_J_alone_stops_the_run_at_its_step(monkeypatch):
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    edge = int(np.flatnonzero(~mesh.boundary_edge_mask)[5])
    nb = len(step_operators(config, exp_operators(MEDIUM, config.dt)).K.blocks)
    real = stepper._j_update
    made = []

    def poisoned(*args, **kwargs):
        J = real(*args, **kwargs)
        made.append(J)
        # initialize makes J^1; step n makes J^n block by block, in calls
        # nb (n - 2) + 2 .. nb (n - 1) + 1, and the edge is in block 1
        if len(made) == nb * 3 + 2:
            J[edge] = np.nan
        return J

    monkeypatch.setattr(stepper, "_j_update", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(mesh, sol, config.dt))


# ---- the row-blocked step ---------------------------------------------------

BLOCKED_MESHES = [(13, 11, "pec"), (8, 8, "pec"), (9, 7, "periodic"),
                  (1, 40, "periodic")]  # a one-cell-wide torus sums duplicates


def _admitted_config(mesh):
    """make_config at nu = 0.5, or at nu_max where the cells are too flat
    for it (the 1x40 torus of BLOCKED_MESHES)."""
    return make_config(mesh, nu=min(0.5, nu_max(mesh.gamma)))


def _random_state(config, rng):
    return initialize(config, *rng.standard_normal((3, config.mesh.n_edges)))


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("nx, ny, boundary", BLOCKED_MESHES)
def test_blocked_step_is_bit_identical_to_one_block(nx, ny, boundary, scheme,
                                                    block, rng, monkeypatch):
    mesh = build_mesh(nx, ny, 1.0, 1.3, boundary)
    config = _admitted_config(mesh)
    config = dataclasses.replace(
        config, params=params_for_scheme(scheme, config.nu, mesh.gamma))
    ops = exp_operators(MEDIUM, config.dt)
    one = step_operators(config, ops)
    assert len(one.K.blocks) == 2  # one for each edge orientation
    monkeypatch.setattr(operators, "BLOCK", block)
    many = step_operators(config, ops)
    assert len(many.K.blocks) == sum(
        len(row_blocks(*v.shape)) - 1
        for v in mesh.edge_lines(np.empty(mesh.n_edges))) >= 2
    st_one = _random_state(config, rng)
    st_many = SimState(*(v.copy() for v in (st_one.E_curr, st_one.E_prev,
                                             st_one.J_curr, st_one.J_prev)), 1)
    for _ in range(20):
        assert step(st_one, one) == step(st_many, many)
    for field in ("E_curr", "E_prev", "J_curr", "J_prev"):
        assert np.array_equal(getattr(st_one, field), getattr(st_many, field))


@pytest.mark.parametrize("nx, ny, boundary", BLOCKED_MESHES)
def test_blocked_step_returns_the_max_over_every_block(nx, ny, boundary, rng,
                                                       monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 7)
    mesh = build_mesh(nx, ny, 1.0, 1.3, boundary)
    config = _admitted_config(mesh)
    ops = step_operators(config, exp_operators(MEDIUM, config.dt))
    last = int(np.flatnonzero(~mesh.boundary_edge_mask)[-1])
    states = [_random_state(config, rng)]
    for sign in (1.0, -1.0):  # J enters elementwise: the peak stays put
        z = np.zeros(mesh.n_edges)
        J = z.copy()
        J[last] = sign * 1e3
        states.append(SimState(z.copy(), z.copy(), J, z.copy(), 1))
    for st in states:
        for _ in range(3):
            m = step(st, ops)
            assert m == max(np.abs(st.E_curr).max(), np.abs(st.J_curr).max())
    assert max(np.abs(st.E_curr).argmax(), np.abs(st.J_curr).argmax()) == last
    assert last >= mesh.n_edges - ops.K.blocks[-1].shape[0]  # last block


@pytest.mark.parametrize("field", ["E", "J"])
def test_nan_in_the_last_block_stops_the_run_at_its_step(field, monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 64)
    mesh = build_mesh(8, 8, 1.0, 1.0, "pec")  # 144 edges, 4 blocks
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    real = stepper._j_update
    made = []

    def poisoned(j_coeffs, E, J, E_next, out, scratch):
        real(j_coeffs, E, J, E_next, out=out, scratch=scratch)
        made.append(len(out))
        # initialize makes J^1; step n updates blocks 1..4 in calls
        # 4 (n - 2) + 2 .. 4 (n - 1) + 1, so step 5's last block is call 17
        if len(made) == 17:
            (E_next if field == "E" else out)[-1] = np.nan
        return out

    monkeypatch.setattr(stepper, "_j_update", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(mesh, sol, config.dt))
    # horizontal lines 4 + 5 of 8 edges, vertical lines 4 + 4 of 9
    assert made == [144] + [32, 40, 36, 36] * 4


def test_step_allocates_no_edge_sized_array(rng):
    mesh = build_mesh(512, 512, 1.0, 1.0, "pec")  # 525 312 edges, 18 blocks
    config = make_config(mesh)
    ops = step_operators(config, exp_operators(MEDIUM, config.dt))
    assert len(ops.K.blocks) == 18
    st = _random_state(config, rng)
    step(st, ops)  # warm: first-call caches stay out of the count
    tracemalloc.start()
    try:
        step(st, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # z is block-sized; C @ E, its scratch and the padded faces live in ops
    assert peak < mesh.n_faces * 8 / 2


# 32^2 PEC, kx = ky = pi: ETMFD at nu = 0.7, below nu_max = 0.7071, and
# two weight sets unstable at nu = 0.5.  The unstable mode grows from
# rounding noise, so the step past the bound moves with the order of the
# update's floating-point operations
@pytest.mark.parametrize("weights, nu, n_fail", [
    pytest.param(None, 0.7, None, id="0.7-None"),
    pytest.param((0.6, 0.0, 0.6), 0.5, 80, id="w1-w3-0.6-80"),
    pytest.param((0.25, -0.3, 0.25), 0.5, 113, id="w2--0.3-113")])
def test_blowup_caught_at_first_step_past_the_bound(weights, nu, n_fail,
                                                    monkeypatch):
    mesh = build_mesh(32, 32, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, nu=nu, T=8.0)
    if weights is not None:
        config = dataclasses.replace(config, params=MfdParams(*weights))
    inits = _exact_initial(mesh, sol, config.dt)
    st0 = initialize(config, *inits)
    bound = 1e12 * (1.0 + max(np.abs(st0.E_curr).max(),
                              np.abs(st0.J_curr).max()))
    real = stepper.step
    seen = []

    def checked(state, ops):
        m = real(state, ops)
        seen.append(max(np.abs(state.E_curr).max(), np.abs(state.J_curr).max()))
        assert m == seen[-1]
        return m

    monkeypatch.setattr(stepper, "step", checked)
    if n_fail is None:
        assert run(config, *inits).state.n == config.n_steps == 366
        assert max(seen) <= bound
    else:
        with pytest.raises(UnstableSimulationError, match=f"at step {n_fail} "):
            run(config, *inits)
        assert len(seen) == n_fail - 1  # steps 2 .. n_fail
        assert max(seen[:-1]) <= bound < seen[-1]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_config_refuses_nu_past_the_stability_limit(gamma):
    mesh = build_mesh(32, 32, 1.0, gamma, "pec")
    limit = gamma / math.sqrt(1.0 + gamma * gamma)
    assert nu_max(mesh.gamma) == pytest.approx(limit, rel=1e-15)
    make_config(mesh, nu=0.99 * limit)
    make_config(mesh, nu=limit)
    with pytest.raises(ValueError, match="above the stability limit"):
        make_config(mesh, nu=1.01 * limit)


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_nu_max_is_where_random_data_starts_to_blow_up(gamma, scheme, rng,
                                                       monkeypatch):
    # by bisection at 32^2 over T = 30, the measured limit sits 0.09% to
    # 0.23% above nu_max, for both weight sets and gamma in {0.5, 1, 2}
    mesh = build_mesh(32, 32, 1.0, gamma, "pec")
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    for factor, stable in ((0.99, True), (1.01, False)):
        nu = factor * gamma / math.sqrt(1.0 + gamma * gamma)
        config = dataclasses.replace(
            make_config(mesh, nu=nu, T=30.0),
            params=params_for_scheme(scheme, nu, mesh.gamma))
        inits = rng.standard_normal((3, mesh.n_edges))
        if stable:
            assert run(config, *inits).state.n == config.n_steps
        else:
            with pytest.raises(UnstableSimulationError):
                run(config, *inits)


def test_alpha3_guard_fires_before_the_first_step(monkeypatch):
    mesh = build_mesh(4, 4, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh)
    real = stepper.exp_operators
    monkeypatch.setattr(stepper, "exp_operators", lambda medium, dt:
                        dataclasses.replace(real(medium, dt), alpha3=0.0))
    calls = []
    monkeypatch.setattr(stepper, "step", lambda *args: calls.append(args))
    with pytest.raises(ZeroDivisionError, match="alpha3 vanished"):
        run(config, *_exact_initial(mesh, sol, config.dt))
    assert calls == []


def second_order_step(state, W_op, A_op, ops, config):
    """Pure two-step update of both fields: the equivalence oracle."""
    c2dt = config.medium.c0 ** 2 * config.dt
    curl_term = W_op @ (A_op @ state.E_curr)
    E = ((1.0 + ops.alpha1) * state.E_curr + ops.alpha2 * state.J_curr
         - ops.alpha1 * state.E_prev - ops.alpha2 * state.J_prev
         - c2dt * ops.alpha3 * curl_term)
    J = (ops.beta2 * state.E_curr + (1.0 + ops.beta1) * state.J_curr
         - ops.beta2 * state.E_prev - ops.beta1 * state.J_prev
         - c2dt * ops.beta3 * curl_term)
    return SimState(E, state.E_curr, J, state.J_curr, state.n + 1)


def test_hybrid_equivalent_to_second_order_form():
    # identical E trajectories from identical (E0, E1, J0, J1) when J1
    # comes from one hybrid J update
    mesh = build_mesh(4, 4, 1.0, 1.0, "periodic")
    config = make_config(mesh, T=3.0)
    ops = exp_operators(MEDIUM, config.dt)
    W_op = assemble_W(mesh, config.params)
    A_op = assemble_curl_curl(mesh)
    step_ops = step_operators(config, ops)

    kx = ky = 2 * np.pi  # periodic-compatible standing data

    mode = interpolate_edge_field(
        mesh, lambda x, y: (np.cos(kx * x) * np.sin(ky * y),
                            np.sin(kx * x) * np.cos(ky * y)))
    st_h = initialize(config, mode, math.cos(2.0 * config.dt) * mode,
                      0.3 * mode, ops)
    st_s = SimState(st_h.E_curr.copy(), st_h.E_prev.copy(),
                    st_h.J_curr.copy(), st_h.J_prev.copy(), st_h.n)
    scale = np.abs(st_h.E_curr).max()
    for _ in range(60):
        step(st_h, step_ops)
        st_s = second_order_step(st_s, W_op, A_op, ops, config)
        assert np.abs(st_h.E_curr - st_s.E_curr).max() < 1e-12 * scale


def test_snapshot_roundtrip(tmp_path):
    mesh = build_mesh(6, 5, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.5, snapshot_stride=2)
    res = run(config, *_exact_initial(mesh, sol, config.dt))
    assert len(res.snapshots) >= 2
    snap = res.snapshots[-1]
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, snap)
    meta, E, J = load_snapshot(prefix)
    assert meta["step"] == snap.step
    assert meta["nx"] == mesh.nx and meta["ny"] == mesh.ny
    assert np.array_equal(E, snap.E)
    assert np.array_equal(J, snap.J)


def test_snapshot_loads_from_another_cwd(tmp_path, monkeypatch):
    mesh = build_mesh(3, 2, 1.0, 1.0, "pec")
    snap = Snapshot(4, 0.25, np.arange(mesh.n_edges, dtype=float),
                    -np.arange(mesh.n_edges, dtype=float))
    (tmp_path / "run" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "run")
    save_snapshot("out/snap", mesh, snap)  # relative prefix
    monkeypatch.chdir(tmp_path)
    meta, E, J = load_snapshot(str(tmp_path / "run" / "out" / "snap"))
    assert meta["fields"] == {"E": "snap.E.bin", "J": "snap.J.bin"}
    assert np.array_equal(E, snap.E) and np.array_equal(J, snap.J)


def test_snapshot_old_sidecar_with_absolute_paths(tmp_path):
    mesh = build_mesh(2, 2, 1.0, 1.0, "pec")
    snap = Snapshot(0, 0.0, np.ones(mesh.n_edges), np.zeros(mesh.n_edges))
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, snap)
    # an older sidecar, moved away from its binaries, names them absolutely
    meta = json.loads((tmp_path / "snap.json").read_text())
    meta["fields"] = {f: prefix + f".{f}.bin" for f in ("E", "J")}
    (tmp_path / "moved").mkdir()
    (tmp_path / "moved" / "snap.json").write_text(json.dumps(meta))
    _, E, J = load_snapshot(str(tmp_path / "moved" / "snap"))
    assert np.array_equal(E, snap.E) and np.array_equal(J, snap.J)


def test_save_snapshot_writes_without_an_edge_sized_copy(tmp_path):
    mesh = build_mesh(512, 512, 1.0, 1.0, "pec")  # 525 312 edges
    rng = np.random.default_rng(7)
    snap = Snapshot(3, 0.5, *rng.standard_normal((2, mesh.n_edges)))
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, snap)  # warm
    tracemalloc.start()
    try:
        save_snapshot(prefix, mesh, snap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mesh.n_edges * 8 / 4
    # the bytes are the little-endian float64 values, in edge order
    for name, v in (("E", snap.E), ("J", snap.J)):
        assert (tmp_path / f"snap.{name}.bin").read_bytes() \
            == v.astype("<f8").tobytes()


def test_run_builds_no_face_edge_table():
    # the step's curl reads edge lines: only norms and oracles need it
    mesh = build_mesh(8, 6, 1.0, 1.0, "pec")
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.25, snapshot_stride=2)
    run(config, *_exact_initial(mesh, sol, config.dt))
    assert "face_edge_table" not in mesh.__dict__
