import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from etmfd import cli, operators, stepper
from etmfd.analysis import (e_time_factor, exact_E, j_time_factor,
                            make_exact_solution, mode_dofs,
                            run_standing_mode)
from etmfd.mesh import build_mesh, interpolate_edge_field
from etmfd.operators import params_for_scheme, row_blocks, yee_params
from etmfd.plasma import Medium, coupling_matrix, exp_operators
from etmfd.selftest import dense_step, series_exp_oracle
from etmfd.stepper import (SimConfig, SimState, UnstableSimulationError,
                           initialize, load_snapshot, nu_max, run,
                           save_snapshot, step, step_operators)

from conftest import (assemble_W, assemble_curl_curl, edge_field,
                      initial_state, pec_ids, wall_free_gradient)

MEDIUM = Medium()


def make_config(mesh, nu=0.5, T=1.0, scheme="etmfd"):
    return SimConfig(mesh=mesh, medium=MEDIUM, scheme=scheme, nu=nu, T=T)


def test_config_validation():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_config(mesh, nu=-0.5)
    with pytest.raises(ValueError):
        make_config(mesh, T=0.0, scheme="et-yee")


@pytest.mark.parametrize("scheme", ["yee", "optimal", "", 5, None])
def test_config_refuses_an_unknown_scheme_before_any_step(scheme,
                                                          monkeypatch):
    mesh = build_mesh(4, 4, 1.0, 1.0)
    steps = []
    monkeypatch.setattr(stepper, "step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="unknown scheme"):
        make_config(mesh, scheme=scheme)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    with pytest.raises(ValueError, match="unknown scheme"):
        run_standing_mode(mesh, scheme, sol, 0.5, 1.0)
    assert steps == []


def test_config_takes_no_weights():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(TypeError):
        SimConfig(mesh=mesh, medium=MEDIUM, params=yee_params(), nu=0.5,
                  T=1.0)


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_config_weights_are_the_schemes(gamma, scheme):
    mesh = build_mesh(8, 8, 1.0, gamma)
    config = make_config(mesh, nu=0.4, scheme=scheme)
    assert config.params == params_for_scheme(scheme, 0.4, gamma)


@pytest.mark.parametrize("field", ["nu", "T"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    mesh = build_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"finite and > 0, got {value}"):
        dataclasses.replace(make_config(mesh), **{field: value})


def test_initialize_zero_fields():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    st = initialize(make_config(mesh), np.zeros(mesh.n_edges), (1.0, 1.0),
                    (1.0, 1.0, 1.0))
    assert st.n == 1
    for v in (st.E_curr, st.E_prev, st.J_curr, st.J_prev):
        assert np.abs(v).max() == 0.0


def test_exact_solution_boundary_dof_vanish_unclamped():
    # PEC compatibility without clamping: interpolate directly and inspect
    mesh = build_mesh(16, 16, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dof = edge_field(mesh, lambda x, y: exact_E(sol, x, y, 0.0), "midpoint")
    scale = np.abs(dof).max()
    assert np.abs(dof[mesh.boundary_edge_mask]).max() < 1e-13 * scale


def test_initialize_standing_setup():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    mid, j_scale = mode_dofs(mesh, sol)
    st = initialize(make_config(mesh), mid, j_scale, (1.0, 1.0, 0.0))
    assert st.n == 1
    assert np.array_equal(st.E_curr, st.E_prev)
    assert st.E_curr is not st.E_prev


@pytest.mark.parametrize("which", [0, 1, 2])
def test_initialize_rejects_a_wrong_length(which):
    # the profile, the two J scales and the three time factors
    mesh = build_mesh(4, 3, 1.0, 1.0)
    args = [np.zeros(mesh.n_edges), (1.0, 1.0), (1.0, 1.0, 1.0)]
    args[which] = [np.zeros(mesh.n_edges - 1), (1.0,), (1.0, 1.0)][which]
    match = [f"want \\({mesh.n_edges},\\)", "argument 2 is shorter",
             "expected 3, got 2"][which]
    with pytest.raises(ValueError, match=match):
        initialize(make_config(mesh), *args)


def test_run_leaves_the_callers_arrays_unchanged():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    mid, j_scale = mode_dofs(mesh, sol)
    kept = mid.copy()
    run(make_config(mesh, T=0.5), mid, j_scale, (1.0, 0.9, 0.3))
    assert np.array_equal(mid, kept)


@pytest.mark.parametrize("n_steps, stride, want", [
    (5, 1, [0, 1, 2, 3, 4, 5]), (1, 1, [0, 1]), (5, 2, [0, 2, 4]),
    (4, 3, [0, 3])])
def test_snapshots_at_every_multiple_of_the_stride(n_steps, stride, want,
                                                   tmp_path):
    # simulate's snapshot cadence, read back from the files it writes
    mesh = build_mesh(4, 4, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"nx": 4, "ny": 4, "T": (n_steps - 0.5) * dt,
                               "snapshot_stride": stride}))
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                     "simulate"]) == cli.EXIT_OK
    sidecars = sorted((tmp_path / "sim_out").glob("snapshot_*.json"))
    snaps = [load_snapshot(str(p.with_suffix(""))) for p in sidecars]
    assert [meta["step"] for meta, _, _ in snaps] == want
    assert [meta["time"] for meta, _, _ in snaps] == [n * dt for n in want]
    if stride == 1:  # step 1 holds the initial E^1 and the bootstrapped J^1
        st = initialize(make_config(mesh, T=1.0),
                        *_exact_initial(mesh, sol, dt))
        assert np.array_equal(snaps[1][1], st.E_curr)
        assert np.array_equal(snaps[1][2], st.J_curr)


def _kept(seen):
    """An observer that keeps (n, t, E, J) copies: run passes the live
    buffers, which the next step overwrites."""
    return lambda n, t, E, J: seen.append((n, t, E.copy(), J.copy()))


@pytest.mark.parametrize("n_steps", [1, 2, 12])
def test_observe_sees_every_step_once_in_order(n_steps):
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=(n_steps - 0.5) * dt)
    inits = _exact_initial(mesh, sol, config.dt)
    # the reference: initialize and step by hand, copying every step
    st = initialize(config, *inits)
    ops = step_operators(config, exp_operators(MEDIUM, config.dt))
    ref = [(st.E_prev.copy(), st.J_prev.copy()),
           (st.E_curr.copy(), st.J_curr.copy())]
    for _ in range(2, n_steps + 1):
        step(st, ops)
        ref.append((st.E_curr.copy(), st.J_curr.copy()))
    seen = []
    final = run(config, *inits, _kept(seen))
    assert [n for n, _, _, _ in seen] == list(range(n_steps + 1))
    assert [t for _, t, _, _ in seen] == [n * config.dt
                                          for n in range(n_steps + 1)]
    for (_, _, E, J), (E_ref, J_ref) in zip(seen, ref):
        assert np.array_equal(E, E_ref) and np.array_equal(J, J_ref)
    # observing changes nothing: the same final state bit for bit
    plain = run(config, *inits)
    assert final.n == plain.n == n_steps
    for field in ("E_curr", "E_prev", "J_curr", "J_prev"):
        assert np.array_equal(getattr(final, field), getattr(plain, field))


def test_step_zero_state():
    mesh = build_mesh(3, 3, 1.0, 1.0)
    config = make_config(mesh)
    ops = step_operators(config, exp_operators(MEDIUM, config.dt))
    z = np.zeros(mesh.n_edges)
    st = SimState(z, z, z, z, 1)
    step(st, ops)
    assert np.abs(st.E_curr).max() == 0.0 and np.abs(st.J_curr).max() == 0.0
    assert st.n == 2


def test_step_uniform_mode_matches_scalar_recurrence(rng):
    # a gradient vanishing on the walls: the curl term vanishes, every
    # edge evolves by the scalar two-step recurrence
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    e_c, e_p, j_c, j_p = 0.8, 0.75, -0.2, -0.25
    g = wall_free_gradient(mesh, rng)
    new = SimState(e_c * g, e_p * g, j_c * g, j_p * g, 1)
    step(new, step_operators(config, ops))
    e_next = (1 + ops.alpha1) * e_c + ops.alpha2 * j_c - ops.alpha1 * e_p - ops.alpha2 * j_p
    j_next = ops.beta1 * j_c + ops.beta2 * e_c + ops.beta3 / ops.alpha3 * (
        e_next - ops.alpha1 * e_c - ops.alpha2 * j_c)
    scale = np.abs(g).max()
    assert np.abs(new.E_curr - e_next * g).max() < 1e-14 * scale
    assert np.abs(new.J_curr - j_next * g).max() < 1e-14 * scale


def test_step_matches_dense_oracle(rng):
    mesh = build_mesh(3, 3, 1.0, 1.0)
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
    """(mode, j_scale, factors) of the exact E at t = 0 and dt and J at
    t = 0."""
    mid, j_scale = mode_dofs(mesh, sol)
    return mid, j_scale, (e_time_factor(sol, 0.0), e_time_factor(sol, dt),
                          j_time_factor(sol, 0.0))


def test_run_shorter_than_one_step():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh, T=1e-4)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    seen = []
    state = run(config, *_exact_initial(mesh, sol, config.dt), _kept(seen))
    assert state.n == 1
    assert [(n, t) for n, t, _, _ in seen] == [(0, 0.0), (1, config.dt)]


def test_run_probe_traces_start_with_initial_data():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    probe = int(np.flatnonzero(~mesh.boundary_edge_mask)[7])
    config = make_config(mesh, T=0.5)
    seen = []
    run(config, *_exact_initial(mesh, sol, config.dt),
        lambda n, t, E, J: seen.append((t, E[probe], J[probe])))
    st0 = initialize(config, *_exact_initial(mesh, sol, config.dt))
    assert seen[0][1:] == (st0.E_prev[probe], st0.J_prev[probe])
    assert seen[1][1:] == (st0.E_curr[probe], st0.J_curr[probe])
    assert len(seen) == config.n_steps + 1
    assert seen[-1][0] >= config.T


def test_pec_boundary_invariance_long_run():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    nu = 0.5
    T = 10_000 * nu * mesh.dx / MEDIUM.c0  # 10^4 steps
    config = make_config(mesh, nu=nu, T=T)
    state = run(config, *_exact_initial(mesh, sol, config.dt))
    assert state.n == 10_000
    b = mesh.boundary_edge_mask
    assert np.abs(state.E_curr[b]).max() == 0.0
    assert np.abs(state.J_curr[b]).max() == 0.0
    assert np.isfinite(state.E_curr).all()


def test_instability_detected(monkeypatch):
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    # a Courant number past the limit, which SimConfig would refuse
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    config = make_config(mesh, nu=0.75, T=100.0)
    with pytest.raises(UnstableSimulationError):
        run(config, *_exact_initial(mesh, sol, config.dt))


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_ode_limit_exactness(dt):
    # acceptance criterion: a curl-free mode integrates the 2x2 ODE
    # exactly, here the gradient of the hat at the one interior node of a
    # 2x2 mesh of unit cells, +-1 on its four edges
    mesh = build_mesh(2, 2, 2.0, 2.0)
    e = mesh.hedge_index(0, 1)
    mode = np.zeros(mesh.n_edges)
    mode[[e, mesh.hedge_index(1, 1), mesh.vedge_index(1, 0),
          mesh.vedge_index(1, 1)]] = 1.0, -1.0, 1.0, -1.0
    X = coupling_matrix(MEDIUM)
    u0 = np.array([0.7, -0.3])
    u1 = series_exp_oracle(X, dt) @ u0
    config = make_config(mesh, nu=dt * MEDIUM.c0 / mesh.dx, T=1.0,
                         scheme="et-yee")
    state = run(config, mode, (1.0, 1.0), (u0[0], u1[0], u0[1]))
    ref = series_exp_oracle(X, state.n * config.dt) @ u0
    assert abs(state.E_curr[e] - ref[0]) < 1e-12
    assert abs(state.J_curr[e] - ref[1]) < 1e-12


@pytest.mark.parametrize("n", [64, 256])  # one block of rows, and five
def test_step_matches_the_unfactored_pair(n, rng):
    # G @ (C @ E) and the in-place update against W @ (A @ E) written out
    mesh = build_mesh(n, n, 1.0, 1.0)
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
    # step overwrites the step n-1 buffers: each observed step and the
    # final state must hold the values of their own step
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=11.5 * dt)
    inits = _exact_initial(mesh, sol, config.dt)
    ops = exp_operators(MEDIUM, config.dt)
    st = initialize(config, *inits, ops)
    ref = [(st.E_prev, st.J_prev), (st.E_curr, st.J_curr)]
    for n in range(2, 13):
        E, J = dense_step(st, config, ops)
        st = SimState(E, st.E_curr, J, st.J_curr, n)
        ref.append((E, J))

    seen = []
    final = run(config, *inits, _kept(seen))
    assert config.n_steps == final.n == 12
    assert [n for n, _, _, _ in seen] == list(range(13))
    for (_, _, E, J), (E_ref, J_ref) in zip(seen, ref):
        assert np.abs(E - E_ref).max() < 1e-13
        assert np.abs(J - J_ref).max() < 1e-13
    for got, want in ((final.E_curr, ref[12][0]), (final.J_curr, ref[12][1]),
                      (final.E_prev, ref[11][0]), (final.J_prev, ref[11][1])):
        assert np.abs(got - want).max() < 1e-13


def test_nan_in_J_alone_stops_the_run_at_its_step(monkeypatch):
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    edge = int(np.flatnonzero(~mesh.boundary_edge_mask)[5])
    nb = len(step_operators(config, exp_operators(MEDIUM, config.dt)).K.blocks)
    real = stepper._j_update
    made = []

    def poisoned(*args, **kwargs):
        J = real(*args, **kwargs)
        made.append(J)
        # initialize makes J^1 in one call (144 edges, one BLOCK); step n
        # makes J^n block by block, in calls nb (n - 2) + 2 .. nb (n - 1)
        # + 1, and the edge is in block 1
        if len(made) == nb * 3 + 2:
            J[edge] = np.nan
        return J

    monkeypatch.setattr(stepper, "_j_update", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(mesh, sol, config.dt))


# ---- the row-blocked step ---------------------------------------------------

BLOCKED_MESHES = pec_ids([(13, 11), (8, 8)])


def _random_state(config, rng):
    return initial_state(config, *rng.standard_normal((3, config.mesh.n_edges)))


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("nx, ny", BLOCKED_MESHES)
def test_blocked_step_is_bit_identical_to_one_block(nx, ny, scheme, block,
                                                    rng, monkeypatch):
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    config = make_config(mesh, scheme=scheme)
    ops = exp_operators(MEDIUM, config.dt)
    one = step_operators(config, ops)
    assert len(one.K.blocks) == 1  # the whole mesh, both orientations
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


@pytest.mark.parametrize("nx, ny", BLOCKED_MESHES)
def test_blocked_step_returns_the_max_over_every_block(nx, ny, rng,
                                                       monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 7)
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    config = make_config(mesh)
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
    assert last >= ops.K.blocks[-1].rows.start  # in the last block


@pytest.mark.parametrize("field", ["E", "J"])
def test_nan_in_the_last_block_stops_the_run_at_its_step(field, monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 64)
    mesh = build_mesh(8, 8, 1.0, 1.0)  # 144 edges, 4 blocks
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    real = stepper._j_update
    made = []

    def poisoned(j_coeffs, E, J, E_next, out, scratch):
        real(j_coeffs, E, J, E_next, out=out, scratch=scratch)
        made.append(len(out))
        # initialize makes J^1 in slices of 64, 64 and 16 edges; step n
        # updates blocks 1..4 in calls 4 (n - 2) + 4 .. 4 (n - 1) + 3, so
        # step 5's last block is call 19
        if len(made) == 19:
            (E_next if field == "E" else out)[-1] = np.nan
        return out

    monkeypatch.setattr(stepper, "_j_update", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(mesh, sol, config.dt))
    # horizontal lines 4 + 5 of 8 edges, vertical lines 4 + 4 of 9
    assert made == [64, 64, 16] + [32, 40, 36, 36] * 4


def test_step_allocates_no_edge_sized_array(rng):
    mesh = build_mesh(512, 512, 1.0, 1.0)  # 525 312 edges, 18 blocks
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
    # z and the stencil's buffers are block-sized, C E lives in ops
    assert peak < mesh.n_faces * 8 / 2


# 32^2 PEC, kx = ky = pi: ETMFD at nu = 0.7, below nu_max = 0.7071, and
# both schemes at nu = 0.75, past it (nu_max lifted so SimConfig admits
# it).  The unstable mode grows from rounding noise, so the step past the
# bound moves with the order of the update's floating-point operations
@pytest.mark.parametrize("scheme, nu, n_fail", [
    pytest.param("etmfd", 0.7, None, id="0.7-None"),
    pytest.param("etmfd", 0.75, 125, id="etmfd-0.75-125"),
    pytest.param("et-yee", 0.75, 100, id="et-yee-0.75-100")])
def test_blowup_caught_at_first_step_past_the_bound(scheme, nu, n_fail,
                                                    monkeypatch):
    mesh = build_mesh(32, 32, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    config = make_config(mesh, nu=nu, T=8.0, scheme=scheme)
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
        assert run(config, *inits).n == config.n_steps == 366
        assert max(seen) <= bound
    else:
        with pytest.raises(UnstableSimulationError, match=f"at step {n_fail} "):
            run(config, *inits)
        assert len(seen) == n_fail - 1  # steps 2 .. n_fail
        assert max(seen[:-1]) <= bound < seen[-1]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_config_refuses_nu_past_the_stability_limit(gamma):
    mesh = build_mesh(32, 32, 1.0, gamma)
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
    mesh = build_mesh(32, 32, 1.0, gamma)
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    for factor, stable in ((0.99, True), (1.01, False)):
        nu = factor * gamma / math.sqrt(1.0 + gamma * gamma)
        config = make_config(mesh, nu=nu, T=30.0, scheme=scheme)
        inits = (rng.standard_normal(mesh.n_edges), rng.standard_normal(2),
                 rng.standard_normal(3))
        if stable:
            assert run(config, *inits).n == config.n_steps
        else:
            with pytest.raises(UnstableSimulationError):
                run(config, *inits)


def test_alpha3_guard_fires_before_the_first_step(monkeypatch):
    mesh = build_mesh(4, 4, 1.0, 1.0)
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
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh, T=3.0)
    ops = exp_operators(MEDIUM, config.dt)
    W_op = assemble_W(mesh, config.params)
    A_op = assemble_curl_curl(mesh)
    step_ops = step_operators(config, ops)

    kx = ky = 2 * np.pi  # standing data vanishing on the walls

    mode = interpolate_edge_field(mesh,
                                  lambda x, y: np.cos(kx * x) * np.sin(ky * y),
                                  lambda x, y: np.sin(kx * x) * np.cos(ky * y))
    st_h = initialize(config, mode, (1.0, 1.0),
                      (1.0, math.cos(2.0 * config.dt), 0.3), ops)
    st_s = SimState(st_h.E_curr.copy(), st_h.E_prev.copy(),
                    st_h.J_curr.copy(), st_h.J_prev.copy(), st_h.n)
    scale = np.abs(st_h.E_curr).max()
    for _ in range(60):
        step(st_h, step_ops)
        st_s = second_order_step(st_s, W_op, A_op, ops, config)
        assert np.abs(st_h.E_curr - st_s.E_curr).max() < 1e-12 * scale


def test_snapshot_roundtrip(tmp_path):
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.5)
    kept = []

    def save(n, t, E, J):  # written as it is taken, then read back at the end
        if n % 2 == 0:
            save_snapshot(str(tmp_path / f"snap{n}"), mesh, n, t, E, J)
            kept.append((n, t, E.copy(), J.copy()))

    run(config, *_exact_initial(mesh, sol, config.dt), save)
    assert [n for n, _, _, _ in kept] == [0, 2, 4, 6]
    for n, t, E_kept, J_kept in kept:
        meta, E, J = load_snapshot(str(tmp_path / f"snap{n}"))
        assert meta["step"] == n and meta["time"] == t
        assert meta["nx"] == mesh.nx and meta["ny"] == mesh.ny
        assert np.array_equal(E, E_kept)
        assert np.array_equal(J, J_kept)


def test_snapshot_sidecar_holds_exactly_its_keys(tmp_path):
    # the format readers rely on, "boundary" included: every mesh is PEC
    mesh = build_mesh(3, 2, 1.5, 1.0)
    z = np.zeros(mesh.n_edges)
    save_snapshot(str(tmp_path / "s"), mesh, 4, 0.25, z, z)
    meta = json.loads((tmp_path / "s.json").read_text())
    assert meta == {
        "nx": 3, "ny": 2, "Lx": 1.5, "Ly": 1.0, "boundary": "pec",
        "step": 4, "time": 0.25, "n_edges": 17, "dtype": "<f8",
        "order": "global edge index (horizontal edges first)",
        "fields": {"E": "s.E.bin", "J": "s.J.bin"}}


def test_snapshot_loads_from_another_cwd(tmp_path, monkeypatch):
    mesh = build_mesh(3, 2, 1.0, 1.0)
    E0 = np.arange(mesh.n_edges, dtype=float)
    (tmp_path / "run" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "run")
    save_snapshot("out/snap", mesh, 4, 0.25, E0, -E0)  # relative prefix
    monkeypatch.chdir(tmp_path)
    meta, E, J = load_snapshot(str(tmp_path / "run" / "out" / "snap"))
    assert meta["fields"] == {"E": "snap.E.bin", "J": "snap.J.bin"}
    assert np.array_equal(E, E0) and np.array_equal(J, -E0)


def test_snapshot_old_sidecar_with_absolute_paths(tmp_path):
    mesh = build_mesh(2, 2, 1.0, 1.0)
    E0, J0 = np.ones(mesh.n_edges), np.zeros(mesh.n_edges)
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, 0, 0.0, E0, J0)
    # an older sidecar, moved away from its binaries, names them absolutely
    meta = json.loads((tmp_path / "snap.json").read_text())
    meta["fields"] = {f: prefix + f".{f}.bin" for f in ("E", "J")}
    (tmp_path / "moved").mkdir()
    (tmp_path / "moved" / "snap.json").write_text(json.dumps(meta))
    _, E, J = load_snapshot(str(tmp_path / "moved" / "snap"))
    assert np.array_equal(E, E0) and np.array_equal(J, J0)


def test_save_snapshot_writes_without_an_edge_sized_copy(tmp_path):
    mesh = build_mesh(512, 512, 1.0, 1.0)  # 525 312 edges
    rng = np.random.default_rng(7)
    E0, J0 = rng.standard_normal((2, mesh.n_edges))
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, 3, 0.5, E0, J0)  # warm
    tracemalloc.start()
    try:
        save_snapshot(prefix, mesh, 3, 0.5, E0, J0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mesh.n_edges * 8 / 4
    # the bytes are the little-endian float64 values, in edge order
    for name, v in (("E", E0), ("J", J0)):
        assert (tmp_path / f"snap.{name}.bin").read_bytes() \
            == v.astype("<f8").tobytes()


def test_run_builds_no_face_edge_table():
    # the step's curl reads edge lines: only norms and oracles need it
    mesh = build_mesh(8, 6, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.25)
    run(config, *_exact_initial(mesh, sol, config.dt),
        lambda n, t, E, J: None)
    assert "face_edge_table" not in mesh.__dict__
