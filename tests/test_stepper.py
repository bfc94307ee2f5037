import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from etmfd import cli, operators, stepper
from etmfd.analysis import (e_time_factor, exact_E, j_time_factor,
                            make_exact_solution, mode_dofs,
                            run_standing_mode)
from etmfd.mesh import RectMesh, build_mesh, interpolate_edge_field
from etmfd.operators import params_for_scheme, row_blocks, yee_params
from etmfd.plasma import Medium, coupling_matrix, exp_operators
from etmfd.selftest import dense_step, increment_state, series_exp_oracle
from etmfd.stepper import (SimConfig, SimState, UnstableSimulationError,
                           _j_coefficients, initialize, load_snapshot,
                           nu_max, run, save_snapshot, step, step_operators)

from conftest import (assemble_W, assemble_curl_curl, edge_field, pec_ids,
                      wall_free_gradient)

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
    st, peak = initialize(make_config(mesh), *np.zeros((3, mesh.n_edges)))
    assert st.n == 1 and peak == 0.0
    for v in (st.E, st.W, st.V):
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
    config = make_config(mesh)
    v, _ = mode_dofs(config, sol)
    seen = []
    st, _ = initialize(config, v.copy(), v, np.zeros_like(v),
                       observe=lambda n, t, s: seen.append((n, t, s.E.copy(),
                                                            s.J(), s.E)))
    assert st.n == 1
    [(n, t, E0, J0, buffer)] = seen
    assert (n, t) == (0, 0.0) and np.abs(J0).max() == 0.0
    assert np.array_equal(st.E, E0)
    assert st.W is buffer and st.E is not buffer  # W^1 over E^0


def test_initialize_makes_the_hybrid_J1_bit_for_bit(rng):
    # from three independent vectors, which no profile times scalars
    # makes: V^1 = cJ J^0 + cE E^0, so J^1 = V^1 + cN E^1 takes the hybrid
    # J update's operations in its order, and W^1 the two-step E update's;
    # the state's buffers are the three arrays, PEC entries zeroed
    mesh = build_mesh(13, 11, 1.0, 1.0)
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    fields = E0_in, E1_in, J0_in = rng.standard_normal((3, mesh.n_edges))
    E0, E1, J0 = np.where(mesh.boundary_edge_mask, 0.0, fields)
    seen = []
    st, peak = initialize(config, E0_in, E1_in, J0_in,
                          lambda n, t, s: seen.append((s.E.copy(), s.J())))
    assert st.E is E1_in and st.V is J0_in and st.W is E0_in
    [(E0_seen, J0_seen)] = seen
    assert np.array_equal(E0_seen, E0) and np.array_equal(J0_seen, J0)
    cJ, cE, cN = _j_coefficients(ops)
    J1 = cJ * J0 + cE * E0 + cN * E1
    assert np.array_equal(st.E, E1) and np.array_equal(st.J(), J1)
    assert np.array_equal(st.V, cJ * J0 + cE * E0)
    assert peak == max(np.abs(E1).max(), np.abs(J1).max())
    W1 = (E1 * (1.0 + ops.alpha1) - E0 * ops.alpha1
          + (J1 - J0) * ops.alpha2) - E1
    assert np.array_equal(st.W, W1)


INITIAL = ("E0", "E1", "J0")


def _refused_before_step_0(config, args, match, monkeypatch):
    """run(config, *args) raises a ValueError matching `match` before it
    observes step 0, steps or writes to any of the arrays."""
    before = [np.array(a, copy=True) for a in args]
    steps, seen = [], []
    monkeypatch.setattr(stepper, "step", lambda *a: steps.append(a))
    with pytest.raises(ValueError, match=match):
        run(config, *args, lambda *a: seen.append(a))
    assert seen == [] and steps == []
    for a, b in zip(args, before):
        assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("bad", INITIAL)
def test_run_refuses_non_finite_initial_data_before_step_0(bad, monkeypatch):
    # a NaN, an inf or a -inf on one interior edge
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh)
    args = _exact_initial(config, sol)
    k = INITIAL.index(bad)
    args[k][np.flatnonzero(~mesh.boundary_edge_mask)[9]] = (
        np.nan, np.inf, -np.inf)[k]
    _refused_before_step_0(config, args, f"must be finite: {bad} ",
                           monkeypatch)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_initialize_rejects_a_wrong_length(which, monkeypatch):
    # one edge short, a column, a scalar: each in place of E0, E1 or J0
    mesh = build_mesh(4, 3, 1.0, 1.0)
    n = mesh.n_edges
    args = list(np.ones((3, n)))
    args[which] = [np.ones(n - 1), np.ones((n, 1)), np.float64(1.0)][which]
    shape = ["\\(%d,\\)" % (n - 1), "\\(%d, 1\\)" % n, "\\(\\)"][which]
    _refused_before_step_0(make_config(mesh), args,
                           f"{INITIAL[which]} has shape {shape}, "
                           f"want \\({n},\\)", monkeypatch)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)],
                         ids=["E0-E1", "E0-J0", "E1-J0"])
def test_run_refuses_arrays_that_share_memory(i, j, monkeypatch):
    # each array becomes a state buffer: two views one entry apart, or one
    # array passed three times, would be written over each other
    mesh = build_mesh(8, 8, 1.0, 1.0)
    n = mesh.n_edges
    args, shared = list(np.ones((3, n))), np.arange(n + 1.0)
    args[i], args[j] = shared[:-1], shared[1:]
    for case in (args, [args[j]] * 3):
        _refused_before_step_0(make_config(mesh), case, "may share memory",
                               monkeypatch)


def test_run_steps_in_the_callers_arrays():
    # float64 arrays are the state's buffers, not copies: E1 is the final
    # E, and E0 and J0 hold W and V
    mesh = build_mesh(8, 8, 1.0, 1.0)
    config = make_config(mesh, T=0.5)
    E0, E1, J0 = _exact_initial(config,
                                make_exact_solution(np.pi, np.pi, MEDIUM))
    final = run(config, E0, E1, J0)
    assert final.n == config.n_steps
    assert final.E is E1 and final.W is E0 and final.V is J0


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
        config = make_config(mesh, T=1.0)
        st, _ = initialize(config, *_exact_initial(config, sol))
        assert np.array_equal(snaps[1][1], st.E)
        assert np.array_equal(snaps[1][2], st.J())


def _kept(seen):
    """An observer that keeps (n, t, E, J) copies: run passes the live
    state, which the next step overwrites."""
    return lambda n, t, state: seen.append((n, t, state.E.copy(), state.J()))


STATE_FIELDS = ("E", "W", "V")


@pytest.mark.parametrize("n_steps", [1, 2, 12])
def test_observe_sees_every_step_once_in_order(n_steps):
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=(n_steps - 0.5) * dt)
    # the reference: initialize and step by hand, copying every step
    ref = []
    st, _ = initialize(config, *_exact_initial(config, sol),
                       observe=_kept(ref))
    ops = step_operators(config, st.E)
    ref.append((1, config.dt, st.E.copy(), st.J()))
    for _ in range(2, n_steps + 1):
        step(st, ops)
        ref.append((st.n, st.n * config.dt, st.E.copy(), st.J()))
    ref = [(E, J) for _, _, E, J in ref]
    seen = []
    final = run(config, *_exact_initial(config, sol), _kept(seen))
    assert [n for n, _, _, _ in seen] == list(range(n_steps + 1))
    assert [t for _, t, _, _ in seen] == [n * config.dt
                                          for n in range(n_steps + 1)]
    for (_, _, E, J), (E_ref, J_ref) in zip(seen, ref):
        assert np.array_equal(E, E_ref) and np.array_equal(J, J_ref)
    # observing changes nothing: the same final state bit for bit
    plain = run(config, *_exact_initial(config, sol))
    assert final.n == plain.n == n_steps
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(final, field), getattr(plain, field))


def test_step_zero_state():
    mesh = build_mesh(3, 3, 1.0, 1.0)
    config = make_config(mesh)
    st = SimState(*np.zeros((3, mesh.n_edges)), 0.03, 1)
    ops = step_operators(config, st.E)
    assert step(st, ops) == 0.0
    assert np.abs(st.E).max() == 0.0 and np.abs(st.J()).max() == 0.0
    assert st.n == 2


def test_step_uniform_mode_matches_scalar_recurrence(rng):
    # a gradient vanishing on the walls: the curl term vanishes, every
    # edge evolves by the scalar two-step recurrence
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    e_c, e_p, j_c, j_p = 0.8, 0.75, -0.2, -0.25
    g = wall_free_gradient(mesh, rng)
    new = increment_state((e_c * g, e_p * g, j_c * g, j_p * g), ops)
    step(new, step_operators(config, new.E))
    e_next = (1 + ops.alpha1) * e_c + ops.alpha2 * j_c - ops.alpha1 * e_p - ops.alpha2 * j_p
    j_next = ops.beta1 * j_c + ops.beta2 * e_c + ops.beta3 / ops.alpha3 * (
        e_next - ops.alpha1 * e_c - ops.alpha2 * j_c)
    scale = np.abs(g).max()
    assert np.abs(new.E - e_next * g).max() < 1e-14 * scale
    assert np.abs(new.J() - j_next * g).max() < 1e-14 * scale


def _exact_initial(config, sol):
    """[E0, E1, J0], the exact E at t = 0 and dt and J at t = 0: new
    arrays on each call, since a run steps in them."""
    v, j_ratio = mode_dofs(config, sol)
    return [np.multiply(v, f) for f in (
        e_time_factor(sol, 0.0), e_time_factor(sol, config.dt),
        j_time_factor(sol, 0.0) * j_ratio)]


def test_run_shorter_than_one_step():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh, T=1e-4)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    seen = []
    state = run(config, *_exact_initial(config, sol), _kept(seen))
    assert state.n == 1
    assert [(n, t) for n, t, _, _ in seen] == [(0, 0.0), (1, config.dt)]


def test_run_probe_traces_start_with_initial_data():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    probe = int(np.flatnonzero(~mesh.boundary_edge_mask)[7])
    config = make_config(mesh, T=0.5)
    seen = []
    run(config, *_exact_initial(config, sol),
        lambda n, t, state: seen.append((t, state.E[probe],
                                         state.J(probe))))
    first = []
    st1, _ = initialize(config, *_exact_initial(config, sol),
                        observe=_kept(first))
    assert seen[0][1:] == (first[0][2][probe], first[0][3][probe])
    assert seen[1][1:] == (st1.E[probe], st1.J(probe))
    assert len(seen) == config.n_steps + 1
    assert seen[-1][0] >= config.T


def test_pec_boundary_invariance_long_run():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    nu = 0.5
    T = 10_000 * nu * mesh.dx / MEDIUM.c0  # 10^4 steps
    config = make_config(mesh, nu=nu, T=T)
    state = run(config, *_exact_initial(config, sol))
    assert state.n == 10_000
    b = mesh.boundary_edge_mask
    assert np.abs(state.E[b]).max() == 0.0
    assert np.abs(state.J()[b]).max() == 0.0
    assert np.isfinite(state.E).all()


def test_instability_detected(monkeypatch):
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    # a Courant number past the limit, which SimConfig would refuse
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    config = make_config(mesh, nu=0.75, T=100.0)
    with pytest.raises(UnstableSimulationError):
        run(config, *_exact_initial(config, sol))


@pytest.mark.parametrize("n", [64, 256])  # one block of rows, and five
def test_step_matches_the_unfactored_pair(n, rng):
    # G @ (C @ E) and the in-place update against W @ (A @ E) written out
    mesh = build_mesh(n, n, 1.0, 1.0)
    config = make_config(mesh)
    ops = exp_operators(MEDIUM, config.dt)
    E, E_prev, J, J_prev = fields = rng.standard_normal((4, mesh.n_edges))
    st = increment_state(fields, ops)
    c2dt = MEDIUM.c0 ** 2 * config.dt
    E_ref = ((1.0 + ops.alpha1) * E + ops.alpha2 * J - ops.alpha1 * E_prev
             - ops.alpha2 * J_prev
             - c2dt * ops.alpha3 * (assemble_W(mesh, config.params)
                                    @ (assemble_curl_curl(mesh) @ E)))
    J_ref = (ops.beta1 * J + ops.beta2 * E + ops.beta3 / ops.alpha3
             * (E_ref - ops.alpha1 * E - ops.alpha2 * J))
    step(st, step_operators(config, st.E))
    assert np.abs(st.E - E_ref).max() <= 1e-15 * np.abs(E_ref).max()
    assert np.abs(st.J() - J_ref).max() <= 1e-15 * np.abs(J_ref).max()


def test_run_keeps_no_view_of_a_reused_buffer():
    # step updates the state in place: each observed step and the final
    # state must hold the values of their own step
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    dt = 0.5 * mesh.dx / MEDIUM.c0
    config = make_config(mesh, T=11.5 * dt)
    ops = exp_operators(MEDIUM, config.dt)
    first = []
    st, _ = initialize(config, *_exact_initial(config, sol), _kept(first))
    ref = [first[0][2:], (st.E, st.J())]
    for n in range(2, 13):
        (E, J), (E_prev, J_prev) = ref[-1], ref[-2]
        ref.append(dense_step((E, E_prev, J, J_prev), config, ops))

    seen = []
    final = run(config, *_exact_initial(config, sol), _kept(seen))
    assert config.n_steps == final.n == 12
    assert [n for n, _, _, _ in seen] == list(range(13))
    for (_, _, E, J), (E_ref, J_ref) in zip(seen, ref):
        assert np.abs(E - E_ref).max() < 1e-13
        assert np.abs(J - J_ref).max() < 1e-13
    want = increment_state((*ref[12][:1], ref[11][0], ref[12][1],
                            ref[11][1]), ops)
    for field in STATE_FIELDS:
        assert np.abs(getattr(final, field) - getattr(want, field)).max() \
            < 1e-13


@pytest.mark.parametrize("bound", [1e40, math.inf, math.nan])
def test_a_bound_past_the_limit_alone_does_not_stop_the_run(bound,
                                                           monkeypatch):
    # run takes the exact max when the bound is near the limit or not
    # finite: the run goes on, to the same final state
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.5)
    plain = run(config, *_exact_initial(config, sol))
    real = stepper.step
    monkeypatch.setattr(stepper, "step", lambda state, ops:
                        real(state, ops) * 0.0 + bound)
    final = run(config, *_exact_initial(config, sol))
    assert final.n == plain.n == config.n_steps
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(final, field), getattr(plain, field))


def test_nan_in_J_alone_stops_the_run_at_its_step(monkeypatch):
    # a NaN in V, J's share that E does not hold: step 5's E stays finite,
    # and its bound, a dot product over V, stops the run there
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    edge = int(np.flatnonzero(~mesh.boundary_edge_mask)[5])
    real = stepper.step
    last = []

    def poisoned(state, ops):
        if state.n == 4:
            state.V[edge] = np.nan
        last[:] = [state]
        return real(state, ops)

    monkeypatch.setattr(stepper, "step", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(config, sol))
    [state] = last
    assert state.n == 5 and np.isfinite(state.E).all()
    assert np.isnan(state.V[edge])


# ---- the row-blocked step ---------------------------------------------------

BLOCKED_MESHES = pec_ids([(13, 11), (8, 8)])


def _random_state(config, rng):
    return initialize(config, *rng.standard_normal((3, config.mesh.n_edges)))[0]


def _peak(state):
    """The exact max |E|, |J| of a state, NaN if either holds one."""
    return np.max([np.abs(state.E).max(), np.abs(state.J()).max()])


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
@pytest.mark.parametrize("nx, ny", BLOCKED_MESHES)
def test_blocked_step_is_bit_identical_to_one_block(nx, ny, scheme, block,
                                                    rng, monkeypatch):
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    config = make_config(mesh, scheme=scheme)
    st_one = _random_state(config, rng)
    st_many = dataclasses.replace(st_one, **{
        f: getattr(st_one, f).copy() for f in STATE_FIELDS})
    one = step_operators(config, st_one.E)
    assert len(one.K.blocks) == 1  # the whole mesh, both orientations
    monkeypatch.setattr(operators, "BLOCK", block)
    many = step_operators(config, st_many.E)
    assert len(many.K.blocks) == sum(
        len(row_blocks(*v.shape)) - 1
        for v in mesh.edge_lines(np.empty(mesh.n_edges))) >= 2
    for _ in range(20):
        # the bound sums its dot products by block, so only its rounding
        # may differ; the state may not
        bounds = step(st_one, one), step(st_many, many)
        assert min(bounds) >= _peak(st_one)
        assert bounds[0] == pytest.approx(bounds[1], rel=1e-12)
        for field in STATE_FIELDS:
            assert np.array_equal(getattr(st_one, field),
                                  getattr(st_many, field))


@pytest.mark.parametrize("nx, ny", BLOCKED_MESHES)
def test_blocked_step_returns_the_max_over_every_block(nx, ny, rng,
                                                       monkeypatch):
    # a bound at least the exact max, NaN or inf where a field holds one,
    # with a spike, a NaN or an inf on the last edge, in the last block
    monkeypatch.setattr(operators, "BLOCK", 7)
    mesh = build_mesh(nx, ny, 1.0, 1.3)
    config = make_config(mesh)
    cN = _j_coefficients(config.expops)[2]
    last = int(np.flatnonzero(~mesh.boundary_edge_mask)[-1])
    states = [_random_state(config, rng)]
    ops = step_operators(config, states[0].E)
    assert last >= ops.K.blocks[-1].rows.start  # in the last block
    for field, value in (("V", 1e3), ("V", -1e3), ("E", 1e3)):
        states.append(SimState(*np.zeros((3, mesh.n_edges)), cN, 1))
        getattr(states[-1], field)[last] = value
    for st in states:
        ops = step_operators(config, st.E)
        for _ in range(3):
            assert step(st, ops) >= _peak(st) > 0.0
    for field, value in itertools.product(("E", "V"), (np.nan, np.inf)):
        st = _random_state(config, rng)
        getattr(st, field)[last] = value
        with np.errstate(invalid="ignore"):  # inf - inf on the way
            assert not math.isfinite(step(st, step_operators(config, st.E)))
            assert not math.isfinite(_peak(st))


@pytest.mark.parametrize("field", ["E", "J"])
def test_nan_in_the_last_block_stops_the_run_at_its_step(field, monkeypatch):
    # J's NaN is put in V, which J alone reads
    monkeypatch.setattr(operators, "BLOCK", 64)
    mesh = build_mesh(8, 8, 1.0, 1.0)  # 144 edges, 4 blocks
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=1.0)
    real = stepper.step
    blocks = []

    def poisoned(state, ops):
        blocks[:] = [len(b.z) for b in ops.K.blocks]
        if state.n == 4:
            (state.E if field == "E" else state.V)[-1] = np.nan
        return real(state, ops)

    monkeypatch.setattr(stepper, "step", poisoned)
    with pytest.raises(UnstableSimulationError, match="at step 5 "):
        run(config, *_exact_initial(config, sol))
    # horizontal lines 4 + 5 of 8 edges, vertical lines 4 + 4 of 9
    assert blocks == [32, 40, 36, 36]


def test_step_allocates_no_edge_sized_array(rng):
    mesh = build_mesh(512, 512, 1.0, 1.0)  # 525 312 edges, 18 blocks
    config = make_config(mesh)
    st = _random_state(config, rng)
    ops = step_operators(config, st.E)
    assert len(ops.K.blocks) == 18
    step(st, ops)  # warm: first-call caches stay out of the count
    tracemalloc.start()
    try:
        step(st, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # z and the stencil's buffers are block-sized, C E lives in ops
    assert peak < mesh.n_faces * 8 / 2


def test_step_takes_the_curl_on_views_planned_once(rng, monkeypatch):
    # the curl's views of E are fixed with the operators: a step slices
    # no edge line, and steps the same as one that could
    monkeypatch.setattr(operators, "BLOCK", 64)  # several blocks a side
    mesh = build_mesh(13, 11, 1.0, 1.3)
    config = make_config(mesh)
    planned = _random_state(config, rng)
    ref = dataclasses.replace(planned, **{
        f: getattr(planned, f).copy() for f in STATE_FIELDS})
    ops = step_operators(config, planned.E)
    step(ref, step_operators(config, ref.E))

    def refused(self, v):
        raise AssertionError("edge_lines called in a step")

    monkeypatch.setattr(RectMesh, "edge_lines", refused)
    step(planned, ops)
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(planned, field), getattr(ref, field))


def test_step_refuses_a_state_whose_E_it_was_not_planned_on(rng):
    mesh = build_mesh(8, 8, 1.0, 1.0)
    config = make_config(mesh)
    planned = _random_state(config, rng)
    ops = step_operators(config, planned.E)
    other = dataclasses.replace(planned, **{
        f: getattr(planned, f).copy() for f in STATE_FIELDS})

    def written():  # both states and the operators' buffers, as bytes
        return [getattr(st, f).tobytes() for st in (planned, other)
                for f in STATE_FIELDS] + [ops.K.y.tobytes(), ops.D.tobytes()]

    before = written()
    with pytest.raises(ValueError, match="not the buffer"):
        step(other, ops)
    assert written() == before and planned.n == other.n == 1


def test_a_config_computes_its_exponentials_once(monkeypatch):
    # initialize and the step take them from the config, so a run cannot
    # be handed a second copy that disagrees with its dt
    mesh = build_mesh(8, 8, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.25)
    real, dts = stepper.exp_operators, []
    monkeypatch.setattr(stepper, "exp_operators", lambda medium, dt:
                        dts.append(dt) or real(medium, dt))
    first = run(config, *_exact_initial(config, sol))
    assert dts == [config.dt]
    again = run(config, *_exact_initial(config, sol))
    assert dts == [config.dt]
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(first, field), getattr(again, field))


# 32^2 PEC, kx = ky = pi: ETMFD at nu = 0.7, below nu_max = 0.7071, and
# both schemes at nu = 0.75, past it (nu_max lifted so SimConfig admits
# it).  The unstable mode grows from rounding noise, so the step past the
# bound moves with the order of the update's floating-point operations
@pytest.mark.parametrize("scheme, nu, n_fail", [
    pytest.param("etmfd", 0.7, None, id="0.7-None"),
    pytest.param("etmfd", 0.75, 126, id="etmfd-0.75-126"),
    pytest.param("et-yee", 0.75, 100, id="et-yee-0.75-100")])
def test_blowup_caught_at_first_step_past_the_bound(scheme, nu, n_fail,
                                                    monkeypatch):
    mesh = build_mesh(32, 32, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    monkeypatch.setattr(stepper, "nu_max", lambda gamma: math.inf)
    config = make_config(mesh, nu=nu, T=8.0, scheme=scheme)
    st1, _ = initialize(config, *_exact_initial(config, sol))
    bound = 1e12 * (1.0 + _peak(st1))
    real = stepper.step
    seen = []

    def checked(state, ops):
        m = real(state, ops)
        seen.append(_peak(state))
        assert m >= seen[-1]
        return m

    monkeypatch.setattr(stepper, "step", checked)
    if n_fail is None:
        final = run(config, *_exact_initial(config, sol))
        assert final.n == config.n_steps == 366
        assert max(seen) <= bound
    else:
        with pytest.raises(UnstableSimulationError, match=f"at step {n_fail} "):
            run(config, *_exact_initial(config, sol))
        assert len(seen) == n_fail - 1  # steps 2 .. n_fail
        assert max(seen[:-1]) <= bound < seen[-1]


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_rounding_drift_against_a_longdouble_oracle(scheme):
    # the four-field recurrence, E^{n+1} = (1 + a1) E^n - a1 E^{n-1}
    # + a2 (J^n - J^{n-1}) + scale W A E^n with the hybrid J update, in
    # np.longdouble from the same (E^0, E^1, J^0, J^1) and the same
    # float64 coefficients: only the step's rounding parts the two.
    # Relative L2 after 256 steps: 7.9e-15 (E) and 9.9e-14 (J) in
    # increment form; the four-buffer update drifted to 1.2e-13 and
    # 1.05e-12
    ld = np.longdouble
    medium = Medium(omega_i=1.0, omega_p=1.2)
    mesh = build_mesh(32, 32, 1.0, 1.0)
    config = SimConfig(mesh=mesh, medium=medium, scheme=scheme, nu=0.5,
                       T=4.0)
    sol = make_exact_solution(np.pi, np.pi, medium)
    first = []
    state = run(config, *_exact_initial(config, sol),
                lambda n, t, s: first.append(
                    (s.E.astype(ld), s.J().astype(ld))) if n < 2 else None)
    assert state.n == 256
    ops = exp_operators(medium, config.dt)
    a1, a2 = ld(ops.alpha1), ld(ops.alpha2)
    cJ, cE, cN = map(ld, _j_coefficients(ops))
    scale = ld(-(medium.c0 ** 2 * config.dt * ops.alpha3))
    W_ld = assemble_W(mesh, config.params).astype(ld)
    A_ld = assemble_curl_curl(mesh).astype(ld)
    (E0, J0), (E, J) = first
    for _ in range(2, state.n + 1):
        E_next = ((1 + a1) * E - a1 * E0 + a2 * (J - J0)
                  + scale * (W_ld @ (A_ld @ E)))
        E0, J0, E, J = E, J, E_next, cJ * J + cE * E + cN * E_next
    assert E.dtype == J.dtype == ld

    def drift(got, want):
        return float(np.sqrt(np.sum((got - want) ** 2) / np.sum(want ** 2)))

    assert drift(state.E, E) <= 3e-14
    assert drift(state.J(), J) <= 3e-13


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
        v, f = rng.standard_normal(mesh.n_edges), rng.standard_normal(3)
        inits = f[:, None] * v  # one random profile times three factors
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
    calls, seen = [], []
    monkeypatch.setattr(stepper, "step", lambda *args: calls.append(args))
    with pytest.raises(ZeroDivisionError, match="alpha3 vanished"):
        run(config, *_exact_initial(config, sol),
            lambda *args: seen.append(args))
    assert calls == [] and seen == []


def second_order_step(fields, W_op, A_op, ops, config):
    """Pure two-step update of both fields: the equivalence oracle."""
    E, E_prev, J, J_prev = fields
    c2dt = config.medium.c0 ** 2 * config.dt
    curl_term = W_op @ (A_op @ E)
    E_next = ((1.0 + ops.alpha1) * E + ops.alpha2 * J - ops.alpha1 * E_prev
              - ops.alpha2 * J_prev - c2dt * ops.alpha3 * curl_term)
    J_next = (ops.beta2 * E + (1.0 + ops.beta1) * J - ops.beta2 * E_prev
              - ops.beta1 * J_prev - c2dt * ops.beta3 * curl_term)
    return E_next, E, J_next, J


def test_hybrid_equivalent_to_second_order_form():
    # identical E trajectories from identical (E0, E1, J0, J1) when J1
    # comes from one hybrid J update
    mesh = build_mesh(4, 4, 1.0, 1.0)
    config = make_config(mesh, T=3.0)
    ops = exp_operators(MEDIUM, config.dt)
    W_op = assemble_W(mesh, config.params)
    A_op = assemble_curl_curl(mesh)

    kx = ky = 2 * np.pi  # standing data vanishing on the walls

    mode = interpolate_edge_field(mesh,
                                  lambda x, y: np.cos(kx * x) * np.sin(ky * y),
                                  lambda x, y: np.sin(kx * x) * np.cos(ky * y))
    first = []
    st_h, _ = initialize(config, mode * 1.0,
                         mode * math.cos(2.0 * config.dt), mode * 0.3,
                         _kept(first))
    step_ops = step_operators(config, st_h.E)
    fields = (st_h.E.copy(), first[0][2], st_h.J(), first[0][3])
    scale = np.abs(st_h.E).max()
    for _ in range(60):
        step(st_h, step_ops)
        fields = second_order_step(fields, W_op, A_op, ops, config)
        assert np.abs(st_h.E - fields[0]).max() < 1e-12 * scale


def test_snapshot_roundtrip(tmp_path):
    mesh = build_mesh(6, 5, 1.0, 1.0)
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    config = make_config(mesh, T=0.5)
    kept = []

    def save(n, t, state):  # written as it is taken, then read back at the end
        if n % 2 == 0:
            save_snapshot(str(tmp_path / f"snap{n}"), mesh, t, state)
            kept.append((n, t, state.E.copy(), state.J()))

    run(config, *_exact_initial(config, sol), save)
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
    save_snapshot(str(tmp_path / "s"), mesh, 0.25,
                  SimState(z, None, z, 0.0, 4))
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
    # a relative prefix
    save_snapshot("out/snap", mesh, 0.25, SimState(E0, None, -E0, 0.0, 4))
    monkeypatch.chdir(tmp_path)
    meta, E, J = load_snapshot(str(tmp_path / "run" / "out" / "snap"))
    assert meta["fields"] == {"E": "snap.E.bin", "J": "snap.J.bin"}
    assert np.array_equal(E, E0) and np.array_equal(J, -E0)


def test_snapshot_old_sidecar_with_absolute_paths(tmp_path):
    mesh = build_mesh(2, 2, 1.0, 1.0)
    E0, J0 = np.ones(mesh.n_edges), np.zeros(mesh.n_edges)
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, 0.0, SimState(E0, None, J0, 0.0, 0))
    # an older sidecar, moved away from its binaries, names them absolutely
    meta = json.loads((tmp_path / "snap.json").read_text())
    meta["fields"] = {f: prefix + f".{f}.bin" for f in ("E", "J")}
    (tmp_path / "moved").mkdir()
    (tmp_path / "moved" / "snap.json").write_text(json.dumps(meta))
    _, E, J = load_snapshot(str(tmp_path / "moved" / "snap"))
    assert np.array_equal(E, E0) and np.array_equal(J, J0)


def test_save_snapshot_writes_without_an_edge_sized_copy(tmp_path):
    # a live state, whose J = V + cN E is formed a BLOCK slice at a time
    # as it is written: a whole J would take 4.2 MB, four times the bound
    mesh = build_mesh(512, 512, 1.0, 1.0)  # 525 312 edges
    rng = np.random.default_rng(7)
    state = SimState(*rng.standard_normal((3, mesh.n_edges)), -0.3, 3)
    prefix = str(tmp_path / "snap")
    save_snapshot(prefix, mesh, 0.5, state)  # warm
    tracemalloc.start()
    try:
        save_snapshot(prefix, mesh, 0.5, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mesh.n_edges * 8 / 4
    assert json.loads((tmp_path / "snap.json").read_text())["step"] == 3
    # the bytes are the little-endian float64 values, in edge order
    for name, v in (("E", state.E), ("J", state.J())):
        assert (tmp_path / f"snap.{name}.bin").read_bytes() \
            == v.astype("<f8").tobytes()
