import numpy as np
import pytest

from etmfd import operators
from etmfd.mesh import RectMesh, build_mesh, interpolate_edge_field
from etmfd.operators import (MfdParams, SingularLocalWError,
                             assemble_step_operators, row_blocks,
                             local_M, local_W, local_curl, optimal_params,
                             params_for_scheme, yee_params)
from etmfd.selftest import dense_operators, optimal_local_W

from conftest import (apply_pec, assemble_W, assemble_curl,
                      assemble_curl_curl, assemble_local_blocks,
                      edge_field, interpolate_face_field, pec_ids,
                      wall_free_gradient)


def test_local_curl_unit_cell():
    assert np.allclose(local_curl(1.0, 1.0), [1.0, 1.0, -1.0, -1.0])


def test_local_curl_2x1():
    assert np.allclose(local_curl(2.0, 1.0), [1.0, 0.5, -1.0, -0.5])


def test_local_curl_kills_constants(rng):
    for _ in range(5):
        dx, dy = rng.uniform(0.1, 2.0, 2)
        a, b = rng.standard_normal(2)
        dof = np.array([a, b, a, b])  # constant field in [bottom,right,top,left]
        assert abs(local_curl(dx, dy) @ dof) < 1e-14


def test_yee_local_W_is_diagonal():
    for dx, dy in [(1.0, 1.0), (0.5, 2.0)]:
        W = local_W(yee_params(), dx, dy)
        assert np.allclose(W, np.eye(4) / (2.0 * dx * dy))


def test_local_W_substitution():
    W = local_W(MfdParams(0.3125, -1.0 / 48.0, 0.3125), 1.0, 1.0)
    assert abs(W[0, 0] - 0.5625) < 1e-15
    assert abs(W[0, 1] - (-(4.0 / 48.0) / 4.0)) < 1e-15


def test_local_W_symmetric(rng):
    for _ in range(10):
        p = MfdParams(*rng.uniform(-0.5, 0.5, 3))
        W = local_W(p, *rng.uniform(0.1, 2.0, 2))
        assert np.array_equal(W, W.T)


def test_local_W_affine_in_params(rng):
    # W(p + q) - W(0) == (W(p) - W(0)) + (W(q) - W(0))
    dx, dy = 0.7, 1.3
    p = rng.uniform(-0.3, 0.3, 3)
    q = rng.uniform(-0.3, 0.3, 3)
    W0 = local_W(MfdParams(0, 0, 0), dx, dy)
    lhs = local_W(MfdParams(*(p + q)), dx, dy) - W0
    rhs = (local_W(MfdParams(*p), dx, dy) - W0) + (local_W(MfdParams(*q), dx, dy) - W0)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_yee_params_roundtrip():
    p = yee_params()
    assert (p.w1, p.w2, p.w3) == (0.25, 0.0, 0.25)
    M = local_M(p, 0.5, 0.25)
    assert np.allclose(M, 2.0 * 0.5 * 0.25 * np.eye(4))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_optimal_params_rejects_non_finite_inputs(value):
    with pytest.raises(ValueError, match="Courant number must be finite"):
        optimal_params(value, 1.0)
    with pytest.raises(ValueError, match="aspect ratio must be finite"):
        optimal_params(0.5, value)


def test_optimal_params_values():
    p = optimal_params(0.5, 1.0)
    assert abs(p.w2 + 1.0 / 48.0) < 1e-16
    assert abs(p.w1 - 0.3125) < 1e-15 and abs(p.w3 - 0.3125) < 1e-15
    p0 = optimal_params(0.0, 1.0)
    assert np.allclose([p0.w1, p0.w2, p0.w3], [1 / 3, 0.0, 1 / 3])
    p4 = optimal_params(0.5, 4.0)
    assert abs(p4.w2 + 1.0 / 192.0) < 1e-16
    assert abs(p4.w1 - 0.33203125) < 1e-15
    assert abs(p4.w3 - 0.3125) < 1e-15


def test_optimal_local_W_at_zero_courant():
    W = optimal_local_W(0.0, 0.0, 1.0, 1.0)
    ref = np.array([[7, 0, -1, 0], [0, 7, 0, -1],
                    [-1, 0, 7, 0], [0, -1, 0, 7]]) / 12.0
    assert np.allclose(W, ref)


def test_optimal_local_W_substitution():
    W = optimal_local_W(0.5, 0.5, 1.0, 1.0)
    assert abs(W[0, 0] - 0.5625) < 1e-15
    assert abs(W[0, 1] + 0.25 / 12.0) < 1e-15


def test_local_M_inverse_contract():
    dx = dy = 1.0
    for p in (optimal_params(0.5, 1.0), MfdParams(0.5, 0.0, 0.5)):
        M = local_M(p, dx, dy)
        assert np.abs(M @ local_W(p, dx, dy) - np.eye(4)).max() < 1e-13


def test_local_M_block_analytic():
    # w1 = w3 = 1/2, w2 = 0: blocks [[3,-1],[-1,3]]/(4 dx dy) invert to
    # dx dy [[1.5, 0.5], [0.5, 1.5]]
    dx, dy = 0.8, 1.1
    M = local_M(MfdParams(0.5, 0.0, 0.5), dx, dy)
    s = dx * dy
    ref = s * np.array([[1.5, 0, 0.5, 0], [0, 1.5, 0, 0.5],
                        [0.5, 0, 1.5, 0], [0, 0.5, 0, 1.5]])
    assert np.abs(M - ref).max() < 1e-13


def test_local_M_singular_raises():
    # w1 = 0 makes the horizontal block [[1,1],[1,1]]
    with pytest.raises(SingularLocalWError):
        local_M(MfdParams(0.0, 0.0, 0.25), 1.0, 1.0)


# ---- assembled operators ------------------------------------------------------

def test_curl_curl_kills_gradients(rng):
    m = build_mesh(4, 5, 1.0, 1.3)
    grad = wall_free_gradient(m, rng)
    assert np.abs(grad).max() > 1.0
    assert np.abs(assemble_curl_curl(m) @ grad).max() < 1e-13


def test_curl_curl_1x1_pec_is_zero():
    m = build_mesh(1, 1, 1.0, 1.0)
    A = assemble_curl_curl(m)
    assert A.nnz == 0 or np.abs(A.toarray()).max() == 0.0


def test_curl_curl_symmetric_psd(rng):
    for nx, ny in [(3, 3), (8, 8), (5, 8)]:
        m = build_mesh(nx, ny, 1.0, 1.3)
        A = assemble_curl_curl(m).toarray()
        assert np.abs(A - A.T).max() < 1e-14
        for _ in range(100 // 6):
            x = rng.standard_normal(m.n_edges)
            assert x @ A @ x >= -1e-12 * (x @ x)


def test_assembly_matches_dense_oracle():
    m = build_mesh(3, 3, 1.0, 1.0)
    p = optimal_params(0.5, 1.0)
    Wd, Ad = dense_operators(m, p)
    assert np.abs(assemble_W(m, p).toarray() - Wd).max() == 0.0
    assert np.abs(assemble_curl_curl(m).toarray() - Ad).max() == 0.0


def test_assembly_matches_dense_oracle_pec():
    m = build_mesh(3, 4, 1.0, 2.0)
    p = yee_params()
    Wd, Ad = dense_operators(m, p)
    assert np.abs(assemble_W(m, p).toarray() - Wd).max() < 1e-15
    assert np.abs(assemble_curl_curl(m).toarray() - Ad).max() < 1e-15


def test_w2_zero_couples_only_parallel_edges():
    m = build_mesh(3, 3, 1.0, 1.0)
    W = assemble_W(m, MfdParams(0.4, 0.0, 0.2)).toarray()
    nh = m.n_hedges
    assert np.abs(W[:nh, nh:]).max() == 0.0
    assert np.abs(W[nh:, :nh]).max() == 0.0


def test_pec_rows_and_columns_zeroed():
    m = build_mesh(4, 4, 1.0, 1.0)
    for op in (assemble_W(m, optimal_params(0.5, 1.0)), assemble_curl_curl(m)):
        dense = op.toarray()
        b = m.boundary_edge_mask
        assert np.abs(dense[b, :]).max() == 0.0
        assert np.abs(dense[:, b]).max() == 0.0


def test_assemble_M_spd():
    # the global mass matrix of the COO oracle, which the norm sums per face
    m = build_mesh(4, 4, 1.0, 1.0)
    M = assemble_local_blocks(m, local_M(optimal_params(0.5, 1.0), m.dx,
                                         m.dy)).toarray()
    assert np.abs(M - M.T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > 0.0


def test_params_for_scheme():
    assert params_for_scheme("et-yee", 0.5, 1.0) == yee_params()
    assert params_for_scheme("etmfd", 0.5, 2.0) == optimal_params(0.5, 2.0)
    # one spelling per scheme, and a label is a string
    for label in ("leapfrog", "optimal", "yee", 5, None, ["etmfd"]):
        with pytest.raises(ValueError, match="unknown scheme"):
            params_for_scheme(label, 0.5, 1.0)


# ---- commuting diagram --------------------------------------------------------

def _commuting_defect(n, rule):
    m = build_mesh(n, n, 1.0, 1.0)
    curl_op = assemble_curl(m)

    def F(x, y):
        return np.sin(2 * np.pi * y), np.sin(2 * np.pi * x)

    def curlF(x, y):
        return 2 * np.pi * np.cos(2 * np.pi * x) - 2 * np.pi * np.cos(2 * np.pi * y)

    lhs = curl_op @ edge_field(m, F, rule)
    rhs = interpolate_face_field(m, curlF, rule)
    return np.abs(lhs - rhs).max()


def test_commuting_diagram_exact_for_linear():
    m = build_mesh(3, 3, 1.0, 1.0)
    curl_op = assemble_curl(m)
    lhs = curl_op @ interpolate_edge_field(m, lambda x, y: y,
                                           lambda x, y: 2 * x)
    rhs = interpolate_face_field(m, lambda x, y: 1.0 + 0 * x, "midpoint")
    assert np.abs(lhs - rhs).max() < 1e-13


def test_commuting_diagram_exact_quadrature():
    # 6-point Gauss makes both sides exact integrals to rounding
    assert _commuting_defect(8, 6) < 1e-10


def test_commuting_diagram_midpoint_second_order():
    d1 = _commuting_defect(8, "midpoint")
    d2 = _commuting_defect(16, "midpoint")
    d3 = _commuting_defect(32, "midpoint")
    assert 3.0 < d1 / d2 < 5.0
    assert 3.0 < d2 / d3 < 5.0


def torus_curl(mesh, E):
    """The curl on the nx x ny torus of E with its wall entries zeroed:
    the top and right wall lines are dropped, and the bottom and left
    ones, the torus's seam, stand for both walls.  A face sums its terms
    in a CSR row's order, [bottom, top, left, right]."""
    h, v = mesh.edge_lines(np.where(mesh.boundary_edge_mask, 0.0, E))
    h, v = h[:-1], v[:, :-1]
    cb, cr, ct, cl = local_curl(mesh.dx, mesh.dy)
    return (cb * h + ct * np.roll(h, -1, axis=0) + cl * v
            + cr * np.roll(v, -1, axis=1)).ravel()


@pytest.mark.parametrize("block", [None, 2])
@pytest.mark.parametrize("nx, ny, oracle", [
    pytest.param(nx, ny, oracle, id=f"{nx}-{ny}-{oracle}")
    for oracle in ("pec", "periodic")
    for nx, ny in [(1, 1), (1, 5), (5, 1), (1, 2), (2, 1), (2, 2), (3, 4),
                   (13, 11), (64, 64), (256, 256)]])
def test_curl_acts_as_the_pruned_oracle_curl(nx, ny, oracle, block, rng,
                                             monkeypatch):
    # random wall entries too: they must not reach a face.  BLOCK = 2
    # cuts blocks of one or two face lines.  Against the periodic oracle,
    # the stencil the Bloch symbol analysis takes: the curl is the torus
    # curl of the field off the walls, one-cell axes included
    if block:
        monkeypatch.setattr(operators, "BLOCK", block)
    m = build_mesh(nx, ny, 1.0, 1.3)
    C_ref = apply_pec(assemble_curl(m), m, rows=False)
    curl = assemble_step_operators(m, yee_params(), 1.0).curl
    assert len(curl.blocks) == len(row_blocks(ny, nx)) - 1
    for E in (rng.standard_normal(m.n_edges), rng.uniform(1, 2, m.n_edges)):
        # NaN-filled buffers: every face is written, whatever they held
        y = curl(E, np.full(m.n_faces, np.nan), np.full(m.n_faces, np.nan))
        # the oracle's sum in the CSR row's order, bit for bit
        ref = C_ref @ E if oracle == "pec" else torus_curl(m, E)
        assert np.array_equal(y, ref)


@pytest.mark.parametrize("n, sizes", [(1, [1]), (7, [7]), (8, [4, 4]),
                                      (15, [5, 5, 5]), (16, [5, 5, 6]),
                                      (23, [5, 6, 6, 6])])
def test_row_blocks_are_equal_and_at_most_BLOCK(n, sizes, monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 7)
    bounds = row_blocks(n, 1)
    assert bounds[0] == 0 and bounds[-1] == n
    assert np.diff(bounds).tolist() == sizes


# ---- the matrix-free curl-curl stencil vs the product-built oracle -----------

WEIGHTS = [None, (0.25, 0.0, 0.25), (0.4, 0.1, 0.2), (0.25, -0.3, 0.25)]


def weights(w, mesh):
    """MfdParams of a WEIGHTS entry; None is the optimal set at nu = 0.5."""
    return optimal_params(0.5, mesh.gamma) if w is None else MfdParams(*w)


def stencil_action(mesh, params, scale, E):
    """scale W A E from the `CurlCurl`, its blocks laid side by side, after
    checking that their rows tile the edge vector in order."""
    out, end = np.full(mesh.n_edges, np.nan), 0
    for rows, z in assemble_step_operators(mesh, params, scale)(E):
        assert rows.start == end and z.shape == (rows.stop - rows.start,)
        out[rows], end = z, rows.stop
    assert end == mesh.n_edges
    return out


def assert_acts_as_the_product_oracle(mesh, params, rng):
    # random wall entries too, which must reach no row
    scale = -0.3 * mesh.dx  # the step's -(c0^2 dt alpha3) is of this kind
    E = rng.standard_normal(mesh.n_edges)
    ref = scale * (assemble_W(mesh, params) @ (assemble_curl_curl(mesh) @ E))
    z = stencil_action(mesh, params, scale, E)
    assert np.abs(z - ref).max() <= 1e-14 * np.abs(ref).max()
    assert not z[mesh.boundary_edge_mask].any()  # wall rows: exactly 0


@pytest.mark.parametrize("shape", [(3, 4, 1.0, 2.0), (3, 3, 1.0, 1.0),
                                   (1, 1, 1.0, 1.0)])
def test_step_operators_factor_W_times_curl_curl(shape, rng):
    m = build_mesh(*shape)
    assert_acts_as_the_product_oracle(m, optimal_params(0.5, m.gamma), rng)


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 2), (2, 1), (1, 5),
                                            (5, 1), (3, 4), (7, 7), (8, 9),
                                            (13, 11), (64, 64), (256, 256)]))
def test_step_operators_match_the_product_oracle(nx, ny, rng):
    # Ly = 1.3: non-square cells; 256^2 spans several blocks a side
    m = build_mesh(nx, ny, 1.0, 1.3)
    for w in WEIGHTS:
        assert_acts_as_the_product_oracle(m, weights(w, m), rng)


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 5), (5, 1), (2, 2),
                                            (3, 4), (13, 11), (40, 24)]))
def test_step_operators_in_small_blocks_stack_to_one_block(
        nx, ny, block, rng, monkeypatch):
    # uneven blocks of one or a few lines, one-cell axes included: halo
    # lines are read across every block bound, and the result is the
    # one-block result bit for bit.  A mesh of at most BLOCK edges is one
    # block, else each orientation takes its `row_blocks`
    m = build_mesh(nx, ny, 1.0, 1.3)
    E = rng.standard_normal(m.n_edges)
    ones = []
    for w in WEIGHTS:
        assert len(assemble_step_operators(m, weights(w, m), 1.0).blocks) == 1
        ones.append(stencil_action(m, weights(w, m), -0.7, E))
    monkeypatch.setattr(operators, "BLOCK", block)
    K = assemble_step_operators(m, yee_params(), 1.0)
    sides = len(row_blocks(ny + 1, nx)) + len(row_blocks(ny, nx + 1)) - 2
    assert len(K.blocks) == (1 if m.n_edges <= block else sides)
    for w, one in zip(WEIGHTS, ones):
        assert np.array_equal(stencil_action(m, weights(w, m), -0.7, E), one)


@pytest.mark.parametrize("nx, ny", pec_ids([(2, 2), (4, 5), (13, 11),
                                            (256, 256)]))
def test_step_operators_kill_gradients(nx, ny, rng):
    # the production action, as test_curl_curl_kills_gradients checks the
    # COO oracle: C grad = 0 face by face, whatever the weights.  The
    # residual is rounding of terms of size |grad| / h^2 (measured at most
    # 3.9e-16 of that); a wrong sign in one curl term leaves O(1) of it
    m = build_mesh(nx, ny, 1.0, 1.3)
    grad = wall_free_gradient(m, rng)
    size = np.abs(grad).max() / min(m.dx, m.dy) ** 2
    for w in WEIGHTS:
        z = stencil_action(m, weights(w, m), -0.7, grad)
        assert np.abs(z).max() < 1e-14 * size


def held_arrays(obj, seen=None) -> dict:
    """The arrays that own the memory of every array an object reaches
    through its attributes, tuples and lists, by id."""
    seen = {} if seen is None else seen
    if isinstance(obj, np.ndarray):
        while obj.base is not None:
            obj = obj.base
        seen[id(obj)] = obj
    elif isinstance(obj, RectMesh):  # the mesh's, not the operator's
        pass
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            held_arrays(v, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        held_arrays(list(vars(obj).values()), seen)
    return seen


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_step_operators_hold_no_edge_sized_array(scheme):
    # 512^2: nine blocks a side.  Held: the face vector y and block-sized
    # buffers (the result, a scratch and each orientation's face
    # differences with their halo lines); no matrix, padded face copy or
    # edge vector
    m = build_mesh(512, 512, 1.0, 1.0)
    K = assemble_step_operators(m, params_for_scheme(scheme, 0.5, 1.0), 1.0)
    assert len(K.blocks) == 18
    arrays = held_arrays(K)
    sizes = sorted(a.size for a in arrays.values())
    assert sizes[-1] == m.n_faces and id(K.y) in arrays
    assert sum(sizes[:-1]) <= 4 * (operators.BLOCK + 2 * (m.nx + 1))
