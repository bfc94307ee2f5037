import numpy as np
import pytest
import scipy.sparse as sp

from etmfd import operators
from etmfd.mesh import build_mesh, interpolate_edge_field
from etmfd.operators import (Curl, MfdParams, SingularLocalWError,
                             assemble_step_operators, row_blocks,
                             local_M, local_W, local_curl, optimal_local_W,
                             optimal_params, params_for_scheme, yee_params)
from etmfd.selftest import (apply_pec, assemble_W, assemble_curl,
                            assemble_curl_curl, assemble_local_blocks,
                            dense_operators)

from conftest import interpolate_face_field


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


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
def test_optimal_W_equals_composed_path(nu, gamma):
    dx = 0.37
    dy = gamma * dx
    direct = optimal_local_W(nu, nu / gamma, dx, dy)
    composed = local_W(optimal_params(nu, gamma), dx, dy)
    assert np.abs(direct - composed).max() < 1e-14


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

def test_curl_curl_kills_constants_periodic():
    m = build_mesh(4, 4, 1.0, 1.0, "periodic")
    A = assemble_curl_curl(m)
    const = interpolate_edge_field(m, lambda x, y: (2.0 + 0 * x, -3.0 + 0 * y))
    assert np.abs(A @ const).max() < 1e-13


def test_curl_curl_1x1_pec_is_zero():
    m = build_mesh(1, 1, 1.0, 1.0, "pec")
    A = assemble_curl_curl(m)
    assert A.nnz == 0 or np.abs(A.toarray()).max() == 0.0


@pytest.mark.parametrize("boundary", ["pec", "periodic"])
def test_curl_curl_symmetric_psd(boundary, rng):
    for nx, ny in [(3, 3), (8, 8), (5, 8)]:
        m = build_mesh(nx, ny, 1.0, 1.3, boundary)
        A = assemble_curl_curl(m).toarray()
        assert np.abs(A - A.T).max() < 1e-14
        for _ in range(100 // 6):
            x = rng.standard_normal(m.n_edges)
            assert x @ A @ x >= -1e-12 * (x @ x)


def test_assembly_matches_dense_oracle():
    m = build_mesh(3, 3, 1.0, 1.0, "periodic")
    p = optimal_params(0.5, 1.0)
    Wd, Ad = dense_operators(m, p)
    assert np.abs(assemble_W(m, p).toarray() - Wd).max() == 0.0
    assert np.abs(assemble_curl_curl(m).toarray() - Ad).max() == 0.0


def test_assembly_matches_dense_oracle_pec():
    m = build_mesh(3, 4, 1.0, 2.0, "pec")
    p = yee_params()
    Wd, Ad = dense_operators(m, p)
    assert np.abs(assemble_W(m, p).toarray() - Wd).max() < 1e-15
    assert np.abs(assemble_curl_curl(m).toarray() - Ad).max() < 1e-15


def test_assembled_yee_diagonal_on_periodic():
    h = 0.5
    m = build_mesh(2, 2, 2 * h, 2 * h, "periodic")
    W = assemble_W(m, yee_params()).toarray()
    # every edge is shared by two faces, each contributing 1/(2 h^2)
    assert np.allclose(np.diag(W), 1.0 / h ** 2)
    assert np.abs(W - np.diag(np.diag(W))).max() == 0.0


def test_w2_zero_couples_only_parallel_edges():
    m = build_mesh(3, 3, 1.0, 1.0, "periodic")
    W = assemble_W(m, MfdParams(0.4, 0.0, 0.2)).toarray()
    nh = m.n_hedges
    assert np.abs(W[:nh, nh:]).max() == 0.0
    assert np.abs(W[nh:, :nh]).max() == 0.0


def test_pec_rows_and_columns_zeroed():
    m = build_mesh(4, 4, 1.0, 1.0, "pec")
    for op in (assemble_W(m, optimal_params(0.5, 1.0)), assemble_curl_curl(m)):
        dense = op.toarray()
        b = m.boundary_edge_mask
        assert np.abs(dense[b, :]).max() == 0.0
        assert np.abs(dense[:, b]).max() == 0.0


def test_assemble_M_spd():
    # the global mass matrix of the COO oracle, which the norm sums per face
    m = build_mesh(4, 4, 1.0, 1.0, "pec")
    M = assemble_local_blocks(m, local_M(optimal_params(0.5, 1.0), m.dx,
                                         m.dy)).toarray()
    assert np.abs(M - M.T).max() < 1e-14
    assert np.linalg.eigvalsh(M).min() > 0.0


def test_params_for_scheme():
    assert params_for_scheme("et-yee", 0.5, 1.0) == yee_params()
    assert params_for_scheme("etmfd", 0.5, 2.0) == optimal_params(0.5, 2.0)
    for label in ("leapfrog", "optimal", "yee"):  # one spelling per scheme
        with pytest.raises(ValueError, match="unknown scheme"):
            params_for_scheme(label, 0.5, 1.0)


# ---- commuting diagram --------------------------------------------------------

def _commuting_defect(n, rule):
    m = build_mesh(n, n, 1.0, 1.0, "pec")
    curl_op = assemble_curl(m)

    def F(x, y):
        return np.sin(2 * np.pi * y), np.sin(2 * np.pi * x)

    def curlF(x, y):
        return 2 * np.pi * np.cos(2 * np.pi * x) - 2 * np.pi * np.cos(2 * np.pi * y)

    lhs = curl_op @ interpolate_edge_field(m, F, rule)
    rhs = interpolate_face_field(m, curlF, rule)
    return np.abs(lhs - rhs).max()


def test_commuting_diagram_exact_for_linear():
    m = build_mesh(3, 3, 1.0, 1.0, "pec")
    curl_op = assemble_curl(m)
    lhs = curl_op @ interpolate_edge_field(m, lambda x, y: (y, 2 * x), "midpoint")
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


@pytest.mark.parametrize("shape", [(3, 4, 1.0, 2.0, "pec"),
                                   (3, 3, 1.0, 1.0, "periodic"),
                                   (1, 1, 1.0, 1.0, "periodic")])
def test_step_operators_factor_W_times_curl_curl(shape):
    m = build_mesh(*shape)
    p = optimal_params(0.5, m.gamma)
    G, C = stacked_step_operators(m, p), curl_matrix(m)
    ref = (assemble_W(m, p) @ assemble_curl_curl(m)).toarray()
    assert np.abs(G @ C - ref).max() <= 1e-14 * np.abs(ref).max()
    assert G.has_sorted_indices
    if m.boundary == "pec":  # PEC columns of C are zeroed
        assert np.abs(C[:, m.boundary_edge_mask]).max() == 0.0


def curl_matrix(mesh):
    """The dense matrix of the step's curl, column by column from its
    action on the unit edge vectors."""
    curl, y, s = Curl(mesh), np.empty(mesh.n_faces), np.empty(mesh.n_faces)
    return np.stack([curl(e, y, s).copy() for e in np.eye(mesh.n_edges)],
                    axis=1)


@pytest.mark.parametrize("block", [None, 2])
@pytest.mark.parametrize("boundary", ["pec", "periodic"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (1, 2), (2, 1),
                                    (2, 2), (3, 4), (13, 11), (64, 64),
                                    (256, 256)])
def test_curl_acts_as_the_pruned_oracle_curl(nx, ny, boundary, block, rng,
                                             monkeypatch):
    # random wall entries too: on PEC meshes they must not reach a face.
    # BLOCK = 2 cuts blocks of one or two face lines, the last one wrapped
    if block:
        monkeypatch.setattr(operators, "BLOCK", block)
    m = build_mesh(nx, ny, 1.0, 1.3, boundary)
    C_ref = apply_pec(assemble_curl(m), m, rows=False)
    curl = assemble_step_operators(m, yee_params(), 1.0).curl
    assert len(curl.blocks) == len(row_blocks(ny, nx)) - 1
    for E in (rng.standard_normal(m.n_edges), rng.uniform(1, 2, m.n_edges)):
        # NaN-filled buffers: every face is written, whatever they held
        y = curl(E, np.full(m.n_faces, np.nan), np.full(m.n_faces, np.nan))
        ref = C_ref @ E
        if boundary == "pec":  # the CSR row's sum in its order
            assert np.array_equal(y, ref)
        else:  # a wrap reorders a face's terms: rounding of their sizes
            scale = (abs(C_ref) @ np.abs(E)).max()
            assert np.abs(y - ref).max() <= 1e-15 * scale
            # off the wraps, bit for bit: a one-cell axis has none, since
            # CSR drops the pair of terms that cancel, and so does the curl
            j, i = np.divmod(np.arange(m.n_faces), nx)
            off = ((j < ny - 1) | (ny == 1)) & ((i < nx - 1) | (nx == 1))
            assert np.array_equal(y[off], ref[off])


# ---- stencil-built step operators vs the product-built oracle -----------------

def stacked_step_operators(mesh, params):
    """G with its DIA row blocks mapped back onto the face columns and
    stacked into one CSR matrix, after checking that the blocks hold whole
    edge lines at the bounds of `row_blocks`, each with sorted int32
    offsets and an owned float64 data array, and that no entry falls on
    the zero padding of a face layout."""
    G = assemble_step_operators(mesh, params, 1.0)
    rows = [n * b for lines, n in (v.shape for v in mesh.edge_lines(
        np.empty(mesh.n_edges))) for b in np.diff(row_blocks(lines, n))]
    assert [b.shape[0] for b in G.blocks] == rows
    parts = []
    for b, (padded, start) in zip(G.blocks, G.reads):
        assert isinstance(b, sp.dia_matrix)
        assert b.offsets.dtype == np.int32
        assert (np.diff(b.offsets) > 0).all()
        assert b.data.dtype == np.float64 and b.data.flags.c_contiguous
        assert b.data.base is None
        coo = b.tocoo()  # drops the zero fill
        col = coo.col + start
        if padded:  # layout entry -> face
            line, fi = np.divmod(col, G.layout.shape[1])
            assert (fi < mesh.nx).all()
            col = (line - G.before) % mesh.ny * mesh.nx + fi
        parts.append(sp.csr_matrix((coo.data, (coo.row, col)),
                                   shape=(b.shape[0], mesh.n_faces)))
    G = sp.vstack(parts, format="csr")
    G.sort_indices()
    return G


@pytest.mark.parametrize("n, sizes", [(1, [1]), (7, [7]), (8, [4, 4]),
                                      (15, [5, 5, 5]), (16, [5, 5, 6]),
                                      (23, [5, 6, 6, 6])])
def test_row_blocks_are_equal_and_at_most_BLOCK(n, sizes, monkeypatch):
    monkeypatch.setattr(operators, "BLOCK", 7)
    bounds = row_blocks(n, 1)
    assert bounds[0] == 0 and bounds[-1] == n
    assert np.diff(bounds).tolist() == sizes


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("boundary", ["pec", "periodic"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (3, 4), (13, 11)])
def test_step_operators_in_small_blocks_stack_to_one_block(
        nx, ny, boundary, block, monkeypatch):
    # several uneven blocks, wrapped and one-cell periodic rows included
    m = build_mesh(nx, ny, 1.0, 1.3, boundary)
    p = optimal_params(0.5, m.gamma)
    assert len(assemble_step_operators(m, p, 1.0).blocks) == 2  # one a side
    G1 = stacked_step_operators(m, p)
    monkeypatch.setattr(operators, "BLOCK", block)
    G = stacked_step_operators(m, p)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(G, attr), getattr(G1, attr))


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_step_operator_blocks_share_one_data_array_per_pattern(scheme):
    # 512^2 PEC: nine blocks a side, of which only the first and the last
    # touch a wall; the others are one pattern and must share its array
    m = build_mesh(512, 512, 1.0, 1.0, "pec")
    p = params_for_scheme(scheme, 0.5, 1.0)
    G = assemble_step_operators(m, p, 1.0)
    assert len(G.blocks) == 18
    distinct = {id(b.data): b.data for b in G.blocks}
    assert len(distinct) == 6
    for side in (G.blocks[1:8], G.blocks[10:17]):  # the inner blocks
        assert all(b.data is side[0].data for b in side)
    nbytes = sum(d.nbytes for d in distinct.values())
    nnz = stacked_step_operators(m, p).nnz
    assert nbytes < nnz * 12 / 4  # CSR: 8-byte value, 4-byte index


@pytest.mark.parametrize("scheme", ["etmfd", "et-yee"])
def test_scaled_step_operators_are_the_factor_times_the_unscaled(scheme):
    # the template takes the scale: each entry is one product, the bits
    # of scaling every block's data afterwards
    m = build_mesh(512, 512, 1.0, 1.0, "pec")
    p = params_for_scheme(scheme, 0.5, 1.0)
    factor = -0.3 * m.dx  # the step's -(c0^2 dt alpha3) is of this kind
    G1 = assemble_step_operators(m, p, 1.0)
    G = assemble_step_operators(m, p, factor)
    assert G.reads == G1.reads
    for b, b1 in zip(G.blocks, G1.blocks):
        assert np.array_equal(b.offsets, b1.offsets)
        # == is bitwise but for the sign of zero: the zero fill stays +0
        assert np.array_equal(b.data, factor * b1.data)
    for side in (G.blocks[1:8], G.blocks[10:17]):  # the inner blocks
        assert all(b.data is side[0].data for b in side)


@pytest.mark.parametrize("boundary", ["pec", "periodic"])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (3, 4), (7, 7),
                                    (8, 9), (13, 11), (64, 64), (256, 256)])
def test_step_operators_match_the_product_oracle(nx, ny, boundary):
    # 256^2 spans more than one block of rows: G's blocks are stacked
    m = build_mesh(nx, ny, 1.0, 1.3, boundary)
    C_ref = apply_pec(assemble_curl(m), m, rows=False)
    for p in (optimal_params(0.5, m.gamma), yee_params(),
              MfdParams(0.4, 0.1, 0.2)):
        G_ref = assemble_W(m, p) @ C_ref.T
        G_ref.data *= m.dx * m.dy
        G_ref.sort_indices()
        op, ref = stacked_step_operators(m, p), G_ref
        assert op.indices.dtype == op.indptr.dtype == np.int32
        assert op.has_sorted_indices
        assert np.array_equal(op.indptr, ref.indptr)
        assert np.array_equal(op.indices, ref.indices)
        if boundary == "pec":  # same sums in the same order
            assert np.array_equal(op.data, ref.data)
        elif ref.nnz:  # a wrap may reorder a face's edge terms
            scale = np.abs(ref.data).max()
            assert np.abs(op.data - ref.data).max() <= 1e-15 * scale
    if boundary == "pec" or min(nx, ny) > 1:
        # Yee's G keeps only the two faces of every interior edge
        G = stacked_step_operators(m, yee_params())
        assert (np.diff(G.indptr)[~m.boundary_edge_mask] == 2).all()
