import numpy as np
import pytest

from etmfd.mesh import build_mesh
from etmfd.selftest import face_edge_table

from conftest import (edge_average_oracle, edge_field, edge_midpoints,
                      gauss_edge_field, interpolate_face_field, pec_ids)


def test_smallest_mesh():
    m = build_mesh(1, 1, 1.0, 1.0)
    assert m.n_edges == 4
    assert m.n_faces == 1
    assert m.boundary_edge_mask.all()


def test_counting_2x3():
    m = build_mesh(2, 3, 1.0, 1.0)
    assert m.n_hedges == 8
    assert m.n_vedges == 9
    assert m.n_edges == 17
    assert m.n_faces == 6


def test_boundary_count_2x2():
    m = build_mesh(2, 2, 1.0, 1.0)
    assert m.boundary_edge_mask.sum() == 8
    assert (~m.boundary_edge_mask).sum() == 4


@pytest.mark.parametrize("nx", range(1, 17))
@pytest.mark.parametrize("ny", [1, 2, 5, 16])
def test_counting_formulas_exhaustive(nx, ny):
    m = build_mesh(nx, ny, 2.0, 3.0)
    assert m.n_hedges == nx * (ny + 1)
    assert m.n_vedges == (nx + 1) * ny
    assert m.n_faces == nx * ny


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 5), (5, 1), (3, 4),
                                             (16, 16)]))
def test_face_edge_shift_vectors(nx, ny):
    m = build_mesh(nx, ny, 1.5, 2.0)
    mids = edge_midpoints(m)
    # the views of the edge numbers, face by face, are the oracle's table
    views = m.face_edges(np.arange(m.n_edges))
    assert all(v.shape == (ny, nx) for v in views)
    table = np.stack(views, axis=-1).reshape(-1, 4)
    assert np.array_equal(table, face_edge_table(m))
    bottom, right, top, left = table.T
    # face (i, j) is the cell [i dx, (i + 1) dx] x [j dy, (j + 1) dy]
    j, i = np.divmod(np.arange(m.n_faces), nx)
    assert np.allclose(mids[bottom], np.stack([(i + 0.5) * m.dx, j * m.dy], 1))
    assert np.allclose(mids[left], np.stack([i * m.dx, (j + 0.5) * m.dy], 1))
    assert np.allclose(mids[top] - mids[bottom] - [0.0, m.dy], 0.0)
    assert np.allclose(mids[left] - mids[right] + [m.dx, 0.0], 0.0)
    # orientation of the four slots
    assert (bottom < m.n_hedges).all() and (top < m.n_hedges).all()
    assert (right >= m.n_hedges).all() and (left >= m.n_hedges).all()
    # an edge is a boundary edge exactly when its midpoint is on the
    # domain boundary
    x, y = mids.T
    on_boundary = (np.isclose(x, 0.0) | np.isclose(x, m.Lx)
                   | np.isclose(y, 0.0) | np.isclose(y, m.Ly))
    assert (m.boundary_edge_mask == on_boundary).all()
    # every edge borders two faces, a boundary edge only one
    uses = np.bincount(table.ravel(), minlength=m.n_edges)
    assert (uses == np.where(m.boundary_edge_mask, 1, 2)).all()


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 5), (5, 1), (3, 4),
                                             (16, 16)]))
def test_edge_midpoint_inverts_the_index_maps(nx, ny):
    # the index maps: the edge lines of the edge numbers, edge (i, j)
    # at entry [j, i]
    m = build_mesh(nx, ny, 1.5, 2.0)
    eh, ev = m.edge_lines(np.arange(m.n_edges))
    j, i = np.indices(eh.shape)
    x, y = m.edge_midpoint(eh)
    assert np.array_equal(x, (i + 0.5) * m.dx)
    assert np.array_equal(y, j * m.dy)
    j, i = np.indices(ev.shape)
    x, y = m.edge_midpoint(ev)
    assert np.array_equal(x, i * m.dx)
    assert np.array_equal(y, (j + 0.5) * m.dy)
    # a plain int gives the same point as its entry in an array
    e = m.n_edges - 1
    assert m.edge_midpoint(e) == (x[-1, -1], y[-1, -1])


def test_gamma_and_sizes():
    m = build_mesh(4, 8, 1.0, 4.0)
    assert m.dx == 0.25
    assert m.dy == 0.5
    assert m.gamma == m.dy / m.dx == 2.0


@pytest.mark.parametrize("bad", [(0, 1, 1.0, 1.0), (1, -2, 1.0, 1.0),
                                 (1, 1, 0.0, 1.0), (1, 1, 1.0, -3.0),
                                 (1, 1, np.inf, 1.0), (1, 1, 1.0, -np.inf),
                                 (1, 1, np.nan, 1.0), (1, 1, 1.0, np.nan)])
def test_rejects_bad_dimensions(bad):
    with pytest.raises(ValueError):
        build_mesh(*bad)


# ---- interpolation ----------------------------------------------------------

@pytest.mark.parametrize("rule", ["midpoint", 2, 4])
def test_constant_field(rule):
    m = build_mesh(3, 2, 1.0, 1.0)
    dof = edge_field(m, lambda x, y: (1.0 + 0 * x, 0 * y), rule)
    assert np.allclose(dof[:m.n_hedges], 1.0)
    assert np.allclose(dof[m.n_hedges:], 0.0)


@pytest.mark.parametrize("rule", ["midpoint", 2])
def test_linear_field_on_axis_edge(rule):
    # F = (y, 0): zero on every horizontal edge lying on y=0
    m = build_mesh(4, 4, 1.0, 1.0)
    dof = edge_field(m, lambda x, y: (y, 0 * x), rule)
    bottom = m.face_edges(dof)[0]
    assert (bottom[0] == 0.0).all()  # face row 0's bottoms, on y = 0


def test_edge_gauss4_matches_analytic_integral():
    # standing-mode profile at t=0, kx = ky = pi, h = 1/8
    m = build_mesh(8, 8, 1.0, 1.0)
    kx = ky = np.pi

    def F(x, y):
        return (-ky * np.cos(kx * x) * np.sin(ky * y),
                kx * np.sin(kx * x) * np.cos(ky * y))

    dof = gauss_edge_field(m, F, 4)
    ref = edge_average_oracle(m, kx, ky)
    assert np.abs(dof - ref).max() < 1e-12


def test_interpolation_linearity(rng):
    m = build_mesh(5, 3, 1.0, 1.0)
    a, b = 1.7, -0.4

    def F(x, y):
        return (np.sin(x) + y, x * y)

    def G(x, y):
        return (x ** 2, np.cos(y))

    def combo(x, y):
        fx, fy = F(x, y)
        gx, gy = G(x, y)
        return a * fx + b * gx, a * fy + b * gy

    for rule in ("midpoint", 3):
        lhs = edge_field(m, combo, rule)
        rhs = a * edge_field(m, F, rule) + b * edge_field(m, G, rule)
        assert np.abs(lhs - rhs).max() < 1e-14 * max(1.0, np.abs(rhs).max())


def _midpoint_table_interpolation(m, F, rule):
    # per-edge reference: both components at every edge's quadrature nodes
    mids, nh = edge_midpoints(m), m.n_hedges
    out = np.zeros(m.n_edges)
    n = 1 if rule == "midpoint" else rule
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for xi, wi in zip(nodes, weights / 2.0):
        fx, _ = F(mids[:nh, 0] + 0.5 * m.dx * xi, mids[:nh, 1])
        _, fy = F(mids[nh:, 0], mids[nh:, 1] + 0.5 * m.dy * xi)
        out[:nh] += wi * fx
        out[nh:] += wi * fy
    return out


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 3), (4, 1), (5, 3),
                                             (16, 16)]))
def test_interpolation_evaluates_on_edge_lines(nx, ny):
    m = build_mesh(nx, ny, 1.0, 0.8)
    sizes = []

    def F(x, y):
        sizes.extend([np.size(x), np.size(y)])
        return (-2 * np.cos(np.pi * x) * np.sin(2 * np.pi * y) + 0.3 * y,
                np.sin(np.pi * x) * np.cos(2 * np.pi * y) - x)

    for rule in ("midpoint", 1, 4):  # the 1-point oracle is the midpoint rule
        sizes.clear()
        dof = edge_field(m, F, rule)
        assert max(sizes) <= max(nx, ny) + 1  # lines, not edges
        assert np.array_equal(dof, _midpoint_table_interpolation(m, F, rule))


def test_face_constant():
    m = build_mesh(2, 2, 1.0, 1.0)
    assert np.allclose(interpolate_face_field(m, lambda x, y: 1.0 + 0 * x, 2), 1.0)
    assert np.allclose(interpolate_face_field(m, lambda x, y: 1.0 + 0 * x,
                                              "midpoint"), 1.0)


def test_face_linear_exact():
    h = 0.5
    m = build_mesh(2, 2, 2 * h, 2 * h)
    dof = interpolate_face_field(m, lambda x, y: x, 2)
    assert abs(dof[0] - h / 2) < 1e-15


def test_face_trig_average():
    # cell [0, 1/4]^2 of sin(pi x) sin(pi y); closed-form double integral
    m = build_mesh(4, 4, 1.0, 1.0)
    dof = interpolate_face_field(m, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), 6)
    exact = 16.0 * ((1.0 - np.cos(np.pi / 4)) / np.pi) ** 2
    assert abs(dof[0] - exact) < 1e-12


@pytest.mark.parametrize("nx, ny", pec_ids([(1, 1), (1, 5), (5, 1), (3, 4)]))
def test_edge_lines_are_views_in_grid_order(nx, ny):
    m = build_mesh(nx, ny, 1.5, 2.0)
    v = np.arange(m.n_edges, dtype=float)
    vh, vv = m.edge_lines(v)
    assert vh.shape == (ny + 1, nx) and vv.shape == (ny, nx + 1)
    assert np.shares_memory(vh, v) and np.shares_memory(vv, v)
    # in the oracle's numbering: the horizontal lines are the faces'
    # bottoms and the last row's tops, the vertical ones their lefts and
    # the last column's rights
    bottom, right, top, left = face_edge_table(m).T.reshape(4, ny, nx)
    assert np.array_equal(vh, np.vstack([bottom, top[-1:]]))
    assert np.array_equal(vv, np.hstack([left, right[:, -1:]]))
