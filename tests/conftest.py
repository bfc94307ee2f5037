"""Shared independent oracles for the test suite.

The oracles the acceptance suite and `etmfd selftest` share (dense
assembly, series and quadrature exponentials) live in `etmfd.selftest`.
These recompute the rest through routes the production code does not
take: COO assembly (of W and the curl-curl, whose product the
matrix-free step operators must apply, and of the global mass matrix,
which the face-by-face error norm must match), Bloch phase fields, Gauss-Legendre edge and face
averages and analytic antiderivatives for the commuting-diagram and
exactness tests, the probe rule scored on every edge, and the leapfrog
dispersion residual in a conductor.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from etmfd.mesh import interpolate_edge_field
from etmfd.operators import local_curl, local_W


def pec_ids(shapes):
    """Mesh shapes (nx, ny, ...) as parameters whose ids end in "-pec",
    the boundary every mesh has, so a case's id names its whole mesh."""
    return [pytest.param(*s, id="-".join(map(str, s)) + "-pec")
            for s in shapes]


def edge_midpoints(mesh):
    """(n_edges, 2) table of every edge's midpoint."""
    return np.stack(mesh.edge_midpoint(np.arange(mesh.n_edges)), axis=1)


def pick_probe_reference(mesh, mode):
    """The probe rule scored on every edge: largest |mode| off the
    boundary, less 1e-9 times the distance to the center over max(Lx, Ly)."""
    mids = edge_midpoints(mesh)
    dist = np.hypot(mids[:, 0] - mesh.Lx / 2.0, mids[:, 1] - mesh.Ly / 2.0)
    score = np.abs(mode) - 1e-9 * dist / max(mesh.Lx, mesh.Ly)
    score[mesh.boundary_edge_mask] = -np.inf
    return int(np.argmax(score))


def apply_pec(op, mesh, rows=True):
    """op with the stored entries of PEC columns (and rows) dropped."""
    b = mesh.boundary_edge_mask
    drop = b[op.indices]
    if rows:
        drop |= np.repeat(b, np.diff(op.indptr))
    op.data[drop] = 0.0
    op.eliminate_zeros()
    return op


def assemble_local_blocks(mesh, block):
    """Global operator through COO, every face adding the same 4x4 block."""
    fe = mesh.face_edge_table
    rows = np.repeat(fe, 4, axis=1).ravel()
    cols = np.tile(fe, (1, 4)).ravel()
    vals = np.tile(block.ravel(), mesh.n_faces)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(mesh.n_edges, mesh.n_edges)).tocsr()


def assemble_curl(mesh):
    """Global curl, edge DoF -> face DoF, through COO."""
    vals = np.tile(local_curl(mesh.dx, mesh.dy), mesh.n_faces)
    rows = np.repeat(np.arange(mesh.n_faces), 4)
    return sp.coo_matrix((vals, (rows, mesh.face_edge_table.ravel())),
                         shape=(mesh.n_faces, mesh.n_edges)).tocsr()


def assemble_curl_curl(mesh):
    """curl^T diag(|f|) curl from local blocks, PEC rows/columns dropped."""
    c = local_curl(mesh.dx, mesh.dy)
    block = np.outer(c, c) * (mesh.dx * mesh.dy)
    return apply_pec(assemble_local_blocks(mesh, block), mesh)


def assemble_W(mesh, params):
    """Global W from local blocks, PEC rows/columns dropped.  With
    `assemble_curl_curl` it gives the step operators' oracle, the
    product W A that `operators.assemble_step_operators` applies."""
    block = local_W(params, mesh.dx, mesh.dy)
    return apply_pec(assemble_local_blocks(mesh, block), mesh)


def wall_free_gradient(mesh, rng):
    """The discrete gradient of random nodal values that vanish on the
    walls: zero on every wall edge, and its curl is zero on every face."""
    phi = np.zeros((mesh.ny + 1, mesh.nx + 1))
    phi[1:-1, 1:-1] = rng.standard_normal((mesh.ny - 1, mesh.nx - 1))
    out = np.empty(mesh.n_edges)
    out_h, out_v = mesh.edge_lines(out)
    out_h[...] = np.diff(phi, axis=1) / mesh.dx
    out_v[...] = np.diff(phi, axis=0) / mesh.dy
    return out


def face_centers(mesh):
    """(n_faces,) x and y of the face centers, face index j*nx + i."""
    j, i = np.divmod(np.arange(mesh.n_faces), mesh.nx)
    return (i + 0.5) * mesh.dx, (j + 0.5) * mesh.dy


def gauss_edge_field(mesh, F, n):
    """Edge DoF of a vector field F: its average tangential component per
    edge by n-point Gauss-Legendre, F evaluated on the edge lines as
    `interpolate_edge_field` does; n = 1 is its midpoint rule."""
    out = np.zeros(mesh.n_edges)
    out_h, out_v = mesh.edge_lines(out)
    x_lines = np.arange(out_v.shape[1]) * mesh.dx  # a row
    y_lines = np.arange(out_h.shape[0])[:, None] * mesh.dy  # a column
    x_mids = (np.arange(mesh.nx) + 0.5) * mesh.dx
    y_mids = (np.arange(mesh.ny)[:, None] + 0.5) * mesh.dy
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for xi, wi in zip(nodes, weights / 2.0):  # weights summing to 1
        fx, _ = F(x_mids + 0.5 * mesh.dx * xi, y_lines)
        _, fy = F(x_lines, y_mids + 0.5 * mesh.dy * xi)
        out_h += wi * fx
        out_v += wi * fy
    return out


def edge_field(mesh, F, rule):
    """Edge DoF of F, (x, y) -> (fx, fy): rule="midpoint" is the production
    midpoint rule, an integer n the n-point Gauss oracle."""
    if rule == "midpoint":
        return interpolate_edge_field(mesh, lambda x, y: F(x, y)[0],
                                      lambda x, y: F(x, y)[1])
    return gauss_edge_field(mesh, F, rule)


def interpolate_face_field(mesh, g, rule=2):
    """Face DoF of a scalar field g: cell average per face.

    rule="midpoint" samples the cell center; an integer n uses a tensor
    n x n Gauss-Legendre average.
    """
    cx, cy = face_centers(mesh)
    if rule == "midpoint":
        return np.asarray(g(cx, cy), dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(int(rule))
    out = np.zeros(mesh.n_faces)
    for xi, wi in zip(nodes, weights):
        for yi, wj in zip(nodes, weights):
            out += 0.25 * wi * wj * g(cx + 0.5 * mesh.dx * xi,
                                      cy + 0.5 * mesh.dy * yi)
    return out


def bloch_edge_field(mesh, kx, ky, U1, U2):
    """Complex Bloch DoF field: two reference amplitudes plus phase shifts.

    Reference edges are the bottom and right edges of face (0, 0); the
    wave numbers are any reals.  An assembled operator's row whose faces
    touch no wall edge acts on it as the Bloch reduction predicts.
    """
    mids = edge_midpoints(mesh)
    m1 = mids[mesh.hedge_index(0, 0)]
    m2 = mids[mesh.vedge_index(1, 0)]
    out = np.empty(mesh.n_edges, dtype=complex)
    nh = mesh.n_hedges
    out[:nh] = U1 * np.exp(1j * (kx * (mids[:nh, 0] - m1[0])
                                 + ky * (mids[:nh, 1] - m1[1])))
    out[nh:] = U2 * np.exp(1j * (kx * (mids[nh:, 0] - m2[0])
                                 + ky * (mids[nh:, 1] - m2[1])))
    return out


def edge_average_oracle(mesh, kx, ky):
    """Exact edge averages of the standing-mode profile via antiderivatives.

    Profile: (-ky cos(kx x) sin(ky y), kx sin(kx x) cos(ky y)).
    """
    out = np.empty(mesh.n_edges)
    mids = edge_midpoints(mesh)
    nh = mesh.n_hedges
    for e in range(nh):
        x0 = mids[e, 0] - 0.5 * mesh.dx
        x1 = mids[e, 0] + 0.5 * mesh.dx
        y = mids[e, 1]
        # (1/dx) int -ky cos(kx x) sin(ky y) dx
        out[e] = -ky * np.sin(ky * y) * (np.sin(kx * x1) - np.sin(kx * x0)) / (kx * mesh.dx)
    for e in range(nh, mesh.n_edges):
        x = mids[e, 0]
        y0 = mids[e, 1] - 0.5 * mesh.dy
        y1 = mids[e, 1] + 0.5 * mesh.dy
        out[e] = kx * np.sin(kx * x) * (np.sin(ky * y1) - np.sin(ky * y0)) / (ky * mesh.dy)
    return out


def conductive_leapfrog_residual(omega, tau, nu, gamma, w2, c0):
    """h^2 coefficient of the leapfrog dispersion residual in a conductor,
    (nu^2 w^2 (w^2 + 2i w/tau) - 12 gamma w2 (w^2 + i w/tau)^2) / (12 c0^2),
    which `leapfrog_zeroing_w2` zeroes."""
    a = omega * omega + 2j * omega / tau
    b = omega * omega + 1j * omega / tau
    return (nu * nu * omega * omega * a - 12.0 * gamma * w2 * b * b) / (12.0 * c0 * c0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250808)
