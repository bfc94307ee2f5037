"""Shared independent oracles for the test suite.

The oracles the acceptance suite and `etmfd selftest` share (dense
assembly, series and quadrature exponentials) live in `etmfd.selftest`.
These recompute the rest through routes the production code does not
take: Bloch phase fields, analytic antiderivatives for edge integrals,
face averages for the commuting-diagram tests, and the probe rule scored
on every edge.
"""

import numpy as np
import pytest


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


def face_centers(mesh):
    """(n_faces,) x and y of the face centers, face index j*nx + i."""
    j, i = np.divmod(np.arange(mesh.n_faces), mesh.nx)
    return (i + 0.5) * mesh.dx, (j + 0.5) * mesh.dy


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
    wave numbers must be periodic-compatible (kx*Lx, ky*Ly in 2*pi*Z).
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250808)
