"""Local and global mimetic operators on rectangular meshes.

The family is parameterized by three dimensionless weights (w1, w2, w3)
entering the local approximate inverse mass matrix W.  Yee staggering is
the member (1/4, 0, 1/4); the dispersion-optimal member ties the weights
to the Courant number and cell aspect ratio.  Global operators are
assembled additively from one identical local block per face; boundary
edge rows/columns are zeroed in PEC mode so constrained DoF stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import RectMesh


class SingularLocalWError(ValueError):
    """Local W is numerically singular, so no local mass matrix exists."""


@dataclass(frozen=True)
class MfdParams:
    w1: float
    w2: float
    w3: float


def yee_params() -> MfdParams:
    """Weights reproducing the Yee staggered-grid stencil."""
    return MfdParams(0.25, 0.0, 0.25)


def optimal_params(nu: float, gamma: float) -> MfdParams:
    """Dispersion-optimal weights for Courant number nu and aspect ratio gamma.

    w2 = -nu^2/(12*gamma) cancels the second-order dispersion term once
    w1, w3 are chosen to remove the propagation-angle dependence:
    w1 = w2/gamma + 1/3, w3 = w2*gamma + 1/3.
    """
    if nu < 0:
        raise ValueError(f"Courant number must be >= 0, got {nu}")
    if gamma <= 0:
        raise ValueError(f"aspect ratio must be > 0, got {gamma}")
    w2 = -nu * nu / (12.0 * gamma) + 0.0  # avoid negative zero at nu = 0
    w1 = (3.0 * w2 / gamma + 1.0) / 3.0
    w3 = (3.0 * w2 * gamma + 1.0) / 3.0
    return MfdParams(w1, w2, w3)


def local_curl(dx: float, dy: float) -> np.ndarray:
    """Local discrete curl: edge circulation / area, [bottom,right,top,left]."""
    if dx <= 0 or dy <= 0:
        raise ValueError("cell sizes must be positive")
    return np.array([dx, dy, -dx, -dy]) / (dx * dy)


def local_W(params: MfdParams, dx: float, dy: float) -> np.ndarray:
    """Local approximate inverse mass matrix, 4x4 symmetric."""
    if dx <= 0 or dy <= 0:
        raise ValueError("cell sizes must be positive")
    w1, w2, w3 = params.w1, params.w2, params.w3
    a1, b1 = 1.0 + 4.0 * w1, 1.0 - 4.0 * w1
    a3, b3 = 1.0 + 4.0 * w3, 1.0 - 4.0 * w3
    c = 4.0 * w2
    W = np.array([
        [a1, c, b1, -c],
        [c, a3, -c, b3],
        [b1, -c, a1, c],
        [-c, b3, c, a3],
    ])
    return W / (4.0 * dx * dy)


def optimal_local_W(nu_x: float, nu_y: float, dx: float, dy: float) -> np.ndarray:
    """The dispersion-optimal local W written directly in Courant numbers."""
    p, q = nu_x * nu_y, nu_x * nu_x
    r = nu_y * nu_y
    W = np.array([
        [7.0 - r, -p, r - 1.0, p],
        [-p, 7.0 - q, p, q - 1.0],
        [r - 1.0, p, 7.0 - r, -p],
        [p, q - 1.0, -p, 7.0 - q],
    ])
    return W / (12.0 * dx * dy)


def local_M(params: MfdParams, dx: float, dy: float) -> np.ndarray:
    """Local mass matrix: the exact inverse of local_W (norms only)."""
    W = local_W(params, dx, dy)
    scale = np.abs(W).max()
    sig = np.linalg.svd(W, compute_uv=False)
    if sig[-1] < 1e-12 * scale:
        raise SingularLocalWError(
            f"local W is singular for params {params} (min singular value "
            f"{sig[-1]:.3e} vs scale {scale:.3e})")
    return np.linalg.inv(W)


def _assemble_local_blocks(mesh: RectMesh, block: np.ndarray) -> sp.csr_matrix:
    # mesh is uniform: every face carries the same 4x4 block
    fe = mesh.face_edge_table
    rows = np.repeat(fe, 4, axis=1).ravel()
    cols = np.tile(fe, (1, 4)).ravel()
    vals = np.tile(block.ravel(), mesh.n_faces)
    op = sp.coo_matrix((vals, (rows, cols)),
                       shape=(mesh.n_edges, mesh.n_edges))
    return op.tocsr()


def _apply_pec(op: sp.csr_matrix, mesh: RectMesh, rows=True) -> sp.csr_matrix:
    # zero the stored entries of boundary-edge columns (and rows), then
    # drop every stored zero; the copies release the unpruned buffers
    b = mesh.boundary_edge_mask
    drop = b[op.indices]
    if rows:
        drop |= np.repeat(b, np.diff(op.indptr))
    op.data[drop] = 0.0
    op.eliminate_zeros()
    return sp.csr_matrix((op.data.copy(), op.indices.copy(), op.indptr),
                         shape=op.shape)


def assemble_curl(mesh: RectMesh) -> sp.csr_matrix:
    """Global discrete curl: edge DoF -> face DoF (cell-average curl)."""
    c = local_curl(mesh.dx, mesh.dy)
    fe = mesh.face_edge_table
    rows = np.repeat(np.arange(mesh.n_faces, dtype=fe.dtype), 4)
    cols = fe.ravel()
    vals = np.tile(c, mesh.n_faces)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(mesh.n_faces, mesh.n_edges)).tocsr()


def assemble_curl_curl(mesh: RectMesh) -> sp.csr_matrix:
    """Global curl-curl operator curl^T M_F curl with M_F = |f| per face.

    Symmetric positive semidefinite; PEC boundary rows/columns zeroed.
    """
    c = local_curl(mesh.dx, mesh.dy)
    block = np.outer(c, c) * (mesh.dx * mesh.dy)
    return _apply_pec(_assemble_local_blocks(mesh, block), mesh)


def assemble_W(mesh: RectMesh, params: MfdParams) -> sp.csr_matrix:
    """Global W assembled from local blocks; PEC rows/columns zeroed."""
    block = local_W(params, mesh.dx, mesh.dy)
    return _apply_pec(_assemble_local_blocks(mesh, block), mesh)


def assemble_step_operators(mesh: RectMesh, params: MfdParams) -> tuple:
    """(C, G) with G @ C == W @ A: C is the curl with PEC columns zeroed,
    G = W C^T diag(|f|); the PEC W is dropped once G exists."""
    C = _apply_pec(assemble_curl(mesh), mesh, rows=False)
    G = assemble_W(mesh, params) @ C.T
    G.data *= mesh.dx * mesh.dy  # diag(|f|) of the uniform mesh
    G.sort_indices()
    return C, G


def assemble_M(mesh: RectMesh, params: MfdParams) -> sp.csr_matrix:
    """Global mass matrix for norms, assembled from local_M blocks.

    Not PEC-constrained: it is a norm, not an evolution operator.
    """
    return _assemble_local_blocks(mesh, local_M(params, mesh.dx, mesh.dy))


def params_for_scheme(scheme: str, nu: float, gamma: float) -> MfdParams:
    """Resolve a scheme label to MFD weights.

    "etmfd" is the dispersion-optimal member for (nu, gamma); "et-yee"
    is the Yee member (weights independent of nu, gamma).
    """
    key = scheme.lower()
    if key in ("etmfd", "optimal"):
        return optimal_params(nu, gamma)
    if key in ("et-yee", "yee"):
        return yee_params()
    raise ValueError(f"unknown scheme {scheme!r}; expected 'etmfd' or 'et-yee'")
