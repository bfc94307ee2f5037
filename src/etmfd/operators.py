"""Local and global mimetic operators on rectangular meshes.

The family is parameterized by three dimensionless weights (w1, w2, w3)
entering the local approximate inverse mass matrix W.  Yee staggering is
the member (1/4, 0, 1/4); the dispersion-optimal member ties the weights
to the Courant number and cell aspect ratio.  The step operators are
written from a template of a few cells, whose rows every uniform mesh
repeats, shifted; the mass matrix enters only the error norm, face by
face, as its local block.
PEC boundary edges carry no DoF in the step, so they stay zero.
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
    if not 0 <= nu < np.inf:  # NaN fails both comparisons
        raise ValueError(f"Courant number must be finite and >= 0, got {nu}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"aspect ratio must be finite and > 0, got {gamma}")
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


# A row of G reaches the faces within two cells of its edge, so on a
# uniform mesh it is a row of G on a template of at most TEMPLATE cells a
# side, shifted by whole cells: edges within HALO cells of a wall keep
# their place, all others (any edge of a wider torus) take a central row
TEMPLATE, HALO = 4, 2

# Rows per block of G, the unit of both its assembly and the step.  A
# block's six edge vectors (48 bytes a row, 1.5 MB) fit in a 2 MB L2
# cache next to the block's share of G, streamed once per step
BLOCK = 1 << 15


def _template_G(mesh: RectMesh, params: MfdParams) -> tuple:
    """The template mesh and its G = W C^T diag(|f|) as CSR pieces
    (indptr, data, face column, face row).  An entry sums its face's edge
    terms in ascending edge order, as the product W @ C^T does: the same
    bits, unless a periodic wrap reorders the face's edges."""
    t = RectMesh(min(mesh.nx, TEMPLATE), min(mesh.ny, TEMPLATE), 1.0, 1.0,
                 mesh.boundary)  # topology only: values use mesh.dx, dy
    fe, b, faces = t.face_edge_table, t.boundary_edge_mask, np.arange(t.n_faces)
    W, C = np.zeros((t.n_edges, t.n_edges)), np.zeros((t.n_faces, t.n_edges))
    np.add.at(W, (fe[:, :, None], fe[:, None, :]),
              local_W(params, mesh.dx, mesh.dy))
    # a one-cell-wide periodic face holds an edge twice: the terms cancel
    np.add.at(C, (faces[:, None], fe), local_curl(mesh.dx, mesh.dy))
    W[b], C[:, b] = 0.0, 0.0
    K = np.sort(fe, axis=1)
    terms = W[:, K] * C[faces[:, None], K]
    G = (((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]
         ) * (mesh.dx * mesh.dy)
    r, f = np.nonzero(G)
    fj, fi = np.divmod(f.astype(np.int32), t.nx)
    return t, np.searchsorted(r, np.arange(t.n_edges + 1)), G[r, f], fi, fj


def row_blocks(n: int) -> np.ndarray:
    """Bounds of the row blocks of an n-row operator: as few as hold at
    most BLOCK rows each, of equal size to within one row."""
    nb = -(-n // BLOCK)
    return np.arange(nb + 1) * n // nb


def assemble_step_operators(mesh: RectMesh, params: MfdParams) -> tuple:
    """(C, G) with G @ C == W @ A: C is the curl with the PEC columns
    dropped and G = W C^T diag(|f|) with the PEC rows dropped, written
    from stencils without a product.  C is one CSR matrix; G is a tuple
    of CSR row blocks, in row order, at the bounds of `row_blocks`.
    Each has sorted int32 indices and owns its arrays."""
    nx, ny, periodic = mesh.nx, mesh.ny, mesh.boundary == "periodic"
    # C: each face's edges in ascending order [bottom, top, left, right]
    fe = mesh.face_edge_table[:, [0, 2, 3, 1]]
    keep = ~mesh.boundary_edge_mask[fe]
    c = np.broadcast_to(local_curl(mesh.dx, mesh.dy)[[0, 2, 3, 1]], fe.shape)
    C = sp.csr_matrix((c[keep], fe[keep], np.r_[0, np.cumsum(keep.sum(1))]),
                      shape=(mesh.n_faces, mesh.n_edges))
    if periodic:  # wrapped faces are out of order; one-cell faces repeat
        C.sum_duplicates()
        C.eliminate_zeros()

    # G: edge (i, j) takes the row of template edge (i - si, j - sj), with
    # its face columns shifted by (si, sj)
    t, tptr, tdata, tfi, tfj = _template_G(mesh, params)

    def shift(k, n, tn):  # cell or line indices k, axis of n (tn) cells
        return (k - HALO if periodic and n > tn
                else np.minimum(np.maximum(k - HALO, 0), n - tn))

    nh = mesh.n_hedges
    jh, ih = np.divmod(np.arange(nh, dtype=np.int32), nx)
    jv, iv = np.divmod(np.arange(mesh.n_vedges, dtype=np.int32),
                       mesh.n_vedges // ny)
    i, j = np.concatenate([ih, iv]), np.concatenate([jh, jv])
    si, sj = shift(i, nx, t.nx), shift(j, ny, t.ny)
    ti, tj = i - si, j - sj
    row = np.concatenate([t.hedge_index(ti[:nh], tj[:nh]),
                          t.vedge_index(ti[nh:], tj[nh:])])
    tlen, tflat, sflat = np.diff(tptr), tfj * nx + tfi, sj * nx + si
    # entry p of edge e's row is the template's entry tptr[row[e]] + p.
    # Each block allocates its own arrays: scipy copies a view of less
    # than half its base, so blocks cut from one big G would be copies
    G = []
    bounds = row_blocks(mesh.n_edges)
    for a, b in zip(bounds[:-1], bounds[1:]):
        e = slice(a, b)
        n = tlen[row[e]]
        indptr = np.zeros(b - a + 1, np.int32)
        np.cumsum(n, out=indptr[1:])
        q = np.repeat(tptr[row[e]] - indptr[:-1], n) + np.arange(indptr[-1])
        if periodic:  # wrap the face column and row apart
            fi = (tfi.take(q) + np.repeat(si[e], n)) % nx
            fj = (tfj.take(q) + np.repeat(sj[e], n)) % ny
            indices = fj * nx + fi
        else:
            indices = tflat.take(q) + np.repeat(sflat[e], n)
        block = sp.csr_matrix((tdata.take(q), indices, indptr),
                              shape=(b - a, mesh.n_faces))
        if periodic:  # wrapped rows are out of order; one-cell edges repeat
            block.sum_duplicates()
            block.eliminate_zeros()
        G.append(block)
    return C, tuple(G)


def params_for_scheme(scheme: str, nu: float, gamma: float) -> MfdParams:
    """Resolve a scheme label to MFD weights.

    "etmfd" is the dispersion-optimal member for (nu, gamma); "et-yee"
    is the Yee member (weights independent of nu, gamma).
    """
    key = scheme.lower()
    if key == "etmfd":
        return optimal_params(nu, gamma)
    if key == "et-yee":
        return yee_params()
    raise ValueError(f"unknown scheme {scheme!r}; expected 'etmfd' or 'et-yee'")
