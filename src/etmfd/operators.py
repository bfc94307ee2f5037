"""Local and global mimetic operators on rectangular meshes.

The family is parameterized by three dimensionless weights (w1, w2, w3)
entering the local approximate inverse mass matrix W.  Yee staggering is
the member (1/4, 0, 1/4); the dispersion-optimal member ties the weights
to the Courant number and cell aspect ratio.  The step applies W times
the curl-curl without a matrix: the curl, then a five-point stencil of
face differences on each edge; the mass matrix enters only the error
norm, face by face, as its local block.
PEC boundary edges carry no DoF in the step, so they stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


# Rows per block of the step (a mesh of at most BLOCK edges is one
# block), and faces per block of the curl.  A block's five edge vectors
# (40 bytes a row, 1.25 MB) fit in a 2 MB L2 cache next to its buffers
BLOCK = 1 << 15


def row_blocks(n: int, line: int) -> np.ndarray:
    """Bounds, in lines, of the row blocks of n lines of `line` rows: as
    few blocks as hold at most BLOCK rows each (one line, if it is
    longer), of equal size to within one line."""
    nb = -(-n // max(1, BLOCK // line))
    return np.arange(nb + 1) * n // nb


class Block(NamedTuple):
    """Rows of a `CurlCurl`, their buffer z, and the calls that fill z."""
    rows: slice
    z: np.ndarray
    calls: tuple


class CurlCurl(NamedTuple):
    """scale W A = scale W C^T diag(|f|) C with the PEC rows and columns
    dropped, without a matrix, planned on the edge vector E: the `curl`
    (ufunc, operands) calls write y = C E, then each block's calls take
    the face differences of y on its edges and their five-point stencil
    (`assemble_step_operators`), all on views fixed when it is built."""
    E: np.ndarray
    y: np.ndarray
    scratch: np.ndarray
    curl: tuple
    blocks: tuple

    def __call__(self):
        """Yield (rows, z) block by block in row order: z holds the rows
        `rows` of scale W A E until the next block overwrites it."""
        for f, args in self.curl:
            f(*args)
        for block in self.blocks:
            for f, args in block.calls:
                f(*args)
            yield block.rows, block.z


def _curl(mesh, E, y, scratch) -> list:
    """The calls y = C E: a face sums the terms [bottom, top, left,
    right] (a CSR row's edge order) from `face_edges` of E, one
    `row_blocks` block of face lines at a time, in cache: the first into
    y, each later one into scratch, then added.  A term's wall faces, if
    any, are zeroed before it is added."""
    nx, ny = mesh.nx, mesh.ny
    cb, cr, ct, cl = local_curl(mesh.dx, mesh.dy).tolist()
    bottom, right, top, left = mesh.face_edges(E)
    y, calls = y.reshape(ny, nx), []
    bounds = row_blocks(ny, nx).tolist()
    for j0, j1 in zip(bounds, bounds[1:]):
        yb = y[j0:j1]
        sb = scratch[:yb.size].reshape(yb.shape)
        for k, (src, c, wall) in enumerate((
                (bottom[j0:j1], cb, 0 if j0 == 0 else None),
                (top[j0:j1], ct, -1 if j1 == ny else None),
                (left[j0:j1], cl, (slice(None), 0)),
                (right[j0:j1], cr, (slice(None), -1)))):
            term = sb if k else yb
            calls.append((np.multiply, (src, c, term)))
            if wall is not None:
                calls.append((np.copyto, (term[wall], 0.0)))
            if k:
                calls.append((np.add, (yb, sb, yb)))
    return calls


def _stencil(D, w, z, t, A, B_lines, C_rows, ends=()) -> list:
    """The calls z = A d + B (d of the lines before and after) + C (d of
    the rows before and after), d in the flat buffer D of lines of w
    rows, one halo line before z's; t takes each sum, and the ends amend
    the row sums past the lines' ends.  A zero B or C skips its term."""
    def at(k):  # d shifted by k rows
        return D[w + k:w + k + len(z)]
    calls = [(np.multiply, (at(0), A, z))]
    for coef, k, fixes in ((B_lines, w, ()), (C_rows, 1, ends)):
        if coef:
            calls += [(np.add, (at(-k), at(k), t)), *fixes,
                      (np.multiply, (t, coef, t)), (np.add, (z, t, z))]
    return calls


def _horizontal(y, D, z, t, l0, l1, coeffs) -> list:
    """The calls of the block of horizontal edge lines l0 .. l1 - 1: d is
    0 on the wall lines 0 and ny (Dirichlet across) and reflected past
    each line's ends (Neumann along)."""
    ny, nx = y.shape
    n, y, (A, B, C) = l1 - l0, y.reshape(-1), coeffs
    # D holds lines l0 - 1 .. l1: d on the interior ones P .. Q - 1, else 0
    P, Q = max(l0 - 1, 1), min(l1 + 1, ny)
    D, z, t = D[:(n + 2) * nx], z.reshape(n, nx), t[:n * nx].reshape(n, nx)
    calls = [(np.copyto, (v, 0.0)) for v in (D[:(P - l0 + 1) * nx],
                                             D[(Q - l0 + 1) * nx:]) if v.size]
    calls.append((np.subtract, (y[P * nx:Q * nx], y[(P - 1) * nx:(Q - 1) * nx],
                                D[(P - l0 + 1) * nx:(Q - l0 + 1) * nx])))
    d = D[nx:(n + 1) * nx].reshape(n, nx)
    ends = [(np.add, (d[:, i], d[:, j], t[:, k])) for i, j, k in
            ((0, min(1, nx - 1), 0), (max(nx - 2, 0), nx - 1, nx - 1))]
    walls = [(np.copyto, (z[k], 0.0)) for k in (0, -1)
             if l0 + k % n in (0, ny)]
    return calls + _stencil(D, nx, z.reshape(-1), t.reshape(-1), A, B, C,
                            ends) + walls


def _vertical(y, D, z, t, l0, l1, coeffs) -> list:
    """The calls of the block of vertical edge lines l0 .. l1 - 1: d is
    0 on the wall rows 0 and nx (Dirichlet across), and the first and
    the last line's d stands past them (Neumann along)."""
    ny, nx = y.shape
    n, w, (A, B, C) = l1 - l0, nx + 1, coeffs
    # D holds lines l0 - 1 .. l1, the real ones P .. Q - 1 written here;
    # its wall rows stay 0
    P, Q = max(l0 - 1, 0), min(l1 + 1, ny)
    D2 = D[:(n + 2) * w].reshape(n + 2, w)
    calls = [(np.subtract, (y[P:Q, :-1], y[P:Q, 1:],
                            D2[P - l0 + 1:Q - l0 + 1, 1:nx]))]
    calls += [(np.copyto, (D2[g], D2[r])) for g, r, ghost in
              ((0, 1, l0 == 0), (n + 1, n, l1 == ny)) if ghost]
    return calls + _stencil(D, w, z, t[:n * w], A, C, B) + [
        (np.copyto, (z.reshape(n, w)[:, k], 0.0)) for k in (0, nx)]


def assemble_step_operators(mesh: RectMesh, params: MfdParams,
                            scale: float, E: np.ndarray) -> CurlCurl:
    """The `CurlCurl` of scale W A on the edge vector E, its calls
    planned once.

    On each edge let d be the difference of y across it, y[j] - y[j-1]
    on horizontal edge (i, j) and y[i-1] - y[i] on vertical edge (i, j):
    C^T diag(|f|) y is dx d on horizontal edges and dy d on vertical
    ones.  W sums local_W rows over the edge's two faces.  On a
    horizontal edge their w2 terms read the four vertical edges of
    those faces, whose signed sum is a second difference of y, dy (2 d
    - d[i-1] - d[i+1]) on the horizontal edges beside it.  So, with
    s = scale / (4 dx dy), a1 = 1 + 4 w1, b1 = 1 - 4 w1 and c = 4 w2,

        z = A d + B (d[j-1] + d[j+1]) + C (d[i-1] + d[i+1]),
        A = s dx (2 a1 + 2 c dy/dx),  B = s dx b1,  C = -s dx c dy/dx,

    and the vertical edges mirror it with a3, b3 and c dx/dy.  Past the
    walls d is 0 across an edge (the dropped PEC columns) and reflected
    along it (y mirrored past a wall gives the wall edge its d = 0);
    wall edges take z = 0."""
    nx, ny, dx, dy = mesh.nx, mesh.ny, mesh.dx, mesh.dy
    s, c = scale / (4.0 * dx * dy), 4.0 * params.w2
    coeffs = [(s * h * (2.0 * (1.0 + 4.0 * w) + 2.0 * c * r),
               s * h * (1.0 - 4.0 * w), -s * h * c * r) for h, w, r in
              ((dx, params.w1, dy / dx), (dy, params.w3, dx / dy))]
    # per orientation: the calls' planner, rows a line and row blocks,
    # each a run of whole edge lines
    kinds = ((_horizontal, nx, row_blocks(ny + 1, nx).tolist()),
             (_vertical, nx + 1, row_blocks(ny, nx + 1).tolist()))
    most = [max(np.diff(b).tolist()) * w for _, w, b in kinds]
    one = mesh.n_edges <= BLOCK  # then one block takes both orientations
    y, z = np.empty(mesh.n_faces), np.empty(mesh.n_edges if one else max(most))
    scratch = np.empty(max(max(most), max(np.diff(row_blocks(ny, nx))) * nx))
    blocks = []
    for (plan, w, bounds), size, abc in zip(kinds, most, coeffs):
        # d with a halo line each side; zeros, since the vertical wall
        # rows are never written
        D = np.zeros(size + 2 * w)
        for l0, l1 in zip(bounds, bounds[1:]):
            a = blocks[-1].rows.stop if blocks else 0
            zb = z[a * one:a * one + (l1 - l0) * w]
            calls = plan(y.reshape(ny, nx), D, zb, scratch, l0, l1, abc)
            blocks.append(Block(slice(a, a + len(zb)), zb, tuple(calls)))
    if one:
        blocks = [Block(slice(0, len(z)), z, blocks[0].calls + blocks[1].calls)]
    return CurlCurl(E, y, scratch, tuple(_curl(mesh, E, y, scratch)),
                    tuple(blocks))


def params_for_scheme(scheme: str, nu: float, gamma: float) -> MfdParams:
    """Resolve a scheme label to MFD weights.

    "etmfd" is the dispersion-optimal member for (nu, gamma); "et-yee"
    is the Yee member (weights independent of nu, gamma).
    """
    key = scheme.lower() if isinstance(scheme, str) else None
    if key == "etmfd":
        return optimal_params(nu, gamma)
    if key == "et-yee":
        return yee_params()
    raise ValueError(f"unknown scheme {scheme!r}; expected 'etmfd' or 'et-yee'")
