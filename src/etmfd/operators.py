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
from typing import NamedTuple

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
# their place, all others take a central row
TEMPLATE, HALO = 4, 2

# Rows per block of G, the unit of both its assembly and the step, and
# faces per block of the curl.  A block's six edge vectors (48 bytes a
# row, 1.5 MB) fit in a 2 MB L2 cache next to the block's share of G,
# streamed once per step
BLOCK = 1 << 15


def _template_G(mesh: RectMesh, params: MfdParams, scale: float) -> tuple:
    """The template mesh and its G = W C^T diag(|f|) times scale, dense.
    An entry sums its face's edge terms in ascending edge order, as the
    product W @ C^T does: the same bits."""
    # topology only: values use mesh.dx, dy
    t = RectMesh(min(mesh.nx, TEMPLATE), min(mesh.ny, TEMPLATE), 1.0, 1.0)
    fe, b, faces = t.face_edge_table, t.boundary_edge_mask, np.arange(t.n_faces)
    W, C = np.zeros((t.n_edges, t.n_edges)), np.zeros((t.n_faces, t.n_edges))
    np.add.at(W, (fe[:, :, None], fe[:, None, :]),
              local_W(params, mesh.dx, mesh.dy))
    C[faces[:, None], fe] = local_curl(mesh.dx, mesh.dy)
    W[b], C[:, b] = 0.0, 0.0
    K = np.sort(fe, axis=1)
    terms = W[:, K] * C[faces[:, None], K]
    return t, (((terms[..., 0] + terms[..., 1]) + terms[..., 2])
               + terms[..., 3]) * (mesh.dx * mesh.dy) * scale


def row_blocks(n: int, line: int) -> np.ndarray:
    """Bounds, in lines, of the row blocks of n lines of `line` rows: as
    few blocks as hold at most BLOCK rows each (one line, if it is
    longer), of equal size to within one line."""
    nb = -(-n // max(1, BLOCK // line))
    return np.arange(nb + 1) * n // nb


def _diagonals(lines: np.ndarray, offsets: np.ndarray) -> tuple:
    """DIA (data, offsets) of rows given line by line as a (lines,
    diagonals, rows a line) array: row r's entry on diagonal d sits in
    column r + offsets[d]."""
    vals = lines.transpose(1, 0, 2).reshape(len(offsets), -1)
    n = vals.shape[1]
    data = np.zeros((len(offsets), n + max(int(offsets.max()), 0)))
    for d, k in enumerate(offsets.tolist()):
        if -k < n:
            data[d, max(k, 0):n + k] = vals[d, max(-k, 0):]
    return data, offsets.astype(np.int32)


class Curl:
    """The curl with the PEC columns dropped, without a matrix: a face
    sums the terms [bottom, top, left, right] (a CSR row's edge order)
    from the edge lines of E, one `row_blocks` block of face lines at a
    time, in cache.  Wall terms are zeroed before they are added."""

    def __init__(self, mesh: RectMesh):
        self.mesh, nx, ny = mesh, mesh.nx, mesh.ny
        cb, cr, ct, cl = local_curl(mesh.dx, mesh.dy).tolist()
        # per block of face lines, its terms in order: (edge lines,
        # coefficient, source slice, the term's wall faces)
        self.blocks = []
        bounds = row_blocks(ny, nx).tolist()
        for j0, j1 in zip(bounds, bounds[1:]):
            terms = []
            for axis, up, c in ((0, 0, cb), (0, 1, ct),
                                (1, 0, cl), (1, 1, cr)):
                # the edges `up` lines on from the block's faces a .. b - 1
                # along the axis, and the wall face among them, if any
                a, b = (j0, j1) if axis == 0 else (0, nx)
                w = ((ny, nx)[axis] - 1) * up - a
                wall = slice(w, w + 1) if 0 <= w < b - a else slice(0)
                lead, keep = (slice(j0, j1),) * axis, (slice(None),) * axis
                terms.append((axis, c, lead + (slice(a + up, b + up),),
                              keep + (wall,)))
            self.blocks.append((slice(j0, j1), terms))

    def __call__(self, E: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
        """The curl of E into out, a face vector, which it returns;
        scratch is another."""
        lines = self.mesh.edge_lines(E)
        y = out.reshape(self.mesh.ny, self.mesh.nx)
        for rows, terms in self.blocks:
            yb = y[rows]
            sb = scratch[:yb.size].reshape(yb.shape)
            for k, (axis, c, src, wall) in enumerate(terms):
                term = sb if k else yb
                np.multiply(lines[axis][src], c, out=term)
                term[wall] = 0.0
                if k:
                    yb += sb
        return out


class CurlCurl(NamedTuple):
    """W A = G C: the `Curl` C with the PEC columns dropped, then G =
    W C^T diag(|f|) with the PEC rows dropped as DIA row blocks, in row
    order; block k's rows are `blocks[k] @ windows(E)[k]`.  With (padded,
    start) = reads[k], it reads entries start .. start + blocks[k].shape[1]
    of the face vector y or, if padded, of `layout` flat: the ny face
    lines, each zero past its nx faces.  Blocks whose lines take the same
    template rows share one `data` array."""
    curl: Curl
    blocks: tuple
    reads: tuple
    layout: np.ndarray
    y: np.ndarray
    scratch: np.ndarray

    def windows(self, E: np.ndarray) -> list:
        """C E into y and the layout; each block's input window."""
        y, lay = self.curl(E, self.y, self.scratch), self.layout
        lay[:, :self.curl.mesh.nx] = y.reshape(lay.shape[0], -1)
        faces = (y, lay.reshape(-1))
        return [faces[padded][c:c + G_b.shape[1]]
                for G_b, (padded, c) in zip(self.blocks, self.reads)]


def _G_blocks(mesh: RectMesh, params: MfdParams, scale: float) -> tuple:
    """The `blocks` and `reads` of a `CurlCurl` of scale W A.

    G's blocks hold whole grid lines of one edge orientation, at the
    bounds of `row_blocks`.  The rows of a line are consecutive entries
    of their face layout, so each face a row reaches sits at a fixed
    offset from it: a block is a DIA matrix, its diagonals the row's
    faces in ascending order.  Horizontal edges read y, vertical ones
    the faces padded to nx + 1 a line."""
    nx, ny = mesh.nx, mesh.ny
    # G: edge (i, j) takes the row of template edge (i - si, j - sj), with
    # its faces shifted by (si, sj)
    t, Gt = _template_G(mesh, params, scale)
    tfj, tfi = np.divmod(np.arange(t.n_faces), t.nx)

    def shift(k, n, tn):  # cell or line indices k, axis of n (tn) cells
        return np.minimum(np.maximum(k - HALO, 0), n - tn)

    # per orientation: template row, rows a line, lines, whether it reads
    # the layout (else y)
    kinds = ((t.hedge_index, nx, ny + 1, False),
             (t.vedge_index, nx + 1, ny, True))
    sizes = (mesh.n_faces, ny * (nx + 1))
    blocks, reads = [], []
    for index, n, lines, padded in kinds:
        i, j = np.arange(n), np.arange(lines)
        si, tj = shift(i, nx, t.nx), j - shift(j, ny, t.ny)
        # tj takes every value between its extremes
        us, uj = np.arange(tj.min(), tj.max() + 1), tj - tj.min()
        # the rows of a line of each template line us[w], their entries
        # (w, row r, template face f) and each entry's offset
        rows = Gt[index(i - si, us[:, None])]
        w, r, f = np.nonzero(rows)
        fi, dj = tfi[f] + si[r], tfj[f] - us[w]
        off = dj * n + fi - r
        K = np.union1d(off, [0])  # 0: one zero diagonal if G has no entry
        pattern = np.zeros((len(us), len(K), n))
        pattern[w, np.searchsorted(K, off), r] = rows[w, r, f]
        # blocks of one template line share the data array of the longest
        # block, of which a shorter one reads a part
        bounds, line_u = row_blocks(lines, n).tolist(), uj.tolist()
        most = max(b - a for a, b in zip(bounds, bounds[1:]))
        shared = {}
        for l0, l1 in zip(bounds[:-1], bounds[1:]):
            p0 = l0 * n  # layout entry of the block's first row
            c0 = max(0, p0 + int(K[0]))
            c1 = min(sizes[padded], p0 + (l1 - l0) * n + int(K[-1]))
            u = line_u[l0:l1]
            key = (p0 - c0, (u[0],) * most if u.count(u[0]) == len(u)
                   else tuple(u))
            if key not in shared:
                shared[key] = _diagonals(pattern[list(key[1])], K + key[0])
            blocks.append(sp.dia_matrix(shared[key],
                                        shape=((l1 - l0) * n, c1 - c0)))
            reads.append((padded, c0))
    return tuple(blocks), tuple(reads)


def assemble_step_operators(mesh: RectMesh, params: MfdParams,
                            scale: float) -> CurlCurl:
    """The `CurlCurl` scale W A = G C, G written from stencils without a
    product.  The template's G takes the scale, so each stored entry is
    one template entry times it: the bits of scaling G afterwards."""
    blocks, reads = _G_blocks(mesh, params, scale)
    # the buffers once the assembly's temporaries are freed, whose
    # resident memory they can take
    layout, y = np.zeros((mesh.ny, mesh.nx + 1)), np.empty(mesh.n_faces)
    return CurlCurl(Curl(mesh), blocks, reads, layout, y,
                    np.empty(mesh.n_faces))


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
