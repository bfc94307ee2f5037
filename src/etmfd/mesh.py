"""Structured rectangular mesh with edge and face degrees of freedom.

A field of vectors is represented by one real DoF per edge: the average
tangential component along the edge, with global tangents fixed to +x for
horizontal edges and +y for vertical ones.  A scalar field carries one DoF
per face: its cell average.  Per-face orientation signs (counter-clockwise
circulation) live in the local curl vector, not in the DoF.

Edges are indexed horizontally-first.  On a PEC mesh the horizontal edge
(i, j) sits on the line y = j*dy spanning cells i, i in [0, nx), j in
[0, ny]; vertical edges follow, (i, j) on x = i*dx with i in [0, nx],
j in [0, ny).  Periodic meshes identify j = ny with j = 0 (and i = nx
with i = 0), so both orientations count nx*ny edges.
"""

from __future__ import annotations

import numpy as np

BOUNDARY_MODES = ("pec", "periodic")


class RectMesh:
    """Uniform rectangular mesh on [0, Lx] x [0, Ly] with nx*ny cells."""

    def __init__(self, nx: int, ny: int, Lx: float, Ly: float,
                 boundary: str = "pec"):
        if nx < 1 or ny < 1 or nx % 1 or ny % 1:
            raise ValueError(f"cell counts must be integers >= 1, got nx={nx}, ny={ny}")
        if not (0 < Lx < np.inf and 0 < Ly < np.inf):  # NaN fails too
            raise ValueError(f"domain extents must be finite and > 0, got Lx={Lx}, Ly={Ly}")
        if boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.boundary = boundary
        self.dx = self.Lx / self.nx
        self.dy = self.Ly / self.ny
        self.gamma = self.dy / self.dx

        if boundary == "pec":
            self.n_hedges = self.nx * (self.ny + 1)
            self.n_vedges = (self.nx + 1) * self.ny
        else:
            self.n_hedges = self.nx * self.ny
            self.n_vedges = self.nx * self.ny
        self.n_edges = self.n_hedges + self.n_vedges
        self.n_faces = self.nx * self.ny

        # (n_faces, 4) edge indices, columns [bottom, right, top, left]
        self.face_edge_table = self._build_face_edges()
        # True for edges on the domain boundary (none if periodic)
        self.boundary_edge_mask = self._build_boundary_mask()

    # ---- indexing ---------------------------------------------------------
    # the only encoding of the edge numbering; ints or integer arrays alike

    def hedge_index(self, i, j):
        """Horizontal edge on y = j*dy spanning cell column i."""
        if self.boundary == "periodic":
            i, j = i % self.nx, j % self.ny
        return j * self.nx + i

    def vedge_index(self, i, j):
        """Vertical edge on x = i*dx spanning cell row j."""
        if self.boundary == "periodic":
            i, j = i % self.nx, j % self.ny
            return self.n_hedges + j * self.nx + i
        return self.n_hedges + j * (self.nx + 1) + i

    def _build_face_edges(self) -> np.ndarray:
        # face f = j*nx + i is cell (i, j); int32 is scipy's CSR index type,
        # so the operators' COO indices need no int64 copies
        j, i = np.divmod(np.arange(self.n_faces, dtype=np.int32), self.nx)
        return np.stack([self.hedge_index(i, j), self.vedge_index(i + 1, j),
                         self.hedge_index(i, j + 1), self.vedge_index(i, j)],
                        axis=1)

    # ---- geometry ---------------------------------------------------------

    def edge_midpoint(self, e):
        """(x, y) of the midpoint of edge e, ints or integer arrays alike:
        the inverse of hedge_index and vedge_index."""
        e = np.asarray(e)
        jh, ih = np.divmod(e, self.nx)
        jv, iv = np.divmod(e - self.n_hedges, self.n_vedges // self.ny)
        h = e < self.n_hedges
        return (np.where(h, (ih + 0.5) * self.dx, iv * self.dx),
                np.where(h, jh * self.dy, (jv + 0.5) * self.dy))

    # ---- boundary ---------------------------------------------------------

    def _build_boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_edges, dtype=bool)
        if self.boundary == "pec":
            i, j = np.arange(self.nx), np.arange(self.ny)
            mask[self.hedge_index(i, 0)] = True
            mask[self.hedge_index(i, self.ny)] = True
            mask[self.vedge_index(0, j)] = True
            mask[self.vedge_index(self.nx, j)] = True
        return mask

    def __repr__(self):
        return (f"RectMesh(nx={self.nx}, ny={self.ny}, Lx={self.Lx}, "
                f"Ly={self.Ly}, boundary={self.boundary!r})")


def build_mesh(nx: int, ny: int, Lx: float, Ly: float,
               boundary: str = "pec") -> RectMesh:
    """Construct a rectangular mesh; rejects non-positive dimensions."""
    return RectMesh(nx, ny, Lx, Ly, boundary)


def interpolate_edge_field(mesh: RectMesh, F, rule="midpoint") -> np.ndarray:
    """Edge DoF of a vector field F: average tangential component per edge.

    F must broadcast: F(x, y) -> (fx, fy) is called with a row of abscissae
    x and a column of ordinates y, the edge lines and quadrature nodes, so
    its work grows with the lines of the mesh, not its edges.  With
    rule="midpoint" each DoF is the tangential component at the edge
    midpoint; an integer rule n uses n-point Gauss-Legendre along the edge.
    """
    nh = mesh.n_hedges
    out = np.zeros(mesh.n_edges)
    # horizontal edge (i, j) at j*nx + i, vertical at j*cols + i: two grids
    out_h, out_v = out[:nh].reshape(-1, mesh.nx), out[nh:].reshape(mesh.ny, -1)
    x_lines = np.arange(out_v.shape[1]) * mesh.dx  # a row
    y_lines = np.arange(out_h.shape[0])[:, None] * mesh.dy  # a column
    x_mids = (np.arange(mesh.nx) + 0.5) * mesh.dx
    y_mids = (np.arange(mesh.ny)[:, None] + 0.5) * mesh.dy
    # the midpoint rule is the one-point Gauss rule; nodes on [-1, 1],
    # weights normalized to sum to 1 (averaging rule)
    n = 1 if rule == "midpoint" else int(rule)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    weights = weights / 2.0
    for xi, wi in zip(nodes, weights):
        fx, _ = F(x_mids + 0.5 * mesh.dx * xi, y_lines)
        _, fy = F(x_lines, y_mids + 0.5 * mesh.dy * xi)
        out_h += wi * fx
        out_v += wi * fy
    return out
