"""Structured rectangular mesh with edge and face degrees of freedom.

A field of vectors is represented by one real DoF per edge: the average
tangential component along the edge, with global tangents fixed to +x for
horizontal edges and +y for vertical ones.  A scalar field carries one DoF
per face: its cell average.  Per-face orientation signs (counter-clockwise
circulation) live in the local curl vector, not in the DoF.

Edges are indexed horizontally-first: the horizontal edge (i, j), on
y = j*dy spanning cell column i, i in [0, nx), j in [0, ny], is edge
j*nx + i; the vertical edge (i, j), on x = i*dx with i in [0, nx], j in
[0, ny), is edge n_hedges + j*(nx + 1) + i.  Face (i, j) is j*nx + i.
The domain's walls are perfect conductors (PEC): the edges on them are
boundary edges, whose tangential field is held at zero.
"""

from __future__ import annotations

import numpy as np


class RectMesh:
    """Uniform rectangular mesh on [0, Lx] x [0, Ly] with nx*ny cells."""

    def __init__(self, nx: int, ny: int, Lx: float, Ly: float):
        if nx < 1 or ny < 1 or nx % 1 or ny % 1:
            raise ValueError(f"cell counts must be integers >= 1, got nx={nx}, ny={ny}")
        if not (0 < Lx < np.inf and 0 < Ly < np.inf):  # NaN fails too
            raise ValueError(f"domain extents must be finite and > 0, got Lx={Lx}, Ly={Ly}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.dx = self.Lx / self.nx
        self.dy = self.Ly / self.ny
        self.gamma = self.dy / self.dx

        self.n_hedges = self.nx * (self.ny + 1)
        self.n_vedges = (self.nx + 1) * self.ny
        self.n_edges = self.n_hedges + self.n_vedges
        self.n_faces = self.nx * self.ny

        # True for edges on the domain boundary
        self.boundary_edge_mask = np.zeros(self.n_edges, dtype=bool)
        h, v = self.edge_lines(self.boundary_edge_mask)
        h[[0, -1]], v[:, [0, -1]] = True, True

    # ---- indexing ---------------------------------------------------------

    def edge_lines(self, v) -> tuple:
        """Views (vh, vv) of an edge vector v as its horizontal edge lines,
        (ny + 1, nx), and its vertical ones, (ny, nx + 1): edge (i, j) of
        each is entry [j, i]."""
        return (v[:self.n_hedges].reshape(-1, self.nx),
                v[self.n_hedges:].reshape(self.ny, -1))

    def face_edges(self, v) -> tuple:
        """Views (bottom, right, top, left) of an edge vector v, each
        (ny, nx), in the order of `local_curl` and `local_W`: entry [j, i]
        is on face (i, j), edges h(i, j), v(i + 1, j), h(i, j + 1), v(i, j)."""
        vh, vv = self.edge_lines(v)
        return vh[:-1], vv[:, 1:], vh[1:], vv[:, :-1]

    # ---- geometry ---------------------------------------------------------

    def edge_midpoint(self, e):
        """(x, y) of the midpoint of edge e, ints or integer arrays alike:
        the inverse of the edge numbering in the module docstring."""
        e = np.asarray(e)
        jh, ih = np.divmod(e, self.nx)
        jv, iv = np.divmod(e - self.n_hedges, self.nx + 1)
        h = e < self.n_hedges
        return (np.where(h, (ih + 0.5) * self.dx, iv * self.dx),
                np.where(h, jh * self.dy, (jv + 0.5) * self.dy))

    def __repr__(self):
        return (f"RectMesh(nx={self.nx}, ny={self.ny}, Lx={self.Lx}, "
                f"Ly={self.Ly})")


def build_mesh(nx: int, ny: int, Lx: float, Ly: float) -> RectMesh:
    """Construct a rectangular mesh; rejects non-positive dimensions."""
    return RectMesh(nx, ny, Lx, Ly)


def interpolate_edge_field(mesh: RectMesh, fx, fy) -> np.ndarray:
    """Edge DoF of a vector field sampled at the edge midpoints: the
    tangential component there, which is the edge average to O(h^2).

    fx(x, y) and fy(x, y) give each component on its own edges only, and
    must broadcast: x is a row of abscissae and y a column of ordinates,
    the edge lines and midpoints, so the work grows with the mesh lines.
    """
    out = np.zeros(mesh.n_edges)  # adding into +0 turns a -0 sample into +0
    out_h, out_v = mesh.edge_lines(out)
    x_mids = (np.arange(mesh.nx) + 0.5) * mesh.dx  # a row
    y_lines = np.arange(out_h.shape[0])[:, None] * mesh.dy  # a column
    x_lines = np.arange(out_v.shape[1]) * mesh.dx
    y_mids = (np.arange(mesh.ny)[:, None] + 0.5) * mesh.dy
    out_h += fx(x_mids, y_lines)
    out_v += fy(x_lines, y_mids)
    return out
