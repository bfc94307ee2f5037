"""Fully explicit exponential time stepping of the semi-discrete system.

The update is hybrid: a two-step update for the electric field followed
by a one-step update for the polarization current that reuses the freshly
computed E (so the scheme stays explicit).  Boundary DoF are held at zero
in PEC mode throughout.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mesh import RectMesh
from .operators import CurlCurl, MfdParams, assemble_step_operators
from .plasma import ExpOperators, Medium, exp_operators


class UnstableSimulationError(RuntimeError):
    """Field blow-up or NaN detected during time stepping."""


def nu_max(gamma: float) -> float:
    """Largest stable Courant number nu = c0 dt / dx on cells of aspect
    ratio gamma = dy / dx: gamma / sqrt(1 + gamma^2), where the vacuum
    symbol reaches |S_h| dt^2 = 4 at the corner of the zone.  It holds
    for the Yee and the dispersion-optimal weights alike."""
    return gamma / math.sqrt(1.0 + gamma * gamma)


@dataclass(frozen=True)
class SimConfig:
    """A run's inputs, checked on construction.  nu above `nu_max` is
    refused, a limit that holds only for the Yee and dispersion-optimal
    weights: MfdParams(0.6, 0, 0.6) passes at nu = 0.5 and blows up at
    step 80 on a 32^2 PEC mesh."""
    mesh: RectMesh
    medium: Medium
    params: MfdParams
    nu: float
    T: float
    probes: tuple = ()
    snapshot_stride: int = 0

    def __post_init__(self):
        if not 0 < self.nu < math.inf:  # NaN fails both comparisons
            raise ValueError(f"Courant number must be finite and > 0, got {self.nu}")
        limit = nu_max(self.mesh.gamma)
        if self.nu > limit:
            raise ValueError(
                f"Courant number {self.nu:g} is above the stability limit "
                f"nu_max = {limit:.6g} of aspect ratio {self.mesh.gamma:.6g}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"final time must be finite and > 0, got {self.T}")
        stride = self.snapshot_stride
        if not isinstance(stride, (int, np.integer)) or stride < 0:
            raise ValueError(f"snapshot_stride {stride!r} is not an int >= 0")
        boundary = self.mesh.boundary_edge_mask
        for e in self.probes:
            if not isinstance(e, (int, np.integer)):
                raise ValueError(f"probe edge {e!r} is not an integer index")
            if not (0 <= e < self.mesh.n_edges):
                raise ValueError(f"probe edge {e} out of range")
            if boundary[e]:
                raise ValueError(f"probe edge {e} is a boundary edge")

    @property
    def dt(self) -> float:
        return self.nu * self.mesh.dx / self.medium.c0

    @property
    def n_steps(self) -> int:
        """Final step index: smallest n with n*dt >= T."""
        return max(1, int(math.ceil(self.T / self.dt - 1e-9)))


@dataclass
class SimState:
    """Fields at steps n and n-1 (the E update needs J one step behind);
    `step` overwrites the n-1 buffers, so copy a field kept for later."""
    E_curr: np.ndarray
    E_prev: np.ndarray
    J_curr: np.ndarray
    J_prev: np.ndarray
    n: int


class StepOperators(NamedTuple):
    """What `step` applies, built once per run by `step_operators`.

    K is the `CurlCurl` of W A with -(c0^2 dt alpha3) folded in, alphas
    are (alpha1, alpha2) of the E update and j_coeffs (cJ, cE, cN) of the
    J update."""
    K: CurlCurl
    alphas: tuple
    j_coeffs: tuple


def _j_coefficients(e: ExpOperators) -> tuple:
    """(cJ, cE, cN) of the hybrid J update J' = cJ J + cE E + cN E'."""
    if abs(e.alpha3) < 1e-300:
        raise ZeroDivisionError("alpha3 vanished; dt outside usable range")
    cN = e.beta3 / e.alpha3
    return e.beta1 - cN * e.alpha2, e.beta2 - cN * e.alpha1, cN


def _j_update(j_coeffs: tuple, E, J, E_next, out, scratch) -> np.ndarray:
    """J' from (E, J) and the new E into out (which may be J)."""
    cJ, cE, cN = j_coeffs
    np.multiply(J, cJ, out=out)
    out += np.multiply(E, cE, out=scratch)
    out += np.multiply(E_next, cN, out=scratch)
    return out


def step_operators(config: SimConfig, expops: ExpOperators) -> StepOperators:
    """Set-up of the step: the alpha3 guard, then the assembly."""
    j_coeffs = _j_coefficients(expops)
    K = assemble_step_operators(
        config.mesh, config.params,
        -(config.medium.c0 ** 2 * config.dt * expops.alpha3))
    return StepOperators(K, (expops.alpha1, expops.alpha2), j_coeffs)


def initialize(config: SimConfig, E0, E1, J0,
               expops: ExpOperators | None = None) -> SimState:
    """Start from the edge DoFs of E at t = 0 and dt and of J at t = 0.

    Each array is copied, so `step` never overwrites a caller's array,
    and its PEC boundary entries are zeroed.  J^1 comes from one hybrid J
    update, which is exact whenever (E^0, E^1, J^0) lie on an
    exponential-step trajectory.
    """
    mesh = config.mesh
    if expops is None:
        expops = exp_operators(config.medium, config.dt)
    shapes = [np.shape(v) for v in (E0, E1, J0)]
    if shapes != [(mesh.n_edges,)] * 3:
        raise ValueError(f"E0, E1, J0 have shapes {shapes}, want "
                         f"({mesh.n_edges},) each")
    fields = np.array([E0, E1, J0], dtype=float)
    fields[:, mesh.boundary_edge_mask] = 0.0
    E0, E1, J0 = fields
    J1 = _j_update(_j_coefficients(expops), E0, J0, E1,
                   out=np.empty_like(J0), scratch=np.empty_like(J0))
    return SimState(E_curr=E1, E_prev=E0, J_curr=J1, J_prev=J0, n=1)


def step(state: SimState, ops: StepOperators) -> float:
    """Advance one step in place, E before J so the scheme is explicit.
    Returns max |field| over the new E and J, NaN if either holds one.

    One pass over the row blocks of G: each block's SpMV, E and J updates
    and max/min run on its slices while they are in cache.  Every entry
    takes the same operations in the same order as a whole-vector pass."""
    windows = ops.K.windows(state.E_curr)
    (a1, a2), E, J = ops.alphas, state.E_prev, state.J_prev
    peaks = np.empty((len(windows), 4))
    a = 0
    for k, (G_b, x) in enumerate(zip(ops.K.blocks, windows)):
        b = a + G_b.shape[0]
        z = G_b @ x  # the block's curl-curl term, its only new array
        e, j, e_c, j_c = E[a:b], J[a:b], state.E_curr[a:b], state.J_curr[a:b]
        # E' = (1 + a1) E - a1 E_prev + a2 (J - J_prev) + z into E_prev,
        # then J' into J_prev with z as scratch
        z += np.multiply(np.subtract(j_c, j, out=j), a2, out=j)
        z += np.multiply(e, -a1, out=e)
        np.add(np.multiply(e_c, 1.0 + a1, out=e), z, out=e)
        _j_update(ops.j_coeffs, e_c, j_c, e, out=j, scratch=z)
        peaks[k] = e.max(), -e.min(), j.max(), -j.min()  # no |x| temporary
        a = b
    state.E_curr, state.E_prev = E, state.E_curr
    state.J_curr, state.J_prev = J, state.J_curr
    state.n += 1
    return float(peaks.max())  # a NaN that Python's max could drop stays


@dataclass
class Snapshot:
    step: int
    t: float
    E: np.ndarray
    J: np.ndarray


@dataclass
class RunResult:
    state: SimState
    times: np.ndarray
    probe_E: dict
    probe_J: dict
    snapshots: list = field(default_factory=list)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])


def run(config: SimConfig, E0, E1, J0) -> RunResult:
    """Run from the initial edge DoFs (see `initialize`) to the first step
    at or past T, recording probes every step.

    Probe traces include the two initialization samples (t = 0 and dt);
    snapshots are taken at every step the stride divides, 0 and 1 too.
    Raises UnstableSimulationError on NaN or blow-up.
    """
    dt = config.dt
    expops = exp_operators(config.medium, dt)
    ops = step_operators(config, expops)
    state = initialize(config, E0, E1, J0, expops)

    n_final = config.n_steps
    trace_E = {e: np.empty(n_final + 1) for e in config.probes}
    trace_J = {e: np.empty(n_final + 1) for e in config.probes}
    snapshots = []
    stride = config.snapshot_stride

    def record(n, E, J):
        for e in config.probes:
            trace_E[e][n], trace_J[e][n] = E[e], J[e]
        if stride > 0 and n % stride == 0:
            snapshots.append(Snapshot(n, n * dt, E.copy(), J.copy()))

    record(0, state.E_prev, state.J_prev)
    record(1, state.E_curr, state.J_curr)

    E, J = state.E_curr, state.J_curr  # max |x| without an |x| temporary
    blowup_ref = 1.0 + np.max([E.max(), -E.min(), J.max(), -J.min()])
    while state.n < n_final:
        m = step(state, ops)
        if not np.isfinite(m) or m > 1e12 * blowup_ref:
            raise UnstableSimulationError(
                f"instability at step {state.n} (t={state.n * dt:.6g}): "
                f"max |field| = {m:.3e}")
        record(state.n, state.E_curr, state.J_curr)

    times = dt * np.arange(n_final + 1)
    return RunResult(state=state, times=times, probe_E=trace_E,
                     probe_J=trace_J, snapshots=snapshots)


# ---- snapshot persistence ---------------------------------------------------
#
# A snapshot is two flat little-endian float64 binaries (one per field) in
# global edge index order, alongside a JSON sidecar with the mesh shape,
# step index and time.  The sidecar names the binaries relative to its own
# directory, so a snapshot loads from any working directory.

def save_snapshot(prefix: str, mesh: RectMesh, snap: Snapshot) -> None:
    base = os.path.basename(prefix)
    meta = {
        "nx": mesh.nx, "ny": mesh.ny, "Lx": mesh.Lx, "Ly": mesh.Ly,
        "boundary": mesh.boundary, "step": snap.step, "time": snap.t,
        "n_edges": mesh.n_edges, "dtype": "<f8",
        "order": "global edge index (horizontal edges first)",
        "fields": {"E": base + ".E.bin", "J": base + ".J.bin"},
    }
    np.asarray(snap.E, "<f8").tofile(prefix + ".E.bin")  # no copy if f8
    np.asarray(snap.J, "<f8").tofile(prefix + ".J.bin")
    with open(prefix + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(prefix: str) -> tuple[dict, np.ndarray, np.ndarray]:
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    # absolute paths, as older sidecars store them, are kept by join
    folder = os.path.dirname(prefix)
    E = np.fromfile(os.path.join(folder, meta["fields"]["E"]), dtype="<f8")
    J = np.fromfile(os.path.join(folder, meta["fields"]["J"]), dtype="<f8")
    if len(E) != meta["n_edges"] or len(J) != meta["n_edges"]:
        raise ValueError("snapshot size does not match sidecar n_edges")
    return meta, E, J
