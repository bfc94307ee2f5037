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

import numpy as np
import scipy.sparse as sp

from .mesh import RectMesh, interpolate_edge_field
from .operators import MfdParams, assemble_W, assemble_curl_curl
from .plasma import ExpOperators, Medium, exp_operators


class UnstableSimulationError(RuntimeError):
    """Field blow-up or NaN detected during time stepping."""


@dataclass(frozen=True)
class SimConfig:
    mesh: RectMesh
    medium: Medium
    params: MfdParams
    nu: float
    T: float
    probes: tuple = ()
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"Courant number must be > 0, got {self.nu}")
        if self.T <= 0:
            raise ValueError(f"final time must be > 0, got {self.T}")
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
    """Fields at steps n and n-1 (J one step behind is needed by the
    E update)."""
    E_curr: np.ndarray
    E_prev: np.ndarray
    J_curr: np.ndarray
    J_prev: np.ndarray
    n: int


def _j_update(expops: ExpOperators, E: np.ndarray, J: np.ndarray,
              E_next: np.ndarray) -> np.ndarray:
    """The hybrid one-step J update from (E, J), given the new E."""
    return (expops.beta1 * J + expops.beta2 * E
            + (expops.beta3 / expops.alpha3)
            * (E_next - expops.alpha1 * E - expops.alpha2 * J))


def initialize(config: SimConfig, E_at_0, E_at_dt, J_at_0,
               expops: ExpOperators | None = None) -> SimState:
    """Interpolate the three initial fields and bootstrap J at step 1.

    E at t=0 and t=dt use the midpoint rule; J at t=0 uses 4-point Gauss
    edge averages (exact to rounding for trigonometric data).  J^1 comes
    from one hybrid J update, which is exact whenever (E^0, E^1, J^0) lie
    on an exponential-step trajectory.
    """
    mesh = config.mesh
    if expops is None:
        expops = exp_operators(config.medium, config.dt)
    E0 = interpolate_edge_field(mesh, E_at_0, "midpoint")
    E1 = interpolate_edge_field(mesh, E_at_dt, "midpoint")
    J0 = interpolate_edge_field(mesh, J_at_0, 4)
    for v in (E0, E1, J0):
        v[mesh.boundary_edge_mask] = 0.0
    J1 = _j_update(expops, E0, J0, E1)
    return SimState(E_curr=E1, E_prev=E0, J_curr=J1, J_prev=J0, n=1)


def step(state: SimState, W_op: sp.spmatrix, A_op: sp.spmatrix,
         expops: ExpOperators, config: SimConfig) -> SimState:
    """Advance one step; E is updated before J so the scheme is explicit."""
    if abs(expops.alpha3) < 1e-300:
        raise ZeroDivisionError("alpha3 vanished; dt outside usable range")
    a1, a2 = expops.alpha1, expops.alpha2
    c2dt = config.medium.c0 ** 2 * config.dt
    E_next = ((1.0 + a1) * state.E_curr + a2 * state.J_curr
              - a1 * state.E_prev - a2 * state.J_prev
              - c2dt * expops.alpha3 * (W_op @ (A_op @ state.E_curr)))
    J_next = _j_update(expops, state.E_curr, state.J_curr, E_next)
    return SimState(E_curr=E_next, E_prev=state.E_curr,
                    J_curr=J_next, J_prev=state.J_curr, n=state.n + 1)


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


def run(config: SimConfig, E_at_0, E_at_dt, J_at_0) -> RunResult:
    """Run to the first step at or past T, recording probes every step.

    Probe traces include the two initialization samples (t = 0 and dt).
    Raises UnstableSimulationError on NaN or blow-up.
    """
    mesh = config.mesh
    dt = config.dt
    expops = exp_operators(config.medium, dt)
    W_op = assemble_W(mesh, config.params)
    A_op = assemble_curl_curl(mesh)
    state = initialize(config, E_at_0, E_at_dt, J_at_0, expops)

    n_final = config.n_steps
    probes = list(config.probes)
    trace_E = {e: np.empty(n_final + 1) for e in probes}
    trace_J = {e: np.empty(n_final + 1) for e in probes}
    for e in probes:
        trace_E[e][0], trace_E[e][1] = state.E_prev[e], state.E_curr[e]
        trace_J[e][0], trace_J[e][1] = state.J_prev[e], state.J_curr[e]

    snapshots = []
    stride = config.snapshot_stride
    if stride > 0:
        snapshots.append(Snapshot(0, 0.0, state.E_prev.copy(),
                                  state.J_prev.copy()))

    blowup_ref = 1.0 + max(np.abs(state.E_curr).max(),
                           np.abs(state.J_curr).max())
    while state.n < n_final:
        state = step(state, W_op, A_op, expops, config)
        m = max(np.abs(state.E_curr).max(), np.abs(state.J_curr).max())
        if not np.isfinite(m) or m > 1e12 * blowup_ref:
            raise UnstableSimulationError(
                f"instability at step {state.n} (t={state.n * dt:.6g}): "
                f"max |field| = {m:.3e}")
        for e in probes:
            trace_E[e][state.n] = state.E_curr[e]
            trace_J[e][state.n] = state.J_curr[e]
        if stride > 0 and state.n % stride == 0:
            snapshots.append(Snapshot(state.n, state.n * dt,
                                      state.E_curr.copy(),
                                      state.J_curr.copy()))

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
    snap.E.astype("<f8").tofile(prefix + ".E.bin")
    snap.J.astype("<f8").tofile(prefix + ".J.bin")
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
