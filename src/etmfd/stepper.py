"""Fully explicit exponential time stepping of the semi-discrete system.

The update is hybrid: a two-step update for the electric field followed
by a one-step update for the polarization current that reuses the freshly
computed E (so the scheme stays explicit), in increment form on three
edge vectors (`SimState`).  Boundary DoF are held at zero throughout.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import RectMesh
from . import operators
from .operators import (CurlCurl, MfdParams, assemble_step_operators,
                        params_for_scheme)
from .plasma import ExpOperators, Medium, exp_operators


class UnstableSimulationError(RuntimeError):
    """Field blow-up or NaN detected during time stepping."""


def nu_max(gamma: float) -> float:
    """The vacuum limit gamma / sqrt(1 + gamma^2) of nu = c0 dt / dx on
    cells gamma = dy / dx, where |S_h| dt^2 <= 4 with either weight set;
    in a plasma the step's limit is lower: a nu under nu_max may grow."""
    return gamma / math.sqrt(1.0 + gamma * gamma)


@dataclass(frozen=True)
class SimConfig:
    """A run's inputs, checked on construction.  The weights follow from
    the scheme label ("etmfd" or "et-yee") by `params_for_scheme`, which
    refuses any other.  nu above `nu_max`, the vacuum limit |S_h| dt^2
    <= 4 of both weight sets, is refused; a plasma's lower one is not."""
    mesh: RectMesh
    medium: Medium
    scheme: str
    nu: float
    T: float

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
        self.params  # an unknown label is refused here, before any step

    @functools.cached_property
    def params(self) -> MfdParams:
        return params_for_scheme(self.scheme, self.nu, self.mesh.gamma)

    @property
    def dt(self) -> float:
        return self.nu * self.mesh.dx / self.medium.c0

    @functools.cached_property
    def expops(self) -> ExpOperators:
        """The exponentials of one step, computed on first use."""
        return exp_operators(self.medium, self.dt)

    @property
    def n_steps(self) -> int:
        """Final step index: smallest n with n*dt >= T."""
        return max(1, int(math.ceil(self.T / self.dt - 1e-9)))


@dataclass
class SimState:
    """Step n in increment form, updated in place by `step`: E = E^n,
    W = a1 (E^n - E^{n-1}) + a2 (J^n - J^{n-1}), so E^{n+1} = E + W + z,
    and V = J^n - cN E^n (at step 0, V = J^0, cN = 0 and W is None)."""
    E: np.ndarray
    W: np.ndarray | None
    V: np.ndarray
    cN: float
    n: int

    def J(self, at=slice(None)):
        """J^n = V + cN E at the index `at`: a new array, or a scalar."""
        E, V = self.E[at], self.V[at]
        return E * self.cN + V if self.cN else V.copy()  # J^0 exactly


class StepOperators(NamedTuple):
    """What `step` applies, built once per run by `step_operators`.

    K is the `CurlCurl` of W A with -(c0^2 dt alpha3) folded in, planned
    on the state's E, coeffs are (cJ - 1, b, lam, a2, max(1, |cN|)) of
    `step`, and D a block-sized buffer."""
    K: CurlCurl
    coeffs: tuple
    D: np.ndarray


def _j_coefficients(e: ExpOperators) -> tuple:
    """(cJ, cE, cN) of the hybrid J update J' = cJ J + cE E + cN E'."""
    if abs(e.alpha3) < 1e-300:
        raise ZeroDivisionError("alpha3 vanished; dt outside usable range")
    cN = e.beta3 / e.alpha3
    return e.beta1 - cN * e.alpha2, e.beta2 - cN * e.alpha1, cN


def step_operators(config: SimConfig, E: np.ndarray) -> StepOperators:
    """Set-up of the step: the alpha3 guard, then the assembly, planned
    on the state buffer E."""
    expops = config.expops
    cJ, cE, cN = _j_coefficients(expops)
    a1, a2 = expops.alpha1, expops.alpha2
    K = assemble_step_operators(
        config.mesh, config.params,
        -(config.medium.c0 ** 2 * config.dt * expops.alpha3), E)
    coeffs = cJ - 1.0, cE + cJ * cN, a1 + a2 * cN, a2, max(1.0, abs(cN))
    return StepOperators(K, coeffs, np.empty(max(len(b.z) for b in K.blocks)))


def initialize(config: SimConfig, E0, E1, J0,
               observe=lambda n, t, state: None) -> tuple:
    """Start from three edge vectors E^0 = E0, E^1 = E1 and J^0 = J0, the
    state's buffers (a float64 array is not copied), once a wrong shape,
    a NaN or inf and shared memory are refused; their PEC entries are
    zeroed.  `observe(0, 0.0, state)` sees (E^0, J^0); then, in slices of
    BLOCK edges, V^1 = cJ J^0 + cE E^0 (so J^1 is the hybrid J update) and
    W^1 = (1 + a1) E^1 - a1 E^0 + a2 (J^1 - J^0) - E^1, rounded as the
    two-step E update (this seeds an unstable mode), overwrite J0 and E0.
    Returns the step-1 state, whose E is E1, and max |E^1|, |J^1|."""
    mesh, expops = config.mesh, config.expops
    (cJ, cE, cN), a1 = _j_coefficients(expops), expops.alpha1
    fields = E0, E1, J0 = [np.asarray(x, dtype=float) for x in (E0, E1, J0)]
    for name, x in zip(("E0", "E1", "J0"), fields):
        if x.shape != (mesh.n_edges,):
            raise ValueError(f"{name} has shape {x.shape}, want ({mesh.n_edges},)")
        if not math.isfinite(x.sum()) and not np.isfinite(x).all():
            raise ValueError(f"initial data must be finite: {name} holds a NaN or inf")
    if any(map(np.may_share_memory, (E0, E0, E1), (E1, J0, J0))):
        raise ValueError("E0, E1 and J0 may share memory: each becomes a state buffer")
    for h, v in map(mesh.edge_lines, fields):  # the PEC entries
        h[[0, -1]], v[:, [0, -1]] = 0.0, 0.0
    observe(0, 0.0, SimState(E0, None, J0, 0.0, 0))
    (S, T), peaks = np.empty((2, min(operators.BLOCK, len(E0)))), []
    for a in range(0, len(E0), len(S)):
        e0, e1, j0 = (x[a:a + len(S)] for x in (E0, E1, J0))
        v, j = S[:len(e0)], T[:len(e0)]
        np.multiply(j0, cJ, out=v)
        v += np.multiply(e0, cE, out=j)
        np.add(v, np.multiply(e1, cN, out=j), out=j)  # J^1
        peaks += e1.max(), -e1.min(), j.max(), -j.min()  # no |x| temporary
        np.multiply(np.subtract(j, j0, out=j), expops.alpha2, out=j)
        np.subtract(np.multiply(e1, 1.0 + a1, out=j0),
                    np.multiply(e0, a1, out=e0), out=e0)
        np.subtract(np.add(e0, j, out=e0), e1, out=e0)
        j0[...] = v
    return SimState(E1, E0, J0, cN, 1), float(np.max(peaks))


def step(state: SimState, ops: StepOperators) -> float:
    """Advance one step in place, on a state whose E is the buffer that
    `ops` was planned on.  With S = W + z, D = (cJ - 1) V + b E,
    b = cE + cJ cN and lam = a1 + a2 cN, V += D, W = lam S + a2 D and
    E += S are the hybrid E and J updates: 9 ufunc calls on each row block
    of K while it is in cache, the same for each entry whatever the blocks.
    Returns max(1, |cN|) |E| + |V| in the 2-norm, one dot product per
    vector and block: at least max |E|, |J| but for the dot's rounding,
    NaN or inf if either holds one."""
    (c1, b, lam, a2, kE), E, W, V = ops.coeffs, state.E, state.W, state.V
    if E is not ops.K.E:
        raise ValueError("state.E is not the buffer the step was planned on")
    sE = sV = 0.0
    for r, z in ops.K():  # C E is taken before the first block's update
        e, w, v, d = E[r], W[r], V[r], ops.D[:len(z)]
        z += w
        np.multiply(e, b, out=d)
        d += np.multiply(v, c1, out=w)
        v += d
        np.multiply(z, lam, out=w)
        w += np.multiply(d, a2, out=d)
        e += z
        sE += np.dot(e, e)
        sV += np.dot(v, v)
    state.n += 1
    return kE * math.sqrt(sE) + math.sqrt(sV)


def run(config: SimConfig, E0, E1, J0, observe=None) -> SimState:
    """Run from `initialize(config, E0, E1, J0)`, in its buffers, to the
    first step at or past T and return the final state.

    `observe(n, t, state)` is called for each step n = 0 .. n_steps in
    order, with t = n dt and the live state of step n, which the next
    step overwrites: it reads `state.E` and `state.J(at)` or copies them.
    Raises UnstableSimulationError on NaN, or when max |E|, |J| (exact
    where `step`'s bound nears the limit) passes 1e12 (1 + its step-1 value).
    """
    dt = config.dt
    observe = observe or (lambda n, t, state: None)
    state, peak = initialize(config, E0, E1, J0, observe)
    ops = step_operators(config, state.E)
    observe(1, dt, state)

    limit = 1e12 * (1.0 + peak)
    while state.n < config.n_steps:
        m = step(state, ops)
        if not m < (1.0 - 1e-6) * limit:  # margin for the dot's rounding
            m = np.abs((state.E, state.J())).max()  # NaN if either has one
            if not m <= limit:
                raise UnstableSimulationError(
                    f"instability at step {state.n} (t={state.n * dt:.6g}): "
                    f"max |field| = {m:.3e}")
        observe(state.n, state.n * dt, state)
    return state


# ---- snapshot persistence ---------------------------------------------------
#
# A snapshot is two flat little-endian float64 binaries (one per field) in
# global edge index order, alongside a JSON sidecar with the mesh shape,
# step index and time.  The sidecar names the binaries relative to its own
# directory, so a snapshot loads from any working directory.

def save_snapshot(prefix: str, mesh: RectMesh, t: float,
                  state: SimState) -> None:
    """Write the E and J of step state.n at time t, J formed a slice of
    BLOCK edges at a time."""
    base = os.path.basename(prefix)
    meta = {
        "nx": mesh.nx, "ny": mesh.ny, "Lx": mesh.Lx, "Ly": mesh.Ly,
        "boundary": "pec", "step": state.n, "time": t,
        "n_edges": mesh.n_edges, "dtype": "<f8",
        "order": "global edge index (horizontal edges first)",
        "fields": {"E": base + ".E.bin", "J": base + ".J.bin"},
    }
    np.asarray(state.E, "<f8").tofile(prefix + ".E.bin")  # no copy if f8
    with open(prefix + ".J.bin", "wb") as fh:
        for a in range(0, len(state.E), operators.BLOCK):
            np.asarray(state.J(slice(a, a + operators.BLOCK)), "<f8").tofile(fh)
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
