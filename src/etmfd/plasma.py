"""Cold-plasma material model and its analytic 2x2 matrix exponentials.

The electric field / polarization current pair obeys a damped-oscillator
ODE with coupling matrix X = [[0, -1/eps0], [eps0*omega_p^2, -omega_i]].
In the underdamped regime (omega_i^2 < 4*omega_p^2) the exponential
exp(X*dt) and its time integral have closed trigonometric forms in
alpha = -omega_i/2 and beta = sqrt(4*omega_p^2 - omega_i^2)/2; these
eight coefficients drive the exponential time stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RegimeError(ValueError):
    """Medium is not underdamped (omega_i^2 >= 4*omega_p^2)."""


@dataclass(frozen=True)
class Medium:
    """Cold-plasma constants; unit system is up to the caller."""
    eps0: float = 1.0
    c0: float = 1.0
    omega_i: float = 1.0
    omega_p: float = 1.0

    def __post_init__(self):
        positive = (self.eps0, self.c0, self.omega_p)
        if not all(0 < v < math.inf for v in positive):  # NaN fails both
            raise ValueError(
                f"eps0, c0, omega_p must be finite and > 0, got {positive}")
        if not 0 <= self.omega_i < math.inf:
            raise ValueError(
                f"omega_i must be finite and >= 0, got {self.omega_i}")
        if self.omega_i ** 2 >= 4.0 * self.omega_p ** 2:
            raise RegimeError(
                f"underdamped regime requires omega_i^2 < 4*omega_p^2; "
                f"got omega_i={self.omega_i}, omega_p={self.omega_p}")
        if self.beta <= 1e-12 * self.omega_p:
            raise RegimeError("oscillation rate beta is numerically zero")

    @property
    def alpha(self) -> float:
        return -0.5 * self.omega_i

    @property
    def beta(self) -> float:
        return 0.5 * math.sqrt(4.0 * self.omega_p ** 2 - self.omega_i ** 2)


@dataclass(frozen=True)
class ExpOperators:
    """Entries of exp(X*dt) ([[a1, a2], [b2, b1]]) and of its integral
    int_0^dt exp(X*s) ds ([[a3, a4], [b3, b4]]) for one step dt."""
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    alpha3: float
    alpha4: float
    beta3: float
    beta4: float

    @property
    def exp_matrix(self) -> np.ndarray:
        return np.array([[self.alpha1, self.alpha2],
                         [self.beta2, self.beta1]])

    @property
    def integral_matrix(self) -> np.ndarray:
        return np.array([[self.alpha3, self.alpha4],
                         [self.beta3, self.beta4]])


def exp_operators(medium: Medium, dt: float) -> ExpOperators:
    """Closed-form exp(X*dt) and its integral for an underdamped medium."""
    if not 0 < dt < math.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    a, b, eps0 = medium.alpha, medium.beta, medium.eps0
    e = math.exp(a * dt)
    c, s = math.cos(b * dt), math.sin(b * dt)
    w2 = a * a + b * b  # = omega_p^2

    alpha1 = e * (c - a * s / b)
    alpha2 = -e * s / (eps0 * b)
    beta2 = eps0 * w2 * e * s / b
    beta1 = e * (c + a * s / b)

    alpha3 = (e * (2.0 * a * b * c + (b * b - a * a) * s) - 2.0 * a * b) / (b * w2)
    # sign convention fixed by X @ integral == exp(X*dt) - I
    alpha4 = -(b + e * (a * s - b * c)) / (eps0 * b * w2)
    beta3 = eps0 * (b + e * (a * s - b * c)) / b
    beta4 = e * s / b

    return ExpOperators(alpha1, alpha2, beta1, beta2,
                        alpha3, alpha4, beta3, beta4)

