import math

import numpy as np
import pytest

from etmfd.plasma import Medium, RegimeError, exp_operators
from etmfd.selftest import DTS, MEDIA, coupling_matrix, series_exp_oracle

NONFINITE = (float("nan"), float("inf"), -float("inf"))


def test_medium_validation():
    with pytest.raises(RegimeError):
        Medium(omega_i=2.0, omega_p=1.0)  # critically damped
    with pytest.raises(RegimeError):
        Medium(omega_i=3.0, omega_p=1.0)  # overdamped
    with pytest.raises(ValueError):
        Medium(eps0=-1.0)
    with pytest.raises(ValueError):
        Medium(omega_p=0.0)
    with pytest.raises(ValueError):
        Medium(omega_i=-0.5)


def test_alpha_beta():
    m = Medium(omega_i=1.0, omega_p=1.0)
    assert m.alpha == -0.5
    assert abs(m.beta - math.sqrt(3) / 2) < 1e-15


def test_coupling_matrix_lossless():
    X = coupling_matrix(Medium(omega_i=0.0, omega_p=1.0))
    assert np.allclose(X, [[0.0, -1.0], [1.0, 0.0]])


def test_coupling_matrix_unit():
    X = coupling_matrix(Medium(omega_i=1.0, omega_p=1.0))
    assert np.allclose(X, [[0.0, -1.0], [1.0, -1.0]])


def test_alpha_beta_identity(rng):
    for _ in range(10):
        wp = rng.uniform(0.1, 5.0)
        wi = rng.uniform(0.0, 1.9) * wp
        m = Medium(omega_i=wi, omega_p=wp)
        assert abs(m.alpha ** 2 + m.beta ** 2 - wp ** 2) < 1e-12 * wp ** 2


def test_rotation_at_quarter_period():
    ops = exp_operators(Medium(omega_i=0.0, omega_p=1.0), math.pi / 2)
    assert np.abs(ops.exp_matrix - [[0.0, -1.0], [1.0, 0.0]]).max() < 1e-15


def test_small_dt_limits():
    ops = exp_operators(Medium(omega_i=1.0, omega_p=1.0), 1e-8)
    assert np.abs(ops.exp_matrix - np.eye(2)).max() < 1e-7
    assert np.abs(ops.integral_matrix).max() < 1e-7


@pytest.mark.parametrize("medium", MEDIA)
@pytest.mark.parametrize("dt", DTS)
def test_determinant_identity(medium, dt):
    ops = exp_operators(medium, dt)
    det = np.linalg.det(ops.exp_matrix)
    assert abs(det - math.exp(-medium.omega_i * dt)) < 1e-12


@pytest.mark.parametrize("medium", MEDIA)
@pytest.mark.parametrize("dt", DTS)
def test_integral_defining_identity(medium, dt):
    X = coupling_matrix(medium)
    ops = exp_operators(medium, dt)
    lhs = X @ ops.integral_matrix
    rhs = ops.exp_matrix - np.eye(2)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("medium", MEDIA)
def test_semigroup(medium):
    dt = 0.2
    e1 = exp_operators(medium, dt).exp_matrix
    e2 = exp_operators(medium, 2 * dt).exp_matrix
    assert np.abs(e2 - e1 @ e1).max() < 1e-12


def test_exp_operators_rejects_bad_dt():
    with pytest.raises(ValueError):
        exp_operators(Medium(), 0.0)
    for dt in NONFINITE:
        with pytest.raises(ValueError, match="finite"):
            exp_operators(Medium(), dt)


@pytest.mark.parametrize("name", ["eps0", "c0", "omega_i", "omega_p"])
@pytest.mark.parametrize("value", NONFINITE)
def test_medium_rejects_non_finite_constants(name, value):
    with pytest.raises(ValueError, match="finite"):
        Medium(**{name: value})


def test_series_oracle_zero_matrix():
    assert np.array_equal(series_exp_oracle(np.zeros((2, 2)), 1.0), np.eye(2))


def test_series_oracle_nilpotent():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.abs(series_exp_oracle(N, 1.0) - [[1, 1], [0, 1]]).max() < 1e-15


def test_series_oracle_diagonal():
    D = np.diag([0.3, -1.2])
    out = series_exp_oracle(D, 2.0)
    ref = np.diag(np.exp(np.diag(D) * 2.0))
    assert np.abs(out - ref).max() < 1e-13
