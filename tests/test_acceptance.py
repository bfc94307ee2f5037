"""Acceptance suite: one test per criterion, one printed pass line each.

Criteria (tolerances pinned here; etmfd.selftest.CHECKS keeps a copy
that a test holds equal to ORACLE_TOLERANCES):
  1. L2 convergence rates on the standing-mode experiment, both fields:
     optimal member in [3.8, 4.2], Yee member in [1.9, 2.1]; optimal
     E error at h = 2^-4 within 5x of 4.8495e-05.  Under 2 minutes.
  2. Fitted dispersion-error rates on the same sweep: same windows.
  3. Symbol-level slopes over ppw {12, 24, 48} at k = 4, nu = 1/2:
     >= 3.8 (optimal), 2.0 +- 0.15 (Yee); 10x gap at 12 ppw.
  4. Oracle equivalences: exponential coefficients 1e-12; one step vs
     dense assembly 1e-13 on 3x3 and 3x4 PEC meshes; symbol vs Bloch
     reduction 1e-12 for 20 random draws; direct optimal W vs composed
     path 1e-14.
  5. Lossy-medium leapfrog residual: zeroing w2 is complex (|Im| > 1e-3)
     and frequency-dependent at tau = 1; real and frequency-independent
     to 1e-10 (relative) in the vacuum limit.
  6. Exponential stepping integrates a curl-free mode exactly (1e-12 at
     t = 1 for dt in {0.1, 0.01}): the gradient of the hat at the one
     interior node of a 2x2 PEC mesh of unit cells, whose step on each
     edge is the 2x2 ODE of the k = 0 mode.

Criteria 4-6 measure through the checks in etmfd.selftest, which
`etmfd selftest` also runs.
"""

import time

import numpy as np
import pytest

from etmfd import selftest
from etmfd.analysis import convergence_study, make_exact_solution
from etmfd.mesh import build_mesh
from etmfd.plasma import Medium
from etmfd.selftest import symbol_error_slope

MEDIUM = Medium(eps0=1.0, c0=1.0, omega_i=1.0, omega_p=1.0)

RATE_OPTIMAL = (3.8, 4.2)
RATE_YEE = (1.9, 2.1)
ORACLE_TOLERANCES = {
    "exp-oracles": 1e-12,          # 4a
    "one-step-dense": 1e-13,       # 4b
    "symbol-reduction": 1e-12,     # 4c
    "optimal-W-identity": 1e-14,   # 4d
    "leapfrog-lossy": 1e-3,        # 5, lower bound
    "leapfrog-vacuum": 1e-10,      # 5, relative
    "ode-exactness": 1e-12,        # 6
    "fourth-order-symbol": 3.8,    # 3, lower bound
}


@pytest.fixture(scope="module")
def experiment2():
    sol = make_exact_solution(np.pi, np.pi, MEDIUM)
    meshes = [build_mesh(n, n, 1.0, 1.0) for n in (16, 32, 64)]
    t0 = time.time()
    rows = {scheme: convergence_study(meshes, [scheme], sol, nu=0.5, T=4.0)
            for scheme in ("etmfd", "et-yee")}
    rows["elapsed"] = time.time() - t0
    return rows


def _rates(rows, field, key):
    return [r[key] for r in rows if r["field"] == field
            and not np.isnan(r[key])]


def test_criterion_1_l2_convergence(experiment2):
    for field in ("E", "J"):
        for r in _rates(experiment2["etmfd"], field, "rate_l2"):
            assert RATE_OPTIMAL[0] <= r <= RATE_OPTIMAL[1]
        for r in _rates(experiment2["et-yee"], field, "rate_l2"):
            assert RATE_YEE[0] <= r <= RATE_YEE[1]
    coarse_E = [r for r in experiment2["etmfd"]
                if r["field"] == "E" and r["log2_h"] == -4][0]["err_l2"]
    assert 4.8495e-05 / 5.0 <= coarse_E <= 4.8495e-05 * 5.0
    coarse_yee = [r for r in experiment2["et-yee"]
                  if r["field"] == "E" and r["log2_h"] == -4][0]["err_l2"]
    assert 1.1024e-02 / 5.0 <= coarse_yee <= 1.1024e-02 * 5.0
    assert experiment2["elapsed"] < 120.0
    print(f"\nPASS criterion 1: L2 rates etmfd "
          f"{_rates(experiment2['etmfd'], 'E', 'rate_l2')} / et-yee "
          f"{_rates(experiment2['et-yee'], 'E', 'rate_l2')}, coarse error "
          f"{coarse_E:.4e} vs 4.8495e-05, {experiment2['elapsed']:.1f}s")


def test_criterion_2_dispersion_fit_rates(experiment2):
    for field in ("E", "J"):
        for r in _rates(experiment2["etmfd"], field, "rate_disp"):
            assert RATE_OPTIMAL[0] <= r <= RATE_OPTIMAL[1]
        for r in _rates(experiment2["et-yee"], field, "rate_disp"):
            assert RATE_YEE[0] <= r <= RATE_YEE[1]
    print(f"\nPASS criterion 2: dispersion-fit rates etmfd "
          f"{_rates(experiment2['etmfd'], 'E', 'rate_disp')} / et-yee "
          f"{_rates(experiment2['et-yee'], 'E', 'rate_disp')}")


def test_criterion_3_symbol_fourth_order():
    slope_opt, errs_opt = symbol_error_slope(4.0, 0.5, MEDIUM, "etmfd")
    slope_yee, errs_yee = symbol_error_slope(4.0, 0.5, MEDIUM, "et-yee")
    assert slope_opt >= 3.8
    assert abs(slope_yee - 2.0) <= 0.15
    assert errs_opt[0] * 10.0 <= errs_yee[0]
    print(f"\nPASS criterion 3: symbol slopes optimal {slope_opt:.3f}, "
          f"Yee {slope_yee:.3f}; 12-ppw gap "
          f"{errs_yee[0] / errs_opt[0]:.1f}x")


def test_criterion_4a_exponential_oracles():
    worst = selftest.exp_oracle_deviation()
    assert worst < ORACLE_TOLERANCES["exp-oracles"]
    print(f"\nPASS criterion 4a: exponential coefficients vs oracles, "
          f"worst {worst:.2e}")


def test_criterion_4b_one_step_dense():
    worst = selftest.one_step_dense_deviation()
    assert worst < ORACLE_TOLERANCES["one-step-dense"]
    print(f"\nPASS criterion 4b: one step vs dense assembly, worst {worst:.2e}")


def test_criterion_4c_symbol_vs_reduction():
    worst = selftest.symbol_reduction_deviation()
    assert worst < ORACLE_TOLERANCES["symbol-reduction"]
    print(f"\nPASS criterion 4c: symbol vs Bloch reduction, worst {worst:.2e}")


def test_criterion_4d_optimal_W_identity():
    worst = selftest.optimal_W_deviation()
    assert worst < ORACLE_TOLERANCES["optimal-W-identity"]
    print(f"\nPASS criterion 4d: optimal W identity, worst {worst:.2e}")


def test_criterion_5_leapfrog_not_optimizable():
    spread = selftest.leapfrog_lossy_spread()
    vacuum = selftest.leapfrog_vacuum_deviation()
    assert spread > ORACLE_TOLERANCES["leapfrog-lossy"]
    assert vacuum < ORACLE_TOLERANCES["leapfrog-vacuum"]
    print(f"\nPASS criterion 5: lossy zeroing w2 complex and "
          f"frequency-dependent by {spread:.4f}; vacuum limit off by "
          f"{vacuum:.1e} (relative)")


@pytest.mark.parametrize("dt", [0.1, 0.01])
def test_criterion_6_exact_ode_integration(dt):
    err = selftest.ode_exactness_deviation(dts=(dt,))
    assert err < ORACLE_TOLERANCES["ode-exactness"]
    print(f"\nPASS criterion 6 (dt={dt}): k=0 mode exact to {err:.2e}")


def test_selftest_tolerances_are_the_pinned_ones():
    assert len(selftest.CHECKS) == len(ORACLE_TOLERANCES)
    assert {n: b for n, _, _, b in selftest.CHECKS} == ORACLE_TOLERANCES
    assert {n for n, _, d, _ in selftest.CHECKS if d == ">"} == {
        "leapfrog-lossy", "fourth-order-symbol"}
    assert {d for _, _, d, _ in selftest.CHECKS} == {"<", ">"}
