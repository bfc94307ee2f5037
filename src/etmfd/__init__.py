"""Dispersion-optimized mimetic finite differences for cold-plasma Maxwell.

A 2D rectangular-mesh solver for Maxwell's equations in cold isotropic
plasma: the parameterized edge-based mimetic family with exponential time
differencing, its dispersion-optimal (m-adapted) member, and the symbol /
convergence toolkit used to verify the accuracy claims.
"""

from .mesh import RectMesh, build_mesh, interpolate_edge_field
from .operators import (MfdParams, SingularLocalWError,
                        assemble_step_operators, local_M, local_W, local_curl,
                        optimal_params, params_for_scheme, yee_params)
from .plasma import ExpOperators, Medium, RegimeError, exp_operators
from .stepper import (SimConfig, SimState, StepOperators,
                      UnstableSimulationError, initialize, load_snapshot,
                      nu_max, run, save_snapshot, step, step_operators)
from .dispersion import (WaveVec, anisotropy_sweep, continuous_roots,
                         oscillatory_root, relative_dispersion_error,
                         spatial_symbol, spatial_symbol_bloch,
                         temporal_symbol)
from .analysis import (DegenerateFitError, ExactSolution, FitResult,
                       convergence_study, dispersion_error_metric, exact_E,
                       fit_damped_cosine, l2_relative_error,
                       make_exact_solution, mode_dofs, pick_probe_edge,
                       run_standing_mode, spatial_mode)

__version__ = "0.1.0"
