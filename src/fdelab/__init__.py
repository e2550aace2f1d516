"""fdelab: desk-scale laboratory for fast-diffusion extinction asymptotics.

Building blocks: uniform interval / radial-ball grids with a symmetric
discrete Dirichlet Laplacian, stationary profiles of -lap V = c V^p, the
weighted eigenproblem -lap phi = lambda V^(p-1) phi, implicit-Euler flows
(original, rescaled, linearized), entropy and almost-orthogonality
diagnostics, and exponential-rate extraction with the delay-ODE barrier.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalFailure, StepFailure
from .grid import (DomainSpec, Grid, apply_laplacian, build_domain,
                   dirichlet_energy, integrate)
from .stationary import (Exponents, StationaryProfile, boundary_slope_bounds,
                         oracle_profile_1d, solve_stationary)
from .spectrum import (EigenSystem, GapReport, PoincareMargins,
                       check_improved_poincare, classify_gap, deflate,
                       linear_entropy, project_coefficients,
                       weighted_eigensystem)
from .flow import (ExtinctionEstimate, FlowState, Trajectory, discrete_rate,
                   estimate_extinction_time, evolve, lattice_step, march,
                   sample_rate, step_linearized, step_original, step_rescaled)
from .diagnostics import (ComparisonConstants, EntropyReport, EntropyTrace,
                          ReportWeights, benilan_crandall_margin,
                          delayed_ratio_sup, entropy_density, entropy_report,
                          linear_trace_rows, nonlinear_entropy,
                          power_difference, production_residual,
                          quotient_smallness_times, rayleigh_compare,
                          sandwich_check, smoothing_check,
                          time_monotonicity_check, trace_csv)
from .rates import (DelayOdeRun, EntropyBand, ExplicitWindow, RateFit,
                    RateVerdict, band_passage_closed, delay_supersolution,
                    fit_rate, integrate_delay_ode, sharp_rate_verdict,
                    supersolution_residual)
from .pipeline import (ClockCalibration, StageSetup, match_extinction_clock,
                       mode_perturbed_field, prepare, run_extinction_pipeline,
                       run_linearized, run_nonlinear_rate_case, run_rescaled)
