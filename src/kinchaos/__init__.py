"""Interacting kinetic particle systems, their Vlasov-Fokker-Planck
mean-field limit, and the explicit convergence-rate recipes tying the two
together: integrators, equilibria, distances, error-term diagnostics and
reproducible experiment recipes."""

__version__ = "0.1.0"

from .chaos_metrics import (ErrorStats, concentration_check, entropy_knn,
                            error_statistics, error_statistics_reference,
                            w2_exact, w2_gaussian, w2_gaussian_spectral)
from .constants import (TheoremConstants, WeightMatrix, build_weight_matrix,
                        thm13_constants, thm14_case1_constants,
                        thm14_case2_constants, thm15_bound)
from .dynamics import (GibbsSamples, ModelParams, PhaseEnsemble, RngSpec,
                       sample_f_infty, sample_gibbs, step_mckean_vlasov,
                       step_particle_system)
from .equilibrium import (Axis, GridDensity, assemble_f_infty,
                          formal_equilibrium, gaussian_closed_form,
                          solve_rho_infty)
from .errors import (BlowUpError, ConfigError, ConvergenceError,
                     EvaluationOverflow, KinchaosError, SchemeError,
                     StabilityError, StrictAssumptionError)
from .harness import (ExperimentConfig, RunReport, parse_config,
                      run_experiment, write_report)
from .kinetic_pde import (DecayFit, KineticState, fit_decay, free_energy,
                          modulated_energy, relative_entropy_grid, step_vfp,
                          weighted_fisher)
from .potentials import (AssumptionReport, PotentialSpec, check_assumptions,
                         evaluate, interaction_kernel, make_builtin,
                         make_system, system_energy)

__all__ = [name for name in dir() if not name.startswith("_")]
