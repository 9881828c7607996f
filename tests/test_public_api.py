"""The public API, frozen: the names `kinchaos` exports and the signatures
of the README's Library entry points.  A change to either is a change of
the package's observable behaviour, and shows as a diff of this file."""

import inspect

import kinchaos

EXPORTS = [
    "AssumptionReport", "Axis", "BlowUpError", "ConfigError",
    "ConvergenceError", "DecayFit", "ErrorStats", "ExperimentConfig",
    "GibbsSamples", "GridDensity", "KinchaosError", "KineticState",
    "ModelParams", "PhaseEnsemble", "PotentialSpec", "RngSpec", "RunReport",
    "SchemeError", "StabilityError", "StrictAssumptionError",
    "TheoremConstants", "WeightMatrix", "assemble_f_infty",
    "build_weight_matrix", "chaos_metrics", "check_assumptions",
    "concentration_check", "constants", "dynamics", "entropy_knn",
    "equilibrium", "error_statistics", "error_statistics_reference",
    "errors", "fit_decay", "formal_equilibrium", "free_energy",
    "gaussian_closed_form", "harness", "kinetic_pde", "make_system",
    "modulated_energy", "parse_config", "potentials",
    "relative_entropy_grid", "run_experiment", "sample_f_infty",
    "sample_gibbs", "solve_rho_infty", "step_mckean_vlasov",
    "step_particle_system", "step_vfp", "thm13_constants",
    "thm14_case1_constants", "thm14_case2_constants", "thm15_bound",
    "w2_exact", "w2_gaussian", "w2_gaussian_spectral", "weighted_fisher",
    "write_report",
]

SIGNATURES = {
    "make_system":
        "(v_family, v_params=None, w_family='zero', w_params=None, d=1)",
    "step_particle_system":
        "(Z, spec, params, dt, scheme='baoab', rng=None, unsafe_dt=False)",
    "solve_rho_infty": "(spec, params, grid, tol=1e-10, max_iter=500)",
    "gaussian_closed_form": "(lam_V, L_W, beta, N)",
    "concentration_check":
        "(spec, rho_inf, params, n_values, n_mc, rng, threads=1)",
    "error_statistics":
        "(ensemble, spec, rho_inf, params=None, tables=None)",
    "parse_config": "(text)",
    "run_experiment": "(config, threads=1)",
    "write_report": "(report, out_dir)",
}


def test_exports_are_frozen():
    assert sorted(kinchaos.__all__) == EXPORTS


def test_library_entry_point_signatures_are_frozen():
    assert {name: str(inspect.signature(getattr(kinchaos, name)))
            for name in SIGNATURES} == SIGNATURES
