"""The public API, frozen: the names `kinchaos` exports, the signatures
of the README's Library entry points and the public fields of the exported
dataclasses.  A change to any of them is a change of the package's
observable behaviour, and shows as a diff of this file."""

import dataclasses
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

FIELDS = {
    "AssumptionReport": ("verdicts", "theta", "seed", "notes"),
    "Axis": ("lo", "hi", "n"),
    "DecayFit": ("rate", "intercept", "r2", "n_used", "n_skipped", "window"),
    "ErrorStats": ("r0", "r1", "r3", "aggregates"),
    "ExperimentConfig": ("recipe", "seed", "out_dir", "potential", "model",
                         "constants", "numerics", "spec", "params"),
    "GibbsSamples": ("positions", "velocities", "method", "acceptance_rate",
                     "warning", "info"),
    "GridDensity": ("x_axis", "values", "v_axis", "meta"),
    "KineticState": ("density", "time", "step", "mass_drift"),
    "ModelParams": ("gamma", "sigma", "beta"),
    "PhaseEnsemble": ("positions", "velocities", "time", "step"),
    "PotentialSpec": ("V", "W", "d", "lam", "M_lb", "C_V", "C_K", "theta",
                      "C_V_theta", "W_grad_sup"),
    "RngSpec": ("seed", "stream"),
    "RunReport": ("recipe", "seed", "config_echo", "verdicts", "tables",
                  "scalars", "texts", "timings", "version"),
    "TheoremConstants": ("tag", "inputs", "a", "delta", "rate", "sigma_star",
                         "H0_min", "m2_prime", "m2_doubleprime", "flags"),
    "WeightMatrix": ("kind", "delta", "a", "theta", "H0", "potential"),
}


def test_exports_are_frozen():
    assert sorted(kinchaos.__all__) == EXPORTS


def test_library_entry_point_signatures_are_frozen():
    assert {name: str(inspect.signature(getattr(kinchaos, name)))
            for name in SIGNATURES} == SIGNATURES


def test_exported_dataclass_fields_are_frozen():
    # every exported dataclass, its fields in declaration order; a leading
    # underscore marks a private field
    fields = {}
    for name in kinchaos.__all__:
        obj = getattr(kinchaos, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            fields[name] = tuple(f.name for f in dataclasses.fields(obj)
                                 if not f.name.startswith("_"))
    assert fields == FIELDS
