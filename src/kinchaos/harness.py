"""Experiment orchestration: config parsing, recipes, CSV/JSON reports.

Config documents are sectioned key = value text:

    [experiment]
    recipe = ergodicity
    seed = 42
    out_dir = out

    [potential]
    v_family = quadratic
    v_curvature = 1.0
    w_family = harmonic_W
    w_L_W = 0.25

    [model]
    gamma = 1.0
    sigma = 1.0
    beta = 1.0

    [numerics]
    N = 64
    dt = 0.01
    T = 20.0

Values are JSON: numbers, true/false, quoted strings, [lists]; bare words
read as strings.  Full-line comments start with # or ;.  Parsing collects
every error (unknown section or key, duplicate key, type mismatch) with line
numbers instead of stopping at the first.

Six recipes: ergodicity (N-particle relaxation to the Gibbs law),
meanfield_decay (VFP free energy / entropy / modulated energy decay),
chaos_scaling (marginal and joint W2 against N), concentration (error-term
aggregates against N), constants_table (rate recipes), assumptions
(potential screening).  Every recipe writes one CSV per series plus a JSON
report; all randomness derives from the seed, so reruns are byte-identical
regardless of --threads.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chaos_metrics import (_map_indexed, concentration_check,
                            error_statistics, loglog_fit, w2_exact,
                            w2_gaussian_spectral)
from .constants import (OUTPUT_NAMES, build_weight_matrix, thm13_constants,
                        thm14_case1_constants, thm14_case2_constants)
from .dynamics import (ModelParams, PhaseEnsemble, RngSpec, sample_f_infty,
                       sample_gibbs, step_particle_system)
from .equilibrium import (Axis, GridDensity, assemble_f_infty,
                          formal_equilibrium, gaussian_closed_form,
                          solve_rho_infty)
from .errors import ConfigError, ConvergenceError
from .kinetic_pde import (KineticState, fit_decay, free_energy,
                          modulated_energy, relative_entropy_grid, step_vfp)
from .potentials import check_assumptions, make_system

_SECTIONS = ("experiment", "potential", "model", "constants", "numerics")

_RECIPES = ("ergodicity", "meanfield_decay", "chaos_scaling",
            "concentration", "constants_table", "assumptions")

# numerics keys per recipe: name -> (type, default); "int_list" is a list of ints
_NUMERICS_SCHEMA = {
    "ergodicity": {
        "N": ("int", 64), "dt": ("float", 0.01), "T": ("float", 20.0),
        "checkpoint_every": ("float", 0.25), "floor_factor": ("float", 2.0),
        "scheme": ("str", "baoab"),
    },
    "meanfield_decay": {
        "nx": ("int", 128), "nv": ("int", 128), "x_max": ("float", 9.0),
        "v_max": ("float", 9.0), "dt": ("float", 0.002), "T": ("float", 10.0),
        "checkpoint_every": ("float", 0.05), "n_w2": ("int", 1024),
        "fit_lo": ("float", 0.15), "fit_hi": ("float", 0.9),
    },
    "chaos_scaling": {
        "N_list": ("int_list", [8, 16, 32, 64, 128, 256, 512]),
        "N_mc_list": ("int_list", [8, 32, 128]),
        "n_mc": ("int", 8), "n_cloud": ("int", 8192),
    },
    "concentration": {
        "N_list": ("int_list", [8, 16, 32, 64, 128, 256, 512]),
        "n_mc": ("int", 200), "nx": ("int", 513), "x_max": ("float", 8.0),
    },
    "constants_table": {},
    "assumptions": {},
}

_MODEL_SCHEMA = {"gamma": ("float", 1.0), "sigma": ("float", 1.0),
                 "beta": ("float", 1.0)}

# recipes whose oracles take the stationary law at beta, which is the law of
# the dynamics, exp(-(gamma/sigma) H), only when sigma * beta = gamma
_FLUCTUATION_DISSIPATION = ("ergodicity", "chaos_scaling", "meanfield_decay")

# recipes that fit a slope against N, which needs two distinct N
_N_SWEEPS = ("chaos_scaling", "concentration")

_CONSTANTS_SCHEMA = {
    "rho_LS": ("float", 1.0), "rho_ls": ("float", 1.0),
    "rho_wls": ("float", 1.0), "theta": ("float", 0.25),
    "d": ("int", 1), "a_rule": ("str", "min"),
    "meanfield_variant": ("bool", False),
    "C_K": ("float", None), "C_V": ("float", None),
    "C_V_theta": ("float", None), "W_grad_sup": ("float", None),
    # weight matrix used by the meanfield_decay Fisher term; the decay
    # theorems hold for "some choice" of weights, this one keeps the
    # modulated energy above W2^2 at desk scale
    "fisher_delta": ("float", 1.0), "fisher_a": ("float", 1.5),
}

_EXPERIMENT_SCHEMA = {"recipe": ("str", None), "seed": ("int", 0),
                      "out_dir": ("str", "out")}


@dataclass
class ExperimentConfig:
    recipe: str
    seed: int
    out_dir: str
    potential: dict
    model: dict
    constants: dict
    numerics: dict

    def as_dict(self):
        return {"recipe": self.recipe, "seed": self.seed,
                "out_dir": self.out_dir, "potential": dict(self.potential),
                "model": dict(self.model), "constants": dict(self.constants),
                "numerics": dict(self.numerics)}


def _parse_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare word -> string


def _read_sections(text, errors):
    """First pass: sections of {key: (value, line_number)}."""

    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
                current = None
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]; "
                              f"expected one of {', '.join(_SECTIONS)}")
                current = None
                continue
            if name in sections:
                errors.append(f"line {lineno}: section [{name}] appears twice")
                current = None
                continue
            current = name
            sections[name] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        if key in sections[current]:
            first = sections[current][key][1]
            errors.append(f"line {lineno}: duplicate key '{key}' in "
                          f"[{current}] (first set at line {first})")
            continue
        sections[current][key] = (_parse_value(raw_val), lineno)
    return sections


def _coerce(value, want):
    """Return the coerced value or None if the type does not fit."""

    if want == "int":
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return None
    if want == "float":
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            return float(value)
        return None
    if want == "bool":
        return value if isinstance(value, bool) else None
    if want == "str":
        return value if isinstance(value, str) else None
    if want == "int_list":
        if not isinstance(value, list) or not value:
            return None
        out = []
        for item in value:
            got = _coerce(item, "int")
            if got is None:
                return None
            out.append(got)
        return out
    raise AssertionError(want)


def _apply_schema(section_name, entries, schema, errors):
    out = {}
    for key, (value, lineno) in entries.items():
        if key not in schema:
            errors.append(f"line {lineno}: unknown key '{key}' in "
                          f"[{section_name}]")
            continue
        want = schema[key][0]
        got = _coerce(value, want)
        if got is None:
            errors.append(f"line {lineno}: [{section_name}] {key} must be "
                          f"{want}, got {value!r}")
            continue
        out[key] = got
    for key, (want, default) in schema.items():
        if key not in out and default is not None:
            out[key] = default
    return out


_DEFAULT_POTENTIAL = {"v_family": "quadratic", "v_curvature": 1.0,
                      "w_family": "harmonic_W", "w_L_W": 0.25}


def _validate_potential(entries, errors):
    out = {}
    for key, (value, lineno) in entries.items():
        if key in ("v_family", "w_family"):
            if not isinstance(value, str):
                errors.append(f"line {lineno}: [potential] {key} must be a "
                              "family name string")
                continue
            out[key] = value
        elif key.startswith("v_") or key.startswith("w_"):
            if not isinstance(value, (int, float, str)) \
                    or isinstance(value, bool):
                errors.append(f"line {lineno}: [potential] {key} must be a "
                              f"number or string, got {value!r}")
                continue
            out[key] = value
        else:
            errors.append(f"line {lineno}: unknown key '{key}' in [potential]"
                          "; parameters take v_/w_ prefixes")
    if "v_family" not in out and "w_family" not in out and not entries:
        out.update(_DEFAULT_POTENTIAL)
    out.setdefault("v_family", "quadratic")
    out.setdefault("w_family", "zero")
    return out


def _check_recipe_inputs(recipe, sections, model, numerics, errors):
    """The fluctuation-dissipation relation and the N sweep, line-numbered."""

    gap = model["sigma"] * model["beta"] - model["gamma"]
    if recipe in _FLUCTUATION_DISSIPATION and abs(gap) > 1e-12:
        lines = sorted(line for key, (_, line)
                       in sections.get("model", {}).items()
                       if key in _MODEL_SCHEMA)
        errors.append(
            f"line {', '.join(map(str, lines))}: recipe '{recipe}' needs "
            f"sigma * beta = gamma (its oracles use the law at beta, the "
            f"dynamics are stationary at exp(-(gamma/sigma) H)), got "
            f"sigma * beta - gamma = {gap!r}")
    if recipe in _N_SWEEPS and len(set(numerics["N_list"])) < 2:
        line = sections.get("numerics", {}).get("N_list", (None, "?"))[1]
        errors.append(f"line {line}: [numerics] N_list needs at least two "
                      f"distinct values for recipe '{recipe}', got "
                      f"{numerics['N_list']}")


def parse_config(text):
    """Parse and validate a config document; raises ConfigError with every
    problem found (line-numbered), not just the first."""

    errors = []
    sections = _read_sections(text, errors)

    exp = _apply_schema("experiment", sections.get("experiment", {}),
                        _EXPERIMENT_SCHEMA, errors)
    recipe = exp.get("recipe")
    if recipe is None:
        errors.append("[experiment] recipe is required")
    elif recipe not in _RECIPES:
        line = sections.get("experiment", {}).get("recipe", (None, "?"))[1]
        errors.append(f"line {line}: unknown recipe {recipe!r}; expected one "
                      f"of {', '.join(_RECIPES)}")
        recipe = None

    potential = _validate_potential(sections.get("potential", {}), errors)
    model = _apply_schema("model", sections.get("model", {}), _MODEL_SCHEMA,
                          errors)
    consts = _apply_schema("constants", sections.get("constants", {}),
                           _CONSTANTS_SCHEMA, errors)

    numerics = {}
    if recipe is not None:
        schema = _NUMERICS_SCHEMA[recipe]
        numerics = _apply_schema("numerics", sections.get("numerics", {}),
                                 schema, errors)
        if recipe in ("ergodicity", "chaos_scaling"):
            fams = (potential.get("v_family"), potential.get("w_family"))
            if fams != ("quadratic", "harmonic_W") \
                    and fams != ("quadratic", "zero"):
                errors.append(f"recipe '{recipe}' needs the closed-form "
                              "Gaussian family: quadratic V with harmonic_W "
                              f"(or zero) W, got {fams[0]}/{fams[1]}")
        _check_recipe_inputs(recipe, sections, model, numerics, errors)

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(recipe=recipe, seed=exp["seed"],
                            out_dir=exp["out_dir"], potential=potential,
                            model=model, constants=consts, numerics=numerics)


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_potential_spec(potential_cfg):
    """PotentialSpec from the flattened v_*/w_* parameter keys."""

    v_params = {k[2:]: v for k, v in potential_cfg.items()
                if k.startswith("v_") and k != "v_family"}
    w_params = {k[2:]: v for k, v in potential_cfg.items()
                if k.startswith("w_") and k != "w_family"}
    return make_system(potential_cfg["v_family"], v_params,
                       potential_cfg["w_family"], w_params)


def build_model_params(model_cfg):
    return ModelParams(gamma=model_cfg["gamma"], sigma=model_cfg["sigma"],
                       beta=model_cfg["beta"])


@dataclass
class RunReport:
    """Everything a recipe produced: series, verdicts, scalars, timings."""

    recipe: str
    seed: int
    config_echo: dict
    verdicts: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)   # name -> (columns, rows)
    scalars: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)    # name -> file text
    timings: dict = field(default_factory=dict)
    version: str = __version__

    def add_verdict(self, name, passed, measured, threshold, detail=""):
        self.verdicts.append({
            "name": name, "passed": bool(passed), "measured": measured,
            "threshold": threshold, "detail": detail})

    def add_table(self, name, columns, rows):
        self.tables[name] = (tuple(columns), [tuple(r) for r in rows])

    def passed(self):
        return all(v["passed"] for v in self.verdicts)

    def as_dict(self):
        return {"recipe": self.recipe, "seed": self.seed,
                "version": self.version, "config": self.config_echo,
                "verdicts": self.verdicts, "scalars": self.scalars,
                "timings": self.timings,
                "tables": {name: {"columns": list(cols), "n_rows": len(rows)}
                           for name, (cols, rows) in self.tables.items()}}


def _fmt_cell(cell):
    # repr of a Python float is the shortest round-trip form; numpy scalars
    # are unwrapped first so their verbose numpy-2 repr never leaks into CSV
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return str(cell)


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_report(report, out_dir):
    """One CSV per table, one text file per text, and report.json."""

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, (columns, rows) in sorted(report.tables.items()):
        path = os.path.join(out_dir, f"{report.recipe}_{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# recipe={report.recipe} seed={report.seed} "
                     f"rng=philox version={report.version}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(c) for c in row) + "\n")
        paths.append(path)
    for name, text in sorted(report.texts.items()):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        paths.append(path)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    paths.append(path)
    return paths


# ---------------------------------------------------------------- recipes

def _converged_rho_infty(spec, params, axis):
    """solve_rho_infty, raising ConvergenceError when it hits max_iter."""

    rho_inf = solve_rho_infty(spec, params, axis)
    if not rho_inf.meta["converged"]:
        raise ConvergenceError(
            f"rho_infty fixed point not converged after "
            f"{rho_inf.meta['iterations']} iterations "
            f"(L1 residual {rho_inf.meta['residual']:.3e})")
    return rho_inf


def _run_ergodicity(cfg, report, threads):
    del threads  # single trajectory; nothing to fan out
    spec = build_potential_spec(cfg.potential)
    params = build_model_params(cfg.model)
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    N, dt, T = num["N"], num["dt"], num["T"]
    every = max(1, round(num["checkpoint_every"] / dt))
    n_steps = round(T / dt)

    consts = thm13_constants(cfg.model["gamma"], cfg.model["sigma"],
                             max(spec.C_K, 1e-12), spec.C_V,
                             cfg.constants["rho_LS"])
    lam_V = spec.V.curvature
    L_W = spec.W.L_W if cfg.potential["w_family"] == "harmonic_W" else 0.0
    closed = gaussian_closed_form(lam_V, L_W, params.beta, N)

    gen = rng.sampler(0)
    ref = np.column_stack([
        math.sqrt(closed.marginal_var_x1) * gen.standard_normal(N),
        math.sqrt(closed.var_v) * gen.standard_normal(N)])
    half = N // 2
    floor = w2_exact(ref[:half], ref[half:2 * half])
    threshold = num["floor_factor"] * floor

    x0 = np.full((N, 1), 3.0 * math.sqrt(closed.marginal_var_x1))
    Z = PhaseEnsemble(x0, np.zeros((N, 1)))
    w2_rows = []
    traj_rows = []

    def record(Z):
        cloud = np.column_stack([Z.positions[:, 0], Z.velocities[:, 0]])
        w2 = w2_exact(cloud, ref)
        w2_rows.append((Z.time, w2, w2 * w2))
        for i in range(N):
            traj_rows.append((Z.time, i, Z.positions[i, 0],
                              Z.velocities[i, 0]))

    record(Z)
    for k in range(n_steps):
        Z = step_particle_system(Z, spec, params, dt, scheme=num["scheme"],
                                 rng=rng)
        if (k + 1) % every == 0 or k + 1 == n_steps:
            record(Z)

    ts = np.array([r[0] for r in w2_rows])
    w2s = np.array([r[1] for r in w2_rows])
    below = np.nonzero(w2s <= threshold)[0]
    cut = int(below[0]) if below.size else len(ts) - 1
    cut = max(cut, 4)  # at least 5 checkpoints in the fit window
    fit = fit_decay(ts[:cut + 1], w2s[:cut + 1])

    report.add_table("w2_series", ("t", "w2", "w2_sq"), w2_rows)
    report.add_table("trajectory", ("t", "particle", "x", "v"), traj_rows)
    report.scalars.update({
        "floor": floor, "threshold": threshold, "w2_final": float(w2s[-1]),
        "marginal_var_x1": closed.marginal_var_x1,
        "thm13": consts.as_dict(), "fit": fit.as_dict()})
    report.add_verdict("w2_reaches_floor", w2s[-1] <= threshold,
                       float(w2s[-1]), threshold,
                       f"floor={floor:.4g} from split reference halves")
    report.add_verdict("rate_at_least_thm13_c", fit.rate >= consts.rate,
                       fit.rate, consts.rate,
                       "theory rate is a lower bound on observed decay")
    report.add_verdict("fit_r2", fit.r2 >= 0.9, fit.r2, 0.9,
                       f"window [{fit.window[0]}, {fit.window[1]}]")


def _run_meanfield_decay(cfg, report, threads):
    del threads  # one PDE trajectory
    spec = build_potential_spec(cfg.potential)
    params = build_model_params(cfg.model)
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)

    x_axis = Axis(-num["x_max"], num["x_max"], num["nx"])
    v_axis = Axis(-num["v_max"] / math.sqrt(params.beta),
                  num["v_max"] / math.sqrt(params.beta), num["nv"])
    rho_inf = _converged_rho_infty(spec, params, x_axis)
    f_inf = assemble_f_infty(rho_inf, params, v_axis)
    F_inf = free_energy(f_inf, spec, params).total

    weights = build_weight_matrix("M1_constant", cfg.constants["fisher_delta"],
                                  cfg.constants["fisher_a"])

    # perturbed Gaussian start: shifted in both position and velocity
    X, Vv = np.meshgrid(x_axis.nodes, v_axis.nodes, indexing="ij")
    raw = np.exp(-0.5 * params.beta * ((X - 1.0) ** 2 + (Vv - 0.5) ** 2))
    state = KineticState(GridDensity.from_values(x_axis, raw, v_axis))

    dt, T = num["dt"], num["T"]
    n_steps = round(T / dt)
    every = max(1, round(num["checkpoint_every"] / dt))
    w2_times = {round(frac * T / dt): None for frac in
                (0.08, 0.16, 0.24, 0.32, 0.40)}

    def functionals(state):
        """(H_W, H_formal, I_M, E_M) of a checkpoint state."""

        f_hat = formal_equilibrium(state.density.marginal_x(), spec, params,
                                   v_axis)
        E_M = modulated_energy(state, spec, params, weights, f_inf,
                               f_hat=f_hat, free_energy_infty=F_inf)
        H_formal = relative_entropy_grid(state.density, f_hat)
        return E_M.free_energy_gap, H_formal, E_M.fisher, E_M.total

    rows = []
    w2_rows = []
    F0 = free_energy(state, spec, params).total
    H_W0, H_f0, I_M0, E_M0 = functionals(state)
    rows.append((0.0, F0, H_W0, H_f0, I_M0, E_M0, 1.0))
    prev_F = F0
    max_increase = 0.0
    max_drift = 0.0
    w2_idx = 0
    for k in range(1, n_steps + 1):
        state = step_vfp(state, spec, params, dt)
        F_now = free_energy(state, spec, params).total
        max_increase = max(max_increase, F_now - prev_F)
        prev_F = F_now
        max_drift = max(max_drift, abs(state.mass_drift))
        at_checkpoint = k % every == 0 or k == n_steps
        if not (at_checkpoint or k in w2_times):
            continue
        H_W, H_formal, I_M, E_M = functionals(state)
        if at_checkpoint:
            rows.append((state.time, F_now, H_W, H_formal, I_M, E_M,
                         1.0 + state.mass_drift))
        if k in w2_times:
            a = state.density.sample_phase(rng.sampler(100 + w2_idx),
                                           num["n_w2"])
            b = f_inf.sample_phase(rng.sampler(200 + w2_idx), num["n_w2"])
            w2sq = w2_exact(a, b) ** 2
            w2_rows.append((state.time, w2sq, E_M))
            w2_idx += 1

    ts = np.array([r[0] for r in rows])
    window = (num["fit_lo"] * T, num["fit_hi"] * T)
    fit_H = fit_decay(ts, np.array([r[3] for r in rows]), window)
    fit_EM = fit_decay(ts, np.array([r[5] for r in rows]), window)

    report.add_table("decay", ("t", "F", "H_W", "H_formal", "I_M", "E_M",
                               "mass"), rows)
    report.add_table("w2_checkpoints", ("t", "w2_sq_sampled", "E_M"), w2_rows)
    report.scalars.update({
        "F_infty": F_inf, "max_mass_drift": max_drift,
        "max_free_energy_increase": max_increase,
        "E_M_initial": E_M0,
        "thm15_C_front": (1.0 + cfg.constants["rho_LS"]) * 2.0 * E_M0,
        "rho_iterations": rho_inf.meta["iterations"],
        "fit_H": fit_H.as_dict(), "fit_E_M": fit_EM.as_dict()})
    report.add_verdict("mass_drift_per_step", max_drift <= 1e-10,
                       max_drift, 1e-10)
    report.add_verdict("free_energy_monotone", max_increase <= 1e-8,
                       max_increase, 1e-8,
                       "max per-step increase of F")
    report.add_verdict("entropy_decay_fit",
                       fit_H.rate > 0 and fit_H.r2 >= 0.95,
                       {"rate": fit_H.rate, "r2": fit_H.r2},
                       {"rate": 0.0, "r2": 0.95})
    report.add_verdict("modulated_energy_decay_fit",
                       fit_EM.rate > 0 and fit_EM.r2 >= 0.95,
                       {"rate": fit_EM.rate, "r2": fit_EM.r2},
                       {"rate": 0.0, "r2": 0.95})
    sandwich = all(r[2] >= r[1] for r in w2_rows)
    report.add_verdict("w2_below_modulated_energy", sandwich,
                       [[r[0], r[1], r[2]] for r in w2_rows],
                       "E_M >= sampled W2^2 at every checkpoint")


def _run_chaos_scaling(cfg, report, threads):
    spec = build_potential_spec(cfg.potential)
    params = build_model_params(cfg.model)
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    beta = params.beta
    lam_V = spec.V.curvature
    L_W = spec.W.L_W if cfg.potential["w_family"] == "harmonic_W" else 0.0

    var_mf = gaussian_closed_form(lam_V, L_W, beta, 1).var_x
    gap_sq = (math.sqrt(1.0 / (beta * lam_V)) - math.sqrt(var_mf)) ** 2

    def marginal_gap(N):
        """W2^2 between the x_1 marginal of the N-particle law and rho_inf."""

        return (math.sqrt(gaussian_closed_form(lam_V, L_W, beta,
                                               N).marginal_var_x1)
                - math.sqrt(var_mf)) ** 2

    scaling_rows = []
    joint_vals = []
    marginal_vals = []
    for N in num["N_list"]:
        closed = gaussian_closed_form(lam_V, L_W, beta, N)
        marginal = marginal_gap(N)
        joint_pp = w2_gaussian_spectral(
            closed.covariance_spectrum(), ((var_mf, N),)) / N
        scaling_rows.append((N, marginal, joint_pp))
        joint_vals.append(joint_pp)
        marginal_vals.append(marginal)
    report.add_table("scaling", ("N", "marginal_w2_sq",
                                 "joint_w2_sq_per_particle"), scaling_rows)

    dev = max(abs(N * jv - gap_sq) for N, jv in
              zip(num["N_list"], joint_vals))
    report.scalars["joint_gap_sq"] = gap_sq
    report.add_verdict("joint_w2_sq_matches_closed_form",
                       dev <= 1e-12 * max(gap_sq, 1.0), dev,
                       1e-12, "max |N * value - closed form| over N")
    if gap_sq > 0:
        slope, slope_se, r2 = loglog_fit(num["N_list"], joint_vals)
        report.scalars["joint_slope"] = slope
        report.add_verdict("joint_slope_minus_one", abs(slope + 1.0) <= 1e-3,
                           slope, -1.0)
    else:
        report.add_verdict("joint_slope_minus_one", True, 0.0, -1.0,
                           "zero interaction: identical laws, slope vacuous")

    C_fit = max(N * m for N, m in zip(num["N_list"], marginal_vals))
    report.scalars["C_fit_marginal"] = C_fit
    below = all(m <= C_fit / N * (1 + 1e-12) for N, m in
                zip(num["N_list"], marginal_vals))
    report.add_verdict("marginal_below_C_over_N", below, C_fit, None,
                       "marginal W2^2 <= C_fit / N with fitted C")

    if num["n_mc"] <= 0:
        return
    n_cloud = num["n_cloud"]
    reps = num["n_mc"]

    def one_point(idx):
        N = num["N_mc_list"][idx]
        nets = []
        for rep in range(reps):
            base = 10_000 * (idx + 1) + 10 * rep
            a1 = sample_gibbs(spec, params, N, n_cloud,
                              rng=rng.derive(base)).positions[:, 0, 0]
            a2 = sample_gibbs(spec, params, N, n_cloud,
                              rng=rng.derive(base + 1)).positions[:, 0, 0]
            gen = rng.derive(base + 2).sampler()
            b1 = math.sqrt(var_mf) * gen.standard_normal(n_cloud)
            b2 = math.sqrt(var_mf) * gen.standard_normal(n_cloud)
            net = (w2_exact(a1, b1) ** 2
                   - 0.5 * w2_exact(a1, a2) ** 2
                   - 0.5 * w2_exact(b1, b2) ** 2)
            nets.append(net)
        nets = np.asarray(nets)
        boot_gen = rng.derive(10_000 * (idx + 1) + 9999).sampler()
        picks = boot_gen.integers(0, reps, size=(500, reps))
        se = float(np.std(nets[picks].mean(axis=1), ddof=1))
        return N, float(nets.mean()), se, marginal_gap(N)

    points = _map_indexed(one_point, len(num["N_mc_list"]), threads)
    sampled_rows = []
    ok = True
    for N, mean_net, se, analytic in points:
        sampled_rows.append((N, mean_net, se, analytic))
        if abs(mean_net - analytic) > 3.0 * se:
            ok = False
    report.add_table("sampled", ("N", "w2_sq_mc", "se_boot",
                                 "w2_sq_analytic"), sampled_rows)
    report.add_verdict("sampled_matches_analytic_3se", ok,
                       [[r[0], r[1], r[3], r[2]] for r in sampled_rows],
                       "|mc - analytic| <= 3 se per N")


def _run_concentration(cfg, report, threads):
    spec = build_potential_spec(cfg.potential)
    params = build_model_params(cfg.model)
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    axis = Axis(-num["x_max"], num["x_max"], num["nx"])
    rho_inf = _converged_rho_infty(spec, params, axis)

    result = concentration_check(spec, rho_inf, params, num["N_list"],
                                 num["n_mc"], rng, threads)
    rows = []
    for k, t in enumerate(result.terms):
        slope, slope_se, r2 = result.fits[t] or (math.nan,) * 3
        rows.extend((k, N, m, se, slope, slope_se, r2)
                    for N, m, se in result.table(t))
        passed = math.isfinite(slope) and -1.3 <= slope <= -0.7 and r2 >= 0.8
        report.add_verdict(f"slope_R{k}", passed,
                           {"slope": slope, "slope_se": slope_se, "r2": r2},
                           {"slope": [-1.3, -0.7], "r2": 0.8})
    report.add_table("concentration",
                     ("k", "N", "mean_aggregate", "se", "slope", "slope_se",
                      "r2"), rows)

    # zero-kernel control: no interaction means identically zero error terms;
    # the ensemble is drawn from rho_inf, so it stays on the table grid
    zero_spec = build_potential_spec(
        {**{k: v for k, v in cfg.potential.items() if k.startswith("v_")},
         "w_family": "zero"})
    x, vel = sample_f_infty(rho_inf, params, 32, rng.derive(1))
    stats = error_statistics(PhaseEnsemble(x[:, None], vel[:, None]),
                             zero_spec, rho_inf, params)
    all_zero = all(v == 0.0 for v in stats.aggregates.values())
    report.add_verdict("zero_kernel_control", all_zero,
                       stats.aggregates, 0.0, "W = 0 gives exact zeros")


def _assemble_constant_inputs(cfg, spec):
    c = cfg.constants
    return {
        "gamma": cfg.model["gamma"], "sigma": cfg.model["sigma"],
        "C_K": c["C_K"] if c.get("C_K") is not None else spec.C_K,
        "C_V": c["C_V"] if c.get("C_V") is not None else spec.C_V,
        "C_V_theta": c["C_V_theta"] if c.get("C_V_theta") is not None
        else (spec.C_V_theta if math.isfinite(spec.C_V_theta)
              and spec.C_V_theta > 0 else 1.0),
        "W_grad_sup": c["W_grad_sup"] if c.get("W_grad_sup") is not None
        else (spec.W_grad_sup if math.isfinite(spec.W_grad_sup)
              and spec.W_grad_sup > 0 else 1.0),
        "theta": c["theta"], "d": c["d"], "a_rule": c["a_rule"],
        "rho_LS": c["rho_LS"], "rho_ls": c["rho_ls"],
        "rho_wls": c["rho_wls"],
        "meanfield_variant": c["meanfield_variant"],
    }


def constants_records(cfg):
    """The three rate records for a config; shared by recipe and CLI."""

    spec = build_potential_spec(cfg.potential)
    inp = _assemble_constant_inputs(cfg, spec)
    t13 = thm13_constants(inp["gamma"], inp["sigma"], inp["C_K"], inp["C_V"],
                          inp["rho_LS"])
    t14c1 = thm14_case1_constants(inp["gamma"], inp["sigma"], inp["C_K"],
                                  inp["C_V"], inp["rho_ls"], inp["a_rule"])
    t14c2 = thm14_case2_constants(inp["gamma"], inp["sigma"], inp["C_K"],
                                  inp["C_V_theta"], inp["theta"],
                                  inp["W_grad_sup"], inp["rho_wls"], inp["d"],
                                  inp["meanfield_variant"])
    return [t13, t14c1, t14c2]


def _run_constants_table(cfg, report, threads):
    del threads
    records = constants_records(cfg)
    rows = []
    finite = True
    for rec in records:
        d = rec.as_dict()
        for key in OUTPUT_NAMES:
            if key in d:
                rows.append((rec.tag, key, d[key]))
                finite = finite and math.isfinite(d[key]) and d[key] > 0
        report.scalars[rec.tag] = d
    report.add_table("constants", ("tag", "name", "value"), rows)
    report.texts["constants.txt"] = "\n\n".join(r.table() for r in records) \
        + "\n"
    report.add_verdict("all_outputs_finite_positive", finite, finite, True)


def _run_assumptions(cfg, report, threads):
    del threads
    spec = build_potential_spec(cfg.potential)
    result = check_assumptions(spec, theta=cfg.constants["theta"],
                               seed=cfg.seed)
    rows = []
    for name in sorted(result.verdicts):
        v = result.verdicts[name]
        rows.append((name, v.status, v.margin))
        report.add_verdict(name, v.status == "pass", v.status,
                           "pass", v.note)
    report.add_table("assumptions", ("assumption", "status", "margin"), rows)
    report.scalars["report"] = result.as_dict()
    report.scalars["potential"] = spec.describe()


_RECIPE_RUNNERS = {
    "ergodicity": _run_ergodicity,
    "meanfield_decay": _run_meanfield_decay,
    "chaos_scaling": _run_chaos_scaling,
    "concentration": _run_concentration,
    "constants_table": _run_constants_table,
    "assumptions": _run_assumptions,
}


def run_experiment(config, threads=1):
    """Execute a validated config and return its RunReport."""

    report = RunReport(recipe=config.recipe, seed=config.seed,
                       config_echo=config.as_dict())
    start = time.perf_counter()
    _RECIPE_RUNNERS[config.recipe](config, report, threads)
    report.timings["wall_seconds"] = time.perf_counter() - start
    return report
