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
every error (unknown section or key, duplicate key, type mismatch, a value
outside its key's rules) with line numbers instead of stopping at the first.

Six recipes: ergodicity (N-particle relaxation to the Gibbs law),
meanfield_decay (VFP free energy / entropy / modulated energy decay),
chaos_scaling (marginal and joint W2 against N), concentration (error-term
aggregates against N), constants_table (rate recipes), assumptions
(potential screening).  Every recipe writes one CSV per series plus a JSON
report; all randomness derives from the seed, so reruns are byte-identical
regardless of --threads.
"""

import itertools
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .chaos_metrics import (_MAX_ASSIGNMENT, _map_indexed,
                            concentration_check, error_statistics,
                            w2_exact, w2_gaussian_spectral)
from .constants import (build_weight_matrix, thm13_constants,
                        thm14_case1_constants, thm14_case2_constants)
from .dynamics import (ModelParams, PhaseEnsemble, RngSpec, sample_f_infty,
                       sample_gibbs, step_particle_system)
from .equilibrium import (_MIN_NODES, _RHO_TOL, Axis, GridDensity,
                          _closed_form, _coverage_check, _has_closed_form,
                          assemble_f_infty, formal_equilibrium,
                          maxwellian_factor, solve_rho_infty)
from .errors import ConfigError, ConvergenceError
from .kinetic_pde import (_LEAST_FIT_POINTS, KineticState, fit_decay,
                          free_energy, modulated_energy,
                          relative_entropy_grid, step_vfp)
from .potentials import (PotentialSpec, Verdict, _harmonic_L_W, _json_default,
                         check_assumptions, make_system)

_SECTIONS = ("experiment", "potential", "model", "constants", "numerics")

# what a rule's relation asks of a value; "one of" takes a tuple of choices
_RELATIONS = {"at least": operator.ge, "above": operator.gt,
              "at most": operator.le,
              "one of": lambda got, choices: got in choices}

# the rules that two recipes share
_STEP = ("above", 0, "the time step")
_HORIZON = ("above", 0, "the time horizon")
_W2_CAP = ("at most", _MAX_ASSIGNMENT, "the W2 assignment solver's cap")
_NODES = ("at least", _MIN_NODES, "the least node count of a grid axis")
_X_MAX = ("above", 0, "the x grid spans [-x_max, x_max]")
_SPACING = ("above", 0, "the checkpoint spacing")

# numerics keys per recipe: name -> (type, default, *rules); "int_list" is a
# list of ints, whose every entry must keep its rules.  A rule is (relation,
# bound, why), checked with the key's finiteness on the key's own line
_NUMERICS_SCHEMA = {
    "ergodicity": {
        "N": ("int", 64, ("at least", 2, "the W2 floor compares two halves "
                          "of N reference points"), _W2_CAP),
        "dt": ("float", 0.01, _STEP), "T": ("float", 20.0, _HORIZON),
        "checkpoint_every": ("float", 0.25, _SPACING),
        "scheme": ("str", "baoab", ("one of", ("baoab", "euler_maruyama"),
                                    "the particle integrators")),
    },
    "meanfield_decay": {
        "nx": ("int", 128, _NODES), "nv": ("int", 128, _NODES),
        "x_max": ("float", 9.0, _X_MAX),
        "v_max": ("float", 9.0, ("above", 0, "the v grid spans [-v_max, "
                                 "v_max] / sqrt(beta)")),
        "dt": ("float", 0.002, _STEP), "T": ("float", 10.0, _HORIZON),
        "checkpoint_every": ("float", 0.05, _SPACING),
        "n_w2": ("int", 1024, ("at least", 1, "each W2 checkpoint draws n_w2 "
                               "points"), _W2_CAP),
        "fit_lo": ("float", 0.15), "fit_hi": ("float", 0.9),
    },
    "chaos_scaling": {
        "N_list": ("int_list", [8, 16, 32, 64, 128, 256, 512],
                   ("at least", 1, "each N is a particle count")),
        "N_mc_list": ("int_list", [8, 32, 128],
                      ("at least", 1, "each N is a particle count")),
        "n_mc": ("int", 8, ("at least", 1, "the sampled repetitions per N"),
                 ("at most", 1000, "repetition rep of N point idx draws from "
                  "rng.derive(10_000 (idx + 1) + 10 rep + 0..2), so "
                  "repetition 1000 would share the next point's noise")),
        "n_cloud": ("int", 8192, ("at least", 1, "each W2 compares two "
                                  "clouds of n_cloud points")),
    },
    "concentration": {
        "N_list": ("int_list", [8, 16, 32, 64, 128, 256, 512],
                   ("at least", 2, "each error term sums over the pairs of N "
                    "particles")),
        "n_mc": ("int", 200, ("at least", 1, "each N averages its n_mc "
                              "ensembles")),
        "nx": ("int", 513, _NODES), "x_max": ("float", 8.0, _X_MAX),
    },
    "constants_table": {},
    "assumptions": {},
}

# the verdicts of each recipe, in report order; RunReport.add_verdict refuses
# any other name, and run_experiment a report that lists not exactly these
_VERDICTS = {
    "ergodicity": ("w2_reaches_floor", "rate_at_least_thm13_c", "fit_r2"),
    "meanfield_decay": ("mass_drift_per_step", "free_energy_monotone",
                        "entropy_decay_fit", "modulated_energy_decay_fit",
                        "w2_below_modulated_energy"),
    "chaos_scaling": ("sampled_matches_analytic_3se",),
    "concentration": ("slope_R0", "slope_R1", "slope_R3",
                      "zero_kernel_control"),
    "constants_table": ("all_outputs_finite_positive",),
    "assumptions": ("A1", "A2", "A3", "A4", "A5"),
}

_RECIPES = tuple(_NUMERICS_SCHEMA)

_MODEL_SCHEMA = {"gamma": ("float", 1.0), "sigma": ("float", 1.0),
                 "beta": ("float", 1.0)}

# recipes whose oracles take the stationary law at beta, which is the law of
# the dynamics, exp(-(gamma/sigma) H), only when sigma * beta = gamma
_FLUCTUATION_DISSIPATION = ("ergodicity", "chaos_scaling", "meanfield_decay")

# recipes whose oracle is the Gaussian closed form
_CLOSED_FORM = ("ergodicity", "chaos_scaling")

_LOG_SOBOLEV = ("above", 0, "a log-Sobolev constant")
_GIVEN = ("above", 0, "it replaces the built potential's constant")

_CONSTANTS_SCHEMA = {
    "rho_LS": ("float", 1.0, _LOG_SOBOLEV),
    "rho_ls": ("float", 1.0, _LOG_SOBOLEV),
    "rho_wls": ("float", 1.0, _LOG_SOBOLEV),
    "theta": ("float", 0.25, ("above", 0, "the weight exponent of the "
                              "Hessian growth condition")),
    "d": ("int", 1, ("at least", 1, "the dimension")),
    "a_rule": ("str", "min", ("one of", ("remark", "proof", "min"),
                              "the Theorem 1.4 choices of a")),
    "meanfield_variant": ("bool", False),
    "C_K": ("float", None, _GIVEN), "C_V": ("float", None, _GIVEN),
    "C_V_theta": ("float", None, _GIVEN),
    "W_grad_sup": ("float", None, _GIVEN),
}

_EXPERIMENT_SCHEMA = {"recipe": ("str", None), "seed": ("int", 0),
                      "out_dir": ("str", "out")}


@dataclass
class ExperimentConfig:
    """A validated config: the built `spec` and `params`, and the entries
    they were built from, which the report echoes."""

    recipe: str
    seed: int
    out_dir: str
    potential: dict
    model: dict
    constants: dict
    numerics: dict
    spec: PotentialSpec
    params: ModelParams

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
            # a bad header's keys are errors until the next good one
            name, current = line[1:-1].strip(), None
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
            elif name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]; "
                              f"expected one of {', '.join(_SECTIONS)}")
            elif name in sections:
                errors.append(f"line {lineno}: section [{name}] appears twice")
            else:
                current, sections[name] = name, {}
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


def _where(locations):
    """'line a, b' of the document lines among `locations`, then the flags."""

    lines = sorted(loc for loc in locations if isinstance(loc, int))
    return ", ".join([f"line {', '.join(map(str, lines))}"] * bool(lines)
                     + [loc for loc in locations if not isinstance(loc, int)])


def _coerce(value, want):
    """Return the coerced value or None if the type does not fit."""

    if want == "int_list":
        got = ([_coerce(item, "int") for item in value]
               if isinstance(value, list) else [])
        return got if got and None not in got else None
    if want == "bool":
        return value if isinstance(value, bool) else None
    if want == "str":
        return value if isinstance(value, str) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None  # true and false are no numbers
    if want == "float":
        return float(value)
    if isinstance(value, int) or value.is_integer():
        return int(value)
    return None


def _apply_schema(section_name, entries, schema, errors, recipe=None,
                  finite=True):
    """The section's values with the defaults filled in.  A key whose value
    fails its type, its finiteness (unless `finite` is false) or one of its
    rules is an error on its line and is left out, so the rules that span
    several keys can tell it failed; a `recipe` is named in rule errors."""

    out = {}
    for key, (value, loc) in entries.items():
        if key not in schema:
            errors.append(f"{_where([loc])}: unknown key '{key}' in "
                          f"[{section_name}]")
            continue
        want, _, *rules = schema[key]
        got = _coerce(value, want)
        where = f"{_where([loc])}: [{section_name}] {key}"
        if got is None:
            errors.append(f"{where} must be {want}, got {value!r}")
            continue
        if finite and isinstance(got, float) and not math.isfinite(got):
            # NaN passes every bound and infinity some
            errors.append(f"{where} must be finite, got {got}")
            continue
        many = isinstance(got, list)
        for relation, bound, why in rules:
            if not all(_RELATIONS[relation](item, bound)
                       for item in (got if many else [got])):
                if relation == "one of":
                    bound = ", ".join(bound)
                for_recipe = f" for recipe '{recipe}'" if recipe else ""
                errors.append(f"{where}{' entries' * many} must be "
                              f"{relation} {bound}{for_recipe} ({why}), got "
                              f"{got!r}")
                break
        else:
            out[key] = got
    for key, (_, default, *_) in schema.items():
        if key not in entries and default is not None:
            out[key] = default
    return out


# the families of a [potential] section that leaves one out; a document
# without the section takes the baseline pair
_DEFAULT_FAMILIES = {"v_family": "quadratic", "w_family": "zero"}
_DEFAULT_POTENTIAL = {"v_family": "quadratic", "v_curvature": 1.0,
                      "w_family": "harmonic_W", "w_L_W": 0.25}


def _validate_potential(entries, errors):
    """The [potential] entries with the defaults filled in; the build checks
    the families and the values, on the lines of their side."""

    out = {}
    for key, (value, loc) in entries.items():
        if key.startswith(("v_", "w_")):
            out[key] = value
        else:
            errors.append(f"{_where([loc])}: unknown key '{key}' in "
                          "[potential]; parameters take v_/w_ prefixes")
    return {**_DEFAULT_FAMILIES, **(out or _DEFAULT_POTENTIAL)}


def _lines(entries, pick):
    """Where the section entries whose key `pick` accepts were set, or the
    section's first entry when it accepts none."""

    return _where([loc for key, (_, loc) in entries.items() if pick(key)]
                  or [next((loc for _, loc in entries.values()), "line ?")])


def _check_recipe_inputs(recipe, sections, spec, params, numerics, errors):
    """The rules that span several keys: fluctuation-dissipation, positive
    friction and noise, the step counts and checkpoints, distinct N, the
    closed form and the W of concentration and constants_table, asked of the
    built spec and model, line-numbered.  A key that failed its own rules is
    missing from `numerics`, and the rules that read it are skipped."""

    gap = 0.0 if params is None \
        else params.sigma * params.beta - params.gamma
    if recipe in _FLUCTUATION_DISSIPATION and abs(gap) > 1e-12:
        lines = _lines(sections["model"], lambda key: key in _MODEL_SCHEMA)
        errors.append(
            f"{lines}: recipe '{recipe}' needs sigma * beta = gamma (its "
            f"oracles use the law at beta, the dynamics are stationary at "
            f"exp(-(gamma/sigma) H)), got sigma * beta - gamma = {gap!r}")
    # ModelParams admits gamma = sigma = 0, the deterministic limit
    if (recipe in ("ergodicity", "meanfield_decay", "constants_table")
            and params is not None and 0 in (params.gamma, params.sigma)):
        lines = _lines(sections["model"], lambda k: k in ("gamma", "sigma"))
        errors.append(f"{lines}: recipe '{recipe}' needs gamma > 0 and sigma "
                      f"> 0 (the rate recipes and the VFP step take both "
                      f"positive), got gamma = {params.gamma}, sigma = "
                      f"{params.sigma}")
    # the recipes with a time span: ergodicity and meanfield_decay
    spans = ("T", "dt", "checkpoint_every")
    window = ("fit_lo", "fit_hi") if recipe == "meanfield_decay" else ()
    if all(key in numerics for key in spans):
        # the defaults pass, so at least one of the spans is set
        lines = _lines(sections.get("numerics", {}), lambda key: key in spans)
        got = ", ".join(f"{key} = {numerics[key]}" for key in spans)
        if not all(math.isfinite(numerics[key] / numerics["dt"])
                   for key in ("T", "checkpoint_every")):
            errors.append(f"{lines}: [numerics] T / dt and checkpoint_every "
                          f"/ dt must be finite step counts for recipe "
                          f"'{recipe}', got {got}")
        elif all(key in numerics for key in window):
            # ergodicity fits its decay over every checkpoint, and
            # meanfield_decay its decays over [fit_lo T, fit_hi T]
            ends = [numerics[key] * numerics["T"] for key in window]
            count = _checkpoints_within(numerics, *(ends or (0.0, math.inf)))
            if count < _LEAST_FIT_POINTS:
                # the defaults pass, so a span or a window end is set
                keys = spans + window
                lines = _lines(sections["numerics"], lambda key: key in keys)
                got = ", ".join(f"{key} = {numerics[key]}" for key in keys)
                inside = (f" in the fit window [fit_lo T, fit_hi T] = {ends}"
                          if window else "")
                fits = "fits need" if window else "fit needs"
                errors.append(
                    f"{lines}: [numerics] {got} give {count} checkpoint(s)"
                    f"{inside} for recipe '{recipe}', whose decay {fits} at "
                    f"least {_LEAST_FIT_POINTS}")
    # every recipe with an N_list fits a slope against N
    if "N_list" in numerics and len(set(numerics["N_list"])) < 2:
        loc = sections["numerics"]["N_list"][1]  # the default passes
        errors.append(f"{_where([loc])}: [numerics] N_list needs at least two "
                      f"distinct values for recipe '{recipe}', got "
                      f"{numerics['N_list']}")
    # the v grid must hold the Maxwellian that assemble_f_infty takes on it;
    # its share depends on v_max alone, so the failing v_max is set
    if "v_max" in numerics and "nv" in numerics and params is not None:
        try:
            maxwellian_factor(params, _v_axis(numerics, params))
        except ValueError as exc:
            lines = _lines(sections["numerics"], lambda key: key == "v_max")
            errors.append(f"{lines}: [numerics] v_max = {numerics['v_max']} "
                          f"for recipe '{recipe}': {exc}")
    if spec is None:
        return  # its build error names the family or parameter at fault
    # the x grid must hold exp(-beta V) to the tol that solve_rho_infty asks
    # by default; the defaults pass, so x_max, beta or a V entry is set
    if "x_max" in numerics and "nx" in numerics and params is not None:
        axis = Axis(-numerics["x_max"], numerics["x_max"], numerics["nx"])
        try:
            _coverage_check(spec, params, axis, _RHO_TOL)
        except ValueError as exc:
            lines = _where([loc for name, prefix in (
                ("numerics", "x_max"), ("model", "beta"), ("potential", "v_"))
                for key, (_, loc) in sections.get(name, {}).items()
                if key.startswith(prefix)])
            errors.append(f"{lines}: [numerics] x_max = {axis.hi} for recipe "
                          f"'{recipe}': {exc}; widen x_max")
    entries = sections.get("potential", {})
    if recipe in _CLOSED_FORM and not _has_closed_form(spec):
        # the defaults pass, so a failing pair names at least one family
        lines = _lines(entries, lambda key: key in ("v_family", "w_family"))
        errors.append(f"{lines}: recipe '{recipe}' needs the closed-form "
                      f"Gaussian family: quadratic V with harmonic_W (or "
                      f"zero) W, got {spec.V.family}/{spec.W.family}")
    # W = 0 or harmonic W, on the lines that set W, on the first [potential]
    # entry when W is that section's default, or on the recipe line when the
    # whole section is
    if recipe == "concentration" and _harmonic_L_W(spec.W) is not None:
        lines = _lines(entries or {"recipe": sections["experiment"]["recipe"]},
                       lambda key: key.startswith("w_"))
        errors.append(f"{lines}: recipe 'concentration' needs an "
                      f"interaction W other than zero or harmonic_W, got "
                      f"{spec.W.family}: with W = 0 every error term is "
                      f"exactly 0, and a harmonic K' is constant, so R1 is "
                      f"exactly L_W/N and its aggregate falls like 1/N^2; "
                      f"neither has a 1/N slope to fit")
    elif recipe == "constants_table":
        # the rate constants take C_K and C_V positive and finite: a built
        # one that is not (W = 0; V = zero, or an unbounded Hessian of V)
        # must be set in [constants], on the lines of its side
        given = sections.get("constants", {})
        for name, side, what in (("C_K", "w_", "W = 0"),
                                 ("C_V", "v_", f"V = {spec.V.family}")):
            value = getattr(spec, name)
            if name in given or 0 < value < math.inf:
                continue
            lines = _lines(entries, lambda key: key.startswith(side))
            need = f"{name} > 0" if value <= 0 else f"a finite {name}"
            errors.append(f"{lines}: recipe 'constants_table' with {what} "
                          f"has {name} = {value:g}, and the rate constants "
                          f"need {need}: set [constants] {name}")


def parse_config(text):
    """Parse, validate and build a config document; raises ConfigError with
    every problem found (line-numbered), not just the first."""

    errors = []
    return _build_config(_read_sections(text, errors), errors)


def _build_config(sections, errors, also_recipe=None):
    """Validate and build sections of {key: (value, line or flag)}; raises
    ConfigError with `errors` and every problem found.  The rules of
    `also_recipe` that read no numerics key are asked too, in the same pass,
    for a command that computes that recipe's output whatever the document's
    recipe."""

    exp = _apply_schema("experiment", sections.get("experiment", {}),
                        _EXPERIMENT_SCHEMA, errors)
    recipe = exp.get("recipe")
    if recipe is None:
        errors.append("[experiment] recipe is required")
    elif recipe not in _RECIPES:
        loc = sections["experiment"]["recipe"][1]
        errors.append(f"{_where([loc])}: unknown recipe {recipe!r}; expected "
                      f"one of {', '.join(_RECIPES)}")
        recipe = None

    # the one build of the spec and the model; a failure is an error on the
    # [potential] lines of the side at fault, or on the [model] lines
    spec = params = None
    entries = sections.get("potential", {})
    potential = _validate_potential(entries, errors)
    try:
        spec = build_potential_spec(potential)
    except ValueError as exc:
        side = exc.side.lower() + "_"
        lines = _lines(entries, lambda key: key.startswith(side))
        errors.append(f"{lines}: {exc}")
    # ModelParams checks finiteness, on the lines of the [model] section
    model = _apply_schema("model", sections.get("model", {}), _MODEL_SCHEMA,
                          errors, finite=False)
    try:
        params = ModelParams(**model)
    except ValueError as exc:
        lines = _lines(sections["model"], lambda key: key in _MODEL_SCHEMA)
        errors.append(f"{lines}: {exc}")
    consts = _apply_schema("constants", sections.get("constants", {}),
                           _CONSTANTS_SCHEMA, errors)

    numerics = {}
    if recipe is not None:
        numerics = _apply_schema("numerics", sections.get("numerics", {}),
                                 _NUMERICS_SCHEMA[recipe], errors, recipe)
        _check_recipe_inputs(recipe, sections, spec, params, numerics,
                             errors)
    if also_recipe not in (None, recipe):
        _check_recipe_inputs(also_recipe, sections, spec, params, {}, errors)

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(recipe=recipe, seed=exp["seed"],
                            out_dir=exp["out_dir"], potential=potential,
                            model=model, constants=consts, numerics=numerics,
                            spec=spec, params=params)


# unread by the package; perfbench/child.py parses its workloads with it
def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_potential_spec(potential_cfg):
    """PotentialSpec from the flattened v_*/w_* parameter keys; the one
    builder, called by every config build."""

    v_params = {k[2:]: v for k, v in potential_cfg.items()
                if k.startswith("v_") and k != "v_family"}
    w_params = {k[2:]: v for k, v in potential_cfg.items()
                if k.startswith("w_") and k != "w_family"}
    return make_system(potential_cfg["v_family"], v_params,
                       potential_cfg["w_family"], w_params)


@dataclass
class RunReport:
    """Everything a recipe produced: series, verdicts, scalars, timings."""

    recipe: str
    seed: int
    config_echo: dict
    verdicts: dict = field(default_factory=dict)  # name -> Verdict
    tables: dict = field(default_factory=dict)   # name -> (columns, rows)
    scalars: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)    # name -> file text
    timings: dict = field(default_factory=dict)
    version: str = __version__

    def add_verdict(self, name, passed, measured, threshold, detail=""):
        self.add_record(name, Verdict("pass" if passed else "fail", measured,
                                      threshold, detail))

    def add_record(self, name, verdict):
        """Keep a Verdict under a name of _VERDICTS[recipe] not yet used."""

        if name not in _VERDICTS.get(self.recipe, ()) or name in self.verdicts:
            raise ValueError(f"recipe {self.recipe!r} declares no verdict "
                             f"{name!r} or has it already")
        self.verdicts[name] = verdict

    def add_table(self, name, columns, rows):
        self.tables[name] = (tuple(columns), [tuple(r) for r in rows])

    def passed(self):
        return all(v.passed for v in self.verdicts.values())

    def as_dict(self):
        return {"recipe": self.recipe, "seed": self.seed,
                "version": self.version, "config": self.config_echo,
                "verdicts": [{"name": name, "passed": v.passed,
                              "measured": v.measured, "threshold": v.threshold,
                              "detail": v.detail}
                             for name, v in self.verdicts.items()],
                "scalars": self.scalars, "timings": self.timings,
                "tables": {name: {"columns": list(cols), "n_rows": len(rows)}
                           for name, (cols, rows) in self.tables.items()}}


def _fmt_cell(cell):
    # repr of a Python float is the shortest round-trip form; numpy scalars
    # are unwrapped first so their verbose numpy-2 repr never leaks into CSV
    if type(cell) is float:
        return repr(cell)
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return str(cell)


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
                fh.write(",".join(map(_fmt_cell, row)) + "\n")
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


def _v_axis(num, params):
    """The meanfield_decay v grid: nv nodes on [-v_max, v_max] / sqrt(beta)."""

    half = num["v_max"] / math.sqrt(params.beta)
    return Axis(-half, half, num["nv"])


def _schedule(num):
    """(steps, steps per checkpoint) of a run of span T at step dt."""

    return (round(num["T"] / num["dt"]),
            max(1, round(num["checkpoint_every"] / num["dt"])))


def _window_steps(num, t0, t1):
    """(first, last) step of a run inside the time window [t0, t1].  Step k
    is taken at t = k dt; the runners add dt up step by step, so the window
    ends get a slack of 1e-6 steps, which counts a record on the edge as
    inside."""

    n_steps, _ = _schedule(num)
    # the window ends in steps, clipped to [-1, n_steps + 1] so that no
    # infinite quotient reaches ceil or floor
    lo, hi = (min(max(t / num["dt"] + slack, -1.0), n_steps + 1.0)
              for t, slack in ((t0, -1e-6), (t1, 1e-6)))
    return max(0, math.ceil(lo)), min(n_steps, math.floor(hi))


def _checkpoints_within(num, t0, t1):
    """How many checkpoint records of a run fall in [t0, t1]: one at t = 0,
    one every `every` steps and one after the last step."""

    n_steps, every = _schedule(num)
    first, last = _window_steps(num, t0, t1)
    if first > last:
        return 0
    count = last // every - (first - 1) // every
    return count + (n_steps % every != 0 and first <= n_steps <= last)


def _run_ergodicity(cfg, report, threads):
    del threads  # single trajectory; nothing to fan out
    spec, params = cfg.spec, cfg.params
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    N, dt = num["N"], num["dt"]
    n_steps, every = _schedule(num)

    consts = thm13_constants(params.gamma, params.sigma,
                             max(spec.C_K, 1e-12), spec.C_V,
                             cfg.constants["rho_LS"])
    closed = _closed_form(spec, params.beta, N)

    gen = rng.sampler(0)
    ref = np.column_stack([
        math.sqrt(closed.marginal_var_x1) * gen.standard_normal(N),
        math.sqrt(closed.var_v) * gen.standard_normal(N)])
    half = N // 2
    floor = w2_exact(ref[:half], ref[half:2 * half])
    threshold = 2.0 * floor

    x0 = np.full((N, 1), 3.0 * math.sqrt(closed.marginal_var_x1))
    Z = PhaseEnsemble(x0, np.zeros((N, 1)))
    w2_rows = []
    traj_rows = []

    def record(Z):
        cloud = np.column_stack([Z.positions[:, 0], Z.velocities[:, 0]])
        w2 = w2_exact(cloud, ref)
        w2_rows.append((Z.time, w2, w2 * w2))
        traj_rows.extend(zip(itertools.repeat(Z.time), range(N),
                             Z.positions[:, 0].tolist(),
                             Z.velocities[:, 0].tolist()))

    record(Z)
    for k in range(n_steps):
        Z = step_particle_system(Z, spec, params, dt, scheme=num["scheme"],
                                 rng=rng)
        if (k + 1) % every == 0 or k + 1 == n_steps:
            record(Z)

    ts, w2s = np.array(w2_rows).T[:2]
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
    spec, params = cfg.spec, cfg.params
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)

    x_axis = Axis(-num["x_max"], num["x_max"], num["nx"])
    v_axis = _v_axis(num, params)
    rho_inf = _converged_rho_infty(spec, params, x_axis)
    f_inf = assemble_f_infty(rho_inf, params, v_axis)
    F_inf = free_energy(f_inf, spec, params).total

    # the Fisher weight (delta, a): the decay theorems hold for "some choice"
    # of weights, this one keeps the modulated energy above W2^2 at desk scale
    weights = build_weight_matrix("M1_constant", 1.0, 1.5)

    # perturbed Gaussian start: shifted in both position and velocity
    X, Vv = np.meshgrid(x_axis.nodes, v_axis.nodes, indexing="ij")
    raw = np.exp(-0.5 * params.beta * ((X - 1.0) ** 2 + (Vv - 0.5) ** 2))
    state = KineticState(GridDensity.from_values(x_axis, raw, v_axis))

    dt, T = num["dt"], num["T"]
    n_steps, every = _schedule(num)
    w2_times = {round(frac * T / dt): None for frac in
                (0.08, 0.16, 0.24, 0.32, 0.40)}

    def functionals(state, F):
        """(H_W, H_formal, I_M, E_M) of a checkpoint state of free energy F."""

        f_hat = formal_equilibrium(state.density, spec, params, v_axis)
        E_M = modulated_energy(state, spec, params, weights, f_inf,
                               f_hat=f_hat, free_energy_infty=F_inf,
                               free_energy_f=F)
        H_formal = relative_entropy_grid(state.density, f_hat)
        return E_M.free_energy_gap, H_formal, E_M.fisher, E_M.total

    prev_F = free_energy(state, spec, params).total
    rows = [(0.0, prev_F, *functionals(state, prev_F), 1.0)]
    E_M0 = rows[0][5]
    steps = [0]  # the step of each row
    w2_rows = []
    max_increase = 0.0
    max_drift = 0.0
    for k in range(1, n_steps + 1):
        state = step_vfp(state, spec, params, dt)
        F_now = free_energy(state, spec, params).total
        max_increase = max(max_increase, F_now - prev_F)
        prev_F = F_now
        max_drift = max(max_drift, abs(state.mass_drift))
        at_checkpoint = k % every == 0 or k == n_steps
        if not (at_checkpoint or k in w2_times):
            continue
        H_W, H_formal, I_M, E_M = functionals(state, F_now)
        if at_checkpoint:
            rows.append((state.time, F_now, H_W, H_formal, I_M, E_M,
                         1.0 + state.mass_drift))
            steps.append(k)
        if k in w2_times:
            a = state.density.sample_phase(rng.sampler(100 + len(w2_rows)),
                                           num["n_w2"])
            b = f_inf.sample_phase(rng.sampler(200 + len(w2_rows)),
                                   num["n_w2"])
            w2_rows.append((state.time, w2_exact(a, b) ** 2, E_M))

    # the fits take the records that the config's window rule counted,
    # picked by step, not by the summed time stamps
    window = (num["fit_lo"] * T, num["fit_hi"] * T)
    first, last = _window_steps(num, *window)
    fit_rows = np.array([row for k, row in zip(steps, rows)
                         if first <= k <= last])
    fit_H, fit_EM = (replace(fit_decay(fit_rows[:, 0], fit_rows[:, column]),
                             window=window) for column in (3, 5))

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
    for name, fit in (("entropy_decay_fit", fit_H),
                      ("modulated_energy_decay_fit", fit_EM)):
        report.add_verdict(name, fit.rate > 0 and fit.r2 >= 0.95,
                           {"rate": fit.rate, "r2": fit.r2},
                           {"rate": 0.0, "r2": 0.95})
    sandwich = all(r[2] >= r[1] for r in w2_rows)
    report.add_verdict("w2_below_modulated_energy", sandwich,
                       [list(r) for r in w2_rows],
                       "E_M >= sampled W2^2 at every checkpoint")


def _run_chaos_scaling(cfg, report, threads):
    spec, params = cfg.spec, cfg.params
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    closed = {N: _closed_form(spec, params.beta, N)
              for N in {*num["N_list"], *num["N_mc_list"]}}
    var_mf = closed[num["N_list"][0]].var_x    # rho_inf's, in every record

    def marginal_gap(N):
        """W2^2 between the x_1 marginal of the N-particle law and rho_inf."""

        return w2_gaussian_spectral(((closed[N].marginal_var_x1, 1),),
                                    ((var_mf, 1),))

    scaling_rows = [
        (N, marginal_gap(N), w2_gaussian_spectral(
            closed[N].covariance_spectrum(), ((var_mf, N),)) / N)
        for N in num["N_list"]]
    report.add_table("scaling", ("N", "marginal_w2_sq",
                                 "joint_w2_sq_per_particle"), scaling_rows)

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

    sampled_rows = _map_indexed(one_point, len(num["N_mc_list"]), threads)
    ok = not any(abs(mean_net - analytic) > 3.0 * se
                 for _, mean_net, se, analytic in sampled_rows)
    report.add_table("sampled", ("N", "w2_sq_mc", "se_boot",
                                 "w2_sq_analytic"), sampled_rows)
    report.add_verdict("sampled_matches_analytic_3se", ok,
                       [[r[0], r[1], r[3], r[2]] for r in sampled_rows],
                       "|mc - analytic| <= 3 se per N")


def _run_concentration(cfg, report, threads):
    spec, params = cfg.spec, cfg.params
    num = cfg.numerics
    rng = RngSpec(seed=cfg.seed)
    axis = Axis(-num["x_max"], num["x_max"], num["nx"])
    rho_inf = _converged_rho_infty(spec, params, axis)

    result = concentration_check(spec, rho_inf, params, num["N_list"],
                                 num["n_mc"], rng, threads)
    report.timings["sweep_points"] = list(result.timings)
    rows = []
    for t, means, ses in zip(result.terms, result.mean, result.se):
        slope, slope_se, r2 = result.fits[t] or (math.nan,) * 3
        k = int(t[1:])  # the paper's term number
        rows.extend((k, N, m, se, slope, slope_se, r2) for N, m, se
                    in zip(num["N_list"], means, ses))
        passed = math.isfinite(slope) and -1.3 <= slope <= -0.7 and r2 >= 0.8
        report.add_verdict(f"slope_{t}", passed,
                           {"slope": slope, "slope_se": slope_se, "r2": r2},
                           {"slope": [-1.3, -0.7], "r2": 0.8})
    report.add_table("concentration",
                     ("k", "N", "mean_aggregate", "se", "slope", "slope_se",
                      "r2"), rows)

    # zero-kernel control: the run's V with no interaction must give
    # identically zero error terms; the ensemble is drawn from rho_inf, so it
    # stays on the table grid
    zero_spec = make_system(spec.V.family, spec.V.params(), d=spec.d)
    x, vel = sample_f_infty(rho_inf, params, 32, rng.derive(1))
    stats = error_statistics(PhaseEnsemble(x[:, None], vel[:, None]),
                             zero_spec, rho_inf, params)
    all_zero = all(v == 0.0 for v in stats.aggregates.values())
    report.add_verdict("zero_kernel_control", all_zero,
                       stats.aggregates, 0.0, "W = 0 gives exact zeros")


def _run_constants_table(cfg, report, threads):
    """The three rate records of the config's built spec and model, with each
    constant that [constants] sets taken from there."""

    del threads
    c, spec, params = cfg.constants, cfg.spec, cfg.params

    def given(name, built):
        return c[name] if c.get(name) is not None else built

    def finite_positive(value):
        return value if math.isfinite(value) and value > 0 else 1.0

    gamma, sigma = params.gamma, params.sigma
    C_K, C_V = given("C_K", spec.C_K), given("C_V", spec.C_V)
    records = [
        thm13_constants(gamma, sigma, C_K, C_V, c["rho_LS"]),
        thm14_case1_constants(gamma, sigma, C_K, C_V, c["rho_ls"],
                              c["a_rule"]),
        thm14_case2_constants(
            gamma, sigma, C_K,
            given("C_V_theta", finite_positive(spec.C_V_theta)), c["theta"],
            given("W_grad_sup", finite_positive(spec.W_grad_sup)),
            c["rho_wls"], c["d"], c["meanfield_variant"])]
    report.scalars.update((rec.tag, rec.as_dict()) for rec in records)
    rows = [(rec.tag, key, value) for rec in records
            for key, value in rec._outputs().items()]
    report.add_table("constants", ("tag", "name", "value"), rows)
    report.texts["constants.txt"] = "\n\n".join(r.table() for r in records) \
        + "\n"
    finite = all(math.isfinite(value) and value > 0 for *_, value in rows)
    report.add_verdict("all_outputs_finite_positive", finite, finite, True)


def _run_assumptions(cfg, report, threads):
    del threads
    result = check_assumptions(cfg.spec, seed=cfg.seed)
    for name in _VERDICTS["assumptions"]:
        report.add_record(name, result.verdicts[name])
    report.add_table("assumptions", ("assumption", "status", "margin"),
                     [(name, v.status, v.margin)
                      for name, v in report.verdicts.items()])
    report.scalars["report"] = result.as_dict()
    report.scalars["potential"] = cfg.spec.describe()


_RECIPE_RUNNERS = {
    "ergodicity": _run_ergodicity,
    "meanfield_decay": _run_meanfield_decay,
    "chaos_scaling": _run_chaos_scaling,
    "concentration": _run_concentration,
    "constants_table": _run_constants_table,
    "assumptions": _run_assumptions,
}


def run_experiment(config, threads=1):
    """Execute a validated config and return its RunReport, whose verdicts
    are its recipe's declared names in order (else ValueError)."""

    report = RunReport(recipe=config.recipe, seed=config.seed,
                       config_echo=config.as_dict())
    start = time.perf_counter()
    _RECIPE_RUNNERS[config.recipe](config, report, threads)
    report.timings["wall_seconds"] = time.perf_counter() - start
    if tuple(report.verdicts) != _VERDICTS[config.recipe]:
        raise ValueError(f"recipe {config.recipe!r} reported verdicts "
                         f"{list(report.verdicts)}, not the declared "
                         f"{list(_VERDICTS[config.recipe])}")
    return report
