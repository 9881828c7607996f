"""Config parsing, recipe orchestration, reporting, and the CLI surface."""

import functools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from kinchaos import (chaos_metrics, cli, equilibrium, harness, kinetic_pde,
                      potentials)
from kinchaos.chaos_metrics import error_statistics
from kinchaos.cli import _CONFIG_FLAGS
from kinchaos.constants import OUTPUT_NAMES
from kinchaos.cli import main as cli_main
from kinchaos.dynamics import (ModelParams, PhaseEnsemble, RngSpec,
                              sample_f_infty)
from kinchaos.equilibrium import gaussian_closed_form
from kinchaos.errors import ConfigError
from kinchaos.harness import parse_config, run_experiment, write_report
from kinchaos.potentials import pair_panels

MINIMAL_ERGODICITY = """
[experiment]
recipe = ergodicity
seed = 3

[numerics]
N = 16
T = 4.0
"""

CHAOS_SMALL = """
[experiment]
recipe = chaos_scaling
seed = 5

[numerics]
N_list = [8, 16, 32, 64]
N_mc_list = [8, 32]
n_mc = 4
n_cloud = 2048
"""

CONCENTRATION_SMALL = """
[experiment]
recipe = concentration
seed = 7

[potential]
v_family = quadratic
v_curvature = 1.0
w_family = mollified_coulomb
w_a = 0.2
w_b = 1.0
w_k = 2.0

[numerics]
N_list = [8, 16, 32, 64]
n_mc = 40
"""

# the W of CONCENTRATION_SMALL, for a concentration document that would
# otherwise take the refused harmonic default
COULOMB_W = ("[potential]\nv_family = quadratic\nv_curvature = 1.0\n"
             "w_family = mollified_coulomb\nw_a = 0.2\nw_b = 1.0\nw_k = 2.0\n")
RECIPE_POTENTIAL = {"concentration": COULOMB_W}

# three checkpoints (t = 0.01, 0.02, 0.03) inside the default fit window
# [0.15 T, 0.9 T]; the keys sit on lines 5-7, so an appended key is line 8
MEANFIELD_SMALL = """
[experiment]
recipe = meanfield_decay
[numerics]
checkpoint_every = 0.01
nx = 64
T = 0.04
"""


def run_to_dir(text, out_dir, threads=1):
    report = run_experiment(parse_config(text), threads=threads)
    return report, write_report(report, str(out_dir))


def read_outputs(paths):
    out = {}
    for p in paths:
        if p.endswith(".csv"):
            with open(p, "rb") as fh:
                out[os.path.basename(p)] = fh.read()
    return out


# --- parse_config -------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_ERGODICITY)
    assert cfg.recipe == "ergodicity"
    assert cfg.seed == 3
    assert cfg.numerics["N"] == 16
    assert cfg.numerics["dt"] == 0.01           # default filled
    assert cfg.potential["w_family"] == "harmonic_W"
    assert cfg.model["gamma"] == 1.0


def test_unknown_recipe_rejected_with_line():
    bad = "[experiment]\nrecipe = bogus\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "unknown recipe" in str(err.value)
    assert "line 2" in str(err.value)


def test_list_key_rejected_for_scalar_recipe():
    bad = MINIMAL_ERGODICITY + "N_list = [8, 16]\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "N_list" in str(err.value)


def test_duplicate_key_rejected_with_both_lines():
    bad = "[experiment]\nrecipe = ergodicity\nseed = 1\nseed = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "line 3" in msg and "line 4" in msg


@pytest.mark.parametrize("text, errors", [
    ("[experiment]\nrecipe = ergodicity\n[numerics\nN = 16\n",
     ["line 3: malformed section header '[numerics'",
      "line 4: key outside any section"]),
    ("[experiment]\nrecipe = ergodicity\n[solver]\n",
     ["line 3: unknown section [solver]; expected one of experiment, "
      "potential, model, constants, numerics"]),
    ("[experiment]\nrecipe = ergodicity\n[experiment]\nseed = 1\n",
     ["line 3: section [experiment] appears twice",
      "line 4: key outside any section"]),
    ("[experiment]\nrecipe = ergodicity\nseed 1\n",
     ["line 3: expected 'key = value', got 'seed 1'"]),
    ("seed = 1\n[experiment]\nrecipe = ergodicity\n",
     ["line 1: key outside any section"]),
    ("[experiment]\nrecipe = ergodicity\nseed = true\n",
     ["line 3: [experiment] seed must be int, got True"]),
    ("[experiment]\nrecipe = ergodicity\n[model]\ngamma = true\n",
     ["line 4: [model] gamma must be float, got True"]),
    ("[experiment]\nrecipe = chaos_scaling\n[numerics]\nN_list = []\n",
     ["line 4: [numerics] N_list must be int_list, got []"]),
    ('[experiment]\nrecipe = chaos_scaling\n[numerics]\nN_list = [8, "a"]\n',
     ["line 4: [numerics] N_list must be int_list, got [8, 'a']"]),
], ids=["malformed_header", "unknown_section", "section_twice",
        "line_without_equals", "key_before_any_section", "bool_for_int",
        "bool_for_float", "empty_int_list", "string_in_int_list"])
def test_document_errors_name_their_line(text, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == errors


def test_type_mismatch_and_unknown_key_collected_together():
    bad = ("[experiment]\nrecipe = ergodicity\n"
           "[numerics]\nN = hello\nbogus_key = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "N" in msg and "bogus_key" in msg


def test_non_gaussian_family_rejected_for_ergodicity():
    bad = ("[experiment]\nrecipe = ergodicity\n"
           "[potential]\nv_family = power_k\nv_k = 4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "closed-form Gaussian" in str(err.value)


def test_closed_form_check_asks_the_family_classes(monkeypatch, tmp_path,
                                                   capsys):
    # the config check asks the built spec the predicate of the runners'
    # closed form, so a Gaussian family under a new name passes
    class Stiff(potentials.Quadratic):
        family = "stiff_quadratic"

    monkeypatch.setitem(potentials._FAMILIES, Stiff.family, Stiff)
    parse_config("[experiment]\nrecipe = ergodicity\n[potential]\n"
                 "v_family = stiff_quadratic\nw_family = harmonic_W\n")
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = chaos_scaling\n"
                    "[potential]\nv_family = quadratic\n"
                    "w_family = mollified_coulomb\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert ("line 4, 5: recipe 'chaos_scaling' needs the closed-form "
            "Gaussian family") in capsys.readouterr().err


@pytest.mark.parametrize("recipe", ["ergodicity", "chaos_scaling",
                                    "meanfield_decay"])
def test_fluctuation_dissipation_relation_required(recipe):
    text = (f"[experiment]\nrecipe = {recipe}\n"
            "[model]\nsigma = 2.0\nbeta = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 4, 5: " in str(err.value)
    assert "sigma * beta = gamma" in str(err.value)
    # the relation within 1e-12 and the recipes that do not need it pass
    parse_config(f"[experiment]\nrecipe = {recipe}\n"
                 "[model]\ngamma = 0.5\nsigma = 0.25\nbeta = 2.0\n")
    parse_config("[experiment]\nrecipe = constants_table\n"
                 "[model]\nsigma = 2.0\n")


def test_cli_ergodicity_with_twice_the_noise_exits_2(tmp_path, capsys):
    # at sigma = 2 the chain relaxes to a law of twice the target variance,
    # which the W2 verdicts cannot tell apart at N = 64
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = ergodicity\n"
                    "[model]\nsigma = 2\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "line 4: recipe 'ergodicity' needs sigma * beta = gamma" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base", [CHAOS_SMALL, CONCENTRATION_SMALL],
                         ids=["chaos_scaling", "concentration"])
@pytest.mark.parametrize("n_list", ["[64]", "[64, 64]"])
def test_n_sweep_needs_two_distinct_n(base, n_list, tmp_path, capsys):
    text = base.replace("N_list = [8, 16, 32, 64]", f"N_list = {n_list}")
    line = text.splitlines().index(f"N_list = {n_list}") + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"line {line}: [numerics] N_list needs at least two distinct" \
        in str(err.value)
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("text, message", [
    # a ZeroDivisionError traceback at the parent
    (CONCENTRATION_SMALL.replace("[8, 16, 32, 64]", "[0, 8]"),
     "line 15: [numerics] N_list entries must be at least 2 for recipe "
     "'concentration' (each error term sums over the pairs of N particles), "
     "got [0, 8]"),
    # a bare 'negative dimensions are not allowed' at the parent
    (CONCENTRATION_SMALL.replace("[8, 16, 32, 64]", "[-4, 16]"),
     "line 15: [numerics] N_list entries must be at least 2"),
    # ran with pairless error terms at the parent
    (CONCENTRATION_SMALL.replace("[8, 16, 32, 64]", "[1, 8]"),
     "line 15: [numerics] N_list entries must be at least 2"),
    # NaN rows, four FAILs and exit 0 at the parent
    (CONCENTRATION_SMALL.replace("n_mc = 40", "n_mc = 0"),
     "line 16: [numerics] n_mc must be at least 1 for recipe "
     "'concentration' (each N averages its n_mc ensembles), got 0"),
    # a bare 'empty clouds' at the parent
    (MINIMAL_ERGODICITY.replace("N = 16", "N = 1"),
     "line 7: [numerics] N must be at least 2 for recipe 'ergodicity' (the "
     "W2 floor compares two halves of N reference points), got 1"),
    # a bare 'need lam_V > 0, ..., N >= 1' at the parent
    (CHAOS_SMALL.replace("[8, 16, 32, 64]", "[0, 8, 16]"),
     "line 7: [numerics] N_list entries must be at least 1 for recipe "
     "'chaos_scaling' (each N is a particle count), got [0, 8, 16]"),
    (CHAOS_SMALL.replace("[8, 32]", "[0, 32]"),
     "line 8: [numerics] N_mc_list entries must be at least 1"),
    # a bare 'empty clouds' at the parent
    (CHAOS_SMALL.replace("n_cloud = 2048", "n_cloud = 0"),
     "line 10: [numerics] n_cloud must be at least 1 for recipe "
     "'chaos_scaling' (each W2 compares two clouds of n_cloud points), "
     "got 0"),
    (MEANFIELD_SMALL + "n_w2 = 0\n",
     "line 8: [numerics] n_w2 must be at least 1 for recipe "
     "'meanfield_decay' (each W2 checkpoint draws n_w2 points), got 0"),
    # 'assignment solver capped' at the first W2 checkpoint at the parent
    (MEANFIELD_SMALL + "n_w2 = 4097\n",
     "line 8: [numerics] n_w2 must be at most 4096 for recipe "
     "'meanfield_decay' (the W2 assignment solver's cap), got 4097"),
    (MINIMAL_ERGODICITY.replace("N = 16", "N = 4097"),
     "line 7: [numerics] N must be at most 4096 for recipe 'ergodicity'"),
    # a ZeroDivisionError traceback at the parent
    (MINIMAL_ERGODICITY + "dt = 0\n",
     "line 9: [numerics] dt must be above 0 for recipe 'ergodicity' (the "
     "time step), got 0.0"),
    (MEANFIELD_SMALL + "dt = 0.0\n",
     "line 8: [numerics] dt must be above 0 for recipe 'meanfield_decay' "
     "(the time step), got 0.0"),
    # 'need at least 3 positive points in the window' at the parent
    (MINIMAL_ERGODICITY + "dt = -0.01\n",
     "line 9: [numerics] dt must be above 0 for recipe 'ergodicity'"),
    (MINIMAL_ERGODICITY.replace("T = 4.0", "T = 0"),
     "line 8: [numerics] T must be above 0 for recipe 'ergodicity' (the "
     "time horizon), got 0.0"),
    (MEANFIELD_SMALL.replace("T = 0.04", "T = -1.0"),
     "line 7: [numerics] T must be above 0 for recipe 'meanfield_decay'"),
    # an unnumbered 'cannot convert float NaN to integer' at the parent
    (MINIMAL_ERGODICITY + "dt = NaN\n",
     "line 9: [numerics] dt must be finite, got nan"),
    # an OverflowError traceback at the parent
    (MEANFIELD_SMALL.replace("T = 0.04", "T = Infinity"),
     "line 7: [numerics] T must be finite, got inf"),
    # finite, but not above 0: one error, not two
    (MINIMAL_ERGODICITY + "dt = -Infinity\n",
     "line 9: [numerics] dt must be finite, got -inf"),
    # an unnumbered 'axis bounds must be finite' at the parent
    (MEANFIELD_SMALL + "x_max = Infinity\n",
     "line 8: [numerics] x_max must be finite, got inf"),
    # the W2 floor's factor is 2 in code: the key is gone
    (MINIMAL_ERGODICITY + "floor_factor = NaN\n",
     "line 9: unknown key 'floor_factor' in [numerics]"),
    # 'need at least 3 positive points in the window, got 1' at the parent
    (MINIMAL_ERGODICITY.replace("T = 4.0", "T = 0.001"),
     "line 8: [numerics] T = 0.001, dt = 0.01, checkpoint_every = 0.25 give "
     "1 checkpoint(s) for recipe 'ergodicity', whose decay fit needs at "
     "least 3"),
    # the same with 2 checkpoints, on the lines of both spans set
    (MINIMAL_ERGODICITY.replace("T = 4.0", "T = 0.02")
     + "checkpoint_every = 0.02\n",
     "line 8, 9: [numerics] T = 0.02, dt = 0.01, checkpoint_every = 0.02 "
     "give 2 checkpoint(s)"),
    # an OverflowError traceback at the parent: round(T / dt) of infinity
    (MINIMAL_ERGODICITY.replace("T = 4.0", "T = 1e300") + "dt = 1e-10\n",
     "line 8, 9: [numerics] T / dt and checkpoint_every / dt must be finite "
     "step counts for recipe 'ergodicity', got T = 1e+300, dt = 1e-10, "
     "checkpoint_every = 0.25"),
    (MEANFIELD_SMALL.replace("checkpoint_every = 0.01",
                             "checkpoint_every = 1e300") + "dt = 1e-10\n",
     "line 5, 7, 8: [numerics] T / dt and checkpoint_every / dt must be "
     "finite step counts for recipe 'meanfield_decay'"),
    # 'need at least 3 positive points in the window, got 0' after the whole
    # PDE run at the parent: only t = 0 and t = 0.04 are checkpoints
    (MEANFIELD_SMALL.replace("checkpoint_every = 0.01\n", ""),
     "line 6: [numerics] T = 0.04, dt = 0.002, checkpoint_every = 0.05, "
     "fit_lo = 0.15, fit_hi = 0.9 give 0 checkpoint(s) in the fit window "
     "[fit_lo T, fit_hi T] = [0.006, 0.036000000000000004] for recipe "
     "'meanfield_decay', whose decay fits need at least 3"),
    # two of t = 0.01 .. 0.04 in [0.02, 0.03]; on the lines of every key set
    (MEANFIELD_SMALL + "fit_lo = 0.5\nfit_hi = 0.75\n",
     "line 5, 7, 8, 9: [numerics] T = 0.04, dt = 0.002, checkpoint_every = "
     "0.01, fit_lo = 0.5, fit_hi = 0.75 give 2 checkpoint(s) in the fit "
     "window"),
    # an empty window
    (MEANFIELD_SMALL + "fit_lo = 0.9\nfit_hi = 0.15\n",
     "line 5, 7, 8, 9: [numerics] T = 0.04, dt = 0.002, checkpoint_every = "
     "0.01, fit_lo = 0.9, fit_hi = 0.15 give 0 checkpoint(s)"),
    # an unnumbered 'unknown scheme' after set-up and the reference W2 at
    # the parent
    (MINIMAL_ERGODICITY + "scheme = rk4\n",
     "line 9: [numerics] scheme must be one of baoab, euler_maruyama for "
     "recipe 'ergodicity' (the particle integrators), got 'rk4'"),
    # an unnumbered 'axis requires ...' at the parent
    (MEANFIELD_SMALL.replace("nx = 64", "nx = 15"),
     "line 6: [numerics] nx must be at least 16 for recipe 'meanfield_decay' "
     "(the least node count of a grid axis), got 15"),
    (MEANFIELD_SMALL + "nv = 8\n",
     "line 8: [numerics] nv must be at least 16 for recipe 'meanfield_decay'"),
    (MEANFIELD_SMALL + "x_max = 0\n",
     "line 8: [numerics] x_max must be above 0 for recipe 'meanfield_decay' "
     "(the x grid spans [-x_max, x_max]), got 0.0"),
    (MEANFIELD_SMALL + "v_max = -9\n",
     "line 8: [numerics] v_max must be above 0 for recipe 'meanfield_decay'"),
    (CONCENTRATION_SMALL + "nx = 8\n",
     "line 17: [numerics] nx must be at least 16 for recipe 'concentration'"),
    (CONCENTRATION_SMALL + "x_max = -8\n",
     "line 17: [numerics] x_max must be above 0 for recipe 'concentration'"),
    # a negative count ran like n_mc = 0, exit 0, before n_mc had a rule
    (CHAOS_SMALL.replace("n_mc = 4", "n_mc = -3"),
     "line 9: [numerics] n_mc must be at least 1 for recipe 'chaos_scaling' "
     "(the sampled repetitions per N), got -3"),
    # ran without its sampled check, so with no verdict, while n_mc could
    # be 0
    (CHAOS_SMALL.replace("n_mc = 4", "n_mc = 0"),
     "line 9: [numerics] n_mc must be at least 1 for recipe 'chaos_scaling' "
     "(the sampled repetitions per N), got 0"),
    # thm15_C_front = 0.0 and exit 0 at the parent
    (MEANFIELD_SMALL + "[constants]\nrho_LS = -1\n",
     "line 9: [constants] rho_LS must be above 0 (a log-Sobolev constant), "
     "got -1.0"),
    # an unnumbered 'rho_LS must be positive and finite' at the parent
    (MINIMAL_ERGODICITY + "[constants]\nrho_LS = -1\n",
     "line 10: [constants] rho_LS must be above 0"),
    # an unnumbered "a_rule must be 'remark', 'proof' or 'min'" at the parent
    ("[experiment]\nrecipe = constants_table\n[constants]\na_rule = foo\n",
     "line 4: [constants] a_rule must be one of remark, proof, min (the "
     "Theorem 1.4 choices of a), got 'foo'"),
    ("[experiment]\nrecipe = constants_table\n[constants]\nC_K = 0\n",
     "line 4: [constants] C_K must be above 0 (it replaces the built "
     "potential's constant), got 0.0"),
    ("[experiment]\nrecipe = assumptions\n[constants]\ntheta = NaN\n",
     "line 4: [constants] theta must be finite, got nan"),
], ids=["concentration_N_0", "concentration_N_negative", "concentration_N_1",
        "concentration_n_mc_0", "ergodicity_N_1", "chaos_scaling_N_0",
        "chaos_scaling_N_mc_0", "chaos_scaling_n_cloud_0",
        "meanfield_decay_n_w2_0", "meanfield_decay_n_w2_above_cap",
        "ergodicity_N_above_cap", "ergodicity_dt_0", "meanfield_decay_dt_0",
        "ergodicity_dt_negative", "ergodicity_T_0",
        "meanfield_decay_T_negative", "ergodicity_dt_nan",
        "meanfield_decay_T_inf", "ergodicity_dt_minus_inf",
        "meanfield_decay_x_max_inf", "ergodicity_floor_factor_nan",
        "ergodicity_one_checkpoint", "ergodicity_two_checkpoints",
        "ergodicity_steps_overflow", "meanfield_decay_steps_overflow",
        "meanfield_decay_no_window_checkpoint",
        "meanfield_decay_two_window_checkpoints",
        "meanfield_decay_empty_window", "ergodicity_scheme_rk4",
        "meanfield_decay_nx_15", "meanfield_decay_nv_8",
        "meanfield_decay_x_max_0", "meanfield_decay_v_max_negative",
        "concentration_nx_8", "concentration_x_max_negative",
        "chaos_scaling_n_mc_negative", "chaos_scaling_n_mc_0",
        "meanfield_decay_rho_LS_negative",
        "ergodicity_rho_LS_negative", "constants_table_a_rule_foo",
        "constants_table_C_K_0", "assumptions_theta_nan"])
def test_sizes_without_work_are_config_errors(text, message, tmp_path,
                                              capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(message)
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


def _past(want, relation, bound):
    """A value of type `want` just past a rule's bound, as config text."""

    if relation == "one of":
        return json.dumps("not " + " or ".join(bound))
    sign = {"at least": -1, "above": 0, "at most": 1}[relation]
    if want == "float":
        return repr(float(np.nextafter(bound, sign * math.inf)) if sign
                    else float(bound))
    return json.dumps([bound + sign] if want == "int_list" else bound + sign)


SCHEMA_RULES = [
    (recipe, "numerics", key, entry[0], rule)
    for recipe, schema in harness._NUMERICS_SCHEMA.items()
    for key, entry in schema.items() for rule in entry[2:]] + [
    ("constants_table", "constants", key, entry[0], rule)
    for key, entry in harness._CONSTANTS_SCHEMA.items()
    for rule in entry[2:]]


@pytest.mark.parametrize(
    "recipe, section, key, want, rule", SCHEMA_RULES,
    ids=[f"{recipe}-{key}-{rule[0].replace(' ', '_')}"
         for recipe, _, key, _, rule in SCHEMA_RULES])
def test_each_schema_rule_refuses_a_value_just_past_its_bound(
        recipe, section, key, want, rule):
    # each rule, read from the schema, is its own negative control: a key set
    # just past its bound is one error, on that key's line
    relation, bound, why = rule
    value = _past(want, relation, bound)
    text = (f"[experiment]\nrecipe = {recipe}\n[{section}]\n{key} = {value}\n"
            + RECIPE_POTENTIAL.get(recipe, ""))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.errors) == 1
    assert err.value.errors[0].startswith(f"line 4: [{section}] {key}")
    assert f" must be {relation} " in err.value.errors[0]
    assert f"({why})" in err.value.errors[0]


CONSTANTS_FLAG_RULES = [
    (flag, key, harness._CONSTANTS_SCHEMA[key][0], rule)
    for flag, (section, key) in _CONFIG_FLAGS["constants"].items()
    if section == "constants" for rule in harness._CONSTANTS_SCHEMA[key][2:]]


@pytest.mark.parametrize(
    "flag, key, want, rule", CONSTANTS_FLAG_RULES,
    ids=[f"{flag}-{rule[0].replace(' ', '_')}"
         for flag, _, _, rule in CONSTANTS_FLAG_RULES])
def test_each_constants_flag_refuses_a_value_just_past_its_bound(
        flag, key, want, rule, capsys):
    # a flag is checked by its key's rules, and the one error names the flag
    relation, bound, why = rule
    assert cli_main(["constants", flag, _past(want, relation, bound)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"config error: {flag}: [constants] {key} must "
                           f"be {relation} ")
    assert f"({why})" in line


@pytest.mark.parametrize("flag, key", [("--theta", "theta"), ("--c-k", "C_K")])
def test_cli_flag_takes_a_negative_value_in_exponent_form(flag, key, capsys):
    # argparse reads "-1e-3" as an option unless told it is a number: the
    # spaced form reaches the key's rule, as the joined form does
    for argv in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
        assert cli_main(["constants", *argv]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {flag}: [constants] {key} "
                               f"must be above 0 ")


def test_each_config_flag_names_a_schema_key():
    schemas = {"experiment": harness._EXPERIMENT_SCHEMA,
               "model": harness._MODEL_SCHEMA,
               "constants": harness._CONSTANTS_SCHEMA}
    for flags in _CONFIG_FLAGS.values():
        for flag, (section, key) in flags.items():
            if section == "potential":
                assert key.startswith(("v_", "w_")), flag
            else:
                assert key in schemas[section], flag
    assert {key for _, key, _, _ in CONSTANTS_FLAG_RULES} \
        >= {"theta", "rho_LS", "d", "C_K", "a_rule"}


@pytest.mark.parametrize("recipe", harness._RECIPES)
def test_bare_config_of_each_recipe_parses(recipe):
    cfg = parse_config(f"[experiment]\nrecipe = {recipe}\n"
                       + RECIPE_POTENTIAL.get(recipe, ""))
    assert cfg.numerics == {key: entry[1] for key, entry in
                            harness._NUMERICS_SCHEMA[recipe].items()}


def test_ergodicity_runs_with_three_checkpoints(tmp_path):
    # the least schedule the checkpoint rule admits fits its decay
    text = MINIMAL_ERGODICITY.replace("T = 4.0", "T = 0.02") \
        + "checkpoint_every = 0.01\n"
    report, _ = run_to_dir(text, tmp_path)
    assert [row[0] for row in report.tables["w2_series"][1]] \
        == pytest.approx([0.0, 0.01, 0.02])


def test_meanfield_decay_runs_with_three_window_checkpoints(tmp_path):
    # the least window the checkpoint rule admits fits both decays
    report, _ = run_to_dir(MEANFIELD_SMALL, tmp_path)
    assert report.scalars["fit_H"]["n_used"] == 3
    assert report.scalars["fit_E_M"]["n_used"] == 3


def test_meanfield_decay_fits_the_records_the_window_rule_counts(tmp_path,
                                                                 capsys):
    # the last record, t = 0.04000000000000002 summed step by step, sits on
    # the window end fit_hi T = 0.04; the rule counts it, so the fits take it
    # (exit 2 with 'need at least 3 positive points' at the parent)
    cfg = write_cfg(tmp_path, MEANFIELD_SMALL + "fit_lo = 0.5\nfit_hi = 1.0\n")
    out = tmp_path / "out"
    assert cli_main(["run", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for fit in ("fit_H", "fit_E_M"):
        assert report["scalars"][fit]["n_used"] == 3
        assert report["scalars"][fit]["window"] == [0.02, 0.04]


@pytest.mark.parametrize("potential, named", [
    ("v_family = quadratic\nw_family = zero\n", "w_family = zero"),
    # W defaults to zero; the error names the first [potential] line
    ("v_family = quadratic\nv_curvature = 2.0\n", "v_family = quadratic"),
    # W = 0 under another name: the rule asks the built spec for L_W
    ("v_family = quadratic\nw_family = harmonic_W\nw_L_W = 0.0\n",
     "w_family = harmonic_W\nw_L_W = 0.0"),
    # harmonic W: R1 = L_W/N exactly, an aggregate of slope -2
    ("v_family = quadratic\nw_family = harmonic_W\nw_L_W = 0.25\n",
     "w_family = harmonic_W\nw_L_W = 0.25"),
    # the default potential is harmonic; with no [potential] entry the error
    # names the recipe line
    ("", "recipe = concentration"),
])
def test_concentration_needs_an_interaction(potential, named, tmp_path,
                                            capsys):
    # W = 0 makes every aggregate exactly 0 and harmonic W makes R1 fall like
    # 1/N²: no 1/N slope exists, and the slope verdicts would FAIL a correct
    # program
    text = CONCENTRATION_SMALL.replace(
        "v_family = quadratic\nv_curvature = 1.0\nw_family = mollified_coulomb"
        "\nw_a = 0.2\nw_b = 1.0\nw_k = 2.0\n", potential)
    lines = ", ".join(str(text.splitlines().index(n) + 1)
                      for n in named.splitlines())
    message = f"line {lines}: recipe 'concentration' needs an interaction W"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ZERO_W_CONSTANTS = ("[experiment]\nrecipe = constants_table\n"
                    "[potential]\nv_family = quadratic\nw_family = zero\n")


def test_cli_constants_table_without_an_interaction_exits_2(tmp_path,
                                                            capsys):
    # W = 0 has C_K = 0, which every rate recipe rejects
    cfg = write_cfg(tmp_path, ZERO_W_CONSTANTS)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert ("config error: line 5: recipe 'constants_table' with W = 0 has "
            "C_K = 0, and the rate constants need C_K > 0: set [constants] "
            "C_K") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_constants_table_without_an_interaction_takes_a_given_c_k(
        tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_W_CONSTANTS + "[constants]\nC_K = 0.5\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("recipe", ["assumptions", "ergodicity"])
def test_cli_constants_of_another_recipe_without_an_interaction_exits_2(
        recipe, tmp_path, capsys):
    # the constants command builds the rate table whatever the document's
    # recipe, so it asks the constants_table rule for W = 0 of every recipe
    text = ZERO_W_CONSTANTS.replace("constants_table", recipe)
    assert cli_main(["constants", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 5: recipe 'constants_table' with W = 0 has "
        "C_K = 0, and the rate constants need C_K > 0: set [constants] "
        "C_K\n")
    given = write_cfg(tmp_path, text + "[constants]\nC_K = 0.5\n")
    assert cli_main(["constants", "--config", given]) == 0


def test_cli_constants_reports_the_zero_w_rule_with_the_document_errors(
        tmp_path, capsys):
    # the constants_table rule for W = 0 is asked in the same pass as the
    # document's own rules, so one run names both
    text = (ZERO_W_CONSTANTS.replace("constants_table", "assumptions")
            + "[constants]\ntheta = 0\n")
    assert cli_main(["constants", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: line 7: [constants] theta must be above 0 (the weight "
        "exponent of the Hessian growth condition), got 0.0",
        "config error: line 5: recipe 'constants_table' with W = 0 has "
        "C_K = 0, and the rate constants need C_K > 0: set [constants] C_K"]


def test_cli_constants_table_with_a_zero_harmonic_w_exits_2(tmp_path, capsys):
    # harmonic_W with L_W = 0 is W = 0 under another name: the refusal asks
    # the built spec for C_K, not the family name
    text = ("[experiment]\nrecipe = constants_table\n[potential]\n"
            "v_family = quadratic\nw_family = harmonic_W\nw_L_W = 0.0\n")
    message = ("line 5, 6: recipe 'constants_table' with W = 0 has C_K = 0, "
               "and the rate constants need C_K > 0: set [constants] C_K")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert message in str(err.value)
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    given = write_cfg(tmp_path, text + "[constants]\nC_K = 0.5\n")
    assert cli_main(["run", given, "--out-dir", str(tmp_path / "out")]) == 0


def test_meanfield_decay_evaluates_the_free_energy_once_per_state(
        monkeypatch, tmp_path):
    # F(f_inf), then F of the start and of each of the 20 steps; a
    # checkpoint's modulated energy takes the F its step already computed
    calls = []

    def counted(density, spec, params):
        calls.append(density)
        return free_energy(density, spec, params)

    free_energy = kinetic_pde.free_energy
    monkeypatch.setattr(kinetic_pde, "free_energy", counted)
    monkeypatch.setattr(harness, "free_energy", counted)
    report, _ = run_to_dir("[experiment]\nrecipe = meanfield_decay\n"
                           "[numerics]\nnx = 64\nnv = 64\nT = 0.04\n"
                           "checkpoint_every = 0.01\nn_w2 = 64\n", tmp_path)
    assert len(report.tables["decay"][1]) == 5
    assert len(calls) == 1 + 1 + 20


def test_readme_config_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.recipe == "meanfield_decay"
    assert cfg.potential["w_family"] == "harmonic_W"
    assert cfg.numerics["T"] == 10.0


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "rate           0.00170068027211" in capsys.readouterr().out


# --- recipes and reports --------------------------------------------------------

def test_ergodicity_small_run(tmp_path):
    report, paths = run_to_dir(MINIMAL_ERGODICITY, tmp_path)
    assert report.recipe == "ergodicity"
    assert "w2_reaches_floor" in report.verdicts
    assert "rate_at_least_thm13_c" in report.verdicts
    assert any(p.endswith("report.json") for p in paths)
    with open(os.path.join(tmp_path, "report.json")) as fh:
        blob = json.load(fh)
    assert blob["recipe"] == "ergodicity"
    assert blob["seed"] == 3


def test_csv_header_and_determinism(tmp_path):
    _, paths_a = run_to_dir(CHAOS_SMALL, tmp_path / "a")
    _, paths_b = run_to_dir(CHAOS_SMALL, tmp_path / "b")
    blobs_a = read_outputs(paths_a)
    blobs_b = read_outputs(paths_b)
    assert blobs_a.keys() == blobs_b.keys() and blobs_a
    for name in blobs_a:
        assert blobs_a[name] == blobs_b[name], name
        head = blobs_a[name].decode().splitlines()[0]
        assert head.startswith("# recipe=chaos_scaling seed=5 rng=philox")


def test_chaos_scaling_rows_are_the_closed_form_gaps():
    # against the hand formulas of each N's Gaussian closed form, bit for
    # bit: the x_1 marginal's gap (sqrt(Var x_1) - sqrt(var_x))^2, and the
    # joint gap, that of the mean direction alone, spread over N particles
    cfg = parse_config("[experiment]\nrecipe = chaos_scaling\n[model]\n"
                       "gamma = 2.0\nsigma = 1.0\nbeta = 2.0\n[numerics]\n"
                       "N_list = [1, 2, 8, 512]\nN_mc_list = [2]\nn_mc = 1\n"
                       "n_cloud = 16\n")
    report = run_experiment(cfg)
    expected = []
    for N in (1, 2, 8, 512):
        rec = gaussian_closed_form(cfg.spec.V.curvature, cfg.spec.W.L_W, 2.0,
                                   N)
        mean_var = rec.covariance_spectrum()[0][0]
        joint = (math.sqrt(mean_var) - math.sqrt(rec.var_x)) ** 2
        expected.append(
            (N, (math.sqrt(rec.marginal_var_x1) - math.sqrt(rec.var_x)) ** 2,
             joint / N))
    assert report.tables["scaling"][1] == expected


def test_thread_count_does_not_change_output(tmp_path):
    _, paths_a = run_to_dir(CONCENTRATION_SMALL, tmp_path / "t1", threads=1)
    blobs_a = read_outputs(paths_a)
    assert blobs_a
    for threads in (2, 4):
        _, paths_b = run_to_dir(CONCENTRATION_SMALL, tmp_path / f"t{threads}",
                                threads=threads)
        blobs_b = read_outputs(paths_b)
        assert blobs_a.keys() == blobs_b.keys()
        for name in blobs_a:
            assert blobs_a[name] == blobs_b[name], (threads, name)


def test_concentration_report_times_each_sweep_point(tmp_path):
    # report.json, and never a CSV, carries per sweep point its N, wall and
    # thread CPU seconds and the pair entries it evaluated: n_mc times
    # N(N-1)/2 plus h(h+1)/2 per panel of h rows (N = 300: six panels)
    text = CONCENTRATION_SMALL.replace("N_list = [8, 16, 32, 64]",
                                       "N_list = [8, 300]").replace(
        "n_mc = 40", "n_mc = 3")
    blobs = {}
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        report, paths = run_to_dir(text, out, threads=threads)
        points = report.timings["sweep_points"]
        assert [p["N"] for p in points] == [8, 300]
        for p in points:
            assert set(p) == {"N", "wall_seconds", "thread_seconds",
                              "pair_entries"}
            assert p["wall_seconds"] > 0 and p["thread_seconds"] >= 0
            N = p["N"]
            panels = list(pair_panels(np.zeros((N, 1))))
            heights = [rows.stop - rows.start for rows, _, _ in panels]
            assert p["pair_entries"] == 3 * (
                N * (N - 1) // 2 + sum(h * (h + 1) // 2 for h in heights))
            assert p["pair_entries"] == 3 * sum(diff.size
                                                for _, diff, _ in panels)
        assert len(heights) == 6
        with open(out / "report.json", encoding="utf-8") as fh:
            assert json.load(fh)["timings"]["sweep_points"] == points
        blobs[threads] = read_outputs(paths)
        assert blobs[threads]
        for blob in blobs[threads].values():
            assert b"seconds" not in blob and b"pair_entries" not in blob
    assert blobs[1] == blobs[3]


def test_constants_table_recipe(tmp_path):
    report, _ = run_to_dir("[experiment]\nrecipe = constants_table\n",
                           tmp_path)
    assert report.passed()
    cols, rows = report.tables["constants"]
    assert len(rows) >= 3


def test_assumptions_recipe_baseline(tmp_path):
    report, _ = run_to_dir("[experiment]\nrecipe = assumptions\n", tmp_path)
    verdicts = report.verdicts
    assert verdicts["A1"].passed and verdicts["A4"].passed
    assert not verdicts["A5"].passed     # harmonic W: honest failure


@pytest.mark.parametrize("flags, potential", [
    ([], ""), (["--v-family", "zero"], "[potential]\nv_family = zero\n")],
    ids=["default", "zero_v"])
def test_check_assumptions_and_the_recipe_screen_alike(flags, potential,
                                                       tmp_path, capsys):
    # the command screens the document's pair, with its flags set on top;
    # the recipe screens the same pair written into the document
    out = tmp_path / "out"
    doc = f"[experiment]\nrecipe = assumptions\nout_dir = {out}\n"
    assert cli_main(["check-assumptions", "--config", write_cfg(tmp_path, doc),
                     *flags]) == 0
    printed = capsys.readouterr().out
    screened = json.loads(printed.split("\n\n")[0])
    assert cli_main(["run", write_cfg(tmp_path, doc + potential)]) == 0
    with open(out / "report.json", encoding="utf-8") as fh:
        recipe = json.load(fh)["scalars"]["report"]
    with open(out / "assumptions_assumptions.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    statuses = {name: v["status"] for name, v in screened["verdicts"].items()}
    assert statuses == {name: status for name, status, _ in rows}
    assert list(statuses) == list(harness._VERDICTS["assumptions"])
    assert screened == recipe
    summary = "  ".join(f"{name}:{status}" for name, status in
                        statuses.items())
    assert printed.splitlines()[-1] == summary


def test_add_verdict_refuses_an_undeclared_or_repeated_name():
    report = harness.RunReport("ergodicity", 0, {})
    with pytest.raises(ValueError, match="recipe 'ergodicity' declares no "
                       "verdict 'w2_below_floor' or has it already"):
        report.add_verdict("w2_below_floor", True, 0.0, 1.0)
    report.add_verdict("fit_r2", True, 0.95, 0.9)
    with pytest.raises(ValueError, match="'fit_r2' or has it already"):
        report.add_verdict("fit_r2", True, 0.95, 0.9)
    screen = potentials.check_assumptions(
        potentials.make_system("quadratic")).verdicts["A1"]
    with pytest.raises(ValueError, match="declares no verdict 'A1'"):
        report.add_record("A1", screen)
    assert list(report.verdicts) == ["fit_r2"]


def test_a_runner_cannot_report_a_verdict_its_recipe_does_not_declare(
        monkeypatch):
    config = parse_config("[experiment]\nrecipe = constants_table\n")
    run_experiment(config)
    monkeypatch.setitem(harness._VERDICTS, "constants_table", ())
    with pytest.raises(ValueError, match="declares no verdict "
                       "'all_outputs_finite_positive'"):
        run_experiment(config)


@pytest.mark.parametrize("edit", [
    lambda verdicts: verdicts.pop("A3"),
    lambda verdicts: verdicts.update(A1=verdicts.pop("A1")),
], ids=["one_left_out", "one_moved_last"])
def test_a_run_reports_exactly_its_declared_verdicts_in_order(edit,
                                                              monkeypatch):
    # the declared table is the whole report: a runner that leaves a declared
    # verdict out, or reports the names out of order, fails the run
    inner = harness._RECIPE_RUNNERS["assumptions"]

    def runner(cfg, report, threads):
        inner(cfg, report, threads)
        edit(report.verdicts)

    monkeypatch.setitem(harness._RECIPE_RUNNERS, "assumptions", runner)
    with pytest.raises(ValueError, match=r"^recipe 'assumptions' reported "
                       r"verdicts \[.*\], not the declared \['A1', 'A2', "
                       r"'A3', 'A4', 'A5'\]$"):
        run_experiment(parse_config("[experiment]\nrecipe = assumptions\n"))


def test_a_non_integral_number_for_an_int_key_is_a_type_error():
    with pytest.raises(ConfigError) as err:
        parse_config("[experiment]\nrecipe = ergodicity\n[numerics]\n"
                     "N = 64.5\n")
    assert err.value.errors == ["line 4: [numerics] N must be int, got 64.5"]


def test_assumptions_report_the_exp_power_parameters():
    report = run_experiment(parse_config(
        "[experiment]\nrecipe = assumptions\n[potential]\n"
        "v_family = exp_power\n"))
    assert report.scalars["potential"]["V"] == {"family": "exp_power",
                                                "a": 1.0, "k": 0.5}


# exp(-beta V) of this V holds 3 % of its mass beyond |x| = 8
NARROW_V = ("[potential]\nv_family = exp_power\nv_a = 0.2\nv_k = 0.9\n"
            "w_family = mollified_coulomb\n")


@pytest.mark.parametrize("recipe, x_max, fraction", [
    ("concentration", 8.0, "0.031"), ("meanfield_decay", 9.0, "0.0163")])
def test_grid_too_narrow_for_v_is_a_config_error_naming_x_max(
        recipe, x_max, fraction, tmp_path, capsys):
    # solve_rho_infty used to refuse it at run time, unnumbered: "error: grid
    # too narrow: ...", exit 2
    text = f"[experiment]\nrecipe = {recipe}\n{NARROW_V}"
    message = (f"line 4, 5, 6: [numerics] x_max = {x_max} for recipe "
               f"'{recipe}': grid too narrow: exp(-beta V) mass fraction "
               f"outside is {fraction} >= tol 1e-10; widen x_max")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [message]
    assert cli_main(["run", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # a set x_max is named with the V lines; a wide enough one passes
    with pytest.raises(ConfigError) as err:
        parse_config(text + "[numerics]\nx_max = 12.5\n")
    assert err.value.errors[0].startswith(
        "line 4, 5, 6, 9: [numerics] x_max = 12.5 for recipe")
    parse_config(text + "[numerics]\nx_max = 250\n")


def test_grid_too_narrow_for_a_small_beta_names_the_beta_line():
    text = ("[experiment]\nrecipe = concentration\n[potential]\n"
            "w_family = mollified_coulomb\n[model]\nbeta = 0.01\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors[0].startswith(
        "line 6: [numerics] x_max = 8.0 for recipe 'concentration': grid "
        "too narrow")


@pytest.mark.parametrize("v_max, covered", [("4.0", "0.999936658"),
                                            ("4.5", "0.999993205")])
def test_v_grid_too_narrow_for_the_maxwellian_is_a_config_error_naming_v_max(
        v_max, covered, tmp_path, capsys):
    # maxwellian_factor used to refuse it at run time, unnumbered: "error:
    # velocity grid holds only ...", exit 2
    text = MEANFIELD_SMALL + f"v_max = {v_max}\n"
    message = (f"line 8: [numerics] v_max = {v_max} for recipe "
               f"'meanfield_decay': velocity grid holds only {covered} of "
               f"the Gaussian mass; widen it")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [message]
    assert cli_main(["run", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
    # a wide enough one passes
    parse_config(MEANFIELD_SMALL + "v_max = 6\n")


def test_chaos_scaling_n_mc_stops_where_two_n_points_would_share_noise(
        tmp_path, capsys):
    # repetition 1000 of N point idx would draw from rng.derive(10_000
    # (idx + 2) + 0..2), the streams of repetition 0 of point idx + 1
    text = CHAOS_SMALL.replace("n_mc = 4", "n_mc = 1001")
    assert cli_main(["run", write_cfg(tmp_path, text), "--out-dir",
                     str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 9: [numerics] n_mc must be at most 1000 for "
        "recipe 'chaos_scaling'")
    assert not (tmp_path / "out").exists()
    text = CHAOS_SMALL.replace("n_mc = 4", "n_mc = 1000")
    assert parse_config(text).numerics["n_mc"] == 1000


TINY_NUMERICS = {
    "ergodicity": "N = 8\nT = 1.5\n",
    "meanfield_decay": "nx = 64\nnv = 64\nT = 0.04\ncheckpoint_every = 0.01\n"
                       "n_w2 = 64\n",
    "chaos_scaling": "N_list = [8, 16]\nN_mc_list = [8]\nn_mc = 2\n"
                     "n_cloud = 256\n",
    "concentration": "N_list = [8, 16]\nn_mc = 4\nnx = 129\n",
    "constants_table": "",
    "assumptions": "",
}


@pytest.mark.parametrize("recipe", TINY_NUMERICS)
def test_recipes_build_nothing_after_parse_config(recipe, monkeypatch):
    # the runners read cfg.spec and cfg.params; the one build after parsing
    # is the W = 0 spec of the concentration zero-kernel control
    cfg = parse_config(f"[experiment]\nrecipe = {recipe}\n"
                       f"[numerics]\n{TINY_NUMERICS[recipe]}"
                       + RECIPE_POTENTIAL.get(recipe, ""))
    make_system = potentials.make_system
    zero_w_builds = []

    def refused(*args, **kwargs):
        raise AssertionError("a potential or model built after parse_config")

    def zero_w_only(v_family, v_params=None, w_family="zero", w_params=None,
                    d=1):
        if w_family != "zero" or w_params:
            refused()
        zero_w_builds.append(v_family)
        return make_system(v_family, v_params, d=d)

    for module in (harness, potentials):
        monkeypatch.setattr(module, "make_system", zero_w_only)
    monkeypatch.setattr(harness, "build_potential_spec", refused)
    monkeypatch.setattr(harness, "ModelParams", refused)
    report = run_experiment(cfg)
    assert report.tables
    assert zero_w_builds == (["quadratic"] if recipe == "concentration"
                             else [])


def test_benchmark_workloads_parse_and_build():
    # a parse-time rule that refused a workload would make the benchmark's
    # run fail; each workload parses, and its spec and model build
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
    paths = sorted(workloads.glob("*.ini"))
    assert paths
    for path in paths:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert isinstance(cfg.spec, potentials.PotentialSpec), path.name
        assert isinstance(cfg.params, ModelParams), path.name


def test_verdicts_recomputable_from_series(tmp_path):
    report, _ = run_to_dir(MINIMAL_ERGODICITY, tmp_path)
    cols, rows = report.tables["w2_series"]
    w2 = [row[cols.index("w2")] for row in rows]
    recomputed = w2[-1] <= report.scalars["threshold"]
    assert report.verdicts["w2_reaches_floor"].passed == recomputed
    assert report.scalars["threshold"] == 2.0 * report.scalars["floor"]


# --- CLI -------------------------------------------------------------------------

def write_cfg(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL_ERGODICITY)
    code = cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = bogus\n")
    assert cli_main(["run", cfg]) == 2
    assert "unknown recipe" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[experiment]
recipe = meanfield_decay

[numerics]
dt = 0.2
T = 0.8
""")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_cli_negative_cell_exit_code(tmp_path, capsys):
    # 16 velocity nodes on [-9, 9] are too coarse for the first step's
    # stencil: a cell goes negative, and the run stops there
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = meanfield_decay\n"
                    "[numerics]\nnv = 16\nnx = 64\nT = 0.01\n"
                    "checkpoint_every = 0.002\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: cell (37,13) went negative (-6.501e-06) after "
        "step 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "[experiment]\nrecipe = meanfield_decay\n[numerics]\nnx = 64\nnv = 64\n",
    CONCENTRATION_SMALL,
])
def test_cli_unconverged_equilibrium_exit_code(text, tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(harness, "solve_rho_infty", functools.partial(
        equilibrium.solve_rho_infty, max_iter=1))
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "not converged after 1 iterations (L1 residual" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("w_a", ["1e3", "1e300"])
def test_cli_equilibrium_that_loses_its_mass_exit_code(w_a, tmp_path, capsys):
    # the damped iterate underflowed to 0 everywhere: 0/0 leaked a numpy
    # warning, then exit 2 with "non-finite Gibbs map at grid value x=-8.0"
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = concentration\n"
                    "[potential]\nv_family = quadratic\n"
                    f"w_family = mollified_coulomb\nw_a = {w_a}\n"
                    "[numerics]\nN_list = [8, 16]\nn_mc = 2\nnx = 65\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: rho_infty fixed point lost its mass at iteration ")
    assert not (tmp_path / "out").exists()


def test_cli_particle_dt_guard_exit_code(tmp_path, capsys):
    # gamma * dt = 0.6 > 0.5: refused by the particle stepper's first call
    cfg = write_cfg(tmp_path, MINIMAL_ERGODICITY + "dt = 0.6\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "dt * max(gamma" in err


def test_cli_check_assumptions_passes_a_bound_met_to_rounding(capsys):
    # the declared C_K lies one ulp below the evaluated |W''(0)|
    assert cli_main(["check-assumptions", "--param", "v_curvature=1e14",
                     "--w-family", "mollified_coulomb", "--param", "w_a=1e7",
                     "--param", "w_b=0.7"]) == 0
    assert "A4:pass" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w_lines", [
    "w_b = 1e-120\n", "w_form = arctan\nw_r0 = 1e-120\n",
    "w_k = 4\nw_b = 1e-120\n"], ids=["b", "arctan_r0", "k4_b"])
@pytest.mark.parametrize("recipe", ["concentration", "assumptions"])
def test_config_refuses_a_coulomb_scale_without_finite_constants(
        tmp_path, capsys, w_lines, recipe):
    # a ZeroDivisionError traceback (exit 1), or numpy warnings at k = 4,
    # at the parent
    text = ("[experiment]\nrecipe = " + recipe + "\n[potential]\n"
            "w_family = mollified_coulomb\n" + w_lines)
    lines = "line 4, 5" if w_lines.count("\n") == 1 else "line 4, 5, 6"
    message = (f"{lines}: mollified_coulomb: C_K and W_grad_sup do not "
               f"evaluate to finite floats at a = 1.0")
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert cli_main(["check-assumptions", "--config", cfg]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("v_lines, lines, what", [
    ("v_family = power_k\nv_k = 4\n", "line 4, 5",
     "V = power_k has C_V = inf, and the rate constants need a finite C_V"),
    ("v_family = exp_power\n", "line 4",
     "V = exp_power has C_V = inf, and the rate constants need a finite C_V"),
    ("v_family = zero\n", "line 4",
     "V = zero has C_V = 0, and the rate constants need C_V > 0"),
], ids=["power_k", "exp_power", "zero"])
def test_cli_constants_table_refuses_a_built_c_v_it_cannot_take(
        tmp_path, capsys, v_lines, lines, what):
    # at the parent both commands ended after set-up with an unnumbered
    # "error: C_V must be positive and finite, got ..."
    text = ("[experiment]\nrecipe = constants_table\n[potential]\n"
            + v_lines + "w_family = harmonic_W\n")
    message = (f"config error: {lines}: recipe 'constants_table' with "
               f"{what}: set [constants] C_V\n")
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
    assert cli_main(["constants", "--config", cfg]) == 2
    assert capsys.readouterr().err == message
    # a C_V that the document or a flag gives is taken
    assert cli_main(["constants", "--config", cfg, "--c-v", "2"]) == 0
    given = write_cfg(tmp_path, text + "[constants]\nC_V = 2.0\n")
    assert cli_main(["run", given, "--out-dir", str(tmp_path / "out")]) == 0


def test_cli_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a run too large for memory (a concentration nx of 1e11, say) used to
    # end in a MemoryError traceback with exit 1; nothing is allocated here
    def too_large(config, threads=1):
        raise MemoryError("Unable to allocate 2.91 TiB for an array")

    monkeypatch.setattr(cli, "run_experiment", too_large)
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 2.91 TiB for an array\n")


def test_cli_unknown_potential_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = power_k\nv_k = 1.5\n"
                    "v_allow_small_k = 1\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert ("config error: line 4, 5, 6: power_k: unknown parameter(s) "
            "allow_small_k; it takes k, amp") in capsys.readouterr().err


def test_cli_non_numeric_potential_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = power_k\nv_k = four\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert ("config error: line 4, 5: power_k: parameter k must be a number, "
            "got 'four'") in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # NaN passes every < and <= range check; it used to reach the run and
    # exit 2 with "error: clouds must be finite"
    ("[experiment]\nrecipe = ergodicity\n[model]\nbeta = NaN\n"
     "[numerics]\nN = 8\nT = 1\n",
     "config error: line 4: gamma, sigma and beta must be finite"),
    # ... or "error: C_V must be positive and finite, got nan"
    ("[experiment]\nrecipe = constants_table\n[potential]\n"
     "v_family = quadratic\nv_curvature = NaN\nw_family = harmonic_W\n",
     "config error: line 4, 5: quadratic: parameter curvature must be "
     "finite, got nan"),
    ("[experiment]\nrecipe = assumptions\n[potential]\n"
     "w_family = harmonic_W\nw_L_W = Infinity\n",
     "config error: line 4, 5: harmonic_W: parameter L_W must be finite, "
     "got inf"),
], ids=["model_beta_nan", "v_curvature_nan", "w_L_W_inf"])
def test_cli_non_finite_parameter_exit_code(tmp_path, capsys, text, message):
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_wrong_side_family_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = mollified_coulomb\n"
                    "w_family = power_k\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert ("config error: line 4: mollified_coulomb cannot be the "
            "confinement V: it is a W family") in capsys.readouterr().err
    code = cli_main(["check-assumptions", "--v-family", "harmonic_W",
                     "--w-family", "quadratic"])
    assert code == 2
    assert "config error: --v-family: harmonic_W cannot be the confinement V" \
        in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nrecipe = assumptions\n[potential]\nv_family = quadratic"
     "\nv_curvature = -1\n",
     "line 4, 5: quadratic: curvature must be positive"),
    ("[experiment]\nrecipe = assumptions\n[potential]\nv_family = quadratic"
     "\nw_family = mollified_coulomb\nw_a = -3\n",
     "line 5, 6: mollified_coulomb: a must be positive"),
    ("[experiment]\nrecipe = ergodicity\n[potential]\nv_family = quadratic"
     "\nw_family = harmonic_w\n",
     "line 5: unknown potential family 'harmonic_w'"),
    ("[experiment]\nrecipe = assumptions\n[model]\ngamma = -1\n",
     "line 4: gamma and sigma must be nonnegative"),
    ("[experiment]\nrecipe = constants_table\n[model]\nbeta = 0\n",
     "line 4: beta must be positive"),
], ids=["v_curvature", "coulomb_a", "unknown_family", "gamma", "beta"])
def test_build_errors_are_line_numbered_config_errors(text, message,
                                                       tmp_path, capsys):
    # parse_config builds the spec and the model, so a value that does not
    # build is refused with the lines of its side before anything runs
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [message]
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_zero_kernel_control_trips_on_tables_of_another_spec(monkeypatch):
    # tables kept from the first spec (mollified Coulomb) leave the zero-W
    # pair sums far from the mean-field terms, so the control must fail
    build = chaos_metrics.mean_field_tables
    kept = []

    def first_tables(spec, rho_inf):
        if not kept:
            kept.append(build(spec, rho_inf))
        return kept[0]

    monkeypatch.setattr(chaos_metrics, "mean_field_tables", first_tables)
    text = CONCENTRATION_SMALL.replace("n_mc = 40", "n_mc = 4")
    report = run_experiment(parse_config(text))
    control = report.verdicts["zero_kernel_control"]
    assert not control.passed
    assert control.measured["R0"] > 0.0


def test_zero_kernel_control_stays_on_a_narrow_grid():
    # x_max = 3 covers rho_inf for curvature 10; 32 standard normals drawn at
    # seed 5 would reach x = 3.7, off the table grid
    text = ("[experiment]\nrecipe = concentration\nseed = 5\n"
            "[potential]\nv_family = quadratic\nv_curvature = 10.0\n"
            "w_family = mollified_coulomb\nw_a = 0.2\n"
            "[numerics]\nN_list = [8, 16]\nn_mc = 4\nnx = 129\n"
            "x_max = 3.0\n")
    report = run_experiment(parse_config(text))
    assert report.verdicts["zero_kernel_control"].passed


def test_repeated_n_rows_keep_their_own_se():
    # point i of N_list draws from rng.derive(20_000 * (i + 1)), substreams
    # 0..n_mc-1; the two N = 8 points are different samples
    text = ("[experiment]\nrecipe = concentration\nseed = 0\n"
            "[numerics]\nN_list = [8, 8, 16]\nn_mc = 20\nnx = 129\n"
            + COULOMB_W)
    cfg = parse_config(text)
    report = run_experiment(cfg)
    spec, params = cfg.spec, cfg.params
    rho = equilibrium.solve_rho_infty(spec, params,
                                      equilibrium.Axis(-8.0, 8.0, 129))
    r0_rows = [r for r in report.tables["concentration"][1] if r[0] == 0]
    assert [r[1] for r in r0_rows] == [8, 8, 16]
    for i, row in enumerate(r0_rows):
        point_rng = RngSpec(seed=0).derive(20_000 * (i + 1))
        aggs = []
        for s in range(20):
            x, v = sample_f_infty(rho, params, row[1], point_rng, substream=s)
            ens = PhaseEnsemble(x[:, None], v[:, None])
            aggs.append(error_statistics(ens, spec, rho).aggregates["R0"])
        assert row[2] == pytest.approx(np.mean(aggs), rel=1e-12)
        assert row[3] == pytest.approx(np.std(aggs, ddof=1) / math.sqrt(20),
                                       rel=1e-12)
    assert r0_rows[0][3] != r0_rows[1][3]


def test_cli_strict_assumptions_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n")
    code = cli_main(["run", cfg, "--strict",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 3


# [potential] entries of an assumptions document, the exit code of --strict
# and the statuses of A1..A5: its five screens pass (quadratic V of
# curvature 4e4 with Coulomb W, so C_K = 1 stays below lam/2 = 2e4), it
# fails A5 (the default harmonic W), or its A3 is not checked (V = 0)
STRICT_DOCUMENTS = {
    "all_pass": ("[potential]\nv_family = quadratic\nv_curvature = 40000.0\n"
                 "w_family = mollified_coulomb\n",
                 0, "PASS PASS PASS PASS PASS"),
    "default_fails": ("", 3, "PASS PASS PASS PASS FAIL"),
    "zero_v_not_checked": ("[potential]\nv_family = zero\n", 0,
                           "PASS PASS NOT-CHECKED PASS PASS"),
}


@pytest.mark.parametrize("potential, code, statuses",
                         STRICT_DOCUMENTS.values(), ids=list(STRICT_DOCUMENTS))
def test_strict_exits_alike_from_run_and_check_assumptions(
        potential, code, statuses, tmp_path, capsys):
    # exit 3 means a screen whose status is fail, and not-checked is none;
    # run --strict used to print FAIL  A3 and exit 3 on V = 0
    cfg = write_cfg(tmp_path, f"[experiment]\nrecipe = assumptions\n"
                    f"out_dir = {tmp_path / 'out'}\n{potential}")
    assert cli_main(["run", cfg, "--strict"]) == code
    assert capsys.readouterr().out.splitlines()[:5] == [
        f"{status}  A{i}" for i, status in enumerate(statuses.split(), 1)]
    assert cli_main(["check-assumptions", "--config", cfg, "--strict"]) == code


def test_cli_constants_subcommand(capsys):
    assert cli_main(["constants", "--gamma", "1", "--sigma", "1",
                     "--c-k", "0.25", "--c-v", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.0017715419501" in out      # thm13 delta for these inputs
    assert '"rate"' in out


@pytest.mark.parametrize("flags, section", [
    (["--gamma", "1e100", "--sigma", "1e100"],
     "[model]\ngamma = 1e100\nsigma = 1e100\n"),
    (["--gamma", "1e200"], "[model]\ngamma = 1e200\n"),
    (["--c-k", "1e-200"], "[constants]\nC_K = 1e-200\n"),
    (["--c-v-theta", "1e300"], "[constants]\nC_V_theta = 1e300\n")],
    ids=["gamma_sigma_1e100", "gamma_1e200", "C_K_1e-200", "C_V_theta_1e300"])
def test_cli_constants_past_the_float_range_fails_the_record(
        flags, section, tmp_path, capsys):
    # an overflowing ** raised OverflowError, and x / (an underflowed 0)
    # ZeroDivisionError; in IEEE arithmetic the record reaches its verdict
    assert cli_main(["constants", "--json-only", *flags]) == 0
    records = json.loads(capsys.readouterr().out)
    assert not all(math.isfinite(rec[k]) and rec[k] > 0 for rec in records
                   for k in OUTPUT_NAMES if k in rec)
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = constants_table\n"
                    + section)
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert "FAIL  all_outputs_finite_positive" in capsys.readouterr().out


def test_cli_ergodicity_past_the_float_range_reaches_the_dt_guard(tmp_path,
                                                                  capsys):
    # thm13_constants raised OverflowError before the dt guard could refuse
    cfg = write_cfg(tmp_path, MINIMAL_ERGODICITY
                    + "[model]\ngamma = 1e100\nsigma = 1e100\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("numerical failure: dt * max(")


def test_cli_check_assumptions_subcommand(capsys):
    code = cli_main(["check-assumptions", "--v-family", "power_k",
                     "--param", "v_k=4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "A3" in out and "A2" in out


@pytest.mark.parametrize("argv, a3, witness", [
    (["--param", "v_curvature=1e300"], "not-checked", [100.0]),
    (["--v-family", "power_k", "--param", "v_k=400"], "not-checked", [-10.0]),
    (["--v-family", "exp_power", "--param", "v_a=50"], "fail", None),
], ids=["quadratic_1e300", "power_k_400", "exp_power_a50"])
def test_cli_check_assumptions_where_the_fields_overflow(argv, a3, witness,
                                                         capsys):
    # numpy warnings escaped; a NaN margin was reported, and a quadratic V,
    # whose |grad V|^2 overflowed, failed A3 with margin inf: an undefined
    # tail ratio is not-checked, witnessed by its first net point
    assert cli_main(["check-assumptions", *argv]) == 0
    out = capsys.readouterr().out
    verdicts = json.loads(out[:out.rindex("}") + 1])["verdicts"]
    assert not any(v["margin"] is not None and math.isnan(v["margin"])
                   for v in verdicts.values())
    assert verdicts["A3"]["status"] == a3
    if witness is not None:
        assert verdicts["A3"]["witness"] == witness


def test_cli_check_assumptions_on_a_zero_confinement(capsys):
    # it used to exit 2 with "attempt to get argmax of an empty sequence"
    assert cli_main(["check-assumptions", "--v-family", "zero"]) == 0
    assert "A3:not-checked" in capsys.readouterr().out


def test_cli_check_assumptions_strict_failure(capsys):
    code = cli_main(["check-assumptions", "--v-family", "power_k",
                     "--param", "v_k=4", "--strict"])
    assert code == 3    # A2 fails for a genuinely superquadratic potential


def test_cli_check_assumptions_string_parameter(capsys):
    code = cli_main(["check-assumptions", "--w-family", "mollified_coulomb",
                     "--param", "w_form=arctan", "--param", "w_r0=1"])
    assert code == 0
    # C_K = sup|W''| = 2a / (3 r0^3) for the arctan form (1 for the power form)
    assert "C_K = 0.666667" in capsys.readouterr().out


def test_cli_check_assumptions_non_numeric_parameter(capsys):
    code = cli_main(["check-assumptions", "--v-family", "power_k",
                     "--param", "v_k=four"])
    assert code == 2
    assert "power_k: parameter k must be a number, got 'four'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("item, message", [
    ("v_k", "--param 'v_k' is not name=value"),
    ("k=4", "--param 'k=4': unknown key 'k' in [potential]; parameters "
            "take v_/w_ prefixes"),
    ("v_family=power_k", "--param 'v_family=power_k': set the family with "
                         "--v-family"),
])
def test_cli_check_assumptions_malformed_parameter(item, message, capsys):
    code = cli_main(["check-assumptions", "--param", item])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_cli_check_assumptions_has_no_theta_flag(capsys):
    # the screen takes A3 at the theta that the V family declares, with the
    # C_V_theta computed for it; a flag that set another theta is a usage
    # error
    with pytest.raises(SystemExit) as usage:
        cli_main(["check-assumptions", "--v-family", "power_k",
                  "--param", "v_k=4", "--theta", "0.25"])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --theta 0.25" in captured.err


@pytest.mark.parametrize("theta", ["-1", "0", "NaN", "nan"])
def test_cli_check_assumptions_refuses_a_theta_outside_its_rule(
        theta, tmp_path, capsys):
    # A3 is screened at the family's declared theta, but a --config that
    # sets [constants] theta is still held to that key's rule
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    f"[constants]\ntheta = {theta}\n")
    code = cli_main(["check-assumptions", "--config", cfg,
                     "--v-family", "power_k", "--param", "v_k=4"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("config error: line 4: [constants] theta must be ")


@pytest.mark.parametrize("argv, theta", [
    ([], 0.0),
    (["--v-family", "power_k", "--param", "v_k=4"], 0.25),
    (["--v-family", "power_k", "--param", "v_k=6"], 1.0 / 3.0),
], ids=["quadratic", "power_k_4", "power_k_6"])
def test_cli_check_assumptions_screens_a3_at_the_declared_theta(
        argv, theta, tmp_path, capsys):
    # each family's C_V_theta bounds its weighted Hessian at the theta it
    # declares; screened at [constants] theta = 0.25, A3 failed quadratic V
    # (141.4 against C_V_theta = 1) and power_k k = 6 (30000 against 30)
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[constants]\ntheta = 0.9\n")
    for config in ([], ["--config", cfg]):
        assert cli_main(["check-assumptions", *config, *argv]) == 0
        report, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert report["theta"] == pytest.approx(theta, abs=1e-15)
        assert report["verdicts"]["A3"]["status"] == "pass"


@pytest.mark.parametrize("key", ["fisher_delta", "fisher_a"])
def test_the_fisher_weight_keys_are_unknown(key, tmp_path, capsys):
    # meanfield_decay builds its M1 weight from (delta, a) = (1.0, 1.5) in
    # code; the keys that scaled it are gone
    cfg = write_cfg(tmp_path, MEANFIELD_SMALL + f"[constants]\n{key} = 1.0\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err \
        == f"config error: line 9: unknown key '{key}' in [constants]\n"


@pytest.mark.parametrize("recipe, model, got", [
    ("ergodicity", "gamma = 0\nsigma = 0\n", "gamma = 0.0, sigma = 0.0"),
    ("meanfield_decay", "gamma = 0\nsigma = 0\n",
     "gamma = 0.0, sigma = 0.0"),
    ("constants_table", "gamma = 0\n", "gamma = 0.0, sigma = 1.0"),
    ("constants_table", "sigma = 0\n", "gamma = 1.0, sigma = 0.0"),
], ids=["ergodicity", "meanfield_decay", "constants_table_gamma",
        "constants_table_sigma"])
def test_a_recipe_with_rates_refuses_zero_friction_or_noise(
        recipe, model, got, tmp_path, capsys):
    # each ended after set-up with an unnumbered 'step_vfp needs sigma > 0'
    # or 'gamma must be positive and finite, got 0.0'
    lines = "line 4, 5" if model.count("\n") == 2 else "line 4"
    message = (f"{lines}: recipe '{recipe}' needs gamma > 0 and sigma > 0 "
               f"(the rate recipes and the VFP step take both positive), "
               f"got {got}")
    cfg = write_cfg(tmp_path, f"[experiment]\nrecipe = {recipe}\n"
                    f"[model]\n{model}")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_constants_refuses_zero_friction_on_the_flag(capsys):
    assert cli_main(["constants", "--gamma", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: --gamma: recipe 'constants_table' needs gamma > 0 and "
        "sigma > 0 (the rate recipes and the VFP step take both positive), "
        "got gamma = 0.0, sigma = 1.0\n")


@pytest.mark.parametrize("text", [
    CHAOS_SMALL, CONCENTRATION_SMALL, "[experiment]\nrecipe = assumptions\n"],
    ids=["chaos_scaling", "concentration", "assumptions"])
def test_recipes_without_rates_admit_zero_friction_and_noise(text):
    cfg = parse_config(text + "[model]\ngamma = 0\nsigma = 0\n")
    assert (cfg.params.gamma, cfg.params.sigma) == (0.0, 0.0)


def test_cli_check_assumptions_defaults_to_the_uncoupled_pair(capsys):
    assert cli_main(["check-assumptions"]) == 0
    bare = capsys.readouterr().out
    assert cli_main(["check-assumptions", "--v-family", "quadratic",
                     "--w-family", "zero"]) == 0
    assert capsys.readouterr().out == bare


def test_cli_check_assumptions_screens_with_the_document_seed(tmp_path,
                                                              capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "seed = 5\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.json") as fh:
        ran = json.load(fh)["scalars"]["report"]
    capsys.readouterr()
    assert cli_main(["check-assumptions", "--config", cfg]) == 0
    screened, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert screened["seed"] == 5
    assert screened == ran
    # a flag overrides the document's seed
    assert cli_main(["check-assumptions", "--config", cfg,
                     "--seed", "0"]) == 0
    screened, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert screened["seed"] == 0
    assert screened["verdicts"]["A5"] != ran["verdicts"]["A5"]


def test_cli_constants_flag_overrides_the_document(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = constants_table\n")
    assert cli_main(["constants", "--json-only", "--config", cfg,
                     "--theta", "0.9"]) == 0
    flagged = json.loads(capsys.readouterr().out)
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = constants_table\n"
                    "[constants]\ntheta = 0.9\n")
    assert cli_main(["constants", "--json-only", "--config", cfg]) == 0
    assert flagged == json.loads(capsys.readouterr().out)
    assert flagged[2]["inputs"]["theta"] == 0.9


def test_cli_negative_seed_screens_a5(tmp_path, capsys):
    # the A5 draws take the seed masked to 64 bits, as every other recipe
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "seed = -1\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert cli_main(["check-assumptions", "--seed", "-1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_cli_run_refuses_fewer_than_one_thread(threads, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n")
    code = cli_main(["run", cfg, "--threads", threads,
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err \
        == f"config error: --threads must be at least 1, got {threads}\n"
    assert not (tmp_path / "out").exists()


def test_cli_constants_has_no_beta_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["constants", "--beta", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --beta 2" in capsys.readouterr().err


def test_cli_version(capsys):
    assert cli_main(["version"]) == 0
    assert capsys.readouterr().out.strip()


def test_cli_seed_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL_ERGODICITY)
    assert cli_main(["run", cfg, "--seed", "99",
                     "--out-dir", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "report.json") as fh:
        assert json.load(fh)["seed"] == 99


def test_run_of_a_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.ini"
    assert cli_main(["run", str(missing), "--out-dir",
                     str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert str(missing) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nseed = 1\n", "[experiment] recipe is required"),
    ("[model]\nbeta = 1.0\n", "[experiment] recipe is required"),
    ("[experiment]\nrecipe = constants_table\n[constants]\n"
     "meanfield_variant = 1\n",
     "line 4: [constants] meanfield_variant must be bool, got 1"),
    ("[experiment]\nrecipe = constants_table\n[constants]\n"
     "meanfield_variant = \"true\"\n",
     "line 4: [constants] meanfield_variant must be bool, got 'true'"),
])
def test_config_guards_refuse_bad_input(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [message]


def test_write_report_unwraps_numpy_scalars_and_arrays(tmp_path):
    report = harness.RunReport(recipe="constants_table", seed=0,
                               config_echo={})
    report.scalars = {"f": np.float64(0.1), "i": np.int64(7),
                      "a": np.array([[1.5, 2.0]]), "n": np.arange(3)}
    write_report(report, str(tmp_path))
    scalars = json.loads((tmp_path / "report.json").read_text())["scalars"]
    assert scalars == {"f": 0.1, "i": 7, "a": [[1.5, 2.0]], "n": [0, 1, 2]}
    report.scalars = {"x": object()}
    with pytest.raises(TypeError, match="^not JSON serializable: "
                                        "<class 'object'>$"):
        write_report(report, str(tmp_path / "again"))
