"""Config parsing, recipe orchestration, reporting, and the CLI surface."""

import functools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from kinchaos import chaos_metrics, equilibrium, harness
from kinchaos.chaos_metrics import error_statistics
from kinchaos.cli import main as cli_main
from kinchaos.dynamics import PhaseEnsemble, RngSpec, sample_f_infty
from kinchaos.errors import ConfigError
from kinchaos.harness import parse_config, run_experiment, write_report

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


def test_readme_config_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.recipe == "meanfield_decay"
    assert cfg.potential["w_family"] == "harmonic_W"
    assert cfg.numerics["T"] == 10.0


# --- recipes and reports --------------------------------------------------------

def test_ergodicity_small_run(tmp_path):
    report, paths = run_to_dir(MINIMAL_ERGODICITY, tmp_path)
    assert report.recipe == "ergodicity"
    names = {v["name"] for v in report.verdicts}
    assert "w2_reaches_floor" in names
    assert "rate_at_least_thm13_c" in names
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


def test_constants_table_recipe(tmp_path):
    report, _ = run_to_dir("[experiment]\nrecipe = constants_table\n",
                           tmp_path)
    assert report.passed()
    cols, rows = report.tables["constants"]
    assert len(rows) >= 3


def test_assumptions_recipe_baseline(tmp_path):
    report, _ = run_to_dir("[experiment]\nrecipe = assumptions\n", tmp_path)
    verdicts = {v["name"]: v for v in report.verdicts}
    assert verdicts["A1"]["passed"] and verdicts["A4"]["passed"]
    assert not verdicts["A5"]["passed"]     # harmonic W: honest failure


def test_verdicts_recomputable_from_series(tmp_path):
    report, _ = run_to_dir(MINIMAL_ERGODICITY, tmp_path)
    cols, rows = report.tables["w2_series"]
    w2 = [row[cols.index("w2")] for row in rows]
    recomputed = w2[-1] <= report.scalars["threshold"]
    verdict = next(v for v in report.verdicts
                   if v["name"] == "w2_reaches_floor")
    assert verdict["passed"] == recomputed
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
T = 0.4
""")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    assert "numerical failure" in capsys.readouterr().err


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


def test_cli_particle_dt_guard_exit_code(tmp_path, capsys):
    # gamma * dt = 0.6 > 0.5: refused by the particle stepper's first call
    cfg = write_cfg(tmp_path, MINIMAL_ERGODICITY + "dt = 0.6\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "dt * max(gamma" in err


def test_cli_unknown_potential_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = power_k\nv_k = 1.5\n"
                    "v_allow_small_k = 1\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "power_k: unknown parameter(s) allow_small_k; it takes k, amp" \
        in capsys.readouterr().err


def test_cli_non_numeric_potential_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = power_k\nv_k = four\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "power_k: parameter k must be a number, got 'four'" \
        in capsys.readouterr().err


def test_cli_wrong_side_family_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[experiment]\nrecipe = assumptions\n"
                    "[potential]\nv_family = mollified_coulomb\n"
                    "w_family = power_k\n")
    assert cli_main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "error: mollified_coulomb cannot be the confinement V: it is a " \
        "W family" in capsys.readouterr().err
    code = cli_main(["check-assumptions", "--v-family", "harmonic_W",
                     "--w-family", "quadratic"])
    assert code == 2
    assert "error: harmonic_W cannot be the confinement V" \
        in capsys.readouterr().err


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
    control = next(v for v in report.verdicts
                   if v["name"] == "zero_kernel_control")
    assert not control["passed"]
    assert control["measured"]["R0"] > 0.0


def test_zero_kernel_control_stays_on_a_narrow_grid():
    # x_max = 3 covers rho_inf for curvature 10; 32 standard normals drawn at
    # seed 5 would reach x = 3.7, off the table grid
    text = ("[experiment]\nrecipe = concentration\nseed = 5\n"
            "[potential]\nv_family = quadratic\nv_curvature = 10.0\n"
            "w_family = mollified_coulomb\nw_a = 0.2\n"
            "[numerics]\nN_list = [8, 16]\nn_mc = 4\nnx = 129\n"
            "x_max = 3.0\n")
    report = run_experiment(parse_config(text))
    control = next(v for v in report.verdicts
                   if v["name"] == "zero_kernel_control")
    assert control["passed"]


def test_repeated_n_rows_keep_their_own_se():
    # point i of N_list draws from rng.derive(20_000 * (i + 1)), substreams
    # 0..n_mc-1; the two N = 8 points are different samples
    text = ("[experiment]\nrecipe = concentration\nseed = 0\n"
            "[numerics]\nN_list = [8, 8, 16]\nn_mc = 20\nnx = 129\n")
    cfg = parse_config(text)
    report = run_experiment(cfg)
    spec = harness.build_potential_spec(cfg.potential)
    params = harness.build_model_params(cfg.model)
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


def test_cli_constants_subcommand(capsys):
    assert cli_main(["constants", "--gamma", "1", "--sigma", "1",
                     "--c-k", "0.25", "--c-v", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.0017715419501" in out      # thm13 delta for these inputs
    assert '"rate"' in out


def test_cli_check_assumptions_subcommand(capsys):
    code = cli_main(["check-assumptions", "--v-family", "power_k",
                     "--param", "v_k=4", "--theta", "0.25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "A3" in out and "A2" in out


def test_cli_check_assumptions_strict_failure(capsys):
    code = cli_main(["check-assumptions", "--v-family", "power_k",
                     "--param", "v_k=4", "--theta", "0.25", "--strict"])
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
