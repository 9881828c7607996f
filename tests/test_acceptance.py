"""The acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints `PASS criterion k: ...` or `FAIL criterion k: ...` with its
wall time (run pytest with -s to watch them as they complete), then asserts
both the claim and the runtime budget. Everything runs at desk scale on a
single machine.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from kinchaos.chaos_metrics import (entropy_knn, error_statistics,
                                    error_statistics_reference, loglog_fit,
                                    mean_field_tables_reference, w2_exact,
                                    w2_gaussian, w2_gaussian_spectral)
from kinchaos.constants import (build_weight_matrix, thm13_constants,
                                thm14_case1_constants, thm14_case2_constants)
from kinchaos.dynamics import ModelParams, PhaseEnsemble, RngSpec, sample_f_infty
from kinchaos.equilibrium import Axis, gaussian_closed_form, solve_rho_infty
from kinchaos.harness import (_VERDICTS, parse_config, run_experiment,
                              write_report)
from kinchaos.potentials import check_assumptions, make_system

from csv_manifest import CONFIGS

GAUSS_ENTROPY = 1.4189385332046727      # 0.5 ln(2 pi e)

# frozen hand evaluations of the three rate recipes at the baseline inputs
# (gamma=1, sigma=1, C_K=0.25, C_V=1, all log-Sobolev constants 1)
THM13_BASELINE = {"a": 1.6, "delta": 0.0017715419501133786,
                  "rate": 0.0017006802721088437}
THM14C1_REMARK = {"a": 4.5984930146430295e-05, "delta": 0.031244791373603097,
                  "rate": 2.064708344831762e-12,
                  "sigma_star": 899832054158.8073}
THM14C2_BASELINE = {"a": 3.678794411714423e-05,
                    "m2_prime": 16.002897160220808, "m2_doubleprime": 175.75,
                    "delta": 0.09374151299429732,
                    "rate": 3.964541941284949e-12,
                    "sigma_star": 21667272955888.695, "H0_min": 2.75}


def announce(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:>2}: {label} "
          f"({elapsed:.2f}s of {budget:.0f}s)")


def finish(num, label, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    announce(num, label, ok and in_budget, elapsed, budget)
    assert ok, f"criterion {num} failed: {label}"
    assert in_budget, f"criterion {num} over budget: {elapsed:.1f}s"


def run_recipe(text, threads=1):
    return run_experiment(parse_config(text), threads=threads)


def csv_blobs(report, out_dir):
    paths = write_report(report, str(out_dir))
    out = {}
    for p in paths:
        if p.endswith(".csv"):
            with open(p, "rb") as fh:
                out[os.path.basename(p)] = fh.read()
    return out


def matches(record, golden, rel=1e-12):
    return all(abs(getattr(record, k) - v) <= rel * abs(v)
               for k, v in golden.items())


def test_criterion_1_constant_recipes():
    t0 = time.perf_counter()
    ok = matches(thm13_constants(1.0, 1.0, 0.25, 1.0, 1.0), THM13_BASELINE)
    ok &= matches(thm14_case1_constants(1.0, 1.0, 0.25, 1.0, 1.0,
                                        a_rule="remark"), THM14C1_REMARK)
    ok &= matches(thm14_case2_constants(1.0, 1.0, 0.25, 1.0, 0.25, 1.0,
                                        1.0, 1), THM14C2_BASELINE)
    recipes = (lambda g, s: thm13_constants(g, s, 0.25, 1.0, 1.0),
               lambda g, s: thm14_case1_constants(g, s, 0.25, 1.0, 1.0),
               lambda g, s: thm14_case2_constants(g, s, 0.25, 1.0, 0.25,
                                                  1.0, 1.0, 1))
    for fn in recipes:
        for g in np.linspace(0.3, 2.5, 10):
            rates = [fn(g, s).rate for s in np.linspace(0.2, 4.0, 10)]
            ok &= all(b >= a for a, b in zip(rates, rates[1:]))
    finish(1, "rate recipes match frozen values; rates monotone in sigma "
           "on a 10x10 lattice", ok, t0, 1.0)


def test_criterion_2_weight_matrix_identity():
    t0 = time.perf_counter()
    gen = np.random.default_rng(12021)
    spec = make_system("quadratic", {"curvature": 1.0})
    worst = 0.0
    pd_ok = True
    for _ in range(20):
        delta = gen.uniform(0.01, 1.0)
        a = gen.uniform(0.1, 2.0)
        theta = gen.uniform(0.05, 0.5)
        H0 = gen.uniform(1.0, 3.0)
        M = build_weight_matrix("M2_hamiltonian_weighted", delta, a,
                                theta=theta, H0=H0, spec=spec)
        x = gen.uniform(-5.0, 5.0, 1000)
        v = gen.uniform(-5.0, 5.0, 1000)
        e, f, g = M.blocks(x, v)
        ident = M.determinant_identity(x, v)
        worst = max(worst, float(np.max(np.abs(e * g - f * f - ident)
                                        / ident)))
        pd_ok &= bool(np.all(e > 0) and np.all(e * g - f * f > 0))
    ok = worst <= 1e-14 and pd_ok
    finish(2, f"weight determinant identity holds to {worst:.1e} "
           "over 20 draws x 1000 points, positive definite throughout",
           ok, t0, 1.0)


def test_criterion_3_gaussian_ergodicity():
    t0 = time.perf_counter()
    report = run_recipe("[experiment]\nrecipe = ergodicity\n")
    ok = report.passed()
    # the theory rate the fit must beat, for the baseline inputs
    ok &= abs(report.scalars["thm13"]["rate"] - 0.0017006802721088437) < 1e-9
    ok &= report.verdicts["fit_r2"].measured >= 0.9
    finish(3, "N=64 cloud reaches the closed-form Gibbs marginal within "
           "2x the sampling floor, fitted rate beats the recipe rate",
           ok, t0, 60.0)


def test_criterion_4_uniform_in_n_closed_form():
    t0 = time.perf_counter()
    lam_V, L_W, beta = 1.0, 0.25, 1.0
    var_mf = 1.0 / (beta * (lam_V + L_W))
    gap_sq = (math.sqrt(1.0 / (beta * lam_V)) - math.sqrt(var_mf)) ** 2
    n_list = [8, 16, 32, 64, 128, 256, 512]
    vals = []
    for N in n_list:
        closed = gaussian_closed_form(lam_V, L_W, beta, N)
        vals.append(w2_gaussian_spectral(closed.covariance_spectrum(),
                                         ((var_mf, N),)) / N)
    exact = all(abs(N * v - gap_sq) <= 1e-12 * gap_sq
                for N, v in zip(n_list, vals))
    slope, _, _ = loglog_fit(n_list, vals)
    ok = exact and abs(slope + 1.0) <= 1e-3
    finish(4, f"per-particle joint W2^2 equals closed form / N "
           f"(log-log slope {slope:.6f})", ok, t0, 1.0)


def test_criterion_5_chaos_scaling():
    t0 = time.perf_counter()
    report = run_recipe("[experiment]\nrecipe = chaos_scaling\n")
    ok = report.passed()
    ok &= list(report.verdicts) == list(_VERDICTS["chaos_scaling"])
    finish(5, "Monte Carlo agrees with the closed-form marginal within 3 "
           "bootstrap SE",
           ok, t0, 120.0)


def test_criterion_6_meanfield_decay():
    t0 = time.perf_counter()
    report = run_recipe("[experiment]\nrecipe = meanfield_decay\n")
    ok = report.passed()
    ok &= list(report.verdicts) == list(_VERDICTS["meanfield_decay"])
    ok &= len(report.tables["w2_checkpoints"][1]) == 5
    finish(6, "128x128 kinetic PDE: mass conserved, free energy monotone, "
           "entropy and modulated energy decay, W2^2 under the envelope",
           ok, t0, 180.0)


def test_criterion_7_concentration():
    t0 = time.perf_counter()
    report = run_recipe("""
[experiment]
recipe = concentration

[potential]
v_family = quadratic
v_curvature = 1.0
w_family = mollified_coulomb
w_a = 0.2
w_b = 1.0
w_k = 2.0
""")
    ok = report.passed()
    ok &= list(report.verdicts) == list(_VERDICTS["concentration"])
    finish(7, "all three error aggregates decay like 1/N over N in 8..512 "
           "(200 repetitions); zero kernel gives exact zeros", ok, t0, 120.0)


def test_criterion_8_metric_suite():
    t0 = time.perf_counter()
    gen = RngSpec(seed=2024).sampler()
    axioms = True
    for _ in range(100):
        a, b, c = (gen.standard_normal((32, 2)) for _ in range(3))
        dab, dba = w2_exact(a, b), w2_exact(b, a)
        axioms &= dab == dba
        axioms &= w2_exact(a, c) <= dab + w2_exact(b, c) + 1e-12

    pairs = [((0.0, 1.0), (0.5, 1.0)), ((0.0, 1.0), (0.0, 1.5)),
             ((-1.0, 0.7), (1.0, 1.2)), ((0.0, 2.0), (0.3, 0.5)),
             ((2.0, 1.0), (2.0, 1.0))]
    rng = RngSpec(seed=909)
    reps, n = 12, 4096
    gaussian_ok = True
    for i, ((m1, s1), (m2, s2)) in enumerate(pairs):
        truth = w2_gaussian(np.array([m1]), np.array([[s1 * s1]]),
                            np.array([m2]), np.array([[s2 * s2]])) ** 2
        nets = []
        for r in range(reps):
            g = rng.derive(100 * i + r).sampler()
            a1 = m1 + s1 * g.standard_normal(n)
            a2 = m1 + s1 * g.standard_normal(n)
            b1 = m2 + s2 * g.standard_normal(n)
            b2 = m2 + s2 * g.standard_normal(n)
            # self-distance subtraction removes the finite-sample bias
            nets.append(w2_exact(a1, b1) ** 2
                        - 0.5 * w2_exact(a1, a2) ** 2
                        - 0.5 * w2_exact(b1, b2) ** 2)
        nets = np.asarray(nets)
        picks = rng.derive(100 * i + 99).sampler().integers(
            0, reps, size=(500, reps))
        se = float(np.std(nets[picks].mean(axis=1), ddof=1))
        gaussian_ok &= abs(float(nets.mean()) - truth) <= 3.0 * se

    ent = entropy_knn(RngSpec(seed=808).sampler().standard_normal(4096))
    entropy_ok = abs(ent.value - GAUSS_ENTROPY) <= 0.05

    spec = make_system("quadratic", {"curvature": 1.0}, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    params = ModelParams(1.0, 1.0, 1.0)
    rho = solve_rho_infty(spec, params, Axis(-9.0, 9.0, 256))
    stats_ok = True
    ref_tables = mean_field_tables_reference(spec, rho)
    for N in (2, 16, 64):
        x, v = sample_f_infty(rho, params, N, rng=RngSpec(seed=70 + N))
        Z = PhaseEnsemble(x[:, None], v[:, None])
        fast = error_statistics(Z, spec, rho, params=params)
        ref = error_statistics_reference(Z, spec, rho, params=params,
                                         tables=ref_tables)
        for name in ("R0", "R1", "R3"):
            f_val, r_val = fast.aggregate(name), ref.aggregate(name)
            stats_ok &= abs(f_val - r_val) <= 1e-12 * max(abs(r_val), 1e-300)

    ok = axioms and gaussian_ok and entropy_ok and stats_ok
    finish(8, "metric axioms on 100 triples, Gaussian W2 within 3 SE on 5 "
           "pairs, kNN entropy within 0.05, error terms match the "
           "double-loop reference to 1e-12", ok, t0, 60.0)


def test_criterion_9_assumption_checker():
    t0 = time.perf_counter()
    quartic = make_system("power_k", {"k": 4})
    rep_v = check_assumptions(quartic, seed=0)
    ok = rep_v.status("A3") == "pass" and rep_v.status("A2") == "fail"
    baseline = make_system("quadratic", {"curvature": 1.0}, "harmonic_W",
                           {"L_W": 0.25})
    rep_w = check_assumptions(replace(baseline, theta=0.25), seed=0)
    ok &= rep_w.status("A4") == "pass"
    a5 = rep_w.verdicts["A5"]
    ok &= a5.status == "fail" and a5.witness is not None
    finish(9, "quartic well: weighted-convexity pass, uniform-convexity "
           "fail; harmonic kernel: smallness pass, pointwise bound fails "
           "with a witness", ok, t0, 10.0)


def test_criterion_10_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for recipe, text in CONFIGS.items():
        runs = []
        for tag, threads in (("a1", 1), ("b1", 1), ("c3", 3)):
            report = run_recipe(text, threads=threads)
            runs.append(csv_blobs(report, tmp_path / f"{recipe}_{tag}"))
        same = runs[0] == runs[1] == runs[2] and len(runs[0]) > 0
        if not same:
            print(f"  nondeterministic CSVs for {recipe}")
        ok &= same
    elapsed = time.perf_counter() - t0
    announce(10, "every recipe yields byte-identical CSVs on rerun and "
             "across thread counts", ok, elapsed, 120.0)
    assert ok
