"""Wasserstein distances, entropy estimation, and mean-field error terms."""

import importlib.machinery
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.spatial import distance

from kinchaos import chaos_metrics, equilibrium
from kinchaos.chaos_metrics import (concentration_check, entropy_knn,
                                    error_statistics,
                                    error_statistics_reference, loglog_fit,
                                    mean_field_tables,
                                    mean_field_tables_reference, w2_exact,
                                    w2_gaussian, w2_gaussian_spectral)
from kinchaos.dynamics import (ModelParams, PhaseEnsemble, RngSpec,
                              sample_f_infty)
from kinchaos.equilibrium import Axis, solve_rho_infty
from kinchaos.potentials import RadialField, make_system, pair_panels

W2_1D_GAUSS = 0.10557280900008414      # |1 - sqrt(0.8)|
CHAOS_GAP = 0.011145618000168249       # (1 - sqrt(0.8))^2
GAUSS_ENTROPY = 1.4189385332046727     # 0.5 ln(2 pi e)


# --- w2_exact -----------------------------------------------------------------

def test_w2_identity_and_translation():
    gen = np.random.default_rng(0)
    a = gen.standard_normal((128, 2))
    assert w2_exact(a, a) == 0.0
    shift = np.array([0.3, -0.4])
    assert w2_exact(a, a + shift) == pytest.approx(0.5, abs=1e-12)


def test_w2_1d_matches_assignment_solver():
    gen = np.random.default_rng(1)
    for _ in range(10):
        a = gen.standard_normal(40)
        b = gen.standard_normal(40) * 1.5 + 0.2
        sorted_path = w2_exact(a, b)
        solver_path = w2_exact(np.column_stack([a, np.zeros(40)]),
                               np.column_stack([b, np.zeros(40)]))
        assert sorted_path == pytest.approx(solver_path, rel=1e-12)


def test_w2_gaussian_sampling_consistency(rng):
    gen = rng.sampler()
    a = gen.standard_normal(512)
    b = gen.standard_normal(512) * math.sqrt(0.8)
    # bootstrap SE of the sampled distance
    boots = []
    for q in range(20):
        idx = gen.integers(0, 512, size=512)
        boots.append(w2_exact(a[idx], b[idx]))
    se = float(np.std(boots, ddof=1))
    assert w2_exact(a, b) == pytest.approx(W2_1D_GAUSS, abs=3 * se + 0.02)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (3, 12, 2), elements=st.floats(-100, 100)))
def test_w2_metric_axioms(triple):
    # d = 1 sorts; d = 2 solves the assignment, here on clouds whose rows
    # repeat in pairs, so several couplings are optimal
    repeated = triple.copy()
    repeated[:, 1::2] = repeated[:, ::2]
    for (a, b, c), slack in ((triple[..., :1], 1e-12),
                             (repeated, 1e-12 * (1.0 + np.abs(triple).max()))):
        ab, ba = w2_exact(a, b), w2_exact(b, a)
        assert ab == ba
        assert ab >= 0.0
        assert ab <= w2_exact(a, c) + w2_exact(c, b) + slack


def test_w2_shape_errors():
    with pytest.raises(ValueError):
        w2_exact(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        w2_exact(np.zeros((5000, 2)), np.zeros((5000, 2)))


@pytest.mark.parametrize("a, b, message", [
    (np.zeros(0), np.zeros(0), "empty clouds"),
    (np.zeros((0, 2)), np.zeros((0, 2)), "empty clouds"),
    (np.array([0.0, np.nan]), np.zeros(2), "clouds must be finite"),
    (np.zeros((3, 2)), np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]),
     "clouds must be finite"),
])
def test_w2_exact_refuses_empty_or_non_finite_clouds(a, b, message):
    with pytest.raises(ValueError, match=message):
        w2_exact(a, b)


def _w2_raw_assignment(a, b):
    """W2 from the assignment on the raw cdist cost, summed in row order."""

    cost = distance.cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].sum()) / len(a))


def _assert_matches_raw_assignment(a, b):
    # the centred cost has the raw cost's optimal couplings; the matched
    # costs are summed in another order
    expected = _w2_raw_assignment(a, b)
    assert w2_exact(a, b) == pytest.approx(expected, rel=1e-14)
    assert w2_exact(b, a) == w2_exact(a, b)


@pytest.mark.parametrize("n, d", [(n, d) for d in (2, 3)
                                  for n in (2, 256, 512, 1024)]
                         + [(2, 8), (2, 9)])
def test_w2_centred_solve_matches_raw_assignment(d, n):
    gen = np.random.default_rng(1000 * d + n)
    for _ in range(50 if n == 2 else 1):
        a = gen.standard_normal((n, d))
        b = 0.7 * gen.standard_normal((n, d)) + 0.4
        _assert_matches_raw_assignment(a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_w2_centred_solve_matches_raw_assignment_far_from_origin(d):
    gen = np.random.default_rng(d)
    a = gen.standard_normal((256, d))
    b = 1.3 * gen.standard_normal((256, d))
    _assert_matches_raw_assignment(a + 1e3, b + 1e3)
    _assert_matches_raw_assignment(a + 1e3, b)


@pytest.mark.parametrize("x0", [3.0, np.nextafter(3.0, 0.0)])
def test_w2_cloud_of_identical_rows(x0):
    # The ergodicity start: every particle at x = 3 sigma with v = 0, so
    # every coupling is optimal.  The low byte of 3.0 is 0x00 and that of
    # its predecessor is 0xff, so the repeated cloud is the first canonical
    # argument once and the second once.
    for n in (17, 256):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            same = np.tile([x0, 0.0], (n, 1))
            ref = np.column_stack([0.8 * gen.standard_normal(n),
                                   gen.standard_normal(n)])
            assert (same.tobytes() < ref.tobytes()) == (x0 == 3.0)
            _assert_matches_raw_assignment(same, ref)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("lead", [3.0, np.nextafter(3.0, 0.0)])
def test_w2_clouds_with_duplicated_points(d, lead):
    # lead sets the low byte of a's first value (see above), so a is the
    # first canonical argument for one lead and the second for the other
    for n in (64, 256):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((n, d))
            a[0, 0] = lead
            a[n // 2:] = a[:n - n // 2]
            b = gen.standard_normal((n, d)) + 0.5
            _assert_matches_raw_assignment(a, b)
            b[1::2] = b[::2][:n // 2]
            _assert_matches_raw_assignment(a, b)


def test_w2_solves_the_centred_cost(monkeypatch):
    seen = []

    def spy(cost):
        seen.append(float(cost.max()))
        return linear_sum_assignment(cost)

    monkeypatch.setattr(chaos_metrics, "linear_sum_assignment", spy)
    gen = np.random.default_rng(4)
    w2_exact(gen.standard_normal((64, 2)) + 1e3, gen.standard_normal((64, 2)))
    # the raw squared distances are about 2e6
    assert len(seen) == 1 and seen[0] < 100.0


def _shaped_cloud(gen, n, d, condition):
    # a rotated Gaussian cloud whose covariance has the given condition
    # number, up to sampling
    rotation = np.linalg.qr(gen.standard_normal((d, d)))[0]
    scales = np.sqrt(np.geomspace(1.0, condition, d))
    return (gen.standard_normal((n, d)) * scales) @ rotation


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("condition", [1.0, 1e2, 1e4, 1e8])
def test_w2_matched_solve_matches_raw_assignment(d, condition):
    gen = np.random.default_rng(int(d * condition) % 2**32)
    for n in (64, 256):
        a = _shaped_cloud(gen, n, d, condition)
        # correlated with a, and anisotropic on its own
        b = 0.5 * a @ np.triu(np.ones((d, d))) \
            + _shaped_cloud(gen, n, d, condition) + 0.3
        ac, bc = a - a.mean(axis=0), b - b.mean(axis=0)
        p, q = chaos_metrics._matched_clouds(ac, bc)
        # the map keeps the cross term, so the optimal couplings
        assert p @ q.T == pytest.approx(ac @ bc.T, rel=1e-6, abs=1e-9 * (
            np.abs(ac).max() * np.abs(bc).max()))
        _assert_matches_raw_assignment(a, b)
        _assert_matches_raw_assignment(b, 2.0 * a)


@pytest.mark.parametrize("case", ["identical_rows", "collinear",
                                  "constant_coordinate", "n_equals_d",
                                  "n_below_d", "opposed_anisotropy"])
@pytest.mark.parametrize("d", [2, 3])
def test_w2_near_singular_covariance_takes_the_centred_cost(case, d):
    gen = np.random.default_rng(d)
    n = {"n_equals_d": d, "n_below_d": d - 1}.get(case, 128)
    a = gen.standard_normal((n, d))
    b = gen.standard_normal((n, d)) + 0.5
    if case == "identical_rows":
        a = np.tile(a[0], (n, 1))
    elif case == "collinear":
        b = np.outer(gen.standard_normal(n), gen.standard_normal(d)) + 0.5
    elif case == "constant_coordinate":
        a[:, -1] = 2.0
    elif case == "opposed_anisotropy":
        # each covariance passes, at condition 1e11, but their long axes
        # cross, and the A computed in the order (a, b) has an eigenvalue
        # <= 0 (the order (b, a) gives a positive definite one)
        gen = np.random.default_rng(3)
        a = _shaped_cloud(gen, n, d, 1e11)
        b = _shaped_cloud(gen, n, d, 1e11)
        for x in (a, b):
            spectrum = np.linalg.eigvalsh(np.cov(x.T))
            assert spectrum[0] > chaos_metrics._SINGULAR * spectrum[-1]
    ac, bc = a - a.mean(axis=0), b - b.mean(axis=0)
    for x, y in ((ac, bc), (bc, ac))[:1 if case == "opposed_anisotropy"
                                     else 2]:
        assert chaos_metrics._matched_clouds(x, y) is None
    _assert_matches_raw_assignment(a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_w2_solver_sees_reduced_matched_costs(monkeypatch, d):
    # every row and every column of the matched cost holds a zero, its
    # least entry; the centred fallback cost goes to the solver as it is
    seen = []

    def spy(cost):
        seen.append(cost.copy())
        return linear_sum_assignment(cost)

    monkeypatch.setattr(chaos_metrics, "linear_sum_assignment", spy)
    gen = np.random.default_rng(5)
    a = gen.standard_normal((96, d)) + 1e3
    b = _shaped_cloud(gen, 96, d, 10.0)
    same = np.tile(a[0], (96, 1))
    w2_exact(a, b)
    w2_exact(same, b)
    assert len(seen) == 2
    assert np.all(seen[0].min(axis=1) == 0.0)
    assert np.all(seen[0].min(axis=0) == 0.0)
    assert np.array_equal(seen[1], distance.cdist(
        same - same.mean(axis=0), b - b.mean(axis=0), "sqeuclidean"))


def test_w2_peak_memory_is_one_cost_matrix():
    gen = np.random.default_rng(1024)
    a = gen.standard_normal((1024, 2))
    b = gen.standard_normal((1024, 2)) + 0.3
    tracemalloc.start()
    try:
        w2_exact(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1024 * 1024 * 8


# --- the assignment, without scipy.optimize ------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 1024])
def test_sqeuclidean_cost_has_the_bits_of_cdist(n, d):
    # 64 rows per block: one short block, one full, one and a bit, and many
    gen = np.random.default_rng(10 * n + d)
    # coordinates over six decades, so a sum in another order would round
    # differently
    a = gen.standard_normal((n, d)) * np.geomspace(1e-3, 1e3, d)
    b = gen.standard_normal((n, d)) + 0.3
    assert chaos_metrics._sqeuclidean(a, b).tobytes() \
        == distance.cdist(a, b, "sqeuclidean").tobytes()


def test_extension_solver_matches_the_public_one():
    gen = np.random.default_rng(6)
    costs = [gen.standard_normal((n, n)) for n in (1, 2, 31, 256)]
    costs.append(gen.random((50, 80)))
    # every row the same: every permutation is optimal, and the solver's
    # tie-breaking picks the columns
    costs.append(np.tile(gen.random(64), (64, 1)))
    solve = chaos_metrics._load_lsap()
    for cost in costs:
        rows, cols = solve(cost)
        expected = linear_sum_assignment(cost)
        assert np.array_equal(rows, expected[0])
        assert np.array_equal(cols, expected[1])


def test_lsap_loader_reads_the_extension_file(monkeypatch):
    # the file is read on its own: neither the public function nor a
    # sys.modules entry is involved
    import scipy.optimize
    name = "scipy.optimize._lsap"
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", None)
    monkeypatch.delitem(sys.modules, name, raising=False)
    assert callable(chaos_metrics._load_lsap())
    assert name not in sys.modules


def test_lsap_loader_falls_back_to_the_public_function(monkeypatch):
    # a scipy without the extension file, as the suffixes see it
    import scipy.optimize

    def public(cost):
        return linear_sum_assignment(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", public)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".not-an-extension"])
    assert chaos_metrics._load_lsap() is public


IMPORT_FOOTPRINT = """
import sys
import numpy as np
import kinchaos.cli
from kinchaos import w2_exact

gen = np.random.default_rng(0)
a = gen.standard_normal((64, 2))
w2_exact(a, gen.standard_normal((64, 2)) + 0.5)
w2_exact(np.tile(a[0], (64, 1)), a)
print(*sorted(sys.modules))
"""


def test_import_and_assignment_load_no_heavy_scipy_subpackage():
    # scipy.optimize, with scipy.linalg and scipy.sparse behind it, was
    # most of the time `import kinchaos.cli` took
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.spatial",
             "scipy.special", "scipy.sparse")
    loaded = _run_python(IMPORT_FOOTPRINT).split()
    assert "kinchaos.cli" in loaded
    assert [m for m in loaded
            if m in heavy or m.startswith(tuple(h + "." for h in heavy))] \
        == []


# --- Gaussian closed forms ------------------------------------------------------

def test_w2_gaussian_1d_oracle():
    d = w2_gaussian(np.zeros(1), np.eye(1), np.zeros(1), 0.8 * np.eye(1))
    assert d == pytest.approx(W2_1D_GAUSS, rel=1e-12)


def test_w2_gaussian_equal_inputs():
    # the trace formula cancels ~1e-15 in the squared distance, so the
    # distance itself is only zero to ~1e-7
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert w2_gaussian(np.ones(2), cov, np.ones(2), cov) == pytest.approx(
        0.0, abs=1e-7)


def test_w2_gaussian_commuting_diagonal():
    c1 = np.diag([1.0, 4.0])
    c2 = np.diag([0.25, 1.0])
    expect = math.sqrt((1 - 0.5) ** 2 + (2 - 1) ** 2)
    assert w2_gaussian(np.zeros(2), c1, np.zeros(2), c2) == pytest.approx(
        expect, rel=1e-10)


def test_w2_gaussian_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        w2_gaussian(np.zeros(2), bad, np.zeros(2), np.eye(2))


@pytest.mark.parametrize("mean2, cov1, message", [
    (np.zeros(1), np.eye(2), "mean dimensions differ"),
    (np.zeros(2), np.ones((2, 3)), "cov1 must be square"),
    (np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
     "cov1 must be symmetric"),
])
def test_w2_gaussian_refuses_mismatched_inputs(mean2, cov1, message):
    with pytest.raises(ValueError, match=message):
        w2_gaussian(np.zeros(2), cov1, mean2, np.eye(2))


@pytest.mark.parametrize("evals1, evals2, message", [
    (((1.0, 2),), ((1.0, 3),), "different total multiplicity"),
    (((1.0, 1), (0.5, 1)), ((2.0, 1),), "different total multiplicity"),
    (((-0.1, 1), (1.0, 1)), ((1.0, 2),), "must be nonnegative"),
    (((1.0, 2),), ((1.0, 1), (-1e-300, 1)), "must be nonnegative"),
])
def test_w2_gaussian_spectral_refuses_mismatched_spectra(evals1, evals2,
                                                         message):
    with pytest.raises(ValueError, match=message):
        w2_gaussian_spectral(evals1, evals2)


def test_w2_gaussian_spectral_matches_bures():
    # shared eigenbasis spectra: ((value, multiplicity), ...)
    spec1 = ((1.0, 1), (0.8, 3))
    spec2 = ((0.8, 4),)
    d2 = w2_gaussian_spectral(spec1, spec2)
    assert d2 == pytest.approx(CHAOS_GAP, rel=1e-12)
    dense = w2_gaussian(np.zeros(4), np.diag([1.0, 0.8, 0.8, 0.8]),
                        np.zeros(4), 0.8 * np.eye(4))
    assert math.sqrt(d2) == pytest.approx(dense, rel=1e-6)


def test_w2_gaussian_spectral_mean_gap():
    d2 = w2_gaussian_spectral(((1.0, 2),), ((1.0, 2),), mean_gap_sq=0.09)
    assert d2 == pytest.approx(0.09, rel=1e-14)


def test_w2_gaussian_spectral_rejects_a_flat_spectrum():
    # only ((value, multiplicity), ...) is accepted; a flat eigenvalue array
    # must not end in a bare unpacking TypeError
    with pytest.raises(ValueError, match=r"must be \(\(value, multiplicity"):
        w2_gaussian_spectral(np.array([1.0, 0.8]), ((0.8, 2),))


# --- entropy ---------------------------------------------------------------------

def test_entropy_standard_normal(rng):
    x = rng.sampler().standard_normal(4096)
    est = entropy_knn(x)
    assert est.value == pytest.approx(GAUSS_ENTROPY, abs=0.05)
    assert est.se < 0.05
    assert not est.degenerate


def test_entropy_scaling_law(rng):
    x = rng.sampler().standard_normal(4096)
    base = entropy_knn(x).value
    scaled = entropy_knn(3.0 * x).value
    assert scaled - base == pytest.approx(math.log(3.0), abs=0.05)


def test_entropy_uniform(rng):
    u = rng.sampler().uniform(size=4096)
    assert entropy_knn(u).value == pytest.approx(0.0, abs=0.05)


def test_entropy_duplicates_jittered(rng):
    # k=4: a zero 4th-neighbor distance needs each point repeated > 4 times
    x = np.repeat(rng.sampler().standard_normal(64), 5)
    est = entropy_knn(x)
    assert est.jittered


def test_entropy_needs_enough_samples():
    with pytest.raises(ValueError):
        entropy_knn(np.zeros(30), k=4)


# --- error statistics ---------------------------------------------------------

@pytest.fixture(scope="module")
def mollified_setup():
    spec = make_system("quadratic", {"curvature": 1.0}, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    params = ModelParams(1.0, 1.0, 1.0)
    rho = solve_rho_infty(spec, params, Axis(-9.0, 9.0, 256))
    return spec, params, rho


def ensemble_from(rho, params, rng, n):
    from kinchaos.dynamics import sample_f_infty
    x, v = sample_f_infty(rho, params, n, rng=rng)
    return PhaseEnsemble(x[:, None], v[:, None])


def test_error_stats_zero_kernel(baseline_params, rng):
    spec = make_system("quadratic", {"curvature": 1.0})
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 128))
    Z = ensemble_from(rho, baseline_params, rng, 32)
    stats = error_statistics(Z, spec, rho, params=baseline_params)
    assert set(stats.aggregates) == {"R0", "R1", "R3"}
    for name in ("R0", "R1", "R3"):
        assert stats.aggregate(name) == 0.0


def test_error_stats_match_reference(mollified_setup, rng):
    spec, params, rho = mollified_setup
    ref_tables = mean_field_tables_reference(spec, rho)
    for n in (1, 2, 16, 64):
        Z = ensemble_from(rho, params, rng.derive(n), n)
        fast = error_statistics(Z, spec, rho, params=params)
        ref = error_statistics_reference(Z, spec, rho, params=params,
                                         tables=ref_tables)
        assert fast.aggregates.keys() == ref.aggregates.keys()
        for name in ("R0", "R1", "R3"):
            assert fast.aggregate(name) == pytest.approx(
                ref.aggregate(name), rel=1e-12, abs=1e-300), (name, n)


def test_reference_tables_stand_apart_from_the_fast_tables(monkeypatch,
                                                          baseline_params,
                                                          rng):
    spec = make_system("quadratic", {"curvature": 1.0}, "mollified_coulomb",
                       {"a": 0.2, "r0": 1.0, "form": "arctan"})
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 48))
    Z = ensemble_from(rho, baseline_params, rng, 16)
    built = error_statistics_reference(Z, spec, rho)

    def refuse(*args, **kwargs):
        raise AssertionError("the reference reached the fast tables")

    monkeypatch.setattr(chaos_metrics, "mean_field_tables", refuse)
    monkeypatch.setattr(equilibrium, "interaction_convolution", refuse)
    tables = mean_field_tables_reference(spec, rho)
    passed = error_statistics_reference(Z, spec, rho, tables=tables)
    assert passed.aggregates == built.aggregates
    assert np.array_equal(passed.r1, built.r1)
    # the passed tables are the ones used: zero tables leave the pair sums
    bare = error_statistics_reference(Z, spec, rho, tables=(np.zeros(48),
                                                            np.zeros(48)))
    shift = np.interp(Z.positions[:, 0], rho.x_axis.nodes, tables[0])
    assert np.allclose(bare.r0[:, 0] - shift, built.r0[:, 0], rtol=0,
                       atol=1e-15)


def test_error_stats_harmonic_closed_form(baseline_spec, baseline_params,
                                          rho_inf, rng):
    # harmonic kernel with centered rho: the pair sum is -L(x_i - xbar) and
    # the convolution is -L x_i, so R0_i = L xbar for every particle
    Z = ensemble_from(rho_inf, baseline_params, rng, 64)
    stats = error_statistics(Z, baseline_spec, rho_inf,
                             params=baseline_params)
    x = Z.positions[:, 0]
    # only grid-quadrature error of the tabulated convolution remains
    assert np.max(np.abs(stats.r0[:, 0] - 0.25 * np.mean(x))) < 1e-6


def test_error_stats_escape_names_particle(mollified_setup):
    spec, params, rho = mollified_setup
    Z = PhaseEnsemble(np.array([[0.0], [40.0]]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="particle 1"):
        error_statistics(Z, spec, rho, params=params)


def test_error_stats_rejects_2d(mollified_setup):
    spec, params, rho = mollified_setup
    Z = PhaseEnsemble(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        error_statistics(Z, spec, rho, params=params)


def _error_terms_one_block(spec, rho, tables, x, v):
    # the whole N x N pair array at once: the unpanelled reference; returns
    # R0, R1, R3 and the two interpolated convolutions
    N = x.size
    diff = x[:, None] - x[None, :]
    k_pair = -spec.W.grad(diff[..., None])[..., 0]
    dk_pair = -spec.W.hess(diff[..., None])[..., 0, 0]
    np.fill_diagonal(k_pair, 0.0)
    np.fill_diagonal(dk_pair, 0.0)
    conv_k = np.interp(x, rho.x_axis.nodes, tables[0])
    conv_dk = np.interp(x, rho.x_axis.nodes, tables[1])
    r0 = k_pair.sum(axis=1) / N - conv_k
    r1 = dk_pair.sum(axis=1) / N - conv_dk
    r3 = (dk_pair * v[None, :]).sum(axis=1) / N
    return (r0, r1, r3), (conv_k, conv_dk, 0.0)


def _error_terms(spec, rho, tables, x, v):
    stats = error_statistics(PhaseEnsemble(x[:, None], v[:, None]), spec,
                             rho, tables=tables)
    terms = (stats.r0[:, 0], stats.r1[:, 0, 0], stats.r3[:, 0])
    assert stats.aggregates == {
        "R0": float(np.mean(terms[0]**2)), "R1": float(np.mean(terms[1]**2)),
        "R3": float(np.mean(terms[2]**2))}
    return terms


def test_error_stats_exact_on_dyadic_inputs(baseline_params):
    # L_W = 1/4 and positions and velocities on a 1/8 grid make every kernel
    # value and partial sum exact, so any summation order gives the same
    # bits: a wrong sign, a missed pair or a square counted twice shows
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 128))
    tables = mean_field_tables(spec, rho)
    gen = np.random.default_rng(300)
    x, v = gen.integers(-24, 24, (2, 300)) / 8.0
    got = _error_terms(spec, rho, tables, x, v)
    ref, _ = _error_terms_one_block(spec, rho, tables, x, v)
    for term, want in zip(got, ref):
        assert np.array_equal(term, want)


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
    ("mollified_coulomb", {"a": 0.2, "r0": 1.0, "form": "arctan"}),
], ids=["harmonic", "coulomb_power", "coulomb_arctan"])
@pytest.mark.parametrize("N", [200, 300, 683])
def test_error_stats_blocks_match_one_block(w_family, w_params, N,
                                            baseline_params):
    # 2**14 // N rows per panel: 3, 6 and 30 panels, the last one short; the
    # panels sum in another order than the reference, so each term agrees to
    # rounding level of its pair sum, which the convolution nearly cancels
    assert N % (2**14 // N) != 0
    spec = make_system("quadratic", None, w_family, w_params)
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 128))
    tables = mean_field_tables(spec, rho)
    gen = np.random.default_rng(N)
    x, v = gen.standard_normal(N), gen.standard_normal(N)
    got = _error_terms(spec, rho, tables, x, v)
    ref, convs = _error_terms_one_block(spec, rho, tables, x, v)
    for term, want, conv in zip(got, ref, convs):
        assert np.max(np.abs(term - want)) \
            <= 1e-14 * np.max(np.abs(want + conv))


def test_error_stats_memory_stays_blocked(mollified_setup):
    # a dense N x N evaluation at N = 1024 peaks near 57 MiB
    spec, params, rho = mollified_setup
    tables = mean_field_tables(spec, rho)
    gen = np.random.default_rng(1024)
    Z = PhaseEnsemble(gen.standard_normal((1024, 1)),
                      gen.standard_normal((1024, 1)))
    tracemalloc.start()
    try:
        error_statistics(Z, spec, rho, tables=tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# the measurement runs in a fresh interpreter: glibc serves a large
# temporary from new pages or from its free lists depending on what the
# process freed before, so only a fresh process (as a `kinchaos run` is)
# makes the count repeatable
def _run_python(code):
    """The standard output of `code` run in a fresh interpreter that imports
    kinchaos from this source tree."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(chaos_metrics.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FAULTS_PER_CALL = """
import resource
import numpy as np
from kinchaos import chaos_metrics
from kinchaos.dynamics import ModelParams, RngSpec, sample_f_infty
from kinchaos.equilibrium import Axis, solve_rho_infty
from kinchaos.potentials import make_system

spec = make_system("quadratic", {"curvature": 1.0}, "mollified_coulomb",
                   {"a": 0.2, "b": 1.0, "k": 2.0})
params = ModelParams(1.0, 1.0, 1.0)
rho = solve_rho_infty(spec, params, Axis(-8.0, 8.0, 513))
tables = chaos_metrics.mean_field_tables(spec, rho)
x, v = np.empty((2, 4, 512))
for r in range(4):
    x[r], v[r] = sample_f_infty(rho, params, 512, RngSpec(seed=41),
                                substream=r)
chaos_metrics._error_terms(x, v, spec, rho, tables)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    chaos_metrics._error_terms(x, v, spec, rho, tables)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_error_terms_hold_no_new_panel_per_panel(mollified_setup,
                                                 monkeypatch):
    # the panels, W's derivatives and the products with v go into buffers
    # allocated once per call and reused by every panel, so no panel step
    # holds a new array of a panel's size (R h N entries): measured at
    # N = 512, R = 2 (h = 32, 256 KiB), a step peaks 131-134 KiB above its
    # start, numpy's iterator buffers for the broadcast operands, where
    # fresh panel-sized temporaries peaked at 1.1-2.0 MiB
    spec, params, rho = mollified_setup
    tables = mean_field_tables(spec, rho)
    gen = np.random.default_rng(512)
    x, v = gen.standard_normal((2, 2, 512))
    panel_bytes = x.size * (2**14 // 512) * 8
    panels, growth = chaos_metrics.pair_panels, []

    def traced(X, *args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for panel in panels(X, *args, **kwargs):
            yield panel
            now, peak = tracemalloc.get_traced_memory()
            growth.append(peak - start)
            tracemalloc.reset_peak()
            start = now

    monkeypatch.setattr(chaos_metrics, "pair_panels", traced)
    tracemalloc.start()
    try:
        chaos_metrics._error_terms(x, v, spec, rho, tables)
    finally:
        tracemalloc.stop()
    assert len(growth) == 16
    assert max(growth) < panel_bytes


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="fault counts calibrated on Linux with glibc")
def test_error_terms_fault_in_no_pages_per_panel():
    # the measurement behind the test above, in page faults: after a
    # warm-up, 20 calls at N = 512, R = 4 (a sweep's stack there) on the
    # coulomb_concentration table grid fault in 24 pages per call (x86-64
    # Linux, glibc 2.36, numpy 2.4), where a fresh temporary per panel step
    # faulted in 1085.  The count depends on the allocator as well as on this
    # code: glibc serves blocks of 128 KiB and more from fresh pages
    assert float(_run_python(FAULTS_PER_CALL).split()[-1]) < 100


def test_error_stats_one_radial_evaluation_per_block(mollified_setup,
                                                     monkeypatch):
    # K and K' of a panel come from one |x|²: one _radial call (the squared
    # norm, W'/s and W'') per pair panel
    spec, params, rho = mollified_setup
    tables = mean_field_tables(spec, rho)
    gen = np.random.default_rng(300)
    x = gen.standard_normal((300, 1))
    n_panels = len(list(pair_panels(x)))
    assert n_panels == 6
    calls = []
    radial = RadialField._radial

    def counted(self, diff, out):
        calls.append(diff.shape)
        return radial(self, diff, out)

    monkeypatch.setattr(RadialField, "_radial", counted)
    error_statistics(PhaseEnsemble(x, gen.standard_normal((300, 1))), spec,
                     rho, tables=tables)
    assert len(calls) == n_panels


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _error_terms_negated_panels(spec, rho, tables, x, v):
    # one ensemble over the unstacked pair panels, accumulating K = -grad W
    # and K' = -hess W themselves: the bits the folded signs must keep
    N = x.size
    r0, r1, r3 = np.zeros(N), np.zeros(N), np.zeros(N)
    for rows, diff, self_pairs in pair_panels(x[:, None]):
        grad, hess = spec.W._grad_hess(diff)
        k = -grad[..., 0]
        dk = -hess[..., 0, 0]
        k[self_pairs] = 0.0
        dk[self_pairs] = 0.0
        tail = slice(rows.stop - rows.start, None)
        r0[rows] += k.sum(axis=1)
        r0[rows.stop:] -= k[:, tail].sum(axis=0)
        r1[rows] += dk.sum(axis=1)
        r1[rows.stop:] += dk[:, tail].sum(axis=0)
        r3[rows] += (dk * v[rows.start:]).sum(axis=1)
        r3[rows.stop:] += (dk[:, tail] * v[rows, None]).sum(axis=0)
    return (r0 / N - np.interp(x, rho.x_axis.nodes, tables[0]),
            r1 / N - np.interp(x, rho.x_axis.nodes, tables[1]), r3 / N)


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
    ("mollified_coulomb", {"a": 0.2, "r0": 1.0, "form": "arctan"}),
], ids=["harmonic", "coulomb_power", "coulomb_arctan"])
@pytest.mark.parametrize("N", [24, 200, 300, 683])
def test_stacked_error_terms_equal_each_ensemble_alone(w_family, w_params, N,
                                                       baseline_params):
    # R ensembles stacked through the pair panels, R from 1 to past twice
    # the stack size of a sweep, give each ensemble the bits of
    # error_statistics on it alone, and those are the bits of the panel
    # sums of K and K' with their signs applied per pair
    spec = make_system("quadratic", None, w_family, w_params)
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 128))
    tables = mean_field_tables(spec, rho)
    size = chaos_metrics._stack_size(N)
    assert size == (113 if N == 24 else 4)
    counts = sorted({*range(1, min(size, 8) + 1), size, size + 1,
                     2 * size + 1})
    gen = np.random.default_rng(N)
    x, v = gen.standard_normal((2, counts[-1], N))
    alone = [error_statistics(PhaseEnsemble(x[r, :, None], v[r, :, None]),
                              spec, rho, tables=tables)
             for r in range(counts[-1])]
    for r in range(min(counts[-1], 5)):
        want = _error_terms_negated_panels(spec, rho, tables, x[r], v[r])
        got = (alone[r].r0[:, 0], alone[r].r1[:, 0, 0], alone[r].r3[:, 0])
        assert list(map(_bits, got)) == list(map(_bits, want))
    for R in counts:
        terms = chaos_metrics._error_terms(x[:R], v[:R], spec, rho, tables)
        aggs = chaos_metrics._mean_squares(terms)
        assert aggs.shape == (3, R)
        for r in range(R):
            stats = alone[r]
            assert _bits(terms[0][r]) == _bits(stats.r0[:, 0])
            assert _bits(terms[1][r]) == _bits(stats.r1[:, 0, 0])
            assert _bits(terms[2][r]) == _bits(stats.r3[:, 0])
            assert list(aggs[:, r]) == [stats.aggregates[t]
                                        for t in ("R0", "R1", "R3")]


def test_stacked_escape_names_the_repetition(mollified_setup):
    # a particle off the table grid in a later ensemble of a stack that
    # holds repetitions 5, 6, 7 is refused with its repetition and its
    # index, as one ensemble alone is refused with its index
    spec, params, rho = mollified_setup
    tables = mean_field_tables(spec, rho)
    x = np.zeros((3, 6))
    x[2, 4] = 40.0
    with pytest.raises(ValueError, match=r"repetition 7, particle 4 at "
                                         r"x=40\.0 escapes"):
        chaos_metrics._error_terms(x, np.zeros((3, 6)), spec, rho, tables,
                                   first=5)
    with pytest.raises(ValueError, match=r"^particle 4 at x=40\.0 escapes"):
        error_statistics(PhaseEnsemble(x[2, :, None], np.zeros((6, 1))), spec,
                         rho, tables=tables)


def test_reference_refuses_what_the_fast_path_refuses(mollified_setup):
    # the double loop keeps its own guards: a d = 2 ensemble, and a particle
    # off the table grid, named by its index
    spec, params, rho = mollified_setup
    tables = mean_field_tables(spec, rho)
    with pytest.raises(ValueError, match=r"^error statistics are "
                                         r"implemented for d = 1$"):
        error_statistics_reference(
            PhaseEnsemble(np.zeros((4, 2)), np.zeros((4, 2))), spec, rho,
            tables=tables)
    x = np.zeros((6, 1))
    x[4] = 40.0
    with pytest.raises(ValueError, match=r"^particle 4 at x=40\.0 escapes "
                                         r"the density grid \[-9\.0, 9\.0\]$"):
        error_statistics_reference(PhaseEnsemble(x, np.zeros((6, 1))), spec,
                                   rho, tables=tables)


@pytest.mark.parametrize("x, refused", [(8 + 4e-12, False),
                                        (8 + 1e-10, True)])
def test_both_error_term_paths_share_the_grid_escape_rule(x, refused):
    # one tolerance, 1e-12 max(1, |hi|) = 8e-12 on [-8, 8], for both paths;
    # the reference used to refuse x = 8 + 4e-12 with an absolute 1e-12
    spec = make_system("quadratic", None, "mollified_coulomb")
    rho = solve_rho_infty(spec, ModelParams(1.0, 1.0, 1.0),
                          Axis(-8.0, 8.0, 65))
    Z = PhaseEnsemble(np.array([[0.0], [x]]), np.zeros((2, 1)))
    for path, tables in (
            (error_statistics, mean_field_tables(spec, rho)),
            (error_statistics_reference,
             mean_field_tables_reference(spec, rho))):
        if refused:
            with pytest.raises(ValueError, match=r"^particle 1 at "
                               r"x=8\.0000000001 escapes the density grid"):
                path(Z, spec, rho, tables=tables)
        else:
            assert np.isfinite(path(Z, spec, rho, tables=tables)
                               .aggregate("R0"))


def test_both_error_term_paths_clamp_the_tables_at_either_grid_end():
    # particles 5e-12 past each end of [-8, 8] pass the escape rule and
    # take the end values of the tables, in both paths, to the bit
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    rho = solve_rho_infty(spec, ModelParams(1.0, 1.0, 1.0),
                          Axis(-8.0, 8.0, 65))
    tables = mean_field_tables(spec, rho)
    Z = PhaseEnsemble(np.array([[-8 - 5e-12], [8 + 5e-12]]),
                      np.array([[0.5], [-1.0]]))
    fast = error_statistics(Z, spec, rho, tables=tables)
    ref = error_statistics_reference(Z, spec, rho, tables=tables)
    assert fast.aggregates == ref.aggregates


def test_concentration_escape_names_the_repetition(mollified_setup, rng,
                                                   monkeypatch):
    # the sweep evaluates a point's ensembles in stacks, and the escape
    # names the repetition (the substream) as well as the particle
    spec, params, rho = mollified_setup
    draw = chaos_metrics.sample_f_infty

    def off_grid_at_substream_3(rho, params, n, rng, substream=0):
        x, v = draw(rho, params, n, rng, substream=substream)
        if substream == 3:
            x[5] = -40.0
        return x, v

    monkeypatch.setattr(chaos_metrics, "sample_f_infty",
                        off_grid_at_substream_3)
    # at N = 200 the stacks hold repetitions (0, 1, 2, 3) and (4,)
    assert chaos_metrics._stack_size(200) == 4
    with pytest.raises(ValueError, match="repetition 3, particle 5 at "
                                         "x=-40.0 escapes"):
        concentration_check(spec, rho, params, n_values=[8, 200], n_mc=5,
                            rng=rng)


# --- concentration ---------------------------------------------------------------

def _concentration_one_at_a_time(spec, rho, params, n_values, n_mc, rng):
    # the k-th smallest N draws substreams 0..n_mc-1 of
    # rng.derive(20_000 * (k + 1)); each ensemble goes through
    # error_statistics alone, and each (term, N) sample is reduced alone:
    # the (terms x N) mean and se arrays
    tables = mean_field_tables(spec, rho)
    ranked = sorted(range(len(n_values)), key=lambda i: n_values[i])
    mean, se = np.empty((2, 3, len(n_values)))
    for i, N in enumerate(n_values):
        point_rng = rng.derive(20_000 * (ranked.index(i) + 1))
        aggs = np.empty((3, n_mc))
        for s in range(n_mc):
            x, v = sample_f_infty(rho, params, N, point_rng, substream=s)
            stats = error_statistics(PhaseEnsemble(x[:, None], v[:, None]),
                                     spec, rho, tables=tables)
            aggs[:, s] = [stats.aggregates[t] for t in ("R0", "R1", "R3")]
        for k, vals in enumerate(aggs):
            mean[k, i] = vals.mean()
            se[k, i] = vals.std(ddof=1) / math.sqrt(n_mc)
    return mean, se


@pytest.mark.parametrize("threads", [1, 3])
def test_concentration_rows_equal_one_ensemble_at_a_time(mollified_setup, rng,
                                                         threads):
    # stacked points (N = 8 and 24 in one stack each, N = 200 and 300 in
    # stacks of four with a short last one) give the means and SEs of a loop
    # over the ensembles one at a time, bit for bit
    spec, params, rho = mollified_setup
    n_values = [24, 300, 8, 200]
    got = concentration_check(spec, rho, params, n_values=n_values, n_mc=5,
                              rng=rng, threads=threads)
    mean, se = _concentration_one_at_a_time(spec, rho, params, n_values, 5,
                                            rng)
    assert np.array_equal(got.mean, mean) and np.array_equal(got.se, se)


@pytest.mark.parametrize("n_values, n_mc", [([1, 8], 4), ([0, 8], 4),
                                            ([8, 16], 0)])
def test_concentration_refuses_sizes_without_pairs(mollified_setup, rng,
                                                   n_values, n_mc):
    spec, params, rho = mollified_setup
    with pytest.raises(ValueError, match="need n_mc >= 1 ensembles of N >= 2"):
        concentration_check(spec, rho, params, n_values=n_values, n_mc=n_mc,
                            rng=rng)


def test_loglog_fit_exact_power():
    n = np.array([8, 16, 32, 64, 128])
    slope, se, r2 = loglog_fit(n, 3.0 / n)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_concentration_slopes(mollified_setup, rng):
    spec, params, rho = mollified_setup
    result = concentration_check(spec, rho, params,
                                 n_values=[16, 32, 64, 128], n_mc=60,
                                 rng=rng)
    assert result.terms == ("R0", "R1", "R3")
    for term in result.terms:
        slope, se, r2 = result.fits[term]
        assert -1.3 <= slope <= -0.7, term
        assert r2 >= 0.8, term


def test_concentration_se_halves_with_budget(mollified_setup, rng):
    spec, params, rho = mollified_setup
    small = concentration_check(spec, rho, params, n_values=[32], n_mc=100,
                                rng=rng)
    big = concentration_check(spec, rho, params, n_values=[32], n_mc=400,
                              rng=rng)
    se_small = small.se[0, 0]
    se_big = big.se[0, 0]
    # quadrupling the MC budget should halve the SE, within 30%
    assert se_small / se_big == pytest.approx(2.0, rel=0.3)


def test_concentration_single_n_has_no_fit(mollified_setup, rng):
    spec, params, rho = mollified_setup
    result = concentration_check(spec, rho, params, n_values=[32], n_mc=20,
                                 rng=rng)
    assert result.fits["R0"] is None


def test_concentration_zero_kernel_skips_fit(baseline_params, rng):
    spec = make_system("quadratic", {"curvature": 1.0})
    rho = solve_rho_infty(spec, baseline_params, Axis(-9.0, 9.0, 128))
    result = concentration_check(spec, rho, baseline_params,
                                 n_values=[8, 16, 32], n_mc=10, rng=rng)
    assert result.mean.shape == (3, 3)
    assert np.all(result.mean == 0.0)
    assert result.fits["R0"] is None


def test_concentration_deterministic(mollified_setup, rng):
    spec, params, rho = mollified_setup
    a = concentration_check(spec, rho, params, n_values=[16, 32], n_mc=15,
                            rng=rng)
    b = concentration_check(spec, rho, params, n_values=[16, 32], n_mc=15,
                            rng=rng)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.se, b.se)


def test_concentration_threads_do_not_change_rows(mollified_setup, rng):
    spec, params, rho = mollified_setup
    one = concentration_check(spec, rho, params, n_values=[8, 16, 32],
                              n_mc=10, rng=rng, threads=1)
    two = concentration_check(spec, rho, params, n_values=[8, 16, 32],
                              n_mc=10, rng=rng, threads=2)
    assert np.array_equal(one.mean, two.mean)
    assert np.array_equal(one.se, two.se)
    assert one.fits == two.fits


def test_concentration_threads_do_not_change_a_multi_stack_point(
        mollified_setup, rng, monkeypatch):
    # at N = 512 a point's 9 ensembles run in stacks of 4, 4 and 1, the
    # shape of the sweep's costliest points, and two threads give the bits
    # of one
    spec, params, rho = mollified_setup
    stacks, error_terms = [], chaos_metrics._error_terms

    def recorded(x, *args, **kwargs):
        stacks.append(x.shape)
        return error_terms(x, *args, **kwargs)

    monkeypatch.setattr(chaos_metrics, "_error_terms", recorded)
    one = concentration_check(spec, rho, params, n_values=[32, 512], n_mc=9,
                              rng=rng, threads=1)
    assert sorted(stacks) == [(1, 512), (4, 512), (4, 512), (9, 32)]
    two = concentration_check(spec, rho, params, n_values=[32, 512], n_mc=9,
                              rng=rng, threads=2)
    assert np.array_equal(one.mean, two.mean)
    assert np.array_equal(one.se, two.se)
    assert one.fits == two.fits


def test_concentration_permuted_n_list_permutes_rows(mollified_setup, rng):
    # each N draws the stream of its rank and the largest N is submitted
    # first, so a permuted N list returns the same columns, permuted, bit
    # for bit, with the submission order and the index order apart at 3
    # threads
    spec, params, rho = mollified_setup
    ref = concentration_check(spec, rho, params, n_values=[8, 16, 24, 32],
                              n_mc=6, rng=rng, threads=1)
    permuted = [24, 8, 32, 16]
    columns = [[8, 16, 24, 32].index(N) for N in permuted]
    for threads in (1, 3):
        got = concentration_check(spec, rho, params, n_values=permuted,
                                  n_mc=6, rng=rng, threads=threads)
        assert np.array_equal(got.mean, ref.mean[:, columns])
        assert np.array_equal(got.se, ref.se[:, columns])
