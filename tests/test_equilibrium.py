"""Grid densities, the self-consistent equilibrium solver, and the Gaussian
closed forms that anchor it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kinchaos.dynamics import ModelParams
from kinchaos.equilibrium import (Axis, GridDensity, _closed_form,
                                  assemble_f_infty, formal_equilibrium,
                                  gaussian_closed_form,
                                  interaction_convolution, maxwellian_factor,
                                  solve_rho_infty)
from kinchaos.potentials import Field, make_system
from tests.conftest import grid_var


# --- Axis and GridDensity ----------------------------------------------------

def test_maxwellian_factor_refuses_a_grid_that_cuts_the_gaussian():
    # at beta = 1, |v| <= 4.5 holds 1 - 6.8e-6 of the mass and |v| <= 6
    # holds 1 - 2.0e-9, on either side of the 1 - 1e-6 the guard asks for
    params = ModelParams(gamma=1.0, sigma=1.0, beta=1.0)
    with pytest.raises(ValueError, match="widen it"):
        maxwellian_factor(params, Axis(-4.5, 4.5, 64))
    v_axis = Axis(-6.0, 6.0, 64)
    g = maxwellian_factor(params, v_axis)
    assert float(g @ v_axis.trapezoid_weights()) == pytest.approx(1.0)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(1.0, -1.0, 64)
    with pytest.raises(ValueError):
        Axis(-1.0, 1.0, 4)


def test_axis_trapezoid_weights_sum():
    ax = Axis(-3.0, 5.0, 33)
    assert float(ax.trapezoid_weights().sum()) == pytest.approx(8.0, rel=1e-12)


def test_axis_constants_are_shared_read_only():
    ax = Axis(-3.0, 5.0, 33)
    assert ax.nodes is ax.nodes
    assert np.array_equal(ax.nodes, np.linspace(-3.0, 5.0, 33))
    for arr in (ax.nodes, ax.trapezoid_weights()):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert ax == Axis(-3.0, 5.0, 33) and hash(ax) == hash(Axis(-3.0, 5.0, 33))


def test_density_normalization():
    ax = Axis(-8.0, 8.0, 128)
    raw = np.exp(-ax.nodes**2 / 2) * 7.3
    rho = GridDensity.from_values(ax, raw)
    assert rho.mass() == pytest.approx(1.0, abs=1e-12)


def test_density_rejects_negative():
    ax = Axis(-8.0, 8.0, 128)
    vals = np.full(ax.n, 1.0 / 16.0)
    vals[3] = -0.1
    with pytest.raises(ValueError):
        GridDensity(ax, vals)


def test_density_rejects_unnormalized():
    ax = Axis(-8.0, 8.0, 128)
    with pytest.raises(ValueError):
        GridDensity(ax, np.full(ax.n, 1.0))


def test_sample_positions_moments(rng):
    ax = Axis(-9.0, 9.0, 256)
    rho = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 1.6))
    x = rho.sample_positions(rng.sampler(), 50000)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    assert np.var(x) == pytest.approx(0.8, abs=0.02)


# --- convolution ------------------------------------------------------------

def test_harmonic_convolution_closed_form(baseline_spec):
    # (W * rho)(x) = (L/2)(x^2 - 2 x m + E[y^2]) for W = (L/2) r^2
    ax = Axis(-10.0, 10.0, 512)
    rho = GridDensity.from_values(ax, np.exp(-(ax.nodes - 0.7)**2 / 2))
    m1 = np.trapezoid(rho.values * ax.nodes, dx=ax.h)
    m2 = np.trapezoid(rho.values * ax.nodes**2, dx=ax.h)
    conv = interaction_convolution(baseline_spec, ax, rho.values)
    expect = 0.125 * (ax.nodes**2 - 2 * ax.nodes * m1 + m2)
    assert np.allclose(conv, expect, atol=1e-8)


def test_harmonic_convolution_derivative(baseline_spec):
    ax = Axis(-10.0, 10.0, 512)
    rho = GridDensity.from_values(ax, np.exp(-(ax.nodes - 0.7)**2 / 2))
    m1 = np.trapezoid(rho.values * ax.nodes, dx=ax.h)
    dconv = interaction_convolution(baseline_spec, ax, rho.values,
                                    derivative=1)
    assert np.allclose(dconv, 0.25 * (ax.nodes - m1), atol=1e-8)


# --- the Toeplitz convolution -------------------------------------------------

def gaussian_rho(ax):
    return GridDensity.from_values(ax, np.exp(-(ax.nodes - 0.3)**2 / 2)).values


def test_kernel_rebuilt_when_its_inputs_change():
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    ax = Axis(-6.0, 6.0, 64)
    rho = gaussian_rho(ax)
    first = interaction_convolution(spec, ax, rho)
    assert np.array_equal(interaction_convolution(spec, ax, rho), first)

    spec.W.L_W = 0.5                       # mutated in place
    doubled = interaction_convolution(spec, ax, rho)
    assert np.allclose(doubled, 2.0 * first, rtol=1e-15, atol=0.0)

    twin = make_system("quadratic", None, "harmonic_W", {"L_W": 0.5})
    assert np.array_equal(interaction_convolution(twin, ax, rho), doubled)


@pytest.mark.parametrize("w_family,w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
    ("mollified_coulomb", {"a": 0.2, "b": 0.5, "k": 3.0}),
    ("mollified_coulomb", {"a": 0.2, "r0": 1.0, "form": "arctan"}),
])
@pytest.mark.parametrize("derivative", [0, 1, 2])
def test_convolution_matches_naive_double_sum(w_family, w_params, derivative):
    spec = make_system("quadratic", None, w_family, w_params)
    field = (spec.W.value, lambda x: spec.W.grad(x)[..., 0],
             lambda x: spec.W.hess(x)[..., 0, 0])[derivative]
    for lo, hi, n in ((-9.0, 9.0, 128), (-5.0, 7.0, 65), (-8.0, 8.0, 513),
                      (-3.0, 11.0, 16)):
        ax = Axis(lo, hi, n)
        rho = gaussian_rho(ax)
        nodes = ax.nodes
        kernel = field((nodes[:, None] - nodes[None, :])[..., None])
        naive = kernel @ (rho * ax.trapezoid_weights())
        got = interaction_convolution(spec, ax, rho, derivative=derivative)
        assert np.max(np.abs(got - naive)) <= 1e-13 * np.max(np.abs(naive))


# --- solve_rho_infty ----------------------------------------------------------

def test_rho_infty_baseline_variance(rho_inf, x_axis):
    assert grid_var(x_axis, rho_inf.values) == pytest.approx(0.8, abs=1e-6)
    assert rho_inf.meta["converged"]


def test_rho_infty_zero_w_single_iteration(baseline_params):
    spec = make_system("quadratic", {"curvature": 1.0})
    ax = Axis(-9.0, 9.0, 128)
    rho = solve_rho_infty(spec, baseline_params, ax)
    assert rho.meta["iterations"] <= 2
    expect = np.exp(-ax.nodes**2 / 2)
    expect /= np.trapezoid(expect, dx=ax.h)
    assert np.allclose(rho.values, expect, atol=1e-12)


def test_rho_infty_grid_consistency(baseline_spec, baseline_params):
    a = solve_rho_infty(baseline_spec, baseline_params, Axis(-9.0, 9.0, 128))
    b = solve_rho_infty(baseline_spec, baseline_params, Axis(-9.0, 9.0, 256))
    va = grid_var(a.x_axis, a.values)
    vb = grid_var(b.x_axis, b.values)
    assert abs(va - vb) < 1e-3


def test_rho_infty_fixed_point_residual(baseline_spec, baseline_params,
                                        rho_inf, x_axis):
    # the returned density must satisfy rho = normalize(e^{-beta(V + W*rho)})
    conv = interaction_convolution(baseline_spec, x_axis, rho_inf.values)
    lhs = np.exp(-(0.5 * x_axis.nodes**2 + conv
                   - np.min(0.5 * x_axis.nodes**2 + conv)))
    lhs /= np.trapezoid(lhs, dx=x_axis.h)
    resid = np.trapezoid(np.abs(lhs - rho_inf.values), dx=x_axis.h)
    assert resid < 1e-9


def test_rho_infty_non_convergence_flagged(baseline_spec, baseline_params):
    rho = solve_rho_infty(baseline_spec, baseline_params, Axis(-9.0, 9.0, 128),
                          max_iter=1, tol=1e-14)
    assert not rho.meta["converged"]


def test_rho_infty_tiny_domain_rejected(baseline_spec, baseline_params):
    with pytest.raises(ValueError):
        solve_rho_infty(baseline_spec, baseline_params, Axis(-1.0, 1.0, 64))


# --- f_infty assembly ---------------------------------------------------------

def test_f_infty_product_structure(rho_inf, f_inf, v_axis):
    marg = f_inf.marginal_x()
    assert np.max(np.abs(marg.values - rho_inf.values)) < 1e-10


def test_f_infty_velocity_moment(f_inf, v_axis):
    rho_v = np.trapezoid(f_inf.values, dx=f_inf.x_axis.h, axis=0)
    second = np.trapezoid(rho_v * v_axis.nodes**2, dx=v_axis.h)
    assert second == pytest.approx(1.0, abs=1e-8)


def test_f_infty_tiny_v_grid_rejected(rho_inf, baseline_params):
    with pytest.raises(ValueError):
        assemble_f_infty(rho_inf, baseline_params, Axis(-1.5, 1.5, 64))


def test_formal_equilibrium_fixed_point(baseline_spec, baseline_params,
                                        x_axis, v_axis):
    # agreement is limited by how converged rho is, so solve tightly here
    rho = solve_rho_infty(baseline_spec, baseline_params, x_axis, tol=1e-13)
    f_ref = assemble_f_infty(rho, baseline_params, v_axis)
    f_hat = formal_equilibrium(rho, baseline_spec, baseline_params, v_axis)
    assert np.max(np.abs(f_hat.values - f_ref.values)) < 1e-12


def test_formal_equilibrium_w0_ignores_rho(baseline_params, v_axis):
    spec = make_system("quadratic", {"curvature": 1.0})
    ax = Axis(-9.0, 9.0, 128)
    rho_a = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 2))
    rho_b = GridDensity.from_values(ax, np.exp(-(ax.nodes - 1.0)**2 / 4))
    fa = formal_equilibrium(rho_a, spec, baseline_params, v_axis)
    fb = formal_equilibrium(rho_b, spec, baseline_params, v_axis)
    assert np.array_equal(fa.values, fb.values)


def test_formal_equilibrium_harmonic_variance(baseline_spec, baseline_params,
                                              v_axis):
    # harmonic W * rho adds curvature L_W regardless of rho's variance
    ax = Axis(-9.0, 9.0, 256)
    rho_t = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 2))
    f_hat = formal_equilibrium(rho_t, baseline_spec, baseline_params, v_axis)
    assert grid_var(ax, f_hat.marginal_x().values) == pytest.approx(
        0.8, abs=1e-6)


class NanAtOrigin(Field):
    """|x|²/2, but NaN at x = 0."""

    def value(self, x):
        r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return np.where(r2 == 0, np.nan, 0.5 * r2)


def test_gibbs_map_names_the_node_of_a_non_finite_value(baseline_params,
                                                        v_axis):
    # the one NaN must not spread through the shift by the largest exponent
    # before the guard looks; it named x=np.float64(-8.0), the first node
    spec = replace(make_system("quadratic"), V=NanAtOrigin())
    ax = Axis(-8.0, 8.0, 65)
    rho = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 2))
    with pytest.raises(ValueError,
                       match=r"^non-finite Gibbs map at grid value x=0\.0$"):
        formal_equilibrium(rho, spec, baseline_params, v_axis)


class BadAtOrigin(Field):
    """|x|²/2, but `at_origin` at x = 0."""

    def __init__(self, at_origin):
        self.at_origin = at_origin

    def value(self, x):
        r2 = np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
        return np.where(r2 == 0, self.at_origin, 0.5 * r2)


@pytest.mark.parametrize("at_origin, shown", [(math.nan, "nan"),
                                              (-math.inf, "-inf")])
def test_solve_rho_infty_names_the_node_of_a_nan_or_minus_inf_v(
        at_origin, shown, baseline_params):
    # the min of V spread the one value over the whole start iterate, and
    # the Gibbs-map guard named the first node, x=-8.0
    spec = replace(make_system("quadratic"), V=BadAtOrigin(at_origin))
    with pytest.raises(ValueError,
                       match=rf"^V is {shown} at grid value x=0\.0$"):
        solve_rho_infty(spec, baseline_params, Axis(-8.0, 8.0, 65))


def test_solve_rho_infty_takes_a_hard_wall(baseline_params):
    # V = +inf is a wall: the density is 0 there and 2 x^2 elsewhere
    ax = Axis(-8.0, 8.0, 65)
    walled = solve_rho_infty(replace(make_system("quadratic"),
                                     V=BadAtOrigin(math.inf)),
                             baseline_params, ax)
    assert walled.meta["converged"]
    assert walled.values[32] == 0.0
    assert np.all(walled.values[ax.nodes != 0] > 0)


# --- Gaussian closed forms ----------------------------------------------------

def test_closed_form_baseline_n4():
    rec = gaussian_closed_form(1.0, 0.25, 1.0, 4)
    assert rec.marginal_var_x1 == pytest.approx(0.85, rel=1e-14)
    assert rec.var_x == pytest.approx(0.8, rel=1e-14)
    assert rec.var_v == 1.0


def test_closed_form_matrix_matches_spectrum():
    # the position precision per coordinate is beta (lam_V I + L_W (I - J/N));
    # its inverse has the record's covariance spectrum, and Var(x_1), the
    # common diagonal, is the N-weighted mean of that spectrum
    rec = gaussian_closed_form(1.0, 0.25, 1.0, 4)
    eye, J = np.eye(4), np.full((4, 4), 1.0 / 4)
    cov = np.linalg.inv(1.0 * (1.0 * eye + 0.25 * (eye - J)))
    spectrum = sorted([val for val, mult in rec.covariance_spectrum()
                       for _ in range(mult)])
    assert np.allclose(np.linalg.eigvalsh(cov), spectrum, rtol=1e-12)
    assert cov[0, 0] == pytest.approx(rec.marginal_var_x1, rel=1e-12)
    assert sum(spectrum) / rec.N == pytest.approx(rec.marginal_var_x1,
                                                  rel=1e-12)


def test_closed_form_limits():
    big = gaussian_closed_form(1.0, 0.25, 1.0, 10**9)
    assert big.marginal_var_x1 == pytest.approx(0.8, abs=1e-8)
    free = gaussian_closed_form(1.0, 0.0, 1.0, 16)
    assert free.marginal_var_x1 == pytest.approx(1.0, rel=1e-14)
    assert free.var_x == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("w_family, w_params, L_W", [
    ("harmonic_W", {"L_W": 0.25}, 0.25),
    ("zero", None, 0.0),
])
def test_spec_closed_form_reads_the_fields(w_family, w_params, L_W):
    spec = make_system("quadratic", {"curvature": 1.5}, w_family, w_params)
    assert _closed_form(spec, 2.0, 8) == gaussian_closed_form(1.5, L_W, 2.0, 8)


@pytest.mark.parametrize("v_family, w_family", [
    ("power_k", "harmonic_W"),
    ("quadratic", "mollified_coulomb"),
])
def test_spec_closed_form_rejects_non_gaussian_families(v_family, w_family):
    spec = make_system(v_family, None, w_family, None)
    with pytest.raises(ValueError, match=f"got {v_family}/{w_family}"):
        _closed_form(spec, 1.0, 8)


# --- input guards ------------------------------------------------------------

def _zeroed(axis):
    """A normalized position density whose values are then zeroed in place,
    past the constructor's mass check."""

    rho = GridDensity.from_values(axis, np.ones(axis.n))
    rho.values[:] = 0.0
    return rho


@pytest.mark.parametrize("case, message", [
    ("axis_infinite_lo", "axis bounds must be finite"),
    ("axis_nan_hi", "axis bounds must be finite"),
    ("density_shape", r"values shape \(127,\) does not match axes \(128,\)"),
    ("zero_mass",
     "cannot normalize density with nonpositive or non-finite mass"),
    ("positions_of_phase",
     "sample_positions is defined for position densities"),
    ("positions_of_zeroed", "density has zero total mass"),
    ("phase_of_positions", "sample_phase needs a phase-space density"),
    ("derivative_3", "derivative must be 0, 1 or 2"),
    ("assemble_phase", r"rho must be a position \(1D\) density"),
    ("lam_V_zero", "need lam_V > 0, L_W >= 0, beta > 0, N >= 1"),
    ("lam_V_negative", "need lam_V > 0, L_W >= 0, beta > 0, N >= 1"),
])
def test_guards_refuse_bad_input(case, message, rho_inf, f_inf,
                                 baseline_spec, baseline_params):
    axis, gen = rho_inf.x_axis, np.random.default_rng(0)
    call = {
        "axis_infinite_lo": lambda: Axis(-math.inf, 1.0, 32),
        "axis_nan_hi": lambda: Axis(0.0, math.nan, 32),
        "density_shape": lambda: GridDensity(axis, np.ones(axis.n - 1)),
        "zero_mass": lambda: GridDensity.from_values(axis, np.zeros(axis.n)),
        "positions_of_phase": lambda: f_inf.sample_positions(gen, 3),
        "positions_of_zeroed": lambda: _zeroed(axis).sample_positions(gen, 3),
        "phase_of_positions": lambda: rho_inf.sample_phase(gen, 3),
        "derivative_3": lambda: interaction_convolution(
            baseline_spec, axis, rho_inf.values, derivative=3),
        "assemble_phase": lambda: assemble_f_infty(f_inf, baseline_params,
                                                   f_inf.v_axis),
        "lam_V_zero": lambda: gaussian_closed_form(0.0, 0.25, 1.0, 4),
        "lam_V_negative": lambda: gaussian_closed_form(-1.0, 0.25, 1.0, 4),
    }[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
