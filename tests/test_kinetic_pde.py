"""VFP stepper conservation laws, Lyapunov functionals, and decay fits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kinchaos import kinetic_pde
from kinchaos.dynamics import (ModelParams, PhaseEnsemble, RngSpec,
                               step_mckean_vlasov)
from kinchaos.equilibrium import (Axis, GridDensity, assemble_f_infty,
                                  interaction_convolution, solve_rho_infty)
from kinchaos.errors import SchemeError, StabilityError
from kinchaos.kinetic_pde import (KineticState, fit_decay, free_energy,
                                  modulated_energy, relative_entropy_grid,
                                  step_vfp, weighted_fisher)
from kinchaos.potentials import make_system
from tests.conftest import grid_var


def gaussian_phase(x_axis, v_axis, mx, mv, sx, sv):
    X, V = np.meshgrid(x_axis.nodes, v_axis.nodes, indexing="ij")
    raw = np.exp(-(X - mx) ** 2 / (2 * sx) - (V - mv) ** 2 / (2 * sv))
    return GridDensity.from_values(x_axis, raw, v_axis=v_axis)


@pytest.fixture(scope="module")
def relaxation_run(baseline_spec, baseline_params):
    """Var(x)=2 centered start evolved to T=2.5 on a wide grid, with a
    frozen-force Monte-Carlo companion sharing the same marginal history."""

    xa, va = Axis(-12.0, 12.0, 128), Axis(-9.0, 9.0, 128)
    rho = solve_rho_infty(baseline_spec, baseline_params, xa)
    f_ref = assemble_f_infty(rho, baseline_params, va)
    st = KineticState(density=gaussian_phase(xa, va, 0.0, 0.0, 2.0, 1.0))

    rng = RngSpec(seed=424242)
    gen = rng.sampler()
    n_mc = 10000
    Z = PhaseEnsemble(gen.standard_normal((n_mc, 1)) * math.sqrt(2.0),
                      gen.standard_normal((n_mc, 1)))

    dt, n_steps = 0.002, 1250
    drifts, F_series, H_series = [], [], []
    F_series.append(free_energy(st, baseline_spec, baseline_params).total)
    H_series.append(relative_entropy_grid(st.density, f_ref))
    for _ in range(n_steps):
        dconv = interaction_convolution(baseline_spec, xa,
                                        st.density.marginal_x().values,
                                        derivative=1)

        def provider(x, table=dconv):
            return -np.interp(x[:, 0], xa.nodes, table)[:, None]

        Z = step_mckean_vlasov(Z, baseline_spec, baseline_params, dt,
                               provider, rng=rng)
        st = step_vfp(st, baseline_spec, baseline_params, dt)
        drifts.append(st.mass_drift)
        F_series.append(free_energy(st, baseline_spec, baseline_params).total)
        H_series.append(relative_entropy_grid(st.density, f_ref))
    return SimpleNamespace(state=st, ensemble=Z, x_axis=xa, f_ref=f_ref,
                           drifts=np.array(drifts),
                           F=np.array(F_series), H=np.array(H_series))


def test_mass_conserved_per_step(relaxation_run):
    assert relaxation_run.state.density.mass() == pytest.approx(1.0,
                                                                abs=1e-10)
    assert np.max(np.abs(relaxation_run.drifts)) < 1e-12


def test_free_energy_monotone(relaxation_run):
    increases = np.diff(relaxation_run.F)
    assert float(np.max(increases)) <= 1e-8


def test_relative_entropy_monotone_after_transient(relaxation_run):
    increases = np.diff(relaxation_run.H)[10:]
    assert float(np.max(increases)) <= 1e-8
    assert relaxation_run.H[-1] < 0.01 * relaxation_run.H[0]


def test_variance_relaxes_toward_equilibrium(relaxation_run):
    var = grid_var(relaxation_run.x_axis,
                   relaxation_run.state.density.marginal_x().values)
    assert 0.8 <= var <= 0.95


def test_monte_carlo_moments_match_pde(relaxation_run):
    # the McKean-Vlasov cloud rode the same marginal history; 3 SE agreement
    x = relaxation_run.ensemble.positions[:, 0]
    var_pde = grid_var(relaxation_run.x_axis,
                       relaxation_run.state.density.marginal_x().values)
    n = x.size
    se_var = var_pde * math.sqrt(2.0 / (n - 1))
    assert np.var(x, ddof=1) == pytest.approx(var_pde, abs=3 * se_var)
    se_mean = math.sqrt(var_pde / n)
    assert np.mean(x) == pytest.approx(0.0, abs=3 * se_mean)


def test_near_stationarity_at_equilibrium(baseline_spec, baseline_params):
    xa, va = Axis(-9.0, 9.0, 96), Axis(-9.0, 9.0, 96)
    rho = solve_rho_infty(baseline_spec, baseline_params, xa)
    st = KineticState(density=assemble_f_infty(rho, baseline_params, va))
    start = st.density.values.copy()
    dt, n_steps = 0.001, 200
    for _ in range(n_steps):
        st = step_vfp(st, baseline_spec, baseline_params, dt)
    l1 = np.trapezoid(np.trapezoid(np.abs(st.density.values - start),
                                   dx=va.h), dx=xa.h)
    assert l1 / (dt * n_steps) < 1e-6


def test_self_convergence_in_dt(baseline_spec, baseline_params):
    # second-order splitting: each dt halving should cut the error by >= 1.7
    xa, va = Axis(-9.0, 9.0, 64), Axis(-9.0, 9.0, 64)
    f0 = gaussian_phase(xa, va, 1.0, -0.5, 1.0, 1.0)
    T = 0.64
    finals = {}
    for dt in (0.008, 0.004, 0.002, 0.001):
        st = KineticState(density=f0)
        for _ in range(int(round(T / dt))):
            st = step_vfp(st, baseline_spec, baseline_params, dt)
        finals[dt] = st.density.values
    def err(dt):
        diff = np.abs(finals[dt] - finals[0.001])
        return float(np.trapezoid(np.trapezoid(diff, dx=va.h), dx=xa.h))
    assert err(0.008) / err(0.004) >= 1.7
    assert err(0.004) / err(0.002) >= 1.7


def test_cfl_guard(baseline_spec, baseline_params, f_inf):
    st = KineticState(density=f_inf)
    with pytest.raises(StabilityError):
        step_vfp(st, baseline_spec, baseline_params, 0.2)


def test_cfl_checked_on_the_kick_force(monkeypatch, baseline_params, f_inf):
    # |V'| = 40 |x| reaches 360 on the grid: CFL about 5 at dt = 0.002
    spec = make_system("quadratic", {"curvature": 40.0})
    xa, va, dt = f_inf.x_axis, f_inf.v_axis, 0.002
    calls = []
    real = kinetic_pde.mean_field_force

    def spy(spec, x_axis, rho_values):
        calls.append((rho_values, real(spec, x_axis, rho_values)))
        return calls[-1][1]

    monkeypatch.setattr(kinetic_pde, "mean_field_force", spy)
    with pytest.raises(StabilityError, match="transport CFL") as err:
        step_vfp(KineticState(density=f_inf), spec, baseline_params, dt)
    # one force, from the marginal after the first drift half
    drifted = kinetic_pde._shift(f_inf.values,
                                 kinetic_pde._drift_phase(xa, va, dt), axis=0)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], drifted @ va.trapezoid_weights())
    cfl = dt * (np.max(np.abs(va.nodes)) / xa.h
                + np.max(np.abs(calls[0][1])) / va.h)
    assert f"transport CFL {cfl:.3f} > 0.9" in str(err.value)


def test_sigma_required(baseline_spec, f_inf):
    st = KineticState(density=f_inf)
    with pytest.raises(ValueError):
        step_vfp(st, baseline_spec, ModelParams(1.0, 0.0, 1.0), 0.002)


def test_nonfinite_cell_rejected(baseline_spec, baseline_params, f_inf):
    bad = f_inf.values.copy()
    bad[64, 64] = np.inf
    dens = GridDensity.__new__(GridDensity)  # bypass mass validation
    dens.x_axis, dens.v_axis = f_inf.x_axis, f_inf.v_axis
    dens.values, dens.meta = bad, {}
    st = KineticState(density=dens)
    with pytest.raises(SchemeError), np.errstate(invalid="ignore"):
        step_vfp(st, baseline_spec, baseline_params, 0.002)


# --- operator caches ----------------------------------------------------------

def clear_operator_caches():
    for cached in (kinetic_pde._drift_phase, kinetic_pde._ou_weights,
                   kinetic_pde._quad_weights, kinetic_pde._half_v_sq):
        cached.cache_clear()


@pytest.mark.parametrize("w_family,w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
])
def test_cached_steps_equal_uncached_steps_bitwise(w_family, w_params,
                                                  baseline_params):
    spec = make_system("quadratic", {"curvature": 1.0}, w_family, w_params)
    xa, va = Axis(-8.0, 8.0, 64), Axis(-8.0, 8.0, 64)
    start = KineticState(gaussian_phase(xa, va, 1.0, 0.5, 1.0, 1.0))
    dt, n_steps = 0.004, 50

    cached = [start]
    for _ in range(n_steps):
        cached.append(step_vfp(cached[-1], spec, baseline_params, dt))
    energies = [free_energy(st, spec, baseline_params) for st in cached]

    ref = start
    for st, energy in zip(cached[1:], energies[1:]):
        clear_operator_caches()
        fresh_x, fresh_v = Axis(xa.lo, xa.hi, xa.n), Axis(va.lo, va.hi, va.n)
        ref = KineticState(GridDensity(fresh_x, ref.density.values, fresh_v),
                           time=ref.time, step=ref.step,
                           mass_drift=ref.mass_drift)
        ref = step_vfp(ref, spec, baseline_params, dt)
        assert np.array_equal(st.density.values, ref.density.values)
        assert st.mass_drift == ref.mass_drift
        clear_operator_caches()
        assert free_energy(ref, spec, baseline_params) == energy


def test_cached_operators_are_read_only():
    xa, va = Axis(-8.0, 8.0, 64), Axis(-6.0, 6.0, 48)
    arrays = [kinetic_pde._drift_phase(xa, va, 0.01),
              *kinetic_pde._ou_weights(va, 1.0, 1.0),
              kinetic_pde._quad_weights(xa, va), kinetic_pde._half_v_sq(va)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_twenty_steps_evaluate_the_force_kernel_once_each(monkeypatch,
                                                        baseline_params):
    spec = make_system("quadratic", {"curvature": 1.0}, "harmonic_W",
                       {"L_W": 0.25})
    calls = []
    grad = spec.W.grad

    def counted(x):
        calls.append(np.shape(x))
        return grad(x)

    monkeypatch.setattr(spec.W, "grad", counted)
    xa, va = Axis(-8.0, 8.0, 64), Axis(-8.0, 8.0, 64)
    st = KineticState(gaussian_phase(xa, va, 1.0, 0.5, 1.0, 1.0))
    for _ in range(20):
        st = step_vfp(st, spec, baseline_params, 0.004)
    assert calls == [(2 * 64 - 1, 1)] * 20


# --- functionals --------------------------------------------------------------

def test_free_energy_closed_form_and_minimum(baseline_params):
    # W = 0, product Gaussians N(0,s) x N(0,1):
    # F(s) = 1/2 + s/2 - ln(2 pi e) - ln(s)/2, minimized at s = 1
    spec = make_system("quadratic", {"curvature": 1.0})
    xa, va = Axis(-12.0, 12.0, 256), Axis(-10.0, 10.0, 256)
    svals = np.linspace(0.6, 1.6, 11)
    totals = []
    for s in svals:
        f = gaussian_phase(xa, va, 0.0, 0.0, s, 1.0)
        F = free_energy(f, spec, baseline_params)
        expect = 0.5 + s / 2 - math.log(2 * math.pi * math.e) \
            - 0.5 * math.log(s)
        assert F.total == pytest.approx(expect, abs=1e-8)
        assert F.interaction == 0.0
        totals.append(F.total)
    assert int(np.argmin(totals)) == 4  # s = 1.0


def test_free_energy_interaction_term(baseline_spec, baseline_params, f_inf):
    F = free_energy(f_inf, baseline_spec, baseline_params)
    # harmonic self-interaction of a centered density: (L/4) * 2nd moment...
    # E[W * rho] / 2 with W*rho = (L/2)(x^2 + m2) gives (L/2) m2 = 0.1
    assert F.interaction == pytest.approx(0.5 * 0.25 * 0.8, abs=1e-6)


def test_relative_entropy_identity(f_inf):
    assert relative_entropy_grid(f_inf, f_inf) == 0.0


def test_relative_entropy_gaussian_oracle():
    ax = Axis(-12.0, 12.0, 512)
    f = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 2))
    g = GridDensity.from_values(ax, np.exp(-ax.nodes**2 / 4))
    assert relative_entropy_grid(f, g) == pytest.approx(
        0.0965735902799727, abs=1e-9)


def test_relative_entropy_nonnegative_random_pairs():
    gen = np.random.default_rng(12)
    ax = Axis(-10.0, 10.0, 256)
    for _ in range(50):
        c1, c2 = gen.uniform(-2, 2, size=2)
        s1, s2 = gen.uniform(0.5, 3.0, size=2)
        f = GridDensity.from_values(ax, np.exp(-(ax.nodes - c1)**2 / (2 * s1)))
        g = GridDensity.from_values(
            ax, np.exp(-(ax.nodes - c2)**2 / (2 * s2))
            + 0.3 * np.exp(-(ax.nodes + c2)**2 / (2 * s1)))
        assert relative_entropy_grid(f, g) >= -1e-10


def test_relative_entropy_grid_mismatch(f_inf):
    other = gaussian_phase(Axis(-12.0, 12.0, 128), f_inf.v_axis,
                           0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        relative_entropy_grid(f_inf, other)


def identity_blocks(X, V):
    one = np.ones_like(X)
    return one, np.zeros_like(X), one


def test_weighted_fisher_gaussian_oracle():
    # f, g differ only in v: N(0,1) vs N(0,2) => I = E_f[(v/2)^2] = 1/4
    xa, va = Axis(-9.0, 9.0, 256), Axis(-12.0, 12.0, 512)
    f = gaussian_phase(xa, va, 0.0, 0.0, 0.8, 1.0)
    g = gaussian_phase(xa, va, 0.0, 0.0, 0.8, 2.0)
    val, excluded = weighted_fisher(f, g, SimpleNamespace(
        blocks=identity_blocks))
    assert val == pytest.approx(0.25, abs=1e-4)
    assert excluded < 1e-12


def test_weighted_fisher_identity(f_inf):
    val, _ = weighted_fisher(f_inf, f_inf,
                             SimpleNamespace(blocks=identity_blocks))
    assert val == 0.0


def test_weighted_fisher_block_linearity(f_inf, baseline_params,
                                         baseline_spec):
    # I is linear in (e, f, g); recover the x/v parts from two PD probes
    # and predict a third weight exactly
    f = gaussian_phase(f_inf.x_axis, f_inf.v_axis, 0.4, -0.2, 1.1, 0.9)

    def fisher(e, fb, g):
        def blocks(X, V):
            one = np.ones_like(X)
            return e * one, fb * one, g * one
        return weighted_fisher(f, f_inf, SimpleNamespace(blocks=blocks))[0]

    base = fisher(1.0, 0.0, 1.0)
    ix = fisher(2.0, 0.0, 1.0) - base      # A = x-part
    iv = base - ix                          # B = v-part
    assert fisher(3.0, 0.0, 5.0) == pytest.approx(3 * ix + 5 * iv, rel=1e-12)


def test_weighted_fisher_scaling(f_inf):
    f = gaussian_phase(f_inf.x_axis, f_inf.v_axis, 0.4, -0.2, 1.1, 0.9)

    def scaled(s):
        def blocks(X, V):
            one = np.ones_like(X)
            return s * one, np.zeros_like(X), s * one
        return weighted_fisher(f, f_inf, SimpleNamespace(blocks=blocks))[0]

    assert scaled(4.0) == 4.0 * scaled(1.0)


def test_weighted_fisher_rejects_indefinite(f_inf):
    def blocks(X, V):
        one = np.ones_like(X)
        return one, 2.0 * one, one  # det = -3
    with pytest.raises(ValueError, match="x="):
        weighted_fisher(f_inf, f_inf, SimpleNamespace(blocks=blocks))


def test_modulated_energy_vanishes_at_equilibrium(baseline_spec,
                                                  baseline_params, f_inf):
    from kinchaos.constants import build_weight_matrix
    weights = build_weight_matrix("M1_constant", 1.0, 1.5)
    em = modulated_energy(f_inf, baseline_spec, baseline_params, weights,
                          f_inf)
    assert em.free_energy_gap == 0.0
    assert abs(em.total) < 1e-8


def test_modulated_energy_positive_off_equilibrium(baseline_spec,
                                                   baseline_params, f_inf):
    from kinchaos.constants import build_weight_matrix
    weights = build_weight_matrix("M1_constant", 1.0, 1.5)
    f = gaussian_phase(f_inf.x_axis, f_inf.v_axis, 1.0, -0.5, 0.8, 1.0)
    em = modulated_energy(f, baseline_spec, baseline_params, weights, f_inf)
    assert em.total > 0.1
    assert em.fisher > 0.0


# --- fit_decay ----------------------------------------------------------------

def test_fit_exact_exponential():
    t = np.linspace(0, 5, 40)
    fit = fit_decay(t, 3.0 * np.exp(-2.0 * t))
    assert fit.rate == pytest.approx(2.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(3.0, rel=1e-9)


def test_fit_constant_series():
    t = np.linspace(0, 5, 20)
    fit = fit_decay(t, np.full_like(t, 2.5))
    assert fit.rate == 0.0
    assert fit.r2 == 0.0


def test_fit_noisy_exponential():
    gen = np.random.default_rng(21)
    t = np.linspace(0, 5, 200)
    vals = np.exp(-1.3 * t) * (1.0 + 0.01 * gen.standard_normal(t.size))
    fit = fit_decay(t, vals)
    assert fit.rate == pytest.approx(1.3, rel=0.05)


def test_fit_window_and_skips():
    t = np.linspace(0, 10, 50)
    vals = np.exp(-t)
    vals[7] = -1.0
    fit = fit_decay(t, vals, window=(0.0, 5.0))
    assert fit.n_skipped == 1
    assert fit.rate == pytest.approx(1.0, abs=1e-9)


def test_fit_rejects_all_nonpositive():
    t = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        fit_decay(t, np.zeros_like(t))
