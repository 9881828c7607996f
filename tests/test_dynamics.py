"""Integrators, noise streams, and the stationary samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinchaos import dynamics
from kinchaos.dynamics import (ModelParams, PhaseEnsemble, RngSpec,
                               pairwise_force, sample_f_infty, sample_gibbs,
                               step_mckean_vlasov, step_particle_system)
from kinchaos.equilibrium import gaussian_closed_form
from kinchaos.errors import BlowUpError, StabilityError
from kinchaos.potentials import make_system


# --- noise streams -----------------------------------------------------------

def test_step_noise_deterministic():
    a = RngSpec(seed=11).step_normals(3, 5, 1)
    b = RngSpec(seed=11).step_normals(3, 5, 1)
    assert np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**62), st.integers(0, 2**20))
def test_step_noise_changes_with_step(seed, step):
    spec = RngSpec(seed=seed)
    a = spec.step_normals(step, 4, 1)
    b = spec.step_normals(step + 1, 4, 1)
    assert not np.array_equal(a, b)


def test_streams_disjoint():
    base = RngSpec(seed=7)
    assert not np.array_equal(base.step_normals(0, 8, 1),
                              base.derive(0).step_normals(0, 8, 1))
    assert not np.array_equal(base.sampler(0).standard_normal(8),
                              base.sampler(1).standard_normal(8))


def test_consecutive_steps_uncorrelated():
    # a block of step-k noise must not reappear shifted inside step k+1;
    # this is the counter-layout regression (identifying words must not sit
    # in the counter word Philox itself increments)
    spec = RngSpec(seed=123)
    n = 4096
    a = spec.step_normals(0, n, 1)[:, 0]
    b = spec.step_normals(1, n, 1)[:, 0]
    for shift in range(0, 64, 8):
        c = abs(float(np.dot(a[shift:], b[:n - shift])) / (n - shift))
        assert c < 0.1


def test_sampler_sequential_vs_step_block():
    gen = RngSpec(seed=9).sampler()
    first = gen.standard_normal(3)
    second = gen.standard_normal(3)
    assert not np.array_equal(first, second)


# --- single steps ------------------------------------------------------------

def test_free_transport_limit():
    # gamma = 0 with sigma -> 0 noise scale: pure ballistic update
    spec = make_system("zero")
    params = ModelParams(gamma=0.0, sigma=1e-300, beta=1.0)
    Z = PhaseEnsemble(np.array([[1.0], [-2.0]]), np.array([[0.5], [0.25]]))
    out = step_particle_system(Z, spec, params, 0.1, rng=RngSpec(seed=0))
    assert np.allclose(out.positions, Z.positions + 0.1 * Z.velocities,
                       atol=1e-12)
    assert np.allclose(out.velocities, Z.velocities, atol=1e-12)
    assert out.step == 1
    assert out.time == pytest.approx(0.1)


def test_pairwise_force_harmonic_closed_form(baseline_spec):
    # harmonic kernel: (1/N) sum_{j != i} -L (x_i - x_j) = -L (x_i - xbar)
    gen = np.random.default_rng(5)
    X = gen.standard_normal((64, 1))
    f = pairwise_force(baseline_spec, X)
    assert np.allclose(f, -0.25 * (X - X.mean()), atol=1e-13)


def test_pairwise_force_momentum_free():
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    X = np.random.default_rng(6).standard_normal((33, 1))
    f = pairwise_force(spec, X)
    assert abs(float(f.sum())) < 1e-13


def test_pairwise_force_single_particle(baseline_spec):
    assert np.all(pairwise_force(baseline_spec, np.ones((1, 1))) == 0.0)


def _pairwise_force_one_block(spec, X):
    # the whole N x N x d pair array at once: the unblocked reference
    N = X.shape[0]
    k = -spec.W.grad(X[:, None, :] - X[None, :, :])
    k[np.arange(N), np.arange(N)] = 0.0
    return k.sum(axis=1) / N


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
])
@pytest.mark.parametrize("N, d", [(200, 1), (300, 2), (683, 2)])
def test_pairwise_force_blocks_match_one_block(w_family, w_params, N, d):
    # 2**14 // (N d) rows per block: 3, 12 and 57 blocks, the last one short
    assert N % (2**14 // (N * d)) != 0
    spec = make_system("quadratic", None, w_family, w_params, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d))
    assert np.array_equal(pairwise_force(spec, X),
                          _pairwise_force_one_block(spec, X))


def test_step_determinism(baseline_spec, baseline_params, rng):
    Z = PhaseEnsemble(np.ones((8, 1)), np.zeros((8, 1)))
    a = step_particle_system(Z, baseline_spec, baseline_params, 0.01, rng=rng)
    b = step_particle_system(Z, baseline_spec, baseline_params, 0.01, rng=rng)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def test_mckean_zero_provider_matches_particle_system(baseline_params, rng):
    # with W = 0 and N = 1 both steppers consume the same stream exactly
    spec = make_system("quadratic", {"curvature": 1.0})
    Z = PhaseEnsemble(np.array([[2.0]]), np.array([[-1.0]]))
    a = step_particle_system(Z, spec, baseline_params, 0.01, rng=rng)
    b = step_mckean_vlasov(Z, spec, baseline_params, 0.01,
                           lambda x: np.zeros_like(x), rng=rng)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def test_dt_guard(baseline_spec, baseline_params, rng):
    Z = PhaseEnsemble(np.ones((4, 1)), np.zeros((4, 1)))
    with pytest.raises(StabilityError):
        step_particle_system(Z, baseline_spec, baseline_params, 10.0, rng=rng)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, params, far", [
    ("power_k", {"k": 4.0}, 10.0),
    ("exp_power", {"a": 1.0, "k": 0.5}, 1000.0),
])
def test_dt_guard_unbounded_hessian(family, params, far, rng):
    # C_V = inf: the guard bounds dt by the local stiffness at the current
    # positions, so the stiff start is refused at the first call, before
    # any overflow warning
    spec = make_system(family, params)
    assert spec.C_V == math.inf
    model = ModelParams(gamma=1.0, sigma=1.0, beta=1.0)
    Z = PhaseEnsemble(np.array([[0.5], [-0.25], [far], [1.0]]),
                      np.zeros((4, 1)))
    with pytest.raises(StabilityError, match="particle 2 "):
        step_particle_system(Z, spec, model, 0.1, rng=rng)
    with pytest.raises(StabilityError, match="particle 2 "):
        step_mckean_vlasov(Z, spec, model, 0.1, lambda x: np.zeros_like(x),
                           rng=rng)
    # the same dt is accepted where the well is soft
    Z = PhaseEnsemble(np.array([[0.5], [-0.25], [0.75], [1.0]]),
                      np.zeros((4, 1)))
    assert step_particle_system(Z, spec, model, 0.1, rng=rng).step == 1


def test_blowup_detected(rng):
    spec = make_system("power_k", {"k": 4.0})
    params = ModelParams(gamma=1.0, sigma=1.0, beta=1.0)
    Z = PhaseEnsemble(np.full((4, 1), 50.0), np.zeros((4, 1)))
    with pytest.raises(BlowUpError), np.errstate(over="ignore",
                                                 invalid="ignore"):
        for _ in range(50):
            Z = step_particle_system(Z, spec, params, 5.0, rng=rng,
                                     unsafe_dt=True)


def test_euler_maruyama_scheme_runs(baseline_spec, baseline_params, rng):
    Z = PhaseEnsemble(np.ones((8, 1)), np.zeros((8, 1)))
    out = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                               scheme="euler_maruyama", rng=rng)
    assert out.step == 1
    with pytest.raises(ValueError):
        step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                             scheme="verlet", rng=rng)


# --- carried closing force ---------------------------------------------------

@pytest.fixture()
def force_calls(monkeypatch):
    calls = []
    inner = dynamics.pairwise_force

    def counting(spec, X):
        calls.append(spec)
        return inner(spec, X)

    monkeypatch.setattr(dynamics, "pairwise_force", counting)
    return calls


def _cloud(N=32):
    gen = np.random.default_rng(17)
    return PhaseEnsemble(gen.standard_normal((N, 1)),
                         gen.standard_normal((N, 1)))


@pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
def test_chained_steps_match_fresh_steps(scheme, baseline_spec,
                                         baseline_params, rng):
    # copy() drops the carried force, so the second loop evaluates both
    # BAOAB kicks afresh on every step
    chained = fresh = _cloud()
    for _ in range(50):
        chained = step_particle_system(chained, baseline_spec,
                                       baseline_params, 0.01, scheme=scheme,
                                       rng=rng)
        fresh = step_particle_system(fresh.copy(), baseline_spec,
                                     baseline_params, 0.01, scheme=scheme,
                                     rng=rng)
    assert np.array_equal(chained.positions, fresh.positions)
    assert np.array_equal(chained.velocities, fresh.velocities)


def test_baoab_evaluates_force_once_per_step(force_calls, baseline_spec,
                                             baseline_params, rng):
    Z = _cloud()
    for _ in range(10):
        Z = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                                 rng=rng)
    assert len(force_calls) == 11


def test_carried_force_dropped_after_position_mutation(
        force_calls, baseline_spec, baseline_params, rng):
    Z = step_particle_system(_cloud(), baseline_spec, baseline_params, 0.01,
                             rng=rng)
    Z.positions[3, 0] += 0.5
    expect = step_particle_system(Z.copy(), baseline_spec, baseline_params,
                                  0.01, rng=rng)
    del force_calls[:]
    got = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                               rng=rng)
    assert len(force_calls) == 2
    assert np.array_equal(got.positions, expect.positions)
    assert np.array_equal(got.velocities, expect.velocities)


def test_carried_force_dropped_for_another_spec(force_calls, baseline_spec,
                                                baseline_params, rng):
    Z = step_particle_system(_cloud(), baseline_spec, baseline_params, 0.01,
                             rng=rng)
    stronger = make_system("quadratic", {"curvature": 1.0},
                           "harmonic_W", {"L_W": 0.5})
    twin = make_system("quadratic", {"curvature": 1.0},
                       "harmonic_W", {"L_W": 0.25})
    for spec in (stronger, twin):
        expect = step_particle_system(Z.copy(), spec, baseline_params, 0.01,
                                      rng=rng)
        del force_calls[:]
        got = step_particle_system(Z, spec, baseline_params, 0.01, rng=rng)
        assert force_calls == [spec, spec]
        assert np.array_equal(got.velocities, expect.velocities)
    # the same spec object with its interaction field swapped out
    swapped = make_system("quadratic", {"curvature": 1.0},
                          "harmonic_W", {"L_W": 0.25})
    Z = step_particle_system(Z, swapped, baseline_params, 0.01, rng=rng)
    swapped.W = stronger.W
    expect = step_particle_system(Z.copy(), swapped, baseline_params, 0.01,
                                  rng=rng)
    del force_calls[:]
    got = step_particle_system(Z, swapped, baseline_params, 0.01, rng=rng)
    assert len(force_calls) == 2
    assert np.array_equal(got.velocities, expect.velocities)


# --- long-run statistics -----------------------------------------------------

def test_baoab_ou_stationary_variances(rng):
    # W=0 quadratic well: exact OU stationary law Var(x)=Var(v)=1
    spec = make_system("quadratic", {"curvature": 1.0})
    params = ModelParams(gamma=1.0, sigma=1.0, beta=1.0)
    gen = rng.sampler()
    N = 4096
    Z = PhaseEnsemble(gen.standard_normal((N, 1)), gen.standard_normal((N, 1)))
    for _ in range(1500):
        Z = step_particle_system(Z, spec, params, 0.01, rng=rng)
    assert np.var(Z.positions) == pytest.approx(1.0, abs=0.05)
    assert np.var(Z.velocities) == pytest.approx(1.0, abs=0.05)


def test_interacting_stationary_marginal(baseline_spec, baseline_params, rng):
    # N-particle Gibbs marginal: Var(x_1) = (1-1/N)/1.25 + (1/N)/1
    N = 256
    expect = gaussian_closed_form(1.0, 0.25, 1.0, N).marginal_var_x1
    gen = rng.sampler()
    Z = PhaseEnsemble(gen.standard_normal((N, 1)), gen.standard_normal((N, 1)))
    samples = []
    for k in range(4000):
        Z = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                                 rng=rng)
        if k >= 1000 and k % 25 == 0:
            samples.append(np.var(Z.positions))
    mean = float(np.mean(samples))
    assert mean == pytest.approx(expect, abs=0.05)


# --- samplers ----------------------------------------------------------------

def test_gibbs_exact_gaussian_marginal(baseline_spec, baseline_params, rng):
    out = sample_gibbs(baseline_spec, baseline_params, N=4, n_samples=20000,
                       rng=rng)
    assert out.method == "exact_gaussian"
    x = out.positions[:, :, 0]
    v = out.velocities[:, :, 0]
    # frozen oracle: Var(x_1) = 0.8*0.75 + 0.25 = 0.85
    se = 0.85 * math.sqrt(2.0 / (x.shape[0] - 1))
    assert np.var(x[:, 0], ddof=1) == pytest.approx(0.85, abs=3 * se)
    assert np.var(v) == pytest.approx(1.0, abs=0.03)


def test_gibbs_arrays_equal_direct_draw(baseline_params, rng):
    # positions, then velocity normals, from one sampler generator
    spec = make_system("quadratic", {"curvature": 1.0}, "harmonic_W",
                       {"L_W": 0.25}, d=2)
    out = sample_gibbs(spec, baseline_params, N=5, n_samples=300, rng=rng)
    gen = rng.sampler()
    x = dynamics._gaussian_gibbs_positions(gen, 300, 5, 2, 1.0, 1.0, 0.25)
    v = gen.standard_normal((300, 5, 2))
    assert out.positions.shape == out.velocities.shape == (300, 5, 2)
    assert np.array_equal(out.positions, x)
    assert np.array_equal(out.velocities, v)


def test_gibbs_exact_gaussian_precision(baseline_spec, baseline_params, rng):
    # N=2 position precision [[1.125, -0.125], [-0.125, 1.125]]
    out = sample_gibbs(baseline_spec, baseline_params, N=2, n_samples=60000,
                       rng=rng)
    x = out.positions[:, :, 0]
    cov = np.cov(x.T)
    expect = np.linalg.inv(np.array([[1.125, -0.125], [-0.125, 1.125]]))
    assert np.allclose(cov, expect, atol=0.02)


def test_gibbs_mala_matches_exact(baseline_spec, baseline_params, rng):
    out = sample_gibbs(baseline_spec, baseline_params, N=4, n_samples=4000,
                       method="mala", rng=rng)
    assert out.acceptance_rate is not None
    assert 0.2 <= out.acceptance_rate <= 0.95
    x = out.positions[:, :, 0]
    assert np.var(x[:, 0], ddof=1) == pytest.approx(0.85, abs=0.08)


def test_gibbs_exact_rejected_off_family(baseline_params, rng):
    spec = make_system("power_k", {"k": 4.0})
    with pytest.raises(ValueError):
        sample_gibbs(spec, baseline_params, N=4, n_samples=10,
                     method="exact_gaussian", rng=rng)


def test_sample_f_infty_moments(rho_inf, baseline_params, rng):
    x, v = sample_f_infty(rho_inf, baseline_params, 40000, rng=rng)
    assert np.var(x) == pytest.approx(0.8, abs=0.02)
    assert np.var(v) == pytest.approx(1.0, abs=0.02)
    x2, v2 = sample_f_infty(rho_inf, baseline_params, 40000, rng=rng)
    assert np.array_equal(x, x2) and np.array_equal(v, v2)


def test_rng_required(baseline_spec, baseline_params):
    Z = PhaseEnsemble(np.ones((2, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        step_particle_system(Z, baseline_spec, baseline_params, 0.01)
