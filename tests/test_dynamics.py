"""Integrators, noise streams, and the stationary samplers."""

import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinchaos import dynamics, potentials
from kinchaos.dynamics import (ModelParams, PhaseEnsemble, RngSpec,
                               pairwise_force, sample_f_infty, sample_gibbs,
                               step_mckean_vlasov, step_particle_system)
from kinchaos.equilibrium import gaussian_closed_form
from kinchaos.errors import BlowUpError, StabilityError
from kinchaos.potentials import (Field, make_system, pair_panels,
                                 pairwise_interaction_energy)
from tests.conftest import quarter_linear_spec


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


def _fresh_step_normals(seed, stream, step, n, d):
    # a Philox generator built for this one draw, with the documented words:
    # key = seed, counter = (0, step, stream, KB_STREAM_STEP)
    mask = 2**64 - 1
    bits = np.random.Philox(
        key=np.uint64(seed & mask),
        counter=np.array([0, step & mask, stream & mask,
                          dynamics.KB_STREAM_STEP], dtype=np.uint64))
    return np.random.Generator(bits).standard_normal((n, d))


_DRAWS = [(seed, stream, step, n, d)
          for seed in (0, 3, 2**63 + 5, -7) for stream in (0, 2, 2**64 + 1)
          for step in (0, 1, 1999, 2**64 - 1) for n, d in ((256, 1), (3, 2))]


def test_step_normals_equal_a_fresh_philox_draw():
    # one generator per thread is reset on each call; a draw of 6 normals
    # leaves a part-used Philox block that the next reset must discard
    for seed, stream, step, n, d in _DRAWS:
        got = RngSpec(seed=seed, stream=stream).step_normals(step, n, d)
        assert np.array_equal(got, _fresh_step_normals(seed, stream, step,
                                                       n, d))


def test_step_normals_equal_a_fresh_philox_draw_across_threads():
    # each thread resets its own generator; more threads than cores, and a
    # short switch interval, so that draws interleave
    orders = [_DRAWS[k::2] + _DRAWS[1 - k::2] for k in (0, 1)] * 2
    barrier = threading.Barrier(len(orders))

    def draws(order):
        barrier.wait(timeout=60)
        return [RngSpec(seed=s, stream=m).step_normals(k, n, d)
                for s, m, k, n, d in order * 20]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            runs = [pool.submit(draws, order) for order in orders]
            results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for order, got in zip(orders, results):
        for draw, a in zip(order * 20, got):
            assert np.array_equal(a, _fresh_step_normals(*draw))


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


def test_pairwise_force_zero_w_forms_no_pairs(monkeypatch, baseline_params,
                                              rng):
    def refuse(X):
        raise AssertionError("pair_panels entered")

    monkeypatch.setattr(dynamics, "pair_panels", refuse)
    X = np.random.default_rng(8).standard_normal((64, 2))
    uncoupled = make_system("quadratic", None, d=2)
    f = pairwise_force(uncoupled, X)
    assert f.shape == X.shape and np.all(f == 0.0)
    assert not np.any(np.signbit(f))
    Z = PhaseEnsemble(X[:, :1], np.zeros((64, 1)))
    step_particle_system(Z, make_system("quadratic"), baseline_params, 0.01,
                         rng=rng)
    # the patch is live: an interaction outside the harmonic family does
    # reach the pair panels
    with pytest.raises(AssertionError, match="pair_panels entered"):
        pairwise_force(make_system("quadratic", None, "mollified_coulomb"),
                       X[:, :1])


@pytest.mark.parametrize("pair_sum", [pairwise_force,
                                      pairwise_interaction_energy])
def test_pair_sums_reach_the_panels_only_beyond_the_harmonic_family(
        monkeypatch, pair_sum):
    # harmonic and zero W sum by moments; Coulomb and a custom field, even
    # one with harmonic values, take the pair panels
    def refuse(X):
        raise AssertionError("pair_panels entered")

    monkeypatch.setattr(dynamics, "pair_panels", refuse)
    monkeypatch.setattr(potentials, "pair_panels", refuse)
    X = np.random.default_rng(9).standard_normal((64, 2))
    for spec in (make_system("quadratic", None, "harmonic_W", d=2),
                 make_system("quadratic", None, "zero", d=2)):
        pair_sum(spec, X)
    for spec in (make_system("quadratic", None, "mollified_coulomb", d=2),
                 quarter_linear_spec(2)):
        with pytest.raises(AssertionError, match="pair_panels entered"):
            pair_sum(spec, X)


def _pairwise_force_one_block(spec, X):
    # the whole N x N x d pair array at once: the unpanelled reference
    N = X.shape[0]
    k = -spec.W.grad(X[:, None, :] - X[None, :, :])
    k[np.arange(N), np.arange(N)] = 0.0
    return k.sum(axis=1) / N


@pytest.mark.parametrize("d", [1, 2])
def test_pairwise_force_exact_on_dyadic_inputs(d):
    # grad W = x/4 and positions on a 1/8 grid make every difference, kernel
    # value and partial sum exact, so any summation order gives the same
    # bits: a wrong sign, a missed pair or a square counted twice shows.
    # The custom W keeps the sum on the pair panels.
    N = 300
    spec = quarter_linear_spec(d)
    X = np.random.default_rng(d).integers(-64, 64, (N, d)) / 8.0
    assert np.array_equal(pairwise_force(spec, X),
                          _pairwise_force_one_block(spec, X))


@pytest.mark.parametrize("w_family", ["harmonic_W", "zero"])
@pytest.mark.parametrize("d", [1, 2])
def test_pairwise_force_moments_exact_on_dyadic_inputs(w_family, d):
    # N = 256 positions on a 1/8 grid: the mean is exact, so the moment sum
    # K(x_i - xbar) has the bits of the pair sum
    N = 256
    spec = make_system("quadratic", None, w_family, None, d=d)
    X = np.random.default_rng(d).integers(-64, 64, (N, d)) / 8.0
    assert np.array_equal(pairwise_force(spec, X),
                          _pairwise_force_one_block(spec, X))


@pytest.mark.parametrize("N, d", [(300, 1), (683, 1), (300, 2), (683, 2)])
def test_pairwise_force_moments_far_from_the_origin(N, d):
    # positions about 1e3 from the origin: one centring pass would carry the
    # rounding of the mean, about 1e-13, into every entry; the second pass
    # removes it
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25}, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d)) + 1e3
    ref = _pairwise_force_one_block(spec, X)
    err = np.max(np.abs(pairwise_force(spec, X) - ref))
    assert err <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
])
@pytest.mark.parametrize("N, d", [(200, 1), (300, 2), (683, 2)])
def test_pairwise_force_blocks_match_one_block(w_family, w_params, N, d):
    # 2**14 // (N d) rows per panel: 3, 12 and 63 panels, the last one short;
    # the panels sum in another order than the reference, to rounding level
    assert N % (2**14 // (N * d)) != 0
    spec = make_system("quadratic", None, w_family, w_params, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d))
    ref = _pairwise_force_one_block(spec, X)
    err = np.max(np.abs(pairwise_force(spec, X) - ref))
    assert err <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("pair_sum, method", [
    (pairwise_force, "grad"), (pairwise_interaction_energy, "value")])
@pytest.mark.parametrize("N, d", [(300, 1), (300, 2)])
def test_pair_sums_evaluate_each_unordered_pair_once(monkeypatch, pair_sum,
                                                     method, N, d):
    # W is evaluated on the N(N-1)/2 pairs i < j once, plus the h x h square
    # of each panel of h rows, which holds the pairs i > j and the diagonal
    spec = make_system("quadratic", None, "mollified_coulomb", None, d=d)
    X = np.random.default_rng(N).standard_normal((N, d))
    heights = [rows.stop - rows.start for rows, _, _ in pair_panels(X)]
    assert sum(heights) == N and len(heights) > 2
    points = []
    evaluate = getattr(spec.W, method)

    def counted(x):
        points.append(math.prod(x.shape[:-1]))
        return evaluate(x)

    monkeypatch.setattr(spec.W, method, counted)
    pair_sum(spec, X)
    assert len(points) == len(heights)
    assert sum(points) == N * (N - 1) // 2 + sum(h * (h + 1) // 2
                                                 for h in heights)


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


@pytest.mark.parametrize("far", [[30.0, 1.0], [1.0, 30.0]])
def test_dt_guard_takes_the_operator_norm_of_a_matrix_hessian(far, rng):
    # in d = 2 the stiffness is the largest eigenvalue of hess |x|^4,
    # 12 |x|^2 = 10812 at either point; the Hessian's first diagonal entry
    # would read 3612 at (1, 30), where dt 0.01 would pass
    spec = make_system("power_k", {"k": 4.0}, d=2)
    model = ModelParams(gamma=1.0, sigma=1.0, beta=1.0)
    Z = PhaseEnsemble(np.array([[0.1, 0.2], far]), np.zeros((2, 2)))
    message = (f"particle 1 at x = {far}: dt * sqrt(|hess V| + C_K) = 1.04 "
               f"> 0.5")
    with pytest.raises(StabilityError, match=f"^{re.escape(message)}"):
        step_particle_system(Z, spec, model, 0.01, rng=rng)


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


def test_steps_validate_each_state_once(monkeypatch, baseline_spec,
                                       baseline_params, rng):
    # _advance checks the new state for finiteness itself, so the ensemble
    # it returns skips the constructor's second check
    checks = []
    post_init = PhaseEnsemble.__post_init__

    def counted(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(PhaseEnsemble, "__post_init__", counted)
    Z = _cloud()
    for scheme in ("baoab", "euler_maruyama"):
        out = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                                   scheme=scheme, rng=rng)
        mv = step_mckean_vlasov(Z, baseline_spec, baseline_params, 0.01,
                                lambda x: np.zeros_like(x), rng=rng,
                                scheme=scheme)
        for state in (out, mv):
            assert state.positions.dtype == np.float64
            assert state.positions.shape == state.velocities.shape == (32, 1)
            assert (state.time, state.step) == (0.01, 1)
    assert len(checks) == 1  # the start, built by the public constructor
    with pytest.raises(ValueError, match="finite"):
        PhaseEnsemble(np.array([[np.nan]]), np.zeros((1, 1)))


# --- a step depends on its arguments alone ----------------------------------

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
    # a step keeps no state on the ensemble it returns, so stepping a copy
    # gives the same bits
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


def test_baoab_evaluates_force_at_both_kicks(force_calls, baseline_spec,
                                             baseline_params, rng):
    Z = _cloud()
    for _ in range(10):
        Z = step_particle_system(Z, baseline_spec, baseline_params, 0.01,
                                 rng=rng)
    assert len(force_calls) == 20


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


@pytest.mark.parametrize("side, name", [("W", "L_W"), ("V", "curvature")])
def test_carried_force_dropped_after_a_coefficient_change(
        side, name, force_calls, baseline_params, rng):
    # a field reads its coefficient at each call, so a value changed in place
    # is a new force
    spec = make_system("quadratic", {"curvature": 1.0},
                       "harmonic_W", {"L_W": 0.25})
    Z = step_particle_system(_cloud(8), spec, baseline_params, 0.01, rng=rng)
    setattr(getattr(spec, side), name, 0.75)
    expect = step_particle_system(Z.copy(), spec, baseline_params, 0.01,
                                  rng=rng)
    del force_calls[:]
    got = step_particle_system(Z, spec, baseline_params, 0.01, rng=rng)
    assert len(force_calls) == 2
    assert np.array_equal(got.positions, expect.positions)
    assert np.array_equal(got.velocities, expect.velocities)


class ScaledW(Field):
    """W(x) = (c/2)|x|^2 as a custom field whose params() does not show c."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.c * np.sum(x * x, axis=-1)

    def grad(self, x):
        return self.c * np.asarray(x, dtype=float)


def test_custom_field_changed_in_place_is_seen(baseline_params, rng):
    # the step must read c again: a force carried from the previous step
    # differed from the copy's by 1.4e-2 in velocity
    spec = replace(make_system("quadratic"), W=ScaledW(0.25))
    Z = step_particle_system(_cloud(8), spec, baseline_params, 0.01, rng=rng)
    spec.W.c = 2.0
    expect = step_particle_system(Z.copy(), spec, baseline_params, 0.01,
                                  rng=rng)
    got = step_particle_system(Z, spec, baseline_params, 0.01, rng=rng)
    assert np.array_equal(got.positions, expect.positions)
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
    x = dynamics._gaussian_gibbs_positions(
        gen, 300, gaussian_closed_form(1.0, 0.25, 1.0, 5), 2)
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
    with pytest.raises(ValueError, match="got power_k/zero"):
        sample_gibbs(spec, baseline_params, N=4, n_samples=10,
                     method="exact_gaussian", rng=rng)


def test_gibbs_exact_rejects_a_non_harmonic_interaction(baseline_params, rng):
    spec = make_system("quadratic", None, "mollified_coulomb", {"a": 0.2})
    with pytest.raises(ValueError, match="got quadratic/mollified_coulomb"):
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


# --- input guards ------------------------------------------------------------

@pytest.mark.parametrize("case, error, message", [
    ("ensemble_shapes", ValueError,
     r"positions and velocities must share shape \(N, d\)"),
    ("dt_zero", StabilityError, "dt must be positive"),
    ("dt_negative", StabilityError, "dt must be positive"),
    ("mckean_vlasov_without_rng", ValueError,
     "an RngSpec is required for reproducibility"),
    ("gibbs_without_rng", ValueError,
     "an RngSpec is required for reproducibility"),
    ("f_infty_without_rng", ValueError,
     "an RngSpec is required for reproducibility"),
    ("nan_provider", ValueError,
     r"density provider returned non-finite force at x = \[0\.5\]"),
    ("gibbs_method", ValueError, "unknown sampling method 'nuts'"),
])
def test_guards_refuse_bad_input(case, error, message, baseline_spec,
                                 baseline_params, rho_inf):
    Z = PhaseEnsemble(np.array([[0.5], [-1.0]]), np.zeros((2, 1)))

    def nan_at_first(x):
        force = np.zeros_like(x)
        force[0] = np.nan
        return force

    call = {
        "ensemble_shapes": lambda: PhaseEnsemble(np.zeros((4, 1)),
                                                 np.zeros((3, 1))),
        "dt_zero": lambda: step_particle_system(
            Z, baseline_spec, baseline_params, 0.0, rng=RngSpec(seed=0)),
        "dt_negative": lambda: step_mckean_vlasov(
            Z, baseline_spec, baseline_params, -0.01, np.zeros_like,
            rng=RngSpec(seed=0)),
        "mckean_vlasov_without_rng": lambda: step_mckean_vlasov(
            Z, baseline_spec, baseline_params, 0.01, np.zeros_like),
        "gibbs_without_rng": lambda: sample_gibbs(
            baseline_spec, baseline_params, 4, 2),
        "f_infty_without_rng": lambda: sample_f_infty(
            rho_inf, baseline_params, 4),
        "nan_provider": lambda: step_mckean_vlasov(
            Z, baseline_spec, baseline_params, 0.01, nan_at_first,
            rng=RngSpec(seed=0)),
        "gibbs_method": lambda: sample_gibbs(
            baseline_spec, baseline_params, 4, 2, method="nuts",
            rng=RngSpec(seed=0)),
    }[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()
