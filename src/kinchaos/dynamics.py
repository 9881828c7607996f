"""Kinetic Langevin integrators and equilibrium samplers.

The N-particle system

    dx_i = v_i dt
    dv_i = [-grad V(x_i) + (1/N) sum_{j != i} K(x_i - x_j) - gamma v_i] dt
           + sqrt(2 sigma) dB_i,     K = -grad W

is integrated with BAOAB splitting (default; the OU part is exact) or
Euler-Maruyama.  The mean-field counterpart replaces the pairwise sum with a
frozen convolved force supplied by a density provider, so particles evolve
independently.

All noise comes from counter-based streams keyed by (seed, stream, step):
one vectorized draw per step covers every particle in fixed row order, so a
trajectory is bit-reproducible regardless of how work is scheduled.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BlowUpError, StabilityError
from .potentials import (HarmonicW, Quadratic, Zero, _op_norms, pair_blocks,
                         pairwise_interaction_energy)

KB_STREAM_STEP = 0          # noise consumed by integrator steps
KB_STREAM_SAMPLER = 1       # noise consumed by samplers (Gibbs, f_infty)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based noise source: identical spec => identical noise sequence."""

    seed: int
    stream: int = 0

    def _generator(self, kind, counter):
        # Philox advances counter word 0 as it generates, so the identifying
        # words (step/substream, stream, kind) must sit in words 1..3 where a
        # carry can never reach them.  Otherwise consecutive steps would draw
        # from overlapping counter ranges and the noise would be correlated.
        key = np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF)
        bg = np.random.Philox(key=key,
                              counter=[np.uint64(0),
                                       np.uint64(counter & 0xFFFFFFFFFFFFFFFF),
                                       np.uint64(self.stream & 0xFFFFFFFFFFFFFFFF),
                                       np.uint64(kind)])
        return np.random.Generator(bg)

    def step_normals(self, step, n, d):
        """Standard normals for integrator step `step`, shape (n, d)."""

        return self._generator(KB_STREAM_STEP, step).standard_normal((n, d))

    def sampler(self, substream=0):
        """Sequential generator for samplers, disjoint from step noise."""

        return self._generator(KB_STREAM_SAMPLER, substream)

    def derive(self, offset):
        """Independent stream for a sweep point or worker."""

        return RngSpec(seed=self.seed, stream=self.stream + 1 + offset)


@dataclass(frozen=True)
class ModelParams:
    """Friction gamma, diffusion sigma, inverse temperature beta.

    gamma = sigma = 0 is admitted for the deterministic transport limit.
    The dynamics are stationary at exp(-(gamma/sigma) H), which is the law
    at inverse temperature beta only when sigma * beta = gamma.
    """

    gamma: float = 1.0
    sigma: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.gamma < 0 or self.sigma < 0:
            raise ValueError("gamma and sigma must be nonnegative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass
class PhaseEnsemble:
    """N particles in d dimensions: positions, velocities, clock, step count."""

    positions: np.ndarray       # (N, d)
    velocities: np.ndarray      # (N, d)
    time: float = 0.0
    step: int = 0
    # (spec, V, W, positions snapshot, force) from the closing kick of the
    # step that produced this state; see step_particle_system
    _closing_force: tuple | None = field(default=None, init=False,
                                         compare=False, repr=False)

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share shape (N, d)")
        if not (np.all(np.isfinite(self.positions))
                and np.all(np.isfinite(self.velocities))):
            raise ValueError("ensemble state must be finite")

    @property
    def N(self):
        return self.positions.shape[0]

    @property
    def d(self):
        return self.positions.shape[1]

    def copy(self):
        return PhaseEnsemble(self.positions.copy(), self.velocities.copy(),
                             self.time, self.step)


def pairwise_force(spec, X):
    """(1/N) sum_{j != i} K(x_i - x_j) for every i; direct O(N^2) sum.

    Each row of pair_blocks is reduced in fixed index order, so the result is
    independent of blocking and worker count.
    """

    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return np.zeros_like(X)
    out = np.empty_like(X)
    for rows, diff, self_pairs in pair_blocks(X):
        k = -spec.W.grad(diff)                      # K = -grad W
        k[self_pairs] = 0.0
        out[rows] = k.sum(axis=1) / N
    return out


def _ou_coefficients(params, dt):
    """Exact Ornstein-Uhlenbeck decay and noise scale over one step."""

    g, s = params.gamma, params.sigma
    if g == 0.0:
        return 1.0, math.sqrt(2.0 * s * dt)
    decay = math.exp(-g * dt)
    var = (s / g) * (-math.expm1(-2.0 * g * dt))
    return decay, math.sqrt(var)


def _check_dt(spec, params, dt, unsafe_dt, x):
    """Reject dt above 0.5 / (stiffness scale) before the step is taken.

    With a declared C_V the bound is global.  When C_V is infinite (power_k,
    exp_power) it uses the local stiffness max_i |hess V(x_i)| + C_K at the
    current positions, so a stiff start fails here and not as an overflow
    some steps later.
    """

    if dt <= 0:
        raise StabilityError("dt must be positive")
    if unsafe_dt:
        return
    c_k = spec.C_K if math.isfinite(spec.C_K) else 0.0
    scale = max(params.gamma,
                math.sqrt(spec.C_V) if math.isfinite(spec.C_V) else 0.0,
                math.sqrt(c_k))
    if dt * scale > 0.5:
        raise StabilityError(
            f"dt * max(gamma, sqrt(C_V), sqrt(C_K)) = {dt * scale:.3g} > 0.5; "
            "pass unsafe_dt=True to override")
    if math.isfinite(spec.C_V):
        return
    with np.errstate(all="ignore"):
        H = spec.V.hess(x)
    # a Hessian that overflows counts as infinitely stiff
    finite = np.all(np.isfinite(H), axis=(-2, -1))
    norms = np.full(len(x), math.inf)
    norms[finite] = _op_norms(H[finite])
    i = int(np.argmax(norms))
    local = dt * math.sqrt(norms[i] + c_k)
    if local > 0.5:
        raise StabilityError(
            f"particle {i} at x = {x[i].tolist()}: dt * sqrt(|hess V| + C_K) "
            f"= {local:.3g} > 0.5; pass unsafe_dt=True to override")


def _advance(Z, params, dt, scheme, rng, force, f_start=None):
    """Shared stepping core; `force` maps positions to total drift force.

    `f_start`, when given, is force(Z.positions) already known to the caller.
    Returns the new ensemble and the force at its positions when the scheme
    computed one (BAOAB's closing kick), else None.
    """

    x = Z.positions
    v = Z.velocities
    xi = rng.step_normals(Z.step, Z.N, Z.d)
    f = force(x) if f_start is None else f_start
    f_end = None
    if scheme == "euler_maruyama":
        x_new = x + v * dt
        v_new = v + (f - params.gamma * v) * dt + math.sqrt(2.0 * params.sigma * dt) * xi
    elif scheme == "baoab":
        decay, noise = _ou_coefficients(params, dt)
        v_half = v + 0.5 * dt * f
        x_half = x + 0.5 * dt * v_half
        v_ou = decay * v_half + noise * xi
        x_new = x_half + 0.5 * dt * v_ou
        f_end = force(x_new)
        v_new = v_ou + 0.5 * dt * f_end
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise BlowUpError(Z.step, f"(t = {Z.time:.6g})")
    return PhaseEnsemble(x_new, v_new, Z.time + dt, Z.step + 1), f_end


def step_particle_system(Z, spec, params, dt, scheme="baoab", rng=None,
                         unsafe_dt=False):
    """One step of the interacting N-particle system.

    A BAOAB step leaves the force of its closing kick on the returned
    ensemble, and the next call opens with it instead of evaluating the
    force again ("first same as last").  It is reused only for the same
    spec, V and W objects and positions equal to those it was computed at;
    any other state, and every `copy()`, gets a fresh evaluation.
    """

    if rng is None:
        raise ValueError("an RngSpec is required for reproducibility")
    _check_dt(spec, params, dt, unsafe_dt, Z.positions)

    def force(x):
        return -spec.V.grad(x) + pairwise_force(spec, x)

    f_start = None
    if Z._closing_force is not None:
        c_spec, c_V, c_W, c_x, c_f = Z._closing_force
        if (c_spec is spec and c_V is spec.V and c_W is spec.W
                and np.array_equal(c_x, Z.positions)):
            f_start = c_f
    out, f_end = _advance(Z, params, dt, scheme, rng, force, f_start)
    if f_end is not None:
        out._closing_force = (spec, spec.V, spec.W, out.positions.copy(),
                              f_end)
    return out


def step_mckean_vlasov(Z, spec, params, dt, density_provider, rng=None,
                       scheme="baoab", unsafe_dt=False):
    """One step under a frozen mean-field force K * rho_t.

    `density_provider` maps positions (N, d) -> force (N, d).  Particles are
    independent given the provider; with a zero provider and N=1 this consumes
    the same noise as step_particle_system and matches it exactly.
    """

    if rng is None:
        raise ValueError("an RngSpec is required for reproducibility")
    _check_dt(spec, params, dt, unsafe_dt, Z.positions)

    def force(x):
        drift = density_provider(x)
        drift = np.broadcast_to(np.asarray(drift, dtype=float), x.shape)
        if not np.all(np.isfinite(drift)):
            bad = np.argwhere(~np.isfinite(np.sum(drift, axis=-1)))[0]
            raise ValueError(f"density provider returned non-finite force at "
                             f"x = {x[bad[0]]}")
        return -spec.V.grad(x) + drift

    # no carried force: the provider may change between calls
    return _advance(Z, params, dt, scheme, rng, force)[0]


@dataclass
class GibbsSamples:
    """Sampler output: (n_samples, N, d) arrays plus chain diagnostics."""

    positions: np.ndarray
    velocities: np.ndarray
    method: str
    acceptance_rate: float | None = None
    warning: str | None = None
    info: dict = field(default_factory=dict)


def _gaussian_gibbs_positions(gen, n_samples, N, d, beta, lam_V, L_W):
    """Exact positions under precision beta (lam_V I + L_W (I - J/N)) per axis.

    Standard normals split into the mean direction (eigenvalue beta lam_V)
    and its orthogonal complement (beta (lam_V + L_W)).
    """

    z = gen.standard_normal((n_samples, N, d))
    mean_part = z.mean(axis=1, keepdims=True)
    rest = z - mean_part
    return (mean_part / math.sqrt(beta * lam_V)
            + rest / math.sqrt(beta * (lam_V + L_W)))


def _potential_gradient_total(spec, X):
    """grad of U(X) = sum V + (1/2N) pairwise W, shape (N, d)."""

    return spec.V.grad(X) - pairwise_force(spec, X)


# MALA: initial step size, adapted during the burn-in, then one kept sample
# every _MALA_THIN iterations
_MALA_STEP, _MALA_BURN_IN, _MALA_THIN = 0.1, 500, 5


def _mala_positions(gen, spec, n_samples, N, d, beta):
    """Metropolis-adjusted Langevin chain on beta * U with burn-in adaptation."""

    burn_in, thin = _MALA_BURN_IN, _MALA_THIN

    def potential(X):
        return float(np.sum(spec.V.value(X))) + pairwise_interaction_energy(spec, X)

    X = gen.standard_normal((N, d))
    U = potential(X)
    G = _potential_gradient_total(spec, X)
    h = _MALA_STEP
    accepted = 0
    proposed = 0
    out = []
    total = burn_in + n_samples * thin
    for it in range(total):
        drift = X - 0.5 * h * beta * G
        prop = drift + math.sqrt(h) * gen.standard_normal((N, d))
        U_p = potential(prop)
        G_p = _potential_gradient_total(spec, prop)
        back = prop - 0.5 * h * beta * G_p
        log_q_fwd = -np.sum((prop - drift) ** 2) / (2.0 * h)
        log_q_bwd = -np.sum((X - back) ** 2) / (2.0 * h)
        log_alpha = -beta * (U_p - U) + log_q_bwd - log_q_fwd
        proposed += 1
        if math.log(gen.uniform()) < log_alpha:
            X, U, G = prop, U_p, G_p
            accepted += 1
        if it < burn_in:
            # stochastic approximation toward the 0.574 optimum, frozen after
            rate_err = min(1.0, math.exp(min(0.0, log_alpha))) - 0.574
            h *= math.exp(0.05 * rate_err)
            if it == burn_in - 1:
                accepted = proposed = 0
        elif (it - burn_in + 1) % thin == 0:
            out.append(X.copy())
    rate = accepted / max(proposed, 1)
    return np.stack(out), rate, h


def sample_gibbs(spec, params, N, n_samples, method="exact_gaussian", rng=None):
    """Sample the stationary N-particle law: velocities exact Gaussians of
    variance 1/beta; positions either closed-form Gaussian (quadratic V plus
    harmonic or zero W) or a Metropolis-adjusted Langevin chain on the
    position energy with acceptance-rate reporting.
    """

    if rng is None:
        raise ValueError("an RngSpec is required for reproducibility")
    d = spec.d
    gen = rng.sampler()
    beta = params.beta
    warning = None
    info = {}
    if method == "exact_gaussian":
        if not isinstance(spec.V, Quadratic) or not isinstance(spec.W, (HarmonicW, Zero)):
            raise ValueError("exact_gaussian requires quadratic V with harmonic "
                             "or zero W")
        lam_V = spec.V.curvature
        L_W = spec.W.L_W if isinstance(spec.W, HarmonicW) else 0.0
        X = _gaussian_gibbs_positions(gen, n_samples, N, d, beta, lam_V, L_W)
        acceptance = None
    elif method == "mala":
        X, acceptance, h = _mala_positions(gen, spec, n_samples, N, d, beta)
        info = {"adapted_step_size": h, "burn_in": _MALA_BURN_IN,
                "thin": _MALA_THIN}
        if not 0.2 <= acceptance <= 0.8:
            warning = (f"MALA acceptance rate {acceptance:.3f} outside [0.2, 0.8] "
                       "after adaptation")
    else:
        raise ValueError(f"unknown sampling method {method!r}")

    V = gen.standard_normal((n_samples, N, d)) / math.sqrt(beta)
    return GibbsSamples(positions=X, velocities=V, method=method,
                        acceptance_rate=acceptance, warning=warning, info=info)


def sample_f_infty(rho, params, n, rng=None, substream=0):
    """Phase-space samples of the mean-field equilibrium.

    Positions by inverse-CDF on the 1D grid density (linear interpolation
    within cells), velocities independent Gaussians of variance 1/beta.
    Returns (positions (n,), velocities (n,)).
    """

    if rng is None:
        raise ValueError("an RngSpec is required for reproducibility")
    gen = rng.sampler(substream)
    x = rho.sample_positions(gen, n)
    v = gen.standard_normal(n) / math.sqrt(params.beta)
    return x, v
