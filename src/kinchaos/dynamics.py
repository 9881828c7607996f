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
import threading
from dataclasses import dataclass, field, replace

import numpy as np
# RngSpec builds numpy.random generators, and numpy imports that subpackage
# on first use: load it with kinchaos, not at the first draw
import numpy.random

from .errors import BlowUpError, StabilityError
from .equilibrium import _closed_form
from .potentials import (_centred, _harmonic_L_W, _op_norms, pair_panels,
                         pairwise_interaction_energy)

KB_STREAM_STEP = 0          # noise consumed by integrator steps
KB_STREAM_SAMPLER = 1       # noise consumed by samplers (Gibbs, f_infty)

# per-thread Philox generator of step_normals; buffer_pos 4 marks the
# buffer as empty, as in a freshly built generator
_STEP_GENERATOR = threading.local()
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based noise source: identical spec => identical noise sequence."""

    seed: int
    stream: int = 0

    def _words(self, kind, counter):
        # Philox advances counter word 0 as it generates, so the identifying
        # words (step/substream, stream, kind) must sit in words 1..3 where a
        # carry can never reach them.  Otherwise consecutive steps would draw
        # from overlapping counter ranges and the noise would be correlated.
        mask = 0xFFFFFFFFFFFFFFFF
        return {"counter": np.array([0, counter & mask, self.stream & mask,
                                     kind], dtype=np.uint64),
                "key": np.array([self.seed & mask, 0], dtype=np.uint64)}

    def _generator(self, kind, counter):
        return np.random.Generator(np.random.Philox(**self._words(kind,
                                                                  counter)))

    def step_normals(self, step, n, d):
        """Standard normals for integrator step `step`, shape (n, d)."""

        # one generator per thread, reset to this step's words: the same
        # stream as a freshly built one, without building a generator
        gen = getattr(_STEP_GENERATOR, "gen", None)
        if gen is None:
            gen = _STEP_GENERATOR.gen = self._generator(KB_STREAM_STEP, step)
        else:
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": self._words(KB_STREAM_STEP, step),
                "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0,
                "uinteger": 0}
        return gen.standard_normal((n, d))

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
        if not all(map(math.isfinite, (self.gamma, self.sigma, self.beta))):
            raise ValueError("gamma, sigma and beta must be finite")
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

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share shape (N, d)")
        if not (np.all(np.isfinite(self.positions))
                and np.all(np.isfinite(self.velocities))):
            raise ValueError("ensemble state must be finite")

    @classmethod
    def _checked(cls, positions, velocities, time, step):
        """Wrap (N, d) float arrays that the caller has already checked to
        be finite; skips re-validation."""

        Z = cls.__new__(cls)
        Z.positions, Z.velocities, Z.time, Z.step = (positions, velocities,
                                                       time, step)
        return Z

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
    """(1/N) sum_{j != i} K(x_i - x_j) for every i.

    A harmonic or zero W sums by moments in O(N): with grad W(x) = L_W x the
    sum is K(x_i - xbar) = grad W(xbar - x_i), and no pair is formed, so a
    BAOAB step of the linear case, and an uncoupled one, costs O(N).  Any
    other W is summed directly in O(N^2): K = -grad W is odd, so each
    unordered pair of pair_panels is evaluated once and gives K to row i and
    -K to row j.  The summation order depends on N and d alone, so the
    result is independent of the worker count.
    """

    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return np.zeros_like(X)
    if _harmonic_L_W(spec.W) is not None:
        return spec.W.grad(-_centred(X))
    out = np.zeros_like(X)
    for rows, diff, self_pairs in pair_panels(X):
        k = -spec.W.grad(diff)                      # K = -grad W
        k[self_pairs] = 0.0
        out[rows] += k.sum(axis=1)
        out[rows.stop:] -= k[:, rows.stop - rows.start:].sum(axis=0)
    return out / N


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


def _force(spec, X):
    """Total drift force -grad V(x_i) + (1/N) sum_{j != i} K(x_i - x_j) of
    the N-particle system, shape (N, d); the negative gradient of its
    position energy U(X) = sum V + (1/2N) sum_{i != j} W."""

    return pairwise_force(spec, X) - spec.V.grad(X)


def _advance(Z, params, dt, scheme, rng, force):
    """Shared stepping core; `force` maps positions to total drift force."""

    x = Z.positions
    v = Z.velocities
    xi = rng.step_normals(Z.step, Z.N, Z.d)
    f = force(x)
    if scheme == "euler_maruyama":
        x_new = x + v * dt
        v_new = v + (f - params.gamma * v) * dt + math.sqrt(2.0 * params.sigma * dt) * xi
    elif scheme == "baoab":
        decay, noise = _ou_coefficients(params, dt)
        v_half = v + 0.5 * dt * f
        x_half = x + 0.5 * dt * v_half
        v_ou = decay * v_half + noise * xi
        x_new = x_half + 0.5 * dt * v_ou
        v_new = v_ou + 0.5 * dt * force(x_new)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise BlowUpError(Z.step, f"(t = {Z.time:.6g})")
    return PhaseEnsemble._checked(x_new, v_new, Z.time + dt, Z.step + 1)


def step_particle_system(Z, spec, params, dt, scheme="baoab", rng=None,
                         unsafe_dt=False):
    """One step of the interacting N-particle system.

    The step depends on its arguments alone: each BAOAB step evaluates the
    force at both of its kicks, so a spec, field or ensemble changed in
    place between two steps is always seen.
    """

    if rng is None:
        raise ValueError("an RngSpec is required for reproducibility")
    _check_dt(spec, params, dt, unsafe_dt, Z.positions)
    return _advance(Z, params, dt, scheme, rng, lambda x: _force(spec, x))


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

    return _advance(Z, params, dt, scheme, rng, force)


@dataclass
class GibbsSamples:
    """Sampler output: (n_samples, N, d) arrays plus chain diagnostics."""

    positions: np.ndarray
    velocities: np.ndarray
    method: str
    acceptance_rate: float | None = None
    warning: str | None = None
    info: dict = field(default_factory=dict)


def _gaussian_gibbs_positions(gen, n_samples, closed, d):
    """Exact positions under the precision of a GaussianClosedForm, per axis.

    Standard normals split into the mean direction and its orthogonal
    complement, scaled by the two precision eigenvalues.
    """

    (mean_prec, _), (rest_prec, _) = closed.precision_eigenvalues
    z = gen.standard_normal((n_samples, closed.N, d))
    mean_part = z.mean(axis=1, keepdims=True)
    return (mean_part / math.sqrt(mean_prec)
            + (z - mean_part) / math.sqrt(rest_prec))


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
    G = -_force(spec, X)
    h = _MALA_STEP
    accepted = 0
    proposed = 0
    out = []
    total = burn_in + n_samples * thin
    for it in range(total):
        drift = X - 0.5 * h * beta * G
        prop = drift + math.sqrt(h) * gen.standard_normal((N, d))
        U_p = potential(prop)
        G_p = -_force(spec, prop)
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
        X = _gaussian_gibbs_positions(gen, n_samples,
                                      _closed_form(spec, beta, N), d)
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
