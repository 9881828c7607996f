"""Deterministic Vlasov-Fokker-Planck solver on (x, v) grids, d = 1.

    df/dt + v df/dx + (-V'(x) + K*rho) df/dv = gamma d/dv (v f) + sigma d²f/dv²

Symmetric operator splitting per step: half a position drift, half a velocity
kick, the full Ornstein-Uhlenbeck stage, then the kick and drift halves again.
Drift and kick are constant-coefficient translations along grid lines, so they
are applied as exact spectral shifts (FFT phase factors); for densities that
decay below rounding well inside the boundary this realizes the sub-flows
without numerical diffusion, and the free energy error per step is only the
O(dt^3) symmetric-splitting remainder.  The OU stage is the explicit
Chang-Cooper update, whose interface weights make the discrete Maxwellian
exp(-gamma v²/(2 sigma)) stationary; in mass variables it is a stochastic
update, so it only ever dissipates the free energy.  Mass is conserved to
rounding; the leftover drift is measured, reported, and renormalized away
each step.

Operators that depend only on the grid are built once per grid and time step
and shared read-only: the drift phase factors and the OU update, a
three-point stencil stored as its lower, diagonal and upper rows.  A phase
factor exp(-i k_j s) is built as the powers z^j of z = exp(-i k_1 s) by one
cumulative product, so the kick, whose shifts follow the force, costs one
complex exponential per grid line each step.  Every integral is the
trapezoid rule through the `Axis` weights: the step's mass is wx @ (F @ wv),
and the free energy takes rho = F @ wv once.

Also provides the free energy, relative entropy, weighted Fisher information
and modulated energy functionals used to monitor decay, plus an exponential
fit helper.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .equilibrium import (GridDensity, formal_equilibrium,
                          interaction_convolution)
from .errors import SchemeError, StabilityError

_LOG_FLOOR = 1e-300


@dataclass
class KineticState:
    """A phase-space density with its time stamp."""

    density: GridDensity
    time: float = 0.0
    step: int = 0
    mass_drift: float = 0.0      # signed pre-renormalization mass - 1 of last step

    def __post_init__(self):
        if not self.density.is_phase_space:
            raise ValueError("KineticState needs an (x, v) density")

    @property
    def x_axis(self):
        return self.density.x_axis

    @property
    def v_axis(self):
        return self.density.v_axis


def mean_field_force(spec, x_axis, rho_values):
    """-V'(x) + (K * rho)(x) on the nodes; K = -grad W."""

    return (-spec.V.grad(x_axis.nodes[:, None])[:, 0]
            - interaction_convolution(spec, x_axis, rho_values, derivative=1))


def _chang_cooper_delta(w):
    """Interface weight delta(w) = 1/w - 1/(e^w - 1), delta(0) = 1/2.

    Chosen so the flux gamma v (delta f_j + (1-delta) f_{j+1})
    + sigma (f_{j+1} - f_j)/dv vanishes identically on the discrete
    Maxwellian, which makes it a fixed point of the OU stage.
    """

    w = np.asarray(w, dtype=float)
    out = np.full(w.shape, 0.5)
    small = np.abs(w) < 1e-8
    ws = w[~small]
    out[~small] = 1.0 / ws - 1.0 / np.expm1(ws)
    return out


def _read_only(a):
    """Mark a cached operator read-only, so no caller can change it."""

    a.flags.writeable = False
    return a


def _phase(axis_obj, shifts, axis):
    """FFT phase factor exp(-i k s) translating each grid line along `axis`.

    `shifts` holds one distance per line (length = the other axis size).
    Applied by _shift, it advects the band-limited interpolant exactly; no
    CFL restriction and no numerical diffusion.  The factor of wavenumber
    k_j = j k_1 is the power z^j of z = exp(-i k_1 s), taken by one
    cumulative product along the wavenumber axis; the j - 1 products keep it
    within about j roundings of exp(-i k_j s).
    """

    k1 = 2.0 * np.pi / (axis_obj.n * axis_obj.h)
    powers = np.empty((shifts.size, axis_obj.n // 2 + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = np.exp(-1j * k1 * shifts)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    return np.ascontiguousarray(powers.T) if axis == 0 else powers


def _shift(values, phase, axis):
    """Apply a phase factor from _phase along `axis`: rfft, multiply, irfft."""

    spec_hat = np.fft.rfft(values, axis=axis)
    spec_hat *= phase
    return np.fft.irfft(spec_hat, n=values.shape[axis], axis=axis)


@functools.lru_cache(maxsize=8)
def _drift_phase(x_axis, v_axis, dt):
    """Phase factor of the half-step x-drift, exp(-i k v dt/2)."""

    return _read_only(_phase(x_axis, v_axis.nodes * (0.5 * dt), axis=0))


@functools.lru_cache(maxsize=8)
def _ou_stencil(v_axis, gamma, sigma, dt):
    """The explicit Chang-Cooper OU step as (lower, diag, upper) rows.

    With the interface flux gamma v (delta f_j + (1-delta) f_{j+1})
    + sigma (f_{j+1} - f_j)/dv = a_j f_j + b_j f_{j+1}, zero outside the
    grid, the update is f_j + dt/dv (flux_j - flux_{j-1}).  Row entry j is
    the share of cell j's mass that one step moves to cell j - 1, keeps, or
    moves to cell j + 1; the three shares sum to 1, so mass is conserved,
    and the flux vanishes on the discrete Maxwellian.
    """

    v, dv = v_axis.nodes, v_axis.h
    v_half = 0.5 * (v[1:] + v[:-1])
    delta = _chang_cooper_delta(gamma * v_half * dv / sigma)
    c = dt / dv
    lower = np.zeros(v.size)
    upper = np.zeros(v.size)
    lower[1:] = c * (gamma * v_half * (1.0 - delta) + sigma / dv)
    upper[:-1] = c * (sigma / dv - gamma * v_half * delta)
    diag = 1.0 - lower - upper
    return tuple(_read_only(row[None, :]) for row in (lower, diag, upper))


def _ou_stage(F, v_axis, gamma, sigma, dt):
    """One explicit Chang-Cooper OU step of each velocity line of F.

    lower is 0 in the first column and upper in the last, so shifting the
    flattened array never carries mass from one grid line to the next.
    """

    lower, diag, upper = _ou_stencil(v_axis, gamma, sigma, dt)
    G = diag * F
    flat = G.ravel()
    flat[:-1] += (lower * F).ravel()[1:]
    flat[1:] += (upper * F).ravel()[:-1]
    return G


def step_vfp(state, spec, params, dt):
    """One splitting step; returns a new KineticState at time + dt.

    Stage order is drift(dt/2), kick(dt/2), OU(dt), kick(dt/2), drift(dt/2).
    The kick force comes from the marginal after the first drift half; the
    kick and OU stages leave that marginal untouched, so both halves of the
    kick see a consistent field.  Raises StabilityError when dt violates the
    OU-diffusion limit (checked first) or the transport CFL (checked on the
    force the kick applies), and SchemeError if any cell drops below -1e-13
    or the mass is not positive and finite.
    """

    if params.sigma <= 0:
        raise ValueError("step_vfp needs sigma > 0")
    xa, va = state.x_axis, state.v_axis
    dx, dv = xa.h, va.h
    if params.sigma * dt / dv**2 > 0.45:
        raise StabilityError(
            f"diffusion number {params.sigma * dt / dv**2:.3f} > 0.45")

    wv = va.trapezoid_weights()
    drift = _drift_phase(xa, va, dt)
    F = _shift(state.density.values, drift, axis=0)
    rho_mid = F @ wv
    force = mean_field_force(spec, xa, rho_mid)
    cfl = dt * (float(np.max(np.abs(va.nodes))) / dx
                + float(np.max(np.abs(force))) / dv)
    if cfl > 0.9:
        raise StabilityError(f"transport CFL {cfl:.3f} > 0.9 at dt={dt!r}")
    kick = _phase(va, force * (0.5 * dt), axis=1)
    F = _shift(F, kick, axis=1)

    F = _ou_stage(F, va, params.gamma, params.sigma, dt)
    F = _shift(F, kick, axis=1)
    F = _shift(F, drift, axis=0)

    step = state.step + 1
    if not np.all(np.isfinite(F)):
        raise SchemeError(f"non-finite cell after step {step}")
    low = float(np.min(F))
    if low < -1e-13:
        i, j = np.unravel_index(int(np.argmin(F)), F.shape)
        raise SchemeError(
            f"cell ({i},{j}) went negative ({low:.3e}) after step "
            f"{step}; reduce dt or widen the grid")
    if low < 0:
        F[F < 0] = 0.0

    mass = float(xa.trapezoid_weights() @ (F @ wv))
    if not (mass > 0 and math.isfinite(mass)):
        raise SchemeError(f"mass {mass!r} is not positive and finite after "
                          f"step {step}")
    F /= mass

    # finite, nonnegative and of unit mass by the checks above
    density = GridDensity._checked(xa, F, va, dict(state.density.meta))
    return KineticState(density, time=state.time + dt, step=step,
                        mass_drift=mass - 1.0)


@dataclass(frozen=True)
class FreeEnergyParts:
    """Free energy F(f) and its four summands.

    F = int (v²/2) f + int V f + (1/beta) int f log f + 1/2 int int W rho rho.
    With sigma = gamma/beta this is the Lyapunov functional of the flow; the
    1/beta entropy weight reduces to the plain entropy at beta = 1.
    """

    total: float
    kinetic: float
    confinement: float
    entropy: float
    interaction: float

    def __float__(self):
        return self.total


def free_energy(density, spec, params):
    """Free energy of a phase-space GridDensity (or a KineticState)."""

    if isinstance(density, KineticState):
        density = density.density
    if not density.is_phase_space:
        raise ValueError("free_energy needs a phase-space density")
    F = density.values
    xa, va = density.x_axis, density.v_axis
    wx, wv = xa.trapezoid_weights(), va.trapezoid_weights()
    rho = F @ wv
    kin = 0.5 * float(wx @ (F @ (wv * va.nodes**2)))
    conf = float((wx * spec.V.value(xa.nodes[:, None])) @ rho)
    f_log_f = F * np.log(np.where(F > _LOG_FLOOR, F, 1.0))
    ent = float(wx @ (f_log_f @ wv)) / params.beta
    conv = interaction_convolution(spec, xa, rho)
    inter = 0.5 * float((rho * wx) @ conv)
    return FreeEnergyParts(total=kin + conf + ent + inter, kinetic=kin,
                           confinement=conf, entropy=ent, interaction=inter)


def _require_shared_grid(f, g):
    if f.is_phase_space != g.is_phase_space:
        raise ValueError("densities live on different kinds of grids")
    if f.x_axis != g.x_axis or f.v_axis != g.v_axis:
        raise ValueError("densities must share the same axes")


def relative_entropy_grid(f, g):
    """int f log(f/g) by shared-grid quadrature; +inf if g vanishes on supp f.

    Both arguments are unit-mass under the same trapezoid weights, so the
    weighted Gibbs inequality makes the result nonnegative up to rounding.
    """

    _require_shared_grid(f, g)
    fv, gv = f.values, g.values
    mask = fv > _LOG_FLOOR
    if np.any(gv[mask] <= 0):
        return math.inf
    ratio = np.ones_like(fv)
    ratio[mask] = fv[mask] / gv[mask]
    integrand = fv * np.log(ratio)
    if f.is_phase_space:
        integrand = integrand @ f.v_axis.trapezoid_weights()
    return float(f.x_axis.trapezoid_weights() @ integrand)


def weighted_fisher(f, g, weights):
    """int f < M grad u, grad u > with u = log(f/g), M from a WeightMatrix.

    Gradients are interior central differences; the outermost ring of nodes is
    excluded from the quadrature (its weight fraction is returned so callers
    can see what was dropped).  Requires M positive definite on every node.
    Returns (value, excluded_weight_fraction).
    """

    _require_shared_grid(f, g)
    if not f.is_phase_space:
        raise ValueError("weighted_fisher needs phase-space densities")
    x = f.x_axis.nodes
    v = f.v_axis.nodes
    e_b, f_b, g_b = weights.blocks(x[:, None], v[None, :])
    not_pd = (e_b <= 0) | (e_b * g_b - f_b**2 <= 0)
    if np.any(not_pd):
        bad = np.argwhere(np.broadcast_to(not_pd, f.values.shape))[0]
        raise ValueError(f"weight matrix not positive definite at node "
                         f"x={x[bad[0]]!r}, v={v[bad[1]]!r}")

    fv, gv = f.values, g.values
    ok = (fv > _LOG_FLOOR) & (gv > _LOG_FLOOR)
    u = np.zeros_like(fv)
    u[ok] = np.log(fv[ok] / gv[ok])
    ux = np.zeros_like(u)
    uv = np.zeros_like(u)
    ux[1:-1, :] = (u[2:, :] - u[:-2, :]) / (2 * f.x_axis.h)
    uv[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2 * f.v_axis.h)
    # a gradient stencil that straddles the support edge is meaningless; the
    # f factor suppresses it but zero it explicitly to be safe
    interior_ok = ok.copy()
    interior_ok[1:-1, :] &= ok[2:, :] & ok[:-2, :]
    interior_ok[:, 1:-1] &= ok[:, 2:] & ok[:, :-2]
    quad = fv * (e_b * ux**2 + 2 * f_b * ux * uv + g_b * uv**2)
    quad[~interior_ok] = 0.0

    wx, wv = f.x_axis.trapezoid_weights(), f.v_axis.trapezoid_weights()
    ring = fv.copy()
    ring[1:-1, 1:-1] = 0.0
    excluded = float(wx @ (ring @ wv))
    return float(wx[1:-1] @ (quad[1:-1, 1:-1] @ wv[1:-1])), excluded


@dataclass(frozen=True)
class ModulatedEnergy:
    """E^M = (F(f) - F(f_inf)) + I^M(f | f_hat_t) and its pieces."""

    total: float
    free_energy_gap: float
    fisher: float
    fisher_excluded: float

    def __float__(self):
        return self.total


def modulated_energy(density, spec, params, weights, f_infty, f_hat=None,
                     free_energy_infty=None, free_energy_f=None):
    """Modulated energy of f against the equilibrium f_infty.

    f_hat defaults to the formal equilibrium built from f's own marginal.
    Passing free_energy_infty or free_energy_f (floats) skips recomputing
    F(f_infty) or F(f).
    """

    if isinstance(density, KineticState):
        density = density.density
    if f_hat is None:
        f_hat = formal_equilibrium(density, spec, params, density.v_axis)
    if free_energy_infty is None:
        free_energy_infty = free_energy(f_infty, spec, params).total
    if free_energy_f is None:
        free_energy_f = free_energy(density, spec, params).total
    gap = float(free_energy_f) - float(free_energy_infty)
    fisher, excluded = weighted_fisher(density, f_hat, weights)
    return ModulatedEnergy(total=gap + fisher, free_energy_gap=gap,
                           fisher=fisher, fisher_excluded=excluded)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(values) = log(intercept) - rate * t."""

    rate: float
    intercept: float
    r2: float
    n_used: int
    n_skipped: int      # nonpositive values removed before taking logs
    window: tuple

    def as_dict(self):
        return {**asdict(self), "window": list(self.window)}


# the least points that a decay fit takes; the config checks ask it of the
# checkpoint schedules too
_LEAST_FIT_POINTS = 3


def fit_decay(times, values, window=None):
    """Fit an exponential decay rate over an optional [t0, t1] window.

    Nonpositive values are dropped (counted in n_skipped).  Needs at least
    three usable points.  A constant series returns rate 0 with r2 reported
    as 0 by convention.
    """

    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be equal-length 1D arrays")
    if window is None:
        window = (float(t[0]), float(t[-1])) if t.size else (0.0, 0.0)
    keep = (t >= window[0]) & (t <= window[1])
    skipped = int(np.count_nonzero(keep & (y <= 0)))
    keep &= y > 0
    t, y = t[keep], np.log(y[keep])
    if t.size < _LEAST_FIT_POINTS:
        raise ValueError(f"need at least {_LEAST_FIT_POINTS} positive points "
                         f"in the window, got {t.size}")
    if np.all(y == y[0]):
        # constant series: rate 0 exactly, r2 reported as 0 by convention
        return DecayFit(rate=0.0, intercept=math.exp(float(y[0])), r2=0.0,
                        n_used=int(t.size), n_skipped=skipped,
                        window=(float(window[0]), float(window[1])))
    coef, _, _, r2 = _line_fit(t, y)
    return DecayFit(rate=-float(coef[0]), intercept=math.exp(float(coef[1])),
                    r2=r2, n_used=int(t.size), n_skipped=skipped,
                    window=(float(window[0]), float(window[1])))


def _line_fit(x, y):
    """Least squares y = slope x + intercept on 1D arrays: (slope, intercept)
    coefficients, design matrix, residual sum of squares and r2 (0 for a
    constant y)."""

    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return coef, A, ss_res, 0.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
