"""Mean-field equilibria on grids and Gaussian closed forms.

The nonlinear equilibrium density solves the fixed point

    rho = normalize( exp(-beta (V + W * rho)) )

computed here by damped fixed-point iteration with direct-quadrature
convolution.  Phase-space equilibria attach the Maxwellian velocity factor of
variance 1/beta.  For quadratic confinement with harmonic interaction the
whole family is Gaussian and `gaussian_closed_form` returns the exact
variances and covariance spectra used as oracles elsewhere.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf


@dataclass(frozen=True)
class Axis:
    """Uniform 1D grid of n nodes on [lo, hi].

    The nodes and trapezoid weights are computed once, at construction, and
    shared read-only by every caller.
    """

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError("axis requires hi > lo")
        if self.n < 16:
            raise ValueError("axis requires at least 16 nodes")
        nodes = np.linspace(self.lo, self.hi, self.n)
        weights = np.full(self.n, self.h)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_weights", weights)

    @property
    def nodes(self):
        return self._nodes

    @property
    def h(self):
        return (self.hi - self.lo) / (self.n - 1)

    def trapezoid_weights(self):
        return self._weights


@dataclass
class GridDensity:
    """Nonnegative, unit-mass density on an x grid or an (x, v) grid.

    values has shape (nx,) for position densities and (nx, nv) for phase-space
    densities; quadrature is trapezoidal throughout.
    """

    x_axis: Axis
    values: np.ndarray
    v_axis: Axis | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.x_axis.n,) if self.v_axis is None \
            else (self.x_axis.n, self.v_axis.n)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"axes {expected}")
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        m = self.mass()
        if not 1 - 1e-8 <= m <= 1 + 1e-8:
            raise ValueError(f"density mass {m!r} not within 1e-8 of 1; "
                             "normalize first")

    @classmethod
    def from_values(cls, x_axis, values, v_axis=None, meta=None):
        """Normalize raw nonnegative values into a unit-mass density."""

        values = np.asarray(values, dtype=float)
        values = np.where(values < 0, 0.0, values)
        m = _raw_mass(x_axis, v_axis, values)
        if m <= 0 or not math.isfinite(m):
            raise ValueError("cannot normalize density with nonpositive or "
                             "non-finite mass")
        return cls(x_axis, values / m, v_axis, meta or {})

    def mass(self):
        return _raw_mass(self.x_axis, self.v_axis, self.values)

    @property
    def is_phase_space(self):
        return self.v_axis is not None

    def marginal_x(self):
        """Velocity marginal integral; identity for position densities."""

        if self.v_axis is None:
            return self
        rho = np.trapezoid(self.values, dx=self.v_axis.h, axis=1)
        return GridDensity.from_values(self.x_axis, rho)

    def interp(self, x):
        """Linear interpolation of a 1D density; raises outside the grid."""

        if self.v_axis is not None:
            raise ValueError("interp is defined for position densities")
        x = np.asarray(x, dtype=float)
        eps = 1e-12 * max(1.0, abs(self.x_axis.hi))
        bad = (x < self.x_axis.lo - eps) | (x > self.x_axis.hi + eps)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"point index {i} at x={x.flat[i]!r} escapes the "
                             f"grid [{self.x_axis.lo}, {self.x_axis.hi}]")
        return np.interp(x, self.x_axis.nodes, self.values)

    def sample_positions(self, gen, n):
        """Inverse-CDF draws with linear interpolation within cells."""

        if self.v_axis is not None:
            raise ValueError("sample_positions is defined for position densities")
        nodes = self.x_axis.nodes
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1]) * self.x_axis.h)])
        if cdf[-1] <= 0:
            raise ValueError("density has zero total mass")
        cdf /= cdf[-1]
        u = gen.uniform(size=n)
        return np.interp(u, cdf, nodes)

    def sample_phase(self, gen, n):
        """Categorical cell draws with in-cell jitter for (x, v) densities."""

        if self.v_axis is None:
            raise ValueError("sample_phase needs a phase-space density")
        p = self.values.ravel()
        p = p / p.sum()
        idx = gen.choice(p.size, size=n, p=p)
        ix, iv = np.unravel_index(idx, self.values.shape)
        x = self.x_axis.nodes[ix] + (gen.uniform(size=n) - 0.5) * self.x_axis.h
        v = self.v_axis.nodes[iv] + (gen.uniform(size=n) - 0.5) * self.v_axis.h
        return np.column_stack([x, v])


def _raw_mass(x_axis, v_axis, values):
    if v_axis is None:
        return float(np.trapezoid(values, dx=x_axis.h))
    return float(np.trapezoid(np.trapezoid(values, dx=v_axis.h, axis=1),
                              dx=x_axis.h))


def interaction_convolution(spec, x_axis, rho_values, derivative=0):
    """(W * rho), (W' * rho) or (W'' * rho) on the grid by direct quadrature.

    On the uniform axis W(x_i - x_j) depends only on i - j, so each call
    evaluates W^(derivative) once at the 2n - 1 displacements h k,
    k = 1 - n .. n - 1, and convolves that Toeplitz row with the
    trapezoid-weighted density.  derivative=1 returns the gradient
    convolution, from which the mean-field force is K*rho = -(W'*rho).
    """

    if derivative not in (0, 1, 2):
        raise ValueError("derivative must be 0, 1 or 2")
    n = x_axis.n
    disp = x_axis.h * np.arange(1 - n, n, dtype=float)[:, None]
    W = spec.W
    if derivative == 0:
        kernel = W.value(disp)
    elif derivative == 1:
        kernel = W.grad(disp)[:, 0]
    else:
        kernel = W.hess(disp)[:, 0, 0]
    return np.convolve(kernel, rho_values * x_axis.trapezoid_weights(),
                       mode="valid")


def _coverage_check(spec, params, axis, tol):
    """Reject grids whose exp(-beta V) tail mass outside exceeds tol."""

    half = axis.hi - axis.lo
    ext = np.linspace(axis.lo - half, axis.hi + half, 4 * axis.n)
    w = np.exp(-params.beta * spec.V.value(ext[:, None]))
    total = np.trapezoid(w, ext)
    inside = (ext >= axis.lo) & (ext <= axis.hi)
    outside_mass = total - np.trapezoid(w[inside], ext[inside])
    if total <= 0 or outside_mass / total >= tol:
        raise ValueError(
            f"grid too narrow: exp(-beta V) mass fraction outside is "
            f"{outside_mass / total:.3g} >= tol {tol:.3g}")


def _gibbs_map(spec, params, axis, v_vals, rho_values):
    """normalize(exp(-beta (V + W * rho))) on the nodes; v_vals = V(nodes)."""

    exponent = -params.beta * (
        v_vals + interaction_convolution(spec, axis, rho_values))
    exponent -= np.max(exponent)
    out = np.exp(exponent)
    if not np.all(np.isfinite(out)):
        i = int(np.flatnonzero(~np.isfinite(out))[0])
        raise ValueError(f"non-finite Gibbs map at grid value "
                         f"x={axis.nodes[i]!r}")
    out /= float(out @ axis.trapezoid_weights())
    return out


def solve_rho_infty(spec, params, grid, tol=1e-10, max_iter=500):
    """Damped fixed-point iteration for the equilibrium position marginal.

    Each sweep maps rho on the Axis `grid` to normalize(exp(-beta (V +
    W*rho))) and blends geometrically, cand^(1/2) rho^(1/2).  Returns a
    GridDensity whose meta records iterations, the final L1 residual and a
    converged flag; hitting max_iter returns the best iterate flagged
    non-converged.
    """

    _coverage_check(spec, params, grid, max(tol, 1e-14))
    nodes = grid.nodes
    w = grid.trapezoid_weights()
    v_vals = spec.V.value(nodes[:, None])
    rho = np.exp(-params.beta * (v_vals - np.min(v_vals)))
    rho /= float(rho @ w)
    residual = math.inf
    for it in range(1, max_iter + 1):
        cand = _gibbs_map(spec, params, grid, v_vals, rho)
        # geometric damping in log space keeps iterates positive
        new = cand**0.5 * rho**0.5
        new /= float(new @ w)
        residual = float(np.abs(new - rho) @ w)
        rho = new
        if residual < tol:
            return GridDensity(grid, rho, meta={
                "iterations": it, "residual": residual, "converged": True})
    return GridDensity(grid, rho, meta={
        "iterations": max_iter, "residual": residual, "converged": False})


def maxwellian_factor(params, v_axis):
    """Velocity Gaussian of variance 1/beta, renormalized on the grid.

    Rejects truncations holding less than 1 - 1e-6 of the Gaussian mass.
    """

    sd = 1.0 / math.sqrt(params.beta)
    covered = 0.5 * (erf(v_axis.hi / (sd * math.sqrt(2)))
                     - erf(v_axis.lo / (sd * math.sqrt(2))))
    if covered < 1 - 1e-6:
        raise ValueError(f"velocity grid holds only {covered:.9f} of the "
                         "Gaussian mass; widen it")
    g = np.exp(-0.5 * params.beta * v_axis.nodes**2)
    return g / np.trapezoid(g, dx=v_axis.h)


def assemble_f_infty(rho, params, v_axis):
    """Phase-space equilibrium rho(x) * maxwellian(v) on the product grid."""

    if rho.is_phase_space:
        raise ValueError("rho must be a position (1D) density")
    g = maxwellian_factor(params, v_axis)
    return GridDensity(rho.x_axis, np.outer(rho.values, g), v_axis,
                       meta=dict(rho.meta))


def formal_equilibrium(rho_t, spec, params, v_axis):
    """Gibbs-shaped density built from the current marginal rho_t:

        f_hat(x, v) ~ exp(-beta (V + W * rho_t)(x)) * maxwellian(v)
    """

    if rho_t.is_phase_space:
        rho_t = rho_t.marginal_x()
    axis = rho_t.x_axis
    pos = _gibbs_map(spec, params, axis, spec.V.value(axis.nodes[:, None]),
                     rho_t.values)
    g = maxwellian_factor(params, v_axis)
    return GridDensity(axis, np.outer(pos, g), v_axis)


@dataclass(frozen=True)
class GaussianClosedForm:
    """Exact Gaussian description of the quadratic/harmonic equilibria."""

    lam_V: float
    L_W: float
    beta: float
    N: int
    var_x: float                 # mean-field equilibrium position variance
    var_v: float
    precision_eigenvalues: tuple  # ((value, multiplicity), ...)
    marginal_var_x1: float

    def covariance_spectrum(self):
        """Position covariance eigenvalues of the N-particle Gibbs law."""

        return tuple((1.0 / value, mult) for value, mult
                     in self.precision_eigenvalues)

    def covariance_matrix(self):
        """Dense N x N position covariance (per spatial coordinate)."""

        N = self.N
        J = np.full((N, N), 1.0 / N)
        return (1.0 / (self.beta * self.lam_V)) * J \
            + (1.0 / (self.beta * (self.lam_V + self.L_W))) * (np.eye(N) - J)


def gaussian_closed_form(lam_V, L_W, beta, N):
    """Closed forms for quadratic V (curvature lam_V) + harmonic W (L_W).

    Mean-field equilibrium: Var(x) = 1/(beta (lam_V + L_W)), Var(v) = 1/beta.
    N-particle Gibbs position precision per coordinate:
    beta (lam_V I + L_W (I - J/N)), eigenvalue beta*lam_V on the mean
    direction and beta*(lam_V + L_W) with multiplicity N-1, whence
    Var(x_1) = (1 - 1/N)/(beta (lam_V + L_W)) + (1/N)/(beta lam_V).
    """

    if lam_V <= 0 or L_W < 0 or beta <= 0 or N < 1:
        raise ValueError("need lam_V > 0, L_W >= 0, beta > 0, N >= 1")
    var_x = 1.0 / (beta * (lam_V + L_W))
    marginal = (1.0 - 1.0 / N) * var_x + (1.0 / N) / (beta * lam_V)
    return GaussianClosedForm(
        lam_V=lam_V, L_W=L_W, beta=beta, N=N,
        var_x=var_x, var_v=1.0 / beta,
        precision_eigenvalues=((beta * lam_V, 1),
                               (beta * (lam_V + L_W), N - 1)),
        marginal_var_x1=marginal)
