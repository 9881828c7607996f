"""Distances, entropy estimation and mean-field error-term statistics.

Empirical W2 between equal-size clouds is computed exactly: by sorting in
one dimension, by the Hungarian assignment otherwise.  Gaussian W2 uses the
Bures formula through symmetric eigendecompositions; a spectral variant for
commuting covariances avoids the accuracy loss of the trace form.

The error terms measure how far the empirical interaction felt by particle i
is from its mean-field limit at equilibrium:

    R0_i = (1/N) sum_{j!=i} K(x_i - x_j) - (K * rho)(x_i)
    R1_i = same with grad K
    R2_i = -R0_i
    R3_i = (1/N) sum_{j!=i} grad K(x_j - x_i) . v_j

and the per-ensemble aggregate (1/N) sum_i |R_i|² concentrates like 1/N when
positions are iid under rho (independent velocities make R3 mean zero).
"""

import math
from concurrent import futures
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree, distance
from scipy.special import digamma, gammaln

from .dynamics import PhaseEnsemble, sample_f_infty
from .potentials import pair_blocks

_MAX_ASSIGNMENT = 4096


def w2_exact(a, b):
    """Exact W2 between equal-size empirical clouds (rows are points)."""

    a = np.atleast_2d(np.asarray(a, dtype=float).T).T \
        if np.asarray(a).ndim == 1 else np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T \
        if np.asarray(b).ndim == 1 else np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"need equal (n, d) clouds, got {a.shape} vs {b.shape}")
    n, d = a.shape
    if n == 0:
        raise ValueError("empty clouds")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("clouds must be finite")
    if d == 1:
        # sorted pairing is the optimal coupling for convex costs on the line
        diff = np.sort(a[:, 0]) - np.sort(b[:, 0])
        return math.sqrt(float(diff @ diff) / n)
    if n > _MAX_ASSIGNMENT:
        raise ValueError(f"assignment solver capped at n={_MAX_ASSIGNMENT}, "
                         f"got {n}")
    # canonical argument order keeps the summation order, and therefore the
    # result, bitwise symmetric in (a, b)
    if a.tobytes() > b.tobytes():
        a, b = b, a
    cost = distance.cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].sum()) / n)


def _check_covariance(c, name):
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(c, c.T, atol=1e-10 * max(1.0, np.abs(c).max())):
        raise ValueError(f"{name} must be symmetric")
    evals, evecs = np.linalg.eigh(c)
    if evals.min() < -1e-10 * max(1.0, evals.max()):
        raise ValueError(f"{name} has negative eigenvalue {evals.min()!r}")
    return np.clip(evals, 0.0, None), evecs


def w2_gaussian(mean1, cov1, mean2, cov2):
    """Bures W2 between Gaussians; covariances must be symmetric PSD."""

    m1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    m2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    if m1.shape != m2.shape:
        raise ValueError("mean dimensions differ")
    e1, u1 = _check_covariance(cov1, "cov1")
    e2, u2 = _check_covariance(cov2, "cov2")
    root2 = (u2 * np.sqrt(e2)) @ u2.T
    cross = root2 @ (u1 * e1) @ u1.T @ root2
    cross_evals = np.clip(np.linalg.eigvalsh(0.5 * (cross + cross.T)), 0, None)
    dm = m1 - m2
    w2sq = float(dm @ dm) + float(e1.sum() + e2.sum()
                                  - 2.0 * np.sqrt(cross_evals).sum())
    return math.sqrt(max(w2sq, 0.0))


def w2_gaussian_spectral(evals1, evals2, mean_gap_sq=0.0):
    """W2² for commuting Gaussians from eigenvalues paired by shared basis.

    Spectra are given as ((value, multiplicity), ...) or flat arrays and are
    paired in descending order; this keeps full precision where the dense
    Bures trace cancels catastrophically.
    """

    def flat(spec):
        arr = []
        for item in np.atleast_1d(np.asarray(spec, dtype=object)):
            if isinstance(item, tuple) or (isinstance(item, np.ndarray)
                                           and item.size == 2):
                v, m = item
                arr.extend([float(v)] * int(m))
            else:
                arr.append(float(item))
        return np.sort(np.asarray(arr))[::-1]

    a, b = flat(evals1), flat(evals2)
    if a.shape != b.shape:
        raise ValueError("spectra have different total multiplicity")
    if a.min() < 0 or b.min() < 0:
        raise ValueError("covariance eigenvalues must be nonnegative")
    return float(mean_gap_sq) + float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    se: float
    jittered: bool      # duplicate points were perturbed by 1e-12
    degenerate: bool    # sample covariance is rank-deficient

    def __float__(self):
        return self.value


def entropy_knn(samples, k=4):
    """Kozachenko-Leonenko differential entropy estimate (natural log).

    H = psi(n) - psi(k) + log V_d + (d/n) sum log eps_i with eps_i the
    distance to the k-th neighbour.  The standard error comes from the spread
    of four disjoint-subsample estimates.
    """

    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} samples for k={k}, got {n}")

    degenerate = bool(np.linalg.matrix_rank(np.cov(pts.T).reshape(d, d)) < d)

    def estimate(block):
        m = block.shape[0]
        eps = cKDTree(block).query(block, k=k + 1)[0][:, k]
        jit = bool(np.any(eps <= 0))
        if jit:
            block = block + np.random.default_rng(0).normal(
                scale=1e-12, size=block.shape)
            eps = cKDTree(block).query(block, k=k + 1)[0][:, k]
            eps = np.where(eps <= 0, 1e-300, eps)
        log_vd = 0.5 * d * math.log(math.pi) - gammaln(0.5 * d + 1)
        h = float(digamma(m) - digamma(k) + log_vd
                  + d * np.mean(np.log(eps)))
        return h, jit

    value, jittered = estimate(pts)
    subs = []
    for q in range(4):
        block = pts[q::4]
        if block.shape[0] >= k + 1:
            h, j = estimate(block)
            subs.append(h)
            jittered = jittered or j
    se = float(np.std(subs, ddof=1) / math.sqrt(len(subs))) \
        if len(subs) >= 2 else math.nan
    return EntropyEstimate(value=value, se=se, jittered=jittered,
                           degenerate=degenerate)


@dataclass(frozen=True)
class ErrorStats:
    """Per-particle mean-field error terms and their ensemble aggregates."""

    r0: np.ndarray      # (N, d)
    r1: np.ndarray      # (N, d, d)
    r2: np.ndarray      # (N, d)
    r3: np.ndarray      # (N, d)
    aggregates: dict    # name -> (1/N) sum_i |R_i|^2

    def aggregate(self, name):
        return self.aggregates[name]


def mean_field_tables(spec, rho_inf):
    """(K*rho, grad K*rho) tabulated on rho's grid; K = -grad W (d = 1).

    Both error-statistics paths interpolate these tables linearly rather than
    re-integrating at arbitrary points, so they agree to rounding.
    """

    from .equilibrium import interaction_convolution

    conv_k = -interaction_convolution(spec, rho_inf.x_axis, rho_inf.values,
                                      derivative=1)
    conv_dk = -interaction_convolution(spec, rho_inf.x_axis, rho_inf.values,
                                       derivative=2)
    return conv_k, conv_dk


def _interp_table(rho_inf, table, x):
    axis = rho_inf.x_axis
    eps = 1e-12 * max(1.0, abs(axis.hi))
    bad = (x < axis.lo - eps) | (x > axis.hi + eps)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"particle {i} at x={x[i]!r} escapes the density "
                         f"grid [{axis.lo}, {axis.hi}]")
    return np.interp(x, axis.nodes, table)


def error_statistics(ensemble, spec, rho_inf, params=None, tables=None):
    """Error terms of an ensemble against the mean-field law rho_inf (d = 1).

    The pair sums run over potentials.pair_blocks, each row reduced in index
    order.  The convolution tables are computed on rho_inf's grid (or passed
    in precomputed via `tables`) and linearly interpolated at the particle
    positions.
    """

    del params  # error terms depend on positions/velocities and the kernel
    if ensemble.d != 1:
        raise ValueError("error statistics are implemented for d = 1")
    if rho_inf.is_phase_space:
        rho_inf = rho_inf.marginal_x()
    x = ensemble.positions[:, 0]
    v = ensemble.velocities[:, 0]
    N = x.size

    if tables is None:
        tables = mean_field_tables(spec, rho_inf)
    conv_k = _interp_table(rho_inf, tables[0], x)
    conv_dk = _interp_table(rho_inf, tables[1], x)

    r0, r1, r3 = np.empty(N), np.empty(N), np.empty(N)
    for rows, diff, self_pairs in pair_blocks(x[:, None]):
        k = -spec.W.grad(diff)[..., 0]
        dk = -spec.W.hess(diff)[..., 0, 0]
        k[self_pairs] = 0.0
        dk[self_pairs] = 0.0
        r0[rows] = k.sum(axis=1) / N - conv_k[rows]
        r1[rows] = dk.sum(axis=1) / N - conv_dk[rows]
        # grad K is even for even W, so the (j, i) kernel equals the (i, j) one
        r3[rows] = (dk * v).sum(axis=1) / N

    agg = {"R0": float(np.mean(r0**2)), "R1": float(np.mean(r1**2)),
           "R2": float(np.mean(r0**2)), "R3": float(np.mean(r3**2))}
    return ErrorStats(r0[:, None], r1[:, None, None], -r0[:, None],
                      r3[:, None], agg)


def error_statistics_reference(ensemble, spec, rho_inf, params=None):
    """Plain double-loop evaluation of the same error terms.

    Kept deliberately naive (explicit loops, scalar kernel calls, quadrature
    and interpolation spelled out by hand) as an independent check of
    error_statistics.  Quadratic in N and in the grid size; use modest sizes.
    """

    del params
    if ensemble.d != 1:
        raise ValueError("error statistics are implemented for d = 1")
    if rho_inf.is_phase_space:
        rho_inf = rho_inf.marginal_x()
    x = ensemble.positions[:, 0]
    v = ensemble.velocities[:, 0]
    N = x.size
    axis = rho_inf.x_axis
    nodes = axis.nodes
    nx = nodes.size

    def kernel(r):
        return -float(spec.W.grad(np.array([[r]]))[0, 0])

    def kernel_grad(r):
        return -float(spec.W.hess(np.array([[r]]))[0, 0, 0])

    # trapezoid convolution tables on the grid, node by node
    table_k = np.zeros(nx)
    table_dk = np.zeros(nx)
    for m in range(nx):
        acc_k = 0.0
        acc_dk = 0.0
        for mm in range(nx):
            wq = axis.h * (0.5 if mm in (0, nx - 1) else 1.0)
            acc_k += kernel(nodes[m] - nodes[mm]) * rho_inf.values[mm] * wq
            acc_dk += kernel_grad(nodes[m] - nodes[mm]) \
                * rho_inf.values[mm] * wq
        table_k[m] = acc_k
        table_dk[m] = acc_dk

    def lerp(table, xi):
        if xi <= nodes[0]:
            return table[0]
        if xi >= nodes[-1]:
            return table[-1]
        j = int(np.searchsorted(nodes, xi) - 1)
        t = (xi - nodes[j]) / (nodes[j + 1] - nodes[j])
        return (1.0 - t) * table[j] + t * table[j + 1]

    r0 = np.zeros(N)
    r1 = np.zeros(N)
    r3 = np.zeros(N)
    for i in range(N):
        if not axis.lo - 1e-12 <= x[i] <= axis.hi + 1e-12:
            raise ValueError(f"particle {i} at x={x[i]!r} escapes the "
                             f"density grid [{axis.lo}, {axis.hi}]")
        s_k = 0.0
        s_dk = 0.0
        s_v = 0.0
        for j in range(N):
            if j == i:
                continue
            s_k += kernel(x[i] - x[j])
            s_dk += kernel_grad(x[i] - x[j])
            s_v += kernel_grad(x[j] - x[i]) * v[j]
        r0[i] = s_k / N - lerp(table_k, x[i])
        r1[i] = s_dk / N - lerp(table_dk, x[i])
        r3[i] = s_v / N
    agg = {"R0": float(np.mean(r0**2)), "R1": float(np.mean(r1**2)),
           "R2": float(np.mean(r0**2)), "R3": float(np.mean(r3**2))}
    return ErrorStats(r0[:, None], r1[:, None, None], -r0[:, None],
                      r3[:, None], agg)


def loglog_fit(n_values, means):
    """Least squares of log(mean) on log(N); returns slope, se, r2."""

    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(x.size - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0 else 1.0 - float(resid @ resid) / ss_tot
    return float(coef[0]), math.sqrt(max(cov[0, 0], 0.0)), r2


@dataclass(frozen=True)
class ConcentrationRow:
    term: str
    N: int
    mean_aggregate: float
    se: float


@dataclass(frozen=True)
class ConcentrationResult:
    """Monte Carlo concentration study of the aggregates over N."""

    terms: tuple
    rows: tuple          # ConcentrationRow per (N, term), in n_values order
    fits: dict           # term -> (slope, slope_se, r2) or None when flat

    def table(self, term):
        return [(r.N, r.mean_aggregate, r.se) for r in self.rows
                if r.term == term]


def _map_indexed(fn, n_items, threads):
    """fn(i) for i in range(n_items), optionally on a thread pool.

    Work is keyed by index and each point derives its own rng stream, so the
    results are identical for any thread count.
    """

    if threads <= 1 or n_items <= 1:
        return [fn(i) for i in range(n_items)]
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_items)))


def concentration_check(spec, rho_inf, params, n_values, n_mc, rng,
                        threads=1):
    """Sample equilibrium product ensembles and fit aggregate decay in N.

    For the i-th N, n_mc iid ensembles are drawn from rho_inf x Maxwellian
    on rng.derive(20_000 * (i + 1)), substreams 0..n_mc-1, and the four
    aggregates averaged; the N points fan out over `threads` worker threads
    with identical results for any count.  Per term a log-log slope over N
    follows.  Zero kernels yield identically zero aggregates and fits of None.
    """

    if rho_inf.is_phase_space:
        rho_inf = rho_inf.marginal_x()
    terms = ("R0", "R1", "R2", "R3")
    tables = mean_field_tables(spec, rho_inf)

    def one_point(i):
        point_rng = rng.derive(20_000 * (i + 1))
        aggs = np.empty((len(terms), n_mc))  # each term's samples contiguous
        for s in range(n_mc):
            x, vel = sample_f_infty(rho_inf, params, n_values[i], point_rng,
                                    substream=s)
            stats = error_statistics(PhaseEnsemble(x[:, None], vel[:, None]),
                                     spec, rho_inf, tables=tables)
            aggs[:, s] = [stats.aggregates[t] for t in terms]
        return aggs

    rows = []
    for N, aggs in zip(n_values, _map_indexed(one_point, len(n_values),
                                              threads)):
        for t, vals in zip(terms, aggs):
            se = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
            rows.append(ConcentrationRow(t, int(N), float(vals.mean()), se))
    fits = {}
    for t in terms:
        means = np.array([r.mean_aggregate for r in rows if r.term == t])
        # a slope needs at least two N values and strictly positive means
        fits[t] = (None if len(n_values) < 2 or np.any(means <= 0)
                   else loglog_fit(n_values, means))
    return ConcentrationResult(terms=terms, rows=tuple(rows), fits=fits)
