"""Distances, entropy estimation and mean-field error-term statistics.

Empirical W2 between equal-size clouds is computed exactly: by sorting in
one dimension, otherwise by the assignment on centred clouds mapped onto each
other by the Gaussian OT map between their covariances.  Gaussian W2
uses the Bures formula through symmetric eigendecompositions; a spectral
variant for commuting covariances avoids the accuracy loss of the trace form.

The error terms measure how far the empirical interaction felt by particle i
is from its mean-field limit at equilibrium:

    R0_i = (1/N) sum_{j!=i} K(x_i - x_j) - (K * rho)(x_i)
    R1_i = same with grad K
    R3_i = (1/N) sum_{j!=i} grad K(x_j - x_i) . v_j

and the per-ensemble aggregate (1/N) sum_i |R_i|² concentrates like 1/N when
positions are iid under rho (independent velocities make R3 mean zero).
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .dynamics import sample_f_infty
from .equilibrium import interaction_convolution
from .kinetic_pde import _line_fit
from .potentials import _pair_entries, _panel_entries, _view, pair_panels

_MAX_ASSIGNMENT = 4096
# rows of the cost matrix that _sqeuclidean fills per block
_COST_ROWS = 64
# a covariance or OT map whose least eigenvalue is at most this fraction of
# its largest is near-singular, and the solve takes the centred cost
# (identical rows, collinear clouds, n <= d)
_SINGULAR = 1e-12
# the error terms, by the paper's numbers
_TERMS = ("R0", "R1", "R3")


def _load_lsap():
    """scipy's assignment solver, loaded from its compiled module alone.

    `import scipy.optimize` also imports scipy.linalg, scipy.sparse and
    more: about 0.4 s of the 0.54 s that `import kinchaos` took with it
    (scipy 1.17, 2-vCPU x86-64 Linux).  The compiled module behind
    scipy.optimize.linear_sum_assignment loads in about a millisecond and
    is not entered in sys.modules.  A scipy without that module's file
    gets the public function.
    """

    name = "scipy.optimize._lsap"
    roots = importlib.util.find_spec("scipy").submodule_search_locations
    candidates = [os.path.join(root, "optimize", "_lsap" + suffix)
                  for root in roots
                  for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, candidates), None)
    if path is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    previous = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    finally:
        # a single-phase extension module enters itself in sys.modules when
        # it is created; leave them as they were
        if previous is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = previous
    return module.linear_sum_assignment


linear_sum_assignment = _load_lsap()


def _sqeuclidean(a, b):
    """The (n, m) squared Euclidean distances between the rows of a and b.

    Sums the squared coordinate differences in coordinate order, the bits
    of scipy's cdist(a, b, "sqeuclidean"), into one (n, m) array through a
    scratch block of _COST_ROWS rows.
    """

    cost = np.empty((a.shape[0], b.shape[0]))
    scratch = np.empty((min(_COST_ROWS, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], _COST_ROWS):
        rows = slice(start, start + _COST_ROWS)
        block = cost[rows]
        square = scratch[:block.shape[0]]
        np.subtract(a[rows, 0, None], b[:, 0], out=block)
        block *= block
        for k in range(1, a.shape[1]):
            np.subtract(a[rows, k, None], b[:, k], out=square)
            square *= square
            block += square
    return cost


def w2_exact(a, b):
    """Exact W2 between equal-size empirical clouds (rows are points)."""

    a, b = (c[:, None] if c.ndim == 1 else c
            for c in (np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
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
    ac, bc = a - a.mean(axis=0), b - b.mean(axis=0)
    matched = _matched_clouds(ac, bc)
    if matched is None:
        # the centred cost as it is: a degenerate cloud has many optimal
        # couplings, and a reduced cost would change which one the solver
        # returns, so the order, and the last bits, of the sum below
        cost = _sqeuclidean(ac, bc)
    else:
        cost = _sqeuclidean(*matched)
        # row then column reduction: a dual start at which the solver's
        # shortest augmenting paths are short
        cost -= cost.min(axis=1, keepdims=True)
        cost -= cost.min(axis=0)
    cols = linear_sum_assignment(cost)[1]
    return math.sqrt(float(np.sum((a - b[cols]) ** 2)) / n)


def _matched_clouds(ac, bc):
    """(ac A^1/2, bc A^-1/2) for the Gaussian OT map A between the centred
    clouds' covariances, or None when either covariance, or A, is
    near-singular.

    Translation adds a per-row and a per-column term to the quadratic cost
    and the map keeps the cross term ac . bc, so every cost on these pairs
    has the optimal couplings of the raw cost; A carries ac close to its
    partners in bc, so the optimal pairs sit near zero cost.
    """

    ea, ua = np.linalg.eigh(ac.T @ ac)
    cb = bc.T @ bc
    eb = np.linalg.eigvalsh(cb)
    if ea[0] <= _SINGULAR * ea[-1] or eb[0] <= _SINGULAR * eb[-1]:
        return None
    # A = Ca^-1/2 (Ca^1/2 Cb Ca^1/2)^1/2 Ca^-1/2 (Olkin-Pukelsheim)
    root = (ua * np.sqrt(ea)) @ ua.T
    em, um = np.linalg.eigh(root @ cb @ root)
    inv_root = (ua / np.sqrt(ea)) @ ua.T
    A = inv_root @ ((um * np.sqrt(np.clip(em, 0.0, None))) @ um.T) @ inv_root
    eA, uA = np.linalg.eigh(0.5 * (A + A.T))
    if eA[0] <= _SINGULAR * eA[-1]:
        return None
    return ac @ ((uA * np.sqrt(eA)) @ uA.T), bc @ ((uA / np.sqrt(eA)) @ uA.T)


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

    Spectra are given as ((value, multiplicity), ...) and are paired in
    descending order; this keeps full precision where the dense Bures trace
    cancels catastrophically.
    """

    def expand(spectrum):
        try:
            values, mults = zip(*((float(v), int(m)) for v, m in spectrum))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"a spectrum must be ((value, multiplicity), "
                             f"...) pairs, got {spectrum!r}") from exc
        return np.sort(np.repeat(values, mults))[::-1]

    a, b = expand(evals1), expand(evals2)
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
    of four disjoint-subsample estimates.  Imports scipy.spatial and
    scipy.special on its first call.
    """

    from scipy.spatial import cKDTree
    from scipy.special import digamma, gammaln

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
    r3: np.ndarray      # (N, d)
    aggregates: dict    # name -> (1/N) sum_i |R_i|^2

    def aggregate(self, name):
        return self.aggregates[name]


def mean_field_tables(spec, rho_inf):
    """(K*rho, grad K*rho) tabulated on rho's grid; K = -grad W (d = 1).

    Both error-statistics paths interpolate these tables linearly rather than
    re-integrating at arbitrary points, so they agree to rounding.
    """

    conv_k = -interaction_convolution(spec, rho_inf.x_axis, rho_inf.values,
                                      derivative=1)
    conv_dk = -interaction_convolution(spec, rho_inf.x_axis, rho_inf.values,
                                       derivative=2)
    return conv_k, conv_dk


def _stack_size(N):
    """Ensembles per stack of _error_terms in a sweep (d = 1): the most
    whose first pair panels hold at most 2**16 entries together, so numpy
    calls on small N cover many ensembles and few calls release the
    interpreter lock; a function of N alone."""

    return max(1, 2**16 // _panel_entries((N, 1)))


def _error_terms(x, v, spec, rho_inf, tables, first=None):
    """R0, R1 and R3 of each ensemble of an (R, N) stack of positions x and
    velocities v (d = 1), as one (3, R, N) array.

    The pair sums run over potentials.pair_panels of the stack, so each
    unordered pair is evaluated once and every ensemble sums in the order it
    has alone.  They accumulate grad W and hess W: K = -grad W is odd and
    K' = -hess W even, so a panel's column sums reach the rows after it
    with the signs - and +, and the sign of K is applied once, in the
    division by -N.  K and K' of a panel come from one evaluation of W,
    which a radial W serves from one |x|, W'/s and W''.  The panels, W's
    derivatives and the products with v are evaluated into four rows of
    the first panel's size, allocated once per call.  The convolution
    tables are linearly interpolated at the particle positions.  A particle
    off their grid is a ValueError, raised before any pair sum, that names
    it and, when the stack holds repetitions first, first + 1, ... of a
    sweep point, its repetition.
    """

    axis = rho_inf.x_axis
    eps = 1e-12 * max(1.0, abs(axis.hi))
    bad = (x < axis.lo - eps) | (x > axis.hi + eps)
    if np.any(bad):
        r, i = np.argwhere(bad)[0]
        where = "" if first is None else f"repetition {first + r}, "
        raise ValueError(f"{where}particle {i} at x={float(x[r, i])!r} "
                         f"escapes the density grid [{axis.lo}, {axis.hi}]")
    R, N = x.shape
    terms = np.zeros((3, R, N))
    s0, s1, s3 = terms
    # rows: the panel, then W's scratch (RadialField._grad_hess), which ends
    # with the Hessian in row 1 and the gradient in row 3; the products with
    # v go over the panel, which grad and hess no longer need
    work = np.empty((4, _panel_entries((R, N, 1))))
    for rows, diff, self_pairs in pair_panels(x[..., None], out=work[0]):
        grad, hess = spec.W._grad_hess(diff, out=work[1:])
        g = grad[..., 0]
        h = hess[..., 0, 0]
        g[self_pairs] = 0.0
        h[self_pairs] = 0.0
        # the columns after the square reach rows e..N-1
        tail = slice(rows.stop - rows.start, None)
        after = slice(rows.stop, None)
        s0[:, rows] += g.sum(axis=-1)
        s0[:, after] -= g[..., tail].sum(axis=-2)
        s1[:, rows] += h.sum(axis=-1)
        s1[:, after] += h[..., tail].sum(axis=-2)
        hv = np.multiply(h, v[:, None, rows.start:],
                         out=_view(work, h.shape, 0))
        s3[:, rows] += hv.sum(axis=-1)
        hv = np.multiply(h[..., tail], v[:, rows, None],
                         out=_view(work, h[..., tail].shape, 0))
        s3[:, after] += hv.sum(axis=-2)
    terms /= -N
    s0 -= np.interp(x, axis.nodes, tables[0])
    s1 -= np.interp(x, axis.nodes, tables[1])
    return terms


def _mean_squares(terms):
    """The aggregates (1/N) sum_i |R_i|^2 of R0, R1 and R3 from the
    (3, R, N) terms of _error_terms, one column per ensemble."""

    return np.mean(terms**2, axis=-1)


def error_statistics(ensemble, spec, rho_inf, params=None, tables=None):
    """Error terms of an ensemble against the mean-field law rho_inf (d = 1).

    _error_terms on a stack of this one ensemble.  The convolution tables
    are computed on rho_inf's grid, or passed in precomputed via `tables`.
    """

    del params  # error terms depend on positions/velocities and the kernel
    if ensemble.d != 1:
        raise ValueError("error statistics are implemented for d = 1")
    rho_inf = rho_inf.marginal_x()
    if tables is None:
        tables = mean_field_tables(spec, rho_inf)
    terms = _error_terms(ensemble.positions.T, ensemble.velocities.T, spec,
                         rho_inf, tables)
    agg = dict(zip(_TERMS, map(float, _mean_squares(terms)[:, 0])))
    r0, r1, r3 = terms[:, 0, :, None]
    return ErrorStats(r0, r1[..., None], r3, agg)


def _scalar_kernels(spec):
    """K(r) = -W'(r) and K'(r) = -W''(r), one scalar field call each."""

    def kernel(r):
        return -float(spec.W.grad(np.array([[r]]))[0, 0])

    def kernel_grad(r):
        return -float(spec.W.hess(np.array([[r]]))[0, 0, 0])

    return kernel, kernel_grad


def mean_field_tables_reference(spec, rho_inf):
    """Plain double-loop trapezoid tables (K*rho, grad K*rho) on rho's grid.

    The naive counterpart of mean_field_tables, independent of it: O(nx²)
    scalar kernel calls, so build it once per rho_inf and pass it to
    error_statistics_reference through `tables`.
    """

    rho_inf = rho_inf.marginal_x()
    kernel, kernel_grad = _scalar_kernels(spec)
    axis = rho_inf.x_axis
    nodes = axis.nodes
    nx = nodes.size
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
    return table_k, table_dk


def error_statistics_reference(ensemble, spec, rho_inf, params=None,
                               tables=None):
    """Plain double-loop evaluation of the same error terms.

    Kept deliberately naive (explicit loops, scalar kernel calls, quadrature
    and interpolation spelled out by hand) as an independent check of
    error_statistics.  The tables come from mean_field_tables_reference
    unless passed in via `tables`.  Quadratic in N and in the grid size; use
    modest sizes.
    """

    del params
    if ensemble.d != 1:
        raise ValueError("error statistics are implemented for d = 1")
    rho_inf = rho_inf.marginal_x()
    x = ensemble.positions[:, 0]
    v = ensemble.velocities[:, 0]
    N = x.size
    axis = rho_inf.x_axis
    nodes = axis.nodes
    kernel, kernel_grad = _scalar_kernels(spec)
    if tables is None:
        tables = mean_field_tables_reference(spec, rho_inf)
    table_k, table_dk = tables

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
           "R3": float(np.mean(r3**2))}
    return ErrorStats(r0[:, None], r1[:, None, None], r3[:, None], agg)


def loglog_fit(n_values, means):
    """Least squares of log(mean) on log(N); returns slope, se, r2."""

    x = np.log(np.asarray(n_values, dtype=float))
    coef, A, ss_res, r2 = _line_fit(x, np.log(np.asarray(means, dtype=float)))
    cov = ss_res / max(x.size - 2, 1) * np.linalg.inv(A.T @ A)
    return float(coef[0]), math.sqrt(max(cov[0, 0], 0.0)), r2


@dataclass(frozen=True)
class ConcentrationResult:
    """Monte Carlo concentration study of the aggregates over N."""

    terms: tuple
    mean: np.ndarray     # (terms x N), over the ensembles, n_values order
    se: np.ndarray       # the standard errors of `mean`
    fits: dict           # term -> (slope, slope_se, r2) or None when flat
    # per N, in n_values order: N, the point's wall and thread CPU seconds
    # and the pair entries it evaluated; for the report, never the CSVs
    timings: tuple = ()


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

    For the k-th smallest N, n_mc iid ensembles are drawn from rho_inf x
    Maxwellian on rng.derive(20_000 * (k + 1)), substreams 0..n_mc-1, and
    the three aggregates averaged, so a permuted n_values permutes the
    columns.  A point's ensembles are drawn and evaluated _stack_size(N)
    at a time as one stack, each with the bits of an error_statistics call
    on it alone.  The N points fan out over `threads` worker threads, the
    largest N (the costliest point) submitted first, with identical results
    for any count.  Per term a log-log slope over N follows.  Zero kernels
    yield identically zero aggregates and fits of None.  Every N needs a
    pair (N >= 2), and each point at least one ensemble.  Each point's wall
    time and the CPU time of the thread that ran it (time.thread_time, which
    counts the handoffs of the interpreter lock between threads) go in
    `timings` with its pair entries, n_mc * potentials._pair_entries(N, 1).
    """

    if n_mc < 1 or min(n_values) < 2:
        raise ValueError(f"need n_mc >= 1 ensembles of N >= 2 particles, "
                         f"got n_mc={n_mc}, N in {list(n_values)}")
    rho_inf = rho_inf.marginal_x()
    tables = mean_field_tables(spec, rho_inf)
    n_points = len(n_values)
    ranked = sorted(range(n_points), key=lambda i: n_values[i])

    def one_point(k):
        wall, cpu = time.perf_counter(), time.thread_time()
        point_rng = rng.derive(20_000 * (k + 1))
        N = n_values[ranked[k]]
        size = _stack_size(N)
        aggs = np.empty((len(_TERMS), n_mc))  # each term's samples contiguous
        for first in range(0, n_mc, size):
            stack = range(first, min(first + size, n_mc))
            x, vel = np.empty((2, len(stack), N))
            for r, s in enumerate(stack):
                x[r], vel[r] = sample_f_infty(rho_inf, params, N, point_rng,
                                              substream=s)
            aggs[:, first:stack.stop] = _mean_squares(
                _error_terms(x, vel, spec, rho_inf, tables, first))
        return aggs, {"N": int(N),
                      "wall_seconds": time.perf_counter() - wall,
                      "thread_seconds": time.thread_time() - cpu,
                      "pair_entries": n_mc * _pair_entries(N, 1)}

    # a point costs O(n_mc N²): with the largest first, the pool's last busy
    # thread finishes on a small point
    largest_first = _map_indexed(lambda j: one_point(n_points - 1 - j),
                                 n_points, threads)
    done_at = dict(zip(reversed(ranked), largest_first))
    # (terms, N, ensembles), each term's samples contiguous
    aggs = np.stack([done_at[i][0] for i in range(n_points)], axis=1)
    mean = aggs.mean(axis=-1)
    se = (aggs.std(axis=-1, ddof=1) / math.sqrt(n_mc) if n_mc > 1
          else np.zeros_like(mean))
    # a slope needs at least two N values and strictly positive means
    fits = {t: (None if n_points < 2 or np.any(means <= 0)
                else loglog_fit(n_values, means))
            for t, means in zip(_TERMS, mean)}
    return ConcentrationResult(
        terms=_TERMS, mean=mean, se=se, fits=fits,
        timings=tuple(done_at[i][1] for i in range(n_points)))
