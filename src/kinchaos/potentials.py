"""Confining and interaction potentials with explicit curvature constants.

Families cover the standard kinetic mean-field test problems: quadratic and
power-law confinement, sub-exponential confinement exp(a|x|^k), harmonic
interaction (L_W/2)|x|^2 and two mollified Coulomb interactions.  Every field
exposes analytic value / gradient / Hessian, vectorized over leading axes,
plus the declared constants consumed by the convergence-rate recipes:

    lam, M_lb     quadratic lower bound  V(x) >= lam*|x|^2 - M_lb
    C_V           sup |hess V|   (math.inf when unbounded)
    C_K           sup |hess W|
    theta         weight exponent of the Hessian growth condition
    C_V_theta     sup |V^(-2*theta) hess V|
    W_grad_sup    sup |grad W|   (math.inf when unbounded)

`check_assumptions` verifies the five structural conditions numerically on a
sampling grid plus a logarithmic tail net, reporting margins and concrete
witnesses; it samples, it never proves.
"""

import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationOverflow


class Field:
    """Scalar potential with analytic derivatives, vectorized over (..., d).

    A builtin family declares the side(s) of the system it may stand on,
    `roles` ("V" confinement, "W" interaction), and returns its declared
    PotentialSpec constants from `constants()`.
    """

    family = "custom"
    roles = ()

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def params(self):
        return {}


class Zero(Field):
    """W = 0 (or V = 0): exact zeros; every declared constant keeps its 0.0
    default."""

    family = "zero"
    roles = ("V", "W")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        return np.zeros(x.shape[:-1] + (d, d))

    def constants(self):
        return {}


class Quadratic(Field):
    """V(x) = (curvature/2) |x|^2."""

    family = "quadratic"
    roles = ("V",)

    def __init__(self, curvature=1.0):
        if curvature <= 0:
            raise ValueError("quadratic: curvature must be positive")
        self.curvature = float(curvature)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.curvature * np.sum(x * x, axis=-1)

    def grad(self, x):
        return self.curvature * np.asarray(x, dtype=float)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        eye = self.curvature * np.eye(d)
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    def params(self):
        return {"curvature": self.curvature}

    def constants(self):
        c = self.curvature
        return {"lam": c / 2.0, "M_lb": 0.0, "C_V": c, "theta": 0.0,
                "C_V_theta": c}


class RadialField(Field):
    """Potential depending on s = |x| only.

    Subclasses provide _v(s), _w1(s) = W'(s)/s and _w2(s) = W''(s); the
    gradient is w1*x and the Hessian splits into the radial eigenvalue W''
    and the tangential eigenvalue W'/s.
    """

    def _v(self, s):
        raise NotImplementedError

    def _w1(self, s):
        raise NotImplementedError

    def _w2(self, s):
        raise NotImplementedError

    def _norm(self, x):
        return np.sqrt(np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))

    def value(self, x):
        return self._v(self._norm(x))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self._w1(self._norm(x))[..., None] * x

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        s = self._norm(x)
        w1 = self._w1(s)
        w2 = self._w2(s)
        if d == 1:
            # u u^T = 1 exactly for s > 0 whenever x² is a normal float, so
            # this is the general formula below bit for bit, without its
            # unit vectors and outer products
            return (np.where(s > 0, w2 - w1, 0.0) + w1)[..., None, None]
        safe = np.where(s > 0, s, 1.0)
        u = x / safe[..., None]
        outer = u[..., :, None] * u[..., None, :]
        # at s=0 the radial/tangential split degenerates; w2 - w1 -> 0 there
        # for every C^2 family, so zero the outer term explicitly
        aniso = np.where(s > 0, w2 - w1, 0.0)
        return aniso[..., None, None] * outer + w1[..., None, None] * np.eye(d)


class PowerLaw(RadialField):
    """V(x) = amp * |x|^k with k >= 2."""

    family = "power_k"
    roles = ("V",)

    def __init__(self, k=4.0, amp=1.0):
        if amp <= 0:
            raise ValueError("power_k: amp must be positive")
        if k < 2:
            raise ValueError("power_k: k must be >= 2")
        self.k = float(k)
        self.amp = float(amp)

    def _v(self, s):
        return self.amp * s**self.k

    def _w1(self, s):
        return self.amp * self.k * s ** (self.k - 2.0)

    def _w2(self, s):
        return self.amp * self.k * (self.k - 1.0) * s ** (self.k - 2.0)

    def params(self):
        return {"k": self.k, "amp": self.amp}

    def constants(self):
        k, amp = self.k, self.amp
        if k == 2:
            return {"lam": amp, "M_lb": amp, "C_V": 2 * amp, "theta": 0.0,
                    "C_V_theta": 2 * amp}
        theta = 0.5 - 1.0 / k
        return {"lam": amp, "M_lb": amp, "C_V": math.inf, "theta": theta,
                "C_V_theta": amp ** (1.0 - 2 * theta) * k * (k - 1.0)}


class ExpPower(RadialField):
    """V(x) = exp(a |x|^k) with 0 < k < 1.

    Not C^1 at the origin; the gradient/Hessian there are returned as 0 by
    even-symmetry convention and excluded from derivative-consistency grids.
    """

    family = "exp_power"
    roles = ("V",)

    def __init__(self, a=1.0, k=0.5):
        if a <= 0:
            raise ValueError("exp_power: a must be positive")
        if not 0 < k < 1:
            raise ValueError("exp_power: k must lie in (0, 1)")
        self.a = float(a)
        self.k = float(k)

    def _v(self, s):
        return np.exp(self.a * s**self.k)

    def _w1(self, s):
        a, k = self.a, self.k
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a * k * s ** (k - 2.0) * np.exp(a * s**k)
        return np.where(s > 0, out, 0.0)

    def _w2(self, s):
        a, k = self.a, self.k
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (a * a * k * k * s ** (2 * k - 2.0)
                   + a * k * (k - 1.0) * s ** (k - 2.0)) * np.exp(a * s**k)
        return np.where(s > 0, out, 0.0)

    def params(self):
        return {"a": self.a, "k": self.k}

    def constants(self):
        a, k = self.a, self.k
        # lam=1 works since the exponential dominates; M_lb by a dense scan
        s = np.geomspace(1e-3, 50.0, 4001)
        m = float(max(0.0, np.max(s**2 - np.exp(a * s**k))))
        # weighted Hessian sup away from the (non-C^2) origin, s >= 1
        tail = np.geomspace(1.0, 1e4, 4001)
        w = np.abs(a**2 * k**2 * tail ** (2 * k - 2)
                   + a * k * (k - 1) * tail ** (k - 2))
        return {"lam": 1.0, "M_lb": m, "C_V": math.inf, "theta": 0.5,
                "C_V_theta": float(np.max(w))}


class HarmonicW(Field):
    """W(x) = (L_W/2) |x|^2; Hessian identically L_W * I and W(0) = 0."""

    family = "harmonic_W"
    roles = ("W",)

    def __init__(self, L_W=0.25):
        if L_W < 0:
            raise ValueError("harmonic_W: L_W must be nonnegative")
        self.L_W = float(L_W)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.L_W * np.sum(x * x, axis=-1)

    def grad(self, x):
        return self.L_W * np.asarray(x, dtype=float)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        eye = self.L_W * np.eye(d)
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    def params(self):
        return {"L_W": self.L_W}

    def constants(self):
        return {"C_K": self.L_W, "W_grad_sup": math.inf}


class MollifiedCoulomb(RadialField):
    """Smoothed Coulomb interaction, both standard forms.

    form="power":  W(x) = a / (|x|^k + b^k)^(1/k), k >= 2
    form="arctan": W(x) = a * arctan(|x|/r0) / |x|
    """

    family = "mollified_coulomb"
    roles = ("W",)
    _SERIES_CUT = 1e-3  # switch arctan form to its Taylor series below s/r0

    def __init__(self, a=1.0, b=1.0, k=2.0, r0=1.0, form="power"):
        if form not in ("power", "arctan"):
            raise ValueError("mollified_coulomb: form must be 'power' or 'arctan'")
        if a <= 0:
            raise ValueError("mollified_coulomb: a must be positive")
        if form == "power":
            if b <= 0:
                raise ValueError("mollified_coulomb: b must be positive")
            if k < 2:
                raise ValueError("mollified_coulomb: k must be >= 2")
        elif r0 <= 0:
            raise ValueError("mollified_coulomb: r0 must be positive")
        self.a, self.b, self.k, self.r0, self.form = (
            float(a), float(b), float(k), float(r0), form)

    def _v(self, s):
        a = self.a
        if self.form == "power":
            return a * (s**self.k + self.b**self.k) ** (-1.0 / self.k)
        u = s / self.r0
        small = u < self._SERIES_CUT
        us = np.where(small, u, 1.0)
        series = (a / self.r0) * (1 - us**2 / 3 + us**4 / 5 - us**6 / 7)
        safe = np.where(small, 1.0, s)
        exact = a * np.arctan(u) / safe
        return np.where(small, series, exact)

    def _w1(self, s):
        a = self.a
        if self.form == "power":
            k, bk = self.k, self.b**self.k
            return -a * s ** (k - 2.0) * (s**k + bk) ** (-(k + 1.0) / k)
        r0 = self.r0
        u = s / r0
        small = u < self._SERIES_CUT
        us = np.where(small, u, 1.0)
        series = (a / r0**3) * (-2.0 / 3 + 4 * us**2 / 5 - 6 * us**4 / 7)
        safe = np.where(small, 1.0, s)
        exact = a * (r0 * safe - (r0**2 + safe**2) * np.arctan(u)) / (
            safe**3 * (r0**2 + safe**2))
        return np.where(small, series, exact)

    def _w2(self, s):
        a = self.a
        if self.form == "power":
            k, bk = self.k, self.b**self.k
            return (-a * s ** (k - 2.0) * (bk * (k - 1.0) - 2 * s**k)
                    * (s**k + bk) ** (-(2 * k + 1.0) / k))
        r0 = self.r0
        u = s / r0
        small = u < self._SERIES_CUT
        us = np.where(small, u, 1.0)
        series = (a / r0**3) * (-2.0 / 3 + 12 * us**2 / 5 - 30 * us**4 / 7)
        safe = np.where(small, 1.0, s)
        exact = 2 * a * (-(r0**3) * safe - 2 * r0 * safe**3
                         + (r0**2 + safe**2) ** 2 * np.arctan(u)) / (
            safe**3 * (r0**2 + safe**2) ** 2)
        return np.where(small, series, exact)

    def params(self):
        p = {"a": self.a, "form": self.form}
        if self.form == "power":
            p.update(b=self.b, k=self.k)
        else:
            p.update(r0=self.r0)
        return p

    def constants(self):
        # sup |hess W| and sup |grad W| on a dense deterministic radial net;
        # the Hessian's radial and tangential eigenvalues are W'' and W'/s
        scale = self.b if self.form == "power" else self.r0
        s = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 4001) * scale])
        w1 = np.abs(self._w1(s))
        w2 = np.abs(self._w2(s))
        return {"C_K": float(np.max(np.maximum(w1, w2))),
                "W_grad_sup": float(np.max(w1 * s))}


@dataclass
class PotentialSpec:
    """Confining field V, interaction field W and their declared constants."""

    V: Field
    W: Field
    d: int                      # dimension of the whole space R^d
    lam: float = 0.0
    M_lb: float = 0.0
    C_V: float = 0.0
    C_K: float = 0.0
    theta: float = 0.0
    C_V_theta: float = 0.0
    W_grad_sup: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")

    def describe(self):
        return {
            "V": {"family": self.V.family, **self.V.params()},
            "W": {"family": self.W.family, **self.W.params()},
            "domain": {"d": self.d},
            "constants": {
                "lam": self.lam, "M_lb": self.M_lb, "C_V": self.C_V,
                "C_K": self.C_K, "theta": self.theta,
                "C_V_theta": self.C_V_theta, "W_grad_sup": self.W_grad_sup,
            },
        }


_FAMILIES = {cls.family: cls for cls in (
    Quadratic, PowerLaw, ExpPower, HarmonicW, MollifiedCoulomb, Zero)}

_SIDES = {"V": "confinement V", "W": "interaction W"}


def _build_field(family, params, d, role=None):
    """One builtin field from validated parameters; `role`, when given, must
    be one the family declares."""

    if family not in _FAMILIES:
        raise ValueError(f"unknown potential family {family!r}")
    cls, params = _FAMILIES[family], params or {}
    if role is not None and role not in cls.roles:
        raise ValueError(f"{family} cannot be the {_SIDES[role]}: it is a "
                         f"{'/'.join(cls.roles)} family")
    known = inspect.signature(cls).parameters
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"{family}: unknown parameter(s) {', '.join(unknown)}"
                         f"; it takes {', '.join(known) or 'none'}")
    for name, value in params.items():
        numeric = isinstance(known[name].default, (int, float))
        if numeric and (isinstance(value, bool)
                        or not isinstance(value, numbers.Real)):
            raise ValueError(f"{family}: parameter {name} must be a number, "
                             f"got {value!r}")
    if cls is MollifiedCoulomb and d > 3:
        raise ValueError("mollified_coulomb: supported for d <= 3 only")
    return cls(**params)


def make_builtin(family, params=None, d=1):
    """Build a PotentialSpec with `family` installed on its declared side(s).

    Confining families (quadratic, power_k, exp_power) get a zero interaction;
    interaction families (harmonic_W, mollified_coulomb) get a zero confinement.
    Combine two builtins with make_system.  Parameter violations raise
    ValueError naming the constraint.
    """

    fld = _build_field(family, params, d)
    return PotentialSpec(V=fld if "V" in fld.roles else Zero(),
                         W=fld if "W" in fld.roles else Zero(), d=d,
                         **fld.constants())


def make_system(v_family, v_params=None, w_family="zero", w_params=None,
                d=1):
    """Combine a confining family and an interaction family into one spec.

    A family given on a side it does not declare raises ValueError naming it.
    """

    V = _build_field(v_family, v_params, d, "V")
    W = _build_field(w_family, w_params, d, "W")
    return PotentialSpec(V=V, W=W, d=d, **V.constants(), **W.constants())


def evaluate(spec, which, x):
    """Evaluate V or W at one point: (value, gradient, hessian).

    A non-finite value raises EvaluationOverflow carrying the offending
    point.
    """

    if which not in ("V", "W"):
        raise ValueError("which must be 'V' or 'W'")
    fld = spec.V if which == "V" else spec.W
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = fld.value(x)
    g = fld.grad(x)
    h = fld.hess(x)
    if not (np.all(np.isfinite(val)) and np.all(np.isfinite(g))
            and np.all(np.isfinite(h))):
        raise EvaluationOverflow(which, np.asarray(x).tolist())
    return float(val), g, h


def interaction_kernel(spec, r):
    """Interaction force K(r) = -grad W at displacement(s) r.

    Vectorized over leading axes.  Antisymmetric for every even W:
    K(-r) = -K(r).
    """

    return -spec.W.grad(np.asarray(r, dtype=float))


def pair_blocks(X):
    """Row blocks of the pair differences x_i - x_j of an (N, d) array.

    Yields (rows, diff, self_pairs): the slice of i covered by the block, the
    (rows, N, d) differences, and the index of the i == j entries in diff's
    first two axes.  Blocks of 2**14 // (N*d) rows, about 2**14 pair entries
    (128 KiB), keep the temporaries in cache and in the allocator's free
    lists instead of mapping fresh pages on every call.  The N-body sums
    reduce each row over j on its own, in index order, so their results do
    not depend on the block size.
    """

    N, d = X.shape
    chunk = max(1, 2**14 // (N * d))
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        rows = slice(start, stop)
        yield (rows, X[rows, None, :] - X[None, :, :],
               (np.arange(stop - start), np.arange(start, stop)))


def pairwise_interaction_energy(spec, X):
    """(1/2N) sum_{i != j} W(x_i - x_j) over pair_blocks.

    Each row is summed over j on its own and the N row sums are summed last.
    """

    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return 0.0
    row_sums = np.empty(N)
    for rows, diff, self_pairs in pair_blocks(X):
        w = spec.W.value(diff)
        w[self_pairs] = 0.0
        row_sums[rows] = w.sum(axis=1)
    return float(np.sum(row_sums)) / (2.0 * N)


def system_energy(spec, Z):
    """Hamiltonian and potential energy of an ensemble.

    H = sum_i |v_i|^2/2 + U(X) with U = sum_i V(x_i)
    + (1/2N) sum_{i != j} W(x_i - x_j).
    """

    X = np.asarray(Z.positions, dtype=float)
    Vsum = float(np.sum(spec.V.value(X)))
    U = Vsum + pairwise_interaction_energy(spec, X)
    kinetic = 0.5 * float(np.sum(np.asarray(Z.velocities) ** 2))
    H = kinetic + U
    if not (math.isfinite(H) and math.isfinite(U)):
        raise EvaluationOverflow("system_energy", None)
    return H, U


# ---------------------------------------------------------------------------
# assumption checking


@dataclass
class Verdict:
    status: str                 # "pass" | "fail" | "not-checked"
    margin: float | None = None
    witness: object = None
    note: str = ""

    def as_dict(self):
        w = self.witness
        if isinstance(w, np.ndarray):
            w = w.tolist()
        elif isinstance(w, dict):
            w = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in w.items()}
        return {"status": self.status, "margin": self.margin,
                "witness": w, "note": self.note}


@dataclass
class AssumptionReport:
    verdicts: dict
    theta: float
    seed: int
    notes: list = field(default_factory=list)

    def status(self, key):
        return self.verdicts[key].status

    def as_dict(self):
        return {
            "theta": self.theta,
            "seed": self.seed,
            "notes": self.notes,
            "verdicts": {k: v.as_dict() for k, v in self.verdicts.items()},
        }

    def failed(self):
        return [k for k, v in self.verdicts.items() if v.status == "fail"]

    def summary(self):
        return "  ".join(f"{k}:{v.status}" for k, v in sorted(self.verdicts.items()))


def _op_norms(H):
    """Operator norms of a stack of symmetric matrices."""

    H = np.asarray(H)
    if H.shape[-1] == 1:
        return np.abs(H[..., 0, 0])
    return np.max(np.abs(np.linalg.eigvalsh(H)), axis=-1)


# screening nets: a uniform core grid on [-10, 10], a logarithmic tail net
# out to |x| = 1e3 on both sides, and 64 random zero-mass signed measures
_TOL = 1e-8
_CORE_RADIUS, _N_CORE = 10.0, 2001
_TAIL_RADIUS, _N_TAIL = 1e3, 257
_N_RANDOM_MEASURES = 64


def check_assumptions(spec, *, theta=None, seed=0):
    """Numerically screen the five structural assumptions (d = 1).

    Returns an AssumptionReport whose fail verdicts carry concrete witnesses
    (a grid point, or a signed measure for the interaction-convexity check).
    The quadratic-lower-bound drift variant is reported not-checked.
    """

    if spec.d != 1:
        raise ValueError(f"check_assumptions screens d = 1 only, got d = "
                         f"{spec.d}")
    pts = np.linspace(-_CORE_RADIUS, _CORE_RADIUS, _N_CORE)[:, None]
    radii = np.abs(pts[:, 0])
    theta = spec.theta if theta is None else float(theta)
    tail_s = np.geomspace(_CORE_RADIUS, _TAIL_RADIUS, _N_TAIL)
    tail = np.concatenate([tail_s, -tail_s])[:, None]
    verdicts = {}

    # A1: quadratic lower bound V >= lam |x|^2 - M
    vals = spec.V.value(pts)
    gap = vals - spec.lam * radii**2 + spec.M_lb
    i = int(np.argmin(gap))
    verdicts["A1"] = Verdict(
        "pass" if gap[i] >= -_TOL else "fail",
        margin=float(gap[i]),
        witness=None if gap[i] >= -_TOL else pts[i],
        note="drift form of the lower bound: not-checked")

    # A2: bounded Hessian of V
    pool = np.concatenate([pts, tail])
    hnorm = _op_norms(spec.V.hess(pool))
    j = int(np.argmax(hnorm))
    if not math.isfinite(spec.C_V):
        verdicts["A2"] = Verdict(
            "fail", margin=-math.inf, witness=pool[j],
            note=f"declared C_V unbounded; grid sup {hnorm[j]:.6g} at |x|="
                 f"{np.linalg.norm(pool[j]):.3g} grows without bound")
    else:
        margin = spec.C_V + 1e-9 - hnorm[j]
        verdicts["A2"] = Verdict(
            "pass" if margin >= 0 else "fail",
            margin=float(margin),
            witness=None if margin >= 0 else pool[j],
            note=f"measured sup|hess V| = {hnorm[j]:.12g} vs C_V = {spec.C_V:.12g}")

    # A3: weighted Hessian bound plus the two tail conditions
    verdicts["A3"] = _check_a3(spec, pts, theta, tail)

    # A4: bounded interaction Hessian and C_K < lam/2
    verdicts["A4"] = _check_a4(spec, pts)

    # A5: interaction-energy convexity on random zero-mass signed measures
    verdicts["A5"] = _check_a5(spec, pts, seed)

    return AssumptionReport(verdicts=verdicts, theta=theta, seed=seed)


def _check_a3(spec, pts, theta, tail):
    # weighted sup |V^(-2 theta) hess V| excluding the origin where V may vanish
    pool = np.concatenate([pts, tail])
    radii = np.linalg.norm(pool, axis=-1)
    mask = radii > 1e-6
    vals = spec.V.value(pool[mask])
    if np.any(vals <= 0):
        mask2 = vals > 0
        pool_w, vals = pool[mask][mask2], vals[mask2]
    else:
        pool_w = pool[mask]
    hn = _op_norms(spec.V.hess(pool_w))
    weighted = vals ** (-2 * theta) * hn
    jw = int(np.argmax(weighted))
    ok_weight = weighted[jw] <= spec.C_V_theta + max(1e-9, 1e-9 * spec.C_V_theta)

    # tail conditions on the outer half of the tail net
    s = np.abs(tail[:, 0])
    keep = s >= np.median(s)
    tpts = tail[keep]
    g = spec.V.grad(tpts)
    h = spec.V.hess(tpts)
    lap = np.trace(h, axis1=-2, axis2=-1)
    g2 = np.sum(g * g, axis=-1)
    v = spec.V.value(tpts)
    good = g2 > 0
    if not np.any(good):
        return Verdict("not-checked", note="vanishing gradient on tail net")
    r1 = lap[good] / g2[good]
    kappa1 = float(np.max(r1))
    ok_k1 = kappa1 < 1.0  # condition requires kappa_1 in (0, 1)
    r2 = g2[good] / np.maximum(v[good], 1e-300) ** (2 * theta + 1)
    kappa2 = float(np.min(r2))
    # kappa_2 must stay bounded away from zero: reject a decaying trend
    logs = np.log(np.abs(tpts[good][:, 0]))
    slope = np.polyfit(logs, np.log(np.maximum(r2, 1e-300)), 1)[0]
    ok_k2 = kappa2 > _TOL and slope >= -0.05

    if ok_weight and ok_k1 and ok_k2:
        return Verdict("pass",
                       margin=float(spec.C_V_theta - weighted[jw]),
                       note=f"kappa1={kappa1:.4g} kappa2={kappa2:.4g} "
                            f"tail slope={slope:.3g}")
    if not ok_weight:
        return Verdict("fail", margin=float(spec.C_V_theta - weighted[jw]),
                       witness=pool_w[jw],
                       note=f"weighted Hessian {weighted[jw]:.6g} exceeds "
                            f"C_V_theta {spec.C_V_theta:.6g}")
    if not ok_k1:
        w = tpts[good][int(np.argmax(r1))]
        return Verdict("fail", margin=float(1.0 - kappa1), witness=w,
                       note=f"laplacian/|grad|^2 = {kappa1:.4g} not < 1 on tail")
    w = tpts[good][int(np.argmin(r2))]
    return Verdict("fail", margin=float(kappa2), witness=w,
                   note=f"|grad V|^2 / V^(2 theta + 1) decays on the tail "
                        f"(min {kappa2:.4g}, log-log slope {slope:.3g})")


def _check_a4(spec, pts):
    # the smallness comparison is against half the convexity modulus of V
    # (smallest Hessian eigenvalue over the net), not the quadratic-growth
    # constant of A1; for V = (c/2)|x|^2 that modulus is c
    conv = float(np.min(np.linalg.eigvalsh(spec.V.hess(pts))))
    # with no interaction there is no smallness condition to meet, even where
    # the modulus is 0 (power_k at the origin)
    if isinstance(spec.W, Zero):
        return Verdict("pass", margin=conv / 2.0,
                       note="no interaction; bound vacuous")
    # displacement net: a dense line over every difference of two grid points
    r = np.linspace(-2 * _CORE_RADIUS, 2 * _CORE_RADIUS, 4001)[:, None]
    hn = _op_norms(spec.W.hess(r))
    j = int(np.argmax(hn))
    bound_ok = math.isfinite(spec.C_K) and hn[j] <= spec.C_K + 1e-9
    gap = conv / 2.0 - spec.C_K
    strict_ok = gap > 0
    if bound_ok and strict_ok:
        return Verdict("pass", margin=float(gap),
                       note=f"sup|hess W| = {hn[j]:.12g} <= C_K = {spec.C_K:.12g}"
                            f" < lam/2 = {conv / 2.0:.12g}")
    if not bound_ok:
        return Verdict("fail", margin=float(spec.C_K - hn[j]), witness=r[j],
                       note=f"measured sup|hess W| = {hn[j]:.6g} above C_K")
    return Verdict("fail", margin=float(gap),
                   note=f"C_K = {spec.C_K:.6g} not below lam/2 = "
                        f"{conv / 2.0:.6g}")


def _check_a5(spec, pts, seed):
    rng = np.random.default_rng(seed)
    m = 16
    worst = math.inf
    worst_witness = None
    for _ in range(_N_RANDOM_MEASURES):
        idx = rng.choice(len(pts), size=m, replace=False)
        x = pts[idx]
        c = rng.standard_normal(m)
        c -= c.mean()  # zero total mass
        diff = x[:, None, :] - x[None, :, :]
        q = float(c @ spec.W.value(diff) @ c)
        if q < worst:
            worst = q
            worst_witness = {"points": x.copy(), "weights": c.copy(), "form": q}
    if worst < -_TOL:
        return Verdict("fail", margin=float(worst), witness=worst_witness,
                       note="interaction energy form negative on a zero-mass "
                            "signed measure")
    return Verdict("pass", margin=float(worst),
                   note=f"min form over {_N_RANDOM_MEASURES} random measures")
