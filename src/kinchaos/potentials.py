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
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np


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

    def _grad_hess(self, x, out=None):
        """(grad(x), hess(x)) in one call; radial fields share the norm and
        the radial derivatives between the two and evaluate into the scratch
        rows `out` (RadialField._grad_hess)."""

        return self.grad(x), self.hess(x)

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


class _QuadraticForm(Field):
    """(c/2) |x|^2, c the attribute that `_coefficient` names; it is read at
    each call, so a coefficient changed in place is seen by the next one."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * getattr(self, self._coefficient) * np.sum(x * x, axis=-1)

    def grad(self, x):
        return getattr(self, self._coefficient) * np.asarray(x, dtype=float)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        eye = getattr(self, self._coefficient) * np.eye(d)
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    def params(self):
        return {self._coefficient: getattr(self, self._coefficient)}


class Quadratic(_QuadraticForm):
    """V(x) = (curvature/2) |x|^2."""

    family = "quadratic"
    roles = ("V",)
    _coefficient = "curvature"

    def __init__(self, curvature=1.0):
        if curvature <= 0:
            raise ValueError("quadratic: curvature must be positive")
        self.curvature = float(curvature)

    def constants(self):
        c = self.curvature
        return {"lam": c / 2.0, "M_lb": 0.0, "C_V": c, "theta": 0.0,
                "C_V_theta": c}


class RadialField(Field):
    """Potential depending on s = |x| only.

    Subclasses provide _v(s) and _w12(t, out) = (W'(s)/s, W''(s)) as
    functions of t = s² = |x|², each formula written once; the gradient is
    (W'/s) x and the Hessian splits into the radial eigenvalue W'' and the
    tangential eigenvalue W'/s.  _w12 takes the squared radius because the
    Coulomb power form at k = 2 needs no more; the other families take
    s = sqrt(t), the bits of |x|.

    Every _w12 must give w2 == w1 at s = 0 (W''(0) = lim W'(s)/s, bit for
    bit): the one-dimensional Hessian relies on it in place of a mask.

    The error terms pass `out`, a (3, n) float array with n at least the
    entries of x, to _grad_hess in d = 1: row 0 takes |x|², then W''
    in place over it (its last use of |x|²), then the Hessian; row 1 W'/s;
    row 2 the scratch of _w12, then the gradient.  So a panel forms no new
    array of its size.  A _w12 may leave out alone and return fresh arrays,
    as all but the Coulomb power form at k = 2 do.  The arithmetic is the
    same with and without `out`, and so are the bits.  In d >= 2 the
    Hessian still needs |x|² after W'' is written, so `out` is refused
    there with a ValueError.
    """

    def _v(self, s):
        raise NotImplementedError

    def _w12(self, t, out=None):
        raise NotImplementedError

    @staticmethod
    def _sq_norm(x, out=None):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] == 1:
            # a sum over one entry returns that entry: the same bits
            return np.square(x[..., 0], out=out)
        return np.sum(x**2, axis=-1, out=out)

    def _norm(self, x):
        return np.sqrt(self._sq_norm(x))

    def _radial(self, x, out):
        """|x|², W'/s and W'' of x.  Given `out`, |x|² goes into row 0,
        W'/s into row 1 and _w12's scratch into row 2, and W'' over |x|²,
        so the |x|² returned holds W'' when _w12 writes into `out`."""

        if out is None:
            t = self._sq_norm(x)
            return (t, *self._w12(t))
        t, w1, scratch = (_view(row, x.shape[:-1]) for row in out)
        self._sq_norm(x, out=t)
        return (t, *self._w12(t, out=(w1, t, scratch)))

    def value(self, x):
        return self._v(self._norm(x))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self._radial(x, None)[1][..., None] * x

    def hess(self, x):
        return self._grad_hess(x)[1]

    def _grad_hess(self, x, out=None):
        x = np.asarray(x, dtype=float)
        if out is not None and x.shape[-1] != 1:
            raise ValueError("_grad_hess evaluates into `out` in d = 1 only")
        t, w1, w2 = self._radial(x, out)
        return (np.multiply(w1[..., None], x, out=_view(out, x.shape, 2)),
                self._radial_hess(x, t, w1, w2,
                                  out=_view(out, x.shape[:-1], 0)))

    @staticmethod
    def _radial_hess(x, t, w1, w2, out=None):
        """The Hessian from |x|², W'/s and W''; in d = 1 it is evaluated
        into `out` when given, an array of x.shape[:-1] (w2 may be it)."""

        d = x.shape[-1]
        if d == 1:
            # u u^T = 1 exactly for s > 0 whenever x² is a normal float,
            # and every family's _w12 gives w2 == w1 at s = 0, so w2 - w1
            # is the 0 that the general formula below puts there: the same
            # bits, without its unit vectors, outer products and mask
            aniso = np.subtract(w2, w1, out=out)
            return np.add(aniso, w1, out=out)[..., None, None]
        s = np.sqrt(t)
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

    def _w12(self, t, out=None):
        amp, k = self.amp, self.k
        p = np.sqrt(t) ** (k - 2.0)
        return amp * k * p, amp * k * (k - 1.0) * p

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

    def _w12(self, t, out=None):
        a, k = self.a, self.k
        s = np.sqrt(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            p, e = s ** (k - 2.0), np.exp(a * s**k)
            w1 = a * k * p * e
            w2 = (a * a * k * k * s ** (2 * k - 2.0)
                  + a * k * (k - 1.0) * p) * e
        return np.where(s > 0, w1, 0.0), np.where(s > 0, w2, 0.0)

    def params(self):
        return {"a": self.a, "k": self.k}

    def constants(self):
        a, k = self.a, self.k

        def weighted(s):  # V^(-1) |hess V|
            return np.abs(a**2 * k**2 * s ** (2 * k - 2)
                          + a * k * (k - 1) * s ** (k - 2))

        # weighted Hessian sup away from the (non-C^2) origin, s >= 1;
        # lam=1 works since the exponential dominates
        return {"lam": 1.0, "M_lb": _exp_power_gap_sup(a, k),
                "C_V": math.inf, "theta": 0.5,
                "C_V_theta": _sup_on_net(weighted,
                                         np.geomspace(1.0, 1e4, 4001))}


class HarmonicW(_QuadraticForm):
    """W(x) = (L_W/2) |x|^2; Hessian identically L_W * I and W(0) = 0."""

    family = "harmonic_W"
    roles = ("W",)
    _coefficient = "L_W"

    def __init__(self, L_W=0.25):
        if L_W < 0:
            raise ValueError("harmonic_W: L_W must be nonnegative")
        self.L_W = float(L_W)

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

    def _w12(self, t, out=None):
        # the shared subexpressions evaluated once: s**k, s**k + b**k and
        # -a s**(k-2), or arctan(u), r0² + s² and s³
        a = self.a
        if self.form == "power" and self.k == 2.0:
            # one root instead of two powers: with inv = 1/(s² + b²),
            # W'/s = -a inv^(3/2) and W'' = W'/s (b² - 2s²) inv
            # = W'/s (1 - 3 s² inv), whose factor is exactly 1 at s = 0;
            # evaluated in place into out (w1, w2, scratch) or fresh rows;
            # w2 may be t itself, whose last use is t * inv
            if out is None:
                out = np.empty((3,) + np.shape(t))
            w1, w2, inv = (row[...] for row in out)
            np.add(t, self.b**2, out=inv)
            np.divide(1.0, inv, out=inv)
            np.sqrt(inv, out=w1)
            w1 *= inv
            w1 *= -a
            np.multiply(t, inv, out=w2)
            w2 *= -3.0
            w2 += 1.0
            w2 *= w1
            return w1, w2
        s = np.sqrt(t)
        if self.form == "power":
            k, bk = self.k, self.b**self.k
            sk = s**k
            lead = -a * s ** (k - 2.0)
            base = sk + bk
            return (lead * base ** (-(k + 1.0) / k),
                    lead * (bk * (k - 1.0) - 2 * sk)
                    * base ** (-(2 * k + 1.0) / k))
        r0 = self.r0
        u = s / r0
        small = u < self._SERIES_CUT
        us = np.where(small, u, 1.0)
        safe = np.where(small, 1.0, s)
        atan, q, cube = np.arctan(u), r0**2 + safe**2, safe**3
        w1 = np.where(
            small, (a / r0**3) * (-2.0 / 3 + 4 * us**2 / 5 - 6 * us**4 / 7),
            a * (r0 * safe - q * atan) / (cube * q))
        w2 = np.where(
            small, (a / r0**3) * (-2.0 / 3 + 12 * us**2 / 5 - 30 * us**4 / 7),
            2 * a * (-(r0**3) * safe - 2 * r0 * cube + q**2 * atan)
            / (cube * q**2))
        return w1, w2

    def params(self):
        p = {"a": self.a, "form": self.form}
        if self.form == "power":
            p.update(b=self.b, k=self.k)
        else:
            p.update(r0=self.r0)
        return p

    def constants(self):
        """sup |hess W| and sup |grad W|, refused (ValueError) unless both
        evaluate to finite floats: a scale so small that a / b³ overflows,
        or a net whose powers overflow, gives no bound to declare."""

        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                sups = self._sups()
            if all(map(math.isfinite, sups.values())):
                return sups
        except ArithmeticError:  # ZeroDivision-, Overflow-, FloatingPoint-
            pass
        at = ", ".join(f"{name} = {value!r}"
                       for name, value in self.params().items())
        raise ValueError(f"mollified_coulomb: C_K and W_grad_sup do not "
                         f"evaluate to finite floats at {at}")

    def _sups(self):
        # the Hessian's radial and tangential eigenvalues are W'' and W'/s
        a, b = self.a, self.b
        if self.form == "power" and self.k == 2.0:
            # |W'/s| = a (s² + b²)^(-3/2) peaks at s = 0, where |W''| equals
            # it and elsewhere stays below it; |W'| peaks at s = b/sqrt(2)
            return {"C_K": a / b**3,
                    "W_grad_sup": 2 * a / (3 * math.sqrt(3) * b**2)}
        scale = b if self.form == "power" else self.r0
        s = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 4001) * scale])

        def w1(s):  # |W'/s|
            return np.abs(self._w12(s * s)[0])

        def w2(s):  # |W''|
            return np.abs(self._w12(s * s)[1])

        return {"C_K": max(_sup_on_net(w1, s), _sup_on_net(w2, s)),
                "W_grad_sup": _sup_on_net(lambda s: w1(s) * s, s)}


def _sup_on_net(fn, s):
    """An upper bound of sup fn >= 0: its maximum on the sorted net s,
    refined twice on 1001 points between the net neighbours of the
    maximiser (each pass brings a smooth peak a thousandfold closer), then
    rounded up by 1e-12 of itself."""

    best = 0.0
    for _ in range(3):
        vals = fn(s)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        s = np.linspace(s[max(j - 1, 0)], s[min(j + 1, s.size - 1)], 1001)
    return best * (1.0 + 1e-12)


def _exp_power_gap_sup(a, k):
    """max(0, sup_s s² - exp(a s^k)), rounded up: M_lb of exp_power at lam=1.

    With u = a s^k, the derivative has the sign of -g(u), where
    g(u) = u - ((2 - k)/k) log(u/a) - log(2/(a k)) is convex with its least
    value at u* = (2 - k)/k.  So the gap falls from s = 0, rises where g < 0
    and falls again past the larger root u2 of g, its one maximum, where
    exp(u2) = s² 2/(k u2): the gap is s² (1 - 2/(k u2)).  u2 is bisected to
    the last bit; the bound adds 1e-9 s² for the rounding of s² and of V
    near s, and is inf when s² overflows.
    """

    log_a, c = math.log(a), (2.0 - k) / k

    def g(u):
        return u - c * (math.log(u) - log_a) - math.log(2.0 / k) + log_a

    lo = c
    if g(lo) >= 0:
        return 0.0  # the gap only falls
    hi = 2.0 * lo
    while g(hi) < 0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    log_s2 = 2.0 / k * (math.log(hi) - log_a)
    if log_s2 > 700.0:
        return math.inf
    s2 = math.exp(log_s2)
    gap = s2 * (1.0 - 2.0 / (k * hi))
    return gap + 1e-9 * s2 if gap > 0 else 0.0


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
            # the declared constants, every field after V, W and d
            "constants": {f.name: getattr(self, f.name)
                          for f in fields(self)[3:]},
        }


_FAMILIES = {cls.family: cls for cls in (
    Quadratic, PowerLaw, ExpPower, HarmonicW, MollifiedCoulomb, Zero)}

_SIDES = {"V": "confinement V", "W": "interaction W"}


def _build_field(family, params, d, role):
    """One builtin field from validated parameters, on a side (`role`) that
    the family declares."""

    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown potential family {family!r}")
    cls, params = _FAMILIES[family], params or {}
    if role not in cls.roles:
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
        if numeric and not math.isfinite(value):
            raise ValueError(f"{family}: parameter {name} must be finite, "
                             f"got {value!r}")
    if cls is MollifiedCoulomb and d > 3:
        raise ValueError("mollified_coulomb: supported for d <= 3 only")
    return cls(**params)


def make_system(v_family, v_params=None, w_family="zero", w_params=None,
                d=1):
    """Combine a confining family and an interaction family into one spec.

    A family or parameter that does not build raises ValueError, whose
    `side` attribute is the field at fault, "V" or "W"; a family given on a
    side it does not declare is such an error and names it.
    """

    fields, constants = [], {}
    for side, family, params in (("V", v_family, v_params),
                                 ("W", w_family, w_params)):
        try:
            fields.append(_build_field(family, params, d, side))
            constants.update(fields[-1].constants())
        except ValueError as exc:
            exc.side = side
            raise
    V, W = fields
    return PotentialSpec(V=V, W=W, d=d, **constants)


def _panel_height(N, d):
    """Rows per pair panel: 2**14 // (N*d), a function of (N, d) alone."""

    return max(1, 2**14 // (N * d))


def _panel_entries(shape):
    """Entries of the first, and largest, pair panel of an (..., N, d)
    array: the size of a buffer that holds any of its panels."""

    *stack, N, d = shape
    return math.prod(stack) * min(_panel_height(N, d), N) * N * d


def _pair_entries(N, d):
    """Pair entries that pair_panels evaluates for one (N, d) array: the
    N(N-1)/2 pairs i < j plus h(h+1)/2 per panel of h rows, its square's
    pairs i > j and diagonal."""

    height = _panel_height(N, d)
    return N * (N - 1) // 2 + sum(
        h * (h + 1) // 2 for h in (min(height, N - start)
                                   for start in range(0, N, height)))


def _view(buf, shape, row=None):
    """The leading entries of a flat buffer, or of row `row` of a 2-D one,
    as a C-contiguous array of `shape`; None without a buffer."""

    if buf is None:
        return None
    if row is not None:
        buf = buf[row]
    return buf[:math.prod(shape)].reshape(shape)


def pair_panels(X, out=None):
    """Upper pair panels of the differences x_i - x_j of an (..., N, d) array.

    Yields (rows, diff, self_pairs): the slice a..e-1 of i covered by the
    panel, the (..., e - a, N - a, d) differences of those rows against the
    columns j = a..N-1, and the index of the i == j entries in the two axes
    of diff after the leading stack axes.  Every unordered pair i < j lies
    in exactly one panel; only the (e - a)-square at the panel's left edge
    holds both orders and the diagonal.  A pair sum adds a panel's row sums
    to rows a..e-1 and its column sums beyond that square,
    diff[..., e - a:, :], to rows e..N-1, with the sign the kernel's parity
    gives, so W must be even.  The panel height, _panel_height(N, d), fixes
    the summation order of every result, the same for each slice of a stack
    as for the slice alone; panels of about 2**14 pair entries (128 KiB)
    keep the temporaries in cache.

    Each panel's differences are a fresh array, or, given `out`, a flat
    float buffer of at least _panel_entries(X.shape) entries, its leading
    entries: then a panel holds until the next is drawn, and the error
    terms reuse one buffer for all of them instead of faulting in new pages.
    """

    *stack, N, d = X.shape
    height = _panel_height(N, d)
    lead = (slice(None),) * len(stack)
    for start in range(0, N, height):
        stop = min(start + height, N)
        square = np.arange(stop - start)
        shape = (*stack, stop - start, N - start, d)
        yield (slice(start, stop),
               np.subtract(X[..., start:stop, None, :],
                           X[..., None, start:, :], out=_view(out, shape)),
               lead + (square, square))


def _harmonic_L_W(W):
    """L_W when W(x) = (L_W/2) |x|^2, a harmonic W or W = 0 (L_W = 0),
    else None: the one test for a W whose N-body sums reduce to moments and
    whose Gibbs law has a Gaussian closed form."""

    if isinstance(W, HarmonicW):
        return W.L_W
    return 0.0 if isinstance(W, Zero) else None


def _centred(X):
    """The rows of an (N, d) array minus their mean, in two passes: the
    second removes the rounding of the first mean, so far from the origin
    the result keeps the accuracy of the differences x_i - x_j.  Each mean
    is the column sum over N, the bits of X.mean(axis=0) without its
    overhead."""

    N = X.shape[0]
    c = X - X.sum(axis=0) / N
    return c - c.sum(axis=0) / N


def pairwise_interaction_energy(spec, X):
    """(1/2N) sum_{i != j} W(x_i - x_j).

    A harmonic or zero W sums by moments in O(N): for W(x) = (L_W/2)|x|^2
    the sum is sum_i W(x_i - xbar), and no pair is formed.  Any other W is
    summed over pair_panels: W(x_j - x_i) = W(x_i - x_j), so each unordered
    pair is evaluated once; the N row sums are summed last.
    """

    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if N < 2:
        return 0.0
    if _harmonic_L_W(spec.W) is not None:
        return float(np.sum(spec.W.value(_centred(X))))
    row_sums = np.zeros(N)
    for rows, diff, self_pairs in pair_panels(X):
        w = spec.W.value(diff)
        w[self_pairs] = 0.0
        row_sums[rows] += w.sum(axis=1)
        row_sums[rows.stop:] += w[:, rows.stop - rows.start:].sum(axis=0)
    return float(np.sum(row_sums)) / (2.0 * N)


# ---------------------------------------------------------------------------
# assumption checking


@dataclass
class Verdict:
    """One checked claim, kept by name in a report: a recipe's `measured`
    against its `threshold`, or an assumption screen's status against pass."""

    status: str                 # "pass" | "fail" | "not-checked"
    measured: object
    threshold: object
    detail: str = ""
    margin: float | None = None
    witness: object = None      # a fail's net point or signed measure

    @property
    def passed(self):
        return self.status == "pass"


def _screen(status, margin=None, witness=None, note=""):
    return Verdict(status, status, "pass", note, margin, witness)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


@dataclass
class AssumptionReport:
    verdicts: dict
    theta: float
    seed: int
    notes: list = field(default_factory=list)

    def status(self, key):
        return self.verdicts[key].status

    def as_dict(self):
        # plain JSON values: the witness arrays as lists
        return json.loads(json.dumps({
            "theta": self.theta, "seed": self.seed, "notes": self.notes,
            "verdicts": {k: {"status": v.status, "margin": v.margin,
                             "witness": v.witness, "note": v.detail}
                         for k, v in self.verdicts.items()}},
            default=_json_default))


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


@np.errstate(all="ignore")
def check_assumptions(spec, *, theta=None, seed=0):
    """Numerically screen the five structural assumptions (d = 1).

    Returns an AssumptionReport whose fail verdicts carry concrete witnesses
    (a grid point, or a signed measure for the interaction-convexity check).
    The quadratic-lower-bound drift variant is reported not-checked.  The
    fields are evaluated in IEEE arithmetic, numpy's warnings off: a screen
    that no net point fails, but whose screened quantity is undefined at
    one (a term overflowed), is not-checked (_undefined_at).
    """

    if spec.d != 1:
        raise ValueError(f"check_assumptions screens d = 1 only, got d = "
                         f"{spec.d}")
    pts = np.linspace(-_CORE_RADIUS, _CORE_RADIUS, _N_CORE)[:, None]
    theta = spec.theta if theta is None else float(theta)
    tail_s = np.geomspace(_CORE_RADIUS, _TAIL_RADIUS, _N_TAIL)
    tail = np.concatenate([tail_s, -tail_s])[:, None]
    pool = np.concatenate([pts, tail])
    verdicts = {}

    # A1: quadratic lower bound V >= lam |x|^2 - M, on both nets
    gap = spec.V.value(pool) - spec.lam * pool[:, 0]**2 + spec.M_lb
    undefined = np.isnan(gap)
    gap = np.where(undefined, np.inf, gap)
    i = int(np.argmin(gap))
    if gap[i] >= -_TOL and undefined.any():
        verdicts["A1"] = _undefined_at("V - lam |x|^2 + M_lb", pool,
                                       undefined)
    else:
        verdicts["A1"] = _screen(
            "pass" if gap[i] >= -_TOL else "fail",
            margin=float(gap[i]),
            witness=None if gap[i] >= -_TOL else pool[i],
            note="drift form of the lower bound: not-checked")

    # A2: bounded Hessian of V
    verdicts["A2"] = _bound_screen("C_V", spec.C_V, "sup|hess V|",
                                   _op_norms(spec.V.hess(pool)), pool)

    # A3: weighted Hessian bound plus the two tail conditions
    verdicts["A3"] = _check_a3(spec, pts, theta, tail)

    # A4: bounded interaction Hessian and C_K < lam/2
    verdicts["A4"] = _check_a4(spec, pts)

    # A5: interaction-energy convexity on random zero-mass signed measures
    verdicts["A5"] = _check_a5(spec, pts, seed)

    return AssumptionReport(verdicts=verdicts, theta=theta, seed=seed)


def _undefined_at(what, net, undefined):
    """The not-checked screen of `what`, undefined in floating point (NaN,
    or a term that overflowed) at the net points where `undefined` is set;
    the first of them is the witness."""

    i = int(np.argmax(undefined))
    return _screen("not-checked", witness=net[i],
                   note=f"{what} undefined in floating point at |x| = "
                        f"{np.linalg.norm(net[i]):.3g}")


def _bound_screen(name, bound, what, vals, net):
    """The screen of a declared bound: `what`, measured as `vals` at the
    points `net`, against the constant `name` = `bound`.  It passes when
    the sup is at most the bound plus a slack of max(1e-9, 1e-9 bound), the
    rounding of a bound evaluated in closed form, with margin bound - sup;
    it fails, witnessed by the argmax, above that, and always when the
    bound is not finite, with margin -inf.  A NaN in `vals` is undefined:
    the sup is taken over the other points, and a screen that would pass
    is not-checked.  The one rule of A2, of A3's weighted Hessian and of
    A4's C_K."""

    undefined = np.isnan(vals)
    vals = np.where(undefined, -np.inf, vals)
    j = int(np.argmax(vals))
    sup = float(vals[j])
    if not math.isfinite(bound):
        return _screen("fail", margin=-math.inf, witness=net[j],
                       note=f"declared {name} = {bound} bounds nothing; "
                            f"measured {what} = {sup:.6g} at |x| = "
                            f"{np.linalg.norm(net[j]):.3g}")
    if sup <= bound + max(1e-9, 1e-9 * bound):
        if undefined.any():
            return _undefined_at(what, net, undefined)
        return _screen("pass", margin=bound - sup,
                       note=f"measured {what} = {sup:.12g} <= {name} = "
                            f"{bound:.12g}")
    return _screen("fail", margin=bound - sup, witness=net[j],
                   note=f"measured {what} = {sup:.6g} above {name} = "
                        f"{bound:.12g}")


def _check_a3(spec, pts, theta, tail):
    # weighted sup |V^(-2 theta) hess V| excluding the origin where V may vanish
    pool = np.concatenate([pts, tail])
    pool = pool[np.linalg.norm(pool, axis=-1) > 1e-6]
    vals = spec.V.value(pool)
    positive = vals > 0
    if not np.any(positive):
        return _screen("not-checked", note="V <= 0 on the whole net, so "
                                           "V^(-2 theta) is undefined")
    pool_w, vals = pool[positive], vals[positive]
    weights, norms = vals ** (-2 * theta), _op_norms(spec.V.hess(pool_w))
    # an overflowed factor leaves the weighted value undefined
    weighted = np.where(np.isfinite(weights) & np.isfinite(norms),
                        weights * norms, np.nan)
    weight = _bound_screen("C_V_theta", spec.C_V_theta,
                           "sup V^(-2 theta) |hess V|", weighted, pool_w)
    if weight.status == "fail":
        return weight

    # tail conditions on the outer half of the tail net
    s = np.abs(tail[:, 0])
    keep = s >= np.median(s)
    tpts = tail[keep]
    g = spec.V.grad(tpts)
    h = spec.V.hess(tpts)
    lap = np.trace(h, axis1=-2, axis2=-1)
    g2 = np.sum(g * g, axis=-1)
    denom = np.maximum(spec.V.value(tpts), 1e-300) ** (2 * theta + 1)
    good = ~(g2 == 0)  # a NaN |grad V|^2 stays, as undefined
    if not np.any(good):
        return _screen("not-checked", note="vanishing gradient on tail net")
    tpts, lap, g2, denom = tpts[good], lap[good], g2[good], denom[good]
    # a ratio with a term that is not a finite float is undefined
    undefined = ~(np.isfinite(lap) & np.isfinite(g2) & np.isfinite(denom))
    r1 = np.where(undefined, -np.inf, lap / g2)
    kappa1 = float(np.max(r1))
    if not kappa1 < 1.0:  # condition requires kappa_1 in (0, 1)
        return _screen("fail", margin=float(1.0 - kappa1),
                       witness=tpts[int(np.argmax(r1))],
                       note=f"laplacian/|grad|^2 = {kappa1:.4g} not < 1 on "
                            f"tail")
    r2 = np.where(undefined, np.inf, g2 / denom)
    kappa2 = float(np.min(r2))
    # kappa_2 must stay bounded away from zero: reject a decaying trend, which
    # only a net with no undefined point can show
    slope = math.nan
    if not undefined.any():
        logs = np.log(np.abs(tpts[:, 0]))
        slope = np.polyfit(logs, np.log(np.maximum(r2, 1e-300)), 1)[0]
    if not (kappa2 > _TOL and (undefined.any() or slope >= -0.05)):
        return _screen("fail", margin=float(kappa2),
                       witness=tpts[int(np.argmin(r2))],
                       note=f"|grad V|^2 / V^(2 theta + 1) decays on the "
                            f"tail (min {kappa2:.4g}, log-log slope "
                            f"{slope:.3g})")
    if weight.status == "not-checked":
        return weight
    if undefined.any():
        return _undefined_at("the tail ratios", tpts, undefined)
    return _screen("pass", margin=weight.margin,
                   note=f"kappa1={kappa1:.4g} kappa2={kappa2:.4g} "
                        f"tail slope={slope:.3g}")


def _check_a4(spec, pts):
    # the smallness comparison is against half the convexity modulus of V
    # (smallest Hessian eigenvalue over the net), not the quadratic-growth
    # constant of A1; for V = (c/2)|x|^2 that modulus is c
    eig = np.linalg.eigvalsh(spec.V.hess(pts))[:, 0]
    undefined = np.isnan(eig)
    conv = float(np.min(np.where(undefined, np.inf, eig)))
    # with no interaction there is no smallness condition to meet, even where
    # the modulus is 0 (power_k at the origin)
    if isinstance(spec.W, Zero):
        return _screen("pass", margin=conv / 2.0,
                       note="no interaction; bound vacuous")
    # displacement net: a dense line over every difference of two grid points
    r = np.linspace(-2 * _CORE_RADIUS, 2 * _CORE_RADIUS, 4001)[:, None]
    bound = _bound_screen("C_K", spec.C_K, "sup|hess W|",
                          _op_norms(spec.W.hess(r)), r)
    if not bound.passed:
        return bound
    gap = conv / 2.0 - spec.C_K
    if gap > 0 and undefined.any():
        return _undefined_at("the convexity modulus of V", pts, undefined)
    if gap > 0:
        return _screen("pass", margin=gap,
                       note=f"{bound.detail} < lam/2 = {conv / 2.0:.12g}")
    return _screen("fail", margin=gap,
                   note=f"C_K = {spec.C_K:.6g} not below lam/2 = "
                        f"{conv / 2.0:.6g}")


def _check_a5(spec, pts, seed):
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)  # as RngSpec
    m = 16
    worst = math.inf
    worst_witness = undefined = None
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
        if math.isnan(q) and undefined is None:
            undefined = {"points": x.copy(), "weights": c.copy(), "form": q}
    if worst < -_TOL:
        return _screen("fail", margin=float(worst), witness=worst_witness,
                       note="interaction energy form negative on a zero-mass "
                            "signed measure")
    if undefined is not None:
        return _screen("not-checked", witness=undefined,
                       note="interaction energy form undefined in floating "
                            "point on a zero-mass signed measure")
    return _screen("pass", margin=float(worst),
                   note=f"min form over {_N_RANDOM_MEASURES} random measures")
