"""Closed-form convergence-rate recipes and hypocoercivity weight matrices.

Each recipe is a pure function of its scalar inputs and returns a
TheoremConstants record echoing the inputs, the derived quantities (a, delta,
rate, diffusion threshold, H0 floor where applicable) and validity flags.
Log-Sobolev constants (rho_*) are user inputs, never computed here.

Weight matrices act blockwise per coordinate pair (x_j, v_j):

    M = [[e, f], [f, g]]

either with constant entries (M1) or modulated by the particle Hamiltonian
H(z) = |v|^2/2 + V(x) + H0 (M2):

    e = delta a^3 H^(-3 theta),  f = delta a^2 H^(-2 theta),
    g = 2 delta a H^(-theta)

so that e*g - f^2 = delta^2 a^4 H^(-4 theta) > 0 identically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_E = math.e


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


# the derived quantities of a TheoremConstants record, in report order
OUTPUT_NAMES = ("a", "delta", "rate", "sigma_star", "H0_min", "m2_prime",
                "m2_doubleprime")


@dataclass
class TheoremConstants:
    """Outputs of one constant recipe plus echoed inputs and validity flags."""

    tag: str                      # T13 | T14c1 | T14c2 | T15
    inputs: dict
    a: float | None = None
    delta: float | None = None
    rate: float | None = None
    sigma_star: float | None = None
    H0_min: float | None = None
    m2_prime: float | None = None
    m2_doubleprime: float | None = None
    flags: dict = field(default_factory=dict)

    def as_dict(self):
        out = {"tag": self.tag, "inputs": dict(self.inputs), "flags": dict(self.flags)}
        for k in OUTPUT_NAMES:
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out

    def table(self):
        """Aligned text table of the record."""
        rows = [("tag", self.tag)]
        rows += [(k, f"{v:.12g}" if isinstance(v, (int, float)) else str(v))
                 for k, v in self.inputs.items()]
        for k in OUTPUT_NAMES:
            v = getattr(self, k)
            if v is not None:
                rows.append((k, f"{v:.12g}"))
        rows += [(k, str(v)) for k, v in self.flags.items()]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def thm13_constants(gamma, sigma, C_K, C_V, rho_LS):
    """Rate recipe for the particle-system decay with bounded Hessians.

    a = 2 gamma / (C_K + C_V); delta = sigma / (2 (4 + 8 a gamma)^2);
    rate c = min(1.5 delta a^2, sigma/2) / (2 (1 + rho_LS)).
    The hypothesis C_K < 1 is recorded as a flag, never folded into outputs.
    """

    _require_positive(gamma=gamma, sigma=sigma, C_K=C_K, C_V=C_V, rho_LS=rho_LS)
    a = 2.0 * gamma / (C_K + C_V)
    delta = sigma / (2.0 * (4.0 + 8.0 * a * gamma) ** 2)
    c = (1.0 / (2.0 * (1.0 + rho_LS))) * min(1.5 * delta * a * a, sigma / 2.0)
    return TheoremConstants(
        tag="T13",
        inputs={"gamma": gamma, "sigma": sigma, "C_K": C_K, "C_V": C_V,
                "rho_LS": rho_LS},
        a=a, delta=delta, rate=c,
        flags={"C_K_below_one": C_K < 1.0})


def thm14_case1_constants(gamma, sigma, C_K, C_V, rho_ls, a_rule="min"):
    """Uniform-in-N rate recipe, bounded-Hessian case.

    The third candidate for `a` is stated two ways in the source material
    (gamma/(5120 e rho (C_K+1)^2) vs gamma/(6400 e rho C_K^2)); `a_rule`
    selects "remark", "proof", or the conservative "min" of both (default).
    """

    _require_positive(gamma=gamma, sigma=sigma, C_K=C_K, C_V=C_V, rho_ls=rho_ls)
    if a_rule not in ("remark", "proof", "min"):
        raise ValueError("a_rule must be 'remark', 'proof' or 'min'")
    b_remark = gamma / (5120.0 * _E * rho_ls * (C_K + 1.0) ** 2)
    b_proof = gamma / (6400.0 * _E * rho_ls * C_K**2)
    third = {"remark": b_remark, "proof": b_proof,
             "min": min(b_remark, b_proof)}[a_rule]
    a = min(2.0 * gamma / (C_K + C_V), 1.0 / (4.0 * C_K + 2.0), third)
    delta = sigma / (4.0 * (8.0 + a + 28.0 * a * gamma
                            + 32.0 * a * a * gamma * gamma))
    c1 = delta * a * a / (16.0 * (rho_ls + 1.0))
    sigma_star = max(
        160.0 * (10.0 + 28.0 * gamma + 32.0 * gamma**2) * rho_ls * _E
        / (a * a * gamma),
        3200.0 * rho_ls * _E * gamma) * C_K**2
    return TheoremConstants(
        tag="T14c1",
        inputs={"gamma": gamma, "sigma": sigma, "C_K": C_K, "C_V": C_V,
                "rho_ls": rho_ls, "a_rule": a_rule},
        a=a, delta=delta, rate=c1, sigma_star=sigma_star,
        flags={"sigma_above_threshold": sigma >= sigma_star})


def thm14_case2_constants(gamma, sigma, C_K, C_V_theta, theta, W_grad_sup,
                          rho_wls, d, meanfield_variant=False):
    """Uniform-in-N rate recipe, weighted (super-quadratic confinement) case.

    With meanfield_variant=True the sup-gradient norm of W is replaced by 1
    throughout (the convolution-smoothed setting); the rate formula itself is
    unchanged.
    """

    _require_positive(gamma=gamma, sigma=sigma, C_K=C_K, C_V_theta=C_V_theta,
                      theta=theta, rho_wls=rho_wls, d=d)
    if not meanfield_variant:
        _require_positive(W_grad_sup=W_grad_sup)
    w = 1.0 if meanfield_variant else W_grad_sup
    a = min(1.0 / (4.0 * C_K + 6.0 * theta + 2.0),
            gamma / (C_V_theta + C_K),
            gamma / (6400.0 * _E * rho_wls * (C_K + 1.0) ** 2))
    m2p = ((4.0 + 6.0 * gamma * a + 4.0 * a * theta * (2.0 * gamma + w)) ** 2
           + a * (6.0 * gamma + theta * (2.0 * gamma + w)))
    m2pp = ((4.0 + 6.0 * gamma + 4.0 * theta * (2.0 * gamma + w)) ** 2
            + (6.0 * gamma + theta * (2.0 * gamma + w)))
    delta = 3.0 * sigma / (8.0 + 32.0 * C_K + m2p)
    c2 = delta * a * a / (16.0 * (rho_wls + 1.0))
    sigma_star = max(800.0 * (40.0 + m2pp) * rho_wls * _E / (a * a * gamma),
                     3200.0 * rho_wls * _E * gamma) * max(C_K**2, C_K**3)
    H0_min = max(sigma * (d + 3.0 * theta + 1.0) / gamma,
                 (3.0 * theta * a * (2.0 * gamma + w)) ** (1.0 / theta),
                 1.0,
                 (8.0 * theta * sigma) ** (1.0 / (4.0 * theta)),
                 (2.0 * theta * sigma) ** (1.0 / (3.0 * theta)))
    return TheoremConstants(
        tag="T14c2",
        inputs={"gamma": gamma, "sigma": sigma, "C_K": C_K,
                "C_V_theta": C_V_theta, "theta": theta,
                "W_grad_sup": W_grad_sup, "rho_wls": rho_wls, "d": d,
                "meanfield_variant": meanfield_variant},
        a=a, delta=delta, rate=c2, sigma_star=sigma_star, H0_min=H0_min,
        m2_prime=m2p, m2_doubleprime=m2pp,
        flags={"sigma_above_threshold": sigma >= sigma_star})


def thm15_bound(k, N, t, rate, C_front, C_over_N):
    """Propagation-of-chaos envelope C_front * k * exp(-rate t) + C_over_N * k/N."""

    if k > N:
        raise ValueError("marginal order k cannot exceed N")
    if min(rate, C_front, C_over_N) < 0:
        raise ValueError("rate and prefactors must be nonnegative")
    return C_front * k * math.exp(-rate * t) + C_over_N * k / N


@dataclass
class WeightMatrix:
    """Blockwise positive-definite weight for the modulated Fisher information.

    kind="M1_constant": entries (delta a^3, delta a^2, 2 delta a).
    kind="M2_hamiltonian_weighted": the same entries damped by powers of
    H(z) = |v|^2/2 + V(x) + H0; requires theta > 0, H0 >= 1 and V.
    """

    kind: str
    delta: float
    a: float
    theta: float = 0.0
    H0: float = 0.0
    potential: object = None    # PotentialSpec supplying V for M2

    def hamiltonian(self, x, v):
        """H(z) at scalar-coordinate phase points; x, v broadcast together."""

        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        vx = self.potential.V.value(x[..., None])
        return 0.5 * v * v + vx + self.H0

    def blocks(self, x, v):
        """Entries (e, f, g) of the 2x2 block at phase point(s) (x, v)."""

        e0 = self.delta * self.a**3
        f0 = self.delta * self.a**2
        g0 = 2.0 * self.delta * self.a
        if self.kind == "M1_constant":
            one = np.ones(np.broadcast(np.asarray(x), np.asarray(v)).shape)
            return e0 * one, f0 * one, g0 * one
        h = self.hamiltonian(x, v)
        if np.any(h <= 0):
            bad = np.argwhere(np.asarray(h) <= 0)
            raise ValueError(f"H(z) <= 0 encountered (H0 floor violated) at "
                             f"index {bad[0].tolist()}")
        return (e0 * h ** (-3.0 * self.theta),
                f0 * h ** (-2.0 * self.theta),
                g0 * h ** (-self.theta))

    def determinant_identity(self, x, v):
        """delta^2 a^4 H^(-4 theta), the exact value of e*g - f^2."""

        if self.kind == "M1_constant":
            return self.delta**2 * self.a**4
        return self.delta**2 * self.a**4 * self.hamiltonian(x, v) ** (-4.0 * self.theta)


def build_weight_matrix(kind, delta, a, theta=0.0, H0=0.0, spec=None):
    """Construct an M1 or M2 weight; validates positivity preconditions."""

    _require_positive(delta=delta, a=a)
    if kind == "M1_constant":
        return WeightMatrix(kind=kind, delta=delta, a=a)
    if kind == "M2_hamiltonian_weighted":
        _require_positive(theta=theta)
        if H0 < 1.0:
            raise ValueError("M2 requires H0 >= 1")
        if spec is None:
            raise ValueError("M2 requires a potential spec for V")
        return WeightMatrix(kind=kind, delta=delta, a=a, theta=theta, H0=H0,
                            potential=spec)
    raise ValueError(f"unknown weight kind {kind!r}")
