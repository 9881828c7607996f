"""Potential families, the pair energy, and the structural assumption
checker."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinchaos.potentials import (Field, PotentialSpec, RadialField, Zero,
                                 check_assumptions, make_system, pair_panels,
                                 pairwise_interaction_energy)
from tests.conftest import quarter_linear_spec


def fd_gradient(fld, x, h):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fld.value((x + e)[None])[0] - fld.value((x - e)[None])[0]) / (2 * h)
    return g


def builtin_field(family, params, side, d=1):
    """The field of one builtin family, installed on `side` ("V" or "W")."""

    spec = (make_system(family, params, d=d) if side == "V"
            else make_system("zero", None, family, params, d=d))
    return getattr(spec, side)


def point_values(fld, x):
    """(value, gradient, Hessian) of a field at one point."""

    x = np.array([[x]])
    return fld.value(x)[0], fld.grad(x)[0], fld.hess(x)[0]


# --- families ----------------------------------------------------------------

def test_quadratic_point_values():
    spec = make_system("quadratic", {"curvature": 1.0})
    val, grad, hess = point_values(spec.V, 2.0)
    assert val == pytest.approx(2.0, abs=1e-14)
    assert grad[0] == pytest.approx(2.0, abs=1e-14)
    assert hess[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_harmonic_w_point_values():
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    val, grad, hess = point_values(spec.W, 2.0)
    assert val == pytest.approx(0.5, abs=1e-14)
    assert grad[0] == pytest.approx(0.5, abs=1e-14)
    assert hess[0, 0] == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("family, name, side", [
    ("quadratic", "curvature", "V"), ("harmonic_W", "L_W", "W")])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadratic_forms_evaluate_their_formulas(family, name, side, d):
    # (c/2)|x|^2, its gradient and its Hessian over any leading axes, bit for
    # bit; the coefficient is read at each call, so a change in place is
    # seen by the next one
    fld = builtin_field(family, {name: 1.5}, side, d)
    rng = np.random.default_rng(d)
    for shape in ((5, d), (2, 3, d)):
        x = rng.standard_normal(shape)
        for c in (1.5, 0.3, 1.5):
            setattr(fld, name, c)
            assert np.array_equal(fld.value(x),
                                  0.5 * c * np.sum(x * x, axis=-1))
            assert np.array_equal(fld.grad(x), c * x)
            assert np.array_equal(fld.hess(x), np.broadcast_to(
                c * np.eye(d), shape[:-1] + (d, d)))


def test_mollified_coulomb_at_origin():
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 1.0, "b": 1.0, "k": 2.0})
    val, grad, _ = point_values(spec.W, 0.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_power_k_theta():
    spec = make_system("power_k", {"k": 4.0})
    assert spec.theta == pytest.approx(0.25, abs=1e-14)


def test_exp_power_theta():
    spec = make_system("exp_power", {"a": 1.0, "k": 0.5})
    assert spec.theta == pytest.approx(0.5, abs=1e-14)


def test_exp_power_weight_bound_covers_its_sup():
    # at (a, k) = (1, 1/2), V^(-1) |hess V| peaks at 1/27, at s = 9/4; the
    # plain maximum of the net was 0.03703703212916862, below it
    spec = make_system("exp_power", {"a": 1.0, "k": 0.5})
    assert 1 / 27 <= spec.C_V_theta <= (1 + 1e-11) / 27


def test_zero_interaction_constants():
    spec = make_system("quadratic", None, "zero")
    assert spec.C_K == 0.0
    assert spec.W_grad_sup == 0.0


def test_mollified_coulomb_declared_curvature():
    # curvature magnitude peaks at the origin: |W''(0)| = a/b^3 for k=2
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    assert spec.C_K == pytest.approx(0.2, rel=0.05)
    assert spec.W_grad_sup > 0.0


# every family's W'/s and W'' are written once, in _w12; these finite
# differences of value (for the gradient) and of grad (for the Hessian) are
# the second spelling that catches a wrong one.  Radii lie in [lo, hi]:
# away from the origin, where exp_power is not differentiable
FD_CASES = [
    ("quadratic", {"curvature": 1.3}, "V", 1, 0.1, 2.5),
    ("power_k", {"k": 4.0}, "V", 1, 0.1, 2.5),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V", 1, 0.1, 2.5),
    ("power_k", {"k": 3.0, "amp": 0.5}, "V", 1, 0.1, 2.5),
    ("mollified_coulomb", {"a": 0.5, "b": 1.0, "k": 2.0}, "W", 1, 0.1, 3.0),
    ("mollified_coulomb", {"a": 0.5, "b": 0.8, "k": 2.5}, "W", 1, 0.1, 3.0),
    ("mollified_coulomb", {"a": 0.5, "b": 1.3, "k": 3.0}, "W", 1, 0.1, 3.0),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W", 1,
     0.1, 3.0),
    # both sides of the series cut at 1e-3 r0
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W", 1,
     2e-4, 2e-3),
    # the Hessian's tangential eigenvalue is W'/s
    ("mollified_coulomb", {"a": 0.5, "b": 1.0, "k": 2.5}, "W", 2, 0.1, 3.0),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V", 2, 0.1, 2.5),
]
FD_IDS = [f"{case[0]}-params{i}" for i, case in enumerate(FD_CASES)]


def fd_case(family, params, side, d, lo, hi, seed):
    """The field and 100 points with radii uniform in [lo, hi]."""

    gen = np.random.default_rng(seed)
    u = gen.standard_normal((100, d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return (builtin_field(family, params, side, d),
            u * gen.uniform(lo, hi, size=(100, 1)))


@pytest.mark.parametrize("family,params,side,d,lo,hi", FD_CASES,
                         ids=FD_IDS)
def test_gradient_matches_finite_differences(family, params, side, d, lo,
                                             hi):
    fld, pts = fd_case(family, params, side, d, lo, hi, 3)
    for x in pts:
        g = fld.grad(x[None])[0]
        fd = fd_gradient(fld, x, 1e-4 * np.linalg.norm(x))
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7 * np.abs(g).max())


@pytest.mark.parametrize("family,params,side,d,lo,hi", FD_CASES,
                         ids=FD_IDS)
def test_hessian_matches_finite_differences(family, params, side, d, lo,
                                            hi):
    fld, pts = fd_case(family, params, side, d, lo, hi, 4)
    for x in pts:
        hess = fld.hess(x[None])[0]
        h = 1e-4 * np.linalg.norm(x)
        fd = np.stack([(fld.grad((x + e)[None])[0]
                        - fld.grad((x - e)[None])[0]) / (2 * h)
                       for e in h * np.eye(d)], axis=-1)
        assert np.allclose(hess, fd, rtol=1e-5,
                           atol=1e-7 * np.abs(hess).max())


def general_radial_hess(fld, x):
    """RadialField.hess by its d-dimensional formula (unit vectors, outer
    products), the reference for the one-dimensional shortcut."""

    d = x.shape[-1]
    s = fld._norm(x)
    w1, w2 = fld._w12(np.sum(x**2, axis=-1))
    u = x / np.where(s > 0, s, 1.0)[..., None]
    outer = u[..., :, None] * u[..., None, :]
    aniso = np.where(s > 0, w2 - w1, 0.0)
    return aniso[..., None, None] * outer + w1[..., None, None] * np.eye(d)


@pytest.mark.parametrize("family,params,side", [
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W"),
    ("power_k", {"k": 4.0}, "V"),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V"),
])
def test_radial_hess_1d_equals_general_formula_bitwise(family, params, side):
    fld = builtin_field(family, params, side)
    gen = np.random.default_rng(11)
    x = gen.standard_normal(512) * 2.0
    x[7] = x[3]                         # a duplicated point
    x[100], x[101] = 0.0, -0.0          # signed zeros
    x[200] = 1e-300                     # x² underflows to 0: s = 0
    diff = (x[:, None] - x[None, :])[..., None]   # s = 0 on the diagonal
    diff[5, 6, 0] = -0.0
    fast = fld.hess(diff)
    ref = general_radial_hess(fld, diff)
    assert fast.shape == ref.shape == (512, 512, 1, 1)
    assert np.array_equal(fast.view(np.uint64), ref.view(np.uint64))


def awkward_pair_differences(d, cut):
    """Pair differences of 64 points in d dimensions, among them s = 0 (the
    diagonal and a duplicated point), signed zeros, subnormal entries, and
    radii just below, at and just above `cut`."""

    pts = np.random.default_rng(17 + d).standard_normal((64, d)) * 2.0
    pts[7] = pts[3]
    pts[10], pts[11] = 0.0, -0.0
    pts[12] = 5e-324
    pts[13] = 0.0
    pts[13, 0] = 1e-310
    pts[20:23] = 0.0
    pts[20:23, 0] = cut * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    diff = pts[:, None, :] - pts[None, :, :]
    diff[5, 6] = -0.0
    return diff


@pytest.mark.parametrize("family,params,side", [
    ("power_k", {"k": 4.0}, "V"),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V"),
    ("harmonic_W", {"L_W": 0.25}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 0.8, "k": 2.5}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 1.3, "k": 3.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W"),
], ids=["power_k", "exp_power", "harmonic", "coulomb_k2", "coulomb_k2.5",
        "coulomb_k3", "coulomb_arctan"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grad_hess_equals_grad_and_hess_bitwise(family, params, side, d):
    fld = builtin_field(family, params, side, d)
    # the arctan form switches to its series below |x| = 1e-3 r0
    diff = awkward_pair_differences(d, 1e-3 * params.get("r0", 1.0))
    grad, hess = fld._grad_hess(diff)
    for fused, alone in ((grad, fld.grad(diff)), (hess, fld.hess(diff))):
        assert fused.shape == alone.shape
        assert np.array_equal(fused.view(np.uint64), alone.view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


W_FAMILIES = [
    ("zero", None),
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
    ("mollified_coulomb", {"a": 0.5, "b": 0.8, "k": 2.0}),
    ("mollified_coulomb", {"a": 0.2, "b": 0.8, "k": 2.5}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.3, "k": 3.0}),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}),
]
W_FAMILY_IDS = ["zero", "harmonic", "coulomb_k2", "coulomb_k2_b0.8",
                "coulomb_k2.5", "coulomb_k3", "coulomb_arctan"]


@pytest.mark.parametrize("family,params", W_FAMILIES, ids=W_FAMILY_IDS)
def test_grad_hess_into_three_rows_equals_fresh_arrays_in_1d(family, params):
    # the error terms' scratch: |x|², then W'' over it, then the Hessian in
    # row 0, W'/s in row 1, _w12's scratch and then the gradient in row 2,
    # rows longer than the panel; the bits of grad and hess on fresh arrays,
    # whether or not the family's _w12 writes into the rows
    fld = builtin_field(family, params, "W")
    diff = awkward_pair_differences(1, 1e-3 * (params or {}).get("r0", 1.0))
    rows = np.full((3, diff.size + 7), np.nan)
    grad, hess = fld._grad_hess(diff, out=rows)
    for fused, alone in ((grad, fld.grad(diff)), (hess, fld.hess(diff))):
        assert fused.shape == alone.shape
        assert _bits(fused) == _bits(alone)
    if isinstance(fld, RadialField):
        assert np.shares_memory(grad, rows[2])
        assert np.shares_memory(hess, rows[0])


@pytest.mark.parametrize("family,params", W_FAMILIES, ids=W_FAMILY_IDS)
@pytest.mark.parametrize("d", [2, 3])
def test_grad_hess_refuses_scratch_rows_for_a_radial_w_beyond_1d(family,
                                                                 params, d):
    # the general Hessian reads |x|² after W'' has been written over it, so
    # a radial W refuses the rows in d >= 2; a field that is not radial
    # never writes into them and returns its fresh arrays
    fld = builtin_field(family, params, "W", d)
    diff = awkward_pair_differences(d, 1e-3 * (params or {}).get("r0", 1.0))
    rows = np.full((3, diff.size), np.nan)
    if isinstance(fld, RadialField):
        with pytest.raises(ValueError, match="in d = 1 only"):
            fld._grad_hess(diff, out=rows)
        return
    grad, hess = fld._grad_hess(diff, out=rows)
    assert _bits(grad) == _bits(fld.grad(diff))
    assert _bits(hess) == _bits(fld.hess(diff))
    assert np.all(np.isnan(rows))


RADIAL_FAMILIES = [
    ("power_k", {"k": 2.0}, "V"),
    ("power_k", {"k": 4.0}, "V"),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V"),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "b": 0.8, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "b": 1.3, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 0.8, "k": 2.5}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 1.3, "k": 3.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W"),
]


@pytest.mark.parametrize("family,params,side", RADIAL_FAMILIES,
                         ids=[f"{f}-params{i}" for i, (f, _, _)
                              in enumerate(RADIAL_FAMILIES)])
def test_radial_w2_equals_w1_at_the_origin(family, params, side):
    # the one-dimensional Hessian (w2 - w1) + w1 drops the general
    # formula's mask at s = 0, which holds only while every family gives
    # w2 == w1 there (W''(0) = lim W'(s)/s); b != 1 would show a factor
    # b² (1/b²) != 1 in the Coulomb power form
    fld = builtin_field(family, params, side)
    w1, w2 = fld._w12(np.zeros(3))
    assert _bits(np.subtract(w2, w1) + w1) == _bits(0.0 + w1)
    diff = awkward_pair_differences(1, 1e-3 * params.get("r0", 1.0))
    assert _bits(fld.hess(diff)) == _bits(general_radial_hess(fld, diff))
    # a single point of shape (1,): its W'/s and W'' are 0-d, and the
    # Hessian is the (1, 1) array of the general formula
    for x in (0.0, 0.3):
        one = fld.hess(np.array([x]))
        assert one.shape == (1, 1)
        assert _bits(one) == _bits(general_radial_hess(fld, np.array([[x]]))[0])
        assert fld.grad(np.array([x])).shape == (1,)


def coulomb_k2_by_powers(a, b, s):
    """W'/s and W'' of the power form at k = 2 by the generic powers:
    -a (s² + b²)^(-3/2) and -a (b² - 2s²) (s² + b²)^(-5/2)."""

    base = s**2 + b**2
    return -a * base**-1.5, -a * (b**2 - 2 * s**2) * base**-2.5


@pytest.mark.parametrize("a, b", [(0.2, 1.0), (0.5, 0.37), (1.3, 2.5)])
def test_coulomb_k2_one_root_agrees_with_the_powers(a, b):
    # the one-root kernel against the powers it replaces, from s = 0 over
    # eleven decades of s/b and at the zero of W'' (s = b / sqrt 2): W'/s
    # within 1e-15 relative (measured 5e-16), W'' within 2e-15 of its
    # largest magnitude (measured 7e-16), where it crosses zero
    fld = builtin_field("mollified_coulomb", {"a": a, "b": b, "k": 2.0},
                        "W")
    s = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 4001) * b,
                        [b / math.sqrt(2.0)]])
    w1, w2 = fld._w12(s * s)
    ref1, ref2 = coulomb_k2_by_powers(a, b, s)
    assert np.max(np.abs(w1 - ref1) / np.abs(ref1)) <= 1e-15
    assert np.max(np.abs(w2 - ref2)) <= 2e-15 * np.max(np.abs(ref2))
    # evaluated into scratch rows, the same arithmetic and the same bits
    rows = np.full((3, s.size), np.nan)
    got1, got2 = fld._w12(s * s, out=rows)
    assert _bits(got1) == _bits(w1) and _bits(got2) == _bits(w2)
    assert np.shares_memory(got1, rows) and np.shares_memory(got2, rows)


@pytest.mark.parametrize("k", [2.5, 3.0])
def test_coulomb_other_k_keep_the_powers_bitwise(k):
    # only k = 2 takes the one-root kernel; every other k keeps the
    # generic powers of s = sqrt(s²), bit for bit
    a, b = 0.5, 0.8
    fld = builtin_field("mollified_coulomb", {"a": a, "b": b, "k": k}, "W")
    s = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 513) * b])
    bk, sk = b**k, s**k
    lead, base = -a * s ** (k - 2.0), sk + bk
    want = (lead * base ** (-(k + 1.0) / k),
            lead * (bk * (k - 1.0) - 2 * sk) * base ** (-(2 * k + 1.0) / k))
    assert list(map(_bits, fld._w12(s * s))) == list(map(_bits, want))


# --- interaction kernel K = -grad W -------------------------------------------

def test_kernel_zero_w():
    spec = make_system("quadratic", None, "zero")
    assert np.all(-spec.W.grad(np.array([1.7])) == 0.0)


def test_kernel_harmonic_value():
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    k = -spec.W.grad(np.array([2.0]))
    assert k[0] == pytest.approx(-0.5, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50, allow_nan=False))
def test_kernel_antisymmetry(r):
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    plus = -spec.W.grad(np.array([r]))
    minus = -spec.W.grad(np.array([-r]))
    assert np.array_equal(plus, -minus)


# --- pair energy --------------------------------------------------------------

def test_pairwise_energy_single_particle(baseline_spec):
    assert pairwise_interaction_energy(baseline_spec, np.zeros((1, 1))) == 0.0


def test_pairwise_energy_hand_value(baseline_spec):
    # N = 2, x = (0, 2): (1/4)(W(2) + W(-2)) with W = 0.125 x^2
    X = np.array([[0.0], [2.0]])
    assert pairwise_interaction_energy(baseline_spec, X) == pytest.approx(
        0.25, abs=1e-14)


def _pairwise_energy_one_block(spec, X):
    # the whole N x N pair array at once: the unpanelled reference
    N = X.shape[0]
    w = spec.W.value(X[:, None, :] - X[None, :, :])
    w[np.arange(N), np.arange(N)] = 0.0
    return float(np.sum(w.sum(axis=1))) / (2.0 * N)


@pytest.mark.parametrize("d", [1, 2])
def test_pairwise_energy_exact_on_dyadic_inputs(d):
    # W = |x|^2/8 and positions on a 1/8 grid make every W value and partial
    # sum exact, so any summation order gives the same bits.  The custom W
    # keeps the sum on the pair panels.
    N = 300
    spec = quarter_linear_spec(d)
    X = np.random.default_rng(d).integers(-64, 64, (N, d)) / 8.0
    assert pairwise_interaction_energy(spec, X) \
        == _pairwise_energy_one_block(spec, X)


@pytest.mark.parametrize("w_family", ["harmonic_W", "zero"])
@pytest.mark.parametrize("d", [1, 2])
def test_pairwise_energy_moments_exact_on_dyadic_inputs(w_family, d):
    # N = 256 positions on a 1/8 grid: the mean is exact, so the moment sum
    # sum_i W(x_i - xbar) has the bits of the pair sum
    N = 256
    spec = make_system("quadratic", None, w_family, None, d=d)
    X = np.random.default_rng(d).integers(-64, 64, (N, d)) / 8.0
    assert pairwise_interaction_energy(spec, X) \
        == _pairwise_energy_one_block(spec, X)


@pytest.mark.parametrize("N, d", [(300, 1), (683, 1), (300, 2), (683, 2)])
def test_pairwise_energy_moments_far_from_the_origin(N, d):
    # positions about 1e3 from the origin, centred in two passes
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25}, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d)) + 1e3
    assert pairwise_interaction_energy(spec, X) == pytest.approx(
        _pairwise_energy_one_block(spec, X), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
])
@pytest.mark.parametrize("N, d", [(200, 1), (300, 2), (683, 2)])
def test_pairwise_energy_blocks_match_one_block(w_family, w_params, N, d):
    # 2**14 // (N d) rows per panel: 3, 12 and 63 panels, the last one short;
    # the panels sum in another order than the reference, to rounding level
    assert N % (2**14 // (N * d)) != 0
    spec = make_system("quadratic", None, w_family, w_params, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d))
    assert pairwise_interaction_energy(spec, X) == pytest.approx(
        _pairwise_energy_one_block(spec, X), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("stack", [(1,), (3,), (2, 3)])
@pytest.mark.parametrize("N, d", [(8, 1), (300, 1), (683, 1), (200, 2)])
def test_pair_panels_of_a_stack_are_the_panels_of_each_slice(stack, N, d):
    # a leading stack axis keeps the panel rows of one (N, d) slice, so each
    # slice of every panel holds the bits of that slice's own panel, and the
    # self-pair index marks its diagonal
    X = np.random.default_rng(N + d).standard_normal(stack + (N, d))
    stacked = list(pair_panels(X))
    for index in np.ndindex(*stack):
        alone = list(pair_panels(X[index]))
        assert len(stacked) == len(alone)
        for (rows, diff, self_pairs), (rows1, diff1, self1) in zip(stacked,
                                                                    alone):
            assert rows == rows1
            assert diff.shape == stack + diff1.shape
            assert diff[index].tobytes() == diff1.tobytes()
            mark = np.zeros(diff.shape[:-1], dtype=bool)
            mark[self_pairs] = True
            mark1 = np.zeros(diff1.shape[:-1], dtype=bool)
            mark1[self1] = True
            assert np.array_equal(mark[index], mark1)
            assert np.all(diff1[self1] == 0.0)
            assert mark1.sum() == rows.stop - rows.start


def test_dimension_is_an_int_checked_on_the_spec():
    spec = make_system("quadratic", None, "harmonic_W", None, d=3)
    assert spec.d == 3
    assert spec.describe()["domain"] == {"d": 3}
    with pytest.raises(ValueError, match="d must be >= 1"):
        make_system("quadratic", d=0)
    with pytest.raises(ValueError, match="d <= 3"):
        make_system("quadratic", None, "mollified_coulomb", None, d=4)


@pytest.mark.parametrize("v_family, w_family, named, side", [
    # the wrong side used to be filled with zero: V = W = 0 here
    ("harmonic_W", "quadratic", "harmonic_W", "confinement V"),
    ("mollified_coulomb", "harmonic_W", "mollified_coulomb", "confinement V"),
    ("quadratic", "power_k", "power_k", "interaction W"),
    ("quadratic", "exp_power", "exp_power", "interaction W"),
])
def test_make_system_rejects_a_family_on_the_wrong_side(v_family, w_family,
                                                       named, side):
    with pytest.raises(ValueError, match=f"^{named} cannot be the {side}") \
            as err:
        make_system(v_family, None, w_family, None)
    assert err.value.side == side[-1]   # the field at fault, "V" or "W"


def test_zero_stands_on_either_side():
    spec = make_system("zero", None, "zero")
    assert spec.V.family == spec.W.family == "zero"
    assert spec.describe()["constants"] == dict.fromkeys(
        ("lam", "M_lb", "C_V", "C_K", "theta", "C_V_theta", "W_grad_sup"),
        0.0)


def test_power_k_below_two_rejected():
    with pytest.raises(ValueError, match="k must be >= 2"):
        make_system("power_k", {"k": 1.5})


# --- assumption screening ---------------------------------------------------

def test_power4_assumption_pattern():
    # quartic well: tail condition holds at theta=1/4, Hessian is unbounded
    spec = make_system("power_k", {"k": 4.0})
    report = check_assumptions(spec)
    assert report.status("A1") == "pass"
    assert report.status("A2") == "fail"
    assert report.status("A3") == "pass"
    w = report.verdicts["A2"].witness
    assert w is not None and np.max(np.abs(w)) > 10.0


def test_harmonic_assumption_pattern(baseline_spec):
    report = check_assumptions(baseline_spec)
    assert report.status("A1") == "pass"
    assert report.status("A2") == "pass"
    assert report.status("A4") == "pass"
    assert report.verdicts["A4"].margin == pytest.approx(0.25, abs=1e-12)
    assert report.status("A5") == "fail"


def test_harmonic_a5_witness_matches_closed_form(baseline_spec):
    # for W = (L/2) r^2 the form on a zero-mass measure is -L * (sum c_i x_i)^2
    report = check_assumptions(baseline_spec)
    w = report.verdicts["A5"].witness
    x = np.asarray(w["points"])[:, 0]
    c = np.asarray(w["weights"])
    closed = -0.25 * float(c @ x) ** 2
    assert w["form"] == pytest.approx(closed, rel=1e-10)
    assert w["form"] < 0.0


def test_zero_interaction_a4_a5_vacuous():
    spec = make_system("quadratic", None, "zero")
    report = check_assumptions(spec)
    assert report.status("A4") == "pass"
    assert report.status("A5") == "pass"


def test_zero_interaction_a4_passes_for_a_non_convex_well():
    # hess V(0) = 0 for power_k, so half the convexity modulus, 0, is not
    # above C_K = 0; with no interaction there is no smallness condition to
    # meet, and A4 passes
    spec = make_system("power_k", {"k": 4.0}, "zero")
    report = check_assumptions(spec)
    assert report.status("A4") == "pass"
    assert report.verdicts["A4"].margin == 0.0
    assert report.status("A5") == "pass"


def test_assumption_screening_is_one_dimensional():
    with pytest.raises(ValueError, match="d = 1 only, got d = 2"):
        check_assumptions(make_system("quadratic", None, "harmonic_W", d=2))


def test_quadratic_tail_fails_at_quartic_theta(baseline_spec):
    # V with bounded Hessian cannot satisfy the theta=1/4 tail inequality
    report = check_assumptions(dataclasses.replace(baseline_spec, theta=0.25))
    assert report.status("A3") == "fail"


# the A3 weighted-Hessian bound holds for any declared C_V_theta this large,
# so only the tail conditions decide the verdict
_NO_WEIGHT_BOUND = 1e300


def test_a3_refuses_a_tail_laplacian_not_below_the_gradient():
    # V = 1e-9 x^2 / 2: laplacian / |grad V|^2 = 1e9 / x^2 >= 1 out to
    # |x| = 3e4, so kappa_1 < 1 fails on the tail net
    spec = make_system("quadratic", {"curvature": 1e-9})
    spec = dataclasses.replace(spec, theta=0.25, C_V_theta=_NO_WEIGHT_BOUND)
    verdict = check_assumptions(spec).verdicts["A3"]
    assert verdict.status == "fail"
    assert "not < 1 on tail" in verdict.detail
    assert verdict.margin == pytest.approx(1.0 - 1e5)


def test_a3_refuses_a_decaying_tail_ratio():
    # V = x^2 / 2 at theta = 1/4: |grad V|^2 / V^(3/2) = 2^(3/2) / |x| decays
    # with log-log slope -1
    spec = dataclasses.replace(make_system("quadratic"), theta=0.25,
                               C_V_theta=_NO_WEIGHT_BOUND)
    verdict = check_assumptions(spec).verdicts["A3"]
    assert verdict.status == "fail"
    assert "decays on the tail" in verdict.detail
    assert verdict.margin == pytest.approx(2 ** 1.5 / 1e3)


@pytest.mark.parametrize("w_family, w_params", [
    ("zero", None),
    ("harmonic_W", {"L_W": 0.25}),
    ("harmonic_W", {"L_W": 1.0}),
    ("mollified_coulomb", None),
    ("mollified_coulomb", {"a": 0.2, "b": 0.5, "k": 4.0}),
    ("mollified_coulomb", {"form": "arctan", "r0": 1.0}),
])
def test_a3_is_not_checked_on_a_zero_confinement(w_family, w_params):
    # V = 0 leaves no net point where V^(-2 theta) is defined; the screen
    # used to take the argmax of an empty array there
    report = check_assumptions(make_system("zero", None, w_family, w_params))
    verdict = report.verdicts["A3"]
    assert verdict.status == "not-checked"
    assert "V <= 0 on the whole net" in verdict.detail


class ConstantOne(Field):
    """V = 1: positive everywhere, with no gradient anywhere."""

    def value(self, x):
        return np.ones(np.shape(x)[:-1])

    def grad(self, x):
        return np.zeros(np.shape(x))

    def hess(self, x):
        return np.zeros(np.shape(x) + np.shape(x)[-1:])


def test_a3_is_not_checked_on_a_tail_without_gradient():
    # the tail ratios divide by |grad V|^2, which is 0 on the whole tail net
    verdict = check_assumptions(PotentialSpec(ConstantOne(), Zero(), 1)) \
        .verdicts["A3"]
    assert verdict.status == "not-checked"
    assert verdict.detail == "vanishing gradient on tail net"


class NanHessianPastFive(Field):
    """V = x^2 / 2 with a NaN Hessian where |x| > 5."""

    def value(self, x):
        return 0.5 * np.sum(np.square(x), axis=-1)

    def grad(self, x):
        return np.asarray(x, dtype=float)

    def hess(self, x):
        h = np.ones(np.shape(x) + np.shape(x)[-1:])
        h[np.abs(np.asarray(x)[..., 0]) > 5] = np.nan
        return h


def test_a_screen_that_meets_an_undefined_value_is_not_checked(baseline_spec):
    # the screens reported NaN margins, as fails: a screen that no net point
    # fails is not-checked where its quantity is undefined, witnessed by the
    # first such point
    verdicts = check_assumptions(dataclasses.replace(
        baseline_spec, V=NanHessianPastFive())).verdicts
    for screen in ("A2", "A4"):
        assert verdicts[screen].status == "not-checked"
        assert verdicts[screen].margin is None
        assert verdicts[screen].witness.tolist() == [-10.0]
    # from |x| = 60 out, V = inf and lam |x|^2 = inf: their gap is NaN
    a1 = check_assumptions(make_system("quadratic", {"curvature": 1e305})) \
        .verdicts["A1"]
    assert a1.status == "not-checked"
    assert a1.margin is None
    # W(x) = L_W x^2 / 2 overflows past |x| = 6, so each form is inf - inf;
    # A5 passed with margin inf
    a5 = check_assumptions(make_system("quadratic", None, "harmonic_W",
                                       {"L_W": 1e307})).verdicts["A5"]
    assert a5.status == "not-checked"
    assert math.isnan(a5.witness["form"])


def test_a4_refuses_a_declared_c_k_below_the_measured_hessian(baseline_spec):
    # harmonic W with L_W = 0.25 declares C_K = 0.25; a spec that declares
    # 0.1 understates sup |hess W|
    spec = dataclasses.replace(baseline_spec, C_K=0.1)
    verdict = check_assumptions(spec).verdicts["A4"]
    assert verdict.status == "fail"
    assert "measured sup|hess W| = 0.25 above C_K" in verdict.detail
    assert verdict.margin == pytest.approx(-0.15)


@pytest.mark.parametrize("constant, screen", [
    ("C_V", "A2"), ("C_V_theta", "A3"), ("C_K", "A4")])
def test_an_infinite_declared_bound_fails_its_screen(baseline_spec, constant,
                                                     screen):
    # a declared bound of inf bounds nothing: A2, A3's weighted Hessian and
    # A4's C_K take one rule, a fail with margin -inf at the argmax (A3 used
    # to pass, and A4 to fail with margin +inf)
    spec = dataclasses.replace(baseline_spec, **{constant: math.inf})
    verdict = check_assumptions(spec).verdicts[screen]
    assert verdict.status == "fail"
    assert verdict.margin == -math.inf
    assert verdict.witness is not None


def test_a_bound_met_to_rounding_passes_its_screen():
    # C_K = a / b^3 = 29154518.950437326 lies one ulp below the evaluated
    # |W''(0)|; A4 used to fail it by an absolute slack of 1e-9, where every
    # declared bound now has the relative one of A3
    spec = make_system("quadratic", {"curvature": 1e14}, "mollified_coulomb",
                       {"a": 1e7, "b": 0.7})
    assert abs(spec.W.hess(np.zeros((1, 1)))[0, 0, 0]) > spec.C_K
    verdict = check_assumptions(spec).verdicts["A4"]
    assert verdict.status == "pass"
    assert verdict.margin == 1e14 / 2 - spec.C_K  # the smallness gap


def test_a_bound_screen_margin_carries_no_slack():
    # sup |hess V| = C_V = 1 exactly: the margin is bound - sup, 0, where
    # A2 used to add its slack and report 1.000000082740371e-09
    verdict = check_assumptions(make_system("quadratic")).verdicts["A2"]
    assert verdict.status == "pass"
    assert verdict.margin == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [
    {"b": 1e-120}, {"form": "arctan", "r0": 1e-120}, {"k": 4.0, "b": 1e-120},
    {"k": 400.0}], ids=["b", "arctan_r0", "k4_b", "k400"])
def test_coulomb_refuses_parameters_without_finite_constants(params):
    # a / b^3 of an underflowed b^3 used to be a ZeroDivisionError, and the
    # net of k = 4 leaked numpy warnings; the W side is at fault
    with pytest.raises(ValueError, match="^mollified_coulomb: C_K and "
                       "W_grad_sup do not evaluate to finite floats at "
                       "a = 1.0") as err:
        make_system("quadratic", None, "mollified_coulomb", params)
    assert err.value.side == "W"


def test_assumption_determinism(baseline_spec):
    a = check_assumptions(baseline_spec, seed=5)
    b = check_assumptions(baseline_spec, seed=5)
    assert a.as_dict() == b.as_dict()


def test_assumption_drift_variant_not_checked(baseline_spec):
    note = check_assumptions(baseline_spec).verdicts["A1"].detail
    assert "not-checked" in note


@pytest.mark.parametrize("family, params, side, message", [
    ("power_k", {"amp": 0.0}, "V", "power_k: amp must be positive"),
    ("exp_power", {"a": 0.0}, "V", "exp_power: a must be positive"),
    ("exp_power", {"k": 1.0}, "V", r"exp_power: k must lie in \(0, 1\)"),
    ("exp_power", {"k": 0.0}, "V", r"exp_power: k must lie in \(0, 1\)"),
    ("harmonic_W", {"L_W": -0.25}, "W",
     "harmonic_W: L_W must be nonnegative"),
    ("mollified_coulomb", {"form": "yukawa"}, "W",
     "mollified_coulomb: form must be 'power' or 'arctan'"),
    ("mollified_coulomb", {"a": 0.0}, "W",
     "mollified_coulomb: a must be positive"),
    ("mollified_coulomb", {"b": 0.0}, "W",
     "mollified_coulomb: b must be positive"),
    ("mollified_coulomb", {"k": 1.5}, "W",
     "mollified_coulomb: k must be >= 2"),
    ("mollified_coulomb", {"form": "arctan", "r0": 0.0}, "W",
     "mollified_coulomb: r0 must be positive"),
])
def test_family_ranges_refuse_a_value_outside(family, params, side, message):
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        builtin_field(family, params, side)
    assert err.value.side == side


# every builtin family at its defaults and at the parameters the tests use
DECLARED_CASES = [
    ("quadratic", {}, "V"),
    ("quadratic", {"curvature": 1.3}, "V"),
    ("quadratic", {"curvature": 40.0}, "V"),
    ("power_k", {}, "V"),
    ("power_k", {"k": 2.0}, "V"),
    ("power_k", {"k": 3.0, "amp": 0.5}, "V"),
    ("power_k", {"k": 6.0}, "V"),
    ("exp_power", {}, "V"),
    ("exp_power", {"a": 0.7, "k": 0.5}, "V"),
    ("zero", {}, "V"),
    ("harmonic_W", {}, "W"),
    ("harmonic_W", {"L_W": 0.5}, "W"),
    ("mollified_coulomb", {}, "W"),
    ("mollified_coulomb", {"a": 0.2}, "W"),
    ("mollified_coulomb", {"a": 0.5, "b": 0.8, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.5, "b": 1.3, "k": 2.0}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 0.8, "k": 2.5}, "W"),
    ("mollified_coulomb", {"a": 0.5, "b": 1.0, "k": 2.5}, "W"),
    ("mollified_coulomb", {"a": 0.2, "b": 1.3, "k": 3.0}, "W"),
    ("mollified_coulomb", {"form": "arctan"}, "W"),
    ("mollified_coulomb", {"a": 0.2, "r0": 1.0, "form": "arctan"}, "W"),
    ("mollified_coulomb", {"a": 0.5, "r0": 0.7, "form": "arctan"}, "W"),
    ("zero", {}, "W"),
]


@pytest.mark.parametrize("family, params, side", DECLARED_CASES,
                         ids=[f"{side}-{family}-{i}" for i, (family, _, side)
                              in enumerate(DECLARED_CASES)])
def test_declared_constants_bound_a_dense_evaluation(family, params, side):
    # on the ray (s, 0) in d = 2 the Hessian of a radial field is diag(W'',
    # W'/s), both eigenvalues; the net is 2e-5 apart up to s = 4, where every
    # W peaks, and 2e-3 apart out to 400, past exp_power's largest gap at 188
    spec = (make_system(family, params, d=2) if side == "V"
            else make_system("zero", None, family, params, d=2))
    s = np.concatenate([np.linspace(0.0, 4.0, 200_001),
                        np.linspace(4.0, 400.0, 200_001)])
    x = np.stack([s, np.zeros_like(s)], axis=-1)
    # V >= lam |x|² - M_lb, up to the rounding of two large terms
    gap = spec.V.value(x) - spec.lam * s**2 + spec.M_lb
    assert np.min(gap / (1.0 + spec.lam * s**2)) >= -1e-12
    bounds = (
        ("C_V", np.abs(np.diagonal(spec.V.hess(x), axis1=-2, axis2=-1))),
        ("C_K", np.abs(np.diagonal(spec.W.hess(x), axis1=-2, axis2=-1))),
        ("W_grad_sup", np.abs(spec.W.grad(x)[:, 0])))
    for name, values in bounds:
        assert np.max(values) <= getattr(spec, name) * (1.0 + 1e-13), name


def test_exp_power_gap_that_only_falls_has_no_offset():
    # at (a, k) = (5, 0.9) the gap s² - exp(a s^k) falls from s = 0 on, so
    # lam = 1 needs no M_lb
    spec = make_system("exp_power", {"a": 5.0, "k": 0.9})
    assert spec.M_lb == 0.0
    s = np.geomspace(1e-6, 100.0, 100_001)
    assert np.all(s**2 < spec.V.value(s[:, None]))


def test_exp_power_gap_beyond_the_float_range_is_infinite():
    # at (a, k) = (0.01, 0.03) the gap peaks near s² = exp(8e3), past the
    # largest float: the declared M_lb is inf, not an OverflowError
    assert make_system("exp_power", {"a": 0.01, "k": 0.03}).M_lb == math.inf


@pytest.mark.parametrize("a, where, margin", [(1.0, 54.25, -40.02),
                                              (0.7, 187.7, -18250.8)])
def test_a1_screens_the_tail_net(a, where, margin):
    # exp_power's largest gap s² - V lies past the core grid [-10, 10]: the
    # declared M_lb passes A1, and the largest gap sampled only up to s = 50
    # fails it on the tail net
    spec = make_system("exp_power", {"a": a, "k": 0.5})
    assert check_assumptions(spec).status("A1") == "pass"
    s = np.geomspace(1e-3, 50.0, 4001)
    short = float(np.max(s**2 - np.exp(a * s**0.5)))
    a1 = check_assumptions(
        dataclasses.replace(spec, M_lb=short)).verdicts["A1"]
    assert a1.status == "fail"
    assert abs(a1.witness[0]) == pytest.approx(where, abs=0.1)
    assert a1.margin == pytest.approx(margin, rel=1e-4)
