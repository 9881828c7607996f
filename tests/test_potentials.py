"""Potential families, energies, and the structural assumption checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinchaos.dynamics import PhaseEnsemble
from kinchaos.errors import EvaluationOverflow
from kinchaos.potentials import (check_assumptions, evaluate,
                                 interaction_kernel, make_builtin,
                                 make_system, pairwise_interaction_energy,
                                 system_energy)


def fd_gradient(fld, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fld.value((x + e)[None])[0] - fld.value((x - e)[None])[0]) / (2 * h)
    return g


# --- families and evaluate -------------------------------------------------

def test_quadratic_point_values():
    spec = make_system("quadratic", {"curvature": 1.0})
    val, grad, hess = evaluate(spec, "V", np.array([2.0]))
    assert val == pytest.approx(2.0, abs=1e-14)
    assert grad[0] == pytest.approx(2.0, abs=1e-14)
    assert hess[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_harmonic_w_point_values():
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    val, grad, hess = evaluate(spec, "W", np.array([2.0]))
    assert val == pytest.approx(0.5, abs=1e-14)
    assert grad[0] == pytest.approx(0.5, abs=1e-14)
    assert hess[0, 0] == pytest.approx(0.25, abs=1e-14)


def test_mollified_coulomb_at_origin():
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 1.0, "b": 1.0, "k": 2.0})
    val, grad, _ = evaluate(spec, "W", np.array([0.0]))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert grad[0] == pytest.approx(0.0, abs=1e-12)


def test_power_k_theta():
    spec = make_system("power_k", {"k": 4.0})
    assert spec.theta == pytest.approx(0.25, abs=1e-14)


def test_exp_power_theta():
    spec = make_system("exp_power", {"a": 1.0, "k": 0.5})
    assert spec.theta == pytest.approx(0.5, abs=1e-14)


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


def test_exp_power_overflow_signalled():
    spec = make_system("exp_power", {"a": 1.0, "k": 0.5})
    with np.errstate(over="ignore"), pytest.raises(EvaluationOverflow):
        evaluate(spec, "V", np.array([1e300]))


@pytest.mark.parametrize("family,params", [
    ("quadratic", {"curvature": 1.3}),
    ("power_k", {"k": 4.0}),
    ("exp_power", {"a": 0.7, "k": 0.5}),
])
def test_gradient_matches_finite_differences(family, params):
    fld = make_builtin(family, params).V
    gen = np.random.default_rng(3)
    for _ in range(100):
        x = gen.uniform(-2.5, 2.5, size=1)
        g = fld.grad(x[None])[0]
        assert np.allclose(g, fd_gradient(fld, x), atol=1e-5)


def test_hessian_matches_finite_differences():
    fld = make_builtin("mollified_coulomb", {"a": 0.5, "b": 1.0, "k": 2.0}).W
    gen = np.random.default_rng(4)
    for _ in range(100):
        x = gen.uniform(-3.0, 3.0, size=1)
        h = fld.hess(x[None])[0]
        e = np.array([1e-5])
        fd = (fld.grad((x + e)[None])[0, 0]
              - fld.grad((x - e)[None])[0, 0]) / 2e-5
        assert h[0, 0] == pytest.approx(fd, abs=1e-5)


def general_radial_hess(fld, x):
    """RadialField.hess by its d-dimensional formula (unit vectors, outer
    products), the reference for the one-dimensional shortcut."""

    d = x.shape[-1]
    s = fld._norm(x)
    w1, w2 = fld._w1(s), fld._w2(s)
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
    fld = getattr(make_builtin(family, params), side)
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


# --- interaction kernel ----------------------------------------------------

def test_kernel_zero_w():
    spec = make_system("quadratic", None, "zero")
    assert np.all(interaction_kernel(spec, np.array([1.7])) == 0.0)


def test_kernel_harmonic_value():
    spec = make_system("quadratic", None, "harmonic_W", {"L_W": 0.25})
    k = interaction_kernel(spec, np.array([2.0]))
    assert k[0] == pytest.approx(-0.5, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50, allow_nan=False))
def test_kernel_antisymmetry(r):
    spec = make_system("quadratic", None, "mollified_coulomb",
                       {"a": 0.2, "b": 1.0, "k": 2.0})
    plus = interaction_kernel(spec, np.array([r]))
    minus = interaction_kernel(spec, np.array([-r]))
    assert np.array_equal(plus, -minus)


# --- energies ---------------------------------------------------------------

def test_system_energy_zero_configuration(baseline_spec):
    Z = PhaseEnsemble(np.zeros((3, 1)), np.zeros((3, 1)))
    H, U = system_energy(baseline_spec, Z)
    assert H == 0.0 and U == 0.0


def test_system_energy_hand_value(baseline_spec):
    # N=2, x=(0,2), v=0: U = V(2) + (1/4)(W(2)+W(-2)) = 2 + 0.25
    Z = PhaseEnsemble(np.array([[0.0], [2.0]]), np.zeros((2, 1)))
    H, U = system_energy(baseline_spec, Z)
    assert U == pytest.approx(2.25, abs=1e-14)
    assert H == pytest.approx(2.25, abs=1e-14)


def test_system_energy_kinetic_scaling(baseline_spec):
    gen = np.random.default_rng(0)
    X = gen.standard_normal((5, 1))
    V = gen.standard_normal((5, 1))
    H1, U1 = system_energy(baseline_spec, PhaseEnsemble(X, V))
    H2, U2 = system_energy(baseline_spec, PhaseEnsemble(X, 2.0 * V))
    assert U2 == U1
    assert H2 - U2 == pytest.approx(4.0 * (H1 - U1), rel=1e-12)


def test_pairwise_energy_single_particle(baseline_spec):
    assert pairwise_interaction_energy(baseline_spec, np.zeros((1, 1))) == 0.0


def _pairwise_energy_one_block(spec, X):
    # the whole N x N pair array at once: the unblocked reference
    N = X.shape[0]
    w = spec.W.value(X[:, None, :] - X[None, :, :])
    w[np.arange(N), np.arange(N)] = 0.0
    return float(np.sum(w.sum(axis=1))) / (2.0 * N)


@pytest.mark.parametrize("w_family, w_params", [
    ("harmonic_W", {"L_W": 0.25}),
    ("mollified_coulomb", {"a": 0.2, "b": 1.0, "k": 2.0}),
])
@pytest.mark.parametrize("N, d", [(200, 1), (300, 2), (683, 2)])
def test_pairwise_energy_blocks_match_one_block(w_family, w_params, N, d):
    # 2**14 // (N d) rows per block: 3, 12 and 57 blocks, the last one short
    assert N % (2**14 // (N * d)) != 0
    spec = make_system("quadratic", None, w_family, w_params, d=d)
    X = np.random.default_rng(N + d).standard_normal((N, d))
    assert pairwise_interaction_energy(spec, X) \
        == _pairwise_energy_one_block(spec, X)


def test_dimension_is_an_int_checked_on_the_spec():
    spec = make_system("quadratic", None, "harmonic_W", None, d=3)
    assert spec.d == 3
    assert spec.describe()["domain"] == {"d": 3}
    with pytest.raises(ValueError, match="d must be >= 1"):
        make_builtin("quadratic", d=0)
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
    with pytest.raises(ValueError, match=f"^{named} cannot be the {side}"):
        make_system(v_family, None, w_family, None)


def test_zero_stands_on_either_side():
    spec = make_system("zero", None, "zero")
    assert spec.V.family == spec.W.family == "zero"
    assert spec.describe()["constants"] == dict.fromkeys(
        ("lam", "M_lb", "C_V", "C_K", "theta", "C_V_theta", "W_grad_sup"),
        0.0)


def test_power_k_below_two_rejected():
    with pytest.raises(ValueError, match="k must be >= 2"):
        make_builtin("power_k", {"k": 1.5})


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
    report = check_assumptions(spec, theta=0.25)
    assert report.status("A4") == "pass"
    assert report.verdicts["A4"].margin == 0.0
    assert report.status("A5") == "pass"


def test_assumption_screening_is_one_dimensional():
    with pytest.raises(ValueError, match="d = 1 only, got d = 2"):
        check_assumptions(make_system("quadratic", None, "harmonic_W", d=2))


def test_quadratic_tail_fails_at_quartic_theta(baseline_spec):
    # V with bounded Hessian cannot satisfy the theta=1/4 tail inequality
    report = check_assumptions(baseline_spec, theta=0.25)
    assert report.status("A3") == "fail"


def test_assumption_determinism(baseline_spec):
    a = check_assumptions(baseline_spec, seed=5)
    b = check_assumptions(baseline_spec, seed=5)
    assert a.as_dict() == b.as_dict()


def test_assumption_drift_variant_not_checked(baseline_spec):
    note = check_assumptions(baseline_spec).verdicts["A1"].note
    assert "not-checked" in note
