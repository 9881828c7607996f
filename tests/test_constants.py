"""Constant recipes against frozen independent evaluations, plus the
weight-matrix algebra they feed."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinchaos.constants import (build_weight_matrix, thm13_constants,
                                thm14_case1_constants, thm14_case2_constants,
                                thm15_bound)
from kinchaos.potentials import Field, make_system

# hand evaluations of the recipe formulas, computed once by a separate
# script and frozen here; the library must reproduce them to 1e-12 relative
THM13_BASELINE = {"a": 1.6, "delta": 0.0017715419501133786,
                  "rate": 0.0017006802721088437}
THM14C1_REMARK = {"a": 4.5984930146430295e-05, "delta": 0.031244791373603097,
                  "rate": 2.064708344831762e-12,
                  "sigma_star": 899832054158.8073}
THM14C1_PROOF = {"a": 0.0009196986029286058, "delta": 0.031146056551463325,
                 "rate": 8.232735127140323e-10,
                 "sigma_star": 2249580135.3970184}
THM14C2_BASELINE = {"a": 3.678794411714423e-05,
                    "m2_prime": 16.002897160220808, "m2_doubleprime": 175.75,
                    "delta": 0.09374151299429732,
                    "rate": 3.964541941284949e-12,
                    "sigma_star": 21667272955888.695, "H0_min": 2.75}

REL = 1e-12


def assert_golden(record, golden):
    for key, val in golden.items():
        assert getattr(record, key) == pytest.approx(val, rel=REL), key


def test_thm13_baseline_golden():
    assert_golden(thm13_constants(1.0, 1.0, 0.25, 1.0, 1.0), THM13_BASELINE)


def test_thm13_a_branch_identity():
    rec = thm13_constants(0.7, 1.3, 0.4, 2.1, 1.0)
    assert rec.a * (0.4 + 2.1) == pytest.approx(2 * 0.7, rel=1e-14)


def test_thm13_ck_flag():
    assert thm13_constants(1, 1, 0.25, 1, 1).flags["C_K_below_one"]
    assert not thm13_constants(1, 1, 1.5, 1, 1).flags["C_K_below_one"]


def test_thm13_rho_ls_limit():
    assert thm13_constants(1, 1, 0.25, 1, 1e9).rate < 1e-9


def test_thm14_case1_remark_golden():
    assert_golden(thm14_case1_constants(1.0, 1.0, 0.25, 1.0, 1.0,
                                        a_rule="remark"), THM14C1_REMARK)


def test_thm14_case1_proof_golden():
    assert_golden(thm14_case1_constants(1.0, 1.0, 0.25, 1.0, 1.0,
                                        a_rule="proof"), THM14C1_PROOF)


def test_thm14_case1_min_rule_is_min():
    args = (1.0, 1.0, 0.25, 1.0, 1.0)
    remark = thm14_case1_constants(*args, a_rule="remark").a
    proof = thm14_case1_constants(*args, a_rule="proof").a
    both = thm14_case1_constants(*args, a_rule="min").a
    assert both == min(remark, proof)


def test_thm14_case1_validity_flag_false_at_baseline():
    rec = thm14_case1_constants(1.0, 1.0, 0.25, 1.0, 1.0)
    assert not rec.flags["sigma_above_threshold"]


def test_thm14_case1_delta_a_sq_below_sigma():
    gen = np.random.default_rng(1)
    for _ in range(50):
        g, s, ck, cv, rho = gen.uniform(0.1, 3.0, size=5)
        rec = thm14_case1_constants(g, s, ck, cv, rho)
        assert rec.delta * rec.a ** 2 < s


def test_thm14_case2_golden():
    assert_golden(thm14_case2_constants(1.0, 1.0, 0.25, 1.0, 0.25, 1.0,
                                        1.0, 1), THM14C2_BASELINE)


def test_thm14_case2_zero_ck_threshold_degenerates():
    rec = thm14_case2_constants(1.0, 1.0, 1e-300, 1.0, 0.25, 1.0, 1.0, 1)
    assert rec.sigma_star == pytest.approx(0.0, abs=1e-280)
    assert rec.flags["sigma_above_threshold"]


def test_thm14_case2_meanfield_variant_changes_m2():
    plain = thm14_case2_constants(1.0, 1.0, 0.25, 1.0, 0.25, 3.0, 1.0, 1)
    mf = thm14_case2_constants(1.0, 1.0, 0.25, 1.0, 0.25, 3.0, 1.0, 1,
                               meanfield_variant=True)
    assert mf.m2_prime < plain.m2_prime


def test_thm14_case2_h0_floor():
    gen = np.random.default_rng(2)
    for _ in range(30):
        g, s, ck, cv, wsup, rho = gen.uniform(0.05, 2.0, size=6)
        theta = gen.uniform(0.05, 0.5)
        rec = thm14_case2_constants(g, s, ck, cv, theta, wsup, rho, 1)
        assert rec.H0_min >= 1.0


@pytest.mark.parametrize("recipe", [
    lambda s: thm13_constants(1.0, s, 0.25, 1.0, 1.0),
    lambda s: thm14_case1_constants(1.0, s, 0.25, 1.0, 1.0),
    lambda s: thm14_case2_constants(1.0, s, 0.25, 1.0, 0.25, 1.0, 1.0, 1),
])
def test_rate_monotone_in_sigma(recipe):
    rates = [recipe(s).rate for s in np.linspace(0.2, 4.0, 10)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValueError):
        thm13_constants(0.0, 1.0, 0.25, 1.0, 1.0)
    with pytest.raises(ValueError):
        thm14_case2_constants(1.0, 1.0, 0.25, 1.0, -0.25, 1.0, 1.0, 1)


def test_constants_table_renders():
    text = thm13_constants(1.0, 1.0, 0.25, 1.0, 1.0).table()
    assert "delta" in text and "0.0017715419501" in text


def test_thm15_bound_value():
    assert thm15_bound(2, 8, 1.0, 0.5, 1.0, 3.0) == pytest.approx(
        1.9630613194252668, rel=REL)


def test_thm15_bound_long_time_limit():
    assert thm15_bound(2, 8, 1e9, 0.5, 1.0, 3.0) == pytest.approx(
        3.0 * 2 / 8, rel=1e-12)


def test_thm15_k_exceeds_n_rejected():
    with pytest.raises(ValueError):
        thm15_bound(9, 8, 1.0, 0.5, 1.0, 3.0)


# --- weight matrices ---------------------------------------------------------

def test_m1_blocks():
    m = build_weight_matrix("M1_constant", 1.0, 1.0)
    e, f, g = m.blocks(np.zeros(1), np.zeros(1))
    assert (e[0], f[0], g[0]) == (1.0, 1.0, 2.0)
    # the M2 formula at H = 1, on the broadcast shape of (x, v)
    m = build_weight_matrix("M1_constant", 0.3, 1.7)
    x, v = np.zeros((3, 1)), np.zeros((1, 4))
    e, f, g = m.blocks(x, v)
    assert e.shape == f.shape == g.shape == (3, 4)
    assert np.all(e == 0.3 * 1.7**3) and np.all(f == 0.3 * 1.7**2)
    assert np.all(g == 2.0 * 0.3 * 1.7)
    ident = m.determinant_identity(x, v)
    assert ident.shape == (3, 4) and np.all(ident == 0.3**2 * 1.7**4)


def test_m2_hand_blocks():
    spec = make_system("zero")  # V == 0 so H(0,0) = H0 = 1
    m = build_weight_matrix("M2_hamiltonian_weighted", 0.1, 0.5, theta=0.5, H0=1.0,
                            spec=spec)
    e, f, g = m.blocks(np.zeros(1), np.zeros(1))
    assert e[0] == pytest.approx(0.0125, rel=1e-12)
    assert f[0] == pytest.approx(0.025, rel=1e-12)
    assert g[0] == pytest.approx(0.1, rel=1e-12)
    assert e[0] * g[0] - f[0] ** 2 == pytest.approx(6.25e-4, rel=1e-12)


def test_m2_determinant_identity():
    spec = make_system("quadratic", {"curvature": 1.0})
    gen = np.random.default_rng(7)
    for _ in range(20):
        delta, a = gen.uniform(0.01, 2.0, size=2)
        theta = gen.uniform(0.05, 0.8)
        H0 = gen.uniform(1.0, 4.0)
        m = build_weight_matrix("M2_hamiltonian_weighted", delta, a, theta=theta, H0=H0,
                                spec=spec)
        x = gen.uniform(-5, 5, size=100)
        v = gen.uniform(-5, 5, size=100)
        e, f, g = m.blocks(x, v)
        H = 0.5 * v**2 + 0.5 * x**2 + H0
        expect = delta**2 * a**4 * H ** (-4 * theta)
        assert np.allclose(e * g - f**2, expect, rtol=1e-14, atol=0)
        assert np.all(e > 0) and np.all(e * g - f**2 > 0)


class MinusFive(Field):
    """V = -5 everywhere, below the H0 = 1 floor of an M2 weight."""

    def value(self, x):
        return np.full(np.shape(x)[:-1], -5.0)


def test_m2_refuses_a_hamiltonian_below_zero():
    spec = dataclasses.replace(make_system("quadratic"), V=MinusFive())
    m = build_weight_matrix("M2_hamiltonian_weighted", 0.1, 0.5, theta=0.5,
                            H0=1.0, spec=spec)
    with pytest.raises(ValueError, match=r"^H\(z\) <= 0 encountered \(H0 "
                       r"floor violated\) at index \[0\]$"):
        m.blocks(np.zeros(1), np.zeros(1))


def test_m2_requires_h0_floor():
    spec = make_system("quadratic", {"curvature": 1.0})
    with pytest.raises(ValueError):
        build_weight_matrix("M2_hamiltonian_weighted", 0.1, 0.5, theta=0.5, H0=0.5,
                            spec=spec)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 10), st.floats(1e-3, 10))
def test_m1_positive_definite(delta, a):
    m = build_weight_matrix("M1_constant", delta, a)
    e, f, g = m.blocks(np.zeros(1), np.zeros(1))
    assert e[0] > 0 and e[0] * g[0] - f[0] ** 2 > 0


@pytest.mark.parametrize("call, message", [
    (lambda: thm14_case1_constants(1.0, 1.0, 0.25, 1.0, 1.0, a_rule="max"),
     "a_rule must be 'remark', 'proof' or 'min'"),
    (lambda: thm15_bound(1, 4, 0.0, -1.0, 1.0, 1.0),
     "rate and prefactors must be nonnegative"),
    (lambda: build_weight_matrix("M2_hamiltonian_weighted", 0.1, 0.5,
                                 theta=0.5, H0=1.0),
     "M2 requires a potential spec for V"),
    (lambda: build_weight_matrix("M3_unknown", 0.1, 0.5),
     "unknown weight kind 'M3_unknown'"),
], ids=["a_rule", "negative_rate", "m2_without_spec", "unknown_kind"])
def test_guards_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()

