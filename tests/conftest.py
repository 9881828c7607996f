"""Shared fixtures: the baseline harmonic system everything else orbits."""

from dataclasses import replace

import numpy as np
import pytest

from kinchaos.dynamics import ModelParams, RngSpec
from kinchaos.equilibrium import Axis, assemble_f_infty, solve_rho_infty
from kinchaos.potentials import Field, make_system

# baseline: V = x^2/2, W = (0.25/2) r^2, gamma = sigma = beta = 1
BASELINE_LAM_V = 1.0
BASELINE_L_W = 0.25


@pytest.fixture(scope="session")
def baseline_spec():
    return make_system("quadratic", {"curvature": BASELINE_LAM_V},
                       "harmonic_W", {"L_W": BASELINE_L_W})


@pytest.fixture(scope="session")
def baseline_params():
    return ModelParams(gamma=1.0, sigma=1.0, beta=1.0)


@pytest.fixture(scope="session")
def x_axis():
    return Axis(-9.0, 9.0, 128)


@pytest.fixture(scope="session")
def v_axis():
    return Axis(-9.0, 9.0, 128)


@pytest.fixture(scope="session")
def rho_inf(baseline_spec, baseline_params, x_axis):
    return solve_rho_infty(baseline_spec, baseline_params, x_axis)


@pytest.fixture(scope="session")
def f_inf(rho_inf, baseline_params, v_axis):
    return assemble_f_infty(rho_inf, baseline_params, v_axis)


@pytest.fixture()
def rng():
    return RngSpec(seed=20260814)


def grid_var(axis, values):
    """Mean-centered second moment of a 1D grid density."""

    m = np.trapezoid(values * axis.nodes, dx=axis.h)
    return float(np.trapezoid(values * (axis.nodes - m) ** 2, dx=axis.h))


class QuarterLinearW(Field):
    """W(x) = |x|^2 / 8 as a custom field: even, grad W = x / 4.  It has the
    values of harmonic_W with L_W = 1/4, but the N-body sums take the pair
    panels for it, as for any W outside the harmonic family."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1) / 8.0

    def grad(self, x):
        return np.asarray(x, dtype=float) / 4.0


def quarter_linear_spec(d):
    """Quadratic V with the custom QuarterLinearW interaction in R^d."""

    return replace(make_system("quadratic", d=d), W=QuarterLinearW())
