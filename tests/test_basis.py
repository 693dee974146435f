import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from starkspec.airy import envelope_margin
from references import basis_eval, envelope, green0

SQPI = math.sqrt(math.pi)
A1 = -2.3381074104597670


@pytest.mark.parametrize("z", [-3.0, 0.0, 2.5, 11.0])
@pytest.mark.parametrize("x", [0.0, 1.3, 7.9])
def test_wronskian_normalization(z, x):
    b = basis_eval(z, x)
    assert b.psi0 * b.theta0_prime - b.psi0_prime * b.theta0 == pytest.approx(1.0, abs=1e-9)


def test_boundary_values_exact():
    b = basis_eval(1.7, 0.0)
    assert b.s0 == 0.0
    assert b.s0_prime == pytest.approx(1.0, rel=1e-12)
    assert b.c0 == pytest.approx(1.0, rel=1e-12)
    assert abs(b.c0_prime) < 1e-12


def test_psi0_vanishes_at_unperturbed_eigenvalue():
    # psi0(z, 0) = sqrt(pi) Ai(-z) has its first zero at z = -a_1
    b = basis_eval(-A1, 0.0)
    assert abs(b.psi0) < 1e-11


def test_psi0_at_origin_matches_oracle():
    b = basis_eval(0.0, 0.0)
    assert b.psi0 == pytest.approx(SQPI * 0.35502805388781724, rel=1e-13)


def test_s0_dot_matches_z_difference():
    h = 1e-5
    for z, x in [(0.7, 1.1), (4.0, 5.2), (-2.0, 0.4)]:
        b = basis_eval(z, x)
        sp = basis_eval(z + h, x).s0
        sm = basis_eval(z - h, x).s0
        assert (sp - sm) / (2 * h) == pytest.approx(b.s0_dot, rel=1e-6, abs=1e-8)


def test_psi0_z_derivative_identity():
    h = 1e-5
    for z, x in [(1.0, 2.0), (6.0, 3.5)]:
        b = basis_eval(z, x)
        dp = (basis_eval(z + h, x).psi0 - basis_eval(z - h, x).psi0) / (2 * h)
        assert dp == pytest.approx(-b.psi0_prime, rel=1e-6, abs=1e-10)


def test_ode_residual_fine_stencil():
    h = 1e-3
    for z in (0.0, 3.0):
        for x in (0.5, 2.9, 6.0):
            ys = [basis_eval(z, x + k * h) for k in (-2, -1, 0, 1, 2)]
            for f in ("psi0", "theta0"):
                y = [getattr(b, f) for b in ys]
                second = (-y[0] + 16 * y[1] - 30 * y[2] + 16 * y[3] - y[4]) / (12 * h**2)
                scale = max(abs(y[2]), abs(getattr(ys[2], f + "_prime")))
                assert abs(second - (x - z) * y[2]) <= 1e-6 * scale


def test_envelope_bounds_on_grid():
    c0 = envelope_margin(np.arange(-30.0, 30.0, 0.01)) * (1 + 1e-9)
    for z in (-2.0, 1.0, 6.5):
        for x in np.linspace(0.0, z + 10.0, 37):
            if x < 0:
                continue
            b = basis_eval(z, x)
            e = envelope(x - z)
            assert abs(b.psi0) * e.sigma / e.g_a <= c0 * SQPI * (1 + 1e-12)
            assert abs(b.theta0) * e.sigma / e.g_b <= 2 * c0 * SQPI


def test_green_kernel_diagonal_zero():
    assert green0(1.5, 3.3, 3.3) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 12), st.floats(0, 15), st.floats(0, 15))
def test_green_kernel_antisymmetry(z, x, y):
    assert green0(z, x, y) == pytest.approx(-green0(z, y, x), rel=1e-12, abs=1e-300)


def test_green_kernel_derivative_normalization():
    # d/dy J0 at y = x equals -1, forced by the Wronskian normalization
    h = 1e-5
    for z, x in [(0.0, 1.0), (5.0, 4.0)]:
        d = (green0(z, x, x + h) - green0(z, x, x - h)) / (2 * h)
        assert d == pytest.approx(-1.0, abs=1e-6)


def test_green_kernel_scaled_path_matches_plain():
    # just below the scaling cutoff both paths are available
    z = 0.0
    direct = math.pi * (special.airy(95.0)[2] * special.airy(99.0)[0]
                        - special.airy(95.0)[0] * special.airy(99.0)[2])
    assert green0(z, 95.0, 99.0) == pytest.approx(direct, rel=1e-10)


def test_green_kernel_survives_bi_overflow():
    # Bi(150) alone overflows; the exponent-summed product must not
    val = green0(0.0, 150.0, 160.0)
    assert math.isfinite(val)
    # decaying-through-growing product: magnitude e^(t160 - t150) dominates
    t150 = (2 / 3) * 150.0**1.5
    t160 = (2 / 3) * 160.0**1.5
    assert abs(val) == pytest.approx(
        math.pi * special.airye(160.0)[2] * special.airye(150.0)[0]
        * math.exp(t160 - t150), rel=1e-6)
