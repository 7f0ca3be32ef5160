"""Grid, mesh, density container, heat kernel, the direct periodic
convolution sum of the test helpers, and the composite Gauss-Legendre
weights, also on arcsin-adapted nodes for end-point singularities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ksmv.grid import Grid1D, TimeMesh, DensityField, heat_kernel, gauss_legendre

from ksmv_helpers import direct_convolution


# --- containers ------------------------------------------------------------


def test_grid_points_and_spacing():
    g = Grid1D(4.0, 64)
    assert g.h == pytest.approx(8.0 / 64)
    assert g.x[0] == -4.0
    assert g.x[-1] == pytest.approx(4.0 - g.h)
    assert np.allclose(np.diff(g.x), g.h)


def test_grid_unit_integral_is_exact():
    g = Grid1D(7.5, 96)
    assert g.integrate(np.ones(g.n)) == pytest.approx(15.0, abs=1e-13)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid1D(4.0, 8)
    with pytest.raises(ValueError):
        Grid1D(4.0, 33)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 64)


def test_tail_bound_decreases_with_half_width():
    assert Grid1D(12.0, 64).tail_bound(1.0) < Grid1D(6.0, 64).tail_bound(1.0)


def test_mesh_endpoints_exact():
    m = TimeMesh(0.7, 7)
    assert m.nodes[0] == 0.0
    assert m.nodes[-1] == 0.7
    assert m.dt == pytest.approx(0.1)
    with pytest.raises(ValueError):
        TimeMesh(0.0, 5)
    with pytest.raises(ValueError):
        TimeMesh(1.0, 0)


def test_density_field_shape_check_and_mass():
    g = Grid1D(10.0, 128)
    with pytest.raises(ValueError):
        DensityField(g, np.zeros(127))
    f = DensityField(g, heat_kernel(1.0, g.x)).normalized()
    assert f.mass() == pytest.approx(1.0, abs=1e-14)


def test_normalized_clips_only_roundoff_band():
    g = Grid1D(10.0, 128)
    v = heat_kernel(1.0, g.x)
    v[3] = -1e-13          # roundoff band: zeroed
    f = DensityField(g, v).normalized()
    assert f.values[3] == 0.0
    v2 = heat_kernel(1.0, g.x)
    v2[3] = -1e-6          # genuine negativity: kept
    f2 = DensityField(g, v2).normalized()
    assert f2.values[3] < 0.0


# --- heat kernel -----------------------------------------------------------


def test_heat_kernel_mode_value():
    assert heat_kernel(1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert heat_kernel(1.0, 0.0) == pytest.approx(0.3989423, abs=5e-8)


def test_heat_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel(-0.5, 1.0)


@given(t=st.floats(1e-3, 50.0), x=st.floats(-30.0, 30.0))
def test_heat_kernel_even(t, x):
    assert heat_kernel(t, x) == heat_kernel(t, -x)


def test_heat_kernel_quadrature_mass():
    g = Grid1D(12.0, 1024)
    assert g.integrate(heat_kernel(0.37, g.x)) == pytest.approx(1.0, abs=1e-10)


# --- the direct periodic convolution sum (the H.5 test's oracle) ---------


def test_convolve_delta_identity():
    g = Grid1D(8.0, 128)
    delta = np.zeros(g.n)
    delta[g.n // 2] = 1.0 / g.h     # discrete delta at x = 0
    smooth = heat_kernel(0.5, g.x)
    out = direct_convolution(delta, smooth, g)
    assert np.allclose(out, smooth, atol=1e-12)


def test_convolve_recenters_shifted_delta():
    g = Grid1D(8.0, 128)
    delta = np.zeros(g.n)
    delta[g.n // 2 + 10] = 1.0 / g.h
    smooth = heat_kernel(0.5, g.x)
    out = direct_convolution(delta, smooth, g)
    assert np.allclose(out, np.roll(smooth, 10), atol=1e-12)


def test_convolve_gaussian_semigroup():
    g = Grid1D(12.0, 1024)
    s, t = 0.4, 0.9
    out = direct_convolution(heat_kernel(s, g.x), heat_kernel(t, g.x), g)
    wrap_tail = math.exp(-g.half_width ** 2 / (2.0 * (s + t)))
    assert np.max(np.abs(out - heat_kernel(s + t, g.x))) < 1e-4 + 10.0 * wrap_tail


def test_convolve_mass_multiplicative():
    g = Grid1D(9.0, 256)
    rng = np.random.default_rng(7)
    f = np.abs(rng.standard_normal(g.n))
    q = np.abs(rng.standard_normal(g.n))
    prod = g.integrate(f) * g.integrate(q)
    assert g.integrate(direct_convolution(f, q, g)) == pytest.approx(
        prod, abs=1e-10 * max(1.0, prod))


# --- composite Gauss-Legendre weights --------------------------------------


@settings(max_examples=60, deadline=None)
@given(panels=st.integers(1, 40), a=st.floats(-5.0, 5.0), length=st.floats(0.1, 10.0))
def test_weights_positive_and_sum_closed_form(panels, a, length):
    edges = np.linspace(a, a + length, panels + 1)
    nodes, w = gauss_legendre(edges)
    assert nodes.shape == w.shape == (panels, 8)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(length, rel=1e-13)
    assert np.all(np.diff(nodes.ravel()) > 0)
    assert np.all((nodes > edges[:-1, None]) & (nodes < edges[1:, None]))


def test_weights_constant_integrand_exact():
    # 8 nodes a panel: exact for degree 15, on uneven panels too
    edges = np.array([-1.0, -0.3, 0.2, 1.1, 2.0])
    nodes, w = gauss_legendre(edges)
    assert np.sum(w) == pytest.approx(3.0, rel=1e-15)
    assert np.sum(w * nodes ** 15) == pytest.approx((2.0 ** 16 - 1.0) / 16.0, rel=1e-14)


def test_weights_single_subinterval():
    nodes, w = gauss_legendre([0.0, 1.0])
    assert np.sum(w * np.exp(nodes)) == pytest.approx(math.e - 1.0, rel=1e-15)
    # the pole at -1 limits one panel to about rho^-16, rho = 3 + sqrt(8)
    assert np.sum(w / (1.0 + nodes)) == pytest.approx(math.log(2.0), rel=1e-11)


def test_beta_integral_with_adapted_nodes():
    # s = tau sin^2(theta) turns (tau - s)^{-1/2} s^{-1/2} ds into 2 dtheta,
    # so the Gauss-Legendre rule in theta takes both singular ends exactly:
    # int_0^1 (1-s)^{-1/2} s^{-1/2} ds = pi and int_0^1 (1-s)^{-1/2} s^{1/2} ds = pi/2
    theta, w = gauss_legendre(np.linspace(0.0, math.pi / 2.0, 3))
    assert 2.0 * np.sum(w) == pytest.approx(math.pi, rel=1e-15)
    assert 2.0 * np.sum(w * np.sin(theta) ** 2) == pytest.approx(math.pi / 2.0, rel=1e-14)
    # stopping at T < tau: int_0^T (tau - s)^{-1/2} s^{-1/2} e^{-s} ds
    T, tau = 0.6, 1.0
    theta, w = gauss_legendre(np.linspace(0.0, math.asin(math.sqrt(T / tau)), 4))
    got = 2.0 * np.sum(w * np.exp(-tau * np.sin(theta) ** 2))
    want, _ = integrate.quad(lambda s: math.exp(-s) / math.sqrt(tau - s), 0.0, T,
                             weight="alg", wvar=(-0.5, 0.0))
    assert got == pytest.approx(want, rel=1e-13)
