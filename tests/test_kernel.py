"""Kernel closed forms, Fourier symbols, hypothesis checker, contraction horizon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from ksmv.grid import Grid1D, TimeMesh
from ksmv.kernel import (KernelSpec, kernel_eval, kernel_l1_norm, kernel_l2_norm,
                         time_integrated_kernel, time_integrated_abs_kernel,
                         kernel_symbol, integrated_kernel_symbol, f1_profile,
                         f2_profile, restart_profile, check_hypotheses,
                         horizon_D, find_T0, zero_kernel, _theta_custom)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def quad_l1(spec, t):
    val, _ = integrate.quad(lambda x: abs(float(kernel_eval(spec, t, np.asarray(x)))),
                            -40.0 * math.sqrt(t), 40.0 * math.sqrt(t), limit=200)
    return val


def quad_l2(spec, t):
    val, _ = integrate.quad(lambda x: float(kernel_eval(spec, t, np.asarray(x))) ** 2,
                            -40.0 * math.sqrt(t), 40.0 * math.sqrt(t), limit=200)
    return math.sqrt(val)


# --- spec validation -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(chi=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(lam=-0.1)
    with pytest.raises(ValueError):
        KernelSpec(normalization="fourier")
    with pytest.raises(ValueError):
        KernelSpec(kind="ripley")
    with pytest.raises(ValueError):
        KernelSpec(kind="custom")     # custom needs eval_fn


def test_chi_eff_normalizations():
    assert KernelSpec(chi=1.0).chi_eff == pytest.approx(1.0)
    alt = KernelSpec(chi=1.0, normalization="two_pi")
    assert alt.chi_eff == pytest.approx(1.0 / SQRT_2PI)


# --- pointwise values ------------------------------------------------------


def test_eval_zero_at_origin_and_frozen_value():
    spec = KernelSpec(chi=1.0, lam=0.0)
    assert kernel_eval(spec, 1.0, 0.0) == 0.0
    # -e^{-1/2} / sqrt(2 pi); cross-checked against a central difference below
    assert float(kernel_eval(spec, 1.0, 1.0)) == pytest.approx(-0.2419707, abs=5e-8)


def test_eval_matches_gaussian_derivative():
    spec = KernelSpec(chi=1.3, lam=0.7)
    t, x, eps = 0.6, 0.9, 1e-5
    from ksmv.grid import heat_kernel
    fd = (heat_kernel(t, x + eps) - heat_kernel(t, x - eps)) / (2.0 * eps)
    want = 1.3 * math.exp(-0.7 * t) * fd
    assert float(kernel_eval(spec, t, x)) == pytest.approx(want, rel=1e-8)


@given(t=st.floats(1e-3, 10.0), x=st.floats(-8.0, 8.0))
def test_eval_odd(t, x):
    spec = KernelSpec(chi=1.0, lam=0.3)
    assert float(kernel_eval(spec, t, -x)) == pytest.approx(-float(kernel_eval(spec, t, x)),
                                                            abs=1e-300)


def test_eval_normalization_ratio():
    heat = KernelSpec(chi=1.0, normalization="heat")
    alt = KernelSpec(chi=1.0, normalization="two_pi")
    x = np.array([0.4, 1.0, 2.5])
    assert np.allclose(kernel_eval(alt, 0.7, x) * SQRT_2PI, kernel_eval(heat, 0.7, x))


def test_eval_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec(), 0.0, 1.0)


def test_odd_kernel_sums_to_zero_on_grid():
    g = Grid1D(10.0, 512)
    for t in (0.05, 0.3, 1.0):
        total = g.integrate(kernel_eval(KernelSpec(chi=2.0), t, g.x))
        assert abs(total) < 1e-12


# --- norms -----------------------------------------------------------------


def test_l1_frozen_value_and_quad():
    spec = KernelSpec(chi=1.0, lam=0.0)
    assert kernel_l1_norm(spec, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
    assert kernel_l1_norm(spec, 1.0) == pytest.approx(0.7978846, abs=5e-8)
    for t in (1e-3, 0.04, 0.7, 3.0):
        assert kernel_l1_norm(spec, t) == pytest.approx(quad_l1(spec, t), rel=1e-6)


def test_l1_prefactors():
    t = 0.83
    base = kernel_l1_norm(KernelSpec(chi=1.0), t)
    assert kernel_l1_norm(KernelSpec(chi=2.0), t) == pytest.approx(2.0 * base, rel=1e-14)
    assert kernel_l1_norm(KernelSpec(chi=1.0, lam=1.0), t) == pytest.approx(
        math.exp(-t) * base, rel=1e-14)


@given(t=st.floats(1e-3, 20.0))
def test_l1_self_similar_at_zero_decay(t):
    spec = KernelSpec(chi=1.0, lam=0.0)
    assert kernel_l1_norm(spec, t) * math.sqrt(t) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12)


def test_l2_quad_and_scalings():
    spec = KernelSpec(chi=1.0, lam=0.0)
    assert kernel_l2_norm(spec, 1.0) == pytest.approx(quad_l2(spec, 1.0), rel=1e-8)
    for t in (0.02, 0.5):
        assert kernel_l2_norm(spec, 4.0 * t) / kernel_l2_norm(spec, t) == pytest.approx(
            4.0 ** -0.75, rel=1e-12)
    assert kernel_l2_norm(KernelSpec(chi=1.0, lam=2.0), 1.0) == pytest.approx(
        math.exp(-2.0) * kernel_l2_norm(spec, 1.0), rel=1e-13)


# --- time integrals --------------------------------------------------------


def test_time_integral_closed_form_vs_quad():
    for lam in (0.0, 0.5, 3.0):
        spec = KernelSpec(chi=1.0, lam=lam)
        for t, u in ((0.25, 0.7), (1.0, -1.3), (2.0, 0.05)):
            want, _ = integrate.quad(lambda s: float(kernel_eval(spec, s, np.asarray(u))),
                                     0, t, points=[0], limit=200)
            got = float(time_integrated_kernel(spec, t, u))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_time_integral_odd_and_zero_at_origin():
    spec = KernelSpec(chi=1.0, lam=0.5)
    u = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
    J = time_integrated_kernel(spec, 0.8, u)
    assert J[2] == 0.0
    assert np.allclose(J, -J[::-1])


def test_abs_time_integral_is_magnitude_with_continuous_origin():
    spec = KernelSpec(chi=1.5, lam=0.2)
    u = np.array([-1.0, -1e-8, 0.0, 1e-8, 1.0])
    theta = time_integrated_abs_kernel(spec, 0.6, u)
    J = time_integrated_kernel(spec, 0.6, u)
    assert np.allclose(theta[[0, 4]], np.abs(J[[0, 4]]))
    # continuous extension at the origin equals the supremum chi_eff
    assert theta[2] == pytest.approx(1.5)
    assert theta[1] == pytest.approx(1.5, rel=1e-6)
    assert float(np.max(theta)) <= 1.5 * (1.0 + 1e-12)


def test_symbol_matches_sampled_transform():
    # analytic symbol vs h * rfft of grid samples (phase-shifted to x = 0 origin)
    g = Grid1D(12.0, 1024)
    spec = KernelSpec(chi=1.0, lam=0.4)
    t = 0.5
    sampled = g.h * np.fft.rfft(kernel_eval(spec, t, g.x))
    sampled[1::2] *= -1.0
    assert np.max(np.abs(sampled - kernel_symbol(spec, t, g.wavenumbers))) < 1e-10


def test_integrated_symbol_vs_quad():
    spec = KernelSpec(chi=1.0, lam=0.5)
    dt = 0.01
    xi = np.array([0.0, 0.5, 3.0, 20.0])
    got = integrated_kernel_symbol(spec, dt, xi)
    for i, x in enumerate(xi):
        re, _ = integrate.quad(lambda s: kernel_symbol(spec, s, np.asarray([x]))[0].imag, 0, dt)
        assert got[i].imag == pytest.approx(re, rel=1e-9, abs=1e-15)
        assert got[i].real == 0.0
    assert got[0] == 0.0  # removable xi = 0 limit


# --- singular time convolutions f1, f2 and the restart integral ------------


def test_f1_plateau_constant_at_zero_decay():
    spec = KernelSpec(chi=1.0, lam=0.0)
    mesh = TimeMesh(1.0, 200)
    vals = [f1_profile(spec, mesh, k) for k in (1, 5, 50, 200)]
    for v in vals:
        assert v == pytest.approx(SQRT_2PI, rel=1e-10)


def test_f2_plateau_value():
    spec = KernelSpec(chi=1.0, lam=0.0)
    mesh = TimeMesh(1.0, 200)
    want = math.pi ** 0.75 / math.sqrt(2.0)
    assert f2_profile(spec, mesh, 200) == pytest.approx(want, rel=1e-10)


def test_f1_vs_quadrature_with_decay():
    spec = KernelSpec(chi=1.0, lam=0.8)
    mesh = TimeMesh(1.0, 200)
    t = 1.0
    want, _ = integrate.quad(lambda s: kernel_l1_norm(spec, t - s) / math.sqrt(s),
                             0, t, points=[0, t], limit=400)
    # frozen-decay-factor error at M=200 sits around 7e-5 relative
    assert f1_profile(spec, mesh, 200) == pytest.approx(want, rel=2e-4)


def test_restart_profile_closed_form():
    spec = KernelSpec(chi=1.0, lam=0.0)
    mesh = TimeMesh(0.4, 100)
    for shift in (0.0, 0.1, 0.4):
        want = math.sqrt(2.0 / math.pi) * 2.0 * math.asin(
            math.sqrt(mesh.horizon / (mesh.horizon + shift)))
        assert restart_profile(spec, mesh, shift) == pytest.approx(want, rel=1e-8)


# --- hypothesis checker ----------------------------------------------------


def test_checker_passes_for_chemotaxis_kernel():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(1.0, 100)
    for chi, lam in ((1.0, 0.0), (2.0, 0.5)):
        rep = check_hypotheses(KernelSpec(chi=chi, lam=lam), 1.0, g, mesh)
        assert rep.all_pass, [it.name for it in rep.items.values() if not it.passed]
        assert set(rep.items) == {"H1", "H2", "H3", "H4", "H5", "H6"}
        assert rep.f1_sup <= chi * SQRT_2PI * 1.01
        assert len(rep.lines()) == 7


def test_checker_f1_plateau_within_one_percent():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(1.0, 100)
    rep = check_hypotheses(KernelSpec(chi=1.0, lam=0.0), 1.0, g, mesh)
    assert rep.f1_sup == pytest.approx(SQRT_2PI, rel=1e-2)
    assert rep.T0 == pytest.approx(math.pi / 32.0, rel=1e-10)  # safety 0.5


def test_checker_flags_non_integrable_custom_kernel():
    bad = KernelSpec(chi=1.0, kind="custom",
                     eval_fn=lambda t, x: np.sign(np.asarray(x, dtype=float)) * t ** -1.5)
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(1.0, 50)
    rep = check_hypotheses(bad, 1.0, g, mesh)
    assert not rep.items["H1"].passed
    assert not rep.items["H5"].passed
    assert not rep.all_pass
    # singular at an interior time: Theta_t is finite at the early samples only
    late = KernelSpec(chi=1.0, kind="custom",
                      eval_fn=lambda t, x: np.sign(np.asarray(x, dtype=float)) * abs(t - 0.5) ** -1.5)
    assert not check_hypotheses(late, 1.0, g, mesh).items["H5"].passed


def test_custom_route_theta_matches_closed_form():
    # the chemotaxis kernel handed to the checker as a custom kernel
    g = Grid1D(10.0, 256)
    for lam in (0.0, 0.5):
        spec = KernelSpec(chi=1.0, lam=lam)
        custom = KernelSpec(chi=1.0, lam=lam, kind="custom",
                            eval_fn=lambda t, x, spec=spec: kernel_eval(spec, t, x))
        for t in (0.1, 1.0):
            off0 = g.x != 0.0     # the closed form takes the limit chi_eff at u = 0
            got = _theta_custom(custom, t, g.x)[off0]
            assert np.max(np.abs(got - time_integrated_abs_kernel(spec, t, g.x)[off0])) <= 1e-12


def test_checker_requires_positive_horizon_and_trials():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(1.0, 50)
    with pytest.raises(ValueError):
        check_hypotheses(KernelSpec(), 0.0, g, mesh)
    with pytest.raises(ValueError):
        check_hypotheses(KernelSpec(), 1.0, g, mesh, trial_densities=[])


# --- contraction horizon ---------------------------------------------------


def test_horizon_D_closed_forms():
    assert horizon_D(KernelSpec(chi=1.0, lam=0.0), 1.0) == pytest.approx(
        2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)
    spec = KernelSpec(chi=1.0, lam=0.7)
    want, _ = integrate.quad(lambda t: kernel_l1_norm(spec, t), 0, 2.0, points=[0])
    assert horizon_D(spec, 2.0) == pytest.approx(want, rel=1e-9)


@given(t1=st.floats(0.01, 5.0), t2=st.floats(0.01, 5.0))
def test_horizon_D_monotone(t1, t2):
    spec = KernelSpec(chi=0.8, lam=0.3)
    lo, hi = sorted((t1, t2))
    assert horizon_D(spec, lo) <= horizon_D(spec, hi) + 1e-15


def test_find_T0_closed_form_and_quartering():
    assert find_T0(KernelSpec(chi=1.0), 0.5) == pytest.approx(math.pi / 32.0, rel=1e-12)
    assert find_T0(KernelSpec(chi=2.0), 0.5) == pytest.approx(
        find_T0(KernelSpec(chi=1.0), 0.5) / 4.0, rel=1e-12)


def test_find_T0_with_decay_hits_safety():
    spec = KernelSpec(chi=1.0, lam=0.5)
    T0 = find_T0(spec, 0.5)
    assert horizon_D(spec, T0) == pytest.approx(0.5, abs=1e-10)


def test_find_T0_saturating_decay_returns_inf():
    # D saturates at chi_eff sqrt(2 / lam) = 0.25 < safety
    assert find_T0(KernelSpec(chi=1.0, lam=32.0), 0.5) == math.inf
    assert find_T0(KernelSpec(chi=0.0), 0.5) == math.inf
    assert find_T0(KernelSpec(kind="custom", eval_fn=zero_kernel), 0.5) == math.inf


def test_find_T0_rejects_bad_safety():
    for s in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            find_T0(KernelSpec(), s)
