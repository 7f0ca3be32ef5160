"""Kernel closed forms, Fourier symbols, hypothesis checker, contraction horizon."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from ksmv.grid import Grid1D, TimeMesh, heat_kernel
from ksmv.kernel import (KernelSpec, integrated_kernel_symbol, f1_profile, f2_profile,
                         check_hypotheses, horizon_D, find_T0)
from ksmv_helpers import (direct_convolution, kernel_eval, kernel_l1_norm, kernel_l2_norm,
                          kernel_symbol, time_integrated_abs_kernel, time_integrated_kernel)

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
    with pytest.raises(TypeError):   # one normalization: scale chi instead
        KernelSpec(normalization="two_pi")
    with pytest.raises(ValueError):
        KernelSpec(kind="ripley")
    # no kernel but the chemotaxis one (or none) reaches the checker or a solver
    with pytest.raises(ValueError, match="keller_segel or none"):
        KernelSpec(kind="custom")


def test_chi_eff_is_chi_and_zero_for_kind_none():
    assert KernelSpec(chi=1.5).chi_eff == 1.5
    assert KernelSpec(chi=1.5, kind="none").chi_eff == 0.0


# --- pointwise values ------------------------------------------------------


def test_eval_zero_at_origin_and_frozen_value():
    spec = KernelSpec(chi=1.0, lam=0.0)
    assert kernel_eval(spec, 1.0, 0.0) == 0.0
    # -e^{-1/2} / sqrt(2 pi); cross-checked against a central difference below
    assert float(kernel_eval(spec, 1.0, 1.0)) == pytest.approx(-0.2419707, abs=5e-8)


def test_eval_matches_gaussian_derivative():
    spec = KernelSpec(chi=1.3, lam=0.7)
    t, x, eps = 0.6, 0.9, 1e-5
    fd = (heat_kernel(t, x + eps) - heat_kernel(t, x - eps)) / (2.0 * eps)
    want = 1.3 * math.exp(-0.7 * t) * fd
    assert float(kernel_eval(spec, t, x)) == pytest.approx(want, rel=1e-8)


@given(t=st.floats(1e-3, 10.0), x=st.floats(-8.0, 8.0))
def test_eval_odd(t, x):
    spec = KernelSpec(chi=1.0, lam=0.3)
    assert float(kernel_eval(spec, t, -x)) == pytest.approx(-float(kernel_eval(spec, t, x)),
                                                            abs=1e-300)


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
    for v in f1_profile(spec, mesh.nodes[[1, 5, 50, 200]]):
        assert v == pytest.approx(SQRT_2PI, rel=1e-14)


def test_f2_plateau_value():
    spec = KernelSpec(chi=1.0, lam=0.0)
    want = math.pi ** 0.75 / math.sqrt(2.0)
    assert f2_profile(spec, 1.0) == pytest.approx(want, rel=1e-14)


def _quad_profile(lam, T, alpha, s_exp, shift=0.0):
    # int_0^T e^{-lam tau'} tau'^{-alpha} s^{-s_exp} ds, tau' = T + shift - s, by
    # QUADPACK's QAWS rule, which takes the algebraic end singularities exactly
    if shift == 0.0:
        return integrate.quad(lambda s: math.exp(-lam * (T - s)), 0.0, T,
                              weight="alg", wvar=(-s_exp, -alpha))[0]
    return integrate.quad(lambda s: math.exp(-lam * (T + shift - s)) * (T + shift - s) ** -alpha,
                          0.0, T, weight="alg", wvar=(-s_exp, 0.0))[0]


def test_f1_vs_quadrature_with_decay():
    for lam in (0.0, 0.5, 0.8, 32.0):
        spec = KernelSpec(chi=1.0, lam=lam)
        for t in (0.01, 0.5, 1.0):
            want = math.sqrt(2.0 / math.pi) * _quad_profile(lam, t, 0.5, 0.5)
            assert float(f1_profile(spec, t)) == pytest.approx(want, rel=1e-11)


def test_f2_vs_quadrature_with_decay():
    for lam in (0.0, 0.5, 32.0):
        spec = KernelSpec(chi=1.0, lam=lam)
        for t in (0.01, 0.5, 1.0):
            want = 0.5 * math.pi ** -0.25 * _quad_profile(lam, t, 0.75, 0.25)
            assert float(f2_profile(spec, t)) == pytest.approx(want, rel=1e-11)


def test_profiles_stay_finite_and_positive_at_large_decay():
    # e^{-z} M(a, 1, z) ~ z^{a-1} / Gamma(a): no overflow at lambda t = 1e3
    spec = KernelSpec(chi=1.0, lam=1e3)
    f1, f2 = float(f1_profile(spec, 1.0)), float(f2_profile(spec, 1.0))
    assert f1 == pytest.approx(SQRT_2PI / math.sqrt(math.pi * 1e3), rel=1e-3)
    assert f2 == pytest.approx(0.5 * math.pi ** -0.25 * math.pi * math.sqrt(2.0)
                               * 1e3 ** -0.25 / math.gamma(0.75), rel=1e-3)
    h6 = check_hypotheses(spec, TimeMesh(1.0, 10)).items["H6"].value
    assert h6 == pytest.approx(f1, rel=1e-12)


def test_restart_integral_peaks_at_zero_shift():
    # ||K_t||_L1 falls in t, so the restart integral R(T, s) falls in the
    # shift s, and H.6's sup over shifts is R(T, 0) = f1(T)
    T = 0.4
    for lam in (0.0, 0.5, 32.0):
        spec = KernelSpec(chi=1.0, lam=lam)
        restart = [math.sqrt(2.0 / math.pi) * _quad_profile(lam, T, 0.5, 0.5, shift)
                   for shift in T * np.array([0.0, 0.1, 0.5, 1.0])]
        assert np.all(np.diff(restart) < 0.0)
        h6 = check_hypotheses(spec, TimeMesh(T, 40)).items["H6"].value
        assert h6 == pytest.approx(float(f1_profile(spec, T)), rel=1e-12)
        assert h6 == pytest.approx(restart[0], rel=1e-11)


# --- hypothesis checker ----------------------------------------------------


def test_checker_passes_for_chemotaxis_kernel():
    mesh = TimeMesh(1.0, 100)
    for chi, lam in ((1.0, 0.0), (2.0, 0.5)):
        rep = check_hypotheses(KernelSpec(chi=chi, lam=lam), mesh)
        assert rep.all_pass, [it.name for it in rep.items.values() if not it.passed]
        assert set(rep.items) == {"H1", "H2", "H3", "H4", "H5", "H6"}
        assert rep.items["H4"].value <= chi * SQRT_2PI * 1.01


def test_checker_f1_plateau_within_one_percent():
    rep = check_hypotheses(KernelSpec(chi=1.0, lam=0.0), TimeMesh(1.0, 100))
    assert rep.items["H4"].value == pytest.approx(SQRT_2PI, rel=1e-2)
    assert find_T0(KernelSpec(chi=1.0, lam=0.0), 0.5) == pytest.approx(math.pi / 32.0, rel=1e-10)


def test_checker_reads_the_horizon_from_the_mesh():
    spec = KernelSpec(chi=1.0, lam=0.5)
    rep = check_hypotheses(spec, TimeMesh(2.5, 50))
    assert rep.D_of_T == horizon_D(spec, 2.5)
    assert rep.items["H6"].detail == "f1 at T = 2.5, the sup over shifts s >= 0"
    with pytest.raises(ValueError):
        TimeMesh(0.0, 50)


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 15.0, 100.0, 1e4])
def test_h1_increment_ratios_hold_at_every_decay_and_horizon(lam, T):
    # H.1 compares the increments of int_eps^T ||K_t|| dt over [eps_7, eps_6]
    # and [eps_6, eps_5], eps_j = min(T, 1/lambda) 4^{-j}.  Below 1/lambda
    # the norms are t^{-1/2} and t^{-3/4} to first order, so the L1 ratio is
    # 1/2 and the L2 one 1/sqrt(2), however large lambda T is
    spec = KernelSpec(chi=1.0, lam=lam)
    rep = check_hypotheses(spec, TimeMesh(T, 50))
    eps = (min(T, 1.0 / lam) if lam else T) * 4.0 ** -np.arange(5, 8)

    def increment(norm, a, b):
        return integrate.quad(lambda t: norm(spec, t), a, b)[0]

    r1, r2 = (increment(norm, eps[2], eps[1]) / increment(norm, eps[1], eps[0])
              for norm in (kernel_l1_norm, kernel_l2_norm))
    assert abs(r1 - 0.5) < 1e-3 and abs(r2 - 2.0 ** -0.5) < 1e-3
    assert rep.items["H1"].value == pytest.approx(max(r1, r2), rel=1e-9)
    assert rep.items["H1"].passed and rep.all_pass


@pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 100.0])
def test_h2_is_the_steepest_slope_by_central_differences(lam, T):
    spec = KernelSpec(chi=1.3, lam=lam)
    rep = check_hypotheses(spec, TimeMesh(T, 50))
    slopes = []
    for t in T * np.array([0.05, 0.3, 1.0]):
        x = math.sqrt(t) * np.linspace(-4.0, 4.0, 4001)
        step = 1e-4 * math.sqrt(t)
        fd = (kernel_eval(spec, t, x + step) - kernel_eval(spec, t, x - step)) / (2.0 * step)
        slopes.append(float(np.max(np.abs(fd))))
    assert rep.items["H2"].value == pytest.approx(max(slopes), rel=1e-7)
    assert rep.items["H2"].passed


@pytest.mark.parametrize("T", [0.01, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1e4])
def test_h3_is_the_sup_off_the_origin_by_dense_sampling(lam, T):
    # H.3 reads sup_{|x| >= 0.3} |K_t| at t = t_long / 16 against its
    # lambda = 0 value at t_long = min(T, 0.3^2 / 3); |K_t| is even in x
    spec = KernelSpec(chi=2.0, lam=lam)
    rep = check_hypotheses(spec, TimeMesh(T, 50))
    t_long = min(T, 0.03)

    def sampled_sup(s, t):
        x = 0.3 + np.linspace(0.0, 10.0, 200001)
        return float(np.max(np.abs(kernel_eval(s, t, x))))

    assert rep.items["H3"].value == pytest.approx(sampled_sup(spec, t_long / 16.0), rel=1e-12)
    assert rep.items["H3"].bound == pytest.approx(sampled_sup(KernelSpec(chi=2.0), t_long),
                                                  rel=1e-12)
    assert rep.items["H3"].passed


def _trial_densities(grid):
    """Probability densities on the grid: Gaussians of several widths and
    centers, a uniform and a one-cell spike at x = 0."""
    x = grid.x
    trials = [heat_kernel(var, x - center) for var, center in
              ((0.04, 0.0), (0.25, 0.0), (1.0, 0.0), (1.0, 1.5), (0.09, -2.0))]
    trials.append(((x >= -1.0) & (x < 1.0)).astype(float) / 2.0)
    spike = np.zeros(grid.n)
    spike[grid.n // 2] = 1.0 / grid.h
    trials.append(spike)
    return trials


@pytest.mark.parametrize("chi, lam", [(1.0, 0.0), (2.0, 0.5), (0.5, 100.0)])
def test_h5_bounds_every_trial_density_smoothing(chi, lam):
    # Theta_t = |J_t| smoothed by each density stays below Theta_t(0) =
    # chi_eff, and the spike reaches it
    grid, T = Grid1D(10.0, 256), 1.0
    spec = KernelSpec(chi=chi, lam=lam)
    rep = check_hypotheses(spec, TimeMesh(T, 50))
    assert (rep.items["H5"].value, rep.items["H5"].bound) == (chi, chi)
    sup = max(float(np.max(direct_convolution(phi, time_integrated_abs_kernel(spec, t, grid.x),
                                              grid)))
              for t in T * np.array([0.1, 0.3, 1.0]) for phi in _trial_densities(grid))
    assert sup <= chi * (1.0 + 1e-9)
    assert sup == pytest.approx(chi, rel=1e-12)


def test_h4_and_h6_reach_their_plateaus_at_zero_decay_and_fall_below_with_decay():
    # e^{-z} M(a, 1, z) falls from 1 for a < 1, so lambda > 0 stays below the
    # lambda = 0 plateaus, which the closed forms hit to within rounding
    for chi in (0.5, 1.0, 2.0):
        f1_plateau = chi * SQRT_2PI
        f2_plateau = chi * math.pi ** 0.75 / math.sqrt(2.0)
        for lam in (0.0, 1e-12, 0.5, 100.0):
            spec, mesh = KernelSpec(chi=chi, lam=lam), TimeMesh(1.0, 100)
            rep = check_hypotheses(spec, mesh)
            f1_sup = rep.items["H4"].value
            f2_sup = float(np.max(f2_profile(spec, mesh.nodes[1:])))
            assert rep.items["H4"].passed and rep.items["H6"].passed
            assert rep.items["H4"].bound == rep.items["H6"].bound == f1_plateau * (1.0 + 1e-12)
            if lam == 0.0:
                assert f1_sup == pytest.approx(f1_plateau, rel=1e-15)
                assert f2_sup == pytest.approx(f2_plateau, rel=1e-15)
                assert rep.items["H6"].value == pytest.approx(f1_plateau, rel=1e-15)
            else:
                assert f1_sup < f1_plateau and f2_sup < f2_plateau
                assert rep.items["H6"].value < f1_plateau


@pytest.mark.parametrize("kind", ["keller_segel", "none"])
def test_h4_is_its_old_max_over_the_mesh_nodes(kind):
    # the oracle is the max over mesh.nodes[1:] that H.4 once took; H.4 is
    # now f1, f2 at the first node, bit for bit the oracle's first value.
    # At lambda dt in about (4e-17, 8e-17) e^{-z} rounds down by an ulp
    # that the term a z e^{-z}, below half an ulp, cannot lift, while nodes
    # from z = 2^-53 / a on round to the plateau: the oracle's max reads one
    # ulp above H.4 there, and every verdict and detail stays.  The pair
    # chi = 1e300, lambda = 1e-300 is left out: H.1 warns there (CHANGES.md)
    sweep = itertools.product((0.5, 2.0, 20.0, 1e-300, 1e300),
                              (0.0, 1e-300, 1e-12, 0.5, 15.0, 100.0, 1e4),
                              (1e-300, 1e-12, 1e-3, 0.1, 1.0, 1e3), (1, 2, 7, 100, 1600))
    noisy = 0
    for chi, lam, T, M in sweep:
        if (chi, lam) == (1e300, 1e-300):
            continue
        spec, mesh = KernelSpec(chi, lam, kind), TimeMesh(T, M)
        h4 = check_hypotheses(spec, mesh).items["H4"]
        f1, f2 = f1_profile(spec, mesh.nodes[1:]), f2_profile(spec, mesh.nodes[1:])
        f1_plateau = spec.chi_eff * SQRT_2PI
        f2_plateau = spec.chi_eff * math.pi ** 0.75 / math.sqrt(2.0)
        slack = 1.0 + 1e-12
        assert h4.value == f1[0]
        if h4.value != f1.max():
            noisy += 1
            assert 4e-17 < lam * mesh.dt < 8e-17
            assert f1.max() - h4.value == np.spacing(h4.value)
        assert h4.bound == f1_plateau * slack
        assert h4.passed == bool(f1.max() <= f1_plateau * slack and f2.max() <= f2_plateau * slack)
        assert h4.detail == (f"f2 sup {f2.max():.6g}; plateaus {f1_plateau:.6g}, "
                             f"{f2_plateau:.6g} at lambda=0")
    assert (noisy > 0) == (kind == "keller_segel")   # the sweep reaches that window


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
    assert T0 == 0.10153104426762156


def _brentq_T0(spec, safety):
    # the root finder find_T0 used for every lambda > 0 before the erf inversion
    hi = 1.0
    while horizon_D(spec, hi) < safety:
        hi *= 2.0
    return optimize.brentq(lambda T: horizon_D(spec, T) - safety, 1e-300, hi,
                           xtol=1e-14, rtol=1e-13)


def test_find_T0_erf_inversion_hits_safety_and_matches_brentq():
    checked = 0
    for chi in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
        for lam in (1e-4, 1e-2, 0.5, 1.0, 10.0, 100.0):
            for safety in (0.1, 0.3, 0.5, 0.7, 0.9):
                spec = KernelSpec(chi=chi, lam=lam)
                T0 = find_T0(spec, safety)
                if spec.chi_eff * math.sqrt(2.0 / lam) <= safety:
                    assert T0 == math.inf
                    continue
                checked += 1
                assert abs(horizon_D(spec, T0) - safety) <= 1e-15 * safety
                # brentq stops within xtol + rtol |T| of the root, so tiny
                # horizons are compared at its absolute tolerance
                assert T0 == pytest.approx(_brentq_T0(spec, safety), rel=2e-12, abs=1e-14)
    assert checked >= 100


@pytest.mark.parametrize("gap", [1e-3, 1e-9, 1e-15])
def test_find_T0_near_saturation(gap):
    # safety / ceiling = 1 - gap: erf is flat there, yet D(T0) still lands on safety
    spec = KernelSpec(chi=0.5 / ((1.0 - gap) * math.sqrt(2.0)), lam=1.0)
    T0 = find_T0(spec, 0.5)
    assert math.isfinite(T0) and T0 > 0.0
    assert abs(horizon_D(spec, T0) - 0.5) <= 1e-15 * 0.5
    assert horizon_D(spec, T0) <= 0.5


def test_find_T0_saturating_decay_returns_inf():
    # D saturates at chi_eff sqrt(2 / lam) = 0.25 < safety
    assert find_T0(KernelSpec(chi=1.0, lam=32.0), 0.5) == math.inf
    assert find_T0(KernelSpec(chi=0.0), 0.5) == math.inf
    assert find_T0(KernelSpec(kind="none"), 0.5) == math.inf


def test_find_T0_rejects_bad_safety():
    for s in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            find_T0(KernelSpec(), s)
