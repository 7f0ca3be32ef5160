"""Exogenous drift, chemical concentration/gradient, and the consistency residual."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ksmv.grid import Grid1D, TimeMesh, DensityField, heat_kernel
from ksmv.kernel import KernelSpec
from ksmv.field import (InitialChemical, drift_b, chemical_concentration,
                        chemical_gradient, ks_residual)
from ksmv.mild import MarginalHistory, march

from ksmv_helpers import derivative_residual, gaussian_density, periodic_interp

PI_GRID = Grid1D(3.0 * math.pi, 256)   # sin(x) is an exact harmonic here


# --- initial chemical ------------------------------------------------------


def test_sine_snaps_to_grid_harmonic():
    g = Grid1D(10.0, 256)
    chem = InitialChemical.sine(g, amp=1.0, freq=1.0)
    fund = math.pi / 10.0
    assert chem.params["freq"] == pytest.approx(3.0 * fund, rel=1e-15)
    # central-difference residual of a sampled sine is w^3 h^2 / 6 exactly
    assert derivative_residual(chem) < 0.2 * chem.params["freq"] ** 3 * g.h ** 2


def test_sine_on_commensurate_box_keeps_frequency():
    chem = InitialChemical.sine(PI_GRID, amp=0.5, freq=1.0)
    assert chem.params["freq"] == pytest.approx(1.0, rel=1e-15)
    assert np.allclose(chem.c0, 0.5 * np.sin(PI_GRID.x), atol=1e-15)


def test_bump_derivative_consistent():
    g = Grid1D(10.0, 512)
    chem = InitialChemical.gaussian_bump(g, amp=2.0, width=0.8)
    assert derivative_residual(chem) < 5.0 * g.h ** 2


def test_from_samples_central_difference_default():
    g = Grid1D(5.0, 64)
    vals = np.cos(2.0 * math.pi * g.x / 10.0)
    chem = InitialChemical.from_samples(g, vals)
    cd = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * g.h)
    assert np.array_equal(chem.c0_prime, cd)
    assert derivative_residual(chem) == 0.0


def test_chemical_rejects_bad_samples():
    g = Grid1D(5.0, 64)
    with pytest.raises(ValueError):
        InitialChemical.from_samples(g, np.zeros(63))
    bad = np.zeros(64)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        InitialChemical.from_samples(g, bad)


# --- drift b ---------------------------------------------------------------


def test_drift_sine_closed_form():
    chem = InitialChemical.sine(PI_GRID, amp=1.0, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.0)
    for t in (0.0, 0.2, 1.0):
        want = math.exp(-t / 2.0) * np.cos(PI_GRID.x)
        got = drift_b(spec, chem, t)
        assert np.max(np.abs(got - want)) < 1e-12


def test_drift_constant_chemical_vanishes():
    g = Grid1D(5.0, 64)
    chem = InitialChemical.from_samples(g, np.full(g.n, 3.7), c0_prime=np.zeros(g.n))
    assert np.all(drift_b(KernelSpec(chi=2.0), chem, 0.5) == 0.0)


def test_drift_time_zero_is_chi_c0_prime():
    g = Grid1D(8.0, 128)
    chem = InitialChemical.gaussian_bump(g, amp=1.0, width=1.0)
    assert np.allclose(drift_b(KernelSpec(chi=2.5), chem, 0.0), 2.5 * chem.c0_prime)


def test_drift_rejects_negative_time():
    chem = InitialChemical.sine(PI_GRID)
    with pytest.raises(ValueError):
        drift_b(KernelSpec(), chem, -0.1)


def test_drift_bump_closed_form_vs_quadrature():
    g = Grid1D(12.0, 256)
    chem = InitialChemical.gaussian_bump(g, amp=1.5, width=0.9)
    spec = KernelSpec(chi=1.0, lam=0.3)
    t, node = 0.7, 140
    xv = g.x[node]
    assert xv == 1.125
    want, _ = integrate.quad(
        lambda y: -1.5 * y / 0.9 ** 2 * math.exp(-y * y / (2 * 0.9 ** 2))
        * heat_kernel(t, xv - y), -12, 12)
    want *= math.exp(-0.3 * t)
    assert float(drift_b(spec, chem, t)[node]) == pytest.approx(want, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 3.0), amp=st.floats(0.1, 3.0), harm=st.integers(1, 6))
def test_drift_uniform_bound(t, amp, harm):
    freq = harm * math.pi / PI_GRID.half_width
    chem = InitialChemical.sine(PI_GRID, amp=amp, freq=freq)
    spec = KernelSpec(chi=1.7, lam=0.0)
    bound = 1.7 * amp * chem.params["freq"]
    assert float(np.max(np.abs(drift_b(spec, chem, t)))) <= bound * (1.0 + 1e-12)


def test_drift_interp_matches_grid_at_nodes():
    # the pairwise oracle's b at the particles: the grid drift interpolated,
    # exact at the nodes and at their images one period away
    g = Grid1D(6.0, 128)
    chem = InitialChemical.from_samples(g, np.exp(np.sin(math.pi * g.x / 6.0)))
    on_grid = drift_b(KernelSpec(chi=1.0), chem, 0.4)
    for shift in (0.0, 2.0 * g.half_width, -2.0 * g.half_width):
        at_nodes = periodic_interp(g, on_grid, g.x + shift)
        assert np.max(np.abs(on_grid - at_nodes)) < 1e-12


# --- concentration ---------------------------------------------------------


def _zero_history(grid, mesh):
    shape = (mesh.steps + 1, grid.n)
    return MarginalHistory(grid, mesh, np.zeros(shape), {})


def test_concentration_time_zero_is_c0():
    mesh = TimeMesh(0.5, 20)
    chem = InitialChemical.sine(PI_GRID)
    hist = _zero_history(PI_GRID, mesh)
    c = chemical_concentration(hist, chem, 0.7, 0)
    assert np.array_equal(c.values, chem.c0)
    assert np.array_equal(c.gradient, chem.c0_prime)


def test_concentration_homogeneous_part_sine():
    mesh = TimeMesh(0.5, 20)
    lam = 0.7
    chem = InitialChemical.sine(PI_GRID, amp=1.0, freq=1.0)
    hist = _zero_history(PI_GRID, mesh)
    c = chemical_concentration(hist, chem, lam, 20)
    want = math.exp(-lam * 0.5) * math.exp(-0.5 / 2.0) * np.sin(PI_GRID.x)
    assert np.max(np.abs(c.values - want)) < 1e-12
    assert float(np.max(np.abs(c.values))) <= 1.0  # no source: sup can only shrink


def test_concentration_duhamel_frozen_gaussian():
    # rows frozen at g(1,.), lam = 0: source term is int_0^t g(1+s, x) ds
    g = Grid1D(12.0, 512)
    mesh = TimeMesh(0.5, 100)
    rows = np.tile(heat_kernel(1.0, g.x), (mesh.steps + 1, 1))
    hist = MarginalHistory(g, mesh, rows, {})
    chem = InitialChemical.from_samples(g, np.zeros(g.n), c0_prime=np.zeros(g.n))
    c = chemical_concentration(hist, chem, 0.0, mesh.steps)
    for i in range(0, g.n, 37):
        want, _ = integrate.quad(lambda s: heat_kernel(1.0 + s, g.x[i]), 0, 0.5)
        assert c.values[i] == pytest.approx(want, abs=1e-4)


def test_concentration_requires_populated_rows():
    mesh = TimeMesh(0.5, 20)
    chem = InitialChemical.sine(PI_GRID)
    hist = _zero_history(PI_GRID, mesh)
    with pytest.raises(ValueError):
        chemical_concentration(hist, chem, 0.0, 21)


def test_gradient_cross_method_agreement():
    g = Grid1D(3.0 * math.pi, 512)
    mesh = TimeMesh(0.3, 60)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    hist = march(p0, spec, chem, g, mesh)
    c = chemical_concentration(hist, chem, 0.5, mesh.steps)
    assert c.gradient_vs_central_difference() < 5.0 * g.h ** 2


def test_gradient_zero_at_symmetry_point():
    g = Grid1D(10.0, 256)
    mesh = TimeMesh(0.4, 40)
    rows = np.tile(heat_kernel(0.5, g.x), (mesh.steps + 1, 1))
    hist = MarginalHistory(g, mesh, rows, {})
    chem = InitialChemical.from_samples(g, np.full(g.n, 2.0), c0_prime=np.zeros(g.n))
    grad = chemical_gradient(hist, chem, 0.0, mesh.steps)
    assert abs(grad[g.n // 2]) < 1e-14    # even density, odd kernel


# --- the structural drift identity -----------------------------------------


@pytest.mark.parametrize("chi", [1.0, 1.3])
def test_gradient_identity_with_memory_drift(chi):
    from ksmv.mild import memory_drift

    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.3, 60)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    spec = KernelSpec(chi=chi, lam=0.5)
    p0 = gaussian_density(g, 0.5)
    hist = march(p0, spec, chem, g, mesh)
    worst = 0.0
    for k in (0, 1, mesh.steps // 2, mesh.steps):
        lhs = chi * chemical_gradient(hist, chem, spec.lam, k)
        rhs = drift_b(spec, chem, float(mesh.nodes[k])) + memory_drift(hist, spec, k)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12


# --- concentration bounds on a real run ------------------------------------


def test_concentration_young_bound_full_model():
    g = Grid1D(3.0 * math.pi, 256)
    mesh = TimeMesh(0.4, 60)
    chem = InitialChemical.sine(g, amp=0.5, freq=1.0)
    spec = KernelSpec(chi=1.0, lam=0.5)
    hist = march(gaussian_density(g, 0.5), spec, chem, g, mesh)
    c = chemical_concentration(hist, chem, 0.5, mesh.steps)
    sup_rho = float(np.max(hist.densities))
    bound = float(np.max(np.abs(chem.c0))) + mesh.horizon * sup_rho
    assert float(np.max(np.abs(c.values))) <= bound


# --- consistency residual --------------------------------------------------


def test_ks_residual_shrinks_under_refinement():
    spec = KernelSpec(chi=1.0, lam=0.5)
    norms = {}
    for n, M in ((128, 50), (256, 100)):
        g = Grid1D(3.0 * math.pi, n)
        mesh = TimeMesh(0.4, M)
        chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
        hist = march(gaussian_density(g, 0.5), spec, chem, g, mesh)
        norms[n] = float(np.max(ks_residual(hist, chem, 0.5)))
    assert norms[256] < norms[128] / 1.5


# M = 2 and 3 sample every interior node, M = 4 node 2 alone; from M = 4 on
# every max(1, M // 16)-th node from 2 to M - 2: all 22 at M = 25, every
# other one at M = 40, 16 at M = 400
@pytest.mark.parametrize("M, samples", [(2, 1), (3, 2), (4, 1), (25, 22), (40, 19), (400, 16)])
def test_ks_residual_samples_the_interior_nodes(M, samples):
    g = Grid1D(3.0 * math.pi, 64)
    mesh = TimeMesh(0.4, M)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    hist = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh)
    res = ks_residual(hist, chem, 0.5)
    assert res.shape == (samples,)
    assert np.all(np.isfinite(res))


# M = 40 samples nodes 2, 4, ..., 38 and reads nodes 1..39: a NaN row at a
# sampled node or at the last node read is refused, one past it is not read
@pytest.mark.parametrize("nan_row, refused", [(20, True), (39, True), (40, False)])
def test_ks_residual_rejects_a_nan_row_it_reads(nan_row, refused):
    g = Grid1D(3.0 * math.pi, 64)
    mesh = TimeMesh(0.4, 40)
    chem = InitialChemical.sine(g, amp=0.3, freq=1.0)
    rows = march(gaussian_density(g, 0.5), KernelSpec(chi=1.0, lam=0.5), chem, g, mesh).densities
    rows[nan_row] = np.nan
    hist = MarginalHistory(g, mesh, rows, {})
    if refused:
        with pytest.raises(ValueError, match="not all populated"):
            ks_residual(hist, chem, 0.5)
    else:
        assert np.all(np.isfinite(ks_residual(hist, chem, 0.5)))
